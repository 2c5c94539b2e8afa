"""In-memory span recorder for traced runs.

A span is (id, parent id, name, start, end), all spans of one workload run
sharing a run id.  Spans are opened only by the benchmark, around its own
calls into bsscale; nothing inside the package is instrumented.  They are
kept in memory and written out once, when the run ends.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter


def direct(name, fn, *args):
    """The untraced form of Tracer.call."""
    return fn(*args)


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._open: list[int] = []

    def begin(self, name: str) -> None:
        sid = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([sid, parent, name, perf_counter(), None])
        self._open.append(sid)

    def end(self) -> float:
        span = self.spans[self._open.pop()]
        span[4] = perf_counter()
        return span[4] - span[3]

    def call(self, name, fn, *args):
        self.begin(name)
        try:
            return fn(*args)
        finally:
            self.end()

    def total(self, name: str) -> float:
        return sum(end - start for _, _, nm, start, end in self.spans if nm == name)

    def self_times(self) -> dict[str, tuple[float, int]]:
        """name -> (total self time, span count).  Self time is a span's
        duration minus its children's; children of one span run one after
        another, so their durations do not overlap."""
        child = [0.0] * len(self.spans)
        for sid, parent, _, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0.0, 0])
        for sid, _, name, start, end in self.spans:
            out[name][0] += end - start - child[sid]
            out[name][1] += 1
        return {k: (v[0], v[1]) for k, v in out.items()}

    def write(self, path) -> None:
        """Tab-separated: a header with the run id, then one line per span
        (id, parent id or -, name, start, end in perf_counter seconds)."""
        with open(path, "w") as fh:
            fh.write(f"# run {self.run_id}\nid\tparent\tname\tstart\tend\n")
            for sid, parent, name, start, end in self.spans:
                fh.write(f"{sid}\t{'-' if parent is None else parent}\t{name}\t{start!r}\t{end!r}\n")
