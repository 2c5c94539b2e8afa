"""Workload process: runs the long-words or oracle-sweep op list in a
closed loop (one client, each op starts when the previous one returns), or
replays the cli-session argv list in-process through ``bsscale.cli.run``.

Usage: python worker.py REQUEST.json   (written by run.py; the result goes
to the path named in the request)

The loop cycles through the op list from its start until the time is up.
The first output of each op is checked by the gate and its fingerprint
kept; later outputs of that op must match the fingerprint.  Checks run
outside the timed region.  In a traced run the first half of the time runs
untraced and the second half, from the start of the list again, records a
span around every call into bsscale.  Per-layer figures are per op.
Latencies, as wall time and scaled by the reference clock (measure.py)
timed between ops, stream to a file that run.py reads.
"""

from __future__ import annotations

import io
import json
import sys
from collections import Counter
from time import perf_counter

import bsscale
from bsscale import cli, selfcheck
from bsscale.params import GroupParams

import gate
import inputs
from measure import LatencyLog, RefClock
from spans import Tracer, direct


# ---------------------------------------------------------------------------
# ops: ``call(name, fn, *args)`` is the span hook (spans.direct when untraced)


def long_op(call, p: GroupParams, op: dict) -> dict:
    w = call("words.parse_word", bsscale.parse_word, op["text"])
    r = call("words.britton_reduce", bsscale.britton_reduce, p, w)
    out = {
        "word": w,
        "reduced": r,
        "normal_form": call("normal_forms.element_normal_form", bsscale.element_normal_form, p, w),
        "formatted": call("words.format_word", bsscale.format_word, r),
        "orbit_order": call("invariants.orbit_order", bsscale.orbit_order, p, r),
        "trace": call("graph.trace", bsscale.trace, p, r),
        "equal": call("words.equal_elements", bsscale.equal_elements, p, w, r),
        "scale": call("invariants.scale", bsscale.scale, p, w).value,
        "conjugate": call("words.conjugacy_normalize", bsscale.conjugacy_normalize, p, op["raw"]),
        "moller": call("invariants.moller_stabilization", bsscale.moller_stabilization,
                       p, op["moller"], op["kmax"]),
    }
    if abs(p.m) == 1:
        out["bs1n_matrix"] = call("normal_forms.bs1n_matrix", bsscale.bs1n_matrix, p, op["raw"])
        out["bs1n_normal_form"] = call("normal_forms.bs1n_normal_form",
                                       bsscale.bs1n_normal_form, p, op["raw"])
    return out


def sweep_op(call, p: GroupParams, op: dict):
    kind = op["kind"]
    if kind == "orbit":
        w = call("words.parse_word", bsscale.parse_word, op["text"])
        return (call("invariants.orbit_order", bsscale.orbit_order, p, w),
                call("cosets.orbit_order_bruteforce", bsscale.orbit_order_bruteforce, p, w))
    if kind == "trace":
        w = call("words.parse_word", bsscale.parse_word, op["text"])
        return (call("graph.trace", bsscale.trace, p, w),
                call("cosets.index_bruteforce", bsscale.index_bruteforce, p, w, 1))
    if kind == "step":
        x, eps = op["x"], op["eps"]
        return (call("graph.step", bsscale.step, p, x, eps),
                call("cosets.step_bruteforce", bsscale.step_bruteforce, p, x, eps))
    if kind == "ball":
        return call("cosets.enumerate_ball", bsscale.enumerate_ball, p, op["radius"])
    if kind == "census":
        return call("cosets.orbit_census", bsscale.orbit_census, p, op["radius"])
    if kind == "selfcheck":
        return call("selfcheck.run_all", selfcheck.run_all, op["seed"])
    raise ValueError(kind)


# ---------------------------------------------------------------------------
# per-pass counters, taken from inputs and verified outputs


def long_counters(c: Counter, p: GroupParams, op: dict, out: dict) -> None:
    w, r = out["word"], out["reduced"]
    t_in, t_out = w.count("t") + w.count("T"), r.count("t") + r.count("T")
    c["words.tokens_in"] += len(gate.tokens(op["text"]))
    c["words.letters_in"] += len(w)
    c["words.t_letters_in"] += t_in
    c["words.letters_out"] += len(r)
    c["words.pinches_removed"] += (t_in - t_out) // 2
    exps, _ = inputs.syllables(r)
    c["words.max_exp_bits"] = max(c["words.max_exp_bits"], *(abs(e).bit_length() for e in exps))
    nodes = (out["trace"], out["orbit_order"], out["moller"][0][-1])
    c["graph.max_node_bits"] = max(c["graph.max_node_bits"], *(v.bit_length() for v in nodes))


def sweep_counters(c: Counter, p: GroupParams, op: dict, out) -> None:
    kind = op["kind"]
    if kind in ("orbit", "trace", "step"):
        closed, brute = out
        c["graph.max_node_bits"] = max(c["graph.max_node_bits"], closed.bit_length())
        if kind == "step":
            # step_bruteforce stops at the first multiple c of x that conjugates
            # into <a>, which its result determines: |result| = x c |m|/|n| for
            # t (or x c |n|/|m| for t^-1)
            num, den = (abs(p.n), abs(p.m)) if op["eps"] > 0 else (abs(p.m), abs(p.n))
            c["cosets.scan_iterations"] += brute * num // (op["x"] * den)
        else:  # the scan tries 1, 2, ... and stops at its result
            c["cosets.scan_iterations"] += brute
        c["cosets.scan_hits"] += 1
    elif kind == "ball":
        c["cosets.ball_vertices"] += len(out.vertices)
    elif kind == "census":
        c["cosets.ball_vertices"] += sum(out.values())
    elif kind == "selfcheck":
        c["selfcheck.suites_failed"] += sum(not ok for _, ok, _ in out)


def freeze(x):
    """A hashable fingerprint of an op output."""
    if isinstance(x, dict):
        return tuple((k, freeze(v)) for k, v in sorted(x.items()))
    if isinstance(x, (list, tuple)):
        return tuple(freeze(v) for v in x)
    if isinstance(x, bsscale.CosetTable):
        return (tuple(x.vertices), tuple(x.edges), x.boundary)
    return x


WORKLOADS = {
    "long-words": (long_op, gate.check_long, long_counters),
    "oracle-sweep": (sweep_op, gate.check_sweep, sweep_counters),
}


# ---------------------------------------------------------------------------


class Runner:
    """Cycles through the op list in a closed loop until its time is up.
    The first time an op's output is seen it goes through the gate, after
    the op's timed region; later outputs must match its fingerprint."""

    def __init__(self, req: dict):
        self.op_fn, self.check, self.count = WORKLOADS[req["workload"]]
        self.ops = [(GroupParams(*op["group"]) if "group" in op else None, op)
                    for op in req["ops"]]
        self.fingerprints: list = [None] * len(self.ops)  # False: failed the gate
        self.problems: list[str] = []
        self.counters: Counter = Counter()
        self.verified = 0

    def verify(self, i: int, out) -> bool:
        fp = self.fingerprints[i]
        if fp is not None:
            return fp is not False and hash(freeze(out)) == fp
        p, op = self.ops[i]
        bad = self.check(op, out)
        self.problems += [f"op {i}: {b}" for b in bad]
        if bad:
            self.fingerprints[i] = False
            return False
        self.fingerprints[i] = hash(freeze(out))
        self.count(self.counters, p, op, out)
        self.verified += 1
        return True

    def loop(self, seconds: float, log: LatencyLog, call=direct,
             tracer: Tracer | None = None) -> int:
        """Run ops from the start of the list until ``seconds`` have passed,
        logging wall and reference-scaled latencies; return failures."""
        failed, k = 0, 0
        clock = RefClock()
        start = perf_counter()
        while k == 0 or perf_counter() - start < seconds:
            i = k % len(self.ops)
            p, op = self.ops[i]
            clock.tick()
            if tracer is not None:
                tracer.begin("op")
            t0 = perf_counter()
            out = self.op_fn(call, p, op)
            wall = perf_counter() - t0
            if tracer is not None:
                tracer.end()
            log.add(wall, wall * clock.scale())
            failed += not self.verify(i, out)
            k += 1
        log.close()
        return failed


MAXIMA = ("words.max_exp_bits", "graph.max_node_bits")


def run_ops(req: dict) -> dict:
    runner = Runner(req)
    p, op = runner.ops[0]
    runner.verify(0, runner.op_fn(direct, p, op))  # warm-up, untimed
    seconds = req["seconds"] / 2 if req["trace"] else req["seconds"]
    log = LatencyLog(req["latency_path"])
    res = {"failed": runner.loop(seconds, log), "attempted": log.n}
    if req["trace"]:
        tracer = Tracer(req["run_id"])
        traced_log = LatencyLog(req["latency_path"] + ".traced")
        traced_failed = runner.loop(seconds, traced_log, tracer.call, tracer)
        tracer.write(req["spans_path"])
        layers = tracer.self_times()
        glue, _ = layers.pop("op")
        n = traced_log.n
        res.update(
            traced_ops_per_s=n / traced_log.scaled_sum,
            traced_attempted=n,
            traced_failed=traced_failed,
            layers={k: (s / n, calls / n) for k, (s, calls) in layers.items()},
            accounted_share=1 - glue / tracer.total("op"),
        )
    per_op = {k: v if k in MAXIMA else v / runner.verified for k, v in runner.counters.items()}
    res.update(problems=runner.problems[:10], counters=per_op,
               distinct_ops=runner.verified + runner.fingerprints.count(False))
    return res


def replay_cli(req: dict) -> dict:
    """In-process cli.run over the cli-session argv list, traced."""
    tracer = Tracer(req["run_id"])
    for _ in range(req["passes"]):
        for op in req["ops"]:
            try:
                tracer.call("cli.run", cli.run, op["argv"], io.StringIO(), io.StringIO())
            except Exception:  # the known-defect inputs escape cli.run; the
                pass  # subprocess runs count them
    tracer.write(req["spans_path"])
    n = req["passes"] * len(req["ops"])
    return {"layers": {k: (s / n, calls / n) for k, (s, calls) in tracer.self_times().items()}}


def main(request_path: str) -> None:
    with open(request_path) as fh:
        req = json.load(fh)
    res = replay_cli(req) if req["workload"] == "cli-session" else run_ops(req)
    with open(req["result_path"], "w") as fh:
        json.dump(res, fh)


if __name__ == "__main__":
    main(sys.argv[1])
