"""Measurement helpers: the reference clock, the per-op latency log and
the latency statistics.

Reference clock: converts wall time into time at a fixed machine speed.

The speed of the shared machines this benchmark runs on drifts by tens of
percent over tens of seconds, far more than the changes it must resolve.
So the benchmark times a fixed pure-Python reference loop between ops,
outside the timed regions, and scales each op's wall time by
REF_SECONDS / (the loop's recent time).  Scaled times read as on a machine
where the loop takes exactly REF_SECONDS.  The loop does not touch bsscale,
so no change to the package moves it.  Raw wall-clock figures go into the
run record as well.
"""

from __future__ import annotations

import statistics
import struct
from array import array
from collections import deque
from pathlib import Path
from time import perf_counter

REF_SECONDS = 1e-3

_TEXT = "aAtT" * 16384
_SWAP = str.maketrans("aAtT", "AaTt")


def reference_loop() -> int:
    """Fixed work in roughly the mix of the package's word code: an
    interpreter loop over integers, lists and dicts, then C-level string
    work on a 64 KiB string (translate, reverse, count, slice, join)."""
    acc, table, parts = 0, {}, []
    for i in range(1200):
        acc = (acc * 31 + i * i) % 1_000_003
        table[i & 127] = acc
        parts.append("aAtT"[acc & 3])
    text = _TEXT.translate(_SWAP)[::-1]
    joined = "".join([text[:20000], "".join(parts), text[30000:]])
    return acc + len(table) + joined.count("a")


class RefClock:
    """Times the reference loop at most every ``every`` seconds and keeps
    the last few timings; ``scale()`` turns wall seconds into reference
    seconds at the machine's current speed."""

    def __init__(self, every: float = 0.02, window: int = 5):
        self.every = every
        self.recent: deque[float] = deque(maxlen=window)
        self._last = float("-inf")

    def tick(self) -> None:
        if perf_counter() - self._last < self.every:
            return
        t0 = perf_counter()
        reference_loop()
        dt = perf_counter() - t0
        self.recent.append(dt)
        self._last = perf_counter()

    def scale(self) -> float:
        return REF_SECONDS / statistics.median(self.recent)


_PAIR = struct.Struct("dd")


class LatencyLog:
    """Appends (wall, scaled) latency pairs to a binary file, so that the
    workload process holds no per-op state that grows with the op count
    (its peak RSS is a metric)."""

    def __init__(self, path):
        self._fh = open(path, "wb")
        self.n = 0
        self.scaled_sum = 0.0

    def add(self, wall: float, scaled: float) -> None:
        self._fh.write(_PAIR.pack(wall, scaled))
        self.n += 1
        self.scaled_sum += scaled

    def close(self) -> None:
        self._fh.close()


def read_log(path) -> tuple[list[float], list[float]]:
    """(wall, scaled) latencies written by a LatencyLog."""
    values = array("d")
    values.frombytes(Path(path).read_bytes())
    return values[0::2].tolist(), values[1::2].tolist()


def latency_metrics(lat: list[float]) -> dict:
    """ops/s over op time, and the median and 90th percentile in ms."""
    return {
        "ops_per_s": len(lat) / sum(lat),
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_p90_ms": statistics.quantiles(lat, n=10, method="inclusive")[8] * 1e3,
    }
