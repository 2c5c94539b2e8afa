"""bsscale benchmark.

    python3 perfbench/run.py --workload {cli-session,long-words,oracle-sweep}
                             --seed N --seconds S --trace {0,1}

Run from the repository root.  The package is used from ``src/`` (put on
PYTHONPATH of every child; nothing is installed).  Inputs come from the
seed only.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: end-to-end metrics
with ``--trace 0``, per-layer metrics with ``--trace 1``.  Lines before it
give the same numbers for people, and the run record (machine, commit,
input digest, sample counts, known defects).  Exits 2 without a result
when the source tree is missing.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import inputs
from measure import RefClock, latency_metrics, read_log
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_PROBES = 15
CHILD_TIMEOUT = 150
PROBE = (
    "import sys, time; t = time.perf_counter(); import bsscale.cli; "
    "sys.stdout.write(repr(time.perf_counter() - t) + '\\n'); sys.stdout.flush()"
)

END_TO_END = {
    "ops_per_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}
LAYER_CALLS = (
    "words.parse_word", "words.britton_reduce", "words.format_word",
    "words.equal_elements", "words.conjugacy_normalize",
    "normal_forms.element_normal_form", "normal_forms.bs1n_matrix",
    "normal_forms.bs1n_normal_form",
    "graph.trace", "graph.step",
    "invariants.orbit_order", "invariants.moller_stabilization", "invariants.scale",
    "cosets.enumerate_ball", "cosets.orbit_census", "cosets.orbit_order_bruteforce",
    "cosets.index_bruteforce", "cosets.step_bruteforce",
    "selfcheck.run_all", "cli.run",
)
LAYER_COUNTS = {
    "words.tokens_in": "tokens",
    "words.letters_in": "letters",
    "words.t_letters_in": "letters",
    "words.letters_out": "letters",
    "words.max_exp_bits": "bits",
    "words.pinches_removed": "count",
    "graph.max_node_bits": "bits",
    "cosets.ball_vertices": "count",
    "cosets.scan_iterations": "count",
    "selfcheck.suites_failed": "count",
    "cli.tracebacks": "count",
}


# ---------------------------------------------------------------------------
# child processes: every one is waited for; a watchdog kills a hung one


def _reap(proc: subprocess.Popen, timeout: float):
    """Wait for proc; return (exit code, ru_maxrss in KiB)."""
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode < 0:
        raise RuntimeError(f"child {proc.args[:3]} ended by signal {-proc.returncode}")
    return proc.returncode, usage.ru_maxrss


def pin_to_one_cpu() -> None:
    """Keep this process and every child on one CPU, so the reference loop
    and the timed work run on the same core."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def probe_setup(env: dict) -> tuple[float, float]:
    """(seconds from spawn until ``import bsscale.cli`` has returned,
    seconds the import itself took inside the child)."""
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", PROBE], stdout=subprocess.PIPE,
                            stdin=subprocess.DEVNULL, env=env, cwd=WORK)
    try:
        line = proc.stdout.readline()
        ready = perf_counter() - t0
        proc.stdout.read()
    finally:
        proc.stdout.close()
        code, _ = _reap(proc, CHILD_TIMEOUT)
    if code != 0 or not line:
        raise RuntimeError("import probe failed")
    return ready, float(line)


def probe_interpreter(env: dict) -> float:
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", "pass"], stdin=subprocess.DEVNULL,
                            env=env, cwd=WORK)
    _reap(proc, CHILD_TIMEOUT)
    return perf_counter() - t0


def run_worker(req: dict, env: dict) -> tuple[dict, int]:
    """Run worker.py on a request; return (its result, its ru_maxrss KiB)."""
    req_path = WORK / f"request-{req['name']}.json"
    req["result_path"] = str(WORK / f"result-{req['name']}.json")
    req["spans_path"] = str(WORK / f"spans-{req['name']}.tsv")
    req["latency_path"] = str(WORK / f"latency-{req['name']}.bin")
    req_path.write_text(json.dumps(req))
    proc = subprocess.Popen([sys.executable, str(Path(__file__).with_name("worker.py")),
                             str(req_path)], stdin=subprocess.DEVNULL,
                            stdout=sys.stderr.fileno(), env=env, cwd=WORK)
    code, maxrss = _reap(proc, CHILD_TIMEOUT)
    if code != 0:
        raise RuntimeError(f"worker exited {code}")
    res = json.loads(Path(req["result_path"]).read_text())
    if "seconds" in req:
        res["wall"], res["latencies"] = read_log(req["latency_path"])
    return res, maxrss


# ---------------------------------------------------------------------------
# cli-session: every op is a fresh ``python -m bsscale.cli`` process


class CliSession:
    def __init__(self, ops: list[dict], env: dict):
        import gate  # imports bsscale, for the expected outputs

        self.gate = gate
        self.ops = ops
        self.env = env
        self.expected = [gate.cli_expected(op["argv"]) if op["expect"] == "ok" else None
                         for op in ops]
        self.out = open(WORK / "cli-stdout", "w+b")
        self.err = open(WORK / "cli-stderr", "w+b")
        self.maxrss = 0
        self.problems: list[str] = []

    def close(self) -> None:
        self.out.close()
        self.err.close()

    def one(self, i: int) -> tuple[float, str, bool]:
        """Run op i; return (wall seconds, gate verdict, traceback seen)."""
        for fh in (self.out, self.err):
            fh.seek(0)
            fh.truncate()
        argv = self.ops[i]["argv"]
        t0 = perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "bsscale.cli", *argv],
                                stdin=subprocess.DEVNULL, stdout=self.out, stderr=self.err,
                                env=self.env, cwd=WORK)
        code, maxrss = _reap(proc, CHILD_TIMEOUT)
        wall = perf_counter() - t0
        self.maxrss = max(self.maxrss, maxrss)
        self.out.seek(0)
        self.err.seek(0)
        stdout = self.out.read().decode("utf-8", "replace")
        stderr = self.err.read().decode("utf-8", "replace")
        verdict = self.gate.classify_cli(self.ops[i], code, stdout, stderr, self.expected[i])
        if verdict == self.gate.FAIL and len(self.problems) < 10:
            self.problems.append(f"argv {argv}: exit {code}, stdout {stdout[:80]!r}, "
                                 f"stderr {stderr[-120:]!r}")
        return wall, verdict, "Traceback" in stderr

    def loop(self, seconds: float, tracer=None) -> dict:
        """Cycle through the argv list from its start until time is up."""
        walls, lat, failed, known, tracebacks, k = [], [], 0, 0, 0, 0
        clock = RefClock()
        start = perf_counter()
        while k == 0 or perf_counter() - start < seconds:
            clock.tick()
            if tracer is not None:
                tracer.begin("op")
            wall, verdict, tb = self.one(k % len(self.ops))
            if tracer is not None:
                tracer.end()
            walls.append(wall)
            lat.append(wall * clock.scale())
            failed += verdict == self.gate.FAIL
            known += verdict == self.gate.KNOWN
            tracebacks += tb
            k += 1
        return {"wall": walls, "latencies": lat, "attempted": k, "failed": failed,
                "known": known, "tracebacks_per_op": tracebacks / k}


def run_cli(ops: list[dict], args, env: dict, run_id: str) -> dict:
    session = CliSession(ops, env)
    try:
        session.one(len(ops) - 1)  # warm-up, untimed
        seconds = args.seconds / 2 if args.trace else args.seconds
        res = session.loop(seconds)
        res["maxrss"] = session.maxrss
        if args.trace:
            tracer = Tracer(run_id)
            traced = session.loop(seconds, tracer)
            tracer.write(WORK / "spans-cli-session.tsv")
            res.update(
                traced_ops_per_s=traced["attempted"] / sum(traced["latencies"]),
                traced_attempted=traced["attempted"],
                traced_failed=traced["failed"],
                tracebacks_per_op=traced["tracebacks_per_op"],
                mean_op_s=tracer.total("op") / traced["attempted"],
            )
            replay, _ = run_worker({"workload": "cli-session", "ops": ops, "passes": 3,
                                    "run_id": run_id, "name": "cli-session-replay"}, env)
            res["layers"] = replay["layers"]
        res["problems"] = session.problems
        return res
    finally:
        session.close()


# ---------------------------------------------------------------------------
# run record


def machine_record() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    src = hashlib.sha256()
    for path in sorted((SRC / "bsscale").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "cpu_model": cpu,
        "loadavg_start": os.getloadavg(),
        "commit": commit,
        "source_sha256": src.hexdigest(),
    }


# ---------------------------------------------------------------------------


def layer_metrics(res: dict, counters: dict, interp_s: float | None, import_s: float) -> dict:
    layers = res.get("layers", {})
    out = {}
    for name in LAYER_CALLS:
        s, calls = layers.get(name, (0.0, 0))
        out[f"{name}.s"] = (s, "s")
        out[f"{name}.calls"] = (calls, "count")
    for name, unit in LAYER_COUNTS.items():
        out[name] = (counters.get(name, 0), unit)
    iters = counters.get("cosets.scan_iterations", 0)
    out["cosets.scan_hit_ratio"] = (counters.get("cosets.scan_hits", 0) / iters if iters else 0.0,
                                    "ratio")
    out["cli.import_s"] = (import_s, "s")
    out["cli.interpreter_s"] = (interp_s, "s")
    untraced = latency_metrics(res["latencies"])["ops_per_s"]
    out["trace.overhead_ops_per_s"] = (res["traced_ops_per_s"] - untraced, "ops/s")
    out["trace.accounted_share"] = (res["accounted_share"], "ratio")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "bsscale" / "__init__.py").is_file():
        print(f"error: no bsscale source tree at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    pin_to_one_cpu()
    env = child_env()
    run_id = f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"

    record = machine_record()
    data = inputs.make(args.workload, args.seed)
    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, run_id=run_id, inputs_sha256=inputs.digest(data),
                  ops_in_list=len(data["ops"]))

    probe_setup(env)  # warm-up: file cache, bytecode cache where enabled
    clock = RefClock(every=0)
    probes = []
    for _ in range(SETUP_PROBES):
        clock.tick()
        ready, import_time = probe_setup(env)
        probes.append((ready, ready * clock.scale(), import_time))
    setup_s = statistics.median(s for _, s, _ in probes)
    import_s = statistics.median(i for _, _, i in probes)
    interp_s = (statistics.median(probe_interpreter(env) for _ in range(SETUP_PROBES))
                if args.trace else None)

    if args.workload == "cli-session":
        res = run_cli(data["ops"], args, env, run_id)
        counters = {"cli.tracebacks": res["tracebacks_per_op"]}
        known = res["known"]
        maxrss = res["maxrss"]
        if args.trace:
            run_s, _ = res["layers"]["cli.run"]
            res["accounted_share"] = (interp_s + import_s + run_s) / res["mean_op_s"]
    else:
        res, maxrss = run_worker({"workload": args.workload, "ops": data["ops"],
                                  "seconds": args.seconds, "trace": args.trace,
                                  "run_id": run_id, "name": args.workload}, env)
        counters = res["counters"]
        known = 0

    lat = res["latencies"]
    e2e = latency_metrics(lat)
    e2e["peak_rss_mb"] = maxrss / 1024
    e2e["setup_s"] = setup_s
    wall = latency_metrics(res["wall"])
    wall["setup_s"] = statistics.median(r for r, _, _ in probes)
    attempted = res["attempted"] + res.get("traced_attempted", 0)
    failed = res["failed"] + res.get("traced_failed", 0)
    record.update(
        distinct_ops=res.get("distinct_ops", min(len(data["ops"]), res["attempted"])),
        latency_samples=len(lat),
        samples_beyond_p90=sum(x * 1e3 > e2e["latency_p90_ms"] for x in lat),
        wall_clock=wall,
        failed_ratio=(res["failed"] + known) / res["attempted"],
        known_defect_ops=known,
        gate_problems=res["problems"],
    )
    if args.trace:
        metrics = layer_metrics(res, counters, interp_s, import_s)
        record["tracing_overhead_ops_per_s"] = metrics["trace.overhead_ops_per_s"][0]
    else:
        metrics = {k: (e2e[k], unit) for k, unit in END_TO_END.items()}

    for name, (value, unit) in metrics.items():
        print(f"{args.workload:>12}  {name:<40} {value:>14.6g} {unit}")
    if not args.trace:
        print(f"{args.workload:>12}  {'failed_ratio':<40} {record['failed_ratio']:>14.6g} "
              f"failed/attempted (known defects included)")
    print("record " + json.dumps(record))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
