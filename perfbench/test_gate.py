"""Tests of the benchmark's own gate and inputs.

    PYTHONPATH=src python -m pytest perfbench -q

Each gate test plants one wrong answer and checks that it is caught.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path[:0] = [str(Path(__file__).resolve().parent), str(Path(__file__).resolve().parents[1] / "src")]

import gate  # noqa: E402
import inputs  # noqa: E402
import worker  # noqa: E402
from bsscale.params import GroupParams  # noqa: E402
from spans import Tracer, direct  # noqa: E402


def _smallest_long_op(m: int):
    ops = [op for op in inputs.make("long-words", 0)["ops"] if abs(op["group"][0]) == m]
    return min(ops, key=lambda op: len(op["text"]) + len(op["raw"]))


def test_inputs_depend_only_on_seed():
    for w in inputs.WORKLOADS:
        assert inputs.digest(inputs.make(w, 3)) == inputs.digest(inputs.make(w, 3))
        assert inputs.digest(inputs.make(w, 3)) != inputs.digest(inputs.make(w, 4))


def test_known_defects_stay_in_every_cli_session():
    for seed in (0, 1):
        argvs = [op["argv"] for op in inputs.make("cli-session", seed)["ops"]]
        for argv in inputs.CLI_KNOWN_DEFECTS:
            assert list(argv) in argvs


def test_long_words_gate_passes_and_catches_a_planted_error():
    for m in (1, 2):
        op = _smallest_long_op(m)
        p = GroupParams(*op["group"])
        out = worker.long_op(direct, p, op)
        assert gate.check_long(op, out) == []
        wrong = dict(out, scale=out["scale"] + 1)
        assert any("scale" in b for b in gate.check_long(op, wrong))
        pinched = dict(out, reduced=out["reduced"] + "t" + "a" * p.m + "T")
        assert gate.check_long(op, pinched)


def test_matrix_oracle_catches_an_unequal_word():
    op = _smallest_long_op(1)
    out = worker.long_op(direct, GroupParams(*op["group"]), op)
    neg, q, pos = out["bs1n_normal_form"]
    wrong = dict(out, bs1n_normal_form=(neg, q + 1, pos))
    assert any("bs1n_normal_form" in b for b in gate.check_long(op, wrong))


def test_sweep_gate_catches_closed_form_vs_brute_force_mismatch():
    op = {"kind": "orbit", "group": [2, 3], "text": "t"}
    assert gate.check_sweep(op, (2, 2)) == []
    assert gate.check_sweep(op, (2, 3))
    assert gate.check_sweep(op, (2, None))


def test_run_counts_a_planted_wrong_answer(monkeypatch, tmp_path):
    ops = [op for op in inputs.make("oracle-sweep", 0)["ops"] if op["kind"] == "step"][:5]
    real = worker.sweep_op

    def planted(call, p, op):
        closed, brute = real(call, p, op)
        return (closed + 1, brute) if op is ops[2] else (closed, brute)

    monkeypatch.setitem(worker.WORKLOADS, "oracle-sweep",
                        (planted, gate.check_sweep, worker.sweep_counters))
    res = worker.run_ops({"workload": "oracle-sweep", "ops": ops, "seconds": 0.05, "trace": 0,
                          "latency_path": str(tmp_path / "latency.bin")})
    runs_of_planted = len(range(2, res["attempted"], len(ops)))
    assert runs_of_planted >= 1
    assert res["failed"] == runs_of_planted
    assert len(res["problems"]) == 1


def test_cli_classification():
    ok = {"argv": [], "expect": "ok"}
    assert gate.classify_cli(ok, 0, "2\n", "", "2\n") == gate.PASS
    assert gate.classify_cli(ok, 0, "3\n", "", "2\n") == gate.FAIL
    err = {"argv": [], "expect": "error", "exit": 2}
    assert gate.classify_cli(err, 2, "", "parse error: x", None) == gate.PASS
    assert gate.classify_cli(err, 1, "", "usage error: x", None) == gate.FAIL
    assert gate.classify_cli(err, 2, "", "Traceback (most recent call last):", None) == gate.FAIL
    known = {"argv": [], "expect": "error", "known_defect": True}
    assert gate.classify_cli(known, 1, "", "Traceback (most recent call last):", None) == gate.KNOWN
    assert gate.classify_cli(known, 3, "", "domain error: x", None) == gate.PASS
    assert gate.classify_cli(known, 0, "8\n", "", None) == gate.FAIL


def test_cli_expected_matches_the_readme_examples():
    assert gate.cli_expected(["--group", "2,3", "scale", "t"]) == "2\n"
    assert gate.cli_expected(["--group", "2,3", "--output", "json", "scale", "t"]) == \
        '{"base": 2, "exponent": 1, "value": "2"}\n'
    assert gate.cli_expected(["--group", "2,3", "moller", "--kmax", "5", "t"]) == \
        "2 4 8 16 32 | ratio 2 | scale 2 OK\n"
    assert gate.cli_expected(["--group", "2,4", "trace", "--start", "2", "--h", "2",
                              "t^4 a t^-2 a"]) == "8\n"
    assert gate.cli_expected(["--group", "2,3", "census", "--radius", "2"]) == \
        "1:1 2:6 3:6 4:4 9:9\n"
    assert gate.cli_expected(["--group", "2,3", "ball", "--radius", "2"]) == \
        "vertices 26 edges 25 boundary 20\n"


def test_self_time_subtracts_children():
    tracer = Tracer("t")
    tracer.begin("op")
    tracer.call("inner", sum, range(10000))
    tracer.end()
    times = tracer.self_times()
    op_span, inner_span = tracer.spans
    assert times["inner"][0] == inner_span[4] - inner_span[3]
    assert abs(times["op"][0] + times["inner"][0] - (op_span[4] - op_span[3])) < 1e-12
