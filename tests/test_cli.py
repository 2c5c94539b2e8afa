"""Command line surface: dispatch, output formats, exit codes, determinism."""

import io
import json
import os
import shlex
import subprocess
import sys
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import bsscale
from bsscale import (
    DomainError,
    GroupParams,
    NoPathError,
    NotANodeError,
    WordConditionError,
    edges_from,
    enumerate_ball,
    export_dot,
)
from bsscale import cli, graph, invariants, normal_forms, selfcheck
from bsscale import words as words_module
from bsscale.cli import run
from bsscale.graph import to_dot

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def _bsscale(argv, cwd, **kwargs):
    """``python -W error -m bsscale.cli *argv`` as a process, with 10 s to
    finish."""
    env = {**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
    command = [sys.executable, "-W", "error", "-m", "bsscale.cli", *argv]
    return subprocess.run(command, env=env, cwd=cwd, text=True, timeout=10, **kwargs)


ERROR_CLASS = {1: "usage error: ", 2: "parse error: ", 3: "domain error: "}

# The process contract, one row per exit case: (argv as shell words, exit
# code[, the end of stdout]).  Every case runs as its own process.
EXIT_CASES = [
    ("--group 2,3 trace --start 0 t", 3),
    ("--group 2,3 trace --h 0 t", 3),
    ("--group 2,3 ball --radius 2 --dot missing-dir/x.dot", 1),
    ("--group 2,3 reduce a^99999999999999999999", 2),
    ("--group 2,3 ball --radius -3", 1),
    ("--group 2,3 census --radius -1", 1),
    ("--group 2,3 omega-edges --levels -1", 1),
    ("--group 2,3 trace --start 0 a", 3),
    ("--group 2,3 trace --h 0 a", 3),
    ("--group 2,3 reduce a^\u00b2", 2),
    ("--group 2,3 omega-edges --dot missing-dir/x.dot", 1),
    ("--group 2,3 orbit-brute --dmax -5 t", 1),
    ("--group 2,3 ball --radius 1 --dot ''", 1),
    ("--group 2,3 omega-edges --dot ''", 1),
    ("--group 2,3 --budget -1 ball --radius 0", 1),
    (f"--group 2,3 rho t^{'1' * 5000}", 2),
    (f"--group 2,3 reduce a^{'1' * 5000}", 2),
    ("--group 2,3 scale t^15000", 3),
    ("--group 2,3 modular t^15000", 3),
    ("--group 2,3 trace t^15000", 3),
    ("--group 2,3 orbit t^15000", 3),
    ("--group 2,3 --output json scale t^15000", 3),
    ("--group 2,3 --output json orbit t^15000", 3),
    ('--group 1,3 reduce "t^9100 a T^9100"', 3),
    ('--group 1,3 nf "t^9100 a T^9100"', 3),
    ('--group 1,3 matrix "t^9100 a T^9100"', 3),
    ('--group 1,3 --output json nf "t^9100 a T^9100"', 3),
    ("selfcheck --seed 0", 0),
    ("--group -1,2 moller --kmax 3 t", 0),
    ('--group 2,3 orbit-brute "t^10"', 0),
    ("--group 3,6 census --radius 3", 0),
    ("--group=3,-2 census --radius 4", 0),
    ("--group 2,3 moller --kmax 8 TaTaTaTa", 0, " OK\n"),
    # nested words: one strip per t run, and no normalization when discrete
    ('--group 2,3 moller --kmax 2 "t^200000 a T^200000"', 0),
    ('--group 2,2 moller --kmax 2 "a t^300000 a^2 T^300000 a"', 0),
    # normalized words and conjugators of about 10^19 letters are never written out
    ('--group 1,3 moller --kmax 2 "t^39 a T^39 a"', 0),
    ('--group 1,3 moller --kmax 2 "t^39 a T^39 T a t A"', 0),
    # the census counts walk states: a walk per sign sequence is quadratic here
    ("--group 1,1 census --radius 20000", 0),
    ("--group 2,3 moller --kmax 0 t", 1),
    ('--group 2,3 rho "a^"', 2),
    # text that int() alone would accept is still a parse error
    ('--group 2,3 reduce "a^1_0 t"', 2),
    ('--group 2,3 reduce "t a^\u0663"', 2),
    ("--group 2,4 omega-dist 1 2", 3),
    ("--group 2,3 ball --radius 100000", 3),
    ("--group 2,3 scale-set --rho-max 15000", 3),
    ("--group 2,3 omega-edges --levels 100000", 3),
    ("--group 2,1000000016000000063 structure", 3),
    ("--group 2,3 moller --kmax 15000 t", 3),
    ('--group 2,3 orbit-brute "t^24"', 3),
    ("--group 2,3 moller --kmax 1000000 tATa", 3),
    # an empty a run costs the matrix no power; the answer has more than
    # 4,300 digits
    ('--group 1,2 matrix "T^200000 a t^200000"', 3),
    ("--group 2,3 scale t", 0, "2\n"),
    ("--group 0,3 scale t", 3),
    # discrete groups: both scale bases are 1, so the set is {1} at once
    ("--group 2,2 scale-set --rho-max 99999999999999999999", 0, "1\n"),
    ("--group 3,-3 scale-set --rho-max 99999999999999999999", 0, "1\n"),
    # a line group's ball has 1 + 2R vertices, counted without a loop over R
    ("--group 1,1 --budget 99999999999999999999 census --radius 99999999999999999999", 3),
    ("--group 1,1 --budget 99999999999999999999 ball --radius 99999999999999999999", 3),
    ("--group=-1,1 --budget 99999999999999999999 census --radius 99999999999999999999", 3),
    # trace and orbit size their answer from the walk before the first step
    ("--group 2,3 orbit t^400000", 3),
    ("--group 2,3 trace t^400000", 3),
    # and refuse no answer that fits: 2^14284 and 3^9012 have 4,300 digits
    ("--group 2,3 trace t^14284", 0),
    ("--group 2,3 orbit t^9012", 0),
    # so do moller, from the walk of z^kmax, and trace at any --start and --h
    ('--group 2,3 moller --kmax 3 "t^80000 a T^80000 a"', 3),
    ("--group 2,3 trace --h 2 t^200000", 3),
    ("--group 2,3 moller --kmax 2 t^7142", 0),
    ("--group 2,3 moller --kmax 2 t^7143", 3),
    ("--group 2,3 trace --h 2 t^14284", 0),
    ("--group 2,3 trace --h 2 t^14285", 3),
    # moller's steps, kmax times the t letters of z, meet the budget too
    ('--group 7,-4 moller --kmax 2000 "t^3000 a^2 T^3000 a"', 3),
    ("--group 2,3 --budget 10 moller --kmax 5 t^2", 0),
    ("--group 2,3 --budget 9 moller --kmax 5 t^2", 3),
    # a line group's ball of radius 5 has 11 vertices: the budget's boundary
    ("--group 1,1 --budget 10 ball --radius 5", 3),
    ("--group 1,1 --budget 11 ball --radius 5", 0, "vertices 11 edges 10 boundary 2\n"),
    # g = 2 is no node of BS(4,6): the root is 1
    ("--group 4,6 omega-dist 2 2", 3),
]


class TestBasicCommands:
    def test_scale_text(self):
        code, out, _ = invoke(["--group", "2,3", "scale", "t"])
        assert code == 0 and out == "2\n"

    def test_scale_json(self):
        code, out, _ = invoke(["--group", "2,3", "--output", "json", "scale", "t"])
        assert code == 0
        assert json.loads(out) == {"base": 2, "exponent": 1, "value": "2"}

    def test_rho(self):
        code, out, _ = invoke(["--group", "2,3", "rho", "taTTat"])
        assert code == 0 and out == "0\n"

    def test_reduce(self):
        code, out, _ = invoke(["--group", "2,3", "reduce", "t a^2 T"])
        assert code == 0 and out == "a^3\n"

    def test_reduce_identity_prints_e(self):
        code, out, _ = invoke(["--group", "2,3", "reduce", "aA"])
        assert code == 0 and out == "e\n"

    def test_nf(self):
        code, out, _ = invoke(["--group", "2,3", "nf", "a^3 t"])
        assert code == 0 and out == "t a^2\n"

    def test_equal(self):
        code, out, _ = invoke(["--group", "2,3", "equal", "t a^2 T", "a^3"])
        assert code == 0 and out == "true\n"
        code, out, _ = invoke(["--group", "2,3", "equal", "t", "T"])
        assert code == 0 and out == "false\n"

    def test_modular(self):
        code, out, _ = invoke(["--group", "2,3", "modular", "t"])
        assert code == 0 and out == "2/3\n"

    def test_flat_rank_and_kernel(self):
        assert invoke(["--group", "3,3", "flat-rank"])[1] == "0\n"
        assert invoke(["--group", "3,3", "kernel"])[1] == "3\n"
        assert invoke(["--group", "2,3", "kernel"])[1] == "0\n"

    def test_moller(self):
        code, out, _ = invoke(["--group", "2,3", "moller", "--kmax", "5", "t"])
        assert code == 0
        assert out == "2 4 8 16 32 | ratio 2 | scale 2 OK\n"

    def test_trace(self):
        code, out, _ = invoke(
            ["--group", "2,4", "trace", "--start", "2", "--h", "2", "t^4 a t^-2 a"]
        )
        assert code == 0 and out == "8\n"

    def test_omega_dist(self):
        code, out, _ = invoke(["--group", "2,3", "omega-dist", "4", "9"])
        assert code == 0 and out == "2\n"

    def test_omega_edges(self):
        code, out, _ = invoke(["--group", "2,3", "omega-edges", "--levels", "1"])
        assert code == 0
        assert "1 t 2" in out and "1 t^-1 3" in out

    def test_orbit(self):
        assert invoke(["--group", "2,3", "orbit", "t"])[1] == "3\n"
        assert invoke(["--group", "2,3", "orbit-brute", "--dmax", "10", "t"])[1] == "3\n"

    def test_orbit_brute_none(self):
        code, out, _ = invoke(["--group", "2,3", "orbit-brute", "--dmax", "8", "tt"])
        assert code == 0 and out == "none\n"

    def test_ball_summary_and_dot(self, tmp_path):
        path = tmp_path / "ball.dot"
        code, out, _ = invoke(
            ["--group", "2,3", "ball", "--radius", "1", "--dot", str(path)]
        )
        assert code == 0
        assert out == "vertices 6 edges 5 boundary 5\n"
        assert path.read_bytes() == export_dot(enumerate_ball(GroupParams(2, 3), 1)).encode()

    @pytest.mark.parametrize("m,n", [(2, 3), (-2, 3)])
    def test_omega_edges_dot(self, tmp_path, m, n):
        path = tmp_path / "omega.dot"
        argv = ["--group", f"{m},{n}", "omega-edges", "--levels", "2"]
        code, out, err = invoke(argv + ["--dot", str(path)])
        assert code == 0
        assert (code, out, err) == invoke(argv)
        assert path.read_bytes() == to_dot(GroupParams(m, n), 2).encode()

    def test_omega_edges_never_strips(self, tmp_path, monkeypatch):
        # the listed nodes are built from their coordinates, so neither the
        # CLI nor to_dot classifies a value; edges_from still does
        def refuse(v, base):
            raise AssertionError("a listed node was stripped")

        monkeypatch.setattr(graph, "_strip", refuse)
        path = tmp_path / "omega.dot"
        argv = ["--group", "2,3", "omega-edges", "--levels", "6"]
        code, out, err = invoke(argv + ["--dot", str(path)])
        assert (code, err) == (0, "") and out.count("\n") == 2 * 28
        assert invoke(["--output", "json"] + argv)[0] == 0
        assert path.read_bytes() == to_dot(GroupParams(2, 3), 6).encode()
        with pytest.raises(AssertionError, match="stripped"):
            edges_from(GroupParams(2, 3), 2)

    def test_omega_edges_with_dot_steps_each_edge_once(self, tmp_path, monkeypatch):
        steps = []
        step = graph.step

        def count(p, x, eps):
            steps.append((x, eps))
            return step(p, x, eps)

        monkeypatch.setattr(graph, "step", count)
        monkeypatch.setattr(bsscale, "step", count)
        path = tmp_path / "omega.dot"
        argv = ["--group", "2,3", "omega-edges", "--levels", "6", "--dot", str(path)]
        assert invoke(argv)[0] == 0
        assert len(steps) == len(set(steps)) == 2 * 28

    @pytest.mark.parametrize(
        "argv,expected",
        [
            (["--group", "2,4", "omega-edges"], 3),
            (["--group", "2,3", "omega-edges", "--levels", "-2"], 1),
            (["--group", "0,3", "ball", "--radius", "1"], 3),
            (["--group", "2,3", "--budget", "10", "ball", "--radius", "5"], 3),
        ],
    )
    def test_failed_command_writes_no_dot_file(self, tmp_path, argv, expected):
        path = tmp_path / "g.dot"
        code, out, err = invoke(argv + ["--dot", str(path)])
        assert code == expected and out == "" and "Traceback" not in err
        assert not path.exists()

    def test_census(self):
        code, out, _ = invoke(["--group", "2,3", "census", "--radius", "1"])
        assert code == 0 and out == "1:1 2:2 3:3\n"

    def test_census_large_common_factor(self):
        code, out, _ = invoke(["--group", "1000,2000", "census", "--radius", "1"])
        assert code == 0 and out == "1:1 1000:1000 2000:2000\n"

    def test_structure(self):
        code, out, _ = invoke(["--group", "4,6", "structure"])
        assert code == 0
        assert "primes_vplus: 2" in out
        assert "primes_vminus: 3" in out
        assert "quotient_order_bound: 2" in out

    def test_structure_with_word(self):
        _, out, _ = invoke(["--group", "2,3", "structure", "T"])
        assert "swap_applied: true" in out

    def test_matrix(self):
        code, out, _ = invoke(["--group", "1,2", "matrix", "a t a"])
        assert code == 0
        assert out == "[[2, 3], [0, 1]] | t^-0 a^3 t^1\n"

    def test_scale_set(self):
        code, out, _ = invoke(["--group", "2,3", "scale-set", "--rho-max", "2"])
        assert code == 0 and out == "1 2 3 4 9\n"


class TestHugeAnswers:
    """reduce and nf print an answer from its syllables, never as letters:
    here 3^20 letters, about 3.5 GB."""

    @pytest.mark.parametrize(
        "cmd,payload",
        [
            ("reduce", {"word": "a^3486784401"}),
            ("nf", {"syllables": [], "tail": 3486784401, "word": "a^3486784401"}),
        ],
    )
    def test_answer_not_written_out(self, cmd, payload, monkeypatch):
        def refuse(exps, signs):
            raise AssertionError("answer written out as letters")

        monkeypatch.setattr(words_module, "syllables_to_word", refuse)
        monkeypatch.setattr(normal_forms, "syllables_to_word", refuse)
        argv = ["--group", "1,3", cmd, "t^20 a T^20"]
        assert invoke(argv) == (0, "a^3486784401\n", "")
        code, out, err = invoke(["--output", "json"] + argv)
        assert code == 0 and err == "" and json.loads(out) == payload

    # z = a^(3^39 + 1) after the pinch cascade: about 4 * 10^18 letters; in
    # the second word the wrap move also conjugates by a^(3^39 - 1) T
    @pytest.mark.parametrize("word", ["t^39 a T^39 a", "t^39 a T^39 T a t A"])
    def test_moller_never_writes_the_normalized_word(self, word, monkeypatch):
        def refuse(exps, signs):
            raise AssertionError("normalized word written out as letters")

        monkeypatch.setattr(words_module, "syllables_to_word", refuse)
        argv = ["--group", "1,3", "moller", "--kmax", "2", word]
        code, out, _ = invoke(argv)
        assert (code, out) == (0, "1 1 | ratio 1 | scale 1 OK\n")


class TestJsonMode:
    @pytest.mark.parametrize(
        "argv",
        [
            ["scale", "t"],
            ["modular", "T"],
            ["structure"],
            ["nf", "a^3 t"],
            ["moller", "--kmax", "4", "t"],
            ["census", "--radius", "1"],
            ["ball", "--radius", "1"],
            ["omega-edges", "--levels", "2"],
            ["scale-set", "--rho-max", "3"],
        ],
    )
    def test_parses_as_json(self, argv):
        code, out, _ = invoke(["--group", "2,3", "--output", "json"] + argv)
        assert code == 0
        json.loads(out)

    def test_structure_fields(self):
        _, out, _ = invoke(["--group", "4,6", "--output", "json", "structure"])
        d = json.loads(out)
        for key in (
            "primes_vplus",
            "primes_vminus",
            "quotient_order_bound",
            "flat_rank",
            "kernel_exponent",
            "swap_applied",
        ):
            assert key in d
        assert d["primes_vplus"] == [2] and d["primes_vminus"] == [3]

    def test_modular_fields(self):
        _, out, _ = invoke(["--group", "2,-3", "--output", "json", "modular", "t"])
        assert json.loads(out) == {"numerator": 2, "denominator": 3}


class TestExitCodes:
    def test_usage_error(self):
        code, _, err = invoke(["--group", "2,3", "no-such-command"])
        assert code == 1 and err

    def test_missing_group(self):
        code, _, err = invoke(["scale", "t"])
        assert code == 1 and "group" in err

    def test_bad_group_format(self):
        code, _, _ = invoke(["--group", "2;3", "scale", "t"])
        assert code == 1

    def test_negative_m_after_space(self):
        spaced = invoke(["--group", "-1,2", "scale", "t"])
        assert spaced == invoke(["--group=-1,2", "scale", "t"])
        assert spaced[0] == 0 and spaced[1] == "1\n"

    def test_parse_error_with_offset(self):
        code, _, err = invoke(["--group", "2,3", "scale", "t b"])
        assert code == 2 and "offset 2" in err

    def test_zero_parameter_is_domain_error(self):
        code, _, err = invoke(["--group", "0,3", "scale", "t"])
        assert code == 3 and "domain error" in err

    def test_matrix_requires_unit_m(self):
        code, _, err = invoke(["--group", "2,3", "matrix", "t"])
        assert code == 3 and "domain error" in err

    def test_budget_exceeded(self):
        code, _, err = invoke(
            ["--group", "2,3", "--budget", "10", "ball", "--radius", "5"]
        )
        assert code == 3 and "budget" in err

    def test_divisor_case_geometry_error(self):
        code, _, err = invoke(["--group", "2,4", "omega-dist", "2", "4"])
        assert code == 3

    def test_trace_rejects_pinched_word(self):
        code, _, err = invoke(["--group", "2,3", "trace", "t a^2 T"])
        assert code == 3

    @pytest.mark.parametrize(
        "row", EXIT_CASES, ids=[f"argv{i}-{row[1]}" for i, row in enumerate(EXIT_CASES)]
    )
    def test_documented_code_without_traceback(self, row, tmp_path):
        """One real ``python -W error -m bsscale.cli`` process per row: the
        exact exit code within 10 s and no Traceback.  An error leaves
        stdout empty and names its class on the last stderr line; a success
        prints something, ending as the row says."""
        argv, code, ending = row if len(row) == 3 else (*row, "")
        res = _bsscale(shlex.split(argv), tmp_path, capture_output=True)
        assert res.returncode == code and "Traceback" not in res.stderr, res.stderr
        if code:
            assert res.stdout == ""
            assert res.stderr.splitlines()[-1].startswith(ERROR_CLASS[code])
        else:
            assert res.stdout.strip() and res.stdout.endswith(ending)

    @pytest.mark.parametrize(
        "argv",
        [
            '--group 1,2 matrix "T^2000 a t^2000"',
            "--group 2,3 ball --radius 6",
            "--group 2,3 scale t",
        ],
    )
    def test_closed_stdout_exits_1(self, argv, tmp_path):
        read, write = os.pipe()
        os.close(read)
        try:
            res = _bsscale(shlex.split(argv), tmp_path, stdout=write, stderr=subprocess.PIPE)
        finally:
            os.close(write)
        assert res.returncode == 1
        assert "Traceback" not in res.stderr and "Exception ignored" not in res.stderr

    @pytest.mark.parametrize(
        "argv,message",
        [
            ([], "the following arguments are required: command"),
            (
                ["--group", "2,3", "scale", "--output", "json", "t"],
                "unrecognized arguments: --output t",
            ),
            (["--group", "2,3", "ball", "--radius", "1", "extra"], "unrecognized arguments: extra"),
            (["--foo", "--group", "2,3", "scale", "t", "bar"], "unrecognized arguments: --foo bar"),
            (["--foo", "--group", "2,3", "ball"], "the following arguments are required: --radius"),
        ],
    )
    def test_usage_error_message(self, argv, message):
        assert invoke(argv) == (1, "", f"usage error: {message}\n")

    def test_digit_limit_message(self):
        code, out, err = invoke(["--group", "2,3", "scale", "t^15000"])
        assert (code, out) == (3, "")
        assert err == f"domain error: answer has more than {sys.get_int_max_str_digits()} digits\n"

    @pytest.mark.parametrize(
        "argv,answer",
        [
            (["trace", "t"], "2\n"),
            (["orbit", "t"], "3\n"),
            (["moller", "--kmax", "2", "t"], "2 4 | ratio 2 | scale 2 OK\n"),
            (["scale-set", "--rho-max", "3"], "1 2 3 4 8 9 27\n"),
        ],
        ids=["trace", "orbit", "moller", "scale-set"],
    )
    def test_no_digit_limit_before_python_3_10_7(self, argv, answer, monkeypatch):
        """sys.get_int_max_str_digits first shipped in Python 3.10.7."""
        monkeypatch.delattr(sys, "get_int_max_str_digits")
        assert invoke(["--group", "2,3"] + argv) == (0, answer, "")

    @pytest.mark.parametrize("cmd", ["ball", "census"])
    @pytest.mark.parametrize("radius", ["7000", "60000", "100000"])
    def test_huge_radius_names_the_budget(self, cmd, radius):
        code, out, err = invoke(["--group", "2,3", cmd, "--radius", radius])
        assert (code, out) == (3, "")
        assert err == (
            f"domain error: radius {radius} ball has more vertices than the budget 200000\n"
        )

    @pytest.mark.parametrize("rho_max", ["15000", "1000000000"])
    def test_scale_set_checks_the_digit_limit_first(self, rho_max, monkeypatch):
        def refuse(p, rho_max):
            raise AssertionError("scale set built past the digit limit")

        monkeypatch.setattr(bsscale, "scale_value_set", refuse)
        code, out, err = invoke(["--group", "2,3", "scale-set", "--rho-max", rho_max])
        assert (code, out) == (3, "")
        assert err == f"domain error: answer has more than {sys.get_int_max_str_digits()} digits\n"

    @pytest.mark.parametrize(
        "argv,message",
        [
            (
                ["--group", "2,3", "omega-edges", "--levels", "100000", "--dot", "g.dot"],
                "levels 100000 graph has more nodes than the budget 200000",
            ),
            (
                ["--group", "2,1000000016000000063", "structure"],
                "factoring needs trial divisors past the bound 1000000",
            ),
            (
                ["--group", "2,3", "moller", "--kmax", "15000", "t"],
                f"answer has more than {sys.get_int_max_str_digits()} digits",
            ),
        ],
    )
    def test_unbounded_inputs_exit_3_at_start(self, argv, message, tmp_path, monkeypatch):
        def refuse(*args):
            raise AssertionError("work started past a budget")

        for name in ("nodes_through", "to_dot", "moller_stabilization"):
            monkeypatch.setattr(bsscale, name, refuse)
        monkeypatch.setattr(graph, "step", refuse)  # moller sizes z from _normalized
        monkeypatch.chdir(tmp_path)
        code, out, err = invoke(["--output", "json"] + argv)
        assert (code, out, err) == (3, "", f"domain error: {message}\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["moller", "--kmax", "3", "t^40000 a T^40000 a"],
            ["moller", "--kmax", "2", "t^7143"],  # 2^7143 fits; 2^14286 does not
            ["trace", "--h", "2", "t^50000"],
            ["trace", "--start", "3", "t^50000"],
            ["orbit", "t^50000"],
        ],
    )
    def test_node_answers_sized_before_any_step(self, argv, monkeypatch):
        def refuse(*args):
            raise AssertionError("a step ran before the answer was sized")

        monkeypatch.setattr(graph, "step", refuse)
        code, out, err = invoke(["--group", "2,3"] + argv)
        assert (code, out) == (3, "")
        assert err == f"domain error: answer has more than {sys.get_int_max_str_digits()} digits\n"

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["--group", "2,3", "orbit-brute", "t^24"], "scan passed the budget 200000"),
            (
                ["--group", "2,3", "moller", "--kmax", "1000000", "tATa"],
                "kmax 1000000 asks for more indices than the budget 200000",
            ),
        ],
    )
    def test_scan_and_kmax_budgets_exit_3(self, argv, message):
        for output in ("text", "json"):
            code, out, err = invoke(["--output", output] + argv)
            assert (code, out) == (3, "") and "Traceback" not in err
            assert err.endswith(f"domain error: {message}\n")

    def test_kmax_budget_checked_before_any_step(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("work started past the kmax budget")

        for name in ("scale", "moller_stabilization", "step"):
            monkeypatch.setattr(bsscale, name, refuse)
        monkeypatch.setattr(graph, "step", refuse)
        cases = [
            (
                ["--group", "2,3", "--budget", "5", "moller", "--kmax", "6", "t"],
                ("_normalized", "_indices"),
                "kmax 6 asks for more indices than the budget 5",
            ),
            # the step count, kmax times the t letters of z, needs z's signs
            (
                ["--group", "7,-4", "moller", "--kmax", "2000", "t^3000 a^2 T^3000 a"],
                ("_indices",),
                "kmax 2000 asks for 12000000 steps, over the budget 200000",
            ),
        ]
        for argv, refused, message in cases:
            with monkeypatch.context() as patch:
                for name in refused:
                    patch.setattr(invariants, name, refuse)
                code, out, err = invoke(argv)
            assert (code, out) == (3, "")
            assert err == f"domain error: {message}\n"

    @pytest.mark.parametrize(
        "budget,dmax,expected",
        [
            (None, None, (0, "59049\n")),
            ("59049", None, (0, "59049\n")),
            ("59048", None, (3, "")),
            ("59048", "60000", (3, "")),
            ("10", "1000", (3, "")),
            ("1000", "1000", (0, "none\n")),
            ("0", "0", (0, "none\n")),
        ],
    )
    def test_orbit_brute_scans_at_most_the_budget(self, budget, dmax, expected, monkeypatch):
        bounds = []
        scan = bsscale.orbit_order_bruteforce

        def record(p, w, d_max=None):
            bounds.append(d_max)
            return scan(p, w, d_max)

        monkeypatch.setattr(bsscale, "orbit_order_bruteforce", record)
        argv = ["--group", "2,3"] + (["--budget", budget] if budget else [])
        argv += ["orbit-brute"] + (["--dmax", dmax] if dmax else []) + ["t^10"]
        code, out, err = invoke(argv)
        assert (code, out) == expected
        bound = 6**10 if dmax is None else int(dmax)
        assert bounds == [min(bound, int(budget or 200000))]
        if code:
            assert err == f"domain error: scan passed the budget {budget}\n"

    def test_divisor_case_reported_before_the_levels_budget(self):
        code, out, err = invoke(["--group", "2,4", "omega-edges", "--levels", "100000"])
        assert (code, out) == (3, "")
        assert err.endswith("domain error: level layout undefined in the divisor case\n")

    @pytest.mark.parametrize("levels", range(5))
    def test_levels_budget_counts_the_listed_nodes(self, levels):
        size = len(bsscale.nodes_through(GroupParams(2, 3), levels))
        argv = ["omega-edges", "--levels", str(levels)]
        assert invoke(["--group", "2,3", "--budget", str(size)] + argv)[0] == 0
        code, out, err = invoke(["--group", "2,3", "--budget", str(size - 1)] + argv)
        assert (code, out) == (3, "")
        assert err == (
            f"domain error: levels {levels} graph has more nodes than the budget {size - 1}\n"
        )

    def test_other_value_errors_escape(self, monkeypatch):
        def broken(p, args):
            raise ValueError("not a digit limit")

        _, arguments, notice, group = cli._COMMANDS["rho"]
        monkeypatch.setitem(cli._COMMANDS, "rho", (broken, arguments, notice, group))
        with pytest.raises(ValueError, match="not a digit limit"):
            invoke(["--group", "2,3", "rho", "t"])

    def test_unwritable_dot_message(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        for cmd in (["ball", "--radius", "1"], ["omega-edges"]):
            for path in (str(tmp_path / "missing-dir" / "x.dot"), ""):
                _, _, err = invoke(["--group", "2,3"] + cmd + ["--dot", path])
                assert err.startswith("usage error: cannot write --dot file: ")
        assert list(tmp_path.iterdir()) == []

    def test_kmax_checked_before_notice(self):
        code, out, err = invoke(["--group", "3,3", "moller", "--kmax", "0", "t"])
        assert code == 1 and out == ""
        assert err == "usage error: argument --kmax: invalid positive value: '0'\n"

    def test_exit_3_errors_are_domain_errors(self):
        for cls in (WordConditionError, NotANodeError, NoPathError):
            assert issubclass(cls, DomainError)

    def test_negative_bound_message(self):
        _, _, err = invoke(["--group", "2,3", "orbit-brute", "--dmax", "-5", "t"])
        assert "argument --dmax: invalid nonnegative value: '-5'" in err

    def test_errors_leave_stdout_clean(self):
        for argv in (["--group", "2,3", "scale", "t b"], ["--group", "0,3", "scale", "t"]):
            _, out, err = invoke(argv)
            assert out == "" and err != ""


class TestSubcommandHelp:
    @pytest.mark.parametrize(
        "name,usage",
        [
            ("reduce", "[-h] word"),
            ("nf", "[-h] word"),
            ("rho", "[-h] word"),
            ("equal", "[-h] word other"),
            ("scale", "[-h] word"),
            ("modular", "[-h] word"),
            ("flat-rank", "[-h]"),
            ("kernel", "[-h]"),
            ("moller", "[-h] [--kmax KMAX] word"),
            ("trace", "[-h] [--start START] [--h H] word"),
            ("omega-edges", "[-h] [--levels LEVELS] [--dot PATH]"),
            ("omega-dist", "[-h] x y"),
            ("orbit", "[-h] word"),
            ("orbit-brute", "[-h] [--dmax DMAX] word"),
            ("ball", "[-h] --radius RADIUS [--dot PATH]"),
            ("census", "[-h] --radius RADIUS"),
            ("structure", "[-h] [word]"),
            ("matrix", "[-h] word"),
            ("scale-set", "[-h] --rho-max RHO_MAX"),
            ("selfcheck", "[-h] [--seed SEED]"),
        ],
    )
    def test_usage_line(self, name, usage, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        assert run([name, "--help"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == f"usage: bsscale {name} {usage}"


class TestHelpOutput:
    @pytest.mark.parametrize("argv", [["--help"], ["scale", "--help"], ["-h"], ["scale", "-h"]])
    def test_help_goes_to_out(self, argv, capsys):
        code, out, err = invoke(argv)
        assert code == 0 and err == ""
        assert out.startswith(" ".join(["usage: bsscale"] + argv[:-1]))
        assert capsys.readouterr() == ("", "")

    def test_short_flag_prints_the_same_help(self):
        assert invoke(["-h"]) == invoke(["--help"])
        usage = invoke(["-h"])[1].split("\n\n")[0]
        assert " ".join(usage.split()).endswith(f" {TestLazySubparsers.COMMANDS} ...")

    def test_help_names_the_digit_limit(self):
        _, out, _ = invoke(["--help"])
        assert "an answer past Python's int/str digit limit" in " ".join(out.split())


class TestLazySubparsers:
    COMMANDS = (
        "{reduce,nf,rho,equal,scale,modular,flat-rank,kernel,moller,trace,omega-edges,"
        "omega-dist,orbit,orbit-brute,ball,census,structure,matrix,scale-set,selfcheck}"
    )

    @pytest.mark.parametrize(
        "argv,code,built",
        [
            (["--group", "2,3", "scale", "t"], 0, ["bsscale scale"]),
            (["--gr", "2,3", "ball", "--radius", "0"], 0, ["bsscale ball"]),
            (["--group", "scale", "scale", "t"], 1, ["bsscale scale"]),
            (["moller", "--help"], 0, ["bsscale moller"]),
            (["--help"], 0, []),
            (["--group", "2,3", "frobnicate"], 1, []),
        ],
    )
    def test_builds_only_the_chosen_parser(self, argv, code, built, monkeypatch):
        progs = []
        init = cli._Parser.__init__

        def record(parser, *args, **kwargs):
            init(parser, *args, **kwargs)
            progs.append(parser.prog)

        monkeypatch.setattr(cli._Parser, "__init__", record)
        assert invoke(argv)[0] == code
        assert progs == ["bsscale"] + built

    def test_usage_and_choice_error_list_every_command(self):
        _, out, _ = invoke(["--help"])
        assert self.COMMANDS in " ".join(out.split())
        _, _, err = invoke(["--group", "2,3", "frobnicate"])
        assert self.COMMANDS[1:-1] in err.replace(" ", "").replace("'", "")


class TestNotices:
    def test_discrete_notice_on_stderr(self):
        _, out, err = invoke(["--group", "3,3", "scale", "t"])
        assert out == "1\n"
        assert "discrete" in err

    def test_divisor_notice(self):
        _, out, err = invoke(["--group", "2,4", "scale", "t"])
        assert out == "1\n"
        assert "divides" in err

    def test_no_notice_in_json_mode(self):
        _, _, err = invoke(["--group", "3,3", "--output", "json", "scale", "t"])
        assert err == ""


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["--group", "2,3", "census", "--radius", "2"],
            ["--group", "2,3", "--output", "json", "ball", "--radius", "2"],
            ["--group", "2,3", "moller", "--kmax", "6", "taTat"],
            ["selfcheck", "--seed", "3"],
        ],
    )
    def test_byte_identical_reruns(self, argv):
        first = invoke(argv)
        second = invoke(argv)
        assert first == second


class TestSelfcheck:
    def test_passes_and_reports(self):
        code, out, _ = invoke(["selfcheck", "--seed", "0"])
        assert code == 0
        assert "ok:" in out
        assert "FAIL" not in out

    def test_json(self):
        code, out, _ = invoke(["--output", "json", "selfcheck", "--seed", "1"])
        assert code == 0
        d = json.loads(out)
        assert d["failures"] == 0
        assert all(r["ok"] for r in d["results"])

    def test_failing_suite_exits_4(self, monkeypatch):
        suites = [("always fails", "1 case", lambda rng: "case 7")]
        monkeypatch.setattr(selfcheck, "_SUITES", suites)
        code, out, _ = invoke(["selfcheck"])
        assert code == 4
        assert out.splitlines() == ["FAIL: always fails (case 7)", "0/1 suites passed"]
        code, out, _ = invoke(["--output", "json", "selfcheck"])
        assert code == 4 and json.loads(out)["failures"] == 1



# ---------------------------------------------------------------------------
# Every argv gets an answer or a documented error.  A tidy argv is well
# formed; a wild one may break every part of it.  Valid sizes are capped
# (radius, levels, budget, t exponents), so that no example does much work.

_ARABIC_INDIC = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))
_NOT_NUMBERS = ["", "-", "+", "x", "1.5", "0x1f", "1__0", "_1", "--1", "\u00b2", " ", "9" * 4301]
_HUGE = ["99999999999999999999", "1" + "0" * 30]


def _numbers(lo, hi, huge=True):
    """(tidy, wild) strategies of number text as a user may type it.  Tidy
    numbers lie in [lo, hi], written with ASCII or Arabic-Indic digits or
    with an underscore, all of which int() reads.  Wild ones may also be
    negative, huge (unless ``huge`` is False: a huge budget would let the
    work grow), or no number at all."""
    small = st.integers(lo, hi)
    tidy = st.one_of(
        small.map(str),
        small.map(lambda v: str(v).translate(_ARABIC_INDIC)),
        small.map(lambda v: f"{'-' if v < 0 else ''}0_{abs(v)}"),
    )
    wild = st.one_of(
        tidy,
        st.integers(-99, -1).map(str),
        st.sampled_from(_NOT_NUMBERS + [f"-{v}" for v in _HUGE] + (_HUGE if huge else [])),
    )
    return tidy, wild


_GROUP_PARTS = _numbers(-7, 7)
_GROUPS = (
    st.tuples(_GROUP_PARTS[0], _GROUP_PARTS[0]).map(",".join),
    st.one_of(
        st.tuples(_GROUP_PARTS[1], _GROUP_PARTS[1]).map(",".join),
        st.sampled_from(["", "2", "2,3,4", ",", "a,b", "2;3", " 2 , 3 "]),
    ),
)
_GOOD_TOKENS = st.tuples(st.sampled_from("aAtT"), st.one_of(st.none(), st.integers(-12, 12))).map(
    lambda t: t[0] if t[1] is None else f"{t[0]}^{t[1]}"
)
_BAD_TOKENS = st.sampled_from([
    "x", "^", "a^", "t^-", "a^_1", "a^1_0", "a^\u00b2", "t^\u0663", "\u00e4", "a^+-1",
    "a^" + "1" + "0" * 20, "T^-" + "9" * 20, "t^" + "9" * 4301,
])
_SEPARATORS = st.sampled_from(["", " ", "\u3000", "\t"])
_GOOD_WORDS, _ANY_WORDS = (
    st.lists(st.tuples(tokens, _SEPARATORS), max_size=10).map(
        lambda toks: "".join(tok + sep for tok, sep in toks)
    )
    for tokens in (_GOOD_TOKENS, st.one_of(_GOOD_TOKENS, _BAD_TOKENS))
)
_WORDS = (st.one_of(_GOOD_WORDS, _ANY_WORDS), _ANY_WORDS)  # a parse error is documented too
_DOT_PATHS = (st.just("{tmp}/g.dot"), st.sampled_from(["{tmp}/g.dot", "{tmp}/missing/g.dot", ""]))
_RADIUS = _numbers(0, 4)

# command -> its options (name, tidy and wild values) and its positionals
_FUZZ_COMMANDS = {
    "reduce": ([], [_WORDS]),
    "nf": ([], [_WORDS]),
    "rho": ([], [_WORDS]),
    "equal": ([], [_WORDS, _WORDS]),
    "scale": ([], [_WORDS]),
    "modular": ([], [_WORDS]),
    "flat-rank": ([], []),
    "kernel": ([], []),
    "moller": ([("--kmax", _numbers(1, 30))], [_WORDS]),
    "trace": ([("--start", _numbers(-50, 50)), ("--h", _numbers(-50, 50))], [_WORDS]),
    "omega-edges": ([("--levels", _numbers(0, 12)), ("--dot", _DOT_PATHS)], []),
    "omega-dist": ([], [_numbers(-50, 50), _numbers(-50, 50)]),
    "orbit": ([], [_WORDS]),
    "orbit-brute": ([("--dmax", _numbers(0, 500))], [_WORDS]),
    "ball": ([("--radius", _RADIUS), ("--dot", _DOT_PATHS)], []),
    "census": ([("--radius", _RADIUS)], []),
    "structure": ([], [_WORDS]),
    "matrix": ([], [_WORDS]),
    "scale-set": ([("--rho-max", _numbers(0, 40))], []),
    "selfcheck": ([("--seed", _numbers(-9, 9))], []),
}
_REQUIRED = {"ball": "--radius", "census": "--radius", "scale-set": "--rho-max"}


@st.composite
def _argvs(draw):
    """A command line: optional global options, a command, each of its
    options present or not, and its positionals.  A wild one may also
    name an unknown command, leave out or double a positional, or end in
    a stray argument."""
    wild = draw(st.booleans())
    argv = []
    if draw(st.integers(0, 9)) or wild:
        argv += ["--group", draw(_GROUPS[wild])]
    if draw(st.booleans()):
        argv += ["--output", draw(st.sampled_from(["text", "json", "xml"][: 2 + wild]))]
    if draw(st.booleans()):
        argv += ["--budget", draw(_numbers(0, 5000, huge=False)[wild])]
    name = draw(st.sampled_from([*_FUZZ_COMMANDS, *["frobnicate"][:wild]]))
    argv.append(name)
    options, positionals = _FUZZ_COMMANDS.get(name, ([], [_WORDS]))
    for option, values in options:
        if draw(st.integers(0, 3)) or _REQUIRED.get(name) == option and not wild:
            argv += [option, draw(values[wild])]
    count = draw(st.integers(0, len(positionals) + 1)) if wild else len(positionals)
    argv += [draw(values[wild]) for values in (positionals * 2)[:count]]
    if wild:
        argv += draw(st.sampled_from([[], [], ["--help"], ["--frob"], ["extra"], ["--budget"]]))
    return argv


class TestArgvFuzz:
    @given(_argvs())
    @settings(max_examples=1600, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_every_argv_gets_an_exit_code(self, argv):
        """Each argv returns a code in 0-4 without an exception; an error
        (1-3) leaves stdout empty and names its class on the last stderr
        line."""
        with tempfile.TemporaryDirectory() as tmp:
            code, out, err = invoke([arg.replace("{tmp}", tmp) for arg in argv])
        assert code in range(5)
        if code in ERROR_CLASS:
            assert out == ""
            assert err.splitlines()[-1].startswith(ERROR_CLASS[code])


_NONZERO = st.sampled_from([*range(-6, 0), *range(1, 7)])


_MOLLER_ARGV = ["moller", "--kmax", "2", "t^2000 a T^2000"]


class TestNodeRoutes:
    """``moller``, ``orbit`` and ``trace`` each read their word once, size
    the answer from the t signs read, and fold the same signs, by the two
    halves the library's ``moller_stabilization``, ``orbit_order`` and
    ``trace`` are made of."""

    @pytest.mark.parametrize(
        "group,argv,reader,calls",
        [
            ("2,3", _MOLLER_ARGV, "conjugacy_normalize_syllables", 1),
            ("2,2", _MOLLER_ARGV, "conjugacy_normalize_syllables", 0),
            # the scale comes from the rho that _normalized read
            ("2,3", _MOLLER_ARGV, "t_exponent", 0),
            # a pinch cascade: each reduction takes most of a second
            ("1,3", ["orbit", "t^40000 a T^40000"], "reduce_syllables", 1),
            ("2,3", ["trace", "t a T a " * 1000], "check_traceable", 1),
        ],
        ids=["moller-2,3", "moller-2,2", "moller-rho-2,3", "orbit-1,3", "trace-2,3"],
    )
    def test_word_read_once(self, group, argv, reader, calls):
        code = getattr(words_module, reader).__code__
        seen = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code is code:
                seen.append(frame)

        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            result = invoke(["--group", group] + argv)
        finally:
            sys.setprofile(previous)
        assert result[0] == 0
        assert len(seen) == calls

    @pytest.mark.parametrize("command", ["moller", "orbit", "trace"])
    @given(_NONZERO, _NONZERO, _GOOD_WORDS, st.integers(1, 6), st.integers(1, 6))
    @settings(max_examples=300, deadline=None)
    def test_json_matches_the_library(self, command, m, n, word, k, h):
        """``k`` is moller's --kmax and trace's --start, ``h`` trace's --h."""
        options = {
            "moller": ["--kmax", str(k)],
            "orbit": [],
            "trace": ["--start", str(k), "--h", str(h)],
        }[command]
        argv = ["--group", f"{m},{n}", "--output", "json", command, *options, word]
        code, out, err = invoke(argv)
        p, w = GroupParams(m, n), words_module.parse_word(word)
        if command == "trace":
            try:
                expected = graph.trace(p, w, k, h)
            except WordConditionError as exc:
                assert (code, out, err) == (3, "", f"domain error: {exc}\n")
                return
        assert (code, err) == (0, "")
        payload = json.loads(out)
        if command == "moller":
            seq, stable = invariants.moller_stabilization(p, w, k)
            assert payload["indices"] == [str(v) for v in seq]
            assert payload["stable"] is stable
            assert payload["scale"] == str(bsscale.scale(p, w).value)
        elif command == "orbit":
            assert payload == {"orbit_order": str(invariants.orbit_order(p, w))}
        else:
            assert payload == {"trace": str(expected)}
