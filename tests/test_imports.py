"""Package surface: lazy exports and what a CLI process loads at start-up."""

import os
import subprocess
import sys

import bsscale

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def test_cli_import_loads_only_its_core():
    code = (
        "import bsscale.cli, sys; "
        "print(' '.join(m for m in ('bsscale.cosets', 'bsscale.graph', 'bsscale.invariants',"
        " 'bsscale.selfcheck', 'bsscale.normal_forms', 'json') if m in sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
    res = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert res.stdout.split() == []


def test_cli_process_loads_no_heavy_stdlib():
    # -v writes "import 'name' # ..." to stderr for every module loaded
    env = {**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
    res = subprocess.run(
        [sys.executable, "-v", "-m", "bsscale.cli", "--group", "2,3", "scale", "t"],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert res.stdout == "2\n"
    loaded = {
        line.split("'")[1] for line in res.stderr.splitlines() if line.startswith("import '")
    }
    assert "bsscale.invariants" in loaded
    assert loaded.isdisjoint({"dataclasses", "inspect", "fractions", "decimal"})


def test_matrix_entries_are_still_fractions():
    from fractions import Fraction

    mat = bsscale.bs1n_matrix(bsscale.GroupParams(1, 2), "Tat")
    assert type(mat.top_left) is Fraction and type(mat.top_right) is Fraction
    assert mat.top_left == 1 and mat.top_right == Fraction(1, 2)
    assert all(type(v) is Fraction for row in mat.entries for v in row)
    assert type(bsscale.modular(bsscale.GroupParams(2, 3), "T").fraction) is Fraction


def test_every_export_resolves_and_is_listed():
    listed = dir(bsscale)
    for name in bsscale.__all__:
        assert getattr(bsscale, name) is not None
        assert name in listed


def test_brute_force_module_loads_no_closed_forms():
    # the brute-force module checks the closed forms of invariants, so it does not import them
    code = "import bsscale.cosets, sys; print('bsscale.invariants' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
    res = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert res.stdout == "False\n"
