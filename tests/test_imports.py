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


def test_every_export_resolves_and_is_listed():
    listed = dir(bsscale)
    for name in bsscale.__all__:
        assert getattr(bsscale, name) is not None
        assert name in listed
