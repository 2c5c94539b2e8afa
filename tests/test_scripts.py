"""The script in scripts/, run end to end."""

import os
import subprocess
import sys

import pytest

from bsscale import GroupParams, enumerate_ball, export_dot
from bsscale.graph import to_dot

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _render(argv):
    env = {
        **os.environ,
        "PYTHONPATH": os.path.join(ROOT, "src") + os.pathsep + os.environ.get("PYTHONPATH", ""),
    }
    script = os.path.join(ROOT, "scripts", "render_graphs.py")
    return subprocess.run([sys.executable, script] + argv, env=env, capture_output=True, text=True)


def test_render_graphs_writes_both_dot_files(tmp_path):
    argv = ["--group", "2,3", "--levels", "2", "--radius", "1", "--out-dir", str(tmp_path)]
    res = _render(argv)
    assert res.returncode == 0, res.stderr
    ball, omega = tmp_path / "ball_2_3_r1.dot", tmp_path / "omega_2_3_l2.dot"
    assert res.stdout == f"wrote {ball}\nwrote {omega}\n"
    p = GroupParams(2, 3)
    assert ball.read_text() == export_dot(enumerate_ball(p, 1))
    assert omega.read_text() == to_dot(p, 2)


@pytest.mark.parametrize(
    "argv,code",
    [
        (["--radius", "-1"], 1),
        (["--levels", "-2"], 1),
        (["--group", "2"], 1),
        (["--group", "x,3"], 1),
        (["--group", "0,3"], 3),
        (["--group", "2,3", "--radius", "40"], 3),
    ],
)
def test_render_graphs_rejects_bad_arguments(tmp_path, argv, code):
    res = _render(argv + ["--out-dir", str(tmp_path / "out")])
    assert res.returncode == code
    assert "Traceback" not in res.stderr
    assert res.stdout == ""
    assert not (tmp_path / "out").exists()


def test_render_graphs_reads_negative_group(tmp_path):
    res = _render(["--group", "-2,3", "--levels", "1", "--radius", "1", "--out-dir", str(tmp_path)])
    assert res.returncode == 0
    assert sorted(f.name for f in tmp_path.iterdir()) == ["ball_-2_3_r1.dot", "omega_-2_3_l1.dot"]


def test_render_graphs_unwritable_out_dir(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    res = _render(["--out-dir", str(blocker / "out")])
    assert res.returncode == 1
    assert "Traceback" not in res.stderr and "cannot write to --out-dir" in res.stderr
