"""The script in scripts/, run end to end."""

import os
import subprocess
import sys

from bsscale import GroupParams, enumerate_ball, export_dot
from bsscale.graph import to_dot

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_render_graphs_writes_both_dot_files(tmp_path):
    env = {
        **os.environ,
        "PYTHONPATH": os.path.join(ROOT, "src") + os.pathsep + os.environ.get("PYTHONPATH", ""),
    }
    script = os.path.join(ROOT, "scripts", "render_graphs.py")
    argv = ["--group", "2,3", "--levels", "2", "--radius", "1", "--out-dir", str(tmp_path)]
    res = subprocess.run(
        [sys.executable, script] + argv, env=env, capture_output=True, text=True, check=True
    )
    ball, omega = tmp_path / "ball_2_3_r1.dot", tmp_path / "omega_2_3_l2.dot"
    assert res.stdout == f"wrote {ball}\nwrote {omega}\n"
    p = GroupParams(2, 3)
    assert ball.read_text() == export_dot(enumerate_ball(p, 1))
    assert omega.read_text() == to_dot(p, 2)
