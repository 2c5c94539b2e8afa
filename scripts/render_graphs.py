#!/usr/bin/env python3
"""Render DOT files for a group: the level-bounded intersection graph and a
radius-bounded Bass-Serre tree ball.

Example:
    python scripts/render_graphs.py --group 2,3 --levels 4 --radius 2 --out-dir out/

Arguments are checked as the bsscale CLI checks them, with its exit codes:
1 for a usage error (including an unwritable --out-dir), 3 for a domain
error such as a zero parameter or a ball over the vertex budget.  Both
drawings are computed before any file is written, so a failing run writes
nothing.
"""

import sys
from pathlib import Path

from bsscale import cli, enumerate_ball, export_dot
from bsscale.graph import to_dot


def render(argv) -> int:
    ap = cli.Parser(description=__doc__)
    ap.add_argument("--group", default="2,3", metavar="M,N")
    ap.add_argument("--levels", type=cli.nonnegative, default=4)
    ap.add_argument("--radius", type=cli.nonnegative, default=2)
    ap.add_argument("--out-dir", default=".")
    args = ap.parse_args(argv)

    p = cli.group_params(args.group)
    m, n = p.m, p.n
    out = Path(args.out_dir)
    files = {out / f"ball_{m}_{n}_r{args.radius}.dot": export_dot(enumerate_ball(p, args.radius))}
    if not p.divisor_case:
        files[out / f"omega_{m}_{n}_l{args.levels}.dot"] = to_dot(p, args.levels)

    try:
        out.mkdir(parents=True, exist_ok=True)
        for path, text in files.items():
            path.write_text(text)
            print(f"wrote {path}")
    except OSError as exc:
        raise cli.UsageError(f"cannot write to --out-dir: {exc}") from None
    if p.divisor_case:
        print("divisor case: no structured intersection graph to draw")
    return 0


def main(argv=None) -> int:
    return cli.guard(lambda: render(argv), sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
