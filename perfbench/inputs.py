"""Seeded input generators for the three benchmark workloads.

Inputs depend only on (workload, seed) and are plain JSON data: token-form
word text, group parameters, integers and argv vectors.  This module does
not import bsscale, so the program under test sees only what is generated
here.  Sizes are stratified (evenly spread over their range, then shuffled)
so that different seeds give different words of the same size mix, which
keeps run-to-run cost steady while the content changes.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re

WORKLOADS = ("cli-session", "long-words", "oracle-sweep")

# long-words: two non-divisor groups, one divisor group, one |m| = 1 group.
LONG_GROUPS = ((2, 3), (3, -5), (2, 4), (1, 3))
LONG_OPS = 320
LONG_TOKENS = (20, 200)
LONG_MAX_EXP = 10**4
LONG_RAW_LETTERS = (600, 2000)
LONG_MOLLER_LETTERS = (8, 16)
# Reducing t a^(cm) T to a^(cn) multiplies exponents by |n/m| per nesting
# level and the program writes the result out as letters, so unbounded
# nesting runs out of memory (BS(1,3), BS(3,-5)).  The generator keeps the
# running t-exponent inside a window of this many levels of growth.
LONG_GROWTH_CAP = 16

# oracle-sweep: every vertex of these balls, plus traces, steps, censuses.
SWEEP_BALLS = ((2, 3, 4), (3, -2, 4), (2, 4, 3), (3, 5, 3), (3, 6, 3))
SWEEP_TRACE_GROUPS = ((2, 3), (3, -2), (2, 4), (3, 5))
SWEEP_TRACES_PER_GROUP = 60
SWEEP_STEP_LEVELS = 4

# cli-session
CLI_GROUPS = ((2, 3), (3, -2), (2, 4), (3, 5))
CLI_VARIANTS = 2
CLI_MALFORMED = 8
# Inputs that currently end in a Python traceback (exit 1).  They stay in
# every cli-session pass; see gate.classify_cli.
CLI_KNOWN_DEFECTS = (
    ["--group", "2,3", "trace", "--start", "0", "t"],
    ["--group", "2,3", "reduce", "a^99999999999999999999"],
    ["--group", "2,3", "ball", "--radius", "2", "--dot", "missing-dir/x.dot"],
)


def make(workload: str, seed: int) -> dict:
    rng = random.Random(f"bsscale-bench/{workload}/{seed}")
    if workload == "long-words":
        return {"ops": _long_words(rng)}
    if workload == "oracle-sweep":
        return {"ops": _oracle_sweep(rng, seed)}
    if workload == "cli-session":
        return {"ops": _cli_session(rng, seed)}
    raise ValueError(f"unknown workload {workload!r}")


def digest(inputs: dict) -> str:
    blob = json.dumps(inputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# ---------------------------------------------------------------------------
# helpers

# additive recurrence of the plastic number: a low-discrepancy sequence in
# the unit square
_R2 = (1 / 1.324717957244746, 1 / 1.324717957244746**2)


def _strata(rng: random.Random, count: int, lo: float, hi: float, log: bool = False):
    """count values spread evenly over [lo, hi] (one per stratum, jittered),
    in random order."""
    a, b = (math.log(lo), math.log(hi)) if log else (lo, hi)
    vals = [a + (b - a) * (k + rng.random()) / count for k in range(count)]
    rng.shuffle(vals)
    return [math.exp(v) if log else v for v in vals]


def _random_letters(rng: random.Random, length: int) -> str:
    return "".join(rng.choice("aAtT") for _ in range(length))


def _a_token(rng: random.Random, e: int) -> str:
    # both spellings of a signed power: a^-3 and A^3
    return f"a^{e}" if rng.random() < 0.5 else f"A^{-e}"


_FREE_PAIR = re.compile(r"aA|Aa|tT|Tt")


def syllables(w: str) -> tuple[list[int], list[int]]:
    """a^e0 t^s1 a^e1 ... of a freely reduced letter string, as (exps, signs)."""
    parts = re.split(r"([tT])", w)
    exps = [len(a) if a[:1] != "A" else -len(a) for a in parts[0::2]]
    signs = [1 if s == "t" else -1 for s in parts[1::2]]
    return exps, signs


def reduction_problem(m: int, n: int, w: str) -> str | None:
    """Why the letter string w is not freely reduced and pinch-free in
    BS(m, n), or None when it is."""
    if _FREE_PAIR.search(w):
        return "not freely reduced"
    exps, signs = syllables(w)
    for k in range(len(signs) - 1):
        mid = exps[k + 1]
        if (signs[k], signs[k + 1]) == (1, -1) and mid % m == 0:
            return f"pinch t a^{mid} T"
        if (signs[k], signs[k + 1]) == (-1, 1) and mid % n == 0:
            return f"pinch T a^{mid} t"
    return None


# ---------------------------------------------------------------------------
# long-words


def _nesting_cap(m: int, n: int) -> int:
    ratio = max(abs(m), abs(n)) / min(abs(m), abs(n))
    return max(1, int(math.log(LONG_GROWTH_CAP) / math.log(ratio)))


class _Nesting:
    """Picks t-letter signs that keep the running t-exponent inside a
    window as wide as the nesting cap of BS(m, n)."""

    def __init__(self, m: int, n: int):
        self.cap = _nesting_cap(m, n)
        self.lo = -(self.cap // 2)
        self.depth = 0

    def sign(self, rng: random.Random) -> int:
        s = rng.choice((1, -1))
        if not self.lo <= self.depth + s <= self.lo + self.cap:
            s = -s
        self.depth += s
        return s


def _long_text(rng: random.Random, m: int, n: int, tokens: int) -> tuple[str, int]:
    """Token text alternating a-powers (log-uniform up to LONG_MAX_EXP,
    stratified within the word) and single t letters with capped nesting.
    Returns (text, t-exponent)."""
    nest = _Nesting(m, n)
    exps = [round(e) for e in _strata(rng, (tokens + 1) // 2, 1, LONG_MAX_EXP, log=True)]
    out = []
    for k in range(tokens):
        if k % 2 == 0:
            e = exps[k // 2]
            out.append(_a_token(rng, e if rng.random() < 0.5 else -e))
        elif nest.sign(rng) > 0:
            out.append(rng.choice(("t", "t^1")))
        else:
            out.append(rng.choice(("T", "t^-1")))
    return " ".join(out), nest.depth


def _raw_letters(rng: random.Random, m: int, n: int, length: int) -> str:
    """Random letters over a A t T (not reduced) with capped nesting."""
    nest = _Nesting(m, n)
    out = []
    for _ in range(length):
        ch = rng.choice("aAtT")
        if ch in "tT":
            ch = "t" if nest.sign(rng) > 0 else "T"
        out.append(ch)
    return "".join(out)


def _long_words(rng: random.Random) -> list[dict]:
    """LONG_OPS ops cycling through LONG_GROUPS.  Token counts and raw-word
    lengths follow a two-dimensional low-discrepancy sequence from a seeded
    offset, so every prefix of the list (a run stops where its time ends)
    covers both ranges evenly."""
    offsets = (rng.random(), rng.random())
    ops = []
    for k in range(LONG_OPS):
        m, n = LONG_GROUPS[k % len(LONG_GROUPS)]
        j = k // len(LONG_GROUPS)
        u, v = ((o + (j + 1) * a) % 1.0 for o, a in zip(offsets, _R2))
        tokens = round(LONG_TOKENS[0] + (LONG_TOKENS[1] - LONG_TOKENS[0]) * u)
        lo, hi = (math.log(x) for x in LONG_RAW_LETTERS)
        text, rho = _long_text(rng, m, n, tokens)
        raw = _raw_letters(rng, m, n, round(math.exp(lo + (hi - lo) * v)))
        moller = _raw_letters(rng, m, n, rng.randint(*LONG_MOLLER_LETTERS))
        ops.append(
            {
                "group": [m, n],
                "text": text,
                "rho": rho,
                "raw": raw,
                "moller": moller,
                # past the stabilization bound 2N + 1 (N = t^-1 count,
                # which normalization never increases)
                "kmax": 2 * moller.count("T") + 4,
            }
        )
    return ops


# ---------------------------------------------------------------------------
# oracle-sweep


def coset_words(m: int, n: int, radius: int) -> list[str]:
    """Token text of the canonical coset word of every vertex of the radius
    ball: residue c < |n| before t, c < |m| before t^-1, and no zero residue
    between opposite signs."""
    out = [""]
    frontier = [()]
    for _ in range(radius):
        nxt = []
        for syll in frontier:
            for eps, count in ((1, abs(n)), (-1, abs(m))):
                for c in range(count):
                    if syll and syll[-1][1] == -eps and c == 0:
                        continue
                    nxt.append(syll + ((c, eps),))
        for syll in nxt:
            out.append(" ".join((f"a^{c} " if c else "") + ("t" if eps > 0 else "T")
                                for c, eps in syll))
        frontier = nxt
    return out


def ball_size(m: int, n: int, radius: int) -> int:
    deg = abs(m) + abs(n)
    return 1 + sum(deg * (deg - 1) ** (k - 1) for k in range(1, radius + 1))


def _oracle_sweep(rng: random.Random, seed: int) -> list[dict]:
    ops: list[dict] = []
    for m, n, r in SWEEP_BALLS:
        ops.append({"kind": "ball", "group": [m, n], "radius": r})
        ops.append({"kind": "census", "group": [m, n], "radius": r})
        for text in coset_words(m, n, r):
            ops.append({"kind": "orbit", "group": [m, n], "text": text})
    for m, n in SWEEP_TRACE_GROUPS:
        for _ in range(SWEEP_TRACES_PER_GROUP):
            while True:
                w = _random_letters(rng, rng.randint(1, 8))
                if sum(ch in "tT" for ch in w) <= 3 and reduction_problem(m, n, w) is None:
                    break
            ops.append({"kind": "trace", "group": [m, n], "text": w})
        seen, frontier = {1}, [1]
        for _ in range(SWEEP_STEP_LEVELS):
            nxt = []
            for x in frontier:
                for eps in (1, -1):
                    ops.append({"kind": "step", "group": [m, n], "x": x, "eps": eps})
                    y = (abs(m) if eps > 0 else abs(n)) * x // math.gcd(
                        x, abs(n) if eps > 0 else abs(m)
                    )
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
    ops.append({"kind": "selfcheck", "seed": seed})
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# cli-session


def _short_word(rng: random.Random, lo: int = 1, hi: int = 6) -> str:
    return _random_letters(rng, rng.randint(lo, hi))


def _token_word(rng: random.Random) -> str:
    toks = []
    for _ in range(rng.randint(1, 4)):
        letter = rng.choice("aAtT")
        e = rng.randint(-4, 4)
        toks.append(letter if e in (0, 1) else f"{letter}^{e}")
    return " ".join(toks)


def _pinch_free(rng: random.Random, group: tuple[int, int]) -> str:
    while True:
        w = _short_word(rng, 1, 6)
        if sum(ch in "tT" for ch in w) <= 3 and reduction_problem(*group, w) is None:
            return w


def _group_flag(rng: random.Random, m: int, n: int) -> list[str]:
    # argparse reads "-1,2" after a space as an option, so a negative m
    # needs the --group=M,N spelling
    if m < 0 or rng.random() < 0.5:
        return [f"--group={m},{n}"]
    return ["--group", f"{m},{n}"]


def _valid_argv(rng: random.Random, cmd: str, v: int, seed: int) -> list[str]:
    """Variant v of a subcommand.  Parameters that set the cost (radius,
    --kmax, levels, group of the ball commands) depend on v only, so every
    seed has the same cost mix; words and other groups come from rng."""
    group = rng.choice(CLI_GROUPS)
    g = _group_flag(rng, *group)
    structured = [gp for gp in CLI_GROUPS if abs(gp[1]) % abs(gp[0]) and abs(gp[0]) % abs(gp[1])]
    if cmd in ("reduce", "nf", "rho", "modular", "orbit"):
        return g + [cmd, _token_word(rng)]
    if cmd == "scale":
        return g + (["--output", "json"] if v else []) + [cmd, _token_word(rng)]
    if cmd == "equal":
        return g + [cmd, _short_word(rng), _short_word(rng)]
    if cmd in ("flat-rank", "kernel"):
        return g + [cmd]
    if cmd == "moller":
        return g + [cmd, "--kmax", str(4 + 2 * v), _short_word(rng, 1, 5)]
    if cmd == "trace":
        return g + [cmd, "--start", str(rng.randint(1, 4)), "--h", str(rng.randint(1, 3)),
                    _pinch_free(rng, group)]
    if cmd == "omega-edges":
        return _group_flag(rng, *rng.choice(structured)) + [cmd, "--levels", str(1 + 2 * v)]
    if cmd == "omega-dist":
        s = rng.choice(structured)
        return _group_flag(rng, *s) + [cmd, "1", str(abs(s[0]) ** (1 + v))]
    fixed = _group_flag(rng, *CLI_GROUPS[v])
    if cmd == "orbit-brute":
        return fixed + [cmd, _pinch_free(rng, CLI_GROUPS[v])]
    if cmd == "ball":
        return fixed + [cmd, "--radius", "2"] + (["--dot", f"ball-{rng.randrange(100)}.dot"] if v else [])
    if cmd == "census":
        return fixed + [cmd, "--radius", "2"]
    if cmd == "structure":
        return g + [cmd] + ([_short_word(rng)] if v else [])
    if cmd == "matrix":
        return _group_flag(rng, rng.choice((1, -1)), rng.choice((2, 3, -2))) + [cmd, _short_word(rng)]
    if cmd == "scale-set":
        return g + [cmd, "--rho-max", str(2 + 2 * v)]
    if cmd == "selfcheck":
        return [cmd, "--seed", str(seed + v)]
    raise ValueError(cmd)


CLI_COMMANDS = (
    "reduce", "nf", "rho", "equal", "scale", "modular", "flat-rank", "kernel",
    "moller", "trace", "omega-edges", "omega-dist", "orbit", "orbit-brute",
    "ball", "census", "structure", "matrix", "scale-set", "selfcheck",
)


def _malformed_argv(rng: random.Random, kind: int) -> tuple[list[str], int]:
    """One malformed argv and the exit code the CLI documents for it."""
    w = _short_word(rng)
    g = ["--group", f"{rng.choice((2, 3))},{rng.choice((3, 5))}"]
    table = [
        (g + ["reduce", w + "x"], 2),                      # bad letter
        (g + ["rho", w + "^"], 2),                         # missing exponent
        (["scale", w], 1),                                 # no --group
        (["--group", f"0,{rng.randint(1, 5)}", "scale", w], 3),  # zero parameter
        (g + ["frobnicate", w], 1),                        # unknown command
        (g + ["matrix", w], 3),                            # |m| != 1
        (["--group", "2,3", "trace", "t" + "a" * 2 * rng.randint(1, 3) + "T"], 3),  # pinch
        (["--group", "2,4", "omega-dist", "1", "2"], 3),   # divisor case
        (g + ["--budget", "10", "ball", "--radius", "3"], 3),  # over budget
        (g + ["moller", "--kmax", "0", w], 1),
        (g + ["scale-set", "--rho-max", str(-rng.randint(1, 3))], 1),
        (["--group", str(rng.randint(2, 5)), "scale", w], 1),  # bad --group
    ]
    return table[kind]


def _cli_session(rng: random.Random, seed: int) -> list[dict]:
    ops = []
    for cmd in CLI_COMMANDS:
        for v in range(CLI_VARIANTS):
            ops.append({"argv": _valid_argv(rng, cmd, v, seed), "expect": "ok"})
    kinds = rng.sample(range(12), CLI_MALFORMED)
    for kind in kinds:
        argv, code = _malformed_argv(rng, kind)
        ops.append({"argv": argv, "expect": "error", "exit": code})
    for argv in CLI_KNOWN_DEFECTS:
        ops.append({"argv": list(argv), "expect": "error", "known_defect": True})
    rng.shuffle(ops)
    return ops
