"""Correctness gate: checks each op's output by a route independent of the
code path that produced it.  Nothing here is timed.

* long-words: a short checker of its own (freely reduced, pinch-free,
  t-exponent kept, canonical residues, orbit-order shape), the |m| = 1
  matrix representation as equality oracle, and the closed-form scale
  against the asymptotic index ratios.
* oracle-sweep: each closed form against its brute-force scan.
* cli-session: stdout against the library result formatted as the README
  shows it; malformed argv against the documented error contract.

Each check returns a list of problems; an empty list means the op passed.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from fractions import Fraction

import bsscale
from bsscale import cosets, graph, invariants, selfcheck
from bsscale.params import GroupParams

import inputs

_TOKEN = re.compile(r"\s*([aAtT])(?:\^([+-]?\d+))?")
_RUNS = re.compile(r"a+|A+|t+|T+")


# ---------------------------------------------------------------------------
# words, independently of bsscale.words


def tokens(text: str) -> list[tuple[str, int]]:
    """Token text as (lowercase letter, signed exponent) pairs."""
    out, pos = [], 0
    text = text.rstrip()
    while pos < len(text):
        mt = _TOKEN.match(text, pos)
        if mt is None:
            raise ValueError(f"bad token text at {pos}")
        letter, exp = mt.group(1), int(mt.group(2) or 1)
        out.append((letter.lower(), -exp if letter.isupper() else exp))
        pos = mt.end()
    return out


def expand(toks: list[tuple[str, int]]) -> str:
    return "".join(l * e if e >= 0 else l.upper() * -e for l, e in toks)


def runs(w: str) -> list[tuple[str, int]]:
    return [(r[0].lower(), len(r) if r[0].islower() else -len(r)) for r in _RUNS.findall(w)]


def t_exp(w: str) -> int:
    return w.count("t") - w.count("T")


def word_problems(p: GroupParams, w: str, what: str) -> list[str]:
    problem = inputs.reduction_problem(p.m, p.n, w)
    return [f"{what}: {problem}"] if problem else []


def affine(p: GroupParams, toks) -> tuple[Fraction, Fraction]:
    """Image of a word (as letter runs) in the |m| = 1 representation
    a -> [[1,1],[0,1]], t -> [[mn,0],[0,1]], as (top_left, top_right)."""
    mn = Fraction(p.m * p.n)
    d, x = Fraction(1), Fraction(0)
    for letter, e in toks:
        if letter == "a":
            x += d * e
        else:
            d *= mn**e
    return d, x


def has_orbit_shape(p: GroupParams, v: int) -> bool:
    """v = g' (l/|m|)^r (l/|n|)^s with g' dividing gcd(|m|, |n|)."""
    if v < 1:
        return False
    for base in (p.l_over_m, p.l_over_n):
        while base > 1 and v % base == 0:
            v //= base
    return p.g % v == 0


def closed_scale(p: GroupParams, rho: int) -> int:
    return p.l_over_n**rho if rho >= 0 else p.l_over_m ** (-rho)


# ---------------------------------------------------------------------------
# long-words


def check_long(op: dict, out: dict) -> list[str]:
    p = GroupParams(*op["group"])
    toks = tokens(op["text"])
    rho = op["rho"]
    bad: list[str] = []
    if out["word"] != expand(toks):
        bad.append("parse_word differs from the token expansion")
    r = out["reduced"]
    bad += word_problems(p, r, "britton_reduce output")
    if t_exp(r) != rho:
        bad.append("britton_reduce changed the t-exponent")
    nf = out["normal_form"]
    prev = 0
    for c, s in nf.syllables:
        if not 0 <= c < (abs(p.n) if s == 1 else abs(p.m)) or (prev == -s and c == 0):
            bad.append(f"normal form syllable {(c, s)} off the transversal")
        prev = s
    if sum(s for _, s in nf.syllables) != rho or len(nf.syllables) != r.count("t") + r.count("T"):
        bad.append("normal form t-letters disagree with the reduced word")
    if expand(tokens(out["formatted"])) != r:
        bad.append("format_word does not expand back to the reduced word")
    for key in ("orbit_order", "trace"):
        if not has_orbit_shape(p, out[key]):
            bad.append(f"{key} {out[key]} has no g' (l/|m|)^r (l/|n|)^s shape")
    if out["equal"] is not True:
        bad.append("equal_elements(w, britton_reduce(w)) is false")
    if out["scale"] != closed_scale(p, rho):
        bad.append("scale differs from the closed form")
    z = out["conjugate"]
    bad += word_problems(p, z + z, "square of conjugacy_normalize output")
    if t_exp(z) != t_exp(op["raw"]):
        bad.append("conjugacy_normalize changed the t-exponent")
    seq, stable = out["moller"]
    s = invariants.scale(p, op["moller"]).value
    if not stable or seq[-1] != seq[-2] * s:
        bad.append(f"moller ratios {seq[-2:]} disagree with the closed-form scale {s}")
    if abs(p.m) == 1:
        want = affine(p, toks)
        if affine(p, runs(r)) != want:
            bad.append("matrix image of britton_reduce output differs from the input's")
        nf_toks = [t for c, s in nf.syllables for t in (("a", c), ("t", s))] + [("a", nf.tail)]
        if affine(p, nf_toks) != want:
            bad.append("matrix image of the normal form differs from the input's")
        raw_image = affine(p, runs(op["raw"]))
        mat = out["bs1n_matrix"]
        if (mat.top_left, mat.top_right) != raw_image:
            bad.append("bs1n_matrix differs from the run-wise matrix image")
        neg, q, pos = out["bs1n_normal_form"]
        if affine(p, [("t", -neg), ("a", q), ("t", pos)]) != raw_image:
            bad.append("bs1n_normal_form is not equal to its input")
    return bad


# ---------------------------------------------------------------------------
# oracle-sweep


def check_sweep(op: dict, out) -> list[str]:
    kind = op["kind"]
    p = GroupParams(*op["group"]) if "group" in op else None
    if kind in ("orbit", "trace", "step"):
        closed, brute = out
        if brute is None or closed != brute:
            return [f"{kind}: closed form {closed} vs brute force {brute}"]
        return []
    if kind == "ball":
        want = inputs.ball_size(*op["group"], op["radius"])
        got = (len(out.vertices), len(out.edges))
        if got != (want, want - 1):
            return [f"ball has {got} vertices/edges, expected {want}"]
        return []
    if kind == "census":
        brute = Counter(
            cosets.orbit_order_bruteforce(p, expand(tokens(text)))
            for text in inputs.coset_words(*op["group"], op["radius"])
        )
        return [] if out == brute else [f"census {dict(out)} vs brute force {dict(brute)}"]
    if kind == "selfcheck":
        failed = [name for name, ok, _ in out if not ok]
        return [f"selfcheck suites failed: {failed}"] if failed else []
    raise ValueError(kind)


# ---------------------------------------------------------------------------
# cli-session


def _split_argv(argv: list[str]):
    opts, pos, i = {}, [], 0
    while i < len(argv):
        if argv[i].startswith("--") and "=" in argv[i]:
            key, value = argv[i][2:].split("=", 1)
            opts[key] = value
            i += 1
        elif argv[i].startswith("--"):
            opts[argv[i][2:]] = argv[i + 1]
            i += 2
        else:
            pos.append(argv[i])
            i += 1
    return opts, pos


def _fmt(w: str) -> str:
    """Compact form of a letter string as the README prints it."""
    out = []
    for letter, e in runs(w):
        out.append(letter if e == 1 else letter.upper() if e == -1 else f"{letter}^{e}")
    return " ".join(out) or "e"


def cli_expected(argv: list[str]) -> str:
    """stdout of a valid argv, from library calls and the README's output
    formats (not from bsscale.cli)."""
    opts, pos = _split_argv(argv)
    cmd, args = pos[0], pos[1:]
    if cmd == "selfcheck":
        res = selfcheck.run_all(int(opts["seed"]))
        lines = [f"{'ok' if ok else 'FAIL'}: {name} ({detail})" for name, ok, detail in res]
        passed = sum(ok for _, ok, _ in res)
        return "\n".join(lines + [f"{passed}/{len(res)} suites passed"]) + "\n"
    p = GroupParams(*map(int, opts["group"].split(",")))
    words = [expand(tokens(a)) for a in args if not a.lstrip("-").isdigit()]
    w = words[0] if words else None
    if cmd == "reduce":
        text = _fmt(bsscale.britton_reduce(p, w))
    elif cmd == "nf":
        text = _fmt(bsscale.element_normal_form(p, w).to_word())
    elif cmd == "rho":
        text = str(bsscale.t_exponent(w))
    elif cmd == "equal":
        text = str(bsscale.equal_elements(p, w, words[1])).lower()
    elif cmd == "scale":
        sv = invariants.scale(p, w)
        text = (json.dumps({"base": sv.base, "exponent": sv.exponent, "value": str(sv.value)})
                if opts.get("output") == "json" else str(sv.value))
    elif cmd == "modular":
        mv = invariants.modular(p, w)
        text = f"{mv.numerator}/{mv.denominator}"
    elif cmd == "flat-rank":
        text = str(invariants.flat_rank(p))
    elif cmd == "kernel":
        text = str(invariants.pi_kernel(p))
    elif cmd == "moller":
        seq, stable = invariants.moller_stabilization(p, w, int(opts["kmax"]))
        ratio = seq[-1] // seq[-2] if seq[-1] % seq[-2] == 0 else "?"
        verdict = "OK" if stable else "DIAG ratios not stabilized at bound"
        text = f"{' '.join(map(str, seq))} | ratio {ratio} | scale {invariants.scale(p, w).value} {verdict}"
    elif cmd == "trace":
        text = str(graph.trace(p, w, start=int(opts["start"]), h=int(opts["h"])))
    elif cmd == "omega-edges":
        rows = []
        for level in range(int(opts["levels"]) + 1):
            for node in graph.level_nodes(p, level):
                x = node.value
                rows += [f"{x} t {graph.step(p, x, 1)}", f"{x} t^-1 {graph.step(p, x, -1)}"]
        text = "\n".join(rows)
    elif cmd == "omega-dist":
        text = str(graph.shortest_path_len(p, int(args[0]), int(args[1])))
    elif cmd == "orbit":
        text = str(invariants.orbit_order(p, w))
    elif cmd == "orbit-brute":
        text = str(cosets.orbit_order_bruteforce(p, w))
    elif cmd == "ball":
        size = inputs.ball_size(p.m, p.n, int(opts["radius"]))
        shell = size - inputs.ball_size(p.m, p.n, int(opts["radius"]) - 1)
        text = f"vertices {size} edges {size - 1} boundary {shell}"
    elif cmd == "census":
        census = cosets.orbit_census(p, int(opts["radius"]))
        text = " ".join(f"{k}:{v}" for k, v in sorted(census.items()))
    elif cmd == "structure":
        rep = invariants.structure_report(p, w)
        text = "\n".join([
            f"primes_vplus: {' '.join(map(str, rep.primes_vplus))}",
            f"primes_vminus: {' '.join(map(str, rep.primes_vminus))}",
            f"quotient_order_bound: {rep.quotient_order_bound}",
            f"flat_rank: {rep.flat_rank}",
            f"kernel_exponent: {rep.kernel_exponent}",
            f"swap_applied: {str(rep.swap_applied).lower()}",
            f"discrete: {str(rep.discrete).lower()}",
            f"quasi_centre: {rep.quasi_centre}",
        ])
    elif cmd == "matrix":
        mat = bsscale.bs1n_matrix(p, w)
        neg, q, pos_ = bsscale.bs1n_normal_form(p, w)
        text = f"[[{mat.top_left}, {mat.top_right}], [0, 1]] | t^-{neg} a^{q} t^{pos_}"
    elif cmd == "scale-set":
        text = " ".join(map(str, sorted(invariants.scale_value_set(p, int(opts["rho-max"])))))
    else:
        raise ValueError(f"no expected output for {cmd!r}")
    return text + "\n"


PASS, KNOWN, FAIL = "pass", "known-defect", "fail"


def classify_cli(op: dict, code: int, stdout: str, stderr: str, expected: str | None) -> str:
    """PASS, FAIL, or KNOWN for an input listed in inputs.CLI_KNOWN_DEFECTS
    that still ends in a traceback with exit 1.  A known-defect input that
    meets the error contract passes; any other outcome fails."""
    if op["expect"] == "ok":
        return PASS if code == 0 and stdout == expected else FAIL
    clean = code in (1, 2, 3) and "Traceback" not in stderr and stdout == ""
    if op.get("known_defect"):
        if clean:
            return PASS
        return KNOWN if code == 1 and "Traceback" in stderr else FAIL
    return PASS if clean and code == op["exit"] else FAIL
