"""Cross-oracle consistency suites behind the ``selfcheck`` CLI command.

Every suite pits an independent computation route against a closed form:
transition formula vs word-reduction scans, graph traces vs coset index
scans, closed-form scale vs asymptotic index ratios, canonical forms vs
the equality decision.  A failing suite means a genuine bug.
"""

from __future__ import annotations

from random import Random

from . import cosets, graph, invariants
from .normal_forms import bs1n_matrix, element_normal_form
from .params import GroupParams
from .sampling import random_pinch_free_word, random_word
from .words import (
    Word,
    conjugacy_normalize_with_certificate,
    equal_elements,
    invert_word,
    is_freely_reduced,
    is_pinch_free,
    syllables_to_word,
    t_exponent,
    word_syllables,
)

CheckResult = tuple[str, bool, str]

_GROUPS = [GroupParams(2, 3), GroupParams(3, 2), GroupParams(4, 6), GroupParams(2, -3)]


def _step_formula(rng: Random) -> str | None:
    for p in _GROUPS:
        seen = {1}
        frontier = [1]
        for _ in range(5):
            nxt = []
            for x in frontier:
                for eps in (1, -1):
                    y = graph.step(p, x, eps)
                    if y != cosets.step_bruteforce(p, x, eps):
                        return f"BS({p.m},{p.n}) node {x} label {eps}"
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt


def _trace_vs_index(rng: Random) -> str | None:
    for p in _GROUPS:
        for _ in range(25):
            w = random_pinch_free_word(p, rng, max_len=6)
            got = graph.trace(p, w)
            want = cosets.index_bruteforce(p, w, 1)
            if got != want:
                return f"BS({p.m},{p.n}) word {w!r}: {got} vs {want}"


def _orbit_orders(rng: Random) -> str | None:
    for p in (GroupParams(2, 3), GroupParams(4, 6)):
        table = cosets.enumerate_ball(p, 2)
        for v in range(len(table.vertices)):
            w = table.vertex_word(v)
            if invariants.orbit_order(p, w) != cosets.orbit_order_bruteforce(p, w):
                return f"coset {w!r}"


def _scale_axioms(rng: Random) -> str | None:
    for p in _GROUPS:
        for _ in range(30):
            w = random_word(rng, max_len=8)
            h = random_word(rng, max_len=5)
            s = invariants.scale(p, w).value
            if invariants.scale(p, w * 3).value != s**3:
                return f"power at {w!r}"
            if invariants.scale(p, h + w + invert_word(h)).value != s:
                return f"conjugation at {w!r} by {h!r}"


def _moller(rng: Random) -> str | None:
    for p in _GROUPS:
        for _ in range(15):
            w = random_word(rng, max_len=8)
            _, ok = invariants.moller_stabilization(p, w, k_max=8)
            if not ok:
                return f"BS({p.m},{p.n}) {w!r}"


def _normal_forms(rng: Random) -> str | None:
    for p in _GROUPS:
        words = [random_word(rng, max_len=8) for _ in range(20)]
        forms = [element_normal_form(p, w) for w in words]
        for w, nf in zip(words, forms):
            if not equal_elements(p, nf.to_word(), w):
                return f"{w!r}"
        for i in range(len(words)):
            for j in range(i + 1, len(words)):
                if (forms[i] == forms[j]) != equal_elements(p, words[i], words[j]):
                    return f"{words[i]!r} vs {words[j]!r}"


def _conjugacy(rng: Random) -> str | None:
    for p in _GROUPS:
        for _ in range(25):
            w = random_word(rng, max_len=9)
            z, h = conjugacy_normalize_with_certificate(p, w)
            zz = _square(z)
            if not (zz == z + z and is_freely_reduced(zz) and is_pinch_free(p, zz)):
                return f"square of {z!r}"
            if t_exponent(z) != t_exponent(w):
                return f"t-exponent at {w!r}"
            if not equal_elements(p, h + z + invert_word(h), w):
                return f"certificate at {w!r}"


def _square(z: Word) -> Word:
    """z z, built from z's syllables with the junction run a^(e_k + e_0),
    so nothing is decoded.  Its letters are z + z exactly when z's two end
    runs do not have opposite signs, which conjugacy normalization ensures
    (and ``_conjugacy`` checks)."""
    exps, signs = word_syllables(z)
    return syllables_to_word([*exps[:-1], exps[-1] + exps[0], *exps[1:]], signs * 2)


def _matrix(rng: Random) -> str | None:
    p = GroupParams(1, 2)
    for _ in range(40):
        w = random_word(rng, max_len=8)
        u = random_word(rng, max_len=8)
        mw, mu = bs1n_matrix(p, w), bs1n_matrix(p, u)
        if bs1n_matrix(p, w + u) != mw * mu:
            return f"{w!r} * {u!r}"
        if (mw == mu) != equal_elements(p, w, u):
            return f"equality at {w!r}, {u!r}"


def _modular(rng: Random) -> str | None:
    for p in _GROUPS:
        for _ in range(25):
            w = random_word(rng, max_len=8)
            dm = invariants.modular(p, w)
            s_fwd = invariants.scale(p, w).value
            s_bwd = invariants.scale(p, invert_word(w)).value
            if dm.numerator * s_bwd != dm.denominator * s_fwd:
                return f"{w!r}"


# (name, coverage, check), run in this order on one shared Random, so the
# order fixes every sampled word.  A check returns the failure detail, or
# None when it passes.
_SUITES = [
    ("step formula vs reduction scan", "5 levels, 4 groups", _step_formula),
    ("graph trace vs index scan", "25 words x 4 groups", _trace_vs_index),
    ("orbit order trace vs scan", "radius-2 balls", _orbit_orders),
    ("scale power/conjugation axioms", "30 words x 4 groups", _scale_axioms),
    ("asymptotic index ratios", "15 words x 4 groups, k <= 8", _moller),
    ("canonical form round trip", "20 words x 4 groups, all pairs", _normal_forms),
    ("conjugacy normalization", "25 words x 4 groups", _conjugacy),
    ("matrix representation", "40 pairs in BS(1,2)", _matrix),
    ("modular vs scale ratio", "25 words x 4 groups", _modular),
]


def run_all(seed: int) -> list[CheckResult]:
    """(name, ok, detail) per suite; detail is the coverage on success and
    the failing case otherwise."""
    rng = Random(seed)
    results = []
    for name, coverage, check in _SUITES:
        failure = check(rng)
        results.append((name, failure is None, coverage if failure is None else failure))
    return results
