"""Conjugacy normalization: pinch-free squares with a conjugator certificate."""

import os
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bsscale import (
    DomainError,
    GroupParams,
    conjugacy_normalize,
    conjugacy_normalize_with_certificate,
    equal_elements,
    invert_word,
    is_freely_reduced,
    is_pinch_free,
    parse_word,
    selfcheck,
    t_exponent,
)
from bsscale.words import conjugacy_normalize_syllables, word_syllables

P23 = GroupParams(2, 3)
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

words = st.text(alphabet="aAtT", max_size=10)
groups = st.sampled_from(
    [P23, GroupParams(2, 4), GroupParams(4, 6), GroupParams(2, -3), GroupParams(3, 3)]
)


def test_strips_conjugating_letters():
    z, h = conjugacy_normalize_with_certificate(P23, "atA")
    assert z == "t"
    assert h == "a"
    assert equal_elements(P23, invert_word(h) + "atA" + h, z)


def test_already_normalized():
    assert conjugacy_normalize(P23, "t") == "t"


def test_wrapped_word():
    w = parse_word("a^2 t^-1 a t a^-2")
    z, h = conjugacy_normalize_with_certificate(P23, w)
    assert is_freely_reduced(z + z) and is_pinch_free(P23, z + z)
    assert t_exponent(z) == t_exponent(w)
    assert equal_elements(P23, h + z + invert_word(h), w)


def test_strips_a_long_t_run_at_once():
    w = "t" * 20000 + "a" + "T" * 20000
    assert conjugacy_normalize_with_certificate(P23, w) == ("a", "t" * 20000)


def test_normalizes_without_writing_the_conjugator():
    # h holds about a^(3^39), which no letter string can hold; z is t a^-2
    w = parse_word("A t^39 a T^39 T a t t t^39 A T^39")
    assert conjugacy_normalize(GroupParams(1, 3), w) == "tAA"


def test_conjugator_too_large_to_write():
    # the certificate cannot write h as letters; the syllable form gives
    # z, and h as pieces
    p = GroupParams(1, 3)
    w = parse_word("A t^39 a T^39 T a t t t^39 A T^39")
    with pytest.raises(DomainError, match="conjugacy_normalize_syllables"):
        conjugacy_normalize_with_certificate(p, w)
    exps, signs, h = conjugacy_normalize_syllables(p, *word_syllables(w))
    assert (exps, signs) == ([0, -2], [1])
    assert max(abs(c) for c, _ in h) > 3**38


# Cascades of N or more moves, each made possible by the one before: a
# move that costs the length of the word makes them quadratic in N.  One
# child process runs all four within the 10 s that a CLI process gets.
CASCADES = """
from bsscale import GroupParams, parse_word
from bsscale.words import conjugacy_normalize_syllables, format_syllables, word_syllables
N = 100_000
for m, n, text in [
    (2, 3, "a t a^2 T " * N + "a"),
    (2, 2, f"a t^{N} a^2 T^{N} a"),
    (2, 3, "t a " * N + "t" + " A T" * N),
    (2, 2, f"a^2 T^{N} a t^{N}"),
]:
    exps, signs, h = conjugacy_normalize_syllables(GroupParams(m, n), *word_syllables(parse_word(text)))
    print(format_syllables(exps, signs), len(h))
"""


def test_cascades_in_linear_time():
    env = {**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
    res = subprocess.run(
        [sys.executable, "-c", CASCADES], env=env, capture_output=True, text=True, timeout=10
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == ["a^400001 0", "a^4 0", "t 200000", "a^3 100000"]


def test_boundary_pinch_move():
    # aTata is pinch-free but its square holds the straddling pinch taaT
    w = "aTata"
    z, h = conjugacy_normalize_with_certificate(P23, w)
    assert z == "aaaa"
    assert h == "aT"
    assert is_freely_reduced(z + z) and is_pinch_free(P23, z + z)
    assert equal_elements(P23, h + z + invert_word(h), w)


@given(groups, words)
@settings(max_examples=300, deadline=None)
def test_square_reduced_pinch_free_with_certificate(p, w):
    z, h = conjugacy_normalize_with_certificate(p, w)
    assert is_freely_reduced(z + z)
    assert is_pinch_free(p, z + z)
    assert t_exponent(z) == t_exponent(w)
    assert equal_elements(p, h + z + invert_word(h), w)


# selfcheck builds z z from z's syllables, joining z's end runs into one;
# its letters are z + z only while those runs never have opposite signs
nonzero = st.integers(-6, 6).filter(bool)


@given(nonzero, nonzero, st.text(alphabet="aAtT", max_size=12))
@example(2, 4, "aaTtaTaa")  # divisor: z = a^3 T a^2
@example(3, -3, "AtaaTA")  # discrete: z is w
@example(1, 3, "ataaTaAt")  # |m| = 1: z = a t a^2
@example(-1, 2, "ATaTA")
@settings(max_examples=500, deadline=None)
def test_square_from_syllables_is_the_letter_square(m, n, w):
    z = conjugacy_normalize(GroupParams(m, n), w)
    zz = selfcheck._square(z)
    assert zz == z + z
    assert word_syllables(zz) == word_syllables(z + z)


@given(groups, words)
@settings(max_examples=100, deadline=None)
def test_all_powers_pinch_free(p, w):
    z = conjugacy_normalize(p, w)
    for k in (1, 2, 3, 4):
        zk = z * k
        assert is_freely_reduced(zk)
        assert is_pinch_free(p, zk)


# ---------------------------------------------------------------------------
# Reference: the greedy letter-string normalizer that restarts its scan after
# every move (quadratic).  The syllable normalizer must return the identical
# (z, h), conjugator letters included.

_INVERT = str.maketrans("aAtT", "AaTt")


def _signed_run(run):
    return len(run) if (not run or run[0] == "a") else -len(run)


def _leading_a_run(w):
    i = 0
    while i < len(w) and w[i] in "aA":
        i += 1
    return i


def _trailing_a_run(w):
    i = len(w)
    while i > 0 and w[i - 1] in "aA":
        i -= 1
    return i


def _a_power(e):
    return "a" * e if e >= 0 else "A" * (-e)


def _find_pinch(p, w):
    exps, signs = word_syllables(w)
    pos = abs(exps[0])
    for k in range(len(signs) - 1):
        mid = exps[k + 1]
        span = 1 + abs(mid) + 1
        if signs[k] == 1 and signs[k + 1] == -1 and mid % p.m == 0:
            return pos, pos + span, _a_power((mid // p.m) * p.n)
        if signs[k] == -1 and signs[k + 1] == 1 and mid % p.n == 0:
            return pos, pos + span, _a_power((mid // p.n) * p.m)
        pos += 1 + abs(mid)
    return None


def greedy_normalize(p, w):
    y = w
    h = []
    while True:
        red = next(
            (i for i in range(len(y) - 1) if y[i + 1] == y[i].translate(_INVERT)),
            None,
        )
        if red is not None:
            y = y[:red] + y[red + 2 :]
            continue
        if len(y) >= 2 and y[-1] == y[0].translate(_INVERT):
            h.append(y[0])
            y = y[1:-1]
            continue
        hit = _find_pinch(p, y)
        if hit is not None:
            start, end, repl = hit
            y = y[:start] + repl + y[end:]
            continue
        lead = _leading_a_run(y)
        trail = _trailing_a_run(y)
        if lead < trail:
            first_sign = 1 if y[lead] == "t" else -1
            last_sign = 1 if y[trail - 1] == "t" else -1
            i = _signed_run(y[:lead])
            j = _signed_run(y[trail:])
            core = y[lead + 1 : trail - 1]
            if first_sign == -1 and last_sign == 1 and (i + j) % p.m == 0:
                y = core + _a_power(((i + j) // p.m) * p.n)
                h.append(_a_power(i) + "T")
                continue
            if first_sign == 1 and last_sign == -1 and (i + j) % p.n == 0:
                y = core + _a_power(((i + j) // p.n) * p.m)
                h.append(_a_power(i) + "t")
                continue
        return y, "".join(h)


all_groups = st.sampled_from(
    [P23, GroupParams(2, 4), GroupParams(4, 6), GroupParams(2, -3), GroupParams(3, 3),
     GroupParams(1, 3), GroupParams(-1, 2), GroupParams(3, -5)]
)
# runs of one letter make pinches and conjugating ends likely
run_words = st.lists(
    st.tuples(st.sampled_from("aAtT"), st.integers(1, 6)), max_size=20
).map(lambda runs: "".join(ch * k for ch, k in runs)[:60])


@given(all_groups, st.one_of(st.text(alphabet="aAtT", max_size=60), run_words))
@example(P23, "atataaTT")
@example(GroupParams(1, 3), "TaaatAAA")
@example(GroupParams(3, -5), "taaTtaaT")
@example(P23, "tataTaT")  # the t strip stops after one pair, at a nonzero a run
@example(P23, "tttaTT")  # the t strip stops with one t letter left
@example(GroupParams(1, 3), "attAT")  # a pinch merges into the last a run
@example(GroupParams(1, 3), "taTTA")  # a pinch empties the read part
@example(GroupParams(1, 3), "taT")  # the strip comes before the pinch
# after a pinch merges into the last a run, a t strip takes both letters from the stack
@example(P23, "taTAtaaTAA")
@example(GroupParams(2, 4), "TTAAAAttttaaTAAAA")
@settings(max_examples=600, deadline=None)
def test_matches_greedy_reference(p, w):
    assert conjugacy_normalize_with_certificate(p, w) == greedy_normalize(p, w)


# A plain string loses its adjacent t pairs before it is decoded; a Word
# keeps its stored syllables.  Free reduction is confluent, so both give
# the same (z, h), and z the same syllables.
t_dense_words = st.text(alphabet="aAtTtT", max_size=40)


@given(all_groups, st.one_of(t_dense_words, run_words))
@example(P23, "tTatTAt")
@example(P23, "TtTtatT")
@settings(max_examples=400, deadline=None)
def test_plain_string_same_as_its_word(p, w):
    z, h = conjugacy_normalize_with_certificate(p, w)
    zw, hw = conjugacy_normalize_with_certificate(p, parse_word(w))
    assert (z, h) == (zw, hw)
    assert word_syllables(z) == word_syllables(zw)
