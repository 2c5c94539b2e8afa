"""The word problem against the affine image of BS(m, n).

a acts on the rationals as x -> x + 1 and t as x -> (n/m) x.  Then
t a^m t^-1 acts as x -> x + n, as a^n does, so this is a homomorphism of
every BS(m, n), and two words for one element have the same image.  The
evaluator reads letters and calls nothing in ``bsscale``, so it checks the
reduction without sharing any of it: every word the package says equals w
must have w's image.  (The image is faithful only for |m| = 1, so it proves
"not equal" only sometimes.)
"""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsscale import (
    GroupParams,
    britton_reduce,
    conjugacy_normalize_with_certificate,
    element_normal_form,
    equal_elements,
    free_reduce,
    invert_word,
)

_RUNS = re.compile("a+|A+|t+|T+")
_SIGNED = {"a": ("a", 1), "A": ("a", -1), "t": ("t", 1), "T": ("t", -1)}
# a normal form is written out as letters only up to this many: in BS(6, 1)
# the one of ``a t^11`` has 6^11 + 11 letters
_LETTER_BOUND = 10**5


def _image(m: int, n: int, runs) -> tuple[Fraction, Fraction]:
    """(lam, c) with x -> lam x + c the image of the word a^k or t^k, for
    each (letter, k) of runs in turn: each map composed on the right."""
    ratio = Fraction(n, m)
    lam, c = Fraction(1), Fraction(0)
    for letter, k in runs:
        if letter == "a":
            c += k * lam
        else:
            lam *= ratio**k
    return lam, c


def affine_image(m: int, n: int, letters: str) -> tuple[Fraction, Fraction]:
    """The image of a letter string, one letter run at a time."""
    runs = []
    for run in _RUNS.findall(letters):
        letter, sign = _SIGNED[run[0]]
        runs.append((letter, sign * len(run)))
    return _image(m, n, runs)


def syllable_image(m: int, n: int, exps, signs) -> tuple[Fraction, Fraction]:
    """The image of a^exps[0] t^signs[0] a^exps[1] ... t^signs[-1] a^exps[-1]."""
    runs = [("a", exps[0])]
    for s, e in zip(signs, exps[1:]):
        runs += [("t", s), ("a", e)]
    return _image(m, n, runs)


def _power(letter: str, e: int) -> str:
    return letter * e if e >= 0 else letter.swapcase() * -e


def relator(m: int, n: int) -> str:
    return "t" + _power("a", m) + "T" + _power("a", -n)


_IDENTITY = (Fraction(1), Fraction(0))
_PARAMETERS = st.integers(-6, 6).filter(bool)
_LETTERS = st.text(alphabet="aAtT", max_size=12)


@st.composite
def _words(draw, m, n):
    """A word of up to 12 letters; half of them hold a pinch
    t a^(cm) T or T a^(cn) t between two short words."""
    if draw(st.booleans()):
        return draw(_LETTERS)
    c = draw(st.integers(-1, 1))
    pinch = draw(st.sampled_from(["t" + _power("a", c * m) + "T", "T" + _power("a", c * n) + "t"]))
    short = st.text(alphabet="aAtT", max_size=2)
    return draw(short) + pinch + draw(short)


@st.composite
def _groups_and_words(draw, count):
    m, n = draw(_PARAMETERS), draw(_PARAMETERS)
    return (m, n, *(draw(_words(m, n)) for _ in range(count)))


@pytest.mark.parametrize("m", [k for k in range(-6, 7) if k])
def test_relator_maps_to_the_identity(m):
    for n in range(-6, 7):
        if n:
            assert affine_image(m, n, relator(m, n)) == _IDENTITY


def test_the_image_is_not_blind():
    """The image tells a from t and a^2 from a^3, and the two readers
    agree."""
    assert affine_image(2, 3, "a") != affine_image(2, 3, "t")
    assert affine_image(2, 3, "aa") != affine_image(2, 3, "aaa")
    assert affine_image(2, 3, "taaT") == affine_image(2, 3, "aaa")
    assert affine_image(2, 3, "AAtTa") == syllable_image(2, 3, [-2, 0, 1], [1, -1])


@given(_groups_and_words(1))
@settings(max_examples=400, deadline=None)
def test_every_word_for_w_has_the_image_of_w(case):
    m, n, w = case
    p = GroupParams(m, n)
    want = affine_image(m, n, w)
    z, h = conjugacy_normalize_with_certificate(p, w)
    assert affine_image(m, n, britton_reduce(p, w)) == want
    assert affine_image(m, n, free_reduce(w)) == want
    nf = element_normal_form(p, w)
    exps, signs = nf.word_syllables()
    assert syllable_image(m, n, exps, signs) == want
    if sum(map(abs, exps)) + len(signs) <= _LETTER_BOUND:
        assert affine_image(m, n, nf.to_word()) == want
    assert affine_image(m, n, h + z + invert_word(h)) == want


@given(_groups_and_words(2))
@settings(max_examples=400, deadline=None)
def test_words_with_different_images_are_never_equal(case):
    m, n, w, u = case
    if affine_image(m, n, w) != affine_image(m, n, u):
        assert not equal_elements(GroupParams(m, n), w, u)
