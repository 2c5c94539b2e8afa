"""Canonical element forms and the BS(1, n) normal form / matrix oracle."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fractions import Fraction

from bsscale import normal_forms, words as words_module
from bsscale import (
    BS1nMatrix,
    DomainError,
    GroupParams,
    bs1n_matrix,
    bs1n_normal_form,
    coset_of,
    element_normal_form,
    equal_elements,
    parse_word,
)

P23 = GroupParams(2, 3)
P12 = GroupParams(1, 2)

words = st.text(alphabet="aAtT", max_size=12)
run_words = st.lists(
    st.tuples(st.sampled_from("aAtT"), st.integers(1, 300)), max_size=10
).map(lambda runs: "".join(ch * k for ch, k in runs))
groups = st.sampled_from(
    [P23, GroupParams(2, 4), GroupParams(4, 6), GroupParams(2, -3),
     GroupParams(-2, 3), GroupParams(3, 3)]
)
unit_groups = st.sampled_from(
    [P12, GroupParams(1, 3), GroupParams(-1, 2), GroupParams(1, -2)]
)


class TestElementNormalForm:
    def test_identity(self):
        nf = element_normal_form(P23, "")
        assert nf.syllables == () and nf.tail == 0

    def test_carry_pushes_right(self):
        # a^3 t = t a^2 since a^3 t carries one full block through t
        nf = element_normal_form(P23, parse_word("a^3 t"))
        assert nf.syllables == ((0, 1),) and nf.tail == 2

    def test_pinch_collapses_to_tail(self):
        nf = element_normal_form(P23, parse_word("t a^2 T a"))
        assert nf.syllables == () and nf.tail == 4

    def test_residue_ranges(self):
        nf = element_normal_form(P23, parse_word("a^7 t a^9 T a^5"))
        for c, s in nf.syllables:
            assert 0 <= c < (3 if s == 1 else 2)

    @given(groups, words)
    @settings(max_examples=200)
    def test_round_trip(self, p, w):
        nf = element_normal_form(p, w)
        assert equal_elements(p, nf.to_word(), w)
        for c, s in nf.syllables:
            assert 0 <= c < (abs(p.n) if s == 1 else abs(p.m))
        # no backtracking
        for k in range(len(nf.syllables) - 1):
            c, s = nf.syllables[k + 1]
            assert not (s == -nf.syllables[k][1] and c == 0)

    @given(groups, st.lists(words, min_size=2, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_separates_equality_classes(self, p, ws):
        forms = [element_normal_form(p, w) for w in ws]
        for i in range(len(ws)):
            for j in range(i + 1, len(ws)):
                assert (forms[i] == forms[j]) == equal_elements(p, ws[i], ws[j])

    def test_coset_drops_tail(self):
        assert coset_of(P23, parse_word("a^3 t")) == ((0, 1),)
        assert coset_of(P23, "aaaa") == ()


class TestBS1nNormalForm:
    def test_push_through_t(self):
        assert bs1n_normal_form(P12, parse_word("a t a")) == (0, 3, 1)

    def test_identity(self):
        assert bs1n_normal_form(P12, "") == (0, 0, 0)

    def test_inner_pinch_stripped(self):
        assert bs1n_normal_form(P12, parse_word("T a^2 t")) == (0, 1, 0)

    def test_rejects_other_groups(self):
        with pytest.raises(DomainError):
            bs1n_normal_form(P23, "t")
        with pytest.raises(DomainError):
            bs1n_matrix(P23, "t")

    @given(unit_groups, words)
    @example(P12, "tT")  # free t pairs, which the form reads cut out
    @example(GroupParams(1, 3), "aTtA")
    @example(GroupParams(-1, 2), "TtatT")
    @settings(max_examples=200)
    def test_form_is_faithful(self, p, w):
        neg, q, pos = bs1n_normal_form(p, w)
        assert neg >= 0 and pos >= 0
        if q % p.n == 0:
            assert neg == 0 or pos == 0
        back = "T" * neg + ("a" * q if q >= 0 else "A" * (-q)) + "t" * pos
        assert equal_elements(p, back, w)


class TestBS1nMatrix:
    def test_generator_images(self):
        a = bs1n_matrix(P12, "a")
        assert a.entries[0] == (1, 1) and a.entries[1] == (0, 1)
        t = bs1n_matrix(P12, "t")
        assert t.entries[0] == (2, 0)

    def test_identity(self):
        assert bs1n_matrix(GroupParams(1, 7), "").entries[0] == (1, 0)

    def test_relation(self):
        # t a t^-1 = a^2 in BS(1,2)
        assert bs1n_matrix(P12, "taT") == bs1n_matrix(P12, "aa")
        assert bs1n_matrix(P12, "taT").entries[0] == (1, 2)

    def test_determinant_is_power_of_n(self):
        m = bs1n_matrix(P12, parse_word("t^3 a T"))
        assert m.det == 4

    @given(unit_groups, words, words)
    @settings(max_examples=200)
    def test_homomorphism(self, p, w, u):
        assert bs1n_matrix(p, w + u) == bs1n_matrix(p, w) * bs1n_matrix(p, u)

    @given(unit_groups, words, words)
    @settings(max_examples=200)
    def test_equality_oracle(self, p, w, u):
        assert (bs1n_matrix(p, w) == bs1n_matrix(p, u)) == equal_elements(p, w, u)

    @given(unit_groups, st.one_of(words, run_words))
    @example(P12, "tT")  # free t pairs, which the matrix reads cut out
    @example(GroupParams(1, 3), "aTtA")
    @example(GroupParams(-1, 2), "TtatT")
    @settings(max_examples=100)
    def test_matches_letter_product(self, p, w):
        assert bs1n_matrix(p, w) == letter_product(p, w)


class TestBS1nOracles:
    # an empty a run costs no power, so each word takes one power, not N
    @pytest.mark.parametrize("read", [parse_word, lambda text: str(parse_word(text))],
                             ids=["word", "plain"])
    def test_conjugates_of_a_by_a_t_power(self, read):
        n = 20_000
        w = read(f"T^{n} a t^{n}")
        assert bs1n_matrix(P12, w) == BS1nMatrix(Fraction(1), Fraction(1, 2**n))
        assert bs1n_normal_form(P12, w) == (n, 1, n)
        w = read(f"t^{n} a T^{n}")
        assert bs1n_matrix(P12, w) == BS1nMatrix(Fraction(1), Fraction(2**n))
        assert bs1n_normal_form(P12, w) == (0, 2**n, 0)

    def test_answers_without_any_reduction(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the oracle used a reduction it checks")

        # in words and wherever normal_forms binds one of them itself
        for module in (words_module, normal_forms):
            for name in ("reduce_syllables", "free_reduce_syllables",
                         "conjugacy_normalize_syllables"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)
        for w in ("", "tT", "aTtA", "TtatT", "taaT", "Taat", "tAtTTa", parse_word("T a^4 t t T")):
            assert bs1n_matrix(P12, w) == letter_product(P12, w)
            neg, q, pos = bs1n_normal_form(P12, w)
            back = "T" * neg + ("a" * q if q >= 0 else "A" * -q) + "t" * pos
            assert letter_product(P12, back) == letter_product(P12, w)


def letter_product(p, w):
    """Reference: one Fraction matrix product per letter."""
    mn = Fraction(p.m * p.n)
    gens = {
        "a": BS1nMatrix(Fraction(1), Fraction(1)),
        "A": BS1nMatrix(Fraction(1), Fraction(-1)),
        "t": BS1nMatrix(mn, Fraction(0)),
        "T": BS1nMatrix(1 / mn, Fraction(0)),
    }
    out = BS1nMatrix(Fraction(1), Fraction(0))
    for ch in w:
        out = out * gens[ch]
    return out
