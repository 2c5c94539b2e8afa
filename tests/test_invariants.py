"""Scale, modular, flat rank, kernel, orbit orders, structure reports."""

import itertools
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsscale import (
    GroupParams,
    flat_rank,
    index_bruteforce,
    invert_word,
    modular,
    moller_sequence,
    moller_stabilization,
    orbit_order,
    orbit_order_factorization,
    parse_word,
    pi_kernel,
    scale,
    scale_value_set,
    structure_report,
    t_exponent,
)
from bsscale import invariants, selfcheck
from bsscale.errors import ParseError

P23 = GroupParams(2, 3)
P24 = GroupParams(2, 4)
P46 = GroupParams(4, 6)
P33 = GroupParams(3, 3)

words = st.text(alphabet="aAtT", max_size=10)
groups = st.sampled_from(
    [P23, P24, P46, GroupParams(3, 5), GroupParams(2, -3), GroupParams(-2, 3), P33]
)
nonzero = st.integers(min_value=-12, max_value=12).filter(bool)
small_groups = st.builds(GroupParams, nonzero, nonzero)


class TestScale:
    def test_generator_values(self):
        assert scale(P23, "t").value == 2
        assert scale(P23, "T").value == 3

    def test_zero_exponent(self):
        assert scale(P23, "a" * 5).value == 1
        assert scale(P46, "a" * 5).value == 1

    def test_divisor_case(self):
        assert scale(P24, "t").value == 1
        assert scale(P24, "T").value == 2

    def test_common_factor_group(self):
        assert scale(P46, "t").value == 2
        assert scale(P46, "T").value == 3

    def test_value_matches_base_power(self):
        sv = scale(P23, "tt")
        assert (sv.base, sv.exponent, sv.value) == (2, 2, 4)

    def test_json_fields(self):
        d = scale(P23, "t").as_dict()
        assert d == {"base": 2, "exponent": 1, "value": "2"}
        json.dumps(d)

    @given(groups, words, st.integers(min_value=1, max_value=4))
    @settings(max_examples=200)
    def test_power_axiom(self, p, w, j):
        assert scale(p, w * j).value == scale(p, w).value ** j

    @given(groups, words, st.text(alphabet="aAtT", max_size=6))
    @settings(max_examples=200)
    def test_conjugation_invariance(self, p, w, h):
        assert scale(p, h + w + invert_word(h)).value == scale(p, w).value

    @given(words)
    def test_uniscalar_iff_zero_exponent(self, w):
        both_one = scale(P23, w).value == 1 and scale(P23, invert_word(w)).value == 1
        assert both_one == (t_exponent(w) == 0)


class TestMoller:
    def test_pure_t(self):
        assert moller_sequence(P23, "t", 5) == [2, 4, 8, 16, 32]

    def test_zero_exponent_element(self):
        assert moller_sequence(P23, "a", 5) == [1, 1, 1, 1, 1]

    def test_identity(self):
        assert moller_sequence(P23, "tT", 5) == [1, 1, 1, 1, 1]

    def test_discrete_group_reports_ones(self):
        assert moller_sequence(P33, "t", 4) == [1, 1, 1, 1]

    def test_discrete_group_does_not_normalize(self, monkeypatch):
        # nothing on a discrete group reads the normalized word
        def refuse(*args):
            raise AssertionError("conjugacy normalization called")

        monkeypatch.setattr(invariants, "conjugacy_normalize_syllables", refuse)
        for p in (P33, GroupParams(2, -2), GroupParams(-1, 1)):
            w = parse_word("a t^300 a^2 T^300 a")
            assert moller_stabilization(p, w, 3) == ([1, 1, 1], True)
            with pytest.raises(ParseError, match="invalid letter 'x'"):
                moller_stabilization(p, "x", 3)

    def test_ratios_checked_from_the_first(self, monkeypatch):
        # TaTaTaTa has four t^-1 letters, so a check that began past
        # 2N + 1 = 9 would compare no ratio at k_max = 8
        w = "TaTaTaTa"
        seq, ok = moller_stabilization(P23, w, 8)
        assert ok and seq == [81**k for k in range(1, 9)]
        wrong = invariants.ScaleValue(80, 1)
        monkeypatch.setattr(invariants, "_scale_at", lambda p, rho: wrong)
        assert moller_stabilization(P23, w, 8) == (seq, False)

    def test_first_ratio_never_decides_alone(self):
        """Checking the ratios from k = 2 on gives _indices' verdict (from
        k = 1) on every sign word of up to 8 letters, in each non-discrete
        group with |m|, |n| <= 6: a check begun at k = 2 is an equivalent
        mutant, for every sign word and not only a normalized z's."""
        signs = [[]]
        for length in range(1, 9):
            signs += [list(s) for s in itertools.product((1, -1), repeat=length)]
        nonzero = [*range(-6, 0), *range(1, 7)]
        cases = 0
        for p in (GroupParams(m, n) for m in nonzero for n in nonzero):
            if p.discrete:
                continue
            for s in signs:
                seq, ok = invariants._indices(p, sum(s), s, 8)
                target = invariants._scale_at(p, sum(s)).value
                assert ok == all(b == a * target for a, b in zip(seq[1:], seq[2:])), (p, s)
                cases += 1
        assert cases == 120 * 511

    @given(groups, words)
    @settings(max_examples=200, deadline=None)
    def test_ratios_stabilize_at_bound(self, p, w):
        _, ok = moller_stabilization(p, w, 8)
        assert ok

    @given(st.sampled_from(selfcheck._GROUPS), words)
    @settings(max_examples=200, deadline=None)
    def test_indices_at_least_scale_powers(self, p, w):
        # the scale is the least displacement index, so r_k >= s(w)^k
        s = scale(p, w).value
        for k, r in enumerate(moller_sequence(p, w, 8), 1):
            assert r >= s**k

    @given(
        st.sampled_from([P23, P24, P46, P33, GroupParams(2, -2), GroupParams(-3, 5)]),
        words,
        st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=200, deadline=None)
    def test_stabilization_reports_the_sequence(self, p, w, k):
        assert moller_sequence(p, w, k) == moller_stabilization(p, w, k)[0]


class TestModular:
    def test_generator(self):
        mv = modular(P23, "t")
        assert (mv.numerator, mv.denominator) == (2, 3)

    def test_zero_exponent(self):
        mv = modular(P23, parse_word("a t a T a"))
        assert (mv.numerator, mv.denominator) == (1, 1)

    def test_square_in_lowest_terms(self):
        mv = modular(P46, "tt")
        assert (mv.numerator, mv.denominator) == (4, 9)

    @given(groups, words)
    @settings(max_examples=200)
    def test_equals_scale_ratio(self, p, w):
        mv = modular(p, w)
        assert Fraction(mv.numerator, mv.denominator) == Fraction(
            scale(p, w).value, scale(p, invert_word(w)).value
        )

    @given(
        st.builds(GroupParams, st.integers(-5, 5).filter(bool), st.integers(1, 5)),
        st.text(alphabet="aAtT", max_size=7),
    )
    @settings(max_examples=300)
    def test_equals_index_ratio(self, p, w):
        # the modular function is the index ratio of the closure of <a>:
        # [<a> : <a> intersect w^-1 <a> w] / [<a> : <a> intersect w <a> w^-1]
        mv = modular(p, w)
        assert (index_bruteforce(p, w, 1) * mv.denominator
                == index_bruteforce(p, invert_word(w), 1) * mv.numerator)

    @given(groups, words, words)
    @settings(max_examples=200)
    def test_homomorphism(self, p, w, u):
        assert (
            modular(p, w + u).fraction == modular(p, w).fraction * modular(p, u).fraction
        )


class TestFlatRankAndKernel:
    def test_flat_rank(self):
        assert flat_rank(P23) == 1
        assert flat_rank(P33) == 0
        assert flat_rank(GroupParams(3, -3)) == 0

    def test_kernel(self):
        assert pi_kernel(P23) == 0
        assert pi_kernel(P33) == 3
        assert pi_kernel(GroupParams(1, 5)) == 0


class TestOrbitOrder:
    def test_t_coset(self):
        assert orbit_order(P23, "t") == 3

    def test_base_coset(self):
        assert orbit_order(P23, "a" * 7) == 1

    def test_depth_two(self):
        assert orbit_order(P23, "tt") == 9

    @given(groups, words)
    @settings(max_examples=200)
    def test_shape(self, p, w):
        d = orbit_order(p, w)
        fact = orbit_order_factorization(p, d)
        assert fact is not None
        gp, r, s = fact
        assert p.g % gp == 0
        assert d == gp * p.l_over_m**r * p.l_over_n**s

    def test_factorization_rejects_other_primes(self):
        assert orbit_order_factorization(P23, 5) is None

    @pytest.mark.parametrize("d", [0, -1, -6])
    def test_factorization_rejects_nonpositive(self, d):
        assert orbit_order_factorization(P23, d) is None

    @given(small_groups, st.integers(min_value=1, max_value=5000))
    @settings(max_examples=300)
    def test_factorization_matches_search(self, p, d):
        assert orbit_order_factorization(p, d) == search_factorization(p, d)

    @given(
        small_groups,
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=0, max_value=8),
        st.integers(min_value=0, max_value=8),
    )
    @settings(max_examples=300)
    def test_factorization_matches_search_on_shaped_values(self, p, gp, r, s):
        d = math.gcd(gp, p.g) * p.l_over_m**r * p.l_over_n**s
        assert orbit_order_factorization(p, d) == search_factorization(p, d)


def search_factorization(p, d):
    """Reference: the smallest g' dividing gcd(|m|, |n|) and d for which
    d / g' is (l/|m|)^r (l/|n|)^s, found by trying every candidate."""
    beta, alpha = p.l_over_m, p.l_over_n
    for gp in range(1, p.g + 1):
        if p.g % gp or d % gp:
            continue
        v = d // gp
        r = 0
        while beta > 1 and v % beta == 0:
            v //= beta
            r += 1
        s = 0
        while alpha > 1 and v % alpha == 0:
            v //= alpha
            s += 1
        if v == 1:
            return gp, r, s
    return None


class TestScaleValueSet:
    def test_coprime_pair(self):
        assert scale_value_set(P23, 2) == {1, 2, 3, 4, 9}

    def test_rho_zero(self):
        assert scale_value_set(P46, 0) == {1}

    def test_divisor_case(self):
        assert scale_value_set(P24, 2) == {1, 2, 4}

    def test_discrete_group_takes_base_one_once(self):
        assert scale_value_set(GroupParams(1, 1), 10**20) == {1}

    @given(groups, words)
    @settings(max_examples=150)
    def test_contains_every_scale(self, p, w):
        rho = abs(t_exponent(w))
        assert scale(p, w).value in scale_value_set(p, rho)
        assert scale(p, invert_word(w)).value in scale_value_set(p, rho)


class TestStructureReport:
    def test_coprime_pair(self):
        rep = structure_report(P23)
        assert rep.primes_vplus == (2,)
        assert rep.primes_vminus == (3,)
        assert rep.quotient_order_bound == 1
        assert not rep.swap_applied

    def test_common_factor_pair(self):
        rep = structure_report(P46)
        assert rep.primes_vplus == (2,)
        assert rep.primes_vminus == (3,)
        assert rep.quotient_order_bound == 2

    def test_discrete_pair(self):
        rep = structure_report(P33)
        assert rep.primes_vplus == ()
        assert rep.primes_vminus == ()
        assert rep.flat_rank == 0
        assert rep.kernel_exponent == 3
        assert rep.discrete

    def test_swap_on_negative_exponent(self):
        rep = structure_report(P23, "T")
        assert rep.swap_applied
        assert rep.primes_vplus == (3,)
        assert rep.primes_vminus == (2,)

    def test_composite_ratio(self):
        # scale 6 in BS(1, 6): the local structure is Z_2 x Z_3
        rep = structure_report(GroupParams(1, 6))
        assert rep.primes_vplus == ()
        assert rep.primes_vminus == (2, 3)

    def test_composite_ratio_swapped(self):
        rep = structure_report(GroupParams(1, 30), "T")
        assert rep.swap_applied
        assert rep.primes_vplus == (2, 3, 5)
        assert rep.primes_vminus == ()

    def test_prime_below_the_trial_bound_squared(self):
        # no trial divisor up to 10^6 divides it, and it is below 10^12
        rep = structure_report(GroupParams(2, 999999999989))
        assert rep.primes_vplus == (2,)
        assert rep.primes_vminus == (999999999989,)

    def test_prime_sets_disjoint(self):
        for p in (P23, P46, GroupParams(6, 10), GroupParams(12, 18)):
            rep = structure_report(p)
            assert not set(rep.primes_vplus) & set(rep.primes_vminus)

    def test_vplus_reconstructs_scale(self):
        rep = structure_report(P46, "tt")
        value = scale(P46, "tt").value
        prod = 1
        for q in rep.primes_vplus:
            e = 0
            v = value
            while v % q == 0:
                v //= q
                e += 1
            prod *= q**e
        assert prod == value

    def test_json_fields(self):
        d = structure_report(P46).as_dict()
        assert d["primes_vplus"] == [2]
        assert d["primes_vminus"] == [3]
        assert d["quotient_order_bound"] == 2
        assert d["flat_rank"] == 1
        assert d["kernel_exponent"] == 0
        assert d["swap_applied"] is False
        json.dumps(d)
