"""Isomorphism invariance: BS(m,n) -> BS(n,m) (a -> a, t -> t^-1) and
BS(m,n) -> BS(-m,-n) (a -> a^-1, t -> t) both fix <a>, so every route must
give the image of a word in the image group the answer it gives the word.
Each relation checks a route against itself in another group, and covers
the sign handling of negative parameters."""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsscale import (
    GroupParams,
    britton_reduce,
    bs1n_matrix,
    equal_elements,
    flat_rank,
    index_bruteforce,
    modular,
    moller_stabilization,
    orbit_census,
    orbit_order,
    orbit_order_bruteforce,
    scale,
    trace,
)
from bsscale.cli import run

PARAMETERS = [k for k in range(-4, 5) if k]
GROUPS = [GroupParams(m, n) for m in PARAMETERS for n in PARAMETERS]

# (image group, image of a word's letters)
MAPS = {
    "t-swap": (lambda p: GroupParams(p.n, p.m), str.maketrans("tT", "Tt")),
    "a-swap": (lambda p: GroupParams(-p.m, -p.n), str.maketrans("aA", "Aa")),
}

groups = st.sampled_from(GROUPS)
words = st.text(alphabet="aAtT", max_size=10)
# the scans run up to the orbit or index value: at most 4^6 steps when w
# has at most 3 t letters, and the orbit scan stops at 4^6 as well
SCAN_BOUND = 4**6


@pytest.mark.parametrize("name", MAPS)
class TestMaps:
    @given(groups, words, words)
    @settings(max_examples=300, deadline=None)
    def test_element_routes(self, name, p, w, u):
        image, letters = MAPS[name]
        q, w2, u2 = image(p), w.translate(letters), u.translate(letters)
        # .value, not the record: at rho = 0 the two bases differ
        assert scale(p, w).value == scale(q, w2).value
        assert modular(p, w) == modular(q, w2)
        assert equal_elements(p, w, u) == equal_elements(q, w2, u2)
        assert orbit_order(p, w) == orbit_order(q, w2)
        assert len(britton_reduce(p, w)) == len(britton_reduce(q, w2))
        assert trace(p, britton_reduce(p, w)) == trace(q, britton_reduce(q, w2))
        # the sequence and the verdict, through the conjugacy normalization
        assert moller_stabilization(p, w, 5) == moller_stabilization(q, w2, 5)
        assert flat_rank(p) == flat_rank(q)

    @given(groups, words)
    @settings(max_examples=200, deadline=None)
    def test_scans(self, name, p, w):
        image, letters = MAPS[name]
        q, w2 = image(p), w.translate(letters)
        assert orbit_order_bruteforce(p, w, SCAN_BOUND) == orbit_order_bruteforce(
            q, w2, SCAN_BOUND
        )
        if sum(c in "tT" for c in w) <= 3:
            assert index_bruteforce(p, w, 2) == index_bruteforce(q, w2, 2)

    def test_census(self, name):
        image, _ = MAPS[name]
        for p in GROUPS:
            assert orbit_census(p, 3) == orbit_census(image(p), 3), p


@given(st.sampled_from([p for p in GROUPS if abs(p.m) == 1]), words, words)
@settings(max_examples=300, deadline=None)
def test_matrix_equality_under_a_swap(p, w, u):
    image, letters = MAPS["a-swap"]
    q, w2, u2 = image(p), w.translate(letters), u.translate(letters)
    assert (bs1n_matrix(p, w) == bs1n_matrix(p, u)) == (bs1n_matrix(q, w2) == bs1n_matrix(q, u2))


def test_cli_census_of_opposite_signs():
    printed = []
    for argv in (["--group", "-2,3"], ["--group=2,-3"]):
        out, err = io.StringIO(), io.StringIO()
        assert run(argv + ["census", "--radius", "3"], out=out, err=err) == 0
        printed.append(out.getvalue())
    assert printed[0] == printed[1] != ""
