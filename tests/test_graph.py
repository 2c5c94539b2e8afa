"""Lazy intersection graph: transitions, tracing, node geometry, distances."""

import math
from random import Random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bsscale import (
    DomainError,
    GroupParams,
    NoPathError,
    NotANodeError,
    WordConditionError,
    britton_reduce,
    classify_node,
    edges_from,
    orbit_order,
    parse_word,
    shortest_path_len,
    step,
    step_bruteforce,
    step_h,
    trace,
    trace_geometry,
)
from bsscale.graph import (
    INTERIOR,
    LEFT_RAY,
    RIGHT_RAY,
    ROOT,
    UNSTRUCTURED,
    _node_value,
    _walk,
    level_nodes,
    nodes_through,
    to_dot,
)
from bsscale.sampling import random_pinch_free_word
from bsscale.invariants import moller_stabilization
from bsscale.words import conjugacy_normalize_syllables, word_syllables

P23 = GroupParams(2, 3)
P24 = GroupParams(2, 4)
P46 = GroupParams(4, 6)


class TestStep:
    def test_edges_at_root(self):
        assert step(P23, 1, 1) == 2
        assert step(P23, 1, -1) == 3

    def test_cross_edge(self):
        assert step(P23, 2, -1) == 3

    def test_interior_steps(self):
        assert step(P23, 6, 1) == 4
        assert step(P23, 6, -1) == 9

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            step(P23, 0, 1)

    def test_nonpositive_is_not_a_node(self):
        with pytest.raises(NotANodeError):
            step(P23, 0, 1)
        with pytest.raises(NotANodeError):
            step_h(P23, 1, 1, 0)

    @given(
        st.sampled_from([GroupParams(m, n) for m in range(2, 7) for n in range(2, 7)]),
        st.integers(min_value=1, max_value=400),
        st.sampled_from([1, -1]),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_reduction_scan(self, p, x, eps):
        assert step(p, x, eps) == step_bruteforce(p, x, eps)


class TestStepH:
    def test_loop_at_base(self):
        assert step_h(P24, 2, 1, 2) == 2

    def test_shift_edges(self):
        assert step_h(P24, 2, -1, 2) == 4
        assert step_h(P24, 8, 1, 2) == 4

    @given(st.integers(min_value=1, max_value=200), st.sampled_from([1, -1]))
    def test_h1_is_plain_step(self, x, eps):
        assert step_h(P23, x, eps, 1) == step(P23, x, eps)


class TestTrace:
    def test_worked_example_forward(self):
        assert trace(P24, parse_word("t^4 a t^-2 a"), start=2, h=2) == 8

    def test_worked_example_conjugated(self):
        assert trace(P24, parse_word("t^-2 a t^4 a"), start=2, h=2) == 2

    def test_powers_of_t(self):
        for k in range(1, 7):
            assert trace(P23, "t" * k) == 2**k

    def test_word_without_t_letters(self):
        assert trace(P23, "a", start=2, h=3) == 6
        assert trace(P23, "", start=4, h=2) == 4
        with pytest.raises(NotANodeError):
            trace(P23, "a", start=0)
        with pytest.raises(NotANodeError):
            trace(P23, "a", h=0)

    @given(
        st.sampled_from([P23, P24, P46, GroupParams(3, -2), GroupParams(-2, 4), GroupParams(1, 3)]),
        st.integers(0, 2**32),
        st.integers(1, 60),
        st.integers(1, 4),
    )
    @settings(max_examples=200, deadline=None)
    def test_fold_of_step_h(self, p, seed, start, h):
        w = random_pinch_free_word(p, Random(seed), 14)
        signs = word_syllables(w)[1]
        x = start
        for eps in signs:
            x = step_h(p, x, eps, h)
        assert trace(p, w, start, h) == (x if signs else math.lcm(start, h))

    def test_rejects_unreduced(self):
        with pytest.raises(WordConditionError):
            trace(P23, "tT")

    def test_rejects_pinched(self):
        with pytest.raises(WordConditionError):
            trace(P23, parse_word("t a^2 T"))


class TestClassify:
    def test_root(self):
        nd = classify_node(P23, 1)
        assert nd.kind == ROOT and nd.level == 0 and nd.dist_left == 0

    def test_left_ray(self):
        nd = classify_node(P23, 4)
        assert nd.kind == LEFT_RAY and nd.i == 1
        assert nd.level == 2 and nd.dist_left == 0

    def test_right_ray(self):
        nd = classify_node(P23, 9)
        assert nd.kind == RIGHT_RAY and nd.i == 1
        assert nd.level == 2 and nd.dist_left == 2

    def test_interior_corner(self):
        nd = classify_node(P23, 6)
        assert nd.kind == INTERIOR and (nd.i, nd.j) == (0, 0)
        assert nd.level == 2 and nd.dist_left == 1

    def test_interior_deeper(self):
        nd = classify_node(P23, 12)
        assert nd.kind == INTERIOR and (nd.i, nd.j) == (1, 0)
        assert nd.level == 3 and nd.dist_left == 1

    def test_not_a_node(self):
        with pytest.raises(NotANodeError):
            classify_node(P23, 5)
        with pytest.raises(NotANodeError):
            classify_node(P23, 7)

    @pytest.mark.parametrize("x", [0, -4])
    def test_nonpositive_is_not_a_node(self, x):
        with pytest.raises(NotANodeError):
            classify_node(P23, x)

    def test_divisor_case_unstructured(self):
        nd = classify_node(P24, 5)
        assert nd.kind == UNSTRUCTURED and nd.level is None

    def test_coordinate_law(self):
        # the node g alpha^a beta^b sits at level a + b, b steps from the left
        for m in [*range(-12, 0), *range(1, 13)]:
            for n in [*range(-12, 0), *range(1, 13)]:
                p = GroupParams(m, n)
                if p.divisor_case:
                    continue
                for a in range(7):
                    for b in range(7):
                        if a == b == 0:
                            continue
                        nd = classify_node(p, p.g * p.l_over_n**a * p.l_over_m**b)
                        assert (nd.level, nd.dist_left) == (a + b, b)
                        if b == 0:
                            assert (nd.kind, nd.i, nd.j) == (LEFT_RAY, a - 1, None)
                        elif a == 0:
                            assert (nd.kind, nd.i, nd.j) == (RIGHT_RAY, b - 1, None)
                        else:
                            assert (nd.kind, nd.i, nd.j) == (INTERIOR, a - 1, b - 1)

    def test_listing_matches_strip_route(self):
        # level_nodes builds each node from its coordinates; classify_node
        # strips them back out of the value and is the oracle here
        for m in [*range(-12, 0), *range(1, 13)]:
            for n in [*range(-12, 0), *range(1, 13)]:
                p = GroupParams(m, n)
                if p.divisor_case:
                    continue
                for level in range(9):
                    nodes = level_nodes(p, level)
                    assert nodes == [classify_node(p, nd.value) for nd in nodes]

    @pytest.mark.parametrize("p", [GroupParams(6, 9), GroupParams(-9, 6), GroupParams(12, -18)])
    def test_values_below_gcd_are_not_nodes(self, p):
        for x in range(2, p.g):
            with pytest.raises(NotANodeError):
                classify_node(p, x)


class TestEdges:
    def test_root_edges(self):
        assert edges_from(P23, 1) == [(1, 2), (-1, 3)]

    def test_left_base_edges(self):
        assert edges_from(P23, 2) == [(1, 4), (-1, 3)]

    def test_right_ray_edges(self):
        assert edges_from(P23, 9) == [(1, 6), (-1, 27)]


class TestDistances:
    def test_ray_to_ray(self):
        assert shortest_path_len(P23, 4, 9) == 2

    def test_self(self):
        assert shortest_path_len(P23, 1, 1) == 0

    def test_level_three(self):
        assert shortest_path_len(P23, 16, 81) == 4

    def test_divisor_case_errors(self):
        with pytest.raises(DomainError):
            shortest_path_len(P24, 2, 4)

    def test_deep_levels(self):
        # BS(6,10): g = 2, alpha = 3, beta = 5; x is interior at level 60,
        # 40 steps from the left
        p = GroupParams(6, 10)
        x = 2 * 3**20 * 5**40
        assert shortest_path_len(p, 1, x) == 80
        assert shortest_path_len(p, 2 * 5**10, x) == 70  # from the right ray, level 10

    @given(st.integers(min_value=0, max_value=5))
    @settings(deadline=None)
    def test_crossing_law_both_ways(self, i):
        left = 2 * 2**i
        right = 3 * 3**i
        assert shortest_path_len(P23, left, right) == i + 1
        assert shortest_path_len(P23, right, left) == i + 1

    @pytest.mark.parametrize(
        "p",
        [
            P23,
            P46,
            GroupParams(3, -5),
            GroupParams(2, 5),
            GroupParams(-4, 6),
            GroupParams(6, 10),
            GroupParams(9, -6),
        ],
    )
    def test_matches_unpruned_bfs(self, p):
        nodes = [nd.value for nd in nodes_through(p, 3)]
        for x in nodes:
            for y in nodes:
                want = _edges_bfs(p, x, y)
                if want is None:
                    with pytest.raises(NoPathError):
                        shortest_path_len(p, x, y)
                else:
                    assert shortest_path_len(p, x, y) == want


def _edges_bfs(p, x, y, max_depth=12):
    """Distance from x to y by breadth-first search over edges_from, with
    no level pruning; None when y is not reached within max_depth edges."""
    frontier, seen = [x], {x}
    for depth in range(max_depth + 1):
        if y in frontier:
            return depth
        nxt = []
        for v in frontier:
            for _, u in edges_from(p, v):
                if u not in seen:
                    seen.add(u)
                    nxt.append(u)
        frontier = nxt
    return None


class TestTraceGeometry:
    def test_all_t_word_hugs_left_ray(self):
        g = trace_geometry(P23, "t", 1)
        assert (g.t_max, g.mu) == (1, 0)
        assert g.end_node.level == 2 and g.end_node.dist_left == 0

    def test_single_inverse_letter(self):
        g = trace_geometry(P23, "T", 2)
        assert (g.t_max, g.mu) == (0, -1)
        assert g.end_node.value == 6
        assert g.end_node.level == 2 and g.end_node.dist_left == 1

    def test_alternating_word(self):
        g = trace_geometry(P23, parse_word("t T t T"), 3)
        assert (g.t_max, g.mu) == (1, -1)
        assert g.end_node.value == 24
        assert g.end_node.level == 4 and g.end_node.dist_left == 1

    def test_requires_large_radius(self):
        with pytest.raises(DomainError):
            trace_geometry(P23, "TT", 2)

    def test_divisor_case_errors(self):
        with pytest.raises(DomainError):
            trace_geometry(P24, "t", 1)

    @given(st.text(alphabet="aAtT", max_size=8))
    @settings(max_examples=150, deadline=None)
    def test_endpoint_certified_for_any_word(self, w):
        # the endpoint assertions live inside trace_geometry
        r = sum(1 for ch in w if ch == "T") + 1
        g = trace_geometry(P23, w, r)
        assert g.mu <= 0


# group parameters m, n in +-1..6, and short words over a A t T
PARAMETER = st.integers(-6, 6).filter(bool)
SHORT_WORDS = st.text(alphabet="aAtT", max_size=12)


class TestWalkSizes:
    """The walk of the t signs sizes trace, orbit and Moller answers before
    any step: the node g (l/|n|)^a (l/|m|)^b it predicts must be the fold's."""

    @given(
        st.integers(-6, 6).filter(bool),
        st.integers(1, 6),
        st.text(alphabet="aAtT", max_size=12),
    )
    @settings(max_examples=400, deadline=None)
    @example(2, 4, "taaTAt")  # divisor case
    @example(-3, 3, "TaTTat")  # discrete
    @example(2, 3, "aaA")  # no t letter: the base vertex
    def test_prediction_matches_the_fold(self, m, n, w):
        p = GroupParams(m, n)
        r = britton_reduce(p, w)
        signs = word_syllables(r)[1]
        rho, low, high = _walk(signs)
        assert trace(p, r) == _node_value(p, rho - low, high - rho)
        for u in (w, r):
            assert orbit_order(p, u) == _node_value(p, -low, high)

    @given(PARAMETER, PARAMETER, SHORT_WORDS, st.integers(1, 40), st.integers(1, 40))
    @settings(max_examples=400, deadline=None)
    @example(2, 3, "taT", 3, 2)
    def test_trace_from_1_divides_every_trace(self, m, n, w, start, h):
        """So the walk of w sizes the trace from any start and h."""
        p = GroupParams(m, n)
        r = britton_reduce(p, w)
        assert trace(p, r, start=start, h=h) % trace(p, r) == 0

    @given(PARAMETER, PARAMETER, SHORT_WORDS, st.integers(1, 5))
    @settings(max_examples=400, deadline=None)
    @example(2, 3, "tATa", 3)
    @example(-2, 4, "TaTAt", 4)  # divisor case
    def test_walk_of_z_power_gives_the_last_moller_index(self, m, n, w, k):
        p = GroupParams(m, n)
        assume(not p.discrete)  # every index is 1 without a normalization
        signs = conjugacy_normalize_syllables(p, *word_syllables(w))[1]
        rho, low, high = _walk(signs, k)
        assert _node_value(p, rho - low, high - rho) == moller_stabilization(p, w, k)[0][-1]


class TestRayPaths:
    @given(st.integers(min_value=1, max_value=6))
    def test_left_ray_form(self, k):
        nd = classify_node(P23, trace(P23, "t" * k))
        assert nd.kind == LEFT_RAY and nd.i == k - 1

    @given(st.integers(min_value=1, max_value=6))
    @settings(deadline=None)
    def test_right_ray_form(self, k):
        # an a letter keeps the word reduced without changing the path
        nd = classify_node(P23, trace(P23, "t" * k + "a" + "T" * k))
        assert nd.kind == RIGHT_RAY and nd.i == k - 1


def test_dot_export_is_deterministic_and_complete():
    dot = to_dot(P23, 2)
    assert dot == to_dot(P23, 2)
    # nodes with level <= 2: 1, m, n, m(l/n), l, n(l/m)
    for value in (1, 2, 3, 4, 6, 9):
        assert f'n{value} [label="' in dot
    assert 'n1 -> n2 [label="t"]' in dot
    assert 'n1 -> n3 [label="t^-1", style=dashed]' in dot


def test_dot_text():
    assert to_dot(P23, 1) == (
        "digraph omega {  // BS(2,3)\n"
        '  n1 [label="1 root L0 d0"];\n'
        '  n2 [label="2 left_ray L1 d0"];\n'
        '  n3 [label="3 right_ray L1 d1"];\n'
        '  n1 -> n2 [label="t"];\n'
        '  n1 -> n3 [label="t^-1", style=dashed];\n'
        '  n2 -> n3 [label="t^-1", style=dashed];\n'
        '  n3 -> n2 [label="t"];\n'
        "}\n"
    )


@pytest.mark.parametrize("level", [-1, -3])
def test_negative_level_is_a_domain_error(level):
    with pytest.raises(DomainError, match=f"level {level}"):
        level_nodes(P23, level)
