"""Tree-ball enumeration, generator actions, and brute-force cross-checks."""

import re
from collections import Counter
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bsscale import (
    BudgetError,
    DomainError,
    GroupParams,
    act,
    enumerate_ball,
    export_dot,
    index_bruteforce,
    orbit_census,
    orbit_order,
    orbit_order_bruteforce,
    orbit_order_factorization,
    trace,
)
from bsscale import cosets, graph
from bsscale.cosets import _scan_into_a
from bsscale.sampling import random_pinch_free_word
from bsscale.words import invert_syllables, reduce_syllables

P23 = GroupParams(2, 3)
P24 = GroupParams(2, 4)
P46 = GroupParams(4, 6)


class TestEnumerateBall:
    def test_radius_zero(self):
        t = enumerate_ball(P23, 0)
        assert len(t.vertices) == 1 and len(t.edges) == 0
        assert t.boundary == {0}

    def test_radius_one_counts(self):
        t = enumerate_ball(P23, 1)
        assert len(t.vertices) == 6  # base + 3 t-children + 2 T-children
        assert len(t.edges) == 5

    def test_radius_two_counts(self):
        t = enumerate_ball(P23, 2)
        assert len(t.vertices) == 26  # 6 + 5 * 4
        assert len(t.edges) == 25

    def test_tree_identity_and_uniqueness(self):
        for p in (P23, P46, GroupParams(2, -3)):
            t = enumerate_ball(p, 3)
            assert len(t.vertices) == len(t.edges) + 1
            assert len(set(t.vertices)) == len(t.vertices)

    def test_interior_degree(self):
        t = enumerate_ball(P23, 2)
        deg = [0] * len(t.vertices)
        for src, dst, _ in t.edges:
            deg[src] += 1
            deg[dst] += 1
        for v in range(len(t.vertices)):
            if v not in t.boundary:
                assert deg[v] == 5  # |m| + |n|

    def test_budget(self):
        with pytest.raises(BudgetError):
            enumerate_ball(P23, 10, budget=1000)

    def test_outgoing_edge_labels(self):
        t = enumerate_ball(P46, 1)
        t_edges = [e for e in t.edges if e[0] == 0 and e[2] == 1]
        inv_edges = [e for e in t.edges if e[0] == 0 and e[2] == -1]
        assert len(t_edges) == 6 and len(inv_edges) == 4


class TestAct:
    def test_a_fixes_base(self):
        t = enumerate_ball(P23, 1)
        assert act(P23, t, "a", 0) == 0

    def test_t_moves_base(self):
        t = enumerate_ball(P23, 1)
        v = act(P23, t, "t", 0)
        assert t.vertices[v] == ((0, 1),)

    def test_orbit_of_t_coset(self):
        t = enumerate_ball(P23, 1)
        v0 = act(P23, t, "t", 0)
        v1 = act(P23, t, "a", v0)
        v2 = act(P23, t, "a", v1)
        v3 = act(P23, t, "a", v2)
        assert len({v0, v1, v2}) == 3 and v3 == v0

    def test_a_and_inverse_are_inverse_permutations(self):
        t = enumerate_ball(P23, 2)
        for v in range(len(t.vertices)):
            img = act(P23, t, "a", v)
            assert img is not None
            assert act(P23, t, "A", img) == v

    def test_partial_at_boundary(self):
        t = enumerate_ball(P23, 1)
        outside = [v for v in t.boundary if act(P23, t, "t", v) is None]
        assert outside  # t-images of boundary t-children leave the ball

    def test_total_away_from_boundary(self):
        t = enumerate_ball(P23, 2)
        for v in range(len(t.vertices)):
            if v in t.boundary:
                continue
            for gen in "aAtT":
                assert act(P23, t, gen, v) is not None

    @pytest.mark.parametrize("gen", ["", "At", "aA", "tT", "x"])
    def test_rejects_other_generators(self, gen):
        t = enumerate_ball(P23, 2)
        with pytest.raises(ValueError):
            act(P23, t, gen, 0)


class TestBruteForce:
    def test_orbit_scan_values(self):
        assert orbit_order_bruteforce(P23, "t", 10) == 3
        assert orbit_order_bruteforce(P23, "tt", 10) == 9
        assert orbit_order_bruteforce(P23, "a", 1) == 1

    def test_orbit_scan_respects_bound(self):
        assert orbit_order_bruteforce(P23, "tt", 8) is None

    def test_index_scan_values(self):
        assert index_bruteforce(P23, "t", 3) == 8
        assert index_bruteforce(P23, "a", 2) == 1
        assert index_bruteforce(P24, "T", 2) == 8

    @pytest.mark.parametrize("k", [0, -1, -3])
    def test_index_scan_needs_a_positive_power(self, k):
        with pytest.raises(DomainError, match="at least 1"):
            index_bruteforce(P23, "t", k)

    def test_orbit_matches_trace_route(self):
        rng = Random(7)
        for p in (P23, P46, GroupParams(3, 2)):
            for _ in range(40):
                w = random_pinch_free_word(p, rng, max_len=7)
                assert orbit_order(p, w) == orbit_order_bruteforce(p, w)

    def test_index_matches_trace_route(self):
        rng = Random(8)
        for p in (P23, P24, GroupParams(3, 2)):
            for _ in range(30):
                w = random_pinch_free_word(p, rng, max_len=8)
                assert index_bruteforce(p, w, 1) == trace(p, w)

    def test_index_matches_trace_at_powers(self):
        from bsscale import conjugacy_normalize

        rng = Random(9)
        for p in (P23, P24, GroupParams(3, 2)):
            for _ in range(12):
                w = random_pinch_free_word(p, rng, max_len=8)
                while w.count("t") + w.count("T") > 4:  # scans grow geometrically in t
                    w = random_pinch_free_word(p, rng, max_len=8)
                z = conjugacy_normalize(p, w)
                for k in (1, 2, 3):
                    expected = trace(p, z * k) if z else 1
                    assert index_bruteforce(p, z, k) == expected


def _reference_scan(p, x, y, d_max):
    """The plain scan: rebuild X a^d Y and reduce all of it for every d.
    ``_scan_into_a`` must give the same answer."""
    (xe, xs), (ye, ys) = x, y
    head, mid, tail = xe[:-1], xe[-1] + ye[0], ye[1:]
    for d in range(1, d_max + 1):
        _, left = reduce_syllables(p, head + [mid + d] + tail, xs + ys)
        if not left:
            return d
    return None


SCAN_GROUPS = [
    GroupParams(m, n)
    for m, n in ((2, 3), (3, -2), (1, 1), (2, 2), (2, -2), (-1, 2), (2, 4), (4, 6), (1, 3))
]


@st.composite
def _scan_cases(draw):
    """(p, Y, d_max) with Y unreduced: runs of 0 between opposite signs are
    free pairs, and multiples of m or n make pinches."""
    p = draw(st.sampled_from(SCAN_GROUPS))
    run = st.one_of(
        st.integers(-9, 9),
        st.just(0),
        st.builds(lambda c, base: c * base, st.integers(-3, 3), st.sampled_from([p.m, p.n])),
    )
    k = draw(st.integers(0, 5))
    exps = draw(st.lists(run, min_size=k + 1, max_size=k + 1))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=k, max_size=k))
    return p, (exps, signs), draw(st.integers(0, 60))


class TestJunctionScan:
    @given(_scan_cases())
    @settings(max_examples=400, deadline=None)
    @example((P23, ([0, 2, 0], [1, -1]), 5))  # Y reduces into <a>
    @example((P23, ([0, 0, 0, 0], [1, -1, 1]), 60))  # a free pair in Y
    @example((GroupParams(2, -2), ([0, 0, 0], [1, 1]), 20))
    def test_matches_the_full_reduction_scan(self, case):
        p, y, d_max = case
        assert _scan_into_a(p, y, d_max) == _reference_scan(p, invert_syllables(*y), y, d_max)

    def test_decides_by_reduction_alone(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the scan used the route it checks")

        monkeypatch.setattr(graph, "step", refuse)
        monkeypatch.setattr(graph, "trace", refuse)
        assert orbit_order_bruteforce(P23, "tt") == 9
        assert orbit_order_bruteforce(P23, "tatT") == 3
        assert index_bruteforce(P23, "t", 3) == 8
        assert index_bruteforce(P24, "T", 2) == 8


def _reference_census(p, radius):
    """The census one t-sign class at a time: each class's vertex count,
    and its order from the reduced first coset word (residue 0, or 1 after
    an opposite sign) by the ``step`` fold.  ``orbit_census`` must give the
    same Counter."""
    residues = {1: abs(p.n), -1: abs(p.m)}
    census = Counter()
    level = [([0], [], 1)]  # (exps, signs) of a first coset word, vertex count
    for r in range(radius + 1):
        nxt = []
        for exps, signs, count in level:
            x = 1
            for s in reversed(reduce_syllables(p, exps, signs)[1]):
                x = graph.step(p, x, -s)
            census[x] += count
            if r == radius:
                continue
            for s in (1, -1):
                back = int(bool(signs) and signs[-1] == -s)  # residue 0 backtracks
                if residues[s] > back:
                    nxt.append((exps[:-1] + [back, 0], signs + [s], count * (residues[s] - back)))
        level = nxt
    return census


class TestCensus:
    def test_radius_zero(self):
        assert dict(orbit_census(P23, 0)) == {1: 1}

    def test_radius_one(self):
        assert dict(orbit_census(P23, 1)) == {1: 1, 3: 3, 2: 2}

    def test_common_factor_group(self):
        census = orbit_census(P46, 1)
        assert census[1] == 1
        for order in census:
            assert orbit_order_factorization(P46, order) is not None

    @pytest.mark.parametrize(
        "m, n, radius",
        [(2, 3, 4), (3, -2, 4), (2, 4, 3), (1, 1, 6), (2, 2, 3), (6, 10, 2),
         (1, 3, 4), (-1, 2, 5), (3, 6, 3), (2, -3, 4)],
    )
    def test_matches_the_scan_at_every_vertex(self, m, n, radius):
        # one order per sign class must still be each vertex's own order
        p = GroupParams(m, n)
        table = enumerate_ball(p, radius)
        brute = Counter(
            orbit_order_bruteforce(p, table.vertex_word(v)) for v in range(len(table.vertices))
        )
        assert orbit_census(p, radius) == brute

    @pytest.mark.parametrize(
        "m, n, radius",
        [(2, 3, 12), (3, -2, 10), (-4, 6, 6), (2, 4, 7), (1, 3, 14), (-1, 2, 14),
         (3, 3, 8), (-2, 2, 9), (4, 6, 6), (6, 10, 4)],
    )
    def test_matches_the_sign_class_walk(self, m, n, radius):
        p = GroupParams(m, n)
        for r in range(radius + 1):
            assert orbit_census(p, r, budget=10**9) == _reference_census(p, r)

    def test_line_group_at_a_large_radius(self):
        # BS(1,1) = Z^2: the ball is a line of 2R + 1 vertices, all fixed by a
        assert orbit_census(GroupParams(1, 1), 20000) == Counter({1: 40001})

    def test_builds_no_ball(self, monkeypatch):
        want = orbit_census(P23, 4)

        def refuse(*args, **kwargs):
            raise AssertionError("the census built the ball")

        monkeypatch.setattr(cosets, "enumerate_ball", refuse)
        assert orbit_census(P23, 4) == want
        assert orbit_census(GroupParams(1, 1), 6) == Counter({1: 13})

    def test_a_cycles_appear_in_census(self):
        t = enumerate_ball(P23, 2)
        census = orbit_census(P23, 2)
        seen = set()
        cycle_lengths = set()
        for v in range(len(t.vertices)):
            if v in seen:
                continue
            cycle = [v]
            cur = act(P23, t, "a", v)
            while cur is not None and cur != v:
                cycle.append(cur)
                cur = act(P23, t, "a", cur)
            if cur == v:
                seen.update(cycle)
                cycle_lengths.add(len(cycle))
        assert cycle_lengths <= set(census)


class TestDot:
    def test_single_vertex(self):
        dot = export_dot(enumerate_ball(P23, 0))
        assert 'v0 [label="e"]' in dot

    def test_radius_one_shape(self):
        dot = export_dot(enumerate_ball(P23, 1))
        assert len(re.findall(r'-> v\d+ \[label="t"\]', dot)) == 3
        assert dot.count("style=dashed") == 2

    def test_reparses_to_same_counts(self):
        t = enumerate_ball(P23, 2)
        dot = export_dot(t)
        nodes = re.findall(r"^\s*v(\d+) \[label=", dot, re.M)
        edges = re.findall(r"^\s*v(\d+) -> v(\d+)", dot, re.M)
        assert len(nodes) == len(t.vertices)
        assert len(edges) == len(t.edges)

    def test_deterministic(self):
        assert export_dot(enumerate_ball(P23, 2)) == export_dot(enumerate_ball(P23, 2))

    def test_radius_one_text(self):
        assert export_dot(enumerate_ball(P23, 1)) == (
            "digraph ball {  // BS(2,3) radius 1\n"
            '  v0 [label="e"];\n'
            '  v1 [label="t"];\n'
            '  v2 [label="a t"];\n'
            '  v3 [label="a^2 t"];\n'
            '  v4 [label="T"];\n'
            '  v5 [label="a T"];\n'
            '  v0 -> v1 [label="t"];\n'
            '  v0 -> v2 [label="t"];\n'
            '  v0 -> v3 [label="t"];\n'
            '  v0 -> v4 [label="t^-1", style=dashed];\n'
            '  v0 -> v5 [label="t^-1", style=dashed];\n'
            "}\n"
        )


def test_table_json_dump():
    t = enumerate_ball(P23, 1)
    d = t.as_dict()
    assert d["m"] == 2 and d["n"] == 3 and d["radius"] == 1
    assert d["vertices"][0] == "e"
    assert len(d["edges"]) == 5
    assert all(len(e) == 3 for e in d["edges"])
