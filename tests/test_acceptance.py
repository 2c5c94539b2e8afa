"""Acceptance suite: every exit criterion checked exactly, one report line
per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines.
All assertions are exact integer / rational equalities; random sampling is
fixed-seed.
"""

from fractions import Fraction
from math import lcm
from random import Random

from bsscale import (
    GroupParams,
    act,
    bs1n_matrix,
    bs1n_normal_form,
    conjugacy_normalize,
    edges_from,
    element_normal_form,
    enumerate_ball,
    flat_rank,
    index_bruteforce,
    invert_word,
    modular,
    moller_sequence,
    orbit_census,
    orbit_order,
    orbit_order_bruteforce,
    orbit_order_factorization,
    parse_word,
    pi_kernel,
    scale,
    scale_value_set,
    shortest_path_len,
    step_h,
    structure_report,
    t_exponent,
    trace,
)
from bsscale.sampling import random_pinch_free_word, random_word

P23 = GroupParams(2, 3)
P24 = GroupParams(2, 4)
P46 = GroupParams(4, 6)
SCALE_GROUPS = (P23, P46, P24)


def _report(num: int, title: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num:2d}: {title}")
    assert ok, f"criterion {num}: {title}"


def test_c01_scale_closed_form():
    ok = (
        scale(P23, "t").value == 2
        and scale(P23, "T").value == 3
        and scale(P46, "t").value == 2
        and scale(P46, "T").value == 3
        and scale(P24, "t").value == 1
        and scale(P24, "T").value == 2
    )
    _report(1, "scale values for (2,3), (4,6), (2,4)", ok)


def test_c02_moller_ratio_stabilization():
    rng = Random(101)
    ok = True
    for p in SCALE_GROUPS:
        for _ in range(50):
            w = random_word(rng, max_len=10)
            seq = moller_sequence(p, w, 8)
            target = scale(p, w).value
            for k in range(1, len(seq)):  # pairs (r_k, r_{k+1}), 1-based k
                if seq[k] != seq[k - 1] * target:
                    ok = False
    _report(2, "asymptotic index ratios equal the scale from k = 1", ok)


def test_c03_trace_equals_bruteforce_index():
    rng = Random(202)
    vals = [v for v in range(-5, 6) if abs(v) >= 2]
    ok = True
    for m in vals:
        for n in vals:
            if abs(m) == abs(n):
                continue
            p = GroupParams(m, n)
            for _ in range(500):
                w = random_pinch_free_word(p, rng, max_len=6)
                if trace(p, w) != index_bruteforce(p, w, 1):
                    ok = False
    _report(3, "graph trace = reduction-scan index, 500 words x 48 groups", ok)


def test_c04_scale_axioms():
    rng = Random(303)
    ok = True
    for p in SCALE_GROUPS:
        for _ in range(200):
            w = random_word(rng, max_len=10)
            h = random_word(rng, max_len=10)
            s = scale(p, w).value
            if any(scale(p, w * j).value != s**j for j in (1, 2, 3, 4)):
                ok = False
            if scale(p, h + w + invert_word(h)).value != s:
                ok = False
    _report(4, "scale power and conjugation axioms, 200 pairs per group", ok)


def _golden_omega_edges(p, kind, i, j):
    """Expected (t target, t^-1 target) per node family, written from the
    explicit edge tables rather than the transition formula."""
    m, n, l = abs(p.m), abs(p.n), p.l
    alpha, beta = p.l_over_n, p.l_over_m
    if kind == "root":
        return m, n
    if kind == "left_ray":
        return m * alpha ** (i + 1), (n if i == 0 else l * alpha ** (i - 1))
    if kind == "right_ray":
        return (m if i == 0 else l * beta ** (i - 1)), n * beta ** (i + 1)
    # interior value l alpha^i beta^j
    t_target = m * alpha ** (i + 1) if j == 0 else l * alpha ** (i + 1) * beta ** (j - 1)
    u_target = n * beta ** (j + 1) if i == 0 else l * alpha ** (i - 1) * beta ** (j + 1)
    return t_target, u_target


def test_c05_edge_list_golden():
    ok = True
    for p in (P23, P46):
        m, n, l = abs(p.m), abs(p.n), p.l
        alpha, beta = p.l_over_n, p.l_over_m
        nodes = [(1, "root", 0, 0)]
        nodes += [(m * alpha**i, "left_ray", i, 0) for i in range(4)]
        nodes += [(n * beta**i, "right_ray", i, 0) for i in range(4)]
        nodes += [
            (l * alpha**i * beta**j, "interior", i, j)
            for i in range(3)
            for j in range(3)
            if i + j <= 2
        ]
        for value, kind, i, j in nodes:
            want_t, want_u = _golden_omega_edges(p, kind, i, j)
            if edges_from(p, value) != [(1, want_t), (-1, want_u)]:
                ok = False
    # divisor-case list for (2,4): loop at m, left shifts under t, right
    # shifts under t^-1, intersecting with <a^m>
    r = abs(P24.r)
    for i in range(6):
        x = 2 * r**i
        want_t = 2 if i == 0 else 2 * r ** (i - 1)
        want_u = 2 * r ** (i + 1)
        if step_h(P24, x, 1, 2) != want_t or step_h(P24, x, -1, 2) != want_u:
            ok = False
    _report(5, "explicit edge tables reproduced, levels <= 4 and shifts", ok)


def test_c06_distance_law():
    ok = True
    for p in (P23, GroupParams(3, 5)):
        m, n = abs(p.m), abs(p.n)
        alpha, beta = p.l_over_n, p.l_over_m
        for i in range(7):
            left, right = m * alpha**i, n * beta**i
            if shortest_path_len(p, left, right) != i + 1:
                ok = False
            if shortest_path_len(p, right, left) != i + 1:
                ok = False
    _report(6, "crossing distance i+1 at every level, (2,3) and (3,5)", ok)


def test_c07_worked_example():
    w = parse_word("t^4 a t^-2 a")
    u = parse_word("t^-2 a t^4 a")
    ok = (
        trace(P24, w, start=2, h=2) == 8
        and trace(P24, u, start=2, h=2) == 2
        and scale(P24, w).value == 1
        and scale(P24, u).value == 1
    )
    _report(7, "restricted trace of t^4 a t^-2 a and its conjugate in (2,4)", ok)


def test_c08_orbit_orders():
    ok = True
    for p in (P23, P46):
        census = orbit_census(p, 4)
        if any(orbit_order_factorization(p, d) is None for d in census):
            ok = False
        table = enumerate_ball(p, 4)
        for v in range(len(table.vertices)):
            w = table.vertex_word(v)
            if orbit_order(p, w) != orbit_order_bruteforce(p, w):
                ok = False
    _report(8, "orbit census shape and trace-vs-scan agreement at radius 4", ok)


def test_c09_modular_function():
    rng = Random(404)
    pairs = [(2, 3), (2, -3), (-2, 3), (4, 6), (3, 5)]
    ok = True
    for m, n in pairs:
        p = GroupParams(m, n)
        mv = modular(p, "t")
        if Fraction(mv.numerator, mv.denominator) != Fraction(abs(m), abs(n)):
            ok = False
        for _ in range(200):
            w = random_word(rng, max_len=10)
            mv = modular(p, w)
            if Fraction(mv.numerator, mv.denominator) != Fraction(
                scale(p, w).value, scale(p, invert_word(w)).value
            ):
                ok = False
    _report(9, "modular value |m|/|n| per t letter, equal to the scale ratio", ok)


def test_c10_matrix_representation():
    rng = Random(505)
    ok = True
    for p in (GroupParams(1, 2), GroupParams(1, 3)):
        for _ in range(1000):
            w = random_word(rng, max_len=10)
            u = random_word(rng, max_len=10)
            if bs1n_matrix(p, w + u) != bs1n_matrix(p, w) * bs1n_matrix(p, u):
                ok = False
        # 500 pairwise distinct elements, deduplicated by the Britton normal form
        elements: dict = {}
        while len(elements) < 500:
            w = random_word(rng, max_len=12)
            elements.setdefault(element_normal_form(p, w), w)
        triples = [bs1n_normal_form(p, w) for w in elements.values()]
        if len(set(triples)) != 500:
            ok = False
        for neg, q, pos in triples:
            if q % p.n == 0 and neg > 0 and pos > 0:
                ok = False
    _report(10, "matrix homomorphism and unique triples in BS(1,2), BS(1,3)", ok)


def test_c11_degenerate_case():
    rng = Random(606)
    ok = True
    for p in (GroupParams(3, 3), GroupParams(3, -3)):
        if flat_rank(p) != 0 or pi_kernel(p) != 3:
            ok = False
        if any(
            scale(p, random_word(rng, max_len=10)).value != 1 for _ in range(100)
        ):
            ok = False
    if flat_rank(P23) != 1 or pi_kernel(P23) != 0:
        ok = False
    _report(11, "discrete case (3,+-3): scale 1, flat rank 0, kernel a^3", ok)


def test_c12_local_structure():
    rng = Random(707)
    r23 = structure_report(P23)
    r46 = structure_report(P46)
    ok = (
        r23.primes_vplus == (2,)
        and r23.primes_vminus == (3,)
        and r23.quotient_order_bound == 1
        and r46.primes_vplus == (2,)
        and r46.primes_vminus == (3,)
        and r46.quotient_order_bound == 2
    )
    for _ in range(100):
        w = random_word(rng, max_len=8)
        rep = structure_report(P23, w)
        if rep.swap_applied != (t_exponent(w) < 0):
            ok = False
    _report(12, "tidy prime content and swap flag on negative exponent", ok)


def _primes(k: int) -> set[int]:
    """The prime divisors of k >= 1, by trial division."""
    out, d = set(), 2
    while d * d <= k:
        while k % d == 0:
            out.add(d)
            k //= d
        d += 1
    if k > 1:
        out.add(k)
    return out


def _closure_orders(p, vertex_limit):
    """The order N_r of a acting on each ball of radius r within
    ``vertex_limit`` vertices, and each vertex's cycle length, from one
    ball and ``act`` alone.  a fixes the base vertex, so each cycle keeps
    its distance to it, and the permutation of a smaller ball is the
    restriction to the vertices within its radius."""
    deg = abs(p.m) + abs(p.n)
    radius, size, shell = 0, 1, deg
    while size + shell <= vertex_limit:
        radius, size, shell = radius + 1, size + shell, shell * (deg - 1)
    table = enumerate_ball(p, radius)
    depth = [0] * len(table.vertices)
    for parent, child, _ in table.edges:
        depth[child] = depth[parent] + 1
    cycle = [0] * len(table.vertices)
    for v in range(len(table.vertices)):
        if cycle[v]:
            continue
        orbit = [v]
        while (u := act(p, table, "a", orbit[-1])) != v:
            assert u is not None and depth[u] == depth[v]
            orbit.append(u)
        for u in orbit:
            cycle[u] = len(orbit)
    orders = [1] * (radius + 1)
    for v, d in enumerate(depth):
        orders[d] = lcm(orders[d], cycle[v])
    for r in range(1, radius + 1):
        orders[r] = lcm(orders[r], orders[r - 1])
    return table, cycle, orders


def test_c13_closure_of_a_against_structure_report():
    # a permutes each ball around the base vertex; the order N_r of that
    # permutation is the order of the closure of <a> in Sym(ball_r)
    groups = [(2, 3), (3, 2), (4, 6), (-3, 2), (2, -5), (1, 3), (1, -2), (-1, 2)]
    groups += [(2, 4), (3, -6), (6, 10), (2, 2), (3, -3), (1, 1), (-1, 1)]
    ok = True
    for m, n in groups:
        p = GroupParams(m, n)
        report = structure_report(p)
        l = lcm(m, n)
        growth = (l // abs(m)) * (l // abs(n))
        table, cycle, orders = _closure_orders(p, 3000)
        ok = ok and orders[0] == 1
        if abs(m) != abs(n):
            bound = report.quotient_order_bound
            ok = ok and orders[1:] == [bound * growth**r for r in range(1, len(orders))]
            ok = ok and _primes(growth) == set(report.primes_vplus + report.primes_vminus)
            ok = ok and report.flat_rank == 1 and report.kernel_exponent == 0
        else:
            ok = ok and orders[1:] == [abs(m)] * (len(orders) - 1)
            ok = ok and report.kernel_exponent == abs(m) and report.flat_rank == 0
        for v, length in enumerate(cycle):
            ok = ok and length == orbit_order(p, table.vertex_word(v))
        if abs(m) != abs(n):
            # the index ratio of w^2 over w carries the primes of V+ for w,
            # which the report swaps on a negative t-exponent
            for w in ("t", "T", "taTat", "TaaT"):
                ratio = Fraction(index_bruteforce(p, w, 2), index_bruteforce(p, w, 1))
                ok = ok and ratio.denominator == 1
                ok = ok and _primes(ratio.numerator) == set(structure_report(p, w).primes_vplus)
    _report(13, "closure of <a> on balls matches the structure report and orbit orders", ok)


def _freely_reduced_words(length):
    """Every freely reduced word of at most ``length`` letters."""
    inverse = {"a": "A", "A": "a", "t": "T", "T": "t"}
    level = [""]
    for _ in range(length + 1):
        yield from level
        level = [w + c for w in level for c in "aAtT" if not w or inverse[c] != w[-1]]


def test_c14_scale_set_and_flat_rank_from_indices():
    # index ratios of the normalized z, by the scan alone: r_2 = s(w) r_1,
    # the ratios make up the scale set up to the length, and they are all
    # 1 exactly in flat rank 0
    length = 5
    ok = True
    for m, n in ((2, 3), (3, -2), (4, 6), (2, 4), (1, 3), (2, 2), (-3, 3)):
        p = GroupParams(m, n)
        ratios = set()
        for w in _freely_reduced_words(length):
            z = conjugacy_normalize(p, w)
            r1, r2 = index_bruteforce(p, z, 1), index_bruteforce(p, z, 2)
            ok = ok and r2 == scale(p, w).value * r1
            ratios.add(Fraction(r2, r1))
        ok = ok and ratios == scale_value_set(p, length)
        ok = ok and (ratios == {1}) == (flat_rank(p) == 0)
    _report(14, "index ratios of normalized words give the scale set and the flat rank", ok)
