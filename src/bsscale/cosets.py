"""Brute-force ground truth on the Bass-Serre tree of BS(m, n).

A radius-R ball of the tree is enumerated as canonical left cosets of <a>
(vertices), with the partial permutation action of the generators and
orbit/index scans that decide through word reduction alone, independently
of the intersection-graph calculus.  The exception is ``orbit_census``: it
takes each vertex's orbit order from ``invariants.orbit_order_syllables``,
the ``step`` route, and checks only that the order has the admissible shape.

A scan asks, for d = 1, 2, ..., whether X a^d Y lies in <a>.  It reduces X
and Y once.  A reduced word is freely reduced and pinch-free, and putting
a^d between two such words changes only the a run where they meet, so a
pinch of X a^d Y can only appear there (Britton's lemma, Lyndon-Schupp
ch. IV); each candidate d is tested on that junction alone.
"""

from __future__ import annotations

from collections import Counter

from .errors import BudgetError, InvariantError
from .graph import _dot
from .invariants import orbit_order_factorization, orbit_order_syllables
from .normal_forms import CosetId, ElementNormalForm, coset_of, coset_word
from .params import DEFAULT_BUDGET, GroupParams, Record
from .words import Word, format_syllables, invert_syllables, reduce_syllables, word_syllables


class CosetTable(Record):
    """A radius-R ball: vertices in BFS order (children enumerated t-label
    first, then by transversal residue), tree edges (parent, child, label),
    and the boundary vertex set.  Unlike the other records it is mutable and
    unhashable, and its repr leaves out the vertex ``index``."""

    __slots__ = ("params", "radius", "vertices", "edges", "boundary", "index")
    _hidden = ("index",)
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def vertex_word(self, v: int) -> Word:
        return coset_word(self.vertices[v])

    def vertex_labels(self) -> list[str]:
        """Each vertex's compact coset word, "e" for the base vertex."""
        return [
            format_syllables(*ElementNormalForm(cid, 0).word_syllables()) or "e"
            for cid in self.vertices
        ]

    def as_dict(self) -> dict:
        return {
            "m": self.params.m,
            "n": self.params.n,
            "radius": self.radius,
            "vertices": self.vertex_labels(),
            "edges": [list(e) for e in self.edges],
        }


def _ball_size(p: GroupParams, radius: int, cap: int) -> int:
    """Vertex count of the radius ball, or a partial count above ``cap``
    once the count passes it, so that a huge radius stops early."""
    deg = abs(p.m) + abs(p.n)
    total, shell = 1, deg
    for _ in range(radius):
        if total > cap:
            break
        total += shell
        shell *= deg - 1
    return total


def enumerate_ball(
    p: GroupParams, radius: int, budget: int = DEFAULT_BUDGET
) -> CosetTable:
    """BFS enumeration of all cosets within tree distance ``radius`` of <a>.

    Each vertex u<a> has the |n| neighbors u a^c t <a> (c mod |n|) and the
    |m| neighbors u a^c t^-1 <a> (c mod |m|); one of them is u's parent, the
    rest are children, so interior vertices have degree |m| + |n|.
    """
    if _ball_size(p, radius, budget) > budget:
        raise BudgetError(f"radius {radius} ball has more vertices than the budget {budget}")
    base: CosetId = ()
    vertices = [base]
    index = {base: 0}
    edges: list[tuple[int, int, int]] = []
    frontier = [0]
    for _ in range(radius):
        nxt: list[int] = []
        for v in frontier:
            syll = vertices[v]
            for eps, count in ((1, abs(p.n)), (-1, abs(p.m))):
                for c in range(count):
                    if syll and syll[-1][1] == -eps and c == 0:
                        continue  # backtracks to the parent coset
                    child = syll + ((c, eps),)
                    idx = len(vertices)
                    vertices.append(child)
                    index[child] = idx
                    edges.append((v, idx, eps))
                    nxt.append(idx)
        frontier = nxt
    return CosetTable(
        params=p,
        radius=radius,
        vertices=vertices,
        edges=edges,
        boundary=frozenset(frontier),
        index=index,
    )


def act(p: GroupParams, table: CosetTable, gen: str, v: int) -> int | None:
    """Vertex index of gen * (coset v), or None when the image falls outside
    the ball.  gen is one of 'a', 'A', 't', 'T'."""
    if gen not in ("a", "A", "t", "T"):
        raise ValueError(f"generator must be one of a, A, t, T, got {gen!r}")
    image = coset_of(p, gen + table.vertex_word(v))
    return table.index.get(image)


def orbit_order_bruteforce(
    p: GroupParams, w: str, d_max: int | None = None
) -> int | None:
    """Minimal d in 1..d_max with w^-1 a^d w a power of a, by direct scan;
    None if the scan bound is passed (with the default bound that signals
    a bug, not a property of the input)."""
    if d_max is None:
        d_max = default_scan_bound(p, w)
    ws = word_syllables(w)
    return _scan_into_a(p, invert_syllables(*ws), ws, d_max)


def index_bruteforce(p: GroupParams, w: str, k: int) -> int | None:
    """Minimal e >= 1 with w^k a^e w^-k a power of a: the generator exponent
    of <a> intersect w^-k <a> w^k, whose value is the index
    [<a> : <a> intersect w^-k <a> w^k].  None if ``default_scan_bound`` is
    passed.
    """
    wk = _power_syllables(*word_syllables(w), k)
    return _scan_into_a(p, wk, invert_syllables(*wk), default_scan_bound(p, w, k))


def _scan_into_a(p: GroupParams, x, y, d_max: int) -> int | None:
    """Minimal d in 1..d_max with X a^d Y a power of a, X and Y given as
    syllables (exponents, signs), by word reduction; None past d_max.

    X and Y are reduced once, so each is freely reduced and pinch-free.
    Reducing X a^d Y left to right then keeps X whole, and each pinch faces
    the last t letter left of X with the next one of Y: once a t letter of
    Y survives, the rest of Y meets only its own pinch-free runs.  So the
    junction is the only place a pinch can appear, and by Britton's lemma
    X a^d Y is a power of a exactly when the junction pinches cancel every
    t letter, which needs as many t letters in X as in Y with opposite
    signs facing.  Only the junction exponent a = xe[-1] + d + ye[0]
    depends on d; each pinch turns it as ``reduce_syllables`` does and adds
    the runs beside the cancelled letters.
    """
    xe, xs = reduce_syllables(p, *x)
    ye, ys = reduce_syllables(p, *y)
    if [-s for s in reversed(xs)] != ys:  # some t letter can never cancel
        return None
    # pinch k cancels xs[-1-k] with ys[k]: t a^top T needs m | top and
    # T a^top t needs n | top; the runs beside the two letters join in
    runs = [u + v for u, v in zip(reversed(xe[:-1]), ye[1:])]
    pinches = [(p.m, p.n, r) if s < 0 else (p.n, p.m, r) for s, r in zip(ys, runs)]
    start = xe[-1] + ye[0]
    for d in range(1, d_max + 1):
        a = start + d
        for mod, mul, runs in pinches:
            if a % mod:
                break
            a = a // mod * mul + runs
        else:
            return d
    return None


def _power_syllables(we: list[int], ws: list[int], k: int):
    exps = list(we)
    signs = list(ws)
    for _ in range(k - 1):
        exps[-1] += we[0]
        exps.extend(we[1:])
        signs.extend(ws)
    return exps, signs


def default_scan_bound(p: GroupParams, w: str, k: int = 1) -> int:
    """Scan ceiling g * (l/|m|)^B * (l/|n|)^B with B the t-letter count of
    w^k; orbit and index values always sit below it."""
    b = k * (w.count("t") + w.count("T"))
    return p.g * p.l_over_m**b * p.l_over_n**b


def step_bruteforce(p: GroupParams, x: int, eps: int) -> int:
    """Intersection exponent of t^(-eps) <a^x> t^(eps) with <a> found by
    scanning multiples of x through word reduction (no transition formula).
    """
    modulus = abs(p.n) if eps > 0 else abs(p.m)
    signs = [-1, 1] if eps > 0 else [1, -1]
    for c in range(1, modulus + 1):
        exps, left = reduce_syllables(p, [0, x * c, 0], signs)
        if not left:
            return abs(exps[0])
    raise InvariantError(f"no multiple of {x} up to {modulus} conjugates into <a>")


def orbit_census(
    p: GroupParams, radius: int, budget: int = DEFAULT_BUDGET
) -> Counter[int]:
    """Multiset of <a>-orbit orders over all vertices of the radius ball.

    Every order must decompose as g' (l/|m|)^r (l/|n|)^s with g' dividing
    gcd(|m|, |n|); a violation raises, since it would falsify the orbit
    arithmetic this module cross-checks.
    """
    table = enumerate_ball(p, radius, budget=budget)
    census: Counter[int] = Counter()
    for cid in table.vertices:
        d = orbit_order_syllables(p, *ElementNormalForm(cid, 0).word_syllables())
        if orbit_order_factorization(p, d) is None:
            raise InvariantError(f"orbit order {d} outside the admissible shape")
        census[d] += 1
    return census


def export_dot(table: CosetTable) -> str:
    """DOT digraph of the ball: vertices labeled by compact coset words,
    t edges solid, t^-1 edges dashed."""
    p = table.params
    comment = f"BS({p.m},{p.n}) radius {table.radius}"
    return _dot("ball", comment, "v", enumerate(table.vertex_labels()), table.edges)
