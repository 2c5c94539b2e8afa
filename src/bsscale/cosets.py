"""Brute-force ground truth on the Bass-Serre tree of BS(m, n).

A radius-R ball of the tree is enumerated as canonical left cosets of <a>
(vertices), with the partial permutation action of the generators and
orbit/index scans that decide through word reduction alone, independently
of the intersection-graph calculus.  ``orbit_census`` builds no ball: it
counts the vertices by the lowest and highest points of their t-sign
walks, which fix their orbit orders through the level geometry of
``graph``.  It rests on that closed form, and the orbit scan checks it.

Both scans ask, for d = 1, 2, ..., whether Y^-1 a^d Y lies in <a>: the
orbit of <a> on w<a> with Y = w, and Moller's displacement index
[<a> : <a> intersect w^-k <a> w^k] with Y = w^-k.  The scan reduces Y
once.  A reduced word and its inverse are freely reduced and pinch-free,
so a pinch of Y^-1 a^d Y can only appear where the two halves meet
(Britton's lemma, Lyndon-Schupp ch. IV).  Each pinch there cancels a t
letter of Y with its own inverse, so the a runs on either side of that
pair are a run of Y and its negative, and they cancel too.  Whether d
answers therefore depends on the signs of the reduced Y alone.
"""

from __future__ import annotations

from collections import Counter

from .errors import BudgetError, DomainError, InvariantError
from .graph import _dot, _node_value
from .normal_forms import CosetId, ElementNormalForm, coset_of, coset_word
from .params import DEFAULT_BUDGET, GroupParams, Record
from .words import (
    Word,
    _read_syllables,
    format_syllables,
    invert_syllables,
    reduce_syllables,
)


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


def _check_ball_budget(p: GroupParams, radius: int, budget: int) -> None:
    """Raise BudgetError when the radius ball has more than ``budget``
    vertices.  The count stops once it passes the budget, so that a huge
    radius stops early."""
    deg = abs(p.m) + abs(p.n)
    if deg == 2:  # a line: every shell has 2 vertices, so count them at once
        total = 1 + 2 * radius
    else:
        total, shell = 1, deg
        for _ in range(radius):
            if total > budget:
                break
            total += shell
            shell *= deg - 1
    if total > budget:
        raise BudgetError(f"radius {radius} ball has more vertices than the budget {budget}")


def enumerate_ball(
    p: GroupParams, radius: int, budget: int = DEFAULT_BUDGET
) -> CosetTable:
    """BFS enumeration of all cosets within tree distance ``radius`` of <a>.

    Each vertex u<a> has the |n| neighbors u a^c t <a> (c mod |n|) and the
    |m| neighbors u a^c t^-1 <a> (c mod |m|); one of them is u's parent, the
    rest are children, so interior vertices have degree |m| + |n|.
    """
    _check_ball_budget(p, radius, budget)
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
    y = _read_syllables(w)
    if d_max is None:
        d_max = _scan_bound(p, len(y[1]))
    return _scan_into_a(p, y, d_max)


def index_bruteforce(p: GroupParams, w: str, k: int) -> int | None:
    """Minimal e >= 1 with w^k a^e w^-k a power of a: the generator exponent
    of <a> intersect w^-k <a> w^k, whose value is the index
    [<a> : <a> intersect w^-k <a> w^k].  None past the
    ``default_scan_bound`` of w^k.  Raises DomainError unless k >= 1.
    """
    y = _read_syllables(w)
    if k < 1:
        raise DomainError(f"power k must be at least 1, got {k}")
    wk = _power_syllables(*y, k)
    return _scan_into_a(p, invert_syllables(*wk), _scan_bound(p, len(wk[1])))


def _scan_into_a(p: GroupParams, y, d_max: int) -> int | None:
    """Minimal d in 1..d_max with Y^-1 a^d Y a power of a, Y given as
    syllables (exponents, signs), by word reduction; None past d_max.

    Y is reduced once, which leaves Y and Y^-1 freely reduced and
    pinch-free.  Reducing Y^-1 a^d Y left to right then keeps Y^-1 whole,
    and each pinch faces the last surviving t letter of Y^-1 with the next
    t letter of Y: once a t letter of Y survives, the rest of Y meets only
    its own pinch-free runs.  So all pinches sit at the junction, and by
    Britton's lemma Y^-1 a^d Y is a power of a exactly when they cancel
    every t letter.  The pinch on a sign s of Y is T a^x t (s = +1), which
    needs n | x and leaves a^(x/n*m), or t a^x T (s = -1), which needs
    m | x and leaves a^(x/m*n).  The a runs beside the two cancelled
    letters are a run of Y and its negative, so they add nothing, and the
    junction exponent starts at d.
    """
    _, signs = reduce_syllables(p, *y)
    pinches = [(p.m, p.n) if s < 0 else (p.n, p.m) for s in signs]
    for d in range(1, d_max + 1):
        a = d
        for mod, mul in pinches:
            if a % mod:
                break
            a = a // mod * mul
        else:
            return d
    return None


def _power_syllables(we, ws, k: int):
    exps = list(we)
    signs = list(ws)
    for _ in range(k - 1):
        exps[-1] += we[0]
        exps.extend(we[1:])
        signs.extend(ws)
    return exps, signs


def default_scan_bound(p: GroupParams, w: str) -> int:
    """Scan ceiling g * (l/|m|)^B * (l/|n|)^B with B the t-letter count of
    w; orbit and index values always sit below it.  Raises ParseError at
    the first letter outside ``a A t T``."""
    return _scan_bound(p, len(_read_syllables(w)[1]))


def _scan_bound(p: GroupParams, b: int) -> int:
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
    """Multiset of <a>-orbit orders over all vertices of the radius ball,
    counted without building the ball.

    The order at u<a> is the least d with u^-1 a^d u in <a>.  As in the
    scans, it depends only on the t-letter signs of the reduced u: with P
    their walk of prefix sums, it is the node ``graph._node_value`` gives
    at (-min P, max P), which is 1 at the base vertex.  The census
    counts the walks of length at most ``radius`` by their state (end,
    max, min, last sign), each with its vertex count: a coset word puts one
    of |n| residues before a t letter and one of |m| before a t^-1 letter,
    one fewer (no 0) after a letter of the opposite sign.  Raises
    BudgetError as ``enumerate_ball`` does.
    """
    _check_ball_budget(p, radius, budget)
    census = Counter({1: 1})
    level = Counter({(0, 0, 0, 0): 1})  # (end, max, min, last sign): vertex count
    for _ in range(radius):
        nxt = Counter()
        for (end, hi, lo, last), count in level.items():
            for s, residues in ((1, abs(p.n)), (-1, abs(p.m))):
                residues -= last == -s  # residue 0 backtracks
                if residues:
                    e = end + s
                    nxt[e, max(hi, e), min(lo, e), s] += count * residues
        for (_, hi, lo, _), count in nxt.items():
            census[_node_value(p, -lo, hi)] += count
        level = nxt
    return census


def export_dot(table: CosetTable) -> str:
    """DOT digraph of the ball: vertices labeled by compact coset words,
    t edges solid, t^-1 edges dashed."""
    p = table.params
    comment = f"BS({p.m},{p.n}) radius {table.radius}"
    return _dot("ball", comment, "v", enumerate(table.vertex_labels()), table.edges)
