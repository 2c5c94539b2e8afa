"""The conjugate-intersection graph of BS(m, n) as a lazy transition system.

Nodes are positive integers x standing for the cyclic subgroup <a^x>; the
directed edge labeled t^eps from x leads to the y with
t^(-eps) <a^x> t^(eps) intersect <a> = <a^y>.  A single total transition

    step(x, +1) = |m| x / gcd(x, |n|)      step(x, -1) = |n| x / gcd(x, |m|)

realizes every edge; intersecting with <a^h> instead of <a> replaces the
result by its lcm with h.  When neither parameter divides the other, put
g = gcd(|m|, |n|) and take the coprime bases alpha = l/|n| and
beta = l/|m|, both at least 2.  The nodes reachable from 1 are 1 and the
g alpha^a beta^b with (a, b) != (0, 0): such a node sits at level a + b,
b steps from the left, and the root 1 at level 0.  A t edge moves one node
left along its level, or from the left end up to the left end of the next
level; a t^-1 edge moves one node right, or from the right end up to the
right end of the next level.  Path endpoints are determined by the maximum
prefix t-exponent sum of the traced word.  Listings build each node from
its coordinates (a, b); classify_node strips them out of outside values.

``_fold`` is the one fold of ``step`` over t signs.  Each node answer is
a reader that takes the signs from a word once, then that fold: a trace
(``_trace_labels``), an orbit order (``invariants._coset_labels``) or a
Möller index (``invariants._normalized``).
"""

from __future__ import annotations

import math
from itertools import accumulate

from .errors import DomainError, InvariantError, NoPathError, NotANodeError
from .params import GroupParams, Record
from .words import _read_syllables, check_traceable

ROOT = "root"
LEFT_RAY = "left_ray"
RIGHT_RAY = "right_ray"
INTERIOR = "interior"
UNSTRUCTURED = "unstructured"


class OmegaNode(Record):
    """A node of the graph: its integer value plus, outside the divisor
    case, its position (shape kind, ray/interior coordinates, level, and
    distance from the left boundary of its level)."""

    __slots__ = ("value", "kind", "i", "j", "level", "dist_left")
    _defaults = {"i": None, "j": None, "level": None, "dist_left": None}


class TraceGeometry(Record):
    """Endpoint data of a rooted trace: the maximum prefix t-exponent sum
    of the word, the nonpositive defect mu = rho - t_max, and the node the
    path ends on (at level R + t_max, distance |mu| from the left)."""

    __slots__ = ("t_max", "mu", "end_node")


def step(p: GroupParams, x: int, eps: int) -> int:
    """Exponent of t^(-eps) <a^x> t^(eps) intersect <a>."""
    if x < 1:
        raise NotANodeError(f"node value must be positive, got {x}")
    if eps > 0:
        return abs(p.m) * x // math.gcd(x, abs(p.n))
    return abs(p.n) * x // math.gcd(x, abs(p.m))


def step_h(p: GroupParams, x: int, eps: int, h: int) -> int:
    """Exponent of t^(-eps) <a^x> t^(eps) intersect <a^h>."""
    if h < 1:
        raise NotANodeError(f"h must be positive, got {h}")
    return math.lcm(step(p, x, eps), h)


def _fold(p: GroupParams, labels: list[int], start: int, h: int) -> int:
    """The node reached from ``start`` along the t signs ``labels``,
    intersecting with <a^h> at every step; lcm(start, h) when there are no
    signs."""
    x = start
    for eps in labels:
        x = step(p, x, eps)
        if h > 1:  # the lcm with 1 changes nothing
            x = math.lcm(x, h)
    return x if labels else math.lcm(start, h)


def trace(p: GroupParams, w: str, start: int = 1, h: int = 1) -> int:
    """Follow the edges labeled by the t letters of w from the node
    ``start``, intersecting with <a^h> at every step.  For a freely reduced
    pinch-free w the result y satisfies
    w^-1 <a^start> w intersect <a^h> = <a^y>; with start = h = 1 this is the
    conjugate intersection w^-1 <a> w intersect <a>.

    Raises WordConditionError when w is not freely reduced or has a pinch,
    and NotANodeError when start or h is below 1.
    """
    return _fold(p, _trace_labels(p, w, start, h), start, h)


def _trace_labels(p: GroupParams, w: str, start: int, h: int) -> list[int]:
    """``trace``'s reader: the t signs of w, once w, h and start are checked,
    in that order."""
    labels = check_traceable(p, w)
    if h < 1:
        raise NotANodeError(f"h must be positive, got {h}")
    if start < 1:
        raise NotANodeError(f"node value must be positive, got {start}")
    return labels


def _walk(signs, k: int = 1) -> tuple[int, int, int]:
    """(k rho, min S, max S) for the walk S of prefix sums of the t signs of
    w^k, from 0 to k rho: each copy of w shifts the walk of w by rho, so
    its extremes move by (k - 1) rho on one side only.  For a freely reduced
    pinch-free w^k, trace(p, w^k) is ``_node_value(p, k rho - min S,
    max S - k rho)``, and the orbit order of u<a> is the trace of the
    reduced u^-1."""
    sums = list(accumulate(signs, initial=0))
    rho, shift = sums[-1], (k - 1) * sums[-1]
    return k * rho, min(sums) + min(shift, 0), max(sums) + max(shift, 0)


def _node_value(p: GroupParams, a: int, b: int) -> int:
    """The node g alpha^a beta^b at (a, b), and the root 1 at (0, 0)."""
    return p.g * p.l_over_n**a * p.l_over_m**b if a or b else 1


def _strip(v: int, base: int) -> tuple[int, int]:
    """(v // base^i, i) with i the largest exponent for which base^i divides
    v; (v, 0) when base is 1.  Requires v >= 1."""
    i = 0
    if base > 1:
        while v % base == 0:
            v //= base
            i += 1
    return v, i


def _node(x: int, a: int, b: int) -> OmegaNode:
    """The node x = g alpha^a beta^b at level a + b, b steps from the left:
    the root 1 when a = b = 0, else a left ray (i = a - 1) when b = 0, a
    right ray (i = b - 1) when a = 0, or interior (i, j = a - 1, b - 1)."""
    if a + b == 0:
        return OmegaNode(value=x, kind=ROOT, level=0, dist_left=0)
    if b == 0:
        kind, i, j = LEFT_RAY, a - 1, None
    elif a == 0:
        kind, i, j = RIGHT_RAY, b - 1, None
    else:
        kind, i, j = INTERIOR, a - 1, b - 1
    return OmegaNode(value=x, kind=kind, i=i, j=j, level=a + b, dist_left=b)


def classify_node(p: GroupParams, x: int) -> OmegaNode:
    """Locate x in the node set reachable from 1 by stripping g, alpha and
    beta from it to find its coordinates (a, b).  In the divisor case
    there are no coordinates: every positive x is reported with kind
    "unstructured" and no geometry.
    """
    if x < 1:
        raise NotANodeError(f"node value must be positive, got {x}")
    if p.divisor_case:
        return OmegaNode(value=x, kind=UNSTRUCTURED)
    if x == 1:
        return _node(1, 0, 0)
    if x % p.g == 0:
        v, a = _strip(x // p.g, p.l_over_n)
        v, b = _strip(v, p.l_over_m)
        if v == 1 and a + b > 0:
            return _node(x, a, b)
    raise NotANodeError(f"{x} is not a node of the intersection graph")


def edges_from(p: GroupParams, x: int) -> list[tuple[int, int]]:
    """The two out-edges of x: [(+1, step(x, +1)), (-1, step(x, -1))]."""
    classify_node(p, x)
    return [(1, step(p, x, 1)), (-1, step(p, x, -1))]


def shortest_path_len(p: GroupParams, x: int, y: int) -> int:
    """Length of the shortest directed path from x to y.

    Both edge labels are traversed forward.  Edges move along a level or up
    one level at its ends (see the module docstring), so from level L1,
    d1 steps from the left, to level L2 > L1, d2 steps from the left, a
    shortest path climbs at the left end or at the right end:
    (L2 - L1) + min(d1 + d2, (L1 - d1) + (L2 - d2)) edges.  Within one
    level it is |d1 - d2| edges, and no directed path leads to a lower
    level.  Structured geometry only (errors in the divisor case).
    """
    if p.divisor_case:
        raise DomainError(
            "shortest_path_len needs the structured graph; "
            "not defined when one parameter divides the other"
        )
    src, dst = classify_node(p, x), classify_node(p, y)
    (l1, d1), (l2, d2) = (src.level, src.dist_left), (dst.level, dst.dist_left)
    if l2 < l1:
        raise NoPathError(f"no directed path from {x} to {y}")
    if l2 == l1:
        return abs(d1 - d2)
    return (l2 - l1) + min(d1 + d2, (l1 - d1) + (l2 - d2))


def trace_geometry(p: GroupParams, w: str, R: int) -> TraceGeometry:
    """Trace the path labeled t^R followed by the t letters of w from the
    root and certify its endpoint position.

    Requires R strictly greater than the number of t^-1 letters of w, which
    keeps the path off the right boundary; then the endpoint sits at level
    R + t_max(w) at distance |mu(w)| from the left, where t_max is the
    maximum prefix t-exponent sum and mu = rho - t_max.
    """
    if p.divisor_case:
        raise DomainError(
            "trace_geometry needs the structured graph; "
            "not defined when one parameter divides the other"
        )
    labels = _read_syllables(w)[1]
    t_neg = sum(1 for e in labels if e < 0)
    if R <= t_neg:
        raise DomainError(
            f"R = {R} must exceed the t^-1 letter count {t_neg} of the word"
        )
    rho, _, t_max = _walk(labels)
    mu = rho - t_max
    end = classify_node(p, _fold(p, [1] * R + list(labels), 1, 1))
    if end.level != R + t_max or end.dist_left != -mu:
        raise InvariantError(
            f"trace endpoint {end} off the predicted position "
            f"(level {R + t_max}, dist {-mu})"
        )
    return TraceGeometry(t_max=t_max, mu=mu, end_node=end)


def level_nodes(p: GroupParams, level: int) -> list[OmegaNode]:
    """All nodes at a given level, ordered by distance from the left: the
    root at level 0, and g alpha^(level - b) beta^b for b = 0..level."""
    if p.divisor_case:
        raise DomainError("level layout undefined in the divisor case")
    if level < 0:
        raise DomainError(f"level {level} is negative; levels start at 0")
    return [_node(_node_value(p, level - b, b), level - b, b) for b in range(level + 1)]


def nodes_through(p: GroupParams, max_level: int) -> list[OmegaNode]:
    """All nodes of level <= max_level, ordered by (level, dist_left)."""
    return [nd for lv in range(max_level + 1) for nd in level_nodes(p, lv)]


def to_dot(p: GroupParams, max_level: int) -> str:
    """DOT rendering of the subgraph induced on nodes of level <= max_level,
    nodes ordered by (level, dist_left)."""
    nodes = nodes_through(p, max_level)
    return _omega_dot(p, nodes, _out_edges(p, nodes))


def _out_edges(p: GroupParams, nodes: list[OmegaNode]) -> list[tuple[int, int, int]]:
    """The two out-edges (x, step(x, eps), eps) of each node, eps = 1 first."""
    return [(nd.value, step(p, nd.value, eps), eps) for nd in nodes for eps in (1, -1)]


def _omega_dot(p: GroupParams, nodes: list[OmegaNode], out_edges) -> str:
    """``to_dot``'s text from the listed nodes and their ``_out_edges``;
    edges leaving the listed nodes are dropped."""
    values = {nd.value for nd in nodes}
    labels = [
        (nd.value, f"{nd.value} {nd.kind} L{nd.level} d{nd.dist_left}") for nd in nodes
    ]
    edges = [edge for edge in out_edges if edge[1] in values]
    return _dot("omega", f"BS({p.m},{p.n})", "n", labels, edges)


def _dot(name: str, comment: str, prefix: str, labels, edges) -> str:
    """DOT digraph text: a header naming the graph with a comment, one line
    per (id, label) node, then one per (source, target, eps) edge, t edges
    solid and t^-1 edges dashed; node ids carry ``prefix``."""
    lines = [f"digraph {name} {{  // {comment}"]
    lines += [f'  {prefix}{v} [label="{label}"];' for v, label in labels]
    for src, dst, eps in edges:
        label = '"t"' if eps > 0 else '"t^-1", style=dashed'
        lines.append(f"  {prefix}{src} -> {prefix}{dst} [label={label}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
