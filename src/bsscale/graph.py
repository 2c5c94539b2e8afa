"""The conjugate-intersection graph of BS(m, n) as a lazy transition system.

Nodes are positive integers x standing for the cyclic subgroup <a^x>; the
directed edge labeled t^eps from x leads to the y with
t^(-eps) <a^x> t^(eps) intersect <a> = <a^y>.  A single total transition

    step(x, +1) = |m| x / gcd(x, |n|)      step(x, -1) = |n| x / gcd(x, |m|)

realizes every edge; intersecting with <a^h> instead of <a> replaces the
result by its lcm with h.  When neither parameter divides the other, the
reachable node set from 1 carries a ray/ray/interior geometry organized by
levels, and path endpoints are determined by the maximum prefix t-exponent
sum of the traced word.  Nothing is materialized; traversal is lazy.
"""

from __future__ import annotations

import math
from collections import deque

from .errors import DomainError, InvariantError, NoPathError, NotANodeError
from .params import GroupParams, Record
from .words import check_traceable, word_syllables

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


def _fold(p: GroupParams, labels, start: int, h: int) -> int:
    x = start
    for eps in labels:
        x = math.lcm(step(p, x, eps), h)
    return x


def trace(p: GroupParams, w: str, start: int = 1, h: int = 1) -> int:
    """Follow the edges labeled by the t letters of w from the node
    ``start``, intersecting with <a^h> at every step.  For a freely reduced
    pinch-free w the result y satisfies
    w^-1 <a^start> w intersect <a^h> = <a^y>; with start = h = 1 this is the
    conjugate intersection w^-1 <a> w intersect <a>.

    Raises WordConditionError when w is not freely reduced or has a pinch,
    and NotANodeError when start or h is below 1.
    """
    labels = check_traceable(p, w)
    if h < 1:
        raise NotANodeError(f"h must be positive, got {h}")
    if start < 1:
        raise NotANodeError(f"node value must be positive, got {start}")
    return _fold(p, labels, start, h) if labels else math.lcm(start, h)


def _strip(v: int, base: int) -> tuple[int, int]:
    """(v // base^i, i) with i the largest exponent for which base^i divides
    v; (v, 0) when base is 1.  Requires v >= 1."""
    i = 0
    if base > 1:
        while v % base == 0:
            v //= base
            i += 1
    return v, i


def classify_node(p: GroupParams, x: int) -> OmegaNode:
    """Locate x in the node set reachable from 1.

    Values have exactly one of the forms 1, |m| (l/|n|)^i, |n| (l/|m|)^i, or
    l (l/|n|)^i (l/|m|)^j when neither parameter divides the other.  In the
    divisor case the forms collapse and every positive x is reported with
    kind "unstructured" and no geometry.
    """
    if x < 1:
        raise NotANodeError(f"node value must be positive, got {x}")
    if p.divisor_case:
        return OmegaNode(value=x, kind=UNSTRUCTURED)
    am, an, l = abs(p.m), abs(p.n), p.l
    alpha, beta = p.l_over_n, p.l_over_m
    if x == 1:
        return OmegaNode(value=1, kind=ROOT, level=0, dist_left=0)
    if x % am == 0:
        v, i = _strip(x // am, alpha)
        if v == 1:
            return OmegaNode(value=x, kind=LEFT_RAY, i=i, level=i + 1, dist_left=0)
    if x % an == 0:
        v, i = _strip(x // an, beta)
        if v == 1:
            return OmegaNode(
                value=x, kind=RIGHT_RAY, i=i, level=i + 1, dist_left=i + 1
            )
    if x % l == 0:
        v, i = _strip(x // l, alpha)
        v, j = _strip(v, beta)
        if v == 1:
            return OmegaNode(
                value=x, kind=INTERIOR, i=i, j=j, level=i + j + 2, dist_left=j + 1
            )
    raise NotANodeError(f"{x} is not a node of the intersection graph")


def edges_from(p: GroupParams, x: int) -> list[tuple[int, int]]:
    """The two out-edges of x: [(+1, step(x, +1)), (-1, step(x, -1))]."""
    classify_node(p, x)
    return [(1, step(p, x, 1)), (-1, step(p, x, -1))]


def shortest_path_len(p: GroupParams, x: int, y: int) -> int:
    """Length of the shortest directed path from x to y.

    Both edge labels are traversed forward.  Levels never decrease along a
    directed edge, so the search prunes anything deeper than y's level and
    always terminates; exhausting the frontier means no directed path
    exists.  Structured geometry only (errors in the divisor case).
    """
    if p.divisor_case:
        raise DomainError(
            "shortest_path_len needs the structured graph; "
            "not defined when one parameter divides the other"
        )
    classify_node(p, x)
    target = classify_node(p, y)
    if x == y:
        return 0
    max_level = target.level
    dist = {x: 0}
    queue = deque([x])
    while queue:
        cur = queue.popleft()
        for nxt in (step(p, cur, 1), step(p, cur, -1)):
            if nxt in dist:
                continue
            dist[nxt] = dist[cur] + 1  # seen; expanded only if not below y
            if nxt == y:
                return dist[nxt]
            if classify_node(p, nxt).level <= max_level:
                queue.append(nxt)
    raise NoPathError(f"no directed path from {x} to {y}")


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
    labels = word_syllables(w)[1]
    t_neg = sum(1 for e in labels if e < 0)
    if R <= t_neg:
        raise DomainError(
            f"R = {R} must exceed the t^-1 letter count {t_neg} of the word"
        )
    t_max = 0
    acc = 0
    for e in labels:
        acc += e
        t_max = max(t_max, acc)
    mu = acc - t_max
    end = classify_node(p, _fold(p, [1] * R + labels, 1, 1))
    if end.level != R + t_max or end.dist_left != -mu:
        raise InvariantError(
            f"trace endpoint {end} off the predicted position "
            f"(level {R + t_max}, dist {-mu})"
        )
    return TraceGeometry(t_max=t_max, mu=mu, end_node=end)


def level_nodes(p: GroupParams, level: int) -> list[OmegaNode]:
    """All nodes at a given level, ordered by distance from the left."""
    if p.divisor_case:
        raise DomainError("level layout undefined in the divisor case")
    if level < 0:
        raise DomainError(f"level {level} is negative; levels start at 0")
    if level == 0:
        return [classify_node(p, 1)]
    am, an, l = abs(p.m), abs(p.n), p.l
    alpha, beta = p.l_over_n, p.l_over_m
    out = [am * alpha ** (level - 1)]
    for j in range(level - 1):
        out.append(l * alpha ** (level - 2 - j) * beta**j)
    out.append(an * beta ** (level - 1))
    return [classify_node(p, v) for v in out]


def nodes_through(p: GroupParams, max_level: int) -> list[OmegaNode]:
    """All nodes of level <= max_level, ordered by (level, dist_left)."""
    return [nd for lv in range(max_level + 1) for nd in level_nodes(p, lv)]


def to_dot(p: GroupParams, max_level: int) -> str:
    """DOT rendering of the subgraph induced on nodes of level <= max_level,
    nodes ordered by (level, dist_left)."""
    nodes = nodes_through(p, max_level)
    values = {nd.value for nd in nodes}
    labels = [
        (nd.value, f"{nd.value} {nd.kind} L{nd.level} d{nd.dist_left}") for nd in nodes
    ]
    edges = [
        (nd.value, target, eps)
        for nd in nodes
        for eps, target in edges_from(p, nd.value)
        if target in values
    ]
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
