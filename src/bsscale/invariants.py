"""Closed-form invariants of the tree completion of BS(m, n): scale,
modular function, flat rank, projection kernel, orbit orders of cosets
under <a>, the scale-value set, and p-adic local-structure reports.

With l = lcm(|m|, |n|) and rho the t-exponent sum of a word, the scale is
(l/|n|)^rho for rho >= 0 and (l/|m|)^|rho| otherwise, so every invariant
here is a closed form in (m, n, rho).  The asymptotic index sequence
(moller_sequence) recomputes the scale along conjugation powers through
the intersection graph and serves as an independent verification route.
Orbit orders and Möller indices are each a reader of the word's t signs
(``_coset_labels``, ``_normalized``) followed by ``graph._fold``, the one
fold of ``step``.
"""

from __future__ import annotations

from .errors import BudgetError
from .graph import _fold, _strip
from .params import GroupParams, Record
from .words import (
    _read_syllables,
    _reduced_syllables,
    conjugacy_normalize_syllables,
    t_exponent,
)

# ``fractions`` pulls in ``decimal``: it is imported only where a Fraction
# is built, and here for annotations alone.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from fractions import Fraction


class ScaleValue(Record):
    """base^exponent with the base picked by the sign of the t-exponent."""

    __slots__ = ("base", "exponent", "value")

    def __init__(self, base: int, exponent: int):
        self._set_fields(base, exponent, base**exponent)

    def as_dict(self) -> dict:
        return {"base": self.base, "exponent": self.exponent, "value": str(self.value)}


class ModularValue(Record):
    """|m/n|^rho in lowest terms; equals scale(w) / scale(w^-1)."""

    __slots__ = ("numerator", "denominator")

    @property
    def fraction(self) -> Fraction:
        from fractions import Fraction

        return Fraction(self.numerator, self.denominator)


class StructureReport(Record):
    """Tidy-subgroup prime content and degenerate-case summary for the
    completion (optionally specialized to one element)."""

    __slots__ = (
        "primes_vplus",
        "primes_vminus",
        "quotient_order_bound",
        "flat_rank",
        "kernel_exponent",
        "swap_applied",
        "discrete",
        "quasi_centre",
    )
    _defaults = {"quasi_centre": "ker Δ"}


def scale(p: GroupParams, w: str) -> ScaleValue:
    """Scale of the element represented by w: (l/|n|)^rho for rho >= 0,
    else (l/|m|)^|rho|.  In the divisor case n = m r this degenerates to
    1 for rho >= 0 and |r|^|rho| otherwise."""
    return _scale_at(p, t_exponent(w))


def _scale_at(p: GroupParams, rho: int) -> ScaleValue:
    """The scale of every element with t-exponent rho."""
    if rho >= 0:
        return ScaleValue(base=p.l_over_n, exponent=rho)
    return ScaleValue(base=p.l_over_m, exponent=-rho)


def modular(p: GroupParams, w: str) -> ModularValue:
    """Modular function value |m/n|^rho in lowest terms: with g the gcd,
    the bases |m|/g and |n|/g are coprime, so their powers are too."""
    rho = t_exponent(w)
    num, den = abs(p.m) // p.g, abs(p.n) // p.g
    if rho < 0:
        num, den, rho = den, num, -rho
    return ModularValue(num**rho, den**rho)


def flat_rank(p: GroupParams) -> int:
    """1 when |m| != |n| (the cyclic group over t is a maximal flat), else 0."""
    return 0 if p.discrete else 1


def pi_kernel(p: GroupParams) -> int:
    """Exponent k with <a^k> the kernel of the coset-permutation action:
    |m| when |m| = |n|, else 0 (trivial kernel)."""
    return abs(p.m) if p.discrete else 0


def moller_sequence(p: GroupParams, w: str, k_max: int) -> list[int]:
    """Indices r_k = [<a> : <a> intersect z^-k <a> z^k] for k = 1..k_max,
    where z is the conjugacy normalization of w (its powers stay pinch-free,
    so the intersection graph computes each index).  Every consecutive
    ratio r_(k+1) / r_k equals scale(w), from k = 1 on, certifying the
    asymptotic index formula lim r_k^(1/k) = s(w).

    When |m| = |n| the completion is discrete and every index is reported
    as 1.
    """
    return moller_stabilization(p, w, k_max)[0]


def moller_stabilization(p: GroupParams, w: str, k_max: int) -> tuple[list[int], bool]:
    """The index sequence plus whether every consecutive ratio
    r_(k+1) / r_k, from k = 1 on, equals scale(w)."""
    return _indices(p, *_normalized(p, w), k_max)


def _normalized(p: GroupParams, w: str) -> tuple[int, list[int]]:
    """(rho, the t signs of z): w's t-exponent, read before normalizing,
    and the t letters of its conjugacy normalization z, which is never
    written.  The word is read once; cutting its t pairs keeps its
    t-exponent.  A discrete group normalizes nothing: its z has no t."""
    exps, signs = _read_syllables(w, free=True)  # the ParseError for a bad letter comes here
    return sum(signs), [] if p.discrete else conjugacy_normalize_syllables(p, exps, signs)[1]


def _indices(p: GroupParams, rho: int, signs: list[int], k_max: int) -> tuple[list[int], bool]:
    """``moller_stabilization`` from ``_normalized``: r_k is the trace of
    z^k, folded on from r_(k-1), and each ratio is checked against the
    scale at rho.  No signs fold to 1s, the scale of a discrete group."""
    target = _scale_at(p, rho).value
    x, seq = 1, []
    for _ in range(k_max):
        x = _fold(p, signs, x, 1)
        seq.append(x)
    ok = all(b == a * target for a, b in zip(seq, seq[1:]))
    return seq, ok


def orbit_order(p: GroupParams, w: str) -> int:
    """Order of the <a>-orbit of the coset w<a>: the minimal d > 0 with
    a^d w <a> = w <a>.

    The stabilizer of w<a> in <a> is <a> intersect w <a> w^-1, so the order
    is the trace of the reversed, sign-flipped t letters of the reduced
    word, starting from 1.
    """
    return _fold(p, _coset_labels(p, w), 1, 1)


def _coset_labels(p: GroupParams, w: str) -> list[int]:
    """``orbit_order``'s reader: the t signs of the reduced w^-1, which are
    those of the reduced w reversed and sign-flipped."""
    return [-s for s in reversed(_reduced_syllables(p, w)[1])]


def orbit_order_factorization(
    p: GroupParams, d: int
) -> tuple[int, int, int] | None:
    """Decompose d as g' * (l/|m|)^r * (l/|n|)^s with g' dividing
    gcd(|m|, |n|); None when d < 1 or d has no such shape.

    The two bases are coprime, so g' is what is left of d once both are
    divided out as often as they go: r and s are as large as possible and
    g' is the smallest admissible factor.
    """
    if d < 1:
        return None
    gp, r = _strip(d, p.l_over_m)
    gp, s = _strip(gp, p.l_over_n)
    return (gp, r, s) if p.g % gp == 0 else None


def scale_value_set(p: GroupParams, rho_max: int) -> set[int]:
    """All scale values of elements with |t-exponent| <= rho_max."""
    return {
        b**k for b in (p.l_over_m, p.l_over_n) for k in range(rho_max + 1 if b > 1 else 1)
    }


# _prime_divisors tries no divisor past this bound.  A cofactor with no
# divisor up to it is prime when it is below (bound + 1)^2, and otherwise
# the factoring is refused.
_TRIAL_DIVISOR_BOUND = 10**6


def _prime_divisors(v: int) -> tuple[int, ...]:
    out = []
    d = 2
    while d * d <= v:
        if d > _TRIAL_DIVISOR_BOUND:
            raise BudgetError(
                f"factoring needs trial divisors past the bound {_TRIAL_DIVISOR_BOUND}"
            )
        if v % d == 0:
            out.append(d)
            v = _strip(v, d)[0]
        d += 1
    if v > 1:
        out.append(v)
    return tuple(out)


def structure_report(p: GroupParams, w: str | None = None) -> StructureReport:
    """Prime content of the tidy factorization V = V+ V- for the completion:
    V+ carries the primes of l/|n| and V- those of l/|m| (the two are
    coprime), with the roles swapped when the queried element has negative
    t-exponent.  The compact open subgroup built from <a> covers V with a
    cyclic quotient of order dividing gcd(|m|, |n|).
    """
    vplus = _prime_divisors(p.l_over_n)
    vminus = _prime_divisors(p.l_over_m)
    swap = w is not None and t_exponent(w) < 0
    if swap:
        vplus, vminus = vminus, vplus
    return StructureReport(
        primes_vplus=vplus,
        primes_vminus=vminus,
        quotient_order_bound=p.g,
        flat_rank=flat_rank(p),
        kernel_exponent=pi_kernel(p),
        swap_applied=swap,
        discrete=p.discrete,
    )
