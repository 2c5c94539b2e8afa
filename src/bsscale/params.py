"""Group parameters for BS(m, n) = <a, t | t a^m t^-1 = a^n>.

Everything downstream is parameterized by the nonzero pair (m, n) and the
derived quantities lcm and gcd of their absolute values.  The two ratios
l/|n| and l/|m| are coprime and drive all scale and orbit arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import DomainError

# Vertex budget for tree balls (cosets.enumerate_ball, cosets.orbit_census,
# the CLI's --budget).  Kept here so the CLI parser reads it without
# importing cosets.
DEFAULT_BUDGET = 200_000


@dataclass(frozen=True)
class GroupParams:
    """The pair (m, n) with derived invariants.

    l             lcm(|m|, |n|)
    g             gcd(|m|, |n|)
    divisor_case  true iff one parameter divides the other
    r             quotient n/m or m/n in the divisor case (None otherwise);
                  equals +-1 exactly when |m| = |n|
    """

    m: int
    n: int
    l: int = field(init=False)
    g: int = field(init=False)
    divisor_case: bool = field(init=False)
    r: int | None = field(init=False)

    def __post_init__(self):
        if self.m == 0 or self.n == 0:
            raise DomainError("group parameters m, n must be nonzero")
        am, an = abs(self.m), abs(self.n)
        object.__setattr__(self, "l", math.lcm(am, an))
        object.__setattr__(self, "g", math.gcd(am, an))
        object.__setattr__(self, "divisor_case", an % am == 0 or am % an == 0)
        if an % am == 0:
            object.__setattr__(self, "r", self.n // self.m)
        elif am % an == 0:
            object.__setattr__(self, "r", self.m // self.n)
        else:
            object.__setattr__(self, "r", None)

    @property
    def l_over_n(self) -> int:
        """Scale base for nonnegative t-exponent; left-ray step of the graph."""
        return self.l // abs(self.n)

    @property
    def l_over_m(self) -> int:
        """Scale base for negative t-exponent; right-ray step of the graph."""
        return self.l // abs(self.m)

    @property
    def discrete(self) -> bool:
        """|m| = |n|: the completion collapses to a discrete group."""
        return abs(self.m) == abs(self.n)
