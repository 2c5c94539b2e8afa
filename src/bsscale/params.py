"""Group parameters for BS(m, n) = <a, t | t a^m t^-1 = a^n>.

Everything downstream is parameterized by the nonzero pair (m, n) and the
derived quantities lcm and gcd of their absolute values.  The two ratios
l/|n| and l/|m| are coprime and drive all scale and orbit arithmetic.
"""

from __future__ import annotations

import math
import operator

from .errors import DomainError

# Vertex budget for tree balls (cosets.enumerate_ball, cosets.orbit_census,
# the CLI's --budget).  Kept here so the CLI parser reads it without
# importing cosets.
DEFAULT_BUDGET = 200_000


def _rebuild(cls, values: tuple):
    """Unpickle or copy a Record: set its fields without ``__init__``."""
    obj = cls.__new__(cls)
    for name, value in zip(cls.__slots__, values):
        object.__setattr__(obj, name, value)
    return obj


class Record:
    """Base of the package's value classes.

    A subclass lists its fields in ``__slots__`` and sets them in its own
    ``__init__`` with ``object.__setattr__``.  Records are frozen, compare
    equal only to a record of the same class with equal fields, hash and
    print their fields in slot order (leaving out those named in
    ``_hidden``), and copy and pickle by field value.  Plain classes keep
    what a CLI process imports small.
    """

    __slots__ = ()
    _hidden: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._values = property(operator.attrgetter(*cls.__slots__))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self):
        return hash(self._values)

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__slots__ if name not in self._hidden
        )
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return _rebuild, (self.__class__, self._values)


class GroupParams(Record):
    """The pair (m, n) with derived invariants.

    l             lcm(|m|, |n|)
    g             gcd(|m|, |n|)
    divisor_case  true iff one parameter divides the other
    r             quotient n/m or m/n in the divisor case (None otherwise);
                  equals +-1 exactly when |m| = |n|
    """

    __slots__ = ("m", "n", "l", "g", "divisor_case", "r")

    def __init__(self, m: int, n: int):
        if m == 0 or n == 0:
            raise DomainError("group parameters m, n must be nonzero")
        am, an = abs(m), abs(n)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "l", math.lcm(am, an))
        object.__setattr__(self, "g", math.gcd(am, an))
        object.__setattr__(self, "divisor_case", an % am == 0 or am % an == 0)
        if an % am == 0:
            object.__setattr__(self, "r", n // m)
        elif am % an == 0:
            object.__setattr__(self, "r", m // n)
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
