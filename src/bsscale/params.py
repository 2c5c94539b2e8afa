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
    """Unpickle or copy a Record from its field values, in slot order."""
    obj = cls.__new__(cls)
    cls._set_fields(obj, *values)
    return obj


def _make_setter(cls, name: str):
    """Write the method ``name(self, <fields in slot order>)`` that sets
    every field of ``cls``, with the defaults in ``_defaults``, as
    ``dataclasses`` and ``namedtuple`` do: build its source once per class
    and exec it.  Each field is set through its slot descriptor, past the
    frozen ``__setattr__``."""
    params = ", ".join(
        f"{field}=_defaults[{field!r}]" if field in cls._defaults else field
        for field in cls.__slots__
    )
    body = "".join(f"\n    _set_{field}(self, {field})" for field in cls.__slots__)
    namespace = {f"_set_{field}": getattr(cls, field).__set__ for field in cls.__slots__}
    namespace["_defaults"] = cls._defaults
    exec(f"def {name}(self, {params}):{body}", namespace)
    setter = namespace[name]
    setter.__qualname__ = f"{cls.__qualname__}.{name}"
    setter.__module__ = cls.__module__
    return setter


class Record:
    """Base of the package's value classes.

    A subclass lists its fields in ``__slots__`` and the defaults of its
    trailing fields in ``_defaults``.  Unless it defines its own
    ``__init__``, Record writes one that takes the fields in slot order.  A
    class that computes derived fields in its own ``__init__`` sets them
    with ``_set_fields``, which Record writes the same way.
    Records are frozen, compare equal only to a record of the same class
    with equal fields, hash and print their fields in slot order (leaving
    out those named in ``_hidden``), and copy and pickle by field value.
    ``as_dict`` gives the fields by name, tuples as lists, for JSON.  Plain
    classes keep what a CLI process imports small.
    """

    __slots__ = ()
    _hidden: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # not a method: self._get_fields(obj) gives obj's fields in slot order
        cls._get_fields = operator.attrgetter(*cls.__slots__)
        if "__init__" in cls.__dict__:
            cls._set_fields = _make_setter(cls, "_set_fields")
        else:
            cls.__init__ = cls._set_fields = _make_setter(cls, "__init__")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._get_fields(self) == self._get_fields(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._get_fields(self))

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
        return _rebuild, (self.__class__, self._get_fields(self))

    def as_dict(self) -> dict:
        return {
            name: list(value) if isinstance(value, tuple) else value
            for name, value in zip(self.__slots__, self._get_fields(self))
        }


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
        r = n // m if an % am == 0 else m // n if am % an == 0 else None
        self._set_fields(m, n, math.lcm(am, an), math.gcd(am, an), r is not None, r)

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
