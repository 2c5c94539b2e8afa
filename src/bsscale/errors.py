"""Exception types shared across the package.

The CLI maps these onto exit codes: ParseError to 2, and BudgetError and
DomainError (with its subclasses) to 3.  InvariantError is mapped to no
exit code: it signals a bug, not bad input, so it ends in a traceback.
"""


class ParseError(ValueError):
    """Malformed word text. ``offset`` is the character position (the str
    index) of the bad token."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class DomainError(ValueError):
    """Operation invoked outside its domain (m = 0, |m| != 1 for the
    matrix representation, structured graph queries in the divisor case)."""


class WordConditionError(DomainError):
    """A word failed a required reduction state (not freely reduced, or
    contains a pinch) for an operation that demands it."""


class NotANodeError(DomainError):
    """Integer is not a node label of the intersection graph."""


class NoPathError(DomainError):
    """No directed path between two intersection-graph nodes: the target
    lies on a lower level, and edges never lead down."""


class BudgetError(RuntimeError):
    """A size budget (tree-ball vertex count, intersection-graph node count,
    trial-division bound, ``orbit-brute`` scan candidates, ``moller --kmax``
    index count) would be exceeded."""


class InvariantError(AssertionError):
    """An internal cross-check that is expected to hold unconditionally
    failed; indicates a bug, not bad input."""
