"""Canonical forms for BS(m, n) elements.

The canonical form writes an element as
a^(c1) t^(s1) a^(c2) t^(s2) ... a^(cs) t^(ss) a^(tail)
with each residue c taken in a fixed transversal (0 <= c < |n| before a t
letter, 0 <= c < |m| before a t^-1 letter) and no backtracking (no zero
residue between opposite signs).  Overflow past the transversal is pushed
to the right through the defining relation, accumulating in the tail.
Dropping the tail indexes the left cosets of <a>, i.e. the vertices of the
Bass-Serre tree.

For |m| = 1 one left-to-right walk writes every element as
t^(-p) a^q t^r; with its inner pinches stripped that is the element's
unique form, and the group's faithful image in 2x2 upper triangular
rational matrices is the image of the walk's form.  Both give an equality
check independent of the reduction above.
"""

from __future__ import annotations

from .errors import DomainError, InvariantError
from .params import GroupParams, Record
from .words import (
    Word,
    _read_free_syllables,
    _reduced_syllables,
    syllables_to_word,
)

# ``fractions`` pulls in ``decimal``: it is imported only where a Fraction
# is built, and here for annotations alone.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from fractions import Fraction

CosetId = tuple[tuple[int, int], ...]


class ElementNormalForm(Record):
    """Syllables (residue, sign) followed by a trailing a power."""

    __slots__ = ("syllables", "tail")

    def word_syllables(self) -> tuple[list[int], list[int]]:
        """The syllable form (exps, signs) of ``to_word()``."""
        return [c for c, _ in self.syllables] + [self.tail], [s for _, s in self.syllables]

    def to_word(self) -> Word:
        return syllables_to_word(*self.word_syllables())


def element_normal_form(p: GroupParams, w: str) -> ElementNormalForm:
    """Unique canonical form of w; two words get the same form exactly when
    they are equal in BS(m, n)."""
    exps, signs = _reduced_syllables(p, w)
    # a^(qn + r) t = a^r t a^(qm) and a^(qm + r) T = a^r T a^(qn); pushing
    # the carry right cannot create a backtrack because the reduced word has
    # no pinches and carries are multiples of the divisibility modulus.
    m, n = p.m, p.n
    syll: list[tuple[int, int]] = []
    acc = exps[0]
    for k, s in enumerate(signs):
        if s == 1:
            res = acc % abs(n)
            carry = ((acc - res) // n) * m
        else:
            res = acc % abs(m)
            carry = ((acc - res) // m) * n
        if syll and syll[-1][1] == -s and res == 0:
            raise InvariantError("carry produced a backtracking syllable")
        syll.append((res, s))
        acc = carry + exps[k + 1]
    return ElementNormalForm(tuple(syll), acc)


def coset_of(p: GroupParams, w: str) -> CosetId:
    """Canonical index of the left coset w<a> (normal form with the tail
    dropped); the empty tuple is the base coset <a>."""
    return element_normal_form(p, w).syllables


def coset_word(cid: CosetId) -> Word:
    """The canonical representative word of a coset."""
    return ElementNormalForm(cid, 0).to_word()


# ---------------------------------------------------------------------------
# |m| = 1: the soluble case, with a faithful matrix representation.


def _bs1n_walk(p: GroupParams, w: str) -> tuple[int, int, int]:
    """The state (neg, q, pos) with w = t^(-neg) a^q t^(pos), before any
    inner pinch is stripped.  Requires |m| = 1.

    Syllables are absorbed left to right using t a^x = a^(x m n) t and
    a^x T = T a^(x m n): a T letter first cancels a pending t, and only
    past them grows neg, scaling q by mn.  Both oracles read an image or
    the unique form of the element, which no free pair changes, so a plain
    string is read with its free t pairs cut out (``_read_free_syllables``),
    and an empty a run costs no power: for ``T^N a t^N`` the loop takes
    one power, not N.  No reduction of the word is used, so both stay
    independent checks of it.
    """
    if abs(p.m) != 1:
        raise DomainError(f"operation requires |m| = 1, got m = {p.m}")
    mn = p.m * p.n
    exps, signs = _read_free_syllables(w)
    neg, q, pos = 0, exps[0], 0
    for s, e in zip(signs, exps[1:]):
        if s > 0:
            pos += 1
        elif pos > 0:
            pos -= 1
        else:
            neg += 1
            q *= mn
        if e:
            q += e * mn**pos
    return neg, q, pos


def bs1n_normal_form(p: GroupParams, w: str) -> tuple[int, int, int]:
    """Write w as t^(-neg) a^q t^(pos) with neg, pos >= 0 and n dividing q
    only if neg = 0 or pos = 0.  Requires |m| = 1.

    The walk's state, with its inner pinches T a^(cn) t = a^(cm) stripped,
    is the element's unique form.
    """
    neg, q, pos = _bs1n_walk(p, w)
    while neg > 0 and pos > 0 and q % p.n == 0:
        q = (q // p.n) * p.m
        neg -= 1
        pos -= 1
    return neg, q, pos


class BS1nMatrix(Record):
    """Upper triangular matrix [[top_left, top_right], [0, 1]] with exact
    rational entries; top_left is a signed power of n and equals the
    determinant, top_right lies in Z[1/n]."""

    __slots__ = ("top_left", "top_right")

    @property
    def entries(self) -> tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]:
        from fractions import Fraction

        return (
            (self.top_left, self.top_right),
            (Fraction(0), Fraction(1)),
        )

    @property
    def det(self) -> Fraction:
        return self.top_left

    def __mul__(self, other: "BS1nMatrix") -> "BS1nMatrix":
        return BS1nMatrix(
            self.top_left * other.top_left,
            self.top_left * other.top_right + self.top_right,
        )


def bs1n_matrix(p: GroupParams, w: str) -> BS1nMatrix:
    """Image of w under a -> [[1,1],[0,1]], t -> [[mn,0],[0,1]]; a faithful
    homomorphism for |m| = 1.  (For m = 1 the t image is [[n,0],[0,1]]; the
    extra sign makes the relation hold for m = -1 as well.)

    It is the image of the walk's t^(-neg) a^q t^(pos)."""
    from fractions import Fraction

    neg, q, pos = _bs1n_walk(p, w)
    mn = p.m * p.n
    return BS1nMatrix(Fraction(mn) ** (pos - neg), Fraction(q, mn**neg))
