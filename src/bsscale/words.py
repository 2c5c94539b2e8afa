"""Word algebra for BS(m, n): parsing, free and pinch reduction, the word
problem, t-exponent sum, and conjugacy normalization.

A word is a string over the four letters ``a A t T`` where the capital
letter is the inverse of the lowercase one.  A pinch is a subword
``t a^(cm) T`` or ``T a^(cn) t`` (c an integer, possibly 0 or negative);
replacing it by ``a^(cn)`` or ``a^(cm)`` respectively does not change the
group element.  A freely reduced word with no pinches represents the
identity only if it is empty, which decides the word problem.

Every reduction works on the run-length "syllable" form
a^(e0) t^(s1) a^(e1) ... t^(sk) a^(ek), a pair (exponents, signs).  Public
functions take any letter string and return a ``Word``: a ``str`` of the
same letters that also stores its syllables, so it compares, hashes,
slices and serializes as the plain string.  ``word_syllables`` reads a
``Word``'s stored form and decodes any other string, once, with bytes
methods on its ASCII encoding: one delete of every letter that checks
them, one split at the t letters, one translate to the t signs, and each
a run's exponent from a table of short runs (no Python step per letter or
per t letter, and one for an a run only when it is long and new).  A
word built by this module is therefore never decoded again; the price
is one extra copy of its letters, made when the ``Word`` is built.
``_read_syllables`` is the one reader of a word: it gives a ``Word``'s
stored tuples in place, for callers that only read them, or decodes any
other string; ``word_syllables`` gives fresh lists that the caller owns.

Token text is read and written at about one Python step per token.
``_build`` is the one loop that turns tokens into letters and syllables.
The token grammar is one pattern, ``_TOKEN``: a letter with its optional
``^``, sign and ASCII digits, or else one bad character.  ``parse_word``
gives ``_build`` the tokens of ``str.split`` for ASCII text without
``_``, where ``int`` reads exactly the grammar's exponents, and glued
text the same text with a space put before every letter; every other
text, and every text those splits cannot read, is tokenized by
``_TOKEN``.  Every spelling of one t letter, and of an a power with |e|
up to 16, is one lookup in a table built at import (``_TOKENS``); any
other exponent is left to ``int``.  Only a text that fails is scanned
again, by ``_raise_first_error``, with the same pattern: it builds nothing
and gives the first error its offset.
``format_syllables`` writes the a tokens in one comprehension and each t
run inline.  The letters of a parsed ``Word`` are still written out, by
string repetition at C speed.

Free reduction starts in the decoder for the callers that begin with it
(``free_reduce``, conjugacy normalization and so ``moller``) and for the
BS(1, n) oracles in ``normal_forms``, whose answers no free pair changes:
their plain strings lose every ``tT`` and ``Tt`` at C speed before the
split (``_read_syllables(w, free=True)``), and the syllable loop finishes
the job.
Britton reduction is not confluent, and cutting the pairs first changes
its result on some words, so it decodes every letter.

``britton_reduce`` records its answer's syllables, keyed by (m, n), on
the word it reduces and on the answer (see ``Word``), so the normal form,
orbit order, trace check and equality test that follow it in one group do
not repeat its pass.  ``_record`` is its one reader, and only the closed
forms call it: the brute-force scans in ``cosets``, the BS(1, n) oracles
and conjugacy normalization reduce the syllables themselves, so a wrong
record cannot sit on both sides of a check (``tests/test_independence.py``
traces them).

Conjugacy normalization applies its moves in one left-to-right pass that
keeps their greedy order, since z depends on that order; each syllable is
read once, so its cost is linear in the syllables.
"""

from __future__ import annotations

import re
from operator import neg

from .errors import DomainError, InvariantError, ParseError, WordConditionError
from .params import GroupParams

_LETTERS = "aAtT"
_DIGITS = "0123456789"  # exponents take ASCII digits only
_INVERT = str.maketrans("aAtT", "AaTt")
# the largest |e| of an a^e token read from _TOKENS: each doubling past 16
# adds about 50 us to import for little gain on long token text
_SHORT_POWER = 16


def _token_table() -> dict[str, tuple[str, int, int]]:
    """Every spelling of one t letter, of t^0, and of a^e and A^-e with
    |e| <= ``_SHORT_POWER`` (no leading zeros), mapped to (its letters,
    its a exponent, its t sign): 118 tokens."""
    table = {"a": ("a", 1, 0), "A": ("A", -1, 0)}
    for k in range(_SHORT_POWER + 1):
        for spelled, e in ((str(k), k), (f"+{k}", k), (f"-{k}", -k)):
            for letter, x in (("a", e), ("A", -e)):
                table[f"{letter}^{spelled}"] = ("a" * x if x >= 0 else "A" * -x, x, 0)
    for tok in ("t", "t^1", "t^+1", "T^-1"):
        table[tok] = ("t", 0, 1)
    for tok in ("T", "T^1", "T^+1", "t^-1"):
        table[tok] = ("T", 0, -1)
    for tok in ("t^0", "t^+0", "t^-0", "T^0", "T^+0", "T^-0"):
        table[tok] = ("", 0, 0)
    return table


_TOKENS = _token_table()
_SHORT_A = ("", "a", "A")  # the a token of an exponent in {0, 1, -1}, by index
# one token of word text: a letter, its optional ^, sign and digits, or
# else one bad character; compiled (and cached by ``re``) only for the
# first text that the split paths do not read
_TOKEN = rf"[{_LETTERS}](?:\^[+-]?[{_DIGITS}]*)?|\S"


class Word(str):
    """A letter string built by this package, carrying its syllable form
    (exponents and signs, as tuples; see ``word_syllables``).

    Equality, hashing, slicing, JSON and ``str`` methods see only the
    letters, and results of str methods are plain strings.  Only this
    module builds one, from syllables that match the letters.

    A Word may also hold the record ``(m, n, exps, signs)`` of its Britton
    reduction in BS(m, n): exactly what ``reduce_syllables`` returns for it
    in that group, as tuples.  Only ``britton_reduce`` writes it, on its
    argument and on its answer, whose record holds the answer's own tuples.
    In that group, and no other, ``element_normal_form``, ``orbit_order``
    and ``as_power_of_a`` read the recorded syllables instead of reducing
    again, ``equal_elements`` reads them for both words and answers at once
    when the two are equal, and ``check_traceable`` passes a word whose
    record is its own syllables.
    The record is a pure function of the word and (m, n), and each
    ``britton_reduce`` call writes it once, whole, in one slot store, so a
    concurrent reader sees no record or a whole one.  A copy or pickle
    drops it.
    """

    __slots__ = ("_exps", "_signs", "_reduced")

    def __new__(cls, letters: str, exps, signs):
        self = str.__new__(cls, letters)  # not super(): one lookup less per word built
        self._exps = tuple(exps)
        self._signs = tuple(signs)
        self._reduced = None
        return self

    def __reduce__(self):  # copy and pickle rebuild the syllables, not the record
        return Word, (str(self), self._exps, self._signs)


def invert_word(w: str) -> str:
    """Group inverse: reverse the word and invert each letter."""
    return w.translate(_INVERT)[::-1]


def t_exponent(w: str) -> int:
    """Number of t letters minus number of t^-1 letters.

    Invariant under every relation of BS(m, n), so it is a well defined
    homomorphism to the integers on group elements.  Raises ParseError at
    the first letter outside ``a A t T``.
    """
    return sum(_read_syllables(w)[1])


def parse_word(text: str) -> Word:
    """Parse word text into a flat letter string, built with its syllables.

    Grammar: tokens separated by optional whitespace, each token a letter
    from ``a A t T`` optionally followed by ``^`` and a signed integer.
    ``a^-3`` expands to ``AAA``; an exponent on a capital letter composes
    inverses (``A^2`` is ``a^-2``); exponent 0 contributes nothing.
    Raises ParseError with the character offset of the offending token,
    also for an exponent too large to expand into letters.

    ASCII text without ``_`` is read by two splits: ``_build`` reads the
    tokens of ``str.split``, and glued tokens (``aTtA``, ``a^2t T``) split
    once a space is put before every letter; a text of one token is spaced
    at once.  On such text ``int`` accepts exactly ``[+-]?[0-9]+``, so
    every token ``_build`` reads is a grammar token.  Every other text, and
    every text the splits cannot read, goes to ``_build`` as the matches
    of ``_TOKEN``, so an exponent too large to expand fails at its own
    token, before any later bad character; a text that fails there is
    scanned by ``_raise_first_error``, which gives the first error its
    offset.
    """
    try:
        if text.isascii() and "_" not in text:
            tokens = text.split()
            if len(tokens) > 1:
                try:
                    return _build(tokens)
                except ValueError:  # glued tokens
                    pass
            spaced = text.replace("a", " a").replace("A", " A").replace("t", " t").replace("T", " T")
            try:
                return _build(spaced.split())
            except ValueError:
                pass
        return _build(re.findall(_TOKEN, text))
    except ValueError:
        _raise_first_error(text)
    except OverflowError as exc:
        _raise_first_error(text, *exc.args)


def _build(tokens: list[str]) -> Word:
    """The Word of tokens, each a letter from ``a A t T`` optionally
    followed by ``^`` and an integer, at about one Python step per token:
    a token in ``_TOKENS`` (one t letter or a short a power) is one dict
    lookup, and any other ``x^k`` token is one slice and one ``int``.
    Raises ValueError at any other token, and OverflowError(k, e) when
    token k's exponent e is too large to expand into letters.

    A token of ``parse_word`` holds no whitespace: it is a ``str.split``
    token of ASCII text without ``_``, which ``int`` accepts exactly when
    it is ``[+-]?[0-9]+`` (and within the int/str digit limit), or a match
    of ``_TOKEN``, whose exponent holds ASCII digits only.
    """
    pieces: list[str] = []
    exps: list[int] = []  # the a runs closed by a t letter
    signs: list[int] = []
    acc = 0  # exponent of the open a run
    for tok in tokens:  # one piece per token: len(pieces) is the index of tok
        short = _TOKENS.get(tok)
        if short is not None:  # one t letter or a short a power: most tokens
            piece, exp, sign = short
            pieces.append(piece)
            if sign:
                exps.append(acc)
                acc = 0
                signs.append(sign)
            else:
                acc += exp
            continue
        ch = tok[0]
        if ch not in _LETTERS:
            raise ValueError(tok)
        if len(tok) == 1:
            exp = 1
        elif tok[1] == "^":
            exp = int(tok[2:])
        else:
            raise ValueError(tok)
        if ch in "AT":
            exp = -exp
        try:
            if ch in "aA":
                pieces.append("a" * exp if exp >= 0 else "A" * -exp)
                acc += exp
            elif exp:  # |exp| t letters with empty a runs between them
                exps.append(acc)
                acc = 0
                signs += [1 if exp > 0 else -1] * abs(exp)
                exps += [0] * (abs(exp) - 1)
                pieces.append("t" * exp if exp > 0 else "T" * -exp)
            else:
                pieces.append("")
        except (OverflowError, MemoryError):
            raise OverflowError(len(pieces), exp) from None
    exps.append(acc)
    letters = "".join(pieces)
    del pieces  # at most one more copy of the letters while the Word is built
    return Word(letters, exps, signs)


def _raise_first_error(text: str, too_large: int = -1, exp: int = 0):
    """Raise the ParseError of the first bad token of text, which
    ``_build`` could not read, from a scan of its ``_TOKEN`` matches that
    builds nothing.  Token number ``too_large`` (from 0), if any, has the
    exponent exp, which ``_build`` could not expand into letters."""
    for k, match in enumerate(re.finditer(_TOKEN, text)):
        tok, at = match[0], match.start()
        if tok[0] not in _LETTERS:  # a bad character, a lone ^ among them
            raise ParseError(f"unexpected character {tok!r}", at)
        digits = tok[2:].lstrip("+-")
        if len(tok) > 1 and not digits:  # a ^ with no digits
            raise ParseError("expected integer after '^'", at + 2)
        try:
            int(digits or 0)  # a letter without ^ has no digits
        except ValueError:  # past Python's int/str digit limit
            raise ParseError(f"exponent of {len(digits)} digits too large to expand", at) from None
        if k == too_large:
            raise ParseError(f"exponent {exp} too large to expand", at)
    raise InvariantError(f"{text!r} has no bad token")


def format_word(w: str) -> str:
    """Compact serialization: maximal runs folded into exponents >= 2,
    tokens space separated.  Inverse runs print as negative exponents
    (``TT`` becomes ``t^-2``).  The empty word prints as the empty string.
    """
    exps, signs = _read_syllables(w)
    # some a run mixes a and A letters, which cancel in its exponent:
    # one token per maximal letter run
    if sum(map(abs, exps)) + len(signs) < len(w):
        return " ".join(
            run if len(run) == 1
            else f"{run[0].lower()}^{len(run) if run[0] in 'at' else -len(run)}"
            for run in _LETTER_RUNS.findall(w)
        )
    return format_syllables(exps, signs)


def format_syllables(exps: list[int], signs: list[int]) -> str:
    """``format_word`` of the word with syllables (exps, signs), each a run
    written in one letter, read off the syllables without building letters:
    every a token comes from one comprehension, and each maximal t run
    (signs of one sign with empty a runs between them) is written inline.
    """
    a_tokens = [_SHORT_A[e] if -1 <= e <= 1 else f"a^{e}" for e in exps]
    tokens = [a_tokens[0]]
    k, last = 0, len(signs)
    while k < last:
        s = signs[k]
        end = k + 1
        while end < last and signs[end] == s and not exps[end]:
            end += 1
        tokens.append(f"t^{s * (end - k)}" if end - k > 1 else "t" if s > 0 else "T")
        tokens.append(a_tokens[end])
        k = end
    return " ".join(filter(None, tokens))


_LETTER_RUNS = re.compile("a+|A+|t+|T+")


def free_reduce(w: str) -> Word:
    """Remove adjacent inverse pairs until none remain (free group
    reduction over {a, t}).  Idempotent."""
    return syllables_to_word(*free_reduce_syllables(*_read_syllables(w, free=True)))


def is_freely_reduced(w: str) -> bool:
    """True iff no letter of w stands next to its inverse, read off w's
    syllables (see ``_freely_reduced``), so the cost grows with the
    syllables, not the letters.  Raises ParseError at the first letter
    outside ``a A t T``."""
    return _freely_reduced(w, *_read_syllables(w))


def _freely_reduced(w: str, exps, signs) -> bool:
    """``is_freely_reduced`` of w with syllables exps and signs: no a run
    mixes a and A letters (they cancel in its exponent, leaving more
    letters than sum |e| + #t) and no t^s a^0 t^-s occurs."""
    return sum(map(abs, exps)) + len(signs) == len(w) and all(
        e or s == u for s, e, u in zip(signs, exps[1:], signs[1:]))


# ---------------------------------------------------------------------------
# Syllable form.

_SIGN_BYTES = bytes.maketrans(b"tT", b"\x01\xff")  # the signed bytes 1, -1


def word_syllables(w: str) -> tuple[list[int], list[int]]:
    """Run-length form: lists (exps, signs) with len(exps) = len(signs) + 1,
    meaning a^exps[0] t^signs[0] a^exps[1] ... t^signs[-1] a^exps[-1].
    Adjacent a/A letters merge, so the form is free-reduced in the a runs.
    The lists are fresh: the caller owns them.

    A ``Word`` gives its stored syllables.  Any other string is decoded by
    ``_decode_letters``.  Raises ParseError at the first letter outside
    ``a A t T``.
    """
    if isinstance(w, Word):
        return list(w._exps), list(w._signs)
    return _decode_letters(w)


def _read_syllables(w: str, free: bool = False):
    """``word_syllables`` for a caller that only reads them, and the one
    reader of a word: a ``Word``'s stored tuples, not copied, or the
    decoding of any other string.

    ``free`` is for a caller that begins with a complete free reduction,
    or whose answer no free pair changes: a plain string is then decoded
    with every ``tT`` and ``Tt`` cut out once after its letters are
    checked.  Free reduction is confluent, so the freely reduced syllables
    are the same, and the ``bs1n_*`` oracles compute an image or a unique
    form of the element.  Britton reduction does not begin with one, so it
    reads every letter."""
    if isinstance(w, Word):
        return w._exps, w._signs
    return _decode_letters(w, free)


class _RunExponents(dict):
    """The exponent of an a run, by its bytes: its count of a letters minus
    its count of A letters.  A run is computed on its first lookup, and
    kept when it has at most 8 letters (511 runs), or at most 64 letters
    of one kind (112 more), so the table stays small and import fills
    nothing.  A longer run is never kept; two byte searches at C speed
    tell whether it holds one letter, so only a mixed one is counted."""

    def __missing__(self, run: bytes) -> int:
        k = len(run)
        if k > 64:  # 65 and 97 are the bytes of A and a
            return k if 65 not in run else -k if 97 not in run else k - 2 * run.count(b"A")
        e = k - 2 * run.count(b"A")
        if k <= 8 or abs(e) == k:
            self[run] = e
        return e


_RUN_EXPONENTS = _RunExponents()


def _decode_letters(w: str, free: bool = False) -> tuple[list[int], list[int]]:
    """The letter decoder: bytes methods on the ASCII encoding of w do the
    work per syllable.  One full delete checks the letters.  With ``free``
    every ``tT`` and ``Tt`` is then cut out once.  One copy with every T
    made t is split at the t letters, and each a run's exponent is looked
    up in ``_RUN_EXPONENTS``; one translate drops the a letters and makes
    the t letters the signed bytes 1 and -1."""
    try:
        b = w.encode("ascii")
    except UnicodeEncodeError:
        b = b"?"  # a non-ASCII character is never a letter
    if b.translate(None, b"aAtT"):
        bad = len(w) - len(w.lstrip("aAtT"))
        raise ParseError(f"invalid letter {w[bad]!r}", bad)
    if free:
        b = b.replace(b"tT", b"").replace(b"Tt", b"")
    exps = list(map(_RUN_EXPONENTS.__getitem__, b.replace(b"T", b"t").split(b"t")))
    return exps, memoryview(b.translate(_SIGN_BYTES, b"aA")).cast("b").tolist()


def syllables_to_word(exps: list[int], signs: list[int]) -> Word:
    """The Word with syllables (exps, signs), each a run written in one
    letter."""
    parts: list[str] = []
    for k, e in enumerate(exps):
        parts.append("a" * e if e >= 0 else "A" * (-e))
        if k < len(signs):
            parts.append("t" if signs[k] > 0 else "T")
    letters = "".join(parts)
    del parts  # at most one more copy of the letters while the Word is built
    return Word(letters, exps, signs)


def invert_syllables(
    exps: list[int], signs: list[int]
) -> tuple[list[int], list[int]]:
    """Syllables of the inverse word: reversed, with every sign flipped."""
    return [-e for e in reversed(exps)], [-s for s in reversed(signs)]


def free_reduce_syllables(
    exps: list[int], signs: list[int]
) -> tuple[list[int], list[int]]:
    """Free reduction in syllable form: cancel each t^s a^0 t^-s, merging
    the a runs around it, left to right with a stack whose top sign is kept
    in ``last``."""
    out_e = [exps[0]]
    out_s: list[int] = []
    last = 0  # out_s[-1], or 0 when out_s is empty
    for s, e in zip(signs, exps[1:]):
        if last != -s or out_e[-1]:
            out_s.append(s)
            out_e.append(e)
            last = s
        else:
            out_s.pop()
            out_e.pop()
            out_e[-1] += e
            last = out_s[-1] if out_s else 0
    return out_e, out_s


def reduce_syllables(
    p: GroupParams, exps: list[int], signs: list[int]
) -> tuple[list[int], list[int]]:
    """Full reduction in syllable form: removes every pinch (including the
    c = 0 case, which is a free t-cancellation) left to right, merging the
    replaced a power into the surrounding runs.  The output is the syllable
    form of a freely reduced, pinch-free word equal to the input in BS(m, n).
    Terminates: each merge removes two t letters.
    """
    m, n = p.m, p.n
    out_e = [exps[0]]
    out_s: list[int] = []
    last = 0  # out_s[-1], or 0 when out_s is empty
    for k, s in enumerate(signs, 1):
        # a pinch is t a^top T with m | top, or T a^top t with n | top
        if last != -s or out_e[-1] % (m if s < 0 else n):
            out_s.append(s)
            out_e.append(exps[k])
            last = s
        else:
            top = out_e.pop()
            out_s.pop()
            out_e[-1] += (top // m * n if s < 0 else top // n * m) + exps[k]
            last = out_s[-1] if out_s else 0
    return out_e, out_s


def syllables_pinch_free(p: GroupParams, exps: list[int], signs: list[int]) -> bool:
    """True iff no adjacent sign pair forms a pinch (exponent between a
    t...t^-1 pair divisible by m, or by n for the t^-1...t pair)."""
    for k in range(len(signs) - 1):
        if signs[k] == 1 and signs[k + 1] == -1 and exps[k + 1] % p.m == 0:
            return False
        if signs[k] == -1 and signs[k + 1] == 1 and exps[k + 1] % p.n == 0:
            return False
    return True


def is_pinch_free(p: GroupParams, w: str) -> bool:
    return syllables_pinch_free(p, *_read_syllables(w))


def check_traceable(p: GroupParams, w: str) -> list[int]:
    """Raise unless w is freely reduced and pinch-free; return the signs of
    its t letters.

    The syllables are read first, once, so a bad letter raises ParseError;
    both tests then read them (``_freely_reduced``, the rule of
    ``is_freely_reduced``, and ``syllables_pinch_free``), so the cost
    follows the syllables, not the letters.  A ``britton_reduce`` answer,
    whose record in p's group is its own syllables, passes at once.
    """
    exps, signs = _read_syllables(w)
    rec = _record(p, w)
    if rec is not None and rec[0] is exps:
        return list(signs)
    if not _freely_reduced(w, exps, signs):
        raise WordConditionError(f"word {format_word(w)!r} is not freely reduced")
    if not syllables_pinch_free(p, exps, signs):
        raise WordConditionError(f"word {format_word(w)!r} contains a pinch")
    return list(signs)


# ---------------------------------------------------------------------------
# The word problem.


def britton_reduce(p: GroupParams, w: str) -> Word:
    """Alternately free-reduce and remove pinches (leftmost first) until the
    word is freely reduced and pinch-free.  The result equals w in BS(m, n).

    Records the reduction on the result and, when it is a ``Word``, on w
    (see ``Word``); the letters are written out before either record.
    """
    exps, signs = reduce_syllables(p, *_read_syllables(w))
    r = syllables_to_word(exps, signs)
    r._reduced = rec = (p.m, p.n, r._exps, r._signs)
    if isinstance(w, Word):
        w._reduced = rec
    return r


def _record(p: GroupParams, w: str):
    """The syllables (exps, signs) that ``britton_reduce`` recorded on w in
    p's group, as tuples, or None: the one place that reads a record."""
    rec = w._reduced if isinstance(w, Word) else None
    if rec is not None and rec[0] == p.m and rec[1] == p.n:
        return rec[2:]
    return None


def _reduced_syllables(p: GroupParams, w: str):
    """``reduce_syllables`` of w's syllables, for a caller that only reads
    them: w's record in p's group, or else a fresh reduction, which is not
    recorded."""
    return _record(p, w) or reduce_syllables(p, *_read_syllables(w))


def as_power_of_a(p: GroupParams, w: str) -> int | None:
    """Return k when w = a^k in BS(m, n), else None.

    A reduced word with surviving t letters cannot lie in <a>, so the
    syllable reduction decides membership outright.
    """
    exps, signs = _reduced_syllables(p, w)
    return exps[0] if not signs else None


def equal_elements(p: GroupParams, w: str, u: str) -> bool:
    """Decide w = u in BS(m, n).  Two words with the same record in p's
    group are equal at once; otherwise w u^-1 is reduced, joined in
    syllable form from each word's record, when it has one, or else its
    syllables."""
    wr, ur = _record(p, w), _record(p, u)
    if wr is not None and wr == ur:
        return True
    we, ws = wr or _read_syllables(w)
    ue, us = ur or _read_syllables(u)
    exps = list(we)
    exps[-1] -= ue[-1]  # the junction run
    exps += map(neg, ue[-2::-1])  # the rest of u^-1
    exps, signs = reduce_syllables(p, exps, [*ws, *map(neg, reversed(us))])
    return not signs and exps[0] == 0


# ---------------------------------------------------------------------------
# Conjugacy normalization.


def conjugacy_normalize_with_certificate(
    p: GroupParams, w: str
) -> tuple[Word, str]:
    """Return (z, h) with h z h^-1 = w in BS(m, n) and z z freely reduced and
    pinch-free, so every positive power of z is freely reduced and pinch-free.
    See ``conjugacy_normalize_syllables``.  Raises DomainError when h is too
    large to write as letters; that function returns it as pieces."""
    exps, signs, h = conjugacy_normalize_syllables(p, *_read_syllables(w, free=True))
    try:
        h_letters = "".join(
            ("a" * c if c >= 0 else "A" * -c) + ("t" if s > 0 else "T" if s else "")
            for c, s in h
        )
    except (OverflowError, MemoryError):
        raise DomainError(
            "conjugator too large to write as letters;"
            " conjugacy_normalize_syllables returns it as pieces"
        ) from None
    return syllables_to_word(exps, signs), h_letters


def conjugacy_normalize_syllables(
    p: GroupParams, exps, signs
) -> tuple[list[int], list[int], list[tuple[int, int]]]:
    """``conjugacy_normalize_with_certificate`` on syllables: the syllables
    of z, in fresh lists, and h as its pieces (c, s), each a^c followed by
    t^s with s in {1, -1, 0}.  Neither z nor h is written out, so a caller
    that reads only the t letters of z never pays for huge a runs.

    Four moves are applied greedily in a fixed order, restarting after each:
    (1) cancel a free inverse pair, (2) strip conjugating first/last letter
    pairs, (3) remove the leftmost pinch, (4) when the square (but not the
    word itself) has a pinch straddling the wrap boundary, conjugate it away.
    Each move strictly decreases (t-letter count, length) lexicographically.

    The order is kept because z depends on it: removing every pinch first
    and then moving at the ends gives another conjugate (in BS(1, 3),
    ``taT`` gives z = ``a`` with h = ``t``, not ``a^3``), and ``moller``'s
    indices depend on the t signs of z.

    Free reduction is completed once up front; for a plain string
    ``_read_syllables(w, free=True)`` has already cut out its adjacent t
    pairs.
    Later, a free pair can only appear where a pinch left an empty a run
    between opposite t letters, and that pair is the leftmost pinch
    (c = 0).  The moves then run in one left-to-right pass, each syllable
    read once: the word is a read part, kept pinch-free on a stack as in
    ``reduce_syllables`` (removing the leftmost pinch, then looking again
    one sign left of it), followed by the unread rest.  A strip takes the
    first syllable from the bottom of the stack, through an offset, or
    from the unread rest while the stack holds no t letter, and the last
    from the end of the unread rest, or from the top of the stack once all
    is read; it takes one t pair at a time.  The ends change only when a
    pinch empties the stack or merges into the last a run, so the strips
    are tried again exactly then, and move 4 only once all is read.
    """
    m, n = p.m, p.n
    exps, signs = free_reduce_syllables(exps, signs)
    h: list[tuple[int, int]] = []
    # the word: out_e[lo:], out_s[lo:] (pinch-free), then the unread
    # signs[r:q], each followed by its a run; exps[q] is the last run while r < q
    out_e, out_s, lo = [exps[0]], [], 0
    r, q = 0, len(signs)
    while True:
        while True:  # move 2, at the ends
            i = out_e[lo]
            j = exps[q] if r < q else out_e[-1]
            # move 2 on a letters: y = a^c z a^-c, emptying the shorter end run
            if i * j < 0:
                c = i if abs(i) < abs(j) else -j
                h.append((c, 0))
                out_e[lo] = i - c
                if r < q:
                    exps[q] = j + c
                else:
                    out_e[-1] = j + c
                continue
            # move 2 on t letters: strip one end pair t^s ... t^-s between empty a runs
            if i or j or len(out_s) - lo + q - r < 2:
                break
            first = out_s[lo] if len(out_s) > lo else signs[r]
            if first == (signs[q - 1] if r < q else out_s[-1]):
                break
            h.append((0, first))
            if len(out_s) > lo:
                lo += 1
            else:
                r += 1
                out_e[lo] = exps[r]
            if r < q:
                q -= 1
            else:
                out_s.pop()
                out_e.pop()
        last = out_s[-1] if len(out_s) > lo else 0  # 0 when the stack holds no t letter
        # move 3: read on, removing each pinch t a^(cm) T or T a^(cn) t
        while r < q:
            s = signs[r]
            r += 1
            if last != -s or out_e[-1] % (m if s < 0 else n):
                out_s.append(s)
                out_e.append(exps[r])
                last = s
            else:
                top = out_e.pop()
                out_s.pop()
                out_e[-1] += (top // m * n if s < 0 else top // n * m) + exps[r]
                if len(out_s) == lo or r == q:
                    break  # an end changed
                last = out_s[-1]
        else:
            # move 4: y = a^i T v t a^j with m | i + j becomes v a^((i+j)n/m)
            # after conjugating by a^i T (likewise with t and T swapped)
            s = out_s[lo] if len(out_s) - lo > 1 else 0
            i = out_e[lo]
            d, e = (m, n) if s < 0 else (n, m)
            if not s or s == out_s[-1] or (i + out_e[-1]) % d:
                return out_e[lo:], out_s[lo:], h
            h.append((i, s))
            lo += 1
            out_s.pop()
            j = out_e.pop()
            out_e[-1] += (i + j) // d * e  # the interior kept its pairs, so no pinch arose


def conjugacy_normalize(p: GroupParams, w: str) -> Word:
    """Conjugate w to a word z whose square (hence every positive power) is
    freely reduced and pinch-free.  The conjugator is not written out."""
    exps, signs, _ = conjugacy_normalize_syllables(p, *_read_syllables(w, free=True))
    return syllables_to_word(exps, signs)
