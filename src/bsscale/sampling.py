"""Seeded random word generators for property suites and the selfcheck
command.  All sampling is driven by an explicit random.Random so identical
seeds give identical words.

Each word takes its length from one ``randint`` and its letters from one
more draw, so a word costs two calls to the generator, not one per
letter.  The words have the distribution that a draw per letter gives,
but a seed draws different words than it did with one draw per letter.
"""

from __future__ import annotations

from random import Random

from .params import GroupParams
from .words import _LETTERS, Word, is_pinch_free, parse_word

_NON_INVERSE = {
    "a": "atT",
    "A": "AtT",
    "t": "aAt",
    "T": "aAT",
}
# the letter of a random byte k; uniform, since 4 divides 256
_BYTE_LETTERS = bytes(_LETTERS.encode()[k % 4] for k in range(256))


def random_word(rng: Random, max_len: int) -> Word:
    """A uniform word of 0..max_len letters, one random byte per letter,
    parsed once so that it carries its syllables and is not decoded again
    at each use."""
    length = rng.randint(0, max_len)
    letters = rng.getrandbits(8 * length).to_bytes(length, "little").translate(_BYTE_LETTERS)
    return parse_word(letters.decode("ascii"))


def random_pinch_free_word(p: GroupParams, rng: Random, max_len: int) -> Word:
    """Rejection-sample a freely reduced pinch-free word of 0..max_len
    letters, uniform among the freely reduced words of its length; parsed
    once, like ``random_word``, before the pinch test reads its syllables.

    One draw below 4 * 3^(length - 1), the number of freely reduced words
    of that length, picks the word: its base-4 digit the first letter, and
    each base-3 digit after it one of the three letters that do not cancel
    the letter before."""
    while True:
        length = rng.randint(0, max_len)
        k = rng.randrange(4 * 3**length // 3)  # at length 0 one word, the empty one
        w = _LETTERS[k % 4] if length else ""
        k //= 4
        for _ in range(length - 1):
            k, d = divmod(k, 3)
            w += _NON_INVERSE[w[-1]][d]
        word = parse_word(w)
        if is_pinch_free(p, word):
            return word
