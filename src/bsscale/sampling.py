"""Seeded random word generators for property suites and the selfcheck
command.  All sampling is driven by an explicit random.Random so identical
seeds give identical words.
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


def random_word(rng: Random, max_len: int) -> Word:
    """A uniform word of 0..max_len letters, parsed once so that it carries
    its syllables and is not decoded again at each use."""
    length = rng.randint(0, max_len)
    return parse_word("".join(rng.choice(_LETTERS) for _ in range(length)))


def random_pinch_free_word(p: GroupParams, rng: Random, max_len: int) -> Word:
    """Rejection-sample a freely reduced pinch-free word of 0..max_len
    letters, each drawn from the letters that do not cancel the one before
    it; parsed once, like ``random_word``."""
    while True:
        out: list[str] = []
        for _ in range(rng.randint(0, max_len)):
            out.append(rng.choice(_NON_INVERSE[out[-1]] if out else _LETTERS))
        w = "".join(out)
        if is_pinch_free(p, w):
            return parse_word(w)
