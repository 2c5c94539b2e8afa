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


def random_freely_reduced_word(rng: Random, max_len: int) -> str:
    length = rng.randint(0, max_len)
    out: list[str] = []
    for _ in range(length):
        out.append(rng.choice(_NON_INVERSE[out[-1]] if out else _LETTERS))
    return "".join(out)


def random_pinch_free_word(
    p: GroupParams, rng: Random, max_len: int, max_t: int | None = None
) -> str:
    """Rejection-sample a freely reduced pinch-free word, optionally capping
    the t-letter count (scan oracles grow geometrically in it)."""
    while True:
        w = random_freely_reduced_word(rng, max_len)
        if max_t is not None and sum(1 for ch in w if ch in "tT") > max_t:
            continue
        if is_pinch_free(p, w):
            return w
