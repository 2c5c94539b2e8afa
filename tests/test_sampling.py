"""The seeded word samplers: what every drawn word is, and the distribution
of the draws; and ``selfcheck`` on the words they draw."""

from collections import Counter
from random import Random

import pytest

from bsscale import GroupParams, Word, is_freely_reduced, is_pinch_free, selfcheck
from bsscale.sampling import random_pinch_free_word, random_word
from bsscale.words import word_syllables

GROUPS = [GroupParams(2, 3), GroupParams(2, 4), GroupParams(1, 3), GroupParams(3, -3)]
INVERSE = {"a": "A", "A": "a", "t": "T", "T": "t"}
DRAWS = 4000


def check_draws(draw, max_len):
    """Draw ``DRAWS`` words twice from one seed; return the first draws."""
    rng = Random(max_len)
    words = [draw(rng) for _ in range(DRAWS)]
    rng = Random(max_len)
    assert [draw(rng) for _ in range(DRAWS)] == words
    for w in words:
        assert type(w) is Word
        assert set(w) <= set("aAtT") and len(w) <= max_len
        assert word_syllables(w) == word_syllables(str(w))
    assert {len(w) for w in words} == set(range(max_len + 1))
    if max_len:
        letters = Counter("".join(words))
        for ch in "aAtT":
            assert 0.2 < letters[ch] / sum(letters.values()) < 0.3, letters
    return words


@pytest.mark.parametrize("max_len", range(9))
def test_random_word(max_len):
    check_draws(lambda rng: random_word(rng, max_len), max_len)


@pytest.mark.parametrize("p", GROUPS, ids=lambda p: f"{p.m},{p.n}")
@pytest.mark.parametrize("max_len", range(9))
def test_random_pinch_free_word(p, max_len):
    for w in check_draws(lambda rng: random_pinch_free_word(p, rng, max_len), max_len):
        assert all(b != INVERSE[a] for a, b in zip(w, w[1:]))
        assert is_freely_reduced(w) and is_pinch_free(p, w)


def test_selfcheck_passes_on_the_sampled_words():
    for seed in range(50):
        failed = [r for r in selfcheck.run_all(seed) if not r[1]]
        assert not failed, (seed, failed)
