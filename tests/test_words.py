"""Word algebra: parsing, reductions, the word problem, t-exponent."""

import copy
import json
import pickle
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bsscale import (
    GroupParams,
    ParseError,
    Word,
    WordConditionError,
    as_power_of_a,
    britton_reduce,
    bs1n_matrix,
    bs1n_normal_form,
    conjugacy_normalize,
    conjugacy_normalize_with_certificate,
    coset_word,
    element_normal_form,
    equal_elements,
    format_word,
    free_reduce,
    index_bruteforce,
    invert_word,
    is_freely_reduced,
    is_pinch_free,
    modular,
    moller_stabilization,
    orbit_order,
    orbit_order_bruteforce,
    parse_word,
    scale,
    structure_report,
    t_exponent,
    trace,
)
from bsscale import words as words_module
from bsscale.cosets import default_scan_bound
from bsscale.words import (
    _DIGITS,
    _LETTERS,
    check_traceable,
    format_syllables,
    free_reduce_syllables,
    word_syllables,
)

P12 = GroupParams(1, 2)
P23 = GroupParams(2, 3)
P24 = GroupParams(2, 4)
P2m3 = GroupParams(2, -3)

words = st.text(alphabet="aAtT", max_size=12)
# words made of letter runs, some thousands of letters long
run_words = st.lists(
    st.tuples(st.sampled_from("aAtT"), st.integers(1, 3000)), max_size=12
).map(lambda runs: "".join(ch * k for ch, k in runs))
# letter strings made of runs that free reduction has to cancel
mixed_runs = st.lists(
    st.sampled_from(["aAt", "tTa", "taAT", "a", "A", "t", "T", "aa", "TT"]), max_size=8
).map("".join)
groups = st.sampled_from(
    [P23, GroupParams(3, 2), P24, GroupParams(4, 6), P2m3, GroupParams(-2, 3),
     GroupParams(3, 3), GroupParams(3, -3)]
)


class TestParse:
    def test_empty(self):
        assert parse_word("") == ""

    def test_worked_example(self):
        assert parse_word("t^4 a t^-2 a") == "ttttaTTa"

    def test_no_reduction_on_parse(self):
        assert parse_word("aA") == "aA"

    def test_capital_exponent_composes_inverse(self):
        assert parse_word("A^2") == parse_word("a^-2") == "AA"
        assert parse_word("T^3") == "TTT"

    def test_exponent_zero_vanishes(self):
        assert parse_word("a^0 t^0") == ""

    def test_positive_sign_allowed(self):
        assert parse_word("a^+2") == "aa"

    @pytest.mark.parametrize(
        "text,offset",
        [
            ("b", 0), ("a b", 2), ("a^", 2), ("a^x", 2), ("t^-", 2), ("aa^ 3", 3),
            ("t a^99999999999999999999", 2), ("A^-99999999999999999999", 0),
            # exponents take ASCII digits only
            ("a^\u00b2", 2), ("a^\u0661", 2), ("a^\uff13", 2), ("a^1\u00b2", 3),
            # past Python's 4,300-digit int/str limit
            ("a t^" + "1" * 5000, 2), ("A^-" + "9" * 4301, 0),
            # offsets count characters: U+3000 is one character, three bytes
            ("a\u3000b", 2), ("a\u3000t^x", 4),
        ],
    )
    def test_errors_carry_offset(self, text, offset):
        with pytest.raises(ParseError) as exc:
            parse_word(text)
        assert exc.value.offset == offset

    @pytest.mark.parametrize(
        "fn,w,offset",
        [
            (format_word, "xx", 0),
            (format_word, "aAt b", 3),
            (free_reduce, "aaaaTtX", 6),
            (word_syllables, "ta" * 500 + "?", 1000),
            (lambda w: bs1n_normal_form(GroupParams(1, 3), w), "x", 0),
            (lambda w: bs1n_matrix(GroupParams(1, 3), w), "x", 0),
            (lambda w: britton_reduce(P23, w), "taT1", 3),
            (t_exponent, "tx", 1),
            (lambda w: scale(P23, w), "tx", 1),
            (lambda w: modular(P23, w), "tAq", 2),
            (lambda w: structure_report(P23, w), "Tz", 1),
            pytest.param(lambda w: default_scan_bound(P23, w), "tx", 1,
                         id="default_scan_bound-tx-1"),
        ],
    )
    def test_invalid_letters_carry_offset(self, fn, w, offset):
        with pytest.raises(ParseError) as exc:
            fn(w)
        assert exc.value.offset == offset

    def test_format_round_trip(self):
        w = "ttttaTTa"
        assert format_word(w) == "t^4 a t^-2 a"
        assert parse_word(format_word(w)) == w

    @given(words)
    def test_format_parses_back(self, w):
        assert parse_word(format_word(w)) == w


class TestFreeReduce:
    def test_cancellation(self):
        assert free_reduce("aA") == ""

    def test_inner_cascade(self):
        assert free_reduce("taAt") == "tt"

    @pytest.mark.parametrize(
        "w,want",
        [("taAT", ""), ("tTtT", ""), (parse_word("t a^0 T"), ""), ("atTA", ""),
         ("ttaATaT", "taT"), ("TtaTtA", ""), ("taATt", "t"), ("ttTT", ""),
         ("TTaAtt", "")],
    )
    def test_cascades(self, w, want):
        assert free_reduce(w) == want == letter_free_reduce(w)

    def test_reduced_word_unchanged(self):
        assert free_reduce("ttttaTTa") == "ttttaTTa"

    @given(words)
    def test_idempotent_and_reduced(self, w):
        r = free_reduce(w)
        assert is_freely_reduced(r)
        assert free_reduce(r) == r

    # the callers that begin with a free reduction, and the BS(1, n)
    # oracles, cut out the t pairs of a plain string, but only after its
    # letters are checked
    @pytest.mark.parametrize("w", ["tTx", "atTA\u00e9", "aAx", "TtTt?", "tT tT", "atTA\u00e9tT"])
    def test_bad_letter_behind_a_pair(self, w):
        with pytest.raises(ParseError) as want:
            word_syllables(w)
        for fn in (free_reduce, lambda w: conjugacy_normalize(P23, w),
                   lambda w: moller_stabilization(P23, w, 3),
                   lambda w: bs1n_matrix(P12, w), lambda w: bs1n_normal_form(P12, w)):
            with pytest.raises(ParseError) as got:
                fn(w)
            assert (str(got.value), got.value.offset) == (str(want.value), want.value.offset)


class TestBritton:
    def test_relation_pinch(self):
        assert britton_reduce(P23, parse_word("t a^2 T")) == "aaa"

    def test_inverse_relation_pinch(self):
        assert britton_reduce(P23, parse_word("T a^3 t")) == "aa"

    def test_blocked_pinch(self):
        assert britton_reduce(P23, "taT") == "taT"

    def test_signed_exponent(self):
        # t a^-2 T = a^-3 under t a^(2c) T -> a^(3c) with c = -1
        assert britton_reduce(P23, parse_word("t a^-2 T")) == "AAA"

    def test_reads_every_letter(self):
        # Britton reduction must not cut out t pairs first: it is not
        # confluent.  In BS(1,3) taTt reduces to aaat, but with its Tt cut
        # out to ta (the same element, another word).
        p = GroupParams(1, 3)
        assert britton_reduce(p, "ttaTtaTAatTtttTa") == "taaaaaatta"
        assert britton_reduce(p, "taTt") == "aaat"
        assert britton_reduce(p, "ta") == "ta"

    @given(groups, words)
    @settings(max_examples=150)
    def test_output_reduced_and_pinch_free(self, p, w):
        r = britton_reduce(p, w)
        assert is_freely_reduced(r)
        assert is_pinch_free(p, r)
        assert britton_reduce(p, r) == r

    @given(groups, words)
    @settings(max_examples=150)
    def test_preserves_t_exponent(self, p, w):
        assert t_exponent(britton_reduce(p, w)) == t_exponent(w)


class TestWordProblem:
    def test_identity(self):
        assert as_power_of_a(P23, "") == 0

    def test_relator_collapses(self):
        assert as_power_of_a(P23, parse_word("t a^2 T A^3")) == 0

    def test_non_member(self):
        assert as_power_of_a(P23, "taT") is None

    def test_defining_relation(self):
        assert equal_elements(P23, parse_word("t a^2 T"), "aaa")

    def test_distinct_generators(self):
        assert not equal_elements(P23, "t", "T")

    def test_negative_parameters(self):
        # t a^2 T = a^-3 in BS(2,-3)
        assert equal_elements(P2m3, parse_word("t a^2 T"), "AAA")

    @given(groups, words)
    @settings(max_examples=100)
    def test_reflexive(self, p, w):
        assert equal_elements(p, w, w)

    @given(groups, words, words)
    @settings(max_examples=100)
    def test_equality_forces_same_t_exponent(self, p, w, u):
        if equal_elements(p, w, u):
            assert t_exponent(w) == t_exponent(u)

    @given(groups, words)
    @settings(max_examples=100)
    def test_inverse_cancels(self, p, w):
        assert as_power_of_a(p, w + invert_word(w)) == 0


class TestTExponent:
    def test_balanced(self):
        assert t_exponent("taTTat") == 0

    def test_worked_example(self):
        assert t_exponent(parse_word("t^4 a t^-2 a")) == 2

    def test_negative(self):
        assert t_exponent("TTT") == -3


# ---------------------------------------------------------------------------
# References: the per-letter loops the str-method decoder replaced.

_INVERT = str.maketrans("aAtT", "AaTt")


def letter_syllables(w):
    exps = [0]
    signs = []
    for ch in w:
        if ch == "a":
            exps[-1] += 1
        elif ch == "A":
            exps[-1] -= 1
        elif ch == "t":
            signs.append(1)
            exps.append(0)
        elif ch == "T":
            signs.append(-1)
            exps.append(0)
        else:
            raise ParseError(f"invalid letter {ch!r}", w.index(ch))
    return exps, signs


def letter_format(w):
    tokens = []
    i = 0
    while i < len(w):
        j = i
        while j < len(w) and w[j] == w[i]:
            j += 1
        run = j - i
        ch = w[i]
        if run == 1:
            tokens.append(ch)
        elif ch in "aA":
            tokens.append(f"a^{run if ch == 'a' else -run}")
        else:
            tokens.append(f"t^{run if ch == 't' else -run}")
        i = j
    return " ".join(tokens)


def letter_freely_reduced(w):
    return all(w[i + 1] != w[i].translate(_INVERT) for i in range(len(w) - 1))


def letter_free_reduce(w):
    """Free reduction letter by letter: push each letter, pop on its inverse."""
    stack = []
    for ch in w:
        if stack and stack[-1] == ch.translate(_INVERT):
            stack.pop()
        else:
            stack.append(ch)
    return "".join(stack)


# a runs of 9, 17 and 1,000 letters, past the decoder's table of runs of
# up to 8 letters (it keeps one-letter runs up to 64), of one letter and
# mixed, each met twice
LONG_RUNS = [
    ("a" * 9 + "t") * 2,
    ("A" * 17 + "T") * 2 + "a" * 1000,
    "t" + "A" * 1000 + "T" + "A" * 1000,
    ("aAaAaAaAa" + "T") * 2,
    "t" + "Aa" * 8 + "A" + "t" + "aA" * 8 + "A",
    "T" + "aaA" * 333 + "a" + "tT" + "aaA" * 333 + "a",
]


def with_long_runs(test):
    for w in LONG_RUNS:
        test = example(w)(test)
    return test


def with_decoder_examples(test):
    """A bad letter after, before and between the t pairs that the free
    decode cuts out, and pairs that nest."""
    for w in ("tTx", "xtT", "TtTt_", "aTt\u00e9", "ttTTa"):
        test = example(w)(test)
    return test


class TestAgainstLetterLoops:
    @given(st.one_of(words, run_words))
    @settings(max_examples=300)
    @with_long_runs
    def test_syllables(self, w):
        assert word_syllables(w) == letter_syllables(w)

    @given(st.one_of(words, run_words))
    @settings(max_examples=300)
    @example("tttaTT")  # t runs of more than one letter
    @example("att")
    def test_format(self, w):
        assert format_word(w) == letter_format(w)

    @given(st.one_of(words, run_words))
    @settings(max_examples=300)
    def test_freely_reduced(self, w):
        assert is_freely_reduced(w) == letter_freely_reduced(w)

    # bad letters: ASCII, non-ASCII (a letter, a digit) and whitespace
    @given(st.text(alphabet="aAtTx \t\u00e4\u00b2", max_size=64))
    @settings(max_examples=300)
    @with_decoder_examples
    def test_same_error_offset(self, w):
        check_same_error_offset(w)

    def test_error_offset_deep_in_t_dense_word(self):
        w = ("tT" * 1000)[:1999] + "\u00e4"
        check_same_error_offset(w)
        with pytest.raises(ParseError) as exc:
            word_syllables(w)
        assert exc.value.offset == 1999

    @given(st.one_of(words, run_words, mixed_runs))
    @settings(max_examples=300)
    @with_long_runs
    @with_decoder_examples
    def test_free_reduce(self, w):
        check_same_error_offset(w)
        if set(w) <= set(_LETTERS):
            want = letter_free_reduce(w)
            assert free_reduce(w) == want
            assert free_reduce_syllables(*letter_syllables(w)) == letter_syllables(want)


def read_free(w):
    return words_module._read_syllables(w, free=True)


def check_same_error_offset(w):
    """word_syllables, t_exponent, format_word, is_freely_reduced, free_reduce
    and the free decode raise the letter loop's error at its offset, or
    agree with the letter loops."""
    try:
        want = letter_syllables(w)
    except ParseError as exc:
        for fn in (word_syllables, t_exponent, format_word, is_freely_reduced, free_reduce,
                   read_free):
            with pytest.raises(ParseError) as got:
                fn(w)
            assert (str(got.value), got.value.offset) == (str(exc), exc.offset)
    else:
        assert word_syllables(w) == want
        assert t_exponent(w) == sum(want[1])
        assert format_word(w) == letter_format(w)
        assert is_freely_reduced(w) == letter_freely_reduced(w)
        assert free_reduce_syllables(*read_free(w)) == letter_syllables(letter_free_reduce(w))


# ---------------------------------------------------------------------------
# Words built by the package carry their syllables.

# token text with mixed a/A runs, zero exponents and signed t powers
token_text = st.lists(
    st.tuples(st.sampled_from("aAtT"), st.one_of(st.none(), st.integers(-4, 4))), max_size=14
).map(lambda toks: " ".join(ch if e is None else f"{ch}^{e}" for ch, e in toks))


def built_words(p, text):
    """Each kind of Word the package returns, from one token text."""
    w = parse_word(text)
    z, _ = conjugacy_normalize_with_certificate(p, w)
    nf = element_normal_form(p, w)
    return [w, britton_reduce(p, w), free_reduce(w), z, nf.to_word(), coset_word(nf.syllables)]


class TestWordSyllables:
    @given(groups, token_text)
    @settings(max_examples=150)
    def test_stored_syllables_match_letters(self, p, text):
        for w in built_words(p, text):
            assert type(w) is Word
            assert word_syllables(str(w)) == word_syllables(w)
            for c in (copy.copy(w), copy.deepcopy(w), pickle.loads(pickle.dumps(w))):
                assert type(c) is Word
                assert c == w
                assert word_syllables(c) == word_syllables(w)

    @given(groups, token_text)
    @settings(max_examples=150)
    @example(P23, "t^3 a T^-2")  # t runs of more than one letter
    @example(P23, "a t t")
    def test_format_syllables_matches_format_word(self, p, text):
        # every built Word but the parsed one writes each a run in one letter
        for w in built_words(p, text)[1:]:
            assert format_syllables(*word_syllables(w)) == format_word(w) == letter_format(w)

    def test_behaves_as_its_letters(self):
        w = parse_word("t a^2 T A")
        assert w == "taaTA" and hash(w) == hash("taaTA")
        assert json.dumps({"w": w}) == json.dumps({"w": "taaTA"})
        assert type(w[1:]) is str and type(w + "a") is str and type(str(w)) is str

    def test_syllable_lists_are_fresh(self):
        w = parse_word("a t a^2")
        exps, signs = word_syllables(w)
        exps[0] = 5
        signs.append(1)
        assert word_syllables(w) == ([1, 2], [1])


class TestSyllableConsumers:
    """The consumers that read a Word's syllables against the letter routes
    they replaced."""

    @given(groups, st.one_of(words, mixed_runs))
    @settings(max_examples=300)
    def test_check_traceable(self, p, w):
        reduced = is_freely_reduced(w)
        for v in (w, parse_word(w)):
            try:
                signs = check_traceable(p, v)
            except WordConditionError as exc:
                assert not (reduced and is_pinch_free(p, w))
                assert ("not freely reduced" in str(exc)) == (not reduced)
            else:
                assert reduced and is_pinch_free(p, w)
                assert signs == word_syllables(w)[1]

    def test_check_traceable_reads_syllables_not_letters(self):
        class Probe(Word):  # a Word that counts the letter searches on it
            __slots__ = ()
            searches = 0

            def __contains__(self, sub):
                Probe.searches += 1
                return super().__contains__(sub)

        n = 10**6  # long a runs: a letter search would pay for each letter
        good = Probe("a" * n + "t" + "a" * n, (n, n), (1,))
        assert check_traceable(P23, good) == [1] and is_freely_reduced(good)
        for bad in (Probe("aAt", (0, 0), (1,)), Probe("tT", (0, 0, 0), (1, -1))):
            with pytest.raises(WordConditionError, match="not freely reduced"):
                check_traceable(P23, bad)
            assert not is_freely_reduced(bad)
        assert Probe.searches == 0

    @given(groups, words, words)
    @settings(max_examples=200)
    def test_equal_elements(self, p, w, u):
        for x, y in ((w, u), (w + u, britton_reduce(p, w + u))):
            want = as_power_of_a(p, x + invert_word(y)) == 0
            for a in (x, parse_word(x)):
                for b in (y, parse_word(y)):
                    assert equal_elements(p, a, b) == want

    @pytest.mark.parametrize("p", [P23, GroupParams(3, -5), P24, GroupParams(1, 3)])
    def test_chain_never_decodes_letters(self, p, monkeypatch):
        def refuse(w):
            raise AssertionError(f"letters decoded: {w[:20]!r}")

        monkeypatch.setattr(words_module, "_decode_letters", refuse)
        w = parse_word("a^37 t A^5 t^2 a^-41 T a^6 T a^1000 t A T a^2 t")
        r = britton_reduce(p, w)
        element_normal_form(p, w)
        format_word(r)
        orbit_order(p, r)
        trace(p, r)
        assert equal_elements(p, w, r)
        assert scale(p, w).exponent == 2

    @pytest.mark.parametrize("p", [P23, GroupParams(3, -5), P24, GroupParams(1, 3)])
    def test_chain_reduces_once(self, p, monkeypatch):
        """Only britton_reduce reduces, and its record is read by the value
        (m, n): the readers below get a GroupParams equal to p, not p.
        equal_elements finds the same record on w and r and reduces
        nothing."""
        calls = []
        reduce = words_module.reduce_syllables

        def counted(*args):
            calls.append(args[0])
            return reduce(*args)

        monkeypatch.setattr(words_module, "reduce_syllables", counted)
        same = GroupParams(p.m, p.n)
        w = parse_word("a^37 t A^5 t^2 a^-41 T a^6 T a^1000 t A T a^2 t")
        counts = []
        for call in (
            lambda: britton_reduce(p, w),
            lambda: element_normal_form(same, w),
            lambda: orbit_order(same, r),
            lambda: trace(same, r),
            lambda: equal_elements(same, w, r),
        ):
            before = len(calls)
            out = call()
            counts.append(len(calls) - before)
            if before == 0:
                r = out
        assert counts == [1, 0, 0, 0, 0]

    @pytest.mark.parametrize("p", [P23, GroupParams(2, -2)])
    def test_moller_decodes_a_plain_string_once(self, p, monkeypatch):
        calls = []
        decode = words_module._decode_letters

        def counted(*args, **kwargs):
            calls.append(args[0])
            return decode(*args, **kwargs)

        monkeypatch.setattr(words_module, "_decode_letters", counted)
        w = "aTtA" * 50 + "tatT"
        assert moller_stabilization(p, w, 3) == moller_stabilization(p, parse_word(w), 3)
        assert calls == [w]

    def test_read_only_kernels_leave_the_word(self):
        w = parse_word("t a^3 T a t")  # freely reduced and pinch-free in BS(2,3)
        stored = (w._exps, w._signs)
        orbit_order(P23, w)
        orbit_order_bruteforce(P23, w)
        index_bruteforce(P23, w, 1)
        index_bruteforce(P23, w, 2)
        check_traceable(P23, w)
        t_exponent(w)
        assert equal_elements(P23, w, w)
        conjugacy_normalize_with_certificate(P23, w)
        moller_stabilization(P23, w, 3)
        element_normal_form(P23, w)
        britton_reduce(P23, w)
        format_word(w)
        trace(P23, w)
        assert (w._exps, w._signs) == stored == ((0, 3, 1, 0), (1, -1, 1))


# ---------------------------------------------------------------------------
# parse_word builds every word in one token loop, and walks the characters
# of a text only to report its error.  The character loop that once built
# words too is kept here as the reference: both must give the same word or
# the same error.


def character_loop(text):
    """``parse_word`` by a loop over the characters of text."""
    pieces: list[str] = []
    exps: list[int] = []  # the a runs closed by a t letter
    signs: list[int] = []
    acc = 0  # exponent of the open a run
    i = 0
    ln = len(text)
    while i < ln:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch not in _LETTERS:
            raise ParseError(f"unexpected character {ch!r}", i)
        tok = i
        i += 1
        exp = 1
        if i < ln and text[i] == "^":
            i += 1
            start = i
            if i < ln and text[i] in "+-":
                i += 1
            if i >= ln or text[i] not in _DIGITS:
                raise ParseError("expected integer after '^'", start)
            while i < ln and text[i] in _DIGITS:
                i += 1
            try:
                exp = int(text[start:i])
            except ValueError:  # past Python's int/str digit limit
                digits = len(text[start:i].lstrip("+-"))
                raise ParseError(f"exponent of {digits} digits too large to expand", tok) from None
        if ch in "AT":
            exp = -exp
        try:
            if ch in "aA":
                pieces.append("a" * exp if exp >= 0 else "A" * -exp)
                acc += exp
            elif exp:
                pieces.append("t" * exp if exp > 0 else "T" * -exp)
                exps.append(acc)
                acc = 0
                if exp == 1 or exp == -1:
                    signs.append(exp)
                else:  # |exp| t letters with empty a runs between them
                    signs += [1 if exp > 0 else -1] * abs(exp)
                    exps += [0] * (abs(exp) - 1)
        except (OverflowError, MemoryError):
            raise ParseError(f"exponent {exp} too large to expand", tok) from None
    exps.append(acc)
    letters = "".join(pieces)
    del pieces  # at most one more copy of the letters while the Word is built
    return Word(letters, exps, signs)


# every character str.split and str.isspace take as whitespace, sampled
_SPACES = " \t\n\x0b\x0c\r\x1c\x1f\x85\xa0\u1680\u2003\u2028\u2029\u202f\u3000"
_EXPONENTS = st.one_of(
    st.integers(-40, 40).map(str),  # zero and negative among them
    st.integers(0, 40).map(lambda e: f"+{e}"),
    st.sampled_from([
        "-0", "+0", "00", "007", "", "+", "-", "+-3", "--1", "1_0", "3x", "2^2",
        "\u00b2", "1\u0663", "\uff13",  # non-ASCII digits
        "1" + "0" * 30, "-1" + "0" * 30,  # too large to expand
        "9" * 4301,  # past the int/str digit limit
    ]),
)
_TOKENS = st.tuples(
    st.sampled_from("aAtTaAtTxb^"), st.one_of(st.none(), _EXPONENTS)
).map(lambda t: t[0] if t[1] is None else f"{t[0]}^{t[1]}")
# an empty separator glues two tokens
_SEPARATORS = st.one_of(st.just(""), st.text(alphabet=_SPACES, min_size=1, max_size=3))
_TEXTS = st.tuples(
    _SEPARATORS, st.lists(st.tuples(_TOKENS, _SEPARATORS), max_size=10)
).map(lambda t: t[0] + "".join(tok + sep for tok, sep in t[1]))
# only x and x^k tokens between spaces: every one reads through str.split
_TOKEN_TEXTS = st.lists(
    st.tuples(st.sampled_from("aAtT"), st.one_of(st.none(), st.integers(-40, 40))), max_size=12
).map(lambda toks: " ".join(ch if e is None else f"{ch}^{e}" for ch, e in toks))
# good tokens, glued or between runs of any whitespace
_GOOD_EXPONENTS = st.one_of(
    st.none(), st.integers(-40, 40).map(str), st.integers(0, 40).map(lambda e: f"+{e}")
)
_GOOD_TEXTS = st.tuples(
    _SEPARATORS,
    st.lists(st.tuples(st.sampled_from("aAtT"), _GOOD_EXPONENTS, _SEPARATORS), max_size=12),
).map(lambda t: t[0] + "".join(ch + ("" if e is None else f"^{e}") + sep for ch, e, sep in t[1]))


def _parse_outcome(parse, text):
    try:
        w = parse(text)
    except ParseError as exc:
        return ("error", str(exc), exc.offset)
    return ("word", str(w), w._exps, w._signs)


class TestParsePaths:
    @given(_TEXTS)
    @settings(max_examples=500)
    @example("a^2 t\u3000T^-3\xa0A^+0 t^0")
    @example("a^2t T")
    @example("a^\u00b2 t")
    @example("t a^" + "9" * 4301)
    @example("a t^1" + "0" * 30)
    @example("a^+-3")
    @example("t T t^1 t^-1 t^+1 T^1 T^-1 T^+1")  # every spelling of one t letter
    @example("a^1_0 t")  # int() would read 1_0 as 10
    @example("a^007 t^+1")
    @example("a^2\u3000t^-1")  # non-ASCII whitespace
    @example("t a^\u0663")  # a non-ASCII digit that int() reads
    # an exponent too large to expand, glued to a bad character
    @example("a^" + "1" * 30 + "x")
    @example("T a^-" + "1" * 30 + "^2")
    @example("t^" + "1" * 30 + "_")
    @example("a t^+" + "1" * 30 + "\u00e4 b")
    @example("t^0 T^-0 a^" + "1" * 30)  # after t tokens of no letters
    @example("a ^2")
    @example("a^")
    @example("^")
    @example("a^+ 3")
    @example("t^-")
    @example("t\x1c^2")  # a whitespace character that str.split takes
    # an exponent too large to expand, Unicode whitespace, a bad character
    @example("a^" + "1" * 30 + "\u3000x")
    # texts the split paths do not read: an exponent too large to expand
    # before non-ASCII whitespace, _ or a bad character, and non-ASCII
    # whitespace alone
    @example("a^" + "9" * 20 + "\u3000t")
    @example("a^" + "9" * 20 + "_")
    @example("t\u00a0a^2")
    @example("a^" + "9" * 20 + "x")
    def test_same_as_the_character_loop(self, text):
        want = _parse_outcome(character_loop, text)
        assert _parse_outcome(parse_word, text) == want

    @given(_TOKEN_TEXTS)
    @settings(max_examples=200)
    @example("t T t^1 t^-1 t^+1 T^1 T^-1 T^+1 a^007 A^+0")
    def test_token_text_skips_the_character_loop(self, text):
        assert _parse_outcome_without_the_walk(text) == _parse_outcome(character_loop, text)

    @given(_GOOD_TEXTS)
    @settings(max_examples=200)
    @example("aTtA")
    @example("a^2t T")
    @example("\u3000a^2\xa0t^-1\u2028")
    def test_glued_and_unicode_spaced_text_skips_the_character_loop(self, text):
        assert _parse_outcome_without_the_walk(text) == _parse_outcome(character_loop, text)

    def test_the_error_walk_builds_nothing(self):
        tracemalloc.start()
        try:
            with pytest.raises(ParseError) as exc:
                words_module._raise_first_error("a^100000000 t^100000 x")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert exc.value.offset == 21 and peak < 100_000

    @pytest.mark.parametrize("letter", "aAtT")
    def test_token_table_matches_the_int_path(self, letter, monkeypatch):
        """Every spelling of a power of one letter, up to two past the
        table's bound and with a leading zero too (``a^03``), gives the Word,
        or the error offset, that the int path gives without the table."""
        bound = words_module._SHORT_POWER
        assert {"a^16", "A^-16", "t^-1", "T^+1", "t^0"} <= words_module._TOKENS.keys()
        assert "a^17" not in words_module._TOKENS and "t^2" not in words_module._TOKENS
        spellings = [letter] + [
            f"{letter}^{sign}{zero}{k}"
            for k in range(bound + 3) for sign in ("", "+", "-") for zero in ("", "0")
        ]
        texts = []
        for tok in spellings:
            texts += [f"t {tok} a {tok} T", f"{tok}{tok}t{tok}", f"{tok} {tok} b",
                      f"{tok} a^{10**30}", f"{tok}x"]
        with_table = [_parse_outcome(parse_word, text) for text in texts]
        monkeypatch.setattr(words_module, "_TOKENS", {})
        assert [_parse_outcome(parse_word, text) for text in texts] == with_table
        assert with_table == [_parse_outcome(character_loop, text) for text in texts]


def _parse_outcome_without_the_walk(text):
    """_parse_outcome of parse_word, failing if text reaches the error walk."""

    def refuse(*args):
        raise AssertionError("text reached the error walk")

    original = words_module._raise_first_error
    words_module._raise_first_error = refuse
    try:
        return _parse_outcome(parse_word, text)
    finally:
        words_module._raise_first_error = original


# ---------------------------------------------------------------------------
# britton_reduce records its reduction on its argument and its answer; the
# closed forms read it in that group only, and the oracles never do.

nonzero = st.integers(-6, 6).filter(bool)
# two groups with different (m, n)
group_pairs = st.tuples(nonzero, nonzero, nonzero, nonzero).filter(
    lambda mn: mn[:2] != mn[2:]
).map(lambda mn: (GroupParams(*mn[:2]), GroupParams(*mn[2:])))


def record_readers(p, v, u):
    """What each reader gives on v in p (with u as the other word), an
    error as its class and text."""

    def attempt(fn, *args):
        try:
            return fn(*args)
        except WordConditionError as exc:
            return ("WordConditionError", str(exc))

    return [
        element_normal_form(p, v),
        orbit_order(p, v),
        as_power_of_a(p, v),
        attempt(check_traceable, p, v),
        attempt(trace, p, v),
        equal_elements(p, v, u),
        equal_elements(p, u, v),
    ]


class TestBrittonRecord:
    @given(group_pairs, st.one_of(words, token_text))
    @settings(max_examples=200)
    def test_readers_match_a_fresh_copy(self, pq, text):
        p, q = pq
        w = parse_word(text)
        r = britton_reduce(p, w)
        assert w._reduced is r._reduced == (p.m, p.n, r._exps, r._signs)
        for g in (p, q):
            for v, u in ((w, r), (r, w)):
                fresh = record_readers(g, parse_word(str(v)), parse_word(str(u)))
                assert record_readers(g, v, u) == fresh

    def test_record_points_at_the_answers_syllables(self):
        w = parse_word("t a^4 T a t")
        r = britton_reduce(P23, w)
        rec = r._reduced
        assert rec[2] is r._exps and rec[3] is r._signs and w._reduced is rec
        assert (list(rec[2]), list(rec[3])) == words_module.reduce_syllables(
            P23, *word_syllables(w)
        )

    def test_readers_do_not_write(self):
        w = parse_word("t a^4 T a t")
        r = britton_reduce(P2m3, w)
        element_normal_form(P23, w)
        orbit_order(P23, w)
        as_power_of_a(P23, w)
        check_traceable(P23, r)
        trace(P23, r)
        equal_elements(P23, w, r)
        assert w._reduced is r._reduced and r._reduced[:2] == (2, -3)
        assert parse_word("t a^4 T a t")._reduced is None

    @pytest.mark.parametrize("p", [P23, P24, GroupParams(2, -2), GroupParams(1, 3)])
    def test_equal_records_answer_without_reducing(self, p, monkeypatch):
        w = parse_word("a^5 t a^4 T a t A^2 T^2 a")
        r = britton_reduce(p, w)
        v = parse_word(str(w))
        britton_reduce(p, v)  # an equal record in other tuples

        def refuse(*args):
            raise AssertionError("reduced")

        monkeypatch.setattr(words_module, "reduce_syllables", refuse)
        for x, y in ((w, r), (r, w), (v, r), (w, v), (r, r)):
            assert equal_elements(p, x, y)

    def test_equality_reads_a_record_in_its_own_group_only(self):
        """The same planted record on two unequal words makes them equal in
        its group, and nowhere else."""
        w, u = parse_word("t a T"), parse_word("a")
        for v in (w, u):
            v._reduced = (2, -3, (1,), ())
        assert equal_elements(GroupParams(2, -3), w, u)
        assert not equal_elements(P23, w, u) and not equal_elements(GroupParams(-2, 3), w, u)

    @given(group_pairs, token_text, token_text, st.booleans())
    @settings(max_examples=200)
    def test_equality_with_a_record_on_one_side(self, pq, x, y, relator):
        p, q = pq
        if relator:  # y equals x in p
            y = f"{x} t a^{p.m} T a^{-p.n}"
        want = as_power_of_a(p, parse_word(x) + invert_word(parse_word(y))) == 0
        w, u = parse_word(x), parse_word(y)
        britton_reduce(p, w)
        assert equal_elements(p, w, u) == equal_elements(p, u, w) == want
        assert equal_elements(p, w, str(u)) == equal_elements(p, str(u), w) == want
        britton_reduce(q, u)  # a record in another group
        assert equal_elements(p, w, u) == equal_elements(p, u, w) == want
        if relator:
            assert want

    def test_copy_and_pickle_drop_the_record(self):
        r = britton_reduce(P23, parse_word("t a^4 T a t"))
        for v in (copy.copy(r), copy.deepcopy(r), pickle.loads(pickle.dumps(r))):
            assert v == r and (v._exps, v._signs) == (r._exps, r._signs)
            assert v._reduced is None

    @pytest.mark.parametrize(
        "p, text",
        [
            (P23, "a^5 t a^4 T a t A^2 T^2 a"),
            (P23, "T a^3 t a T a^-7 t^2"),
            (P12, "T a^3 t a^2 T^2 a t^3"),
            (GroupParams(-1, 3), "t a^6 T a T a t^2"),
        ],
    )
    def test_oracles_ignore_the_record(self, p, text):
        """A wrong record fools the closed forms but no oracle."""
        w = parse_word(text)
        r = britton_reduce(p, w)
        wrong = words_module.reduce_syllables(p, *word_syllables(parse_word("a t a^5 T t")))
        for v in (w, r):
            fresh = parse_word(str(v))
            v._reduced = (p.m, p.n, *map(tuple, wrong))
            assert element_normal_form(p, v) != element_normal_form(p, fresh)
            assert orbit_order_bruteforce(p, v) == orbit_order_bruteforce(p, fresh)
            for k in (1, 2):
                assert index_bruteforce(p, v, k) == index_bruteforce(p, fresh, k)
            assert conjugacy_normalize(p, v) == conjugacy_normalize(p, fresh)
            assert default_scan_bound(p, v) == default_scan_bound(p, fresh)
            if abs(p.m) == 1:
                assert bs1n_matrix(p, v) == bs1n_matrix(p, fresh)
                assert bs1n_normal_form(p, v) == bs1n_normal_form(p, fresh)
