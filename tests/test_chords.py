import random
import re
import tracemalloc
from itertools import combinations

import pytest

from catseq.chords import ChordDiagram, decode_chords, encode_chords
from catseq.core import CatalanError, ParseError, validate
from catseq.families import FAMILIES
from catseq.ranking import enumerate_sequences

from oracle import (
    crosses, cycle_lemma_word, first01_pairs, perfect_matchings, ref_chord_word, ref_parse_pairs, reference,
)

parse_chords, render_chords = FAMILIES["chords"].parse, FAMILIES["chords"].render
read_chords, write_chords = FAMILIES["chords"].read, FAMILIES["chords"].write


class TestConstructor:
    def test_normalizes_order(self):
        d = ChordDiagram(2, ((2, 3), (4, 1)))
        assert d.chords == ((1, 4), (2, 3))

    def test_rejects_crossing(self):
        with pytest.raises(CatalanError):
            ChordDiagram(2, ((1, 3), (2, 4)))

    def test_rejects_bad_coverage(self):
        with pytest.raises(CatalanError):
            ChordDiagram(2, ((1, 2), (2, 3)))
        with pytest.raises(CatalanError):
            ChordDiagram(1, ((1, 3),))  # point 2 missing, 3 out of pair range
        with pytest.raises(CatalanError):
            ChordDiagram(2, ((1, 2),))

    @pytest.mark.parametrize(
        "n,message",
        [
            (3, "expected 3 chords, got 0"),
            (2.5, "expected 2.5 chords, got 0"),
            (10**20 - 1, "expected 99999999999999999999 chords, got 0"),
            (10**20, "expected 10000000000000000000... chords, got 0"),
            pytest.param(10**5000, "expected 10000000000000000000... chords, got 0", id="5001-digits"),
        ],
    )
    def test_chord_count_message_cuts_long_numbers(self, n, message):
        with pytest.raises(CatalanError) as info:
            ChordDiagram(n, ())
        assert str(info.value) == message and len(message) < 200

    @pytest.mark.parametrize("chords", [((1, 2, 3),), ((1, "a"),), ((1.0, 2.0),), ((True, 2),)])
    def test_rejects_chords_that_are_not_pairs_of_ints(self, chords):
        with pytest.raises(CatalanError) as info:
            ChordDiagram(1, chords)
        assert len(str(info.value)) < 200

    @pytest.mark.parametrize(
        "n,chords,message",
        [
            # a pair list that does not sort, before the chord count
            (3, ((1, 2), ("a", "b")), "expected an int n and chords that are pairs of int labels"),
            (3, ((1, 2), (3,)), "expected an int n and chords that are pairs of int labels"),
            # the chord count, before a label or an n that is no int
            (3, ((1, 2), (3, 4.0)), "expected 3 chords, got 2"),
            (2, ((1, 2), (3, 4), (5, 6.0)), "expected 2 chords, got 3"),
            (2.5, ((1, 2),), "expected 2.5 chords, got 1"),
            # an n or a label that is no int, before the coverage and crossing checks
            (2.0, ((1, 4), (2, 3)), "expected an int n and chords that are pairs of int labels"),
            (2, ((1, 3), (2, 4.0)), "expected an int n and chords that are pairs of int labels"),
            (2, ((1, 2), (1, 2.0)), "expected an int n and chords that are pairs of int labels"),
            # a chord of two equal labels: min and max keep the first, so a float second is a repeated point
            (2, ((1, 2), (3, 3.0)), "chords must pair each of the points 1..2n exactly once"),
            (2, ((1, 2), (3.0, 3)), "expected an int n and chords that are pairs of int labels"),
            (1, ((True, 1),), "expected an int n and chords that are pairs of int labels"),
            (1, ((1, True),), "chords must pair each of the points 1..2n exactly once"),
            # the chord count, before the coverage check
            (1, ((1, 5), (2, 3)), "expected 1 chords, got 2"),
            # the coverage, before a crossing
            (2, ((1, 3), (2, 5)), "chords must pair each of the points 1..2n exactly once"),
        ],
    )
    def test_names_the_first_of_two_faults(self, n, chords, message):
        with pytest.raises(CatalanError) as info:
            ChordDiagram(n, chords)
        assert (type(info.value), str(info.value)) == (CatalanError, message)

    @pytest.mark.parametrize("n", range(6))
    def test_accepts_exactly_the_non_crossing_matchings(self, n):
        accepted = 0
        for matching in perfect_matchings(list(range(1, 2 * n + 1))):
            non_crossing = not any(crosses(p, q) for p, q in combinations(matching, 2))
            try:
                ChordDiagram(n, tuple(matching))
            except CatalanError as exc:
                named = re.fullmatch(r"chords (\d+)-(\d+) and (\d+)-(\d+) cross", str(exc))
                assert not non_crossing and named
                a, b, c, d = map(int, named.groups())
                assert crosses((a, b), (c, d)) and {(a, b), (c, d)} <= set(matching)
            else:
                assert non_crossing
                accepted += 1
        assert accepted == len(enumerate_sequences(n))


class TestCodec:
    @pytest.mark.parametrize(
        "chords,bits",
        [
            (((1, 2),), "01"),
            (((1, 4), (2, 3)), "0011"),
            (((1, 8), (2, 7), (3, 4), (5, 6)), "00010111"),
        ],
    )
    def test_encode_examples(self, chords, bits):
        assert encode_chords(ChordDiagram(len(chords), chords)).bits == bits

    @pytest.mark.parametrize(
        "bits,chords",
        [
            ("01", ((1, 2),)),
            ("0101", ((1, 2), (3, 4))),
            ("00010111", ((1, 8), (2, 7), (3, 4), (5, 6))),
            ("", ()),
        ],
    )
    def test_decode_examples(self, bits, chords):
        assert decode_chords(validate(bits)).chords == chords

    @pytest.mark.parametrize("n", range(9))
    def test_round_trips(self, n):
        for s in enumerate_sequences(n):
            d = decode_chords(s)
            assert d.n == n
            assert encode_chords(d) == s
            assert decode_chords(encode_chords(d)) == d

    @pytest.mark.parametrize("n", range(9))
    def test_first01_rule_agrees_with_parenthesis_matching(self, n):
        for s in enumerate_sequences(n):
            assert set(decode_chords(s).chords) == first01_pairs(s.bits)

    @pytest.mark.parametrize("n", range(9))
    def test_decoded_diagrams_never_cross(self, n):
        for s in enumerate_sequences(n):
            chords = decode_chords(s).chords
            for i, (a, b) in enumerate(chords):
                assert (b - a) % 2 == 1
                for c, d in chords[i + 1 :]:
                    assert not (a < c < b < d) and not (c < a < d < b)


class TestTextForm:
    def test_render(self):
        d = decode_chords(validate("00010111"))
        assert render_chords(d) == "1-8,2-7,3-4,5-6"
        assert render_chords(ChordDiagram(0, ())) == ""

    def test_parse(self):
        assert parse_chords("1-8,2-7,3-4,5-6").chords == ((1, 8), (2, 7), (3, 4), (5, 6))
        assert parse_chords("").n == 0
        assert read_chords("01-04,02-03").bits == "0011"  # leading zeros, which JSON refuses

    @pytest.mark.parametrize(
        "text",
        [
            "1-2,",
            "1:2",
            "1-2,3-x",
            "1-3,2-4",
            "0-1",
            "1-\u00b2",
            pytest.param("1-" + "9" * 5000, id="5000-digit-label"),
        ],
    )
    def test_parse_rejects(self, text):
        with pytest.raises(ParseError) as exc:
            parse_chords(text)
        assert len(str(exc.value)) < 200

    @pytest.mark.parametrize(
        "text,message",
        [
            ("1:2", "bad chord '1:2', expected the form 'i-j'"),
            ("1-2,3-x", "bad chord '3-x', expected the form 'i-j'"),
            ("1-\u00b2", "bad chord '1-\u00b2', expected the form 'i-j'"),
            ("1-2,", "bad chord '', expected the form 'i-j'"),
            pytest.param(
                "1-" + "9" * 5000,
                "bad chord '1-999999999999999999'..., expected the form 'i-j'",
                id="5000-digit-label",
            ),
        ],
    )
    def test_parse_error_messages(self, text, message):
        with pytest.raises(ParseError) as exc:
            parse_chords(text)
        assert str(exc.value) == message


def _reordered(pairs, rng) -> str:
    """The same chords in a shuffled order, each pair either way round."""
    pairs = [(b, a) if rng.random() < 0.5 else (a, b) for a, b in pairs]
    rng.shuffle(pairs)
    return ",".join(f"{a}-{b}" for a, b in pairs)


class TestAgainstThePairReference:
    """decode gives the reference's matching, and read takes its chords in any order and either way
    round; test_hub.py checks write and read of the canonical text for every n <= 9."""

    @staticmethod
    def check(s, rng):
        pairs = reference.matching(s.bits)
        assert decode_chords(s).chords == tuple(pairs)
        other = _reordered(pairs, rng)
        assert read_chords(other).bits == ref_chord_word(ref_parse_pairs(other)) == s.bits

    @pytest.mark.parametrize("n", range(10))
    def test_every_word_up_to_9(self, n):
        rng = random.Random(n)
        for s in enumerate_sequences(n):
            self.check(s, rng)

    @pytest.mark.parametrize("n", [128, 256, 512, 1024, 2048, 10**4])
    def test_random_words(self, n):
        rng = random.Random(n)
        for _ in range(3 if n < 10**4 else 1):
            s = validate(cycle_lemma_word(n, rng))
            text = reference.family_text("chords", s.bits)
            assert write_chords(s) == text and read_chords(text) == s
            self.check(s, rng)


def test_write_peak_memory_at_1e5_chords():
    # about 9 MB for a 1.23 MB text: the flat labels, one tuple of them and the text;
    # a tuple and an f-string per chord peaked at 17.9 MB
    s = validate(cycle_lemma_word(10**5, random.Random(5)))
    tracemalloc.start()
    try:
        text = write_chords(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) > 1_200_000 and peak < 13_000_000, peak


def test_read_peak_memory_at_1e5_chords():
    # about 10.6 MB for a 1.29 MB text: its separators, the JSON text and the flat labels;
    # a regular expression over the whole list first peaked at 20.4 MB
    s = validate(cycle_lemma_word(10**5, random.Random(5)))
    text = write_chords(s)
    tracemalloc.start()
    try:
        word = read_chords(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert word == s and peak < 13_000_000, peak
