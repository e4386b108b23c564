from itertools import product

import pytest

from catseq.core import CatalanError, ParseError, altitude_profile, validate
from catseq.lattice import (
    GridPath,
    PlusMinusSequence,
    decode_path,
    decode_pm,
    encode_path,
    encode_pm,
)
from catseq.families import FAMILIES
from catseq.ranking import enumerate_sequences

parse_path = FAMILIES["path"].parse
parse_pm, render_pm = FAMILIES["pm"].parse, FAMILIES["pm"].render


class TestGridPath:
    @pytest.mark.parametrize(
        "steps,bits",
        [("HV", "01"), ("HHHVVV", "000111"), ("HHVHVV", "001011")],
    )
    def test_encode_examples(self, steps, bits):
        assert encode_path(GridPath(steps)).bits == bits

    def test_decode_examples(self):
        assert decode_path(validate("")).steps == ""
        assert decode_path(validate("00010111")).steps == "HHHVHVVV"  # Fig 7.d
        assert decode_path(validate("0101")).steps == "HVHV"

    def test_crossing_path_rejected(self):
        with pytest.raises(CatalanError):
            GridPath("VH")
        with pytest.raises(CatalanError):
            GridPath("HVV")
        with pytest.raises(CatalanError):
            GridPath("HX")

    @pytest.mark.parametrize("steps", [("H", "V"), ["H", "V"], iter("HV"), None, 7])
    def test_steps_that_are_not_a_str_rejected(self, steps):
        with pytest.raises(CatalanError, match="steps must be a str"):
            GridPath(steps)

    def test_touching_the_diagonal_is_allowed(self):
        assert GridPath("HVHV").n == 2

    @pytest.mark.parametrize("n", range(9))
    def test_round_trips(self, n):
        for s in enumerate_sequences(n):
            p = decode_path(s)
            assert encode_path(p) == s
            assert decode_path(encode_path(p)) == p

    @pytest.mark.parametrize("n", range(9))
    def test_lead_profile_equals_altitude_profile(self, n):
        for s in enumerate_sequences(n):
            steps = decode_path(s).steps
            lead = [0]
            for ch in steps:
                lead.append(lead[-1] + (1 if ch == "H" else -1))
            assert tuple(lead) == altitude_profile(s).heights


class TestPlusMinus:
    @pytest.mark.parametrize(
        "values,bits",
        [
            ((1, 1, 1, -1, -1, -1), "000111"),
            ((1, -1, 1, -1, 1, -1), "010101"),
            ((1, -1), "01"),
        ],
    )
    def test_encode_examples(self, values, bits):
        assert encode_pm(PlusMinusSequence(values)).bits == bits

    def test_decode_examples(self):
        assert decode_pm(validate("01")).values == (1, -1)
        assert decode_pm(validate("001011")).values == (1, 1, -1, 1, -1, -1)
        assert decode_pm(validate("")).values == ()

    def test_constructor_matches_partial_sum_conditions(self):
        # brute force every ±1 word of length <= 12 and compare predicates
        for length in range(13):
            for values in product((1, -1), repeat=length):
                sums = 0
                ok = True
                for x in values:
                    sums += x
                    if sums < 0:
                        ok = False
                        break
                ok = ok and sums == 0
                if ok:
                    assert PlusMinusSequence(values).values == values
                else:
                    with pytest.raises(CatalanError):
                        PlusMinusSequence(values)

    def test_votes_reading_is_the_same_predicate(self):
        # +1 = vote for the first candidate; "never behind" = partial sums >= 0
        for s in enumerate_sequences(5):
            tally_first = 0
            tally_second = 0
            for x in decode_pm(s).values:
                if x == 1:
                    tally_first += 1
                else:
                    tally_second += 1
                assert tally_first >= tally_second
            assert tally_first == tally_second

    @pytest.mark.parametrize("n", range(9))
    def test_round_trips(self, n):
        for s in enumerate_sequences(n):
            x = decode_pm(s)
            assert encode_pm(x) == s
            assert decode_pm(encode_pm(x)) == x

    def test_rejects_bad_values(self):
        with pytest.raises(CatalanError):
            PlusMinusSequence((1, 0))
        with pytest.raises(CatalanError):
            PlusMinusSequence((1,))

    @pytest.mark.parametrize("values", [[1, -1], iter([1, -1]), (v for v in (1, -1))])
    def test_stores_any_iterable_as_a_tuple(self, values):
        x = PlusMinusSequence(values)
        assert x.values == (1, -1) and hash(x) == hash(PlusMinusSequence((1, -1)))
        assert encode_pm(x).bits == "01"

    @pytest.mark.parametrize("values", [5, None])
    def test_rejects_a_non_iterable(self, values):
        with pytest.raises(CatalanError, match=f"^values must be iterable, not {type(values).__name__}$"):
            PlusMinusSequence(values)

    @pytest.mark.parametrize(
        "values,message",
        [
            ((1, 0), "invalid value 0 at position 2"),
            ((1, "a"), "invalid value 'a' at position 2"),
            ((1, False), "invalid value False at position 2"),
            ((1, -(10**19) + 1), "invalid value -9999999999999999999 at position 2"),
            ((1, -(10**20) + 1), "invalid value -9999999999999999999... at position 2"),
            pytest.param((1, 10**5000), "invalid value 10000000000000000000... at position 2", id="5001-digits"),
        ],
    )
    def test_invalid_value_message_cuts_long_numbers(self, values, message):
        with pytest.raises(CatalanError) as info:
            PlusMinusSequence(values)
        assert str(info.value) == message and len(message) < 200

    @pytest.mark.parametrize(
        "values,message",
        [
            ((True, -1), "invalid value True at position 1"),
            ((1, -1.0), "invalid value -1.0 at position 2"),
            ((1.0, -1), "invalid value 1.0 at position 1"),
        ],
    )
    def test_rejects_values_that_are_not_plain_ints(self, values, message):
        # each equals an int, so only its type tells such a sequence from one of ints
        with pytest.raises(CatalanError) as info:
            PlusMinusSequence(values)
        assert str(info.value) == message


class TestTextForms:
    def test_path_text(self):
        assert parse_path("HHVHVV").steps == "HHVHVV"
        with pytest.raises(ParseError):
            parse_path("HHVX")

    def test_pm_text(self):
        assert parse_pm("++-+--").values == (1, 1, -1, 1, -1, -1)
        assert render_pm(parse_pm("++--")) == "++--"
        with pytest.raises(ParseError):
            parse_pm("+*")
        with pytest.raises(ParseError):
            parse_pm("+-+")
