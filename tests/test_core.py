import os
import random
import subprocess
import sys
from pathlib import Path
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from catseq import core, counting, families, lattice, polygons, ranking
from catseq.core import (
    CapExceededError,
    CatalanError,
    CatalanSequence,
    CountMismatchError,
    IndexOutOfRangeError,
    InvalidSymbolError,
    OddLengthError,
    ParseError,
    PrefixViolationError,
    altitude_profile,
    validate,
)
from catseq.ranking import enumerate_sequences, iter_sequences, random_uniform, rank, sequence_count, unrank

from oracle import (
    ballot, ballot_rows, brute_closings, brute_sequences, ranked_word, ref_parse_pairs, reference, word_rank,
)

PAPER_N3 = ["000111", "001011", "001101", "010011", "010101"]

#: random_uniform(n, seed).bits read as a binary number, in hex.  The
#: seed-to-word map is part of the interface: a change to the table or to
#: the draw that moves any of these moves every caller's samples.
PINNED_SAMPLES = {
    (50, 1): "33248503bbdb12fed8b3c9b3",
    (50, 2): "4d860e3a00d17db77a968f9f",
    (200, 1): (
        "427925cb715425b17a223a76079c1f87ae443dc479ed08ec5df32a2156aa0d55"
        "42c23ae720e9ab66bd69aedc7004a5decbfd"
    ),
    (200, 2): (
        "4433c91c1a00a96ee91732c3bf70b0047bac8e071ef56f2f4a2da421c1e6efa9"
        "7e2a625cf0e258faf3690bd28a20c7b6bbb7"
    ),
    (266, 1): (
        "750841861109681959523d0e1d1ada7adf49d6dd48836ed89052000d9d67f79a"
        "0231646f2e0d665edcc6e86073d97e9c2caeaa3afeffc5bbe688c9f28e5afa72"
        "6b67"
    ),
    (266, 2): (
        "311005ef2816d41820f502add6b04a3b71293ee1eabf8452a4a24dbf2fcc25d3"
        "0cbf068a07f3325909f8b8a54fff312b65633bd19c7b6c70c2502f7cd1f89be9"
        "4edd7"
    ),
}


class TestValidate:
    def test_is_the_constructor(self):
        assert validate is CatalanSequence

    def test_paper_example(self):
        assert validate("000111").semilength == 3

    def test_empty_word_is_valid(self):
        assert validate("").semilength == 0

    def test_prefix_violation_reports_first_bad_prefix(self):
        with pytest.raises(PrefixViolationError) as exc:
            validate("0110")
        assert exc.value.position == 3
        assert str(exc.value) == "ones exceed zeros in the prefix of length 3"

    def test_odd_length(self):
        with pytest.raises(OddLengthError):
            validate("010")

    def test_count_mismatch(self):
        # prefixes all fine, totals differ
        with pytest.raises(CountMismatchError) as exc:
            validate("0001")
        assert str(exc.value) == "1 ones vs 3 zeros" and exc.value.position is None

    def test_invalid_symbol(self):
        with pytest.raises(InvalidSymbolError) as exc:
            validate("0a01")
        assert str(exc.value) == "invalid symbol 'a' at position 2" and exc.value.position == 2

    def test_sequence_is_immutable(self):
        s = validate("01")
        with pytest.raises(AttributeError):
            s.bits = "10"

    @pytest.mark.parametrize("n", range(6))
    def test_agrees_with_brute_predicate(self, n):
        # acceptance iff both defining conditions, over every word
        from itertools import product

        for word in ("".join(w) for w in product("01", repeat=2 * n)):
            if reference.is_dyck(word):
                assert validate(word).bits == word
            else:
                with pytest.raises(core.CatalanError):
                    validate(word)


class TestAltitudeProfile:
    @pytest.mark.parametrize(
        "bits,heights",
        [
            ("01", (0, 1, 0)),
            ("0011", (0, 1, 2, 1, 0)),
            ("001011", (0, 1, 2, 1, 2, 1, 0)),
            ("", (0,)),
        ],
    )
    def test_examples(self, bits, heights):
        assert altitude_profile(validate(bits)).heights == heights

    @pytest.mark.parametrize("n", range(8))
    def test_shape_invariants(self, n):
        for s in enumerate_sequences(n):
            hs = altitude_profile(s).heights
            assert len(hs) == 2 * n + 1
            assert hs[0] == 0 and hs[-1] == 0
            assert min(hs) >= 0

    # the last two equal int profiles, but a bool or float height renders apart
    NOT_PROFILES = [(0, 2, 0), (0, -1, 0), (0, 1), (1, 0), (), (0, 1.0, 0), (0, True, 0)]

    @pytest.mark.parametrize("heights", NOT_PROFILES)
    def test_rejects_non_profiles(self, heights):
        with pytest.raises(core.CatalanError) as info:
            core.AltitudeProfile(heights)
        assert len(str(info.value)) < 200

    @pytest.mark.parametrize("heights", [[0, 1, 0], iter((0, 1, 0)), range(1)])
    def test_stores_any_iterable_as_a_tuple(self, heights):
        profile = core.AltitudeProfile(heights)
        assert type(profile.heights) is tuple and hash(profile) == hash(core.AltitudeProfile(tuple(profile.heights)))

    @pytest.mark.parametrize("n", range(9))
    def test_peak_is_the_highest_height_and_the_mountain_rows(self, n):
        from catseq.render import render_mountain

        for s in enumerate_sequences(n):
            profile = altitude_profile(s)
            assert profile.peak == max(profile.heights)
            assert len(render_mountain(s)) == profile.peak

    @pytest.mark.parametrize("heights", [5, None])
    def test_rejects_a_non_iterable(self, heights):
        with pytest.raises(core.CatalanError, match="^heights must start and end at 0"):
            core.AltitudeProfile(heights)

    def test_rejects_non_profiles_under_optimization(self):
        script = (
            "from catseq.core import AltitudeProfile, CatalanError\n"
            f"for heights in {self.NOT_PROFILES!r}:\n"
            "    try:\n"
            "        AltitudeProfile(heights)\n"
            "    except CatalanError:\n"
            "        continue\n"
            "    raise SystemExit(f'accepted {heights}')\n"
        )
        src = str(Path(core.__file__).parents[1])
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}
        )
        assert (proc.returncode, proc.stderr) == (0, "")


class TestEnumerate:
    def test_n0(self):
        assert [s.bits for s in enumerate_sequences(0)] == [""]

    def test_n3_matches_paper_listing(self):
        assert [s.bits for s in enumerate_sequences(3)] == PAPER_N3

    def test_n2_matches_brute_force(self):
        assert brute_sequences(2) == ["0011", "0101"]
        assert [s.bits for s in enumerate_sequences(2)] == ["0011", "0101"]

    @pytest.mark.parametrize("n", range(9))
    def test_equals_brute_force_filter(self, n):
        assert [s.bits for s in enumerate_sequences(n)] == brute_sequences(n)

    @pytest.mark.parametrize("n", range(11))
    def test_lexicographic_and_boundary_shape(self, n):
        words = [s.bits for s in enumerate_sequences(n)]
        assert words == sorted(words)
        for w in words:
            if w:
                assert w[0] == "0" and w[-1] == "1"

    def test_cap(self, monkeypatch):
        with pytest.raises(CapExceededError):
            enumerate_sequences(ranking.ENUMERATION_CAP + 1)
        monkeypatch.setattr(ranking, "ENUMERATION_CAP", 5)
        assert len(enumerate_sequences(5)) == 42
        with pytest.raises(CapExceededError, match="^semilength 6 exceeds the enumeration cap 5$"):
            enumerate_sequences(6)

    def test_negative(self):
        with pytest.raises(core.CatalanError):
            enumerate_sequences(-1)


#: ``count`` and the tracemalloc peak of ``{run}``, after ``{setup}``, in a fresh process,
#: so that the closings table is first built inside the traced region
_TRACED = """
import tracemalloc
{setup}
tracemalloc.start()
{run}
print(count, tracemalloc.get_traced_memory()[1])
"""


def traced_in_a_fresh_process(setup: str, run: str) -> tuple[int, int]:
    src = str(Path(core.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-c", _TRACED.format(setup=setup, run=run)], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.stderr == ""
    count, peak = map(int, proc.stdout.split())
    return count, peak


class TestIterSequences:
    # n <= 6 reads its whole word from the closings table, n = 7 exactly fills
    # it, and n >= 8 takes a prefix of 2n - 14 symbols: every change of prefix
    # up to n = 12, where the prefix holds 10 symbols, is checked against unrank
    @pytest.mark.parametrize("n", range(13))
    def test_same_words_as_unranking_every_index(self, n):
        assert [s.bits for s in iter_sequences(n)] == [unrank(n, k).bits for k in range(sequence_count(n))]

    @pytest.mark.parametrize("n", range(13))
    def test_each_batch_is_every_word_of_one_prefix(self, n):
        cut = max(0, 2 * n - ranking._BATCH)
        batches = list(ranking._successors(n))  # (prefix, closings) pairs: the walk builds no sequence
        assert all(type(prefix) is str and len(prefix) == cut and type(ends) is list for prefix, ends in batches)
        words = [prefix + end for prefix, ends in batches for end in ends]
        prefixes = [prefix for prefix, _ in batches]
        assert prefixes == sorted({w[:cut] for w in words}) and words == [s.bits for s in iter_sequences(n)]
        # consecutive prefixes first differ at every symbol but the first, which stays '0'
        changed = {next(i for i, (a, b) in enumerate(zip(p, q)) if a != b) for p, q in zip(prefixes, prefixes[1:])}
        assert changed == set(range(1, cut))

    @pytest.mark.parametrize("n", range(9))
    def test_same_words_as_the_brute_force_filter(self, n):
        assert [s.bits for s in iter_sequences(n)] == brute_sequences(n)

    @pytest.mark.parametrize("n", range(11))
    def test_rank_of_the_ith_word_is_i(self, n):
        for i, s in enumerate(iter_sequences(n)):
            assert rank(s) == i

    def test_yields_validated_sequences(self):
        batches = list(ranking._successors(10))
        assert len(batches) == 20  # 16,796 words: each batch is a 6-symbol prefix and its closings
        for prefix, ends in batches:
            batch = ranking._trusted_sequences(prefix, ends)
            assert type(batch) is list and len(batch) == len(ends)
            for s, end in zip(batch, ends):
                bits = CatalanSequence.bits.__get__(s)  # the slot is set
                assert bits == prefix + end and type(s) is CatalanSequence and CatalanSequence(bits) == s
                assert not hasattr(s, "__dict__") and repr(s) == f"CatalanSequence(bits={bits!r})"

    def test_first_word_comes_at_once_at_the_cap(self):
        assert next(iter_sequences(16)).bits == "0" * 16 + "1" * 16

    def test_streams_in_constant_memory(self):
        setup = "from catseq.ranking import iter_sequences"
        count, peak = traced_in_a_fresh_process(setup, "count = sum(1 for _ in iter_sequences(12))")  # keeps no word
        assert count == 208012
        assert peak < 2**20  # the list of 208,012 sequences alone takes over 20 MB

    @pytest.mark.parametrize("n,error", [(-1, core.CatalanError), (ranking.ENUMERATION_CAP + 1, CapExceededError)])
    def test_bad_semilength_raises_when_called(self, n, error):
        with pytest.raises(error):
            iter_sequences(n)  # no next(): the check is not deferred to the first word

    def test_cap_holds_at_its_boundary(self, monkeypatch):
        monkeypatch.setattr(ranking, "ENUMERATION_CAP", 6)
        assert [s.bits for s in iter_sequences(6)] == brute_sequences(6)
        with pytest.raises(CapExceededError, match="^semilength 7 exceeds the enumeration cap 6$"):
            iter_sequences(7)  # no next(): the check is not deferred to the first word

    @pytest.mark.parametrize("m", range(11))
    def test_closings_are_the_brute_force_filter(self, m):
        assert ranking._closings(m) == brute_closings(m)

    def test_closings_cache_keeps_only_the_length_it_serves(self):
        ranking._closings.cache_clear()
        enumerate_sequences(8)
        assert ranking._closings.cache_info().currsize == 1
        hits = ranking._closings.cache_info().hits
        ranking._closings(ranking._BATCH)
        assert ranking._closings.cache_info().hits == hits + 1


class TestRankUnrank:
    @pytest.mark.parametrize(
        "bits,position",
        [("000111", 0), ("010101", 4), ("0101", 1), ("", 0)],
    )
    def test_rank_examples(self, bits, position):
        assert rank(validate(bits)) == position

    def test_unrank_examples(self):
        assert unrank(3, 2).bits == "001101"
        assert unrank(0, 0).bits == ""
        assert unrank(4, 13).bits == "01010101"  # last element of enumerate(4)
        assert unrank(4, 13) == enumerate_sequences(4)[-1]

    def test_unrank_out_of_range(self):
        with pytest.raises(IndexOutOfRangeError):
            unrank(3, 5)
        with pytest.raises(IndexOutOfRangeError):
            unrank(0, 1)
        with pytest.raises(IndexOutOfRangeError):
            unrank(3, -1)

    @pytest.mark.parametrize("k", [10**5000, -(10**5000)], ids=["10**5000", "-10**5000"])
    def test_unrank_names_an_index_past_the_int_string_limit_cut(self, k):
        with pytest.raises(IndexOutOfRangeError) as exc:
            unrank(3, k)
        assert str(exc.value) == f"index {core.cut_number(k)} outside [0, 5) for semilength 3"
        assert len(str(exc.value)) < 70

    @pytest.mark.parametrize("n", range(11))
    def test_mutually_inverse_along_the_list(self, n):
        for k, s in enumerate(enumerate_sequences(n)):
            assert rank(s) == k
            assert unrank(n, k) == s

    @pytest.mark.parametrize("n", [150, 200, 300])
    def test_unrank_refuses_an_index_before_growing_the_table(self, monkeypatch, n):
        monkeypatch.setattr(ranking, "_ballot", [(1, 0, 0)])
        with pytest.raises(IndexOutOfRangeError):
            unrank(n, -1)  # C_n by the closed form, within the table's 400 symbols or past them
        assert len(ranking._ballot) == 1

    def test_a_cold_count_grows_no_table(self, monkeypatch):
        monkeypatch.setattr(ranking, "_ballot", [(1, 0, 0)])
        assert sequence_count(200) == ballot(400, 0)
        assert len(ranking._ballot) == 1

    def test_unrank_grows_a_table_set_shorter_after_its_count(self, monkeypatch):
        total = ranking._count(10)
        monkeypatch.setattr(ranking, "_ballot", [(1, 0, 0)])  # as a thread that grew a shorter copy would
        assert ranking._unrank(10, 12345, total).bits == ranked_word(10, 12345)

    def test_rank_without_materializing(self):
        # far beyond the enumeration cap
        s = unrank(60, 10**30)
        assert s.semilength == 60
        assert rank(s) == 10**30


class TestRandomUniform:
    def test_degenerate_sizes(self):
        assert random_uniform(0, 123).bits == ""
        assert random_uniform(1, 9).bits == "01"

    def test_membership_and_determinism(self):
        allowed = set(PAPER_N3)
        for seed in range(25):
            a = random_uniform(3, seed)
            assert a.bits in allowed
            assert a == random_uniform(3, seed)

    def test_all_outcomes_reachable(self):
        seen = {random_uniform(3, seed).bits for seed in range(200)}
        assert seen == set(PAPER_N3)

    @pytest.mark.parametrize("n,seed", sorted(PINNED_SAMPLES))
    def test_pinned_seed_map(self, n, seed):
        expected = format(int(PINNED_SAMPLES[n, seed], 16), f"0{2 * n}b")
        assert random_uniform(n, seed).bits == expected

    def test_lengths_share_one_table(self):
        # once the table is warm, no length builds a table of its own: past
        # its 400 rows a draw carries its count in memory linear in n
        random_uniform(266, 1)
        tracemalloc.start()
        try:
            for n in range(202, 259, 8):
                random_uniform(n, 5)
                unrank(n, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_threads_growing_the_table_agree(self, monkeypatch):
        cases = [(n, seed) for n in (*range(100, 201, 4), 202, 266) for seed in range(2)]
        expected = [random_uniform(n, seed).bits for n, seed in cases]
        orders = [random.Random(t).sample(range(len(cases)), len(cases)) for t in range(6)]

        def draw(order):
            return {i: random_uniform(*cases[i]).bits for i in order}

        monkeypatch.setattr(ranking, "_ballot", [(1, 0, 0)])  # every thread grows it anew
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=len(orders)) as pool:
                drawn = list(pool.map(draw, orders, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        for result in drawn:
            assert [result[i] for i in range(len(cases))] == expected
        assert len(ranking._ballot) == ranking._TABLE_ROWS + 1


#: semilengths on both sides of the table's last row, 400 symbols, and far past it
ACROSS_THE_TABLE = [*range(195, 206), 266, 800, 1000]


class TestAcrossTheTable:
    """The table read and the closed-form carry against ``oracle.ballot``, which shares no code with them."""

    def test_the_oracle_ballot_is_the_plain_recurrence(self):
        rows = ballot_rows(64)
        assert [[ballot(r, b) for b in range(r + 1)] for r in range(65)] == rows
        assert [row[0] for row in rows[:13:2]] == [1, 1, 2, 5, 14, 42, 132]

    @pytest.mark.parametrize("n", ACROSS_THE_TABLE)
    def test_count_unrank_rank_and_draws_match_the_oracle(self, n):
        total = ballot(2 * n, 0)
        assert sequence_count(n) == total
        for k in sorted({0, 1, total - 1, total // 2}):
            word = ranked_word(n, k)
            assert unrank(n, k).bits == word
            assert rank(validate(word)) == k
        for seed in range(2):
            word = random_uniform(n, seed).bits
            assert word == ranked_word(n, random.Random(seed).randrange(total))
            assert rank(validate(word)) == word_rank(word)

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(
        pick=st.integers(0, 450).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, ballot(2 * n, 0) - 1))),
        seed=st.integers(0, 2**30),
    )
    @example(pick=(200, ballot(400, 0) // 3), seed=1)
    @example(pick=(201, ballot(402, 0) * 2 // 3), seed=2)
    def test_random_index_on_either_side_of_the_seam(self, pick, seed):
        # the table reads the last 400 symbols a digit pair a step; n = 201 carries its first two
        n, k = pick
        word = ranked_word(n, k)
        assert unrank(n, k).bits == word
        assert rank(validate(word)) == k
        assert random_uniform(n, seed).bits == ranked_word(n, random.Random(seed).randrange(ballot(2 * n, 0)))

    def test_rank_inverts_unrank_at_the_ranking_cap(self):
        # both carries over 65,136 symbols past the table, each pinned against the other
        k = sequence_count(ranking.RANKING_CAP) // 3
        assert rank(unrank(ranking.RANKING_CAP, k)) == k

    def test_unrank_far_past_the_table_stays_small(self):
        unrank(200, 0)  # the table, grown in full
        k = sequence_count(2000) // 3
        tracemalloc.start()
        try:
            s = unrank(2000, k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert rank(s) == k
        assert len(ranking._ballot) <= ranking._TABLE_ROWS + 1

    def test_unrank_names_a_total_past_the_int_string_limit_cut(self):
        # C_7200 has 4,329 digits, past the default limit of 4,300
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            with pytest.raises(IndexOutOfRangeError) as exc:
                unrank(7200, -1)
        finally:
            sys.set_int_max_str_digits(limit)
        assert str(exc.value) == "index -1 outside [0, 62704112599728573206...) for semilength 7200"


#: the functions that rank, each with arguments of semilength RANKING_CAP + 1
OVER_THE_RANKING_CAP = [
    (sequence_count, lambda n: (n,)),
    (unrank, lambda n: (n, 0)),
    (random_uniform, lambda n: (n, 1)),
    (rank, lambda n: (validate("01" * n),)),
]


@pytest.mark.parametrize("fn,args", OVER_THE_RANKING_CAP, ids=[fn.__name__ for fn, _ in OVER_THE_RANKING_CAP])
def test_refuses_a_semilength_over_the_ranking_cap(fn, args):
    n = ranking.RANKING_CAP + 1
    with pytest.raises(CapExceededError) as info:
        fn(*args(n))
    assert str(info.value) == f"semilength {n} exceeds the ranking cap {ranking.RANKING_CAP}"


#: (function, arguments, error, the number its message names): the public calls that print a caller's
#: number in a refusal, each given one past the int-string limit, where ``str`` of it fails, or a value
#: that holds one, where ``repr`` of it fails and the message names its type
PAST_THE_LIMIT = [
    (sequence_count, (10**5000,), CapExceededError, "10000000000000000000..."),
    (unrank, (10**5000, 0), CapExceededError, "10000000000000000000..."),
    (random_uniform, (10**5000, 1), CapExceededError, "10000000000000000000..."),
    (iter_sequences, (10**5000,), CapExceededError, "10000000000000000000..."),
    (enumerate_sequences, (10**5000,), CapExceededError, "10000000000000000000..."),
    (counting.catalan_convolution, (10**5000,), CapExceededError, "10000000000000000000..."),
    (counting.catalan_series, (10**5000,), CapExceededError, "99999999999999999999..."),  # its last index
    (polygons.rebuild_triangulation, (None, 10**5000), polygons.SizeMismatchError, "10000000000000000000..."),
    (polygons.rebuild_triangulation, (None, -(10**5000)), polygons.SizeMismatchError, "-1000000000000000000..."),
    (families.resolve, (10**5000,), CatalanError, "10000000000000000000..."),
    (families.transcode, (10**5000, "tree", "."), CatalanError, "10000000000000000000..."),
    (families.transcode, ("tree", (10**5000,), "."), CatalanError, "tuple(...)"),
    (lattice.PlusMinusSequence, (((0, 10**5000),),), CatalanError, "tuple(...)"),
    (lattice.PlusMinusSequence, ([[10**5000]],), CatalanError, "list(...)"),
]


@pytest.mark.parametrize(
    "fn,args,error,number", PAST_THE_LIMIT, ids=[f"{fn.__name__}-{i}" for i, (fn, *_) in enumerate(PAST_THE_LIMIT)]
)
def test_names_a_number_past_the_int_string_limit_cut(fn, args, error, number):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(error) as info:
            fn(*args)
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(str(info.value)) < 200 and number in str(info.value)


def test_names_a_number_at_the_int_string_limit_in_full():
    n = 10**4299  # 4,300 digits, the most the default limit prints
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(CapExceededError) as info:
            sequence_count(n)
    finally:
        sys.set_int_max_str_digits(limit)
    assert str(info.value) == f"semilength 1{'0' * 4299} exceeds the ranking cap {ranking.RANKING_CAP}"


#: (function, arguments, message): a semilength or index that is not a plain
#: int, which a bool or float would pass for, and the int messages kept as they were
BAD_ARGUMENTS = [
    (unrank, (3, 1.5), "index must be an int, not float"),
    (unrank, (3, True), "index must be an int, not bool"),
    (unrank, (2.0, 1), "semilength must be an int, not float"),
    (sequence_count, (2.5,), "semilength must be an int, not float"),
    (sequence_count, (True,), "semilength must be an int, not bool"),
    (random_uniform, (2.0, 1), "semilength must be an int, not float"),
    (iter_sequences, (2.0,), "semilength must be an int, not float"),
    (enumerate_sequences, (None,), "semilength must be an int, not NoneType"),
    (unrank, (-1, 0), "semilength must be nonnegative"),
    (sequence_count, (-1,), "semilength must be nonnegative"),
    (random_uniform, (-1, 1), "semilength must be nonnegative"),
    (iter_sequences, (-1,), "semilength must be nonnegative"),
]


@pytest.mark.parametrize(
    "fn,args,message", BAD_ARGUMENTS, ids=[f"{fn.__name__}{args}" for fn, args, _ in BAD_ARGUMENTS]
)
def test_rejects_a_semilength_or_index_that_is_not_a_plain_int(fn, args, message):
    with pytest.raises(core.CatalanError) as info:
        fn(*args)
    assert (type(info.value), str(info.value)) == (core.CatalanError, message)


#: a semilength that is not a plain int: each is refused when called, before the enumeration cap
NOT_INTS = [(None, "NoneType"), ("5", "str"), (2.5, "float"), (True, "bool"), (16.0, "float")]


@pytest.mark.parametrize("fn", [iter_sequences, enumerate_sequences])
@pytest.mark.parametrize("n,name", NOT_INTS)
def test_checks_the_semilength_before_the_enumeration_cap(monkeypatch, fn, n, name):
    monkeypatch.setattr(ranking, "ENUMERATION_CAP", -2)  # every semilength is past it
    with pytest.raises(core.CatalanError) as info:
        fn(n)
    assert (type(info.value), str(info.value)) == (core.CatalanError, f"semilength must be an int, not {name}")
    with pytest.raises(core.CatalanError) as info:
        fn(-1)
    assert (type(info.value), str(info.value)) == (core.CatalanError, "semilength must be nonnegative")


#: seeds of every type random.Random reads, with the words they gave before
#: seeds were checked: each keeps its word
SEEDS = [
    (0, "01000010111011010101"),
    (7, "00110000011111001101"),
    (-7, "00110000011111001101"),
    (2**100, "00001011110101010011"),
    (True, "00010011001101101101"),
    (1.5, "00100101001011101011"),
    (-0.0, "01000010111011010101"),
    ("catseq", "00000010001111111011"),
    (b"catseq", "00000010001111111011"),
    (bytearray(b"catseq"), "00000010001111111011"),
]

#: seeds that drew from the system's entropy (None), hash by identity (NaN)
#: or made random.Random raise a bare TypeError
BAD_SEEDS = [
    (None, "seed must be an int, float, str, bytes or bytearray, not NoneType"),
    ([1], "seed must be an int, float, str, bytes or bytearray, not list"),
    ({}, "seed must be an int, float, str, bytes or bytearray, not dict"),
    (1j, "seed must be an int, float, str, bytes or bytearray, not complex"),
    (float("nan"), "seed must not be NaN"),
]


@pytest.mark.parametrize("seed,bits", SEEDS, ids=[repr(seed) for seed, _ in SEEDS])
def test_every_seed_type_keeps_its_word(seed, bits):
    assert random_uniform(10, seed).bits == bits


@pytest.mark.parametrize("seed,message", BAD_SEEDS, ids=[repr(seed) for seed, _ in BAD_SEEDS])
def test_rejects_a_seed_that_is_not_deterministic(seed, message):
    with pytest.raises(core.CatalanError) as info:
        random_uniform(3, seed)
    assert (type(info.value), str(info.value)) == (core.CatalanError, message)
    with pytest.raises(core.CatalanError, match="^semilength must be nonnegative$"):
        random_uniform(-1, seed)


def test_sequence_count_matches_enumeration():
    for n in range(11):
        assert ranking.sequence_count(n) == len(enumerate_sequences(n))


def test_catalan_sequence_equality_and_str():
    assert CatalanSequence("0011") == validate("0011")
    assert str(validate("0011")) == "0011"
    assert list(validate("01")) == ["0", "1"]
    assert len(validate("0011")) == 4


class TestParseHelpers:
    def test_parse_pairs_reads_the_empty_list_and_a_list(self):
        assert core.parse_pairs("", "chord", "i-j") == []
        assert core.parse_pairs("1-2,3-4", "chord", "i-j") == [1, 2, 3, 4]

    @pytest.mark.parametrize(
        "text,numbers",
        [
            ("01-04,02-03", [1, 4, 2, 3]),  # JSON refuses a leading zero; int reads it
            ("007-1", [7, 1]),
            ("1-2,0-0", [1, 2, 0, 0]),
        ],
    )
    def test_parse_pairs_reads_leading_zeros(self, text, numbers):
        assert core.parse_pairs(text, "chord", "i-j") == numbers

    @pytest.mark.parametrize(
        "text,message",
        [
            ("1-" + "1" * 5000, "bad chord '1-111111111111111111'..., expected the form 'i-j'"),
            ("1-2,03-" + "9" * 5000, "bad chord '03-99999999999999999'..., expected the form 'i-j'"),
            ("1-\u00b2", "bad chord '1-\u00b2', expected the form 'i-j'"),
        ],
    )
    def test_parse_pairs_names_a_label_int_refuses(self, text, message):
        with pytest.raises(ParseError) as info:
            core.parse_pairs(text, "chord", "i-j")
        assert str(info.value) == message

    @pytest.mark.parametrize("text", [",", "1-2,", "1-2,,3-4"])
    def test_parse_pairs_rejects_an_empty_part(self, text):
        with pytest.raises(ParseError, match=r"^bad chord '', expected the form 'i-j'$"):
            core.parse_pairs(text, "chord", "i-j")

    @pytest.mark.parametrize(
        "text,part",
        [("-", "'-'"), ("1-", "'1-'"), (",", "''"), ("25052", "'25052'"), ("1-2, 3-4", "' 3-4'"), ("1-2],[3-4", "'1-2]'")],
    )
    def test_parse_pairs_names_the_first_bad_part(self, text, part):
        # "-", "1-" and "," pass the separator check, and JSON finds no value to start
        with pytest.raises(ParseError) as info:
            core.parse_pairs(text, "chord", "i-j")
        assert str(info.value) == f"bad chord {part}, expected the form 'i-j'"

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(
        text=st.one_of(
            st.text(st.sampled_from([*"0123456789-,-, .e+[]\"trueNa\u00b2\u0661\n"])),
            st.lists(st.tuples(st.integers(0, 10**4), st.integers(0, 10**4))).map(
                lambda pairs: ",".join(f"{a}-{b}" for a, b in pairs)
            ),
        )
    )
    def test_parse_pairs_is_the_reference(self, text):
        pairs = ref_parse_pairs(text)
        if pairs is None:
            with pytest.raises(ParseError):
                core.parse_pairs(text, "chord", "i-j")
        else:
            assert core.parse_pairs(text, "chord", "i-j") == [v for pair in pairs for v in pair]

    def test_parsed_raises_a_constructor_error_as_a_parse_error(self):
        assert core.parsed(CatalanSequence, "word", "01") == CatalanSequence("01")
        with pytest.raises(ParseError, match=r"^bad word: length 3 is odd$") as info:
            core.parsed(CatalanSequence, "word", "001")
        assert type(info.value.__cause__) is OddLengthError and info.value.position is None


class TestSequenceFieldType:
    @pytest.mark.parametrize("bits", [["0", "1"], ("0", "1"), b"01", 5, None, ["0", "1", "1"]])
    def test_bits_that_are_not_a_str_rejected_first(self, bits):
        with pytest.raises(core.CatalanError, match=r"^bits must be a str, not \w+$"):
            CatalanSequence(bits)
        with pytest.raises(core.CatalanError, match="^bits must be a str"):
            validate(bits)

    def test_a_str_subclass_is_a_str(self):
        class Word(str):
            pass

        assert CatalanSequence(Word("01")).semilength == 1
