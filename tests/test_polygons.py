import pickle
import random
import re
import tracemalloc
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catseq import polygons
from catseq.core import CatalanError, ParseError, _trusted, validate
from catseq.polygons import (
    SizeMismatchError,
    Triangulation,
    decode_polygon,
    dual_tree,
    encode_polygon,
    rebuild_triangulation,
)
from catseq.families import FAMILIES, transcode
from catseq.ranking import enumerate_sequences
from catseq.trees import Node, node_count

from oracle import crosses, cycle_lemma_word, ref_parse_pairs, ref_polygon_fault, reference, triangulations

parse_polygon, render_polygon = FAMILIES["polygon"].parse, FAMILIES["polygon"].render
read_polygon, write_polygon = FAMILIES["polygon"].read, FAMILIES["polygon"].write


def dual_word(m: int, diagonals) -> str:
    """The code of the reference's dual tree of a triangulation, its diagonals in any order and either way round."""
    return reference.tree_to_word(reference.diagonals_to_tree(m, [tuple(sorted(d)) for d in diagonals]))


class TestConstructor:
    def test_degenerate_and_triangle(self):
        assert Triangulation(2, ()).diagonals == ()
        assert Triangulation(3, ()).diagonals == ()

    def test_normalizes(self):
        assert Triangulation(5, ((3, 0), (2, 0))).diagonals == ((0, 2), (0, 3))
        assert Triangulation(5, [[0, 3], iter((0, 2))]).diagonals == ((0, 2), (0, 3))  # stored as tuples

    def test_wrong_count(self):
        with pytest.raises(CatalanError):
            Triangulation(5, ((0, 2),))
        with pytest.raises(CatalanError):
            Triangulation(3, ((0, 2),))

    def test_rejects_sides_duplicates_range_and_crossings(self):
        with pytest.raises(CatalanError):
            Triangulation(4, ((0, 1),))  # a side
        with pytest.raises(CatalanError):
            Triangulation(4, ((0, 3),))  # the root side
        with pytest.raises(CatalanError):
            Triangulation(5, ((0, 2), (0, 2)))  # duplicate
        with pytest.raises(CatalanError):
            Triangulation(5, ((0, 2), (2, 5)))  # out of range
        with pytest.raises(CatalanError):
            Triangulation(6, ((0, 2), (1, 3), (3, 5)))  # 0-2 crosses 1-3
        with pytest.raises(CatalanError):
            Triangulation(1, ())

    @pytest.mark.parametrize(
        "m,diagonals",
        [
            pytest.param(10**5000, (), id="5001-digit-side-count"),
            pytest.param(5, ((0, 10**5000), (0, 2)), id="5001-digit-vertex"),
        ],
    )
    def test_numbers_past_the_int_string_limit_are_cut(self, m, diagonals):
        with pytest.raises(CatalanError) as info:
            Triangulation(m, diagonals)
        assert len(str(info.value)) < 200 and "10000000000000000000..." in str(info.value)

    @pytest.mark.parametrize("digits", [1, 20, 21, 4300])
    def test_messages_below_the_limit_keep_their_form(self, digits):
        def short(k):
            return str(k) if len(str(k)) <= 20 else str(k)[:20] + "..."

        m = 10**digits - 7
        with pytest.raises(CatalanError) as info:
            Triangulation(m, ((0, 2),) * 2)
        assert str(info.value) == f"a {short(m)}-gon triangulation needs {short(m - 3)} diagonals, got 2"
        with pytest.raises(CatalanError) as info:
            Triangulation(5, ((0, 2), (-m, 1)))
        assert str(info.value) == f"diagonal {short(-m)}-1 is outside the vertex range"

    @pytest.mark.parametrize(
        "m,diagonals",
        [("5", ()), (5, ((0, "a"), (0, 2))), (4, ((0, 2, 9),))],
    )
    def test_rejects_a_side_count_or_diagonals_that_are_not_numbers(self, m, diagonals):
        with pytest.raises(CatalanError) as info:
            Triangulation(m, diagonals)
        assert len(str(info.value)) < 200

    @pytest.mark.parametrize(
        "m,diagonals",
        [(4.0, ((0, 2),)), (4, ((0.0, 2.0),)), (3.0, ()), (4, ((True, 3),))],
    )
    def test_rejects_a_side_count_or_vertices_that_are_not_ints(self, m, diagonals):
        # each equals an int, so only its type tells it apart; render_polygon would print it as '4.0;'
        with pytest.raises(CatalanError, match="^expected an int m and diagonals that are pairs of int vertices$"):
            Triangulation(m, diagonals)

    @pytest.mark.parametrize(
        "m,diagonals,message",
        [
            (1, 7, "a polygon needs at least 2 sides"),
            (1.0, (), "a polygon needs at least 2 sides"),
            ("5", (), "expected an int m and diagonals that are pairs of int vertices"),
            (4.0, (), "expected an int m and diagonals that are pairs of int vertices"),
            (5, ((0, 2, 9),), "expected an int m and diagonals that are pairs of int vertices"),
            (5, ((0, 2.0),), "expected an int m and diagonals that are pairs of int vertices"),
            (6, ((0, 2), (0, 2), (0, 9)), "duplicate diagonal"),
            (6, ((1, 3), (0, 2), (0, 9)), "diagonal 0-9 is outside the vertex range"),
            (6, ((0, 5), (0, 1), (2, 4)), "0-1 is a polygon side, not a diagonal"),
            (6, ((0, 5), (1, 3), (2, 4)), "0-5 is a polygon side, not a diagonal"),
            (6, ((4, 2), (3, 1), (0, 4)), "diagonals 1-3 and 2-4 cross"),
        ],
    )
    def test_names_the_first_of_two_faults(self, m, diagonals, message):
        # in order: a side count below 2, types, count, duplicate, the least bad diagonal by (a, b), crossing
        with pytest.raises(CatalanError) as info:
            Triangulation(m, diagonals)
        assert type(info.value) is CatalanError and str(info.value) == message

    @pytest.mark.parametrize("m", range(3, 9))
    def test_accepts_exactly_the_non_crossing_diagonal_sets(self, m):
        diagonals = [(a, b) for a, b in combinations(range(m), 2) if 2 <= b - a < m - 1]
        accepted = 0
        for chosen in combinations(diagonals, m - 3):
            non_crossing = not any(crosses(p, q) for p, q in combinations(chosen, 2))
            try:
                Triangulation(m, chosen)
            except CatalanError as exc:
                named = re.fullmatch(r"diagonals (\d+)-(\d+) and (\d+)-(\d+) cross", str(exc))
                assert not non_crossing and named
                a, b, c, d = map(int, named.groups())
                assert crosses((a, b), (c, d)) and {(a, b), (c, d)} <= set(chosen)
            else:
                assert non_crossing
                accepted += 1
        assert accepted == len(enumerate_sequences(m - 2))


class TestDualTree:
    def test_examples(self):
        assert dual_tree(Triangulation(2, ())) is None
        assert dual_tree(Triangulation(3, ())) == Node()
        fan = Triangulation(5, ((0, 2), (0, 3)))
        assert dual_tree(fan) == Node(Node(Node(), None), None)  # left chain of 3

    @pytest.mark.parametrize("m", range(2, 10))
    def test_node_count_is_triangle_count(self, m):
        for s in enumerate_sequences(m - 2):
            tri = decode_polygon(s)
            assert node_count(dual_tree(tri)) == m - 2


class TestRebuild:
    def test_examples(self):
        assert rebuild_triangulation(None, 2) == Triangulation(2, ())
        assert rebuild_triangulation(Node(), 3) == Triangulation(3, ())
        chain = Node(Node(Node(), None), None)
        assert rebuild_triangulation(chain, 5) == Triangulation(5, ((0, 2), (0, 3)))

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatchError, match="^tree has 1 nodes, a 5-gon dual needs 3$"):
            rebuild_triangulation(Node(), 5)
        with pytest.raises(SizeMismatchError, match="^tree has 0 nodes, a 3-gon dual needs 1$"):
            rebuild_triangulation(None, 3)

    @pytest.mark.parametrize("m,kind", [("x", "str"), (3.0, "float"), (True, "bool")])
    def test_a_side_count_that_is_no_int_is_refused(self, m, kind):
        # a float or a bool compares as an int, but Triangulation refuses both too
        for tree in (None, Node()):
            with pytest.raises(CatalanError, match=f"^side count must be an int, not {kind}$"):
                rebuild_triangulation(tree, m)


class TestPolygonCodec:
    def test_examples(self):
        assert encode_polygon(Triangulation(3, ())).bits == "01"
        assert encode_polygon(Triangulation(5, ((0, 2), (0, 3)))).bits == "001011"
        # two-leaf tree splits the root base at apex 2
        assert decode_polygon(validate("000111")) == Triangulation(5, ((0, 2), (2, 4)))

    @pytest.mark.parametrize("n", range(8))
    def test_round_trips_and_distinctness(self, n):
        seen = set()
        for s in enumerate_sequences(n):
            tri = decode_polygon(s)
            assert tri.m == n + 2
            assert encode_polygon(tri) == s
            assert decode_polygon(encode_polygon(tri)) == tri
            seen.add(tri.diagonals)
        assert len(seen) == len(enumerate_sequences(n))

    @pytest.mark.parametrize("n", range(8))
    def test_decoded_diagonals_never_cross(self, n):
        for s in enumerate_sequences(n):
            diags = decode_polygon(s).diagonals
            for i, (a, b) in enumerate(diags):
                for c, d in diags[i + 1 :]:
                    assert not (a < c < b < d) and not (c < a < d < b)

    @pytest.mark.parametrize("n", range(9))
    def test_matches_the_dual_tree_on_every_triangulation(self, n):
        words = set()
        for diagonals in triangulations(n + 2):
            word = dual_word(n + 2, diagonals)
            tri = Triangulation(n + 2, tuple(diagonals))
            assert encode_polygon(tri).bits == word
            assert decode_polygon(validate(word)) == tri
            words.add(word)
        assert len(words) == len(enumerate_sequences(n))

    @settings(derandomize=True, database=None, max_examples=30, deadline=None)
    @given(n=st.integers(0, 2000), seed=st.integers(0, 2**32 - 1))
    def test_matches_the_dual_tree_on_random_words(self, n, seed):
        word = cycle_lemma_word(n, random.Random(seed))
        tri = decode_polygon(validate(word))
        assert dual_word(tri.m, tri.diagonals) == word
        assert encode_polygon(tri).bits == word


class TestAgainstThePairReference:
    """decode gives the reference's diagonals, and read takes them in any order and either way round,
    as the reference's dual tree does; test_hub.py checks write and read of the canonical text for
    every n <= 9."""

    @staticmethod
    def check(s, rng):
        m = s.semilength + 2
        diagonals = reference.tree_to_diagonals(reference.word_to_tree(s.bits), m)
        assert decode_polygon(s).diagonals == tuple(diagonals)
        pairs = [(b, a) if rng.random() < 0.5 else (a, b) for a, b in diagonals]
        rng.shuffle(pairs)
        other = ",".join(f"{a}-{b}" for a, b in pairs)
        assert read_polygon(f"{m};{other}").bits == dual_word(m, ref_parse_pairs(other)) == s.bits

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
            text = reference.family_text("polygon", s.bits)
            assert write_polygon(s) == text and read_polygon(text) == s
            self.check(s, rng)


class TestTextForm:
    def test_render(self):
        assert render_polygon(Triangulation(5, ((0, 2), (0, 3)))) == "5;0-2,0-3"
        assert render_polygon(Triangulation(3, ())) == "3;"
        assert render_polygon(Triangulation(2, ())) == "2;"

    def test_parse(self):
        assert parse_polygon("5;0-2,0-3") == Triangulation(5, ((0, 2), (0, 3)))
        assert parse_polygon("3;") == Triangulation(3, ())
        assert read_polygon("5;00-2,0-03").bits == "001011"  # leading zeros, which JSON refuses

    @pytest.mark.parametrize(
        "text",
        [
            "5",
            ";",
            "x;",
            "5;0-2",
            "5;02,03",
            "4;0-2,1-3",
            "5;0-2,0:3",
            "\u00b2;",
            "4;0-\u00b2",
            pytest.param("9" * 5000 + ";", id="5000-digit-side-count"),
            pytest.param("4;0-" + "9" * 5000, id="5000-digit-vertex"),
            pytest.param("9" * 4000 + ";", id="4000-digit-side-count"),
            pytest.param("5;0-2,0-" + "9" * 4000, id="4000-digit-vertex"),
        ],
    )
    def test_parse_rejects(self, text):
        with pytest.raises(ParseError) as exc:
            parse_polygon(text)
        assert len(str(exc.value)) < 200

    @pytest.mark.parametrize(
        "text,message",
        [
            ("5;0-2,0:3", "bad diagonal '0:3', expected the form 'a-b'"),
            ("5;0-2,0-x", "bad diagonal '0-x', expected the form 'a-b'"),
            ("4;0-\u00b2", "bad diagonal '0-\u00b2', expected the form 'a-b'"),
            ("\u00b2;", "expected 'm;diagonals' with a numeric side count"),
            ("5;0-2,", "bad diagonal '', expected the form 'a-b'"),
            ("1;0-2", "bad triangulation: a polygon needs at least 2 sides"),
            ("0;", "bad triangulation: a polygon needs at least 2 sides"),
            ("6;2-4,1-3,0-9", "bad triangulation: diagonal 0-9 is outside the vertex range"),
            pytest.param(
                "4;0-" + "9" * 5000,
                "bad diagonal '0-999999999999999999'..., expected the form 'a-b'",
                id="5000-digit-vertex",
            ),
        ],
    )
    def test_parse_error_messages(self, text, message):
        with pytest.raises(ParseError) as exc:
            parse_polygon(text)
        assert str(exc.value) == message


class TestFirstFault:
    """read_polygon, Triangulation and the unpickling of a forged value name the fault that the oracle's
    brute force names first, with its exact class and message, and accept what it accepts."""

    @staticmethod
    def check(m, pairs, text=None):
        message = ref_polygon_fault(m, pairs)
        calls = [
            (lambda: encode_polygon(Triangulation(m, pairs)), CatalanError, ""),
            (lambda: encode_polygon(pickle.loads(pickle.dumps(_trusted(Triangulation, m, pairs)))), CatalanError, ""),
        ]
        if text is not None:
            calls.append((lambda: read_polygon(text), ParseError, "bad triangulation: "))
        for call, cls, prefix in calls:
            if message is None:
                assert call().bits == dual_word(m, pairs)
            else:
                with pytest.raises(CatalanError) as info:
                    call()
                assert (type(info.value), str(info.value)) == (cls, prefix + message)

    def test_every_one_edit_perturbation_up_to_n_6(self):
        # every text one deletion, insertion or substitution away from a valid one, over the text's own alphabet
        checked = 0
        for text in {write_polygon(s) for n in range(7) for s in enumerate_sequences(n)}:
            edits = {text[:i] + text[i + 1 :] for i in range(len(text))}
            edits |= {
                text[:i] + ch + text[j:] for i in range(len(text) + 1) for j in (i, i + 1) for ch in "0123456789-,;"
            }
            for edit in edits:
                head, sep, tail = edit.partition(";")
                pairs = ref_parse_pairs(tail)
                if sep and head.isascii() and head.isdigit() and pairs is not None:
                    self.check(int(head), pairs, edit)
                    checked += 1
        assert checked > 30_000

    def test_random_batch(self):
        rng = random.Random(2010)
        for _ in range(3_000):
            m = rng.randint(0, 9)
            count = max(0, m - 3) if rng.random() < 0.8 else rng.randint(0, 7)
            pairs = tuple((rng.randint(-1, m), rng.randint(0, m + 1)) for _ in range(count))
            text = f"{m};" + ",".join(f"{a}-{b}" for a, b in pairs) if all(a >= 0 for a, _ in pairs) else None
            self.check(m, pairs, text)


def test_only_the_object_api_checks_vertex_types(monkeypatch):
    # a parsed text holds ints alone, so read_polygon and the hub never run the type check, and encode_polygon
    # trusts a Triangulation, which passed it
    texts = [write_polygon(s) for n in range(7) for s in enumerate_sequences(n)]

    def outcomes():
        found = {}
        for text, dst in product(texts, FAMILIES):
            try:
                found[text, dst] = transcode("polygon", dst, text)
            except CatalanError as exc:  # a partial target refuses some words
                found[text, dst] = type(exc), str(exc)
        return found

    expected = outcomes()
    words = [read_polygon(text) for text in texts]

    def refuse(m, diagonals):
        raise RuntimeError("type check")

    monkeypatch.setattr(polygons, "_vertex_pairs", refuse)
    assert [read_polygon(text) for text in texts] == words
    assert outcomes() == expected
    tri = decode_polygon(validate("001011"))
    with pytest.raises(RuntimeError, match="^type check$"):
        Triangulation(tri.m, tri.diagonals)
    assert encode_polygon(tri).bits == "001011"


@pytest.mark.parametrize("seed", [2, 5])
def test_write_peak_memory_at_1e5_diagonals(seed):
    # measured at 13.9 MB for both seeds' 1.18 MB texts; 16 MB is 1.15x headroom
    s = validate(cycle_lemma_word(10**5, random.Random(seed)))
    tracemalloc.start()
    try:
        text = write_polygon(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) > 1_150_000 and peak < 16_000_000, peak


@pytest.mark.parametrize("seed", [2, 5])
def test_read_peak_memory_at_1e5_diagonals(seed):
    # measured at 19.1 MB (seed 2) and 18.9 MB (seed 5) for a 1.18 MB text; 24 MB is 1.25x headroom
    s = validate(cycle_lemma_word(10**5, random.Random(seed)))
    text = write_polygon(s)
    tracemalloc.start()
    try:
        word = read_polygon(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert word == s and peak < 24_000_000, peak
