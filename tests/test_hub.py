import random
import re
import time
import tracemalloc
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catseq import chords, core, families, lattice, polygons, render, trees
from catseq.chords import ChordDiagram
from catseq.cli import main
from catseq.core import (
    AltitudeProfile,
    CapExceededError,
    CatalanError,
    CatalanSequence,
    DomainError,
    ParseError,
    PrefixViolationError,
    altitude_profile,
    validate,
)
from catseq.families import FAMILIES, Family, family_ids, resolve, transcode
from catseq.lattice import GridPath, PlusMinusSequence
from catseq.polygons import Triangulation
from catseq.ranking import enumerate_sequences, random_uniform, rank, sequence_count, unrank
from catseq.render import render_dot, render_mountain
from catseq.trees import NotInImageError, decode_expression, decode_tree, leaf_count, node_count

from oracle import brute_sequences, cycle_lemma_word, grid_mountain, ref_render_dot, reference

TOTAL_FAMILIES = [name for name, fam in FAMILIES.items() if fam.total]

#: by family, its object API and its write and decode; by name, every other pass that reads a typed value
TYPED_CALLS = {name: (fam.render, fam.write, fam.decode) for name, fam in FAMILIES.items()} | {
    f.__name__: (f,) for f in (rank, altitude_profile, render_mountain, render.write_dot, node_count, leaf_count)
}

#: every value type and every object codec, by the module that defines it
OBJECT_API = {
    trees: "Node Internal encode_tree decode_tree encode_expression decode_expression"
    " rpn_paper_encode rpn_paper_decode",
    lattice: "GridPath PlusMinusSequence encode_path decode_path encode_pm decode_pm",
    chords: "ChordDiagram encode_chords decode_chords",
    polygons: "Triangulation encode_polygon decode_polygon",
}


def outcome(fn, *args):
    """The result, or the error's class and message."""
    try:
        return fn(*args)
    except CatalanError as exc:
        return type(exc), str(exc)

# Numbers include digits that str.isdigit accepts but int rejects ('²',
# Arabic-Indic three) and a run past the interpreter's int-string limit.
_NUMBERS = st.one_of(
    st.integers(0, 12).map(str),
    st.sampled_from(["\u00b2", "\u0663", "1\u00b2", "9" * 4301]),
)
_PAIRS = st.lists(st.tuples(_NUMBERS, _NUMBERS).map("-".join), max_size=4).map(",".join)
_TEXTS = st.one_of(
    st.text(max_size=20),
    st.text(alphabet="01-,;()*. a+HV", max_size=20),
    _PAIRS,
    st.tuples(_NUMBERS, _PAIRS).map(";".join),
)



def _int_pairs(value) -> bool:
    return type(value) is tuple and all(
        type(pair) is tuple and len(pair) == 2 and type(pair[0]) is type(pair[1]) is int for pair in value
    )


def _rebuilt(x):
    """``x`` rebuilt through its public constructor, which checks every
    condition, after asserting that each field has exactly the type that
    constructor stores.  Trees and expressions have no checks to skip."""
    if type(x) is CatalanSequence:
        assert type(x.bits) is str
        return CatalanSequence(x.bits)
    if type(x) is GridPath:
        assert type(x.steps) is str
        return GridPath(x.steps)
    if type(x) is PlusMinusSequence:
        assert type(x.values) is tuple and all(type(v) is int for v in x.values)
        return PlusMinusSequence(x.values)
    if type(x) is ChordDiagram:
        assert type(x.n) is int and _int_pairs(x.chords)
        return ChordDiagram(x.n, x.chords)
    if type(x) is Triangulation:
        assert type(x.m) is int and _int_pairs(x.diagonals)
        return Triangulation(x.m, x.diagonals)
    if type(x) is AltitudeProfile:
        assert type(x.heights) is tuple and all(type(h) is int for h in x.heights)
        return AltitudeProfile(x.heights)
    return x


class TestTrustedOutputs:
    """The codecs build their outputs without the public constructors'
    checks; each output must still pass them, field types included."""

    @pytest.mark.parametrize("name", family_ids())
    @settings(derandomize=True, database=None, max_examples=30, deadline=None)
    @given(n=st.integers(0, 2000), seed=st.integers(0, 2**32 - 1))
    def test_decode_and_encode_outputs_pass_the_constructors(self, name, n, seed):
        word = cycle_lemma_word(n, random.Random(seed))
        if name == "rpn-paper":
            word = f"0{word}1"  # its image: 0·u·1 with u valid
        fam = FAMILIES[name]
        x = fam.decode(validate(word))
        assert _rebuilt(x) == x
        s = fam.encode(x)
        assert _rebuilt(s) == s and s.bits == word

    @settings(derandomize=True, database=None, max_examples=50, deadline=None)
    @given(n=st.integers(0, 2000), seed=st.integers(0, 2**32 - 1))
    def test_unrank_and_random_uniform_outputs_pass_the_constructor(self, n, seed):
        k = random.Random(seed).randrange(sequence_count(n))
        for s in (unrank(n, k), random_uniform(n, seed)):
            assert _rebuilt(s) == s and len(s.bits) == 2 * n

    @settings(derandomize=True, database=None, max_examples=30, deadline=None)
    @given(n=st.integers(0, 2000), seed=st.integers(0, 2**32 - 1))
    def test_altitude_profile_passes_the_constructor(self, n, seed):
        profile = altitude_profile(validate(cycle_lemma_word(n, random.Random(seed))))
        assert _rebuilt(profile) == profile and len(profile.heights) == 2 * n + 1


class TestRegistry:
    def test_closed_enumeration(self):
        assert family_ids() == [
            "sequence",
            "tree",
            "path",
            "pm",
            "chords",
            "mult",
            "rpn",
            "rpn-paper",
            "polygon",
        ]

    def test_aliases(self):
        assert resolve("ballot") is resolve("pm")
        assert resolve("votes") is resolve("pm")
        assert resolve("mountain") is resolve("sequence")

    def test_unknown_family(self):
        with pytest.raises(CatalanError):
            resolve("frieze")

    @pytest.mark.parametrize("name", [None, [], {}])
    def test_a_name_that_is_no_str_is_an_unknown_family(self, name):
        message = f"^unknown family {re.escape(repr(name))} \\(known: sequence, tree, "
        with pytest.raises(CatalanError, match=message):
            resolve(name)
        with pytest.raises(CatalanError, match=message):
            transcode(name, "tree", "x")

    def test_only_the_paper_wire_format_is_partial(self):
        assert [name for name, fam in FAMILIES.items() if not fam.total] == ["rpn-paper"]


class TestTranscode:
    def test_examples(self):
        assert transcode("pm", "path", "+++---") == "HHHVVV"
        assert transcode("tree", "chords", "((. (. .)) (. .))") == "1-8,2-7,3-4,5-6"
        assert transcode("sequence", "sequence", "001011") == "001011"

    def test_a_family_put_into_the_registry_goes_through_its_read_and_write(self, monkeypatch):
        monkeypatch.setitem(FAMILIES, "trees", FAMILIES["tree"])
        assert transcode("trees", "pm", "((. .) .)") == "++--"
        assert transcode("pm", "trees", "+-") == "(. .)"

    def test_a_warm_hub_imports_nothing(self, monkeypatch):
        """Each name's first call loads its family's word passes; after that a call only reads them."""
        names = [*FAMILIES, *families.ALIASES]
        texts = {name: transcode("sequence", name, "00010111") for name in names}  # a word in rpn-paper's image
        cases = [(src, dst, texts[src]) for src in names for dst in names] + [("mountain", "rpn-paper", "001011")]
        monkeypatch.setattr(families, "_PASSES", {})  # cold, as in a fresh process
        cold = [outcome(transcode, *case) for case in cases]

        def load(*args):
            raise AssertionError("a warm hub loaded a family")

        monkeypatch.setattr(families, "_load", load)
        monkeypatch.setattr(families, "import_module", load)
        assert [outcome(transcode, *case) for case in cases] == cold
        assert set(families._PASSES) == set(names)

    def test_partial_target_can_reject(self):
        with pytest.raises(DomainError):
            transcode("sequence", "rpn-paper", "010011")
        assert transcode("sequence", "rpn-paper", "00010111") == "aaa*a**"

    def test_parse_failure_propagates(self):
        with pytest.raises(CatalanError):
            transcode("pm", "path", "++x-")

    @pytest.mark.parametrize("name", FAMILIES)
    @pytest.mark.parametrize("text", [None, 5, b"01", ["0"]], ids=repr)
    def test_a_text_that_is_no_str_raises_a_catalan_error(self, name, text):
        fam = FAMILIES[name]
        for call in (fam.read, fam.parse, lambda t: transcode(name, "sequence", t)):
            with pytest.raises(CatalanError, match=f"must be a str, not {type(text).__name__}$"):
                call(text)

    @pytest.mark.parametrize("name", TYPED_CALLS)
    @pytest.mark.parametrize("value", [5, "HV"], ids=repr)
    def test_render_of_a_value_of_another_type_raises_a_catalan_error(self, name, value):
        # each pass reads its value's fields: an int or a str has none of them
        for call in TYPED_CALLS[name]:
            with pytest.raises(CatalanError, match=f" must be a .*, not {type(value).__name__}$"):
                call(value)

    def test_sequence_text_raises_the_validation_errors(self):
        with pytest.raises(PrefixViolationError) as info:
            transcode("sequence", "tree", "0110")
        assert not isinstance(info.value, ParseError) and info.value.position == 3

    @pytest.mark.parametrize("n", range(7))
    def test_hub_identity_over_all_total_pairs(self, n):
        for s in enumerate_sequences(n):
            texts = {}
            for name in TOTAL_FAMILIES:
                fam = FAMILIES[name]
                texts[name] = fam.render(fam.decode(s))
            for src in TOTAL_FAMILIES:
                assert transcode(src, src, texts[src]) == texts[src]
                for dst in TOTAL_FAMILIES:
                    there = transcode(src, dst, texts[src])
                    assert there == texts[dst]
                    assert transcode(dst, src, there) == texts[src]

    @pytest.mark.parametrize("name", family_ids())
    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(text=_TEXTS)
    def test_parse_returns_or_raises_only_catalan_errors(self, name, text):
        try:
            FAMILIES[name].parse(text)
        except CatalanError:
            pass

    @pytest.mark.parametrize("name", TOTAL_FAMILIES)
    @settings(derandomize=True, database=None, max_examples=30, deadline=None)
    @given(n=st.integers(0, 2000), seed=st.integers(0, 2**32 - 1))
    def test_codecs_round_trip_on_random_words(self, name, n, seed):
        s = validate(cycle_lemma_word(n, random.Random(seed)))
        fam = FAMILIES[name]
        x = fam.decode(s)
        encoded = fam.encode(x)
        assert encoded == s
        assert validate(encoded.bits) == encoded
        assert fam.parse(fam.render(x)) == x

    @pytest.mark.parametrize("name", TOTAL_FAMILIES)
    def test_text_round_trip_at_n_10000_within_budget(self, name):
        word = cycle_lemma_word(10_000, random.Random(name))
        fam = FAMILIES[name]
        start = time.perf_counter()
        text = fam.render(fam.decode(validate(word)))
        back = fam.encode(fam.parse(text)).bits
        hub_text = transcode("sequence", name, word)
        hub_back = transcode(name, "sequence", hub_text)
        elapsed = time.perf_counter() - start
        assert back == hub_back == word and hub_text == text
        assert elapsed < 1.5, f"{name} round trips at n = 10^4 took {elapsed:.2f} s"

    def test_transcode_builds_no_family_objects(self, monkeypatch):
        """No pair calls a family's parse, encode, decode or render, nor the
        module codecs and value types behind them, and no pair builds or
        unwraps a CatalanSequence: the hub moves plain words."""
        words = [w for n in range(6) for w in brute_sequences(n)]
        cases = []
        for src in FAMILIES:
            for bits in words:
                bits = f"0{bits}1" if src == "rpn-paper" else bits
                text = transcode("sequence", src, bits)
                cases += [(src, dst, text, outcome(transcode, src, dst, text)) for dst in FAMILIES]

        def built(*args, **kwargs):
            raise AssertionError("transcode built a family object or a sequence")

        monkeypatch.setattr(Family, "parse", built)
        monkeypatch.setattr(Family, "render", built)
        for name, fam in FAMILIES.items():
            monkeypatch.setitem(FAMILIES, name, Family(fam.name, fam.read, fam.write, built, built, fam.total))
        for module, names in OBJECT_API.items():
            for attr in names.split():
                monkeypatch.setattr(module, attr, built)
        monkeypatch.setattr(CatalanSequence, "__init__", built)
        for module in (core, families, trees, lattice, chords, polygons):
            for attr in ("_trusted_sequence", "sequence_bits"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, built)
        for src, dst, text, expected in cases:
            assert outcome(transcode, src, dst, text) == expected, (src, dst, text)

    @pytest.mark.parametrize("n", range(7))
    def test_semilength_is_preserved(self, n):
        for s in enumerate_sequences(n):
            for name in TOTAL_FAMILIES:
                fam = FAMILIES[name]
                assert fam.encode(fam.decode(s)) == s


class TestAgainstTheBenchReference:
    """The paper's equivalences, word by word: every family's text of every word with n <= 9 is the one
    bench/reference.py builds without catseq, and reads back to the word.  transcode is one read and one
    write, so this covers all 81 pairs."""

    @pytest.mark.parametrize("n", range(10))
    def test_every_word_in_every_family(self, n):
        for bits in brute_sequences(n):
            s = validate(bits)
            for name, family in FAMILIES.items():
                try:
                    text = family.write(s)
                except NotInImageError:
                    text = None
                if reference.expects_domain_error(name, bits):
                    assert text is None, (name, bits)
                else:
                    assert text == reference.family_text(name, bits) and family.read(text) == s, (name, bits)

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(
        src=st.sampled_from(family_ids()),
        dst=st.sampled_from(family_ids()),
        n=st.integers(0, 2000),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_transcode_of_random_words(self, src, dst, n, seed):
        word = cycle_lemma_word(n, random.Random(seed))
        word = f"0{word}1" if src == "rpn-paper" else word  # its image, 0·u·1
        text = reference.family_text(src, word)
        if reference.expects_domain_error(dst, word):
            with pytest.raises(NotInImageError):
                transcode(src, dst, text)
        else:
            assert transcode(src, dst, text) == reference.family_text(dst, word)

    @pytest.mark.parametrize("src", family_ids())
    def test_malformed_texts_are_refused_by_the_hub_and_the_cli(self, src, capsys):
        rng = random.Random(src)
        for _ in range(60):
            word = cycle_lemma_word(rng.randrange(40), rng)
            word = f"0{word}1" if src == "rpn-paper" else word
            text, dst = reference.malformed_text(src, word, rng), rng.choice(family_ids())
            with pytest.raises(CatalanError):
                transcode(src, dst, text)
            code = main(["transcode", "--from", src, "--to", dst, f"--input={text}"])
            err = capsys.readouterr().err
            assert code == 1 and err.startswith("catseq: error: ") and "Traceback" not in err, (text, err)

    @pytest.mark.parametrize("name", ["tree", "mult"])
    def test_infix_readers_take_exactly_the_reference_texts(self, name):
        # every text of up to 7 symbols over the four tokens and a whitespace that JSON would skip
        leaf, sep, blank = {"tree": ". \n", "mult": "a* "}[name]
        read = FAMILIES[name].read
        for length in range(8):
            for symbols in product(f"({leaf}{sep}){blank}", repeat=length):
                text = "".join(symbols)
                tree = reference.parse_infix(text, leaf, sep)
                if tree is False:
                    with pytest.raises(ParseError):
                        read(text)
                else:
                    assert read(text).bits == reference.tree_to_word(tree), text

    @pytest.mark.parametrize("name", ["tree", "mult"])
    def test_infix_readers_refuse_a_blank_at_every_position(self, name):
        # "\t" and "\r" are whitespace the JSON scan would skip, "\x0c" and "\u3000" blanks it would not
        leaf, sep = {"tree": ". ", "mult": "a*"}[name]
        read = FAMILIES[name].read
        for n in range(5):
            for bits in brute_sequences(n):
                text = reference.family_text(name, bits)
                for blank, i in product("\t\r\x0c\u3000", range(len(text) + 1)):
                    bad = text[:i] + blank + text[i:]
                    assert reference.parse_infix(bad, leaf, sep) is False, bad
                    with pytest.raises(ParseError):
                        read(bad)


class TestMountain:
    def test_single_peak(self):
        assert render_mountain(validate("01")) == ["/\\"]

    def test_two_levels(self):
        assert render_mountain(validate("0011")) == [" /\\", "/  \\"]

    def test_flat_ripple(self):
        assert render_mountain(validate("010101")) == ["/\\/\\/\\"]

    def test_empty(self):
        assert render_mountain(validate("")) == []

    def test_fig7(self):
        # altitude profile 0,1,2,3,2,3,2,1,0: glyphs at the band they move through
        assert render_mountain(validate("00010111")) == [
            "  /\\/\\",
            " /    \\",
            "/      \\",
        ]

    @pytest.mark.parametrize("n", range(7))
    def test_glyph_counts_and_width(self, n):
        for s in enumerate_sequences(n):
            lines = render_mountain(s)
            joined = "".join(lines)
            assert joined.count("/") == n and joined.count("\\") == n
            assert all(len(line) <= 2 * n for line in lines)

    def test_cap_holds_at_its_boundary(self, monkeypatch):
        s = validate("0000" + "1111" + "01" * 4)  # 4 rows of 16 columns
        monkeypatch.setattr(render, "MOUNTAIN_CAP", 64)
        assert len(render_mountain(s)) == 4
        monkeypatch.setattr(render, "MOUNTAIN_CAP", 63)
        with pytest.raises(CapExceededError, match="^a mountain of 4 rows by 16 columns exceeds the cap of 63 cells$"):
            render_mountain(s)

    @pytest.mark.parametrize("n", range(8))
    def test_same_lines_as_the_full_grid_every_word(self, n):
        for s in enumerate_sequences(n):
            assert render_mountain(s) == grid_mountain(s.bits)

    @pytest.mark.parametrize("n", [64, 500, 2048])
    def test_same_lines_as_the_full_grid_random_words(self, n):
        rng = random.Random(n)
        for _ in range(3):
            word = cycle_lemma_word(n, rng)
            assert render_mountain(validate(word)) == grid_mountain(word)

    def test_draws_the_cap_grid_in_little_memory(self):
        # 1,024 rows of 4,096 columns, 2^22 cells: the largest grid of that peak the cap lets by
        word = "0" * 1024 + "1" * 1024 + "01" * 1024
        s = validate(word)
        tracemalloc.start()
        try:
            lines = render_mountain(s)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000  # the lines take 1.6 MB; a grid of one-character strings took 35 MB
        assert lines == grid_mountain(word)

    def test_refuses_a_grid_over_the_cap_before_building_it(self):
        # 1,024 rows of 4,098 columns: the first grid of that peak past 2^22 cells
        s = validate("0" * 1024 + "1" * 1024 + "01" * 1025)
        tracemalloc.start()
        try:
            with pytest.raises(CapExceededError, match="^a mountain of 1024 rows by 4098 columns exceeds"):
                render_mountain(s)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000  # the grid would hold 4 * 10^6 cells


class TestDot:
    def test_empty_graph(self):
        assert render_dot(None) == "digraph tree {\n}"

    def test_single_node(self):
        assert render_dot(decode_tree(validate("01"))) == "digraph tree {\n  v0;\n}"

    def test_left_left_chain(self):
        assert render_dot(decode_tree(validate("001011"))) == (
            "digraph tree {\n"
            "  v0;\n  v1;\n  v2;\n"
            "  v0 -> v1 [label=L];\n"
            "  v1 -> v2 [label=L];\n"
            "}"
        )

    def test_left_then_right(self):
        assert render_dot(decode_tree(validate("001101"))) == (
            "digraph tree {\n"
            "  v0;\n  v1;\n  v2;\n"
            "  v0 -> v1 [label=L];\n"
            "  v1 -> v2 [label=R];\n"
            "}"
        )

    def test_deterministic(self):
        s = validate("00010111")
        assert render_dot(decode_tree(s)) == render_dot(decode_tree(s))

    def test_a_value_that_is_no_tree_raises_a_catalan_error(self):
        for call, value in ((trees.encode_tree, 5), (render_dot, "x")):
            message = f"^tree must be a Node, an Internal or None, not {type(value).__name__}$"
            with pytest.raises(CatalanError, match=message):
                call(value)

    @pytest.mark.parametrize("n", range(9))
    def test_the_word_writer_is_the_object_walk(self, n):
        for bits in brute_sequences(n):
            s = validate(bits)
            tree, expression = decode_tree(s), decode_expression(s)
            assert render.write_dot(s) == ref_render_dot(tree) == ref_render_dot(expression)
            assert render_dot(tree) == render_dot(expression) == render.write_dot(s)

    @pytest.mark.parametrize("n", [128, 2048, 10**4])
    def test_the_word_writer_is_the_object_walk_at_large_n(self, n):
        s = validate(cycle_lemma_word(n, random.Random(n)))
        assert render.write_dot(s) == ref_render_dot(decode_tree(s))
