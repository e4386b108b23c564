import copy
import pickle
import random
import sys
import tracemalloc
from itertools import accumulate, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catseq import trees
from catseq.core import CatalanError, ParseError, validate
from catseq.polygons import decode_polygon, dual_tree
from catseq.trees import (
    ExcessOperandsError,
    Internal,
    Node,
    NotInImageError,
    StackUnderflowError,
    decode_expression,
    decode_tree,
    encode_expression,
    encode_tree,
    extend_tree,
    internal_count,
    leaf_count,
    node_count,
    rpn_paper_decode,
    rpn_paper_encode,
    strip_leaves,
)
from catseq.ranking import enumerate_sequences
from catseq.families import FAMILIES, transcode

from oracle import brute_sequences, cycle_lemma_word, ref_encode_tree, reference

parse_tree, render_tree = FAMILIES["tree"].parse, FAMILIES["tree"].render
parse_mult, render_mult = FAMILIES["mult"].parse, FAMILIES["mult"].render
parse_rpn, render_rpn = FAMILIES["rpn"].parse, FAMILIES["rpn"].render
read_rpn, rpn_paper_read = FAMILIES["rpn"].read, FAMILIES["rpn-paper"].read

FIG7_BITS = "00010111"
FIG7_TREE = Node(Node(None, Node()), Node())  # root: left child with a right child, right child


def all_trees(max_nodes):
    for n in range(max_nodes + 1):
        for s in enumerate_sequences(n):
            yield decode_tree(s)


class TestTreeCodec:
    def test_empty_tree(self):
        assert encode_tree(None).bits == ""
        assert decode_tree(validate("")) is None

    def test_single_node(self):
        assert encode_tree(Node()).bits == "01"

    def test_two_leaf_children(self):
        assert encode_tree(Node(Node(), Node())).bits == "000111"

    def test_decode_left_left_chain(self):
        # interior "0101" is two lone left edges
        assert decode_tree(validate("001011")) == Node(Node(Node(), None), None)

    def test_decode_left_then_right(self):
        assert decode_tree(validate("001101")) == Node(Node(None, Node()), None)

    def test_decode_fig7(self):
        assert decode_tree(validate(FIG7_BITS)) == FIG7_TREE

    def test_node_count(self):
        assert node_count(None) == 0
        assert node_count(Node()) == 1
        assert node_count(decode_tree(validate(FIG7_BITS))) == 4

    @pytest.mark.parametrize("n", range(9))
    def test_round_trip_and_size_law(self, n):
        for s in enumerate_sequences(n):
            t = decode_tree(s)
            assert node_count(t) == n
            assert encode_tree(t) == s
            assert decode_tree(encode_tree(t)) == t

    @pytest.mark.parametrize("n", range(8))
    def test_matches_recursive_reference_encoder(self, n):
        for s in enumerate_sequences(n):
            assert ref_encode_tree(decode_tree(s)) == s.bits

    @pytest.mark.parametrize("n", range(1, 9))
    def test_pair_structure(self, n):
        # stripped interior decomposes into pairs with as many 00 as 11
        for s in enumerate_sequences(n):
            interior = s.bits[1:-1]
            assert len(interior) % 2 == 0
            pairs = [interior[i : i + 2] for i in range(0, len(interior), 2)]
            assert all(p in ("00", "01", "10", "11") for p in pairs)
            assert pairs.count("00") == pairs.count("11")


class TestExtendStrip:
    def test_base_cases(self):
        assert extend_tree(None) is None  # a bare leaf
        assert extend_tree(Node()) == Internal(None, None)
        assert strip_leaves(None) is None
        assert strip_leaves(Internal(None, None)) == Node()

    def test_fig7_leaf_count(self):
        e = extend_tree(decode_tree(validate(FIG7_BITS)))
        assert leaf_count(e) == 5
        assert internal_count(e) == 4

    def test_mutually_inverse_up_to_8_nodes(self):
        for t in all_trees(8):
            e = extend_tree(t)
            assert internal_count(e) == node_count(t)
            assert strip_leaves(e) == t
            assert extend_tree(strip_leaves(e)) == e

    @settings(derandomize=True, database=None, max_examples=30, deadline=None)
    @given(n=st.integers(0, 2000), seed=st.integers(0, 2**32 - 1))
    def test_mutually_inverse_on_random_words(self, n, seed):
        t = decode_tree(validate(cycle_lemma_word(n, random.Random(seed))))
        e = extend_tree(t)
        assert strip_leaves(e) == t
        assert internal_count(e) == node_count(t)


class TestExpressionCodec:
    def test_bare_factor(self):
        assert encode_expression(None).bits == ""
        assert decode_expression(validate("")) is None

    def test_single_multiplication(self):
        assert encode_expression(parse_mult("(a*a)")).bits == "01"
        assert decode_expression(validate("01")) == Internal(None, None)

    def test_paper_expression(self):
        assert encode_expression(parse_mult("(a*((a*a)*a))")).bits == "010011"

    def test_fig7_multiplication_order(self):
        e = decode_expression(validate(FIG7_BITS))
        assert leaf_count(e) == 5
        assert render_mult(e) == "((a*(a*a))*(a*a))"

    @pytest.mark.parametrize("n", range(8))
    def test_round_trip_and_size_law(self, n):
        for s in enumerate_sequences(n):
            e = decode_expression(s)
            assert internal_count(e) == n
            assert encode_expression(e) == s


class TestMultText:
    @pytest.mark.parametrize(
        "text,tree",
        [
            ("a", None),
            ("(a*a)", Internal(None, None)),
            ("(a*((a*a)*a))", Internal(None, Internal(Internal(None, None), None))),
        ],
    )
    def test_parse_render(self, text, tree):
        assert parse_mult(text) == tree
        assert render_mult(tree) == text

    def test_round_trip_on_all_small_expressions(self):
        for t in all_trees(7):
            e = extend_tree(t)
            assert parse_mult(render_mult(e)) == e

    @pytest.mark.parametrize(
        "text,position",
        [
            ("", 1),
            ("b", 1),
            ("(a a)", 3),
            ("(a*a", 5),
            ("(a*a))", 6),
            ("a)", 2),
            ("((a*a)*a", 9),
        ],
    )
    def test_syntax_errors_carry_positions(self, text, position):
        with pytest.raises(ParseError) as exc:
            parse_mult(text)
        assert exc.value.position == position

    @pytest.mark.parametrize(
        "text,message",
        [
            ("", "unexpected end of expression (position 1)"),
            ("(a a)", "expected '*' (position 3)"),
            ("a)", "trailing characters after expression (position 2)"),
            ("(b*a)", "expected '(' or 'a', found 'b' (position 2)"),
        ],
    )
    def test_syntax_error_messages(self, text, message):
        with pytest.raises(ParseError) as exc:
            parse_mult(text)
        assert str(exc.value) == message


class TestRpnText:
    def test_examples(self):
        assert parse_rpn("a") is None
        assert parse_rpn("aa*") == Internal(None, None)
        assert parse_rpn("aaa*a**") == parse_mult("(a*((a*a)*a))")
        assert render_rpn(parse_mult("(a*((a*a)*a))")) == "aaa*a**"

    def test_round_trip_on_all_small_expressions(self):
        for t in all_trees(7):
            e = extend_tree(t)
            assert parse_rpn(render_rpn(e)) == e

    def test_stack_underflow(self):
        with pytest.raises(StackUnderflowError) as exc:
            parse_rpn("a*aa*")
        assert exc.value.position == 2

    def test_excess_operands(self):
        with pytest.raises(ExcessOperandsError):
            parse_rpn("aaa*")

    def test_bad_character(self):
        with pytest.raises(ParseError):
            parse_rpn("ab*")

    def test_empty(self):
        with pytest.raises(ParseError):
            parse_rpn("")


class TestRpnPass:
    """_read_rpn's one pass over the postfix word, right to left, gives the code that the fold into nodes and the
    pair walk give, and the word bench/reference.py reads from the same text, through read_rpn and the hub alike."""

    @pytest.mark.parametrize("n", range(9))
    def test_every_word(self, n):
        for bits in brute_sequences(n):
            text = reference.family_text("rpn", bits)
            folded = trees._edge_pairs(trees._postfix(text, Internal))
            assert folded == reference.tree_to_word(reference.parse_postfix(text)) == bits
            assert read_rpn(text).bits == transcode("rpn", "sequence", text) == bits

    @pytest.mark.parametrize("shape", ["random", "deep", "flat"])
    @pytest.mark.parametrize("n", [16, 1000, 10**5])
    def test_large_words(self, shape, n):
        bits = {"random": cycle_lemma_word(n, random.Random(n)), "deep": "0" * n + "1" * n, "flat": "01" * n}[shape]
        text = reference.family_text("rpn", bits)
        assert trees._edge_pairs(trees._postfix(text, Internal)) == bits
        assert read_rpn(text).bits == transcode("rpn", "sequence", text) == bits


class TestRpnPaperCodec:
    def test_examples(self):
        assert rpn_paper_encode(None).bits == "01"
        assert rpn_paper_encode(Internal(None, None)).bits == "0011"
        assert rpn_paper_encode(parse_rpn("aaa*a**")).bits == FIG7_BITS

    def test_decode_examples(self):
        assert rpn_paper_decode(validate("01")) is None
        assert rpn_paper_decode(validate(FIG7_BITS)) == parse_rpn("aaa*a**")

    def test_not_in_image(self):
        with pytest.raises(NotInImageError):
            rpn_paper_decode(validate("010011"))
        with pytest.raises(NotInImageError):
            rpn_paper_decode(validate(""))

    def test_semilength_counts_factors(self):
        for t in all_trees(6):
            e = extend_tree(t)
            s = rpn_paper_encode(e)
            assert s.semilength == leaf_count(e)
            assert rpn_paper_decode(s) == e

    @pytest.mark.parametrize("n", range(1, 9))
    def test_image_size_is_previous_catalan(self, n):
        decodable = 0
        for s in enumerate_sequences(n):
            try:
                rpn_paper_decode(s)
                decodable += 1
            except NotInImageError:
                pass
        assert decodable == len(enumerate_sequences(n - 1))

    def test_image_characterization(self):
        # decodable exactly when the word is 0 + (valid word) + 1
        for n in range(1, 8):
            for s in enumerate_sequences(n):
                inner_valid = True
                try:
                    validate(s.bits[1:-1])
                except CatalanError:
                    inner_valid = False
                try:
                    rpn_paper_decode(s)
                    decodable = True
                except NotInImageError:
                    decodable = False
                assert decodable == (s.bits[:1] == "0" and s.bits[-1:] == "1" and inner_valid)

    @pytest.mark.parametrize("n", range(11))
    def test_write_accepts_exactly_0_D_1_for_a_brute_force_D(self, n):
        image = {f"0{d}1" for d in brute_sequences(n - 1)} if n else set()
        write = FAMILIES["rpn-paper"].write
        accepted = 0
        for s in enumerate_sequences(n):
            if s.bits in image:
                assert write(s) == s.bits[:-1].translate(str.maketrans("01", "a*"))
                accepted += 1
                continue
            whole = f"sequence {s.bits}" if n else "the empty sequence"
            with pytest.raises(NotInImageError) as info:
                write(s)
            assert str(info.value) == f"{whole} is outside the rpn-paper image"
        assert accepted == len(image)

    def test_differs_from_the_total_expression_codec(self):
        e = parse_rpn("aaa*a**")
        assert encode_expression(e).bits == "010011"
        assert rpn_paper_encode(e).bits == FIG7_BITS
        assert validate("010011") and validate(FIG7_BITS)


class TestTreeText:
    @pytest.mark.parametrize(
        "text,tree",
        [
            (".", None),
            ("(. .)", Node()),
            ("((. (. .)) (. .))", FIG7_TREE),
        ],
    )
    def test_parse_render(self, text, tree):
        assert parse_tree(text) == tree
        assert render_tree(tree) == text

    def test_round_trip_small(self):
        for t in all_trees(7):
            assert parse_tree(render_tree(t)) == t

    @pytest.mark.parametrize("text", ["", "(.)", "(. .", "(. .) ", "(x .)", "(. .))"])
    def test_rejects_malformed(self, text):
        with pytest.raises(ParseError):
            parse_tree(text)

    @pytest.mark.parametrize(
        "text,position",
        [
            ("", 1),
            ("x", 1),
            ("(.)", 3),
            ("(. .", 5),
            ("(. .))", 6),
            (". ", 2),
            ("(.  .)", 4),
            ("((. .) .", 9),
        ],
    )
    def test_syntax_errors_carry_positions(self, text, position):
        with pytest.raises(ParseError) as exc:
            parse_tree(text)
        assert exc.value.position == position

    @pytest.mark.parametrize(
        "text,message",
        [
            ("", "unexpected end of tree text (position 1)"),
            ("(.)", "expected ' ' between subtrees (position 3)"),
            ("(. .))", "trailing characters after tree (position 6)"),
            ("(x .)", "expected '(' or '.', found 'x' (position 2)"),
        ],
    )
    def test_syntax_error_messages(self, text, message):
        with pytest.raises(ParseError) as exc:
            parse_tree(text)
        assert str(exc.value) == message


INFIX_TOKENS = {"tree": ("(", ".", " ", ")"), "mult": ("(", "a", "*", ")")}


@pytest.mark.parametrize("name", ["tree", "mult"])
def test_every_short_text_gives_its_code_or_names_its_first_fault(name):
    """Every text of up to 7 symbols over the family's four tokens and 'x': an accepted one gives the code
    bench/reference.py reads from it, and a refused one names 1 + its longest prefix that begins some valid
    text, taking the prefixes from every valid text of up to 7 nodes."""
    opener, leaf, sep, closer = INFIX_TOKENS[name]
    valid = {reference.family_text(name, bits)[:k] for n in range(8) for bits in brute_sequences(n) for k in range(8)}
    read = FAMILIES[name].read
    faults = []
    for length in range(8):
        for symbols in product((opener, leaf, sep, closer, "x"), repeat=length):
            text = "".join(symbols)
            tree = reference.parse_infix(text, leaf, sep)
            if tree is False:
                want = 1 + max(k for k in range(len(text) + 1) if text[:k] in valid)
            else:
                want = reference.tree_to_word(tree)
            try:
                got = read(text).bits
            except ParseError as exc:
                got = exc.position
            if got != want:
                faults.append((text, got, want))
    assert not faults, faults[:10]


def assert_infix_texts_translate_to_the_postfix_word(s):
    """Deleting each "(" and separator, and reading the leaf as 'a' and each ")" as '*', takes tree's and mult's
    text of ``s`` to rpn's: the word _read_infix reads where the JSON scan refuses a text."""
    for name, tokens in INFIX_TOKENS.items():
        assert FAMILIES[name].write(s).translate(trees._INFIX_TO_RPN[tokens]) == FAMILIES["rpn"].write(s)


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(n=st.integers(0, 2000), seed=st.integers(0, 2**32 - 1))
def test_an_infix_text_translates_to_its_postfix_word(n, seed):
    assert_infix_texts_translate_to_the_postfix_word(validate(cycle_lemma_word(n, random.Random(seed))))


class TestDeepChains:
    CHAIN = 10_000

    def chain_bits(self, pair):
        return "0" + pair * (self.CHAIN - 1) + "1"

    @pytest.mark.parametrize("pair", ["01", "10"])
    def test_codec_tolerates_degenerate_chains(self, pair):
        s = validate(self.chain_bits(pair))
        t = decode_tree(s)
        assert node_count(t) == self.CHAIN
        assert encode_tree(t) == s
        assert t == decode_tree(s)
        assert hash(t) == hash(decode_tree(s))

    @pytest.mark.parametrize("pair", ["01", "10"])
    def test_extend_strip_and_text_forms_on_a_chain(self, pair):
        # a chain nests its infix text past the recursion limit, so the scan refuses it and the pass reads it
        limit = sys.getrecursionlimit()
        t = decode_tree(validate(self.chain_bits(pair)))
        e = extend_tree(t)
        assert strip_leaves(e) == t
        assert parse_tree(render_tree(t)) == t
        assert parse_mult(render_mult(e)) == e
        assert parse_rpn(render_rpn(e)) == e
        assert rpn_paper_decode(rpn_paper_encode(e)) == e
        assert sys.getrecursionlimit() == limit

    @pytest.mark.parametrize("pair", ["01", "10"])
    def test_a_chain_text_translates_to_its_postfix_word(self, pair):
        assert_infix_texts_translate_to_the_postfix_word(validate(self.chain_bits(pair)))

    @pytest.mark.parametrize(
        "name,pair,message",
        [
            ("tree", "01", "expected ' ' between subtrees (position 10002)"),
            ("tree", "10", "expected ' ' between subtrees (position 30000)"),
            ("mult", "01", "expected '*' (position 10002)"),
            ("mult", "10", "expected '*' (position 30000)"),
        ],
    )
    def test_a_chain_without_its_innermost_separator_names_its_first_fault(self, name, pair, message):
        opener, leaf, sep, closer = INFIX_TOKENS[name]
        text = FAMILIES[name].write(validate(self.chain_bits(pair)))
        i = text.index(opener + leaf + sep + leaf + closer)
        with pytest.raises(ParseError) as exc:
            FAMILIES[name].read(text[: i + 2] + text[i + 3 :])
        assert (str(exc.value), exc.value.position) == (message, i + 3)


def test_structural_equality_and_hash():
    assert Node() == Node()
    assert Node(Node(), None) != Node(None, Node())
    assert Node() != Internal()
    assert Internal() == Internal(None, None)
    assert hash(Node()) != hash(Internal())
    assert {Node(), Node()} == {Node()}


def test_reprs_are_textual():
    assert repr(Node()) == "Node[(. .)]"
    assert repr(Internal()) == "Internal[(a*a)]"


@pytest.mark.parametrize(
    "kind,children,message",
    [
        (Node, (5,), "Node children must be None or Node, not int"),
        (Node, ("x",), "Node children must be None or Node, not str"),
        (Node, (None, Internal()), "Node children must be None or Node, not Internal"),
        (Internal, (Node(), None), "Internal children must be None or Internal, not Node"),
    ],
)
def test_children_must_be_nodes_of_the_same_type(kind, children, message):
    with pytest.raises(CatalanError) as info:
        kind(*children)
    assert str(info.value) == message


def _folds(s):
    """Every value the library folds from a postfix word it wrote for ``s``, and the pickle and
    deepcopy round trips of its tree and expression; NotInImageError where rpn-paper refuses ``s``."""
    t, e = decode_tree(s), decode_expression(s)
    try:
        paper = rpn_paper_decode(s)
    except NotInImageError:
        paper = NotInImageError
    copies = [pickle.loads(pickle.dumps(t)), pickle.loads(pickle.dumps(e)), copy.deepcopy(t), copy.deepcopy(e)]
    return [t, e, paper, extend_tree(t), strip_leaves(e), dual_tree(decode_polygon(s)), *copies]


class _Checked(Exception):
    """Raised by the stand-in for the postfix check."""


def test_the_fold_checks_nothing_and_the_readers_check(monkeypatch):
    words = [s for n in range(7) for s in enumerate_sequences(n)]
    unpatched = [_folds(s) for s in words]

    def check(text):
        raise _Checked(text)

    monkeypatch.setattr(trees, "_postfix_bits", check)
    assert [_folds(s) for s in words] == unpatched
    for read in (read_rpn, rpn_paper_read):
        with pytest.raises(_Checked):
            read("aa*")


def balanced_text(n, tokens):
    """The infix text of the balanced tree of n nodes, whose left subtree takes half of the rest."""
    opener, leaf, sep, closer = tokens
    if not n:
        return leaf
    left = (n - 1) // 2
    return opener + balanced_text(left, tokens) + sep + balanced_text(n - 1 - left, tokens) + closer


@pytest.mark.parametrize("name", ["tree", "mult", "rpn"])
@pytest.mark.parametrize("shape", ["balanced", "deep"])
def test_read_peak_memory_at_1e5_nodes(name, shape):
    # the JSON scan of a balanced text holds its nested lists, about 10.5 MB; a text nested past the
    # recursion limit goes on to the grammar check and the rpn pass over its postfix word, about 3.2 MB.
    # The rpn pass holds a slot per operator and an int stack: 2.9 MB balanced and 2.2 MB deep
    family = FAMILIES[name]
    if shape == "balanced":
        text = balanced_text(10**5, {"tree": "(. )", "mult": "(a*)", "rpn": ("", "a", "", "*")}[name])
    else:
        text = family.write(validate(cycle_lemma_word(10**5, random.Random(2))))
        depth = max(accumulate(1 if ch == "(" else -1 if ch == ")" else 0 for ch in text))
        assert name == "rpn" or depth > sys.getrecursionlimit()
    tracemalloc.start()
    try:
        s = family.read(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = 10_000_000 if name == "rpn" else 16_000_000
    assert family.write(s) == text and len(s.bits) == 2 * 10**5 and peak < bound, peak
