"""Every check that reads a word through the prefix-balance scan, against a
per-symbol reference walk: same result, or same error class, message and
position.  The scan takes 8 symbols a step, so the words cover every
length up to 9 exhaustively and lengths 15-17 around the step edges, and a
property puts single faults deep into long words."""

import random
from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from catseq.core import (
    CatalanError,
    CatalanSequence,
    CountMismatchError,
    InvalidSymbolError,
    OddLengthError,
    ParseError,
    PrefixViolationError,
    _steps_table,
)
from catseq.families import FAMILIES, transcode
from catseq.lattice import GridPath, PlusMinusSequence
from catseq.trees import ExcessOperandsError, NotInImageError, StackUnderflowError

from oracle import cycle_lemma_word, first_fault

#: a word over '0', '1' and the bad symbol '2', as each family spells it
PATH = str.maketrans("012", "HVx")
PM = str.maketrans("012", "+-x")
RPN = str.maketrans("012", "a*x")
VOTES = {"0": 1, "1": -1, "2": 2}


def outcome(call, *args):
    """What ``call(*args)`` gives: its value, or the class, message and position of its error."""
    try:
        return call(*args)
    except CatalanError as exc:
        return type(exc), str(exc), getattr(exc, "position", None)


def expected_sequence(w):
    if len(w) % 2:
        return OddLengthError, f"length {len(w)} is odd", None
    i, balance = first_fault(w)
    if i < len(w) and w[i] == "1":
        return PrefixViolationError, f"ones exceed zeros in the prefix of length {i + 1}", i + 1
    if i < len(w):
        return InvalidSymbolError, f"invalid symbol {w[i]!r} at position {i + 1}", i + 1
    if balance:
        return CountMismatchError, f"{w.count('1')} ones vs {w.count('0')} zeros", None
    return w


def path_fault(p):
    """GridPath's message for the step word ``p``, or None when it is a path."""
    i, lead = first_fault(p, "H", "V")
    if i < len(p) and p[i] == "V":
        return f"path crosses the diagonal at step {i + 1}"
    if i < len(p):
        return f"invalid step {p[i]!r} at position {i + 1}"
    return "path does not end on the diagonal" if lead else None


def vote_fault(w):
    """PlusMinusSequence's message for the values of ``w``, or None when they are ballot values."""
    i, total = first_fault(w)
    if i < len(w) and w[i] == "1":
        return f"partial sum drops below 0 at position {i + 1}"
    if i < len(w):
        return f"invalid value 2 at position {i + 1}"
    return "values do not sum to 0" if total else None


def expected_pm_read(w):
    v = w.translate(PM)
    if "x" in v:
        return ParseError, f"expected '+' or '-', found 'x' (position {v.index('x') + 1})", v.index("x") + 1
    fault = vote_fault(w)
    return (ParseError, f"bad vote text: {fault}", None) if fault else w


def expected_postfix(r):
    if not r:
        return ParseError, "empty postfix word (position 1)", 1
    i, depth = first_fault(r, "a", "*", floor=1)
    if i < len(r) and r[i] == "*":
        return StackUnderflowError, f"operator lacks two operands (position {i + 1})", i + 1
    if i < len(r):
        return ParseError, f"expected 'a' or '*', found {r[i]!r} (position {i + 1})", i + 1
    if depth > 1:
        return ExcessOperandsError, f"{depth} values remain after the last token", None
    return None


def expected_image(w):
    if not w:
        return NotInImageError, "the empty sequence is outside the rpn-paper image", None
    if first_fault(w[1:-1]) != (len(w) - 2, 0):
        return NotInImageError, f"sequence {w} is outside the rpn-paper image", None
    return w[:-1].translate(RPN)


def check_word(w):
    """Run ``w``, spelt in each family, through every scanned check and compare with the reference."""
    path, pm, rpn, rpn_paper = (FAMILIES[name] for name in ("path", "pm", "rpn", "rpn-paper"))
    assert outcome(lambda: CatalanSequence(w).bits) == expected_sequence(w)

    p = w.translate(PATH)
    fault = path_fault(p)
    assert outcome(lambda: GridPath(p).steps) == ((CatalanError, fault, None) if fault else p)
    assert outcome(lambda: path.read(p).bits) == ((ParseError, f"bad path text: {fault}", None) if fault else w)

    fault = vote_fault(w)
    values = tuple(VOTES[ch] for ch in w)
    assert outcome(lambda: PlusMinusSequence(values).values) == ((CatalanError, fault, None) if fault else values)
    assert outcome(lambda: pm.read(w.translate(PM)).bits) == expected_pm_read(w)

    r = w.translate(RPN)
    error = expected_postfix(r)
    assert outcome(lambda: rpn_paper.read(r).bits) == (error or w + "1")
    assert outcome(lambda: rpn.write(rpn.read(r))) == (error or r)

    if isinstance(expected_sequence(w), str):
        assert outcome(rpn_paper.write, CatalanSequence(w)) == expected_image(w)


def test_the_step_table_holds_every_word_of_8_symbols():
    """Each word maps to its end balance and its lowest balance, the empty prefix's 0 included."""
    table = _steps_table()
    assert len(table) == 256
    for symbols in product("01", repeat=8):
        heights = [0]
        for ch in symbols:
            heights.append(heights[-1] + (1 if ch == "0" else -1))
        assert table["".join(symbols)] == (heights[-1], min(heights))


def test_every_word_up_to_length_9():
    words = 0
    for length in range(10):
        for symbols in product("012", repeat=length):
            check_word("".join(symbols))
            words += 1
    assert words == 29_524


def test_words_around_the_step_edges():
    """Lengths 7-9 and 15-17 end just before, on and just after a step edge; each
    valid word there, and each of its one-symbol changes, meets every check."""
    rng = random.Random(17)
    for length in (7, 8, 9, 15, 16, 17):
        for _ in range(6):
            word = cycle_lemma_word(length // 2, rng) + "0" * (length % 2)
            check_word(word)
            for pos in range(length):
                for ch in "012":
                    check_word(word[:pos] + ch + word[pos + 1 :])
        for _ in range(300):
            check_word("".join(rng.choices("012", weights=(10, 9, 1), k=length)))


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(
    n=st.integers(0, 2000),
    seed=st.integers(0, 2**32 - 1),
    at=st.integers(0, 4000),
    edit=st.sampled_from(["0", "1", "2", "delete", "insert 0", "insert 1", "insert 2"]),
)
def test_one_edit_deep_in_a_long_word(n, seed, at, edit):
    word = cycle_lemma_word(n, random.Random(seed))
    at %= len(word) + 1
    if edit == "delete":
        word = word[:at] + word[at + 1 :]
    elif edit.startswith("insert"):
        word = word[:at] + edit[-1] + word[at:]
    else:
        word = word[:at] + edit + word[at + 1 :]
    check_word(word)


def test_a_literal_0_or_1_stays_a_bad_symbol():
    cases = [
        (lambda: transcode("path", "sequence", "0011"), "bad path text: invalid step '0' at position 1"),
        (lambda: GridPath("H1"), "invalid step '1' at position 2"),
        (lambda: transcode("pm", "sequence", "+1-0"), "expected '+' or '-', found '1' (position 2)"),
        (lambda: transcode("votes", "sequence", "0"), "expected '+' or '-', found '0' (position 1)"),
        (lambda: transcode("rpn-paper", "sequence", "a0a*"), "expected 'a' or '*', found '0' (position 2)"),
        (lambda: transcode("rpn-paper", "sequence", "1"), "expected 'a' or '*', found '1' (position 1)"),
        (lambda: transcode("rpn", "sequence", "aa1"), "expected 'a' or '*', found '1' (position 3)"),
    ]
    for call, message in cases:
        assert outcome(call)[1] == message

