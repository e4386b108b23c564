"""Non-crossing perfect matchings of 2n labeled points on a circle.

Encoding writes 0 at the smaller endpoint and 1 at the larger endpoint
of every chord.  The paper decodes by repeatedly extracting the leftmost
adjacent 0-then-1 among the positions still present, keeping original
labels.  Each pair so extracted is a 0 and the 1 that matches it as
parentheses, so decoding here is one pass of stack matching.  A chord
list is valid exactly when its word is a Catalan word, so the check that
ChordDiagram shares with the text's read pass is the pass that writes
the word.  Text and word meet through flat int lists, with no tuple per
chord: _read_chords checks, two at a time, the labels a0, b0, a1, b1, ...
that parse_pairs scans as one JSON array once the separators check, and
_write_chords formats the stack matching's labels with write_pairs.
"""

from __future__ import annotations

from itertools import chain

from .core import (
    CatalanError, CatalanSequence, _trusted, _trusted_sequence, _Value, check_text, check_type, cut_number, parse_pairs,
    parsed, sequence_bits, write_pairs,
)


def _chord_bits(n: int, labels) -> str:
    """The word of ``n`` chords from their int labels a0, b0, a1, b1, ... in one
    flat run, each pair either way round.

    A partner array shows that the labels cover 1..2n once each.  Then each
    point writes 0 as its chord opens and 1 as it closes, with a stack of
    open chords: they cross exactly when a closing point's chord (a, b) is
    not the top one (c, d), and then a < c < b < d.
    """
    points = 2 * n
    partner = [0] * (points + 1)
    labels = iter(labels)
    for a, b in zip(labels, labels):
        if not (0 < a <= points and 0 < b <= points) or a == b or partner[a] or partner[b]:
            raise CatalanError("chords must pair each of the points 1..2n exactly once")
        partner[a] = b
        partner[b] = a
    bits = []
    open_chords: list[int] = []
    for p in range(1, points + 1):
        q = partner[p]
        if q > p:
            open_chords.append(p)
            bits.append("0")
            continue
        top = open_chords.pop()
        if top != q:
            raise CatalanError(f"chords {q}-{p} and {top}-{partner[top]} cross")
        bits.append("1")
    return "".join(bits)


class ChordDiagram(_Value):
    """n non-crossing chords pairing the points 1..2n, labeled clockwise.

    Chords are stored as their word's stack matching gives them: sorted by
    smaller endpoint, each as (smaller, larger).  Rotations and reflections
    are distinct diagrams; the labels are part of the object.
    """

    __slots__ = ("n", "chords")

    def __init__(self, n: int, chords: tuple[tuple[int, int], ...]):
        try:
            labels = []
            for a, b in chords:
                labels += a, b
            if type(n) is not int or not {*map(type, labels)} <= {int}:  # a bool or float label renders apart
                labels = [*chain.from_iterable(sorted([(min(p), max(p)) for p in zip(labels[::2], labels[1::2])]))]
                if len(labels) // 2 == n and (type(n) is not int or not {*map(type, labels)} <= {int}):
                    raise TypeError  # faults in the order of the sorted (min, max) pairs: no sort, count, type
        except (TypeError, ValueError):
            raise CatalanError("expected an int n and chords that are pairs of int labels") from None
        if len(labels) // 2 != n:
            raise CatalanError(f"expected {cut_number(n)} chords, got {len(labels) // 2}")
        pairs = iter(_matching(_chord_bits(n, labels)))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "chords", tuple(zip(pairs, pairs)))


def _matching(bits: str) -> list[int]:
    """The chords of a valid word as flat labels [a0, b0, a1, b1, ...], each 1
    closing one at the latest open 0, sorted by smaller endpoint, as each
    takes its two slots when it opens."""
    labels: list[int] = []
    open_slots: list[int] = []
    for p, bit in enumerate(bits, start=1):
        if bit == "0":
            labels.append(p)
            open_slots.append(len(labels))
            labels.append(0)
        else:
            labels[open_slots.pop()] = p
    return labels


def encode_chords(d: ChordDiagram) -> CatalanSequence:
    """Position i gets 0 and position j gets 1 for every chord (i, j)."""
    check_type(d, ChordDiagram, "chord diagram")
    return _trusted_sequence(_chord_bits(d.n, chain.from_iterable(d.chords)))


def decode_chords(s: CatalanSequence) -> ChordDiagram:
    """Inverse of encode_chords: stack matching of the word."""
    labels = iter(_matching(sequence_bits(s)))
    return _trusted(ChordDiagram, s.semilength, tuple(zip(labels, labels)))


def _read_chords(text: str) -> str:
    """The word of comma-separated "i-j" pairs, e.g. "1-8,2-7,3-4,5-6"."""
    check_text(text, "chord list")
    labels = parse_pairs(text, "chord", "i-j")
    return parsed(_chord_bits, "chord diagram", len(labels) // 2, labels)


def _write_chords(bits: str) -> str:
    return write_pairs(tuple(_matching(bits)))
