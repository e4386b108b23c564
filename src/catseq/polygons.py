"""Triangulations of a convex polygon and their dual binary trees.

The polygon has m = n + 2 sides, vertices 0..m-1 labeled clockwise, and
a marked root side (0, m-1).  Each triangle becomes a tree node; the
node on the root side is the root, and a node's left / right children
are the triangles across its (a, c) / (c, b) edges, apex c on base
(a, b).  The degenerate two-sided polygon stands in for n = 0.

The codec is the tree codec of the dual tree, worked straight on the
word, and dual_tree and rebuild_triangulation go through it.  A diagonal
set is valid exactly when it has a dual tree, so the check Triangulation
and encode_polygon share with read_polygon, on the flat ints that
parse_pairs scans after the ';', is the pass that writes the word.  It
sorts one tuple per diagonal, and then each region's digit pair comes from
the region just before it, with a stack that holds only the ends of the
enclosing regions; the first fault is named apart, on the error path
alone.  decode_polygon and write_polygon share one pass over the code's
digit pairs that finds the regions as the dual tree's postfix text closes
them, with no text written.
"""

from __future__ import annotations

from itertools import chain, repeat

from .core import (
    CatalanError, CatalanSequence, ParseError, _trusted, _trusted_sequence, _Value, _whole, check_int, check_text,
    check_type, cut_number, parse_natural, parse_pairs, parsed, sequence_bits, write_pairs,
)
from .trees import BinaryTree, decode_tree, encode_tree


class MalformedTriangulationError(CatalanError):
    """A Triangulation whose diagonals changed after its check fails it now."""


class SizeMismatchError(CatalanError):
    """The tree's node count does not fit the requested polygon."""


def _vertex_pairs(m, diagonals) -> tuple[list[tuple[int, int]], list[int]]:
    """The diagonals as (smaller, larger) pairs and their vertices flat, a0, b0, a1, b1, ...; nothing when m < 2
    so that the check names that first.  CatalanError unless m and the vertices are ints.  Only the object API
    runs it: a parsed text holds ints alone.  A tuple already in order is kept, so that the check's regions are
    the only tuples made."""
    try:
        if m < 2:
            return [], []
        normalized = [
            (b, a) if b < a else pair if type(pair) is tuple else (a, b) for pair in diagonals for a, b in (pair,)
        ]
        labels = list(chain.from_iterable(normalized))
        if type(m) is not int or not set(map(type, labels)) <= {int}:
            raise TypeError  # a bool or float vertex compares as an int but renders apart
    except (TypeError, ValueError):
        raise CatalanError("expected an int m and diagonals that are pairs of int vertices") from None
    return normalized, labels


def _triangulation_bits(m: int, labels: list[int]) -> str:
    """The dual tree's word of the diagonals given as int vertices a0, b0, a1, b1, ..., each pair either way
    round.  It names a side count below 2 and a wrong count itself, and sends any other fault to
    _triangulation_fault, which names the first one.

    Sorted by (a ascending, b descending), the regions come in the dual tree's preorder, so each region's digit
    pair follows from the region (pa, pb) just before it.  A region (pa, b) is its left child, apex b: (pa, pb)
    writes 01 if (b, pb) is a side, else 00.  Any other region is a right child, so (pa, pb) has a side on its
    left, apex pa + 1: it writes 10 unless it is a triangle, and a 11 comes before the region unless (pa, pb)
    is its parent.  The last region is a triangle, as a wider one has a region after it, and writes nothing.
    The stack holds only the ends of the enclosing regions, for the crossing test.

    The pass only accepts or writes.  The least and greatest a are checked once against 0 and m - 3; b - a < 2
    finds a side or a = b; b >= pb at a == pa finds a repeat, the root side (which stands before the first
    region) and a b past m - 1 there; d < b finds a crossing and any other b past m - 1.
    """
    if m < 2:
        raise CatalanError("a polygon needs at least 2 sides")
    expected = max(0, m - 3)
    if len(labels) != 2 * expected:
        raise CatalanError(
            f"a {cut_number(m)}-gon triangulation needs {cut_number(expected)} diagonals, got {len(labels) // 2}"
        )
    if m == 2:
        return ""
    last = m - 1
    pairs = iter(labels)
    regions = [(a, last - b) if a < b else (b, last - a) for a, b in zip(pairs, pairs)]  # b descending as last - b
    regions.sort()
    if regions and not 0 <= regions[0][0] <= regions[-1][0] <= m - 3:
        _triangulation_fault(m, regions)
    out = ["0"]
    ends: list[int] = []
    pa = 0
    pb = d = last
    for a, rest in regions:
        b = last - rest
        if b - a < 2:
            _triangulation_fault(m, regions)
        if a == pa:
            if b >= pb:
                _triangulation_fault(m, regions)
            out.append("01" if pb - b == 1 else "00")
            ends.append(d)
        else:
            while d <= a:
                d = ends.pop()
            if d < b:
                _triangulation_fault(m, regions)
            if pb - pa > 2:
                out.append("10")
            if a - pa != 1 or b != pb:
                out.append("11")
                ends.append(d)  # else the region shares (pa, pb)'s end, and d stands for both
            pa = a
        pb = d = b
    out.append("1")
    return "".join(out)


def _triangulation_fault(m: int, regions: list[tuple[int, int]]):
    """Raise the CatalanError naming the first fault of the m - 3 sorted regions (a, m - 1 - b) that
    _triangulation_bits refused: a duplicate, then the least diagonal by (a, b) out of range or a side (the root
    side (0, m - 1) is the one pair in range with b - a = m - 1), then the first region, in (a ascending,
    b descending) order, that ends past the innermost region before it around its start, which it crosses."""
    normalized = [(a, m - 1 - rest) for a, rest in regions]
    if len(set(normalized)) != len(normalized):
        raise CatalanError("duplicate diagonal")
    bad = [(a, b) for a, b in normalized if not (0 <= a and b < m and 1 < b - a < m - 1)]
    if bad:
        a, b = min(bad)
        if not 0 <= a < b <= m - 1:
            raise CatalanError(f"diagonal {cut_number(a)}-{cut_number(b)} is outside the vertex range")
        raise CatalanError(f"{a}-{b} is a polygon side, not a diagonal")
    enclosing: list[tuple[int, int]] = []
    c, d = 0, m - 1
    for a, b in normalized:
        while d <= a:
            c, d = enclosing.pop()
        if d < b:
            break
        enclosing.append((c, d))
        c, d = a, b
    raise CatalanError(f"diagonals {c}-{d} and {a}-{b} cross")


class Triangulation(_Value):
    """A convex m-gon cut into m - 2 triangles by m - 3 non-crossing diagonals.

    Diagonals are stored as (a, b) with a < b, sorted ascending; the root
    side (0, m-1) is never a diagonal.  m = 2 is the degenerate polygon
    with no triangles at all.
    """

    __slots__ = ("m", "diagonals")

    def __init__(self, m: int, diagonals: tuple[tuple[int, int], ...]):
        normalized, labels = _vertex_pairs(m, diagonals)
        _triangulation_bits(m, labels)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "diagonals", tuple(sorted(normalized)))


def encode_polygon(tri: Triangulation) -> CatalanSequence:
    """The edge-pair code of the dual tree, semilength m - 2, as the check writes it."""
    check_type(tri, Triangulation, "triangulation")
    try:
        return _trusted_sequence(_triangulation_bits(tri.m, _vertex_pairs(tri.m, tri.diagonals)[1]))
    except CatalanError as exc:
        raise MalformedTriangulationError(f"malformed triangulation: {exc}") from exc


def _diagonals(bits: str) -> list[int]:
    """The sorted diagonals (a, b) behind the word ``bits`` as ints a * m + b.  The extended dual tree's leaves
    are the sides (j, j + 1) in order, so its postfix text closes each region from its left operand's start to
    the leaves so far.  The code's digit pairs are read as trees._write reads them for that text, as their first
    and second characters, with a last 11 for the end; each token acts on the stack of starts as it comes."""
    m = len(bits) // 2 + 2
    regions = []
    starts: list[int] = []
    closers: list[int | None] = [None]  # the end closes every region down to here, like a 11
    leaves = 0
    for first, second in zip(bits[1:-1:2] + "1", bits[2:-1:2] + "1"):
        if first == "0":  # an "a*" waits after a lone left subtree, a None after a 00's left subtree
            closers.append(1 if second == "1" else None)
        elif second == "1":  # a childless node, "aa*", then the closers waiting down to a 00's None
            regions.append(leaves * m + leaves + 2)
            starts.append(leaves)
            leaves += 2
            while (extra := closers.pop()) is not None:  # "*" is 0 and "a*" is 1
                if extra:
                    leaves += 1
                else:
                    starts.pop()
                regions.append(starts[-1] * m + leaves)
            closers.append(0)
        else:  # a 10: "a", and a "*" waits
            starts.append(leaves)
            leaves += 1
            closers.append(0)
    regions.pop()  # the last region is the root side
    regions.sort()
    return regions


def decode_polygon(s: CatalanSequence) -> Triangulation:
    """The (semilength + 2)-gon triangulation behind the sequence."""
    bits = sequence_bits(s)
    m = len(bits) // 2 + 2
    return _trusted(Triangulation, m, tuple(map(divmod, _diagonals(bits), repeat(m))))


def dual_tree(tri: Triangulation) -> BinaryTree:
    """Dual binary tree rooted at the triangle on the marked side (0, m-1)."""
    return decode_tree(encode_polygon(tri))


def rebuild_triangulation(t: BinaryTree, m: int) -> Triangulation:
    """Inverse of dual_tree for a tree of m - 2 nodes; CatalanError unless m is a plain int."""
    check_int(m, "side count")
    s = encode_tree(t)
    if s.semilength != m - 2:
        raise SizeMismatchError(f"tree has {s.semilength} nodes, a {_whole(m)}-gon dual needs {_whole(m - 2)}")
    return decode_polygon(s)


def read_polygon(text: str) -> CatalanSequence:
    """The dual tree's word of "m;a-b,c-d,..." with diagonals optional, e.g. "5;0-2,0-3" or "3;"."""
    check_text(text, "polygon text")
    head, sep, tail = text.partition(";")
    m = parse_natural(head)
    if not sep or m is None:
        raise ParseError("expected 'm;diagonals' with a numeric side count")
    labels = parse_pairs(tail, "diagonal", "a-b")
    return _trusted_sequence(parsed(_triangulation_bits, "triangulation", m, labels))


def write_polygon(s: CatalanSequence) -> str:
    bits = sequence_bits(s)
    m = len(bits) // 2 + 2
    regions = _diagonals(bits)
    labels = [0, 0] * len(regions)
    labels[::2] = [region // m for region in regions]
    labels[1::2] = [region % m for region in regions]
    del regions  # freed before the text is formatted, which keeps the peak at 10^5 diagonals near 14 MB
    return f"{m};" + write_pairs(tuple(labels))
