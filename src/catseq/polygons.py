"""Triangulations of a convex polygon and their dual binary trees.

The polygon has m = n + 2 sides, vertices 0..m-1 labeled clockwise, and
a marked root side (0, m-1).  Each triangle becomes a tree node; the
node on the root side is the root, and a node's left / right children
are the triangles across its (a, c) / (c, b) edges, apex c on base
(a, b).  The degenerate two-sided polygon stands in for n = 0.

The codec is the tree codec of the dual tree, worked straight on the
word, and dual_tree and rebuild_triangulation go through it.  A diagonal
set is valid exactly when it has a dual tree, so the check Triangulation
shares with read_polygon, on the flat ints that parse_pairs scans after the
';', is the pass that writes the word.  decode_polygon and write_polygon
share one pass over the code's digit pairs that finds the regions as the
dual tree's postfix text closes them, with no text written.
"""

from __future__ import annotations

from itertools import chain, repeat
from operator import itemgetter

from .core import (
    CatalanError, CatalanSequence, ParseError, _trusted, _trusted_sequence, _Value, _whole, check_int, check_text,
    check_type, cut_number, parse_natural, parse_pairs, parsed, sequence_bits, write_pairs,
)
from .trees import BinaryTree, decode_tree, encode_tree


class MalformedTriangulationError(CatalanError):
    """A Triangulation whose diagonals changed after its check fails it now."""


class SizeMismatchError(CatalanError):
    """The tree's node count does not fit the requested polygon."""


def _vertex_pairs(m, diagonals) -> list[tuple[int, int]]:
    """The diagonals as (smaller, larger) pairs, [] when m < 2 so that the check names that first; CatalanError
    unless m and the vertices are ints.  Only the object API runs it: a parsed text holds ints alone."""
    try:
        if m < 2:
            return []
        normalized = [(a, b) if a < b else (b, a) for a, b in diagonals]
        if type(m) is not int or not {type(v) for d in normalized for v in d} <= {int}:
            raise TypeError  # a bool or float vertex compares as an int but renders apart
    except (TypeError, ValueError):
        raise CatalanError("expected an int m and diagonals that are pairs of int vertices") from None
    return normalized


def _triangulation_bits(m: int, normalized: list[tuple[int, int]]) -> str:
    """The dual tree's word of the (smaller, larger) pairs; CatalanError names the first fault: a side count
    below 2, a wrong count, a duplicate, the least diagonal out of range or a side (the root side (0, m - 1) is
    the one pair in range with b - a = m - 1), and a crossing.

    Sorted by (a ascending, b descending), the regions come in the dual tree's preorder: (a, b) is followed by
    its left region (a, c), unless its apex c is a + 1, and its innermost enclosing region is its parent.  One
    pass with a stack of enclosing regions finds a crossing and writes each region's pair once the next region
    shows its apex.  The last region is a triangle, as a wider one has a region after it, and writes nothing.
    """
    if m < 2:
        raise CatalanError("a polygon needs at least 2 sides")
    expected = max(0, m - 3)
    if len(normalized) != expected:
        raise CatalanError(
            f"a {cut_number(m)}-gon triangulation needs {cut_number(expected)} diagonals, got {len(normalized)}"
        )
    if len(set(normalized)) != len(normalized):
        raise CatalanError("duplicate diagonal")
    bad = [(a, b) for a, b in normalized if not (0 <= a and b < m and 1 < b - a < m - 1)]
    if bad:
        a, b = min(bad)
        if not 0 <= a < b <= m - 1:
            raise CatalanError(f"diagonal {cut_number(a)}-{cut_number(b)} is outside the vertex range")
        raise CatalanError(f"{a}-{b} is a polygon side, not a diagonal")
    if m == 2:
        return ""
    out = ["0"]
    enclosing: list[tuple[int, int]] = []
    # the innermost enclosing region (c, d), and the region before, whose pair waits for its apex
    top = c, d = pa, pb = 0, m - 1
    for region in sorted(sorted(normalized, key=itemgetter(1), reverse=True), key=itemgetter(0)):
        a, b = region
        while d <= a:
            top = enclosing.pop()
            c, d = top
        if d < b:
            raise CatalanError(f"diagonals {c}-{d} and {a}-{b} cross")
        if a == pa:  # the region before has this one on its left, apex b
            out.append("01" if pb - b == 1 else "00")
        elif pb - pa > 2:  # its left is a side, apex pa + 1, and its right a region
            out.append("10")
        if d == b and a - c > 1:  # a right region whose left sibling is a region too
            out.append("11")
        enclosing.append(top)
        top = c, d = pa, pb = region
    out.append("1")
    return "".join(out)


class Triangulation(_Value):
    """A convex m-gon cut into m - 2 triangles by m - 3 non-crossing diagonals.

    Diagonals are stored as (a, b) with a < b, sorted ascending; the root
    side (0, m-1) is never a diagonal.  m = 2 is the degenerate polygon
    with no triangles at all.
    """

    __slots__ = ("m", "diagonals")

    def __init__(self, m: int, diagonals: tuple[tuple[int, int], ...]):
        normalized = _vertex_pairs(m, diagonals)
        _triangulation_bits(m, normalized)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "diagonals", tuple(sorted(normalized)))


def encode_polygon(tri: Triangulation) -> CatalanSequence:
    """The edge-pair code of the dual tree, semilength m - 2, as the check writes it."""
    check_type(tri, Triangulation, "triangulation")
    try:
        return _trusted_sequence(_triangulation_bits(tri.m, _vertex_pairs(tri.m, tri.diagonals)))
    except CatalanError as exc:
        raise MalformedTriangulationError(f"malformed triangulation: {exc}") from exc


def _diagonals(bits: str):
    """The sorted diagonals behind the word ``bits`` as (a, b) pairs.  The extended dual tree's leaves are the sides
    (j, j + 1) in order, so its postfix text closes each region from its left operand's start to the leaves
    so far.  The code's digit pairs are read as trees._write reads them for that text, as their first and second
    characters, with a last 11 for the end; each token acts on the stack of starts as it comes, a region is kept
    as the int a * m + b, and the ints are sorted."""
    m = len(bits) // 2 + 2
    if m == 2:
        return ()
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
    return map(divmod, regions, repeat(m))


def decode_polygon(s: CatalanSequence) -> Triangulation:
    """The (semilength + 2)-gon triangulation behind the sequence."""
    bits = sequence_bits(s)
    return _trusted(Triangulation, len(bits) // 2 + 2, tuple(_diagonals(bits)))


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
    labels = iter(parse_pairs(tail, "diagonal", "a-b"))
    normalized = [(a, b) if a < b else (b, a) for a, b in zip(labels, labels)]
    return _trusted_sequence(parsed(_triangulation_bits, "triangulation", m, normalized))


def write_polygon(s: CatalanSequence) -> str:
    bits = sequence_bits(s)
    return f"{len(bits) // 2 + 2};" + write_pairs(tuple(chain.from_iterable(_diagonals(bits))))
