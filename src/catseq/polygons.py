"""Triangulations of a convex polygon and their dual binary trees.

The polygon has m = n + 2 sides, vertices 0..m-1 labeled clockwise, and
a marked root side (0, m-1).  Each triangle becomes a tree node; the
node on the root side is the root, and a node's left / right children
are the triangles across its (a, c) / (c, b) edges, apex c on base
(a, b).  The degenerate two-sided polygon stands in for n = 0.

The codec is the tree codec of the dual tree, worked straight on the
word, and dual_tree and rebuild_triangulation go through it.  A diagonal
set is valid exactly when it has a dual tree, so the check Triangulation
shares with read_polygon is the pass that writes the word; decode_polygon
shares write_polygon's pass over the postfix text of the dual tree.
"""

from __future__ import annotations

from operator import itemgetter

from .core import (
    CatalanError, CatalanSequence, ParseError, _trusted, _trusted_sequence, _Value, check_text, cut_number,
    parse_natural, parse_pairs, parsed,
)
from .trees import BinaryTree, decode_tree, encode_tree, write_rpn


class MalformedTriangulationError(CatalanError):
    """A Triangulation whose diagonals changed after its check fails it now."""


class SizeMismatchError(CatalanError):
    """The tree's node count does not fit the requested polygon."""


#: a region's digit pair, by 2 * (its left region is a triangle) + (its right one is)
_PAIR = ("", "10", "01", "00")


def _triangulation_bits(m, diagonals) -> tuple[list[tuple[int, int]], str]:
    """The diagonals as (smaller, larger) pairs and the dual tree's word;
    CatalanError names the first fault: a side count that is no int >= 2 or
    vertices that are no ints, a wrong count, a duplicate, the least diagonal
    out of range or a side, and a crossing.

    Sorted by (a ascending, b descending), the regions come in the dual
    tree's preorder: (a, b) is followed by its left region (a, c), unless
    its apex c is a + 1, and its innermost enclosing region is its parent.
    One pass with a stack of enclosing regions finds a crossing and writes
    each region's pair once the next region shows its apex.
    """
    try:
        if m < 2:
            raise CatalanError("a polygon needs at least 2 sides")
        normalized = [(a, b) if a < b else (b, a) for a, b in diagonals]
        if type(m) is not int or not {type(v) for d in normalized for v in d} <= {int}:
            raise TypeError  # a bool or float vertex compares as an int but renders apart
    except CatalanError:
        raise
    except (TypeError, ValueError):
        raise CatalanError("expected an int m and diagonals that are pairs of int vertices") from None
    expected = max(0, m - 3)
    if len(normalized) != expected:
        raise CatalanError(
            f"a {cut_number(m)}-gon triangulation needs {cut_number(expected)} diagonals, got {len(normalized)}"
        )
    if len(set(normalized)) != len(normalized):
        raise CatalanError("duplicate diagonal")
    root = (0, m - 1)
    bad = [(a, b) for a, b in normalized if not (0 <= a and b <= m - 1 and b - a >= 2) or (a, b) == root]
    if bad:
        a, b = min(bad)
        if not 0 <= a < b <= m - 1:
            raise CatalanError(f"diagonal {cut_number(a)}-{cut_number(b)} is outside the vertex range")
        raise CatalanError(f"{a}-{b} is a polygon side, not a diagonal")
    if m == 2:
        return normalized, ""
    out = ["0"]
    enclosing = [root]
    pa, pb = root  # the region before, whose pair waits for its apex
    for a, b in sorted(sorted(normalized, key=itemgetter(1), reverse=True), key=itemgetter(0)):
        while enclosing[-1][1] <= a:
            enclosing.pop()
        c, d = enclosing[-1]
        if d < b:
            raise CatalanError(f"diagonals {c}-{d} and {a}-{b} cross")
        apex = b if a == pa else pa + 1
        out.append(_PAIR[2 * (apex - pa > 1) + (pb - apex > 1)])
        if d == b and a - c > 1:  # a right region whose left sibling is a region too
            out.append("11")
        enclosing.append((a, b))
        pa, pb = a, b
    out.append(_PAIR[pb - pa > 2])  # the last region's apex is pa + 1
    out.append("1")
    return normalized, "".join(out)


class Triangulation(_Value):
    """A convex m-gon cut into m - 2 triangles by m - 3 non-crossing diagonals.

    Diagonals are stored as (a, b) with a < b, sorted ascending; the root
    side (0, m-1) is never a diagonal.  m = 2 is the degenerate polygon
    with no triangles at all.
    """

    __slots__ = ("m", "diagonals")

    def __init__(self, m: int, diagonals: tuple[tuple[int, int], ...]):
        normalized, _ = _triangulation_bits(m, diagonals)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "diagonals", tuple(sorted(normalized)))


def encode_polygon(tri: Triangulation) -> CatalanSequence:
    """The edge-pair code of the dual tree, semilength m - 2, as the check writes it."""
    try:
        return _trusted_sequence(_triangulation_bits(tri.m, tri.diagonals)[1])
    except CatalanError as exc:
        raise MalformedTriangulationError(f"malformed triangulation: {exc}") from exc


def _diagonals(s: CatalanSequence) -> list[tuple[int, int]]:
    """The sorted diagonals behind ``s``.  The extended dual tree's leaves
    are the sides (j, j + 1) in order, so in its postfix text each operator
    closes the region from its left subtree's start to the leaves so far."""
    starts: list[int] = []
    regions = []
    leaves = 0
    for ch in write_rpn(s):
        if ch == "a":
            starts.append(leaves)
            leaves += 1
        else:
            starts.pop()
            regions.append((starts[-1], leaves))
    return sorted(regions[:-1])  # the last region is the root side


def decode_polygon(s: CatalanSequence) -> Triangulation:
    """The (semilength + 2)-gon triangulation behind the sequence."""
    return _trusted(Triangulation, s.semilength + 2, tuple(_diagonals(s)))


def dual_tree(tri: Triangulation) -> BinaryTree:
    """Dual binary tree rooted at the triangle on the marked side (0, m-1)."""
    return decode_tree(encode_polygon(tri))


def rebuild_triangulation(t: BinaryTree, m: int) -> Triangulation:
    """Inverse of dual_tree for a tree of m - 2 nodes."""
    s = encode_tree(t)
    if s.semilength != m - 2:
        raise SizeMismatchError(f"tree has {s.semilength} nodes, a {m}-gon dual needs {m - 2}")
    return decode_polygon(s)


def read_polygon(text: str) -> CatalanSequence:
    """The dual tree's word of "m;a-b,c-d,..." with diagonals optional, e.g. "5;0-2,0-3" or "3;"."""
    check_text(text, "polygon text")
    head, sep, tail = text.partition(";")
    m = parse_natural(head)
    if not sep or m is None:
        raise ParseError("expected 'm;diagonals' with a numeric side count")
    _, bits = parsed(_triangulation_bits, "triangulation", m, parse_pairs(tail, "diagonal", "a-b"))
    return _trusted_sequence(bits)


def write_polygon(s: CatalanSequence) -> str:
    return f"{s.semilength + 2};" + ",".join(f"{a}-{b}" for a, b in _diagonals(s))
