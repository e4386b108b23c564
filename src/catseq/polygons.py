"""Triangulations of a convex polygon and their dual binary trees.

The polygon has m = n + 2 sides, vertices 0..m-1 labeled clockwise, and
a marked root side (0, m-1).  Each triangle becomes a tree node; the
node on the root side is the root, and a node's left / right children
are the triangles across its (a, c) / (c, b) edges, apex c on base
(a, b).  The degenerate two-sided polygon stands in for n = 0.

The codec is the tree codec of the dual tree, worked straight on the
word, and dual_tree and rebuild_triangulation go through it.  Encoding
finds each apex by the apex rule: c is the largest neighbour of a below
b.  Decoding places each subtree by the in-order base rule: the subtree
whose nodes hold the in-order positions lo..hi sits on the base
(lo, hi + 2).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from .core import CatalanError, CatalanSequence, ParseError, _trusted, cut_number, parse_natural, parse_pairs, parsed
from .trees import BinaryTree, decode_tree, encode_tree


class MalformedTriangulationError(CatalanError):
    """Some base edge has no apex; the diagonal set is inconsistent."""


class SizeMismatchError(CatalanError):
    """The tree's node count does not fit the requested polygon."""


@dataclass(frozen=True)
class Triangulation:
    """A convex m-gon cut into m - 2 triangles by m - 3 non-crossing diagonals.

    Diagonals are stored as (a, b) with a < b, sorted ascending; the root
    side (0, m-1) is never a diagonal.  m = 2 is the degenerate polygon
    with no triangles at all.

    Non-crossing is checked in one stack pass over the diagonals sorted by
    (a ascending, b descending).  The stack holds the diagonals that nest
    around the current one; those ending at or before its a are popped, and
    it crosses the top (c, d) exactly when c < a < d < b.
    """

    m: int
    diagonals: tuple[tuple[int, int], ...]

    def __post_init__(self):
        try:
            if self.m < 2:
                raise CatalanError("a polygon needs at least 2 sides")
            normalized = tuple(sorted((min(a, b), max(a, b)) for a, b in self.diagonals))
            if type(self.m) is not int or not {type(v) for d in normalized for v in d} <= {int}:
                raise TypeError  # a bool or float vertex compares as an int but renders apart
        except CatalanError:
            raise
        except (TypeError, ValueError):
            raise CatalanError("expected an int m and diagonals that are pairs of int vertices") from None
        object.__setattr__(self, "diagonals", normalized)
        expected = max(0, self.m - 3)
        if len(normalized) != expected:
            raise CatalanError(
                f"a {cut_number(self.m)}-gon triangulation needs {cut_number(expected)} diagonals,"
                f" got {len(normalized)}"
            )
        if len(set(normalized)) != len(normalized):
            raise CatalanError("duplicate diagonal")
        for a, b in normalized:
            if not (0 <= a < b <= self.m - 1):
                raise CatalanError(f"diagonal {cut_number(a)}-{cut_number(b)} is outside the vertex range")
            if b - a < 2 or (a, b) == (0, self.m - 1):
                raise CatalanError(f"{a}-{b} is a polygon side, not a diagonal")
        enclosing: list[tuple[int, int]] = []
        for a, b in sorted(normalized, key=lambda d: (d[0], -d[1])):
            while enclosing and enclosing[-1][1] <= a:
                enclosing.pop()
            if enclosing and enclosing[-1][1] < b:
                c, d = enclosing[-1]
                raise CatalanError(f"diagonals {c}-{d} and {a}-{b} cross")
            enclosing.append((a, b))


def encode_polygon(tri: Triangulation) -> CatalanSequence:
    """The edge-pair code of the dual tree, read straight off the regions.

    Region (a, b) holds a triangle unless (a, b) is a polygon side.  Its
    apex c is the largest neighbour of a below b, since an edge from a that
    ends between c and b would cross (c, b); (a, c) and (c, b) are its left
    and right regions.  A triangulated m-gon yields semilength m - 2.
    """
    m = tri.m
    higher = [[a + 1] for a in range(m - 1)]  # sorted, as tri.diagonals is
    for a, b in tri.diagonals:
        higher[a].append(b)
    diagonals = set(tri.diagonals)
    out: list[str] = []
    stack = ["1", (0, m - 1), "0"] if m > 2 else []  # pairs to emit and regions to walk
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        a, b = item
        c = higher[a][bisect_left(higher[a], b) - 1]
        if not (a < c < b and (c + 1 == b or (c, b) in diagonals)):
            raise MalformedTriangulationError(f"base {a}-{b} has no apex")
        if a + 1 < c and c + 1 < b:
            stack += ((c, b), "11", (a, c), "00")
        elif a + 1 < c:
            stack += ((a, c), "01")
        elif c + 1 < b:
            stack += ((c, b), "10")
    return _trusted(CatalanSequence, bits="".join(out))


def decode_polygon(s: CatalanSequence) -> Triangulation:
    """The (semilength + 2)-gon triangulation behind the sequence.

    The subtree whose nodes hold the in-order positions lo..hi sits on the
    base (lo, hi + 2), so every subtree but the root's gives a diagonal
    when it closes.  One pass over the digit pairs, with frames as in
    decode_tree, numbers a 10 node when it opens and any other node when
    its left subtree closes, or at once if it is childless.
    """
    diagonals: list[tuple[int, int]] = []
    frames: list[tuple[str, int]] = []  # (pair, lo); a 00 past its left subtree is 11
    k = 0  # nodes numbered so far
    body = s.bits[1:-1] + "11" if s.bits else ""
    for i in range(0, len(body), 2):
        pair = body[i : i + 2]
        if pair != "11":
            frames.append((pair, k))
            k += pair == "10"  # no left subtree: numbered as it opens
            continue
        lo, k = k, k + 1  # a childless node closes at once
        diagonals.append((lo, k + 1))
        while frames:
            pair, lo = frames.pop()
            if pair == "00":
                k += 1
                frames.append(("11", lo))
                break
            k += pair == "01"  # a 01 is numbered as its left subtree closes
            diagonals.append((lo, k + 1))
    # diagonals[-1] is the root side, not a diagonal
    return _trusted(Triangulation, m=s.semilength + 2, diagonals=tuple(sorted(diagonals[:-1])))


def dual_tree(tri: Triangulation) -> BinaryTree:
    """Dual binary tree rooted at the triangle on the marked side (0, m-1)."""
    return decode_tree(encode_polygon(tri))


def rebuild_triangulation(t: BinaryTree, m: int) -> Triangulation:
    """Inverse of dual_tree for a tree of m - 2 nodes."""
    s = encode_tree(t)
    if s.semilength != m - 2:
        raise SizeMismatchError(f"tree has {s.semilength} nodes, a {m}-gon dual needs {m - 2}")
    return decode_polygon(s)


def parse_polygon(text: str) -> Triangulation:
    """Parse "m;a-b,c-d,..." with diagonals optional, e.g. "5;0-2,0-3" or "3;"."""
    head, sep, tail = text.partition(";")
    m = parse_natural(head)
    if not sep or m is None:
        raise ParseError("expected 'm;diagonals' with a numeric side count")
    return parsed(Triangulation, "triangulation", m, parse_pairs(tail, "diagonal", "a-b"))


def render_polygon(tri: Triangulation) -> str:
    return f"{tri.m};" + ",".join(f"{a}-{b}" for a, b in tri.diagonals)
