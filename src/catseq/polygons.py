"""Triangulations of a convex polygon and their dual binary trees.

The polygon has m = n + 2 sides, vertices 0..m-1 labeled clockwise, and
a marked root side (0, m-1).  Each triangle becomes a tree node; the
node on the root side is the root, and a node's left / right children
are the triangles across its (a, c) / (c, b) edges, apex c on base
(a, b).  The degenerate two-sided polygon stands in for n = 0.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from .core import CatalanError, CatalanSequence, ParseError, parse_natural, quote_prefix
from .trees import BinaryTree, Node, _fold, decode_tree, encode_tree


class MalformedTriangulationError(CatalanError):
    """Some base edge has no apex; the diagonal set is inconsistent."""


class SizeMismatchError(CatalanError):
    """The tree's node count does not fit the requested polygon."""


def _cut(k: int) -> str:
    """``str(k)``, cut to 20 characters plus '...' when longer, so that a
    message naming a parsed number stays short.  The low digits go first,
    by division, so a number past the int-string limit never meets ``str``:
    0.30102999 < log10(2), so 29 or more digits stay, far below the limit."""
    drop = max(0, abs(k).bit_length() * 30102999 // 10**8 - 30)
    text = ("-" if k < 0 else "") + str(abs(k) // 10**drop)
    return text if len(text) <= 20 else f"{text[:20]}..."


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
        if self.m < 2:
            raise CatalanError("a polygon needs at least 2 sides")
        normalized = tuple(sorted((min(a, b), max(a, b)) for a, b in self.diagonals))
        object.__setattr__(self, "diagonals", normalized)
        expected = max(0, self.m - 3)
        if len(normalized) != expected:
            raise CatalanError(
                f"a {_cut(self.m)}-gon triangulation needs {_cut(expected)} diagonals,"
                f" got {len(normalized)}"
            )
        if len(set(normalized)) != len(normalized):
            raise CatalanError("duplicate diagonal")
        for a, b in normalized:
            if not (0 <= a < b <= self.m - 1):
                raise CatalanError(f"diagonal {_cut(a)}-{_cut(b)} is outside the vertex range")
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


def dual_tree(tri: Triangulation) -> BinaryTree:
    """Dual binary tree rooted at the triangle on the marked side (0, m-1).

    region(a, b) is empty when (a, b) is a polygon side; otherwise the
    unique apex c with edges (a, c) and (c, b) splits it into a left
    region (a, c) and a right region (c, b).  In a triangulation no edge
    from a ends strictly between c and b, since it would cross (c, b), so
    c is the largest neighbour of a below b: a binary search in a's sorted
    list of higher neighbours, then one lookup that (c, b) is an edge.
    """
    m = tri.m
    if m == 2:
        return None
    higher = [[a + 1] for a in range(m - 1)]  # sorted, as tri.diagonals is
    for a, b in tri.diagonals:
        higher[a].append(b)
    diagonals = set(tri.diagonals)
    regions: dict[tuple[int, int], BinaryTree] = {}  # sides are empty: never stored
    stack: list[tuple[int, int, int]] = [(0, m - 1, 0)]  # apex 0: not yet split
    while stack:
        a, b, c = stack.pop()
        if c:
            regions[(a, b)] = Node(regions.pop((a, c), None), regions.pop((c, b), None))
            continue
        c = higher[a][bisect_left(higher[a], b) - 1]
        if not (a < c < b and (c + 1 == b or (c, b) in diagonals)):
            raise MalformedTriangulationError(f"base {a}-{b} has no apex")
        stack.append((a, b, c))
        if c + 1 < b:
            stack.append((c, b, 0))
        if a + 1 < c:
            stack.append((a, c, 0))
    return regions[(0, m - 1)]


def _sized(left, right) -> tuple:
    """A subtree as (left, right, node count), built by _fold."""
    return (left, right, 1 + (left[2] if left else 0) + (right[2] if right else 0))


def rebuild_triangulation(t: BinaryTree, m: int) -> Triangulation:
    """Inverse of dual_tree for a tree of m - 2 nodes.

    A node on base (a, b) whose left subtree holds k nodes puts its apex
    at c = a + k + 1; the base edges (a, c) and (c, b) of its children
    are the diagonals.  One fold first tags every subtree with its size.
    """
    sized = _fold(t, _sized)
    size = sized[2] if sized else 0
    if size != m - 2:
        raise SizeMismatchError(f"tree has {size} nodes, a {m}-gon dual needs {m - 2}")
    diagonals: list[tuple[int, int]] = []
    stack = [(sized, 0, m - 1)] if sized else []
    while stack:
        (left, right, _), a, b = stack.pop()
        c = a + (left[2] if left else 0) + 1
        if left:
            diagonals.append((a, c))
            stack.append((left, a, c))
        if right:
            diagonals.append((c, b))
            stack.append((right, c, b))
    return Triangulation(m, tuple(diagonals))


def encode_polygon(tri: Triangulation) -> CatalanSequence:
    """Encode the dual tree; a triangulated m-gon yields semilength m - 2."""
    return encode_tree(dual_tree(tri))


def decode_polygon(s: CatalanSequence) -> Triangulation:
    """Rebuild the (semilength + 2)-gon triangulation behind the sequence."""
    return rebuild_triangulation(decode_tree(s), s.semilength + 2)


def parse_polygon(text: str) -> Triangulation:
    """Parse "m;a-b,c-d,..." with diagonals optional, e.g. "5;0-2,0-3" or "3;"."""
    head, sep, tail = text.partition(";")
    m = parse_natural(head)
    if not sep or m is None:
        raise ParseError("expected 'm;diagonals' with a numeric side count")
    diagonals = []
    if tail:
        for part in tail.split(","):
            a, dash, b = part.partition("-")
            diagonal = (parse_natural(a), parse_natural(b))
            if not dash or None in diagonal:
                raise ParseError(f"bad diagonal {quote_prefix(part)}, expected the form 'a-b'")
            diagonals.append(diagonal)
    try:
        return Triangulation(m, tuple(diagonals))
    except CatalanError as exc:
        raise ParseError(f"bad triangulation: {exc}") from exc


def render_polygon(tri: Triangulation) -> str:
    return f"{tri.m};" + ",".join(f"{a}-{b}" for a, b in tri.diagonals)
