"""Text renderers: mountain-range silhouettes and DOT graph descriptions."""

from __future__ import annotations

from .core import CapExceededError, CatalanSequence, altitude_profile

#: Most cells, rows times columns, the grid of ``render_mountain`` may hold.  A
#: random word of semilength 2,048 fills about 4 * 10^5; 0^2000 1^2000 would fill
#: 8 * 10^6, and its rows hold 6 * 10^6 characters.
MOUNTAIN_CAP = 2**22


def render_mountain(s: CatalanSequence) -> list[str]:
    """Character rows of the mountain range, highest altitude band first.

    Bit 0 paints '/' in the band above the altitude it starts from, bit 1
    paints '\\' in the band above the altitude it lands on; trailing
    blanks are trimmed and the empty sequence renders as zero rows.
    Raises CapExceededError, before the grid is built, when its peak
    times its length passes MOUNTAIN_CAP.
    """
    heights = altitude_profile(s).heights
    peak = max(heights)
    if peak * len(s.bits) > MOUNTAIN_CAP:
        raise CapExceededError(
            f"a mountain of {peak} rows by {len(s.bits)} columns exceeds the cap of {MOUNTAIN_CAP} cells"
        )
    rows = [[" "] * len(s.bits) for _ in range(peak)]
    for col, ch in enumerate(s.bits):
        if ch == "0":
            rows[heights[col]][col] = "/"
        else:
            rows[heights[col + 1]][col] = "\\"
    return ["".join(rows[level]).rstrip() for level in range(peak - 1, -1, -1)]


# BinaryTree, of catseq.trees, is only named in this lazy annotation: mountains never load that module
def render_dot(t: BinaryTree) -> str:
    """Deterministic DOT text: nodes v0, v1, ... in preorder, edges tagged L/R."""
    declarations = []
    edges = []
    stack = [(t, None, "")]
    counter = 0
    while stack:
        node, parent, label = stack.pop()
        if node is None:
            continue
        name = f"v{counter}"
        counter += 1
        declarations.append(f"  {name};")
        if parent is not None:
            edges.append(f"  {parent} -> {name} [label={label}];")
        stack.append((node.right, name, "R"))
        stack.append((node.left, name, "L"))
    return "\n".join(["digraph tree {", *declarations, *edges, "}"])
