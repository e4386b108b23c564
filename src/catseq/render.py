"""Text renderers: mountain-range silhouettes and DOT graph descriptions."""

from __future__ import annotations

from .core import CapExceededError, CatalanSequence, altitude_profile, sequence_bits

#: Most cells, rows times columns, a picture of ``render_mountain`` may span: its
#: lines hold at most that many characters.  A random word of semilength 2,048
#: spans about 4 * 10^5; 0^2000 1^2000 would span 8 * 10^6, in 6 * 10^6 characters.
MOUNTAIN_CAP = 2**22
_GLYPHS = str.maketrans("01", "/\\")


def render_mountain(s: CatalanSequence) -> list[str]:
    """Character rows of the mountain range, highest altitude band first.

    Bit 0 paints '/' in the band above the altitude it starts from, bit 1
    paints '\\' in the band above the altitude it lands on; trailing
    blanks are trimmed and the empty sequence renders as zero rows.  Each
    row is drawn in a byte buffer as long as the row, from the columns of its
    band.  Raises CapExceededError, before any row is drawn, when the peak
    times the length passes MOUNTAIN_CAP.
    """
    profile = altitude_profile(s)
    heights, peak = profile.heights, profile.peak
    if peak * len(s.bits) > MOUNTAIN_CAP:
        raise CapExceededError(
            f"a mountain of {peak} rows by {len(s.bits)} columns exceeds the cap of {MOUNTAIN_CAP} cells"
        )
    glyphs = s.bits.translate(_GLYPHS).encode()
    columns = [[] for _ in range(peak)]  # per band, its glyphs' columns, ascending
    for col, band in enumerate(map(min, heights, heights[1:])):  # a step's glyph sits in the band it crosses
        columns[band].append(col)
    lines = []
    for cols in reversed(columns):  # every band is crossed, so none is empty
        row = bytearray(b" ") * (cols[-1] + 1)
        for col in cols:
            row[col] = glyphs[col]
        lines.append(row.decode())
    return lines


def write_dot(s: CatalanSequence) -> str:
    """Deterministic DOT text of the binary tree coded by ``s``: nodes v0, v1, ... in preorder, edges tagged
    L/R, from one pass over the code's digit pairs.  Each pair is the edge into the next node: a 01 (L) or 10 (R)
    from the node before it, a 00 (L) too, which holds that node for the R edge of its matching 11."""
    bits = sequence_bits(s)
    edges = []
    held = []  # the nodes of the 00s whose 11 is still to come
    for child, (first, second) in enumerate(zip(bits[1:-1:2], bits[2:-1:2]), 1):
        if first == "0":
            if second == "0":
                held.append(child - 1)
            edges.append(f"  v{child - 1} -> v{child} [label=L];")
        else:
            edges.append(f"  v{held.pop() if second == '1' else child - 1} -> v{child} [label=R];")
    return "\n".join(["digraph tree {", *map("  v%d;".__mod__, range(len(bits) // 2)), *edges, "}"])


# BinaryTree, of catseq.trees, is only named in this lazy annotation: mountains never load that module
def render_dot(t: BinaryTree) -> str:
    """Deterministic DOT text: nodes v0, v1, ... in preorder, edges tagged L/R; write_dot of the tree's code."""
    from .trees import encode_tree
    return write_dot(encode_tree(t))
