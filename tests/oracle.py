"""Independent oracles the tests check the library against.

Nothing here calls into catseq.  ``reference`` is bench/reference.py, loaded
by its path: the one construction of every family's text built without
catseq, which the benchmark checks its outputs against too; its
``cycle_lemma_word`` draws the tests' random words.  What it lacks is here:
predicates and constructions written directly from the defining
conditions, mostly by brute force, so they stay independent of the code
paths under test.
"""

from __future__ import annotations

import importlib.util
from functools import cache
from itertools import product
from math import comb
from pathlib import Path

_spec = importlib.util.spec_from_file_location("reference", Path(__file__).parents[1] / "bench" / "reference.py")
reference = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reference)

cycle_lemma_word = reference.cycle_lemma_word


def first_fault(word: str, up: str = "0", down: str = "1", floor: int = 0) -> tuple[int, int]:
    """(i, balance) of a walk over ``word``, one symbol at a time: ``up``
    adds 1 and ``down`` takes 1 away.  i is the 0-based index of the first
    symbol that is neither or that takes the balance below ``floor``, and
    balance is the balance before it; with no such symbol, i is len(word)
    and balance the end balance.  A Catalan word is (len(word), 0) with
    floor 0; a postfix word over 'a'/'*' is (len(word), 1) with floor 1,
    since an operator needs two operands on the stack."""
    balance = 0
    for i, ch in enumerate(word):
        if ch == up:
            balance += 1
        elif ch == down and balance > floor:
            balance -= 1
        else:
            return i, balance
    return len(word), balance


@cache
def brute_sequences(n: int) -> list[str]:
    """All valid words of length 2n by filtering every binary word; cached, so callers only read it."""
    return ["".join(w) for w in product("01", repeat=2 * n) if reference.is_dyck("".join(w))]


def brute_closings(m: int) -> list[list[str]]:
    """Per balance b = 0..m, the words w of length m that take b to 0 and no lower,
    ascending: those for which '0' * b + w is a Catalan word, filtered from every binary word."""
    words = ["".join(w) for w in product("01", repeat=m)]
    return [[w for w in words if reference.is_dyck("0" * b + w)] for b in range(m + 1)]


def brute_count(n: int) -> int:
    """Number of valid words of length 2n, scanning all 2^(2n) candidates."""
    length = 2 * n
    total = 0
    for word in range(1 << length):
        balance = 0
        for i in range(length - 1, -1, -1):
            if (word >> i) & 1:
                balance -= 1
                if balance < 0:
                    break
            else:
                balance += 1
        else:
            if balance == 0:
                total += 1
    return total


def ballot(r: int, b: int) -> int:
    """Walks of r steps of +1/-1 from height b down to 0 that never go below 0.

    Of the comb(r, d) walks from b to 0, d = (r + b) / 2 steps down, those
    that touch -1 reflect one to one, by their part before the first touch,
    onto the comb(r, d + 1) walks from -b - 2 to 0 (the reflection principle).
    """
    if not 0 <= b <= r or (r - b) % 2:
        return 0
    d = (r + b) // 2
    return comb(r, d) - comb(r, d + 1)


def ballot_rows(length: int) -> list[list[int]]:
    """rows[r][b] = ballot(r, b) for r <= length, b <= r, by the plain recurrence:
    a walk from b starts with a step up or a step down, and may not go below 0."""
    rows = [[1]]
    for r in range(1, length + 1):
        prev = rows[-1] + [0, 0]
        rows.append([prev[b + 1] + (prev[b - 1] if b else 0) for b in range(r + 1)])
    return rows


def ranked_word(n: int, k: int) -> str:
    """The k-th valid word of semilength n in lexicographic order, 0 <= k <
    ballot(2n, 0): a '0' where fewer than k + 1 words go on with it, else a
    '1', with those words taken off k."""
    word, balance = [], 0
    for r in range(2 * n - 1, -1, -1):  # r symbols follow this one
        with_zero = ballot(r, balance + 1)
        if k < with_zero:
            word.append("0")
            balance += 1
        else:
            k -= with_zero
            word.append("1")
            balance -= 1
    return "".join(word)


def word_rank(word: str) -> int:
    """The k with ``ranked_word(len(word) // 2, k) == word``, for a valid word."""
    k, balance = 0, 0
    for i, ch in enumerate(word):
        if ch == "1":
            k += ballot(len(word) - i - 1, balance + 1)
            balance -= 1
        else:
            balance += 1
    return k


def first01_pairs(bits: str) -> set[tuple[int, int]]:
    """The paper's chord rule, 1-based: pair the leftmost adjacent 0 then 1
    among the positions still present, remove both, repeat.  Quadratic."""
    remaining = list(enumerate(bits, start=1))
    pairs = set()
    while remaining:
        k = "".join(bit for _, bit in remaining).index("01")
        pairs.add((remaining[k][0], remaining[k + 1][0]))
        del remaining[k : k + 2]
    return pairs


def perfect_matchings(points: list[int]):
    """Yield every perfect matching of ``points`` as a list of pairs."""
    if not points:
        yield []
        return
    first, rest = points[0], points[1:]
    for k, partner in enumerate(rest):
        for tail in perfect_matchings(rest[:k] + rest[k + 1 :]):
            yield [(first, partner), *tail]


def crosses(first: tuple[int, int], second: tuple[int, int]) -> bool:
    """Two chords or diagonals cross: a < c < b < d in some order.

    Each is an unordered pair of points on a circle; pairs that share an
    endpoint or nest do not cross.
    """
    a, b = sorted(first)
    c, d = sorted(second)
    return a < c < b < d or c < a < d < b


def grid_mountain(word: str) -> list[str]:
    """The mountain picture drawn on a full grid, one cell per band and symbol:
    '/' in the band above a '0''s start, '\\' in the band above a '1''s end,
    top band first, trailing blanks trimmed."""
    heights = [0]
    for ch in word:
        heights.append(heights[-1] + (1 if ch == "0" else -1))
    grid = [[" "] * len(word) for _ in range(max(heights))]
    for col, ch in enumerate(word):
        if ch == "0":
            grid[heights[col]][col] = "/"
        else:
            grid[heights[col + 1]][col] = "\\"
    return ["".join(row).rstrip() for row in reversed(grid)]


def ref_encode_tree(t) -> str:
    """Recursive reference encoder straight from the edge-pair rules.

    Accepts any tree value with .left/.right attributes and None for the
    empty tree; only usable for small trees (it recurses).
    """
    if t is None:
        return ""

    def body(node) -> str:
        left, right = node.left, node.right
        if left is not None and right is None:
            return "01" + body(left)
        if left is None and right is not None:
            return "10" + body(right)
        if left is not None and right is not None:
            return "00" + body(left) + "11" + body(right)
        return ""

    return "0" + body(t) + "1"


def triangulations(m: int):
    """Yield the diagonal list of every triangulation of the m-gon.

    The triangle on the base (a, b) has some apex a < c < b; the regions
    (a, c) and (c, b) are then triangulated independently, and each base
    that is not a polygon side is a diagonal.  Recursive; small m only.
    """

    def region(a: int, b: int):
        if b - a < 2:
            yield []
            return
        for c in range(a + 1, b):
            for left in region(a, c):
                for right in region(c, b):
                    yield left + right + [d for d in ((a, c), (c, b)) if d[1] - d[0] >= 2]

    yield from region(0, m - 1)


def ref_polygon_fault(m: int, pairs) -> str | None:
    """The message naming the first fault of the m-gon diagonals ``pairs`` (int pairs, either way round, with
    numbers short enough to print whole), or None when they triangulate it; by brute force, in the documented
    order:

    1. m < 2;
    2. a count other than max(0, m - 3);
    3. a repeated diagonal;
    4. the least pair (a, b), a < b, that is no diagonal: out of range unless 0 <= a < b <= m - 1, and then a
       side when b - a = 1 or it is the root side (0, m - 1);
    5. a crossing: in (a ascending, b descending) order after the root side, the first diagonal (a, b) whose b
       exceeds the d of (c, d), the last earlier region whose d exceeds a.
    """
    if m < 2:
        return "a polygon needs at least 2 sides"
    expected = max(0, m - 3)
    if len(pairs) != expected:
        return f"a {m}-gon triangulation needs {expected} diagonals, got {len(pairs)}"
    normalized = [(min(a, b), max(a, b)) for a, b in pairs]
    if any(normalized[i] in normalized[:i] for i in range(len(normalized))):
        return "duplicate diagonal"
    for a, b in sorted(normalized):
        if not 0 <= a < b <= m - 1:
            return f"diagonal {a}-{b} is outside the vertex range"
        if b - a == 1 or (a, b) == (0, m - 1):
            return f"{a}-{b} is a polygon side, not a diagonal"
    regions = [(0, m - 1)] + sorted(normalized, key=lambda region: (region[0], -region[1]))
    for i in range(1, len(regions)):
        a, b = regions[i]
        c, d = [region for region in regions[:i] if region[1] > a][-1]
        if d < b:
            return f"diagonals {c}-{d} and {a}-{b} cross"
    return None


# A reader of the pair lists with a tuple per pair, and the chord word of pairs
# in any order: chords' and polygons' flat-int readers must agree with them on
# every text, whatever its order.


def ref_parse_pairs(text: str) -> tuple[tuple[int, int], ...] | None:
    """The (a, b) pairs of a comma-separated "a-b" list of ASCII digit runs, () for "";
    None for any other text, or a number past the int-string limit."""
    pairs = []
    for part in text.split(",") if text else ():
        a, dash, b = part.partition("-")
        if not (dash and a.isascii() and a.isdigit() and b.isascii() and b.isdigit()):
            return None
        try:
            pairs.append((int(a), int(b)))
        except ValueError:
            return None
    return tuple(pairs)


def ref_chord_word(pairs) -> str:
    """0 at the smaller endpoint and 1 at the larger endpoint of every chord."""
    word = [""] * (2 * len(pairs))
    for a, b in pairs:
        word[min(a, b) - 1], word[max(a, b) - 1] = "0", "1"
    return "".join(word)


def ref_render_dot(t) -> str:
    """DOT text of a tree of nodes with ``left`` / ``right`` slots, None for an empty one: nodes
    v0, v1, ... in preorder and their edges tagged L/R, by a walk of the objects."""
    declarations, edges = [], []
    stack = [(t, None, "")]
    while stack:
        node, parent, label = stack.pop()
        if node is None:
            continue
        name = f"v{len(declarations)}"
        declarations.append(f"  {name};")
        if parent is not None:
            edges.append(f"  {parent} -> {name} [label={label}];")
        stack.append((node.right, name, "R"))
        stack.append((node.left, name, "L"))
    return "\n".join(["digraph tree {", *declarations, *edges, "}"])
