"""Non-crossing perfect matchings of 2n labeled points on a circle.

Encoding writes 0 at the smaller endpoint and 1 at the larger endpoint
of every chord.  Decoding repeatedly extracts the leftmost adjacent
0-then-1 among the positions still present, keeping original labels,
which is why a doubly linked list over positions drives it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import CatalanError, CatalanSequence, ParseError, parse_natural


@dataclass(frozen=True)
class ChordDiagram:
    """n non-crossing chords pairing the points 1..2n, labeled clockwise.

    Chords are stored sorted ascending by smaller endpoint with each pair
    as (smaller, larger).  Rotations and reflections are distinct
    diagrams; the labels are part of the object.

    Non-crossing is checked in one pass over the points 1..2n with a stack
    of open chords: the chords are non-crossing exactly when every larger
    endpoint closes the chord on top of the stack.  When it does not, its
    chord (a, b) and the top chord (c, d) cross as a < c < b < d.
    """

    n: int
    chords: tuple[tuple[int, int], ...]

    def __post_init__(self):
        normalized = tuple(sorted((min(i, j), max(i, j)) for i, j in self.chords))
        object.__setattr__(self, "chords", normalized)
        if len(normalized) != self.n:
            raise CatalanError(f"expected {self.n} chords, got {len(normalized)}")
        points = [p for chord in normalized for p in chord]
        if sorted(points) != list(range(1, 2 * self.n + 1)):
            raise CatalanError("chords must pair each of the points 1..2n exactly once")
        partner = [0] * (2 * self.n + 1)
        for a, b in normalized:
            partner[a] = b
            partner[b] = a
        open_chords: list[int] = []
        for p in range(1, 2 * self.n + 1):
            q = partner[p]
            if q > p:
                open_chords.append(p)
                continue
            top = open_chords.pop()
            if top != q:
                raise CatalanError(f"chords {q}-{p} and {top}-{partner[top]} cross")
        for a, b in normalized:  # implied by non-crossing + perfect, so an assert
            assert (b - a) % 2 == 1, "chord spans an even gap"


def encode_chords(d: ChordDiagram) -> CatalanSequence:
    """Position i gets 0 and position j gets 1 for every chord (i, j)."""
    bits = [""] * (2 * d.n)
    for i, j in d.chords:
        bits[i - 1] = "0"
        bits[j - 1] = "1"
    return CatalanSequence("".join(bits))


def decode_chords(s: CatalanSequence) -> ChordDiagram:
    """Repeated first-01 extraction; inverse of encode_chords.

    Each removal can create one new adjacency, between the neighbors of
    the removed pair, so the scan backs up a single step instead of
    restarting; a valid remainder always contains another 01.
    """
    bits = s.bits
    count = len(bits)
    nxt = list(range(1, count + 1))
    prv = list(range(-1, count - 1))
    pairs: list[tuple[int, int]] = []
    cursor = 0
    while len(pairs) < s.semilength:
        assert cursor < count, "valid remainder ran out of adjacent 01 pairs"
        after = nxt[cursor]
        if bits[cursor] == "0" and after < count and bits[after] == "1":
            pairs.append((cursor + 1, after + 1))
            left, right = prv[cursor], nxt[after]
            if left >= 0:
                nxt[left] = right
            if right < count:
                prv[right] = left
            cursor = left if left >= 0 else right
        else:
            cursor = after
    return ChordDiagram(s.semilength, tuple(pairs))


def parse_chords(text: str) -> ChordDiagram:
    """Parse comma-separated "i-j" pairs, e.g. "1-8,2-7,3-4,5-6"."""
    if not text:
        return ChordDiagram(0, ())
    pairs = []
    for part in text.split(","):
        i, sep, j = part.partition("-")
        pair = (parse_natural(i), parse_natural(j))
        if not sep or None in pair:
            raise ParseError(f"bad chord {part!r}, expected the form 'i-j'")
        pairs.append(pair)
    try:
        return ChordDiagram(len(pairs), tuple(pairs))
    except CatalanError as exc:
        raise ParseError(f"bad chord diagram: {exc}") from exc


def render_chords(d: ChordDiagram) -> str:
    return ",".join(f"{i}-{j}" for i, j in d.chords)
