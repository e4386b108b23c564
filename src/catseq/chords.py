"""Non-crossing perfect matchings of 2n labeled points on a circle.

Encoding writes 0 at the smaller endpoint and 1 at the larger endpoint
of every chord.  The paper decodes by repeatedly extracting the leftmost
adjacent 0-then-1 among the positions still present, keeping original
labels.  Each pair so extracted is a 0 and the 1 that matches it as
parentheses, so decoding here is one pass of stack matching.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import CatalanError, CatalanSequence, _trusted, cut_number, parse_pairs, parsed


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
        try:
            normalized = tuple(sorted((min(i, j), max(i, j)) for i, j in self.chords))
            object.__setattr__(self, "chords", normalized)
            if len(normalized) != self.n:
                raise CatalanError(f"expected {cut_number(self.n)} chords, got {len(normalized)}")
            points = [p for chord in normalized for p in chord]
            if sorted(points) != list(range(1, 2 * self.n + 1)):
                raise CatalanError("chords must pair each of the points 1..2n exactly once")
            if type(self.n) is not int or not {*map(type, points)} <= {int}:
                raise TypeError  # a bool or float label equals an int but renders apart
            partner = [0] * (2 * self.n + 1)
            for a, b in normalized:
                partner[a] = b
                partner[b] = a
        except CatalanError:
            raise
        except (TypeError, ValueError):
            raise CatalanError("expected an int n and chords that are pairs of int labels") from None
        open_chords: list[int] = []
        for p in range(1, 2 * self.n + 1):
            q = partner[p]
            if q > p:
                open_chords.append(p)
                continue
            top = open_chords.pop()
            if top != q:
                raise CatalanError(f"chords {q}-{p} and {top}-{partner[top]} cross")


def encode_chords(d: ChordDiagram) -> CatalanSequence:
    """Position i gets 0 and position j gets 1 for every chord (i, j)."""
    bits = [""] * (2 * d.n)
    for i, j in d.chords:
        bits[i - 1] = "0"
        bits[j - 1] = "1"
    return _trusted(CatalanSequence, bits="".join(bits))


def decode_chords(s: CatalanSequence) -> ChordDiagram:
    """Inverse of encode_chords: each 1 closes a chord at the latest open 0.

    Each chord takes its slot when it opens, so the chords come out sorted
    by smaller endpoint, as the constructor would store them.
    """
    chords: list = []
    open_slots: list[int] = []
    for p, bit in enumerate(s.bits, start=1):
        if bit == "0":
            open_slots.append(len(chords))
            chords.append(p)
        else:
            slot = open_slots.pop()
            chords[slot] = (chords[slot], p)
    return _trusted(ChordDiagram, n=s.semilength, chords=tuple(chords))


def parse_chords(text: str) -> ChordDiagram:
    """Parse comma-separated "i-j" pairs, e.g. "1-8,2-7,3-4,5-6"."""
    pairs = parse_pairs(text, "chord", "i-j")
    return parsed(ChordDiagram, "chord diagram", len(pairs), pairs)


def render_chords(d: ChordDiagram) -> str:
    return ",".join(f"{i}-{j}" for i, j in d.chords)
