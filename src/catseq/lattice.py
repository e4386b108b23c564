"""Grid paths under the diagonal and ±1 ballot sequences.

Both families are letter-for-letter substitutions on the sequence: a
horizontal step or a +1 vote becomes 0, a vertical step or a -1 vote
becomes 1.  Votes and mountain ranges are these same objects under
other names, so they are registry aliases rather than separate codecs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import CatalanError, CatalanSequence, ParseError, _trusted, cut_number, parsed

_PATH_TO_BITS = str.maketrans("HV", "01")
_BITS_TO_PATH = str.maketrans("01", "HV")


@dataclass(frozen=True)
class GridPath:
    """Monotone path from (0,0) to (n,n) never crossing above the diagonal.

    ``steps`` is a word over 'H' (horizontal) and 'V' (vertical) with n of
    each in which every prefix has at least as many H as V; touching the
    diagonal is allowed.
    """

    steps: str

    def __post_init__(self):
        if not isinstance(self.steps, str):  # the codec and the text form translate a str
            raise CatalanError(f"steps must be a str, not {type(self.steps).__name__}")
        lead = 0
        for i, ch in enumerate(self.steps):
            if ch == "H":
                lead += 1
            elif ch == "V":
                lead -= 1
            else:
                raise CatalanError(f"invalid step {ch!r} at position {i + 1}")
            if lead < 0:
                raise CatalanError(f"path crosses the diagonal at step {i + 1}")
        if lead != 0:
            raise CatalanError("path does not end on the diagonal")

    @property
    def n(self) -> int:
        return len(self.steps) // 2


@dataclass(frozen=True)
class PlusMinusSequence:
    """±1 word with every partial sum >= 0 and total 0."""

    values: tuple[int, ...]

    def __post_init__(self):
        try:
            values = tuple(self.values)
        except TypeError:
            raise CatalanError(f"values must be iterable, not {type(self.values).__name__}") from None
        object.__setattr__(self, "values", values)
        total = 0
        for i, x in enumerate(values):
            if x not in (1, -1):
                raise CatalanError(f"invalid value {cut_number(x)} at position {i + 1}")
            total += x
            if total < 0:
                raise CatalanError(f"partial sum drops below 0 at position {i + 1}")
        if total != 0:
            raise CatalanError("values do not sum to 0")


def encode_path(p: GridPath) -> CatalanSequence:
    """H -> 0, V -> 1; valid because the path stays under the diagonal."""
    return _trusted(CatalanSequence, bits=p.steps.translate(_PATH_TO_BITS))


def decode_path(s: CatalanSequence) -> GridPath:
    """0 -> H, 1 -> V; inverse of encode_path."""
    return _trusted(GridPath, steps=s.bits.translate(_BITS_TO_PATH))


def encode_pm(x: PlusMinusSequence) -> CatalanSequence:
    """+1 -> 0 and -1 -> 1 (note the inversion); the partial-sum conditions
    are exactly prefix dominance, so the result is always valid."""
    return _trusted(CatalanSequence, bits="".join("0" if v == 1 else "1" for v in x.values))


def decode_pm(s: CatalanSequence) -> PlusMinusSequence:
    """0 -> +1, 1 -> -1; inverse of encode_pm."""
    return _trusted(PlusMinusSequence, values=tuple(1 if ch == "0" else -1 for ch in s.bits))


def parse_path(text: str) -> GridPath:
    return parsed(GridPath, "path text", text)


def render_path(p: GridPath) -> str:
    return p.steps


def parse_pm(text: str) -> PlusMinusSequence:
    values = []
    for i, ch in enumerate(text):
        if ch == "+":
            values.append(1)
        elif ch == "-":
            values.append(-1)
        else:
            raise ParseError(f"expected '+' or '-', found {ch!r}", i + 1)
    return parsed(PlusMinusSequence, "vote text", values)


def render_pm(x: PlusMinusSequence) -> str:
    return "".join("+" if v == 1 else "-" for v in x.values)
