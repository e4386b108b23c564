"""Grid paths under the diagonal and ±1 ballot sequences.

Both families are letter-for-letter substitutions on the sequence: a
horizontal step or a +1 vote becomes 0, a vertical step or a -1 vote
becomes 1.  So their texts are read and written by substitution too, the
reading after the one check each shares with its value type.  Votes and
mountain ranges are these same objects under other names, so they are
registry aliases rather than separate codecs.
"""

from __future__ import annotations

from .core import (
    CatalanError, CatalanSequence, ParseError, _trusted, _trusted_sequence, _Value, check_text, cut_number, parsed,
)

_PATH_TO_BITS = str.maketrans("HV", "01")
_BITS_TO_PATH = str.maketrans("01", "HV")
_PM_TO_BITS = str.maketrans("+-", "01")
_BITS_TO_PM = str.maketrans("01", "+-")


def _check_steps(steps) -> None:
    """GridPath's check of a step word; CatalanError names the first fault."""
    if not isinstance(steps, str):  # the codec and the text form translate a str
        raise CatalanError(f"steps must be a str, not {type(steps).__name__}")
    lead = 0
    for i, ch in enumerate(steps):
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


def _check_votes(values) -> None:
    """PlusMinusSequence's check of ±1 values; CatalanError names the first fault."""
    total = 0
    for i, x in enumerate(values):
        if type(x) is not int or x not in (1, -1):  # a bool or float equals an int but renders apart
            raise CatalanError(f"invalid value {cut_number(x)} at position {i + 1}")
        total += x
        if total < 0:
            raise CatalanError(f"partial sum drops below 0 at position {i + 1}")
    if total != 0:
        raise CatalanError("values do not sum to 0")


class GridPath(_Value):
    """Monotone path from (0,0) to (n,n) never crossing above the diagonal.

    ``steps`` is a word over 'H' (horizontal) and 'V' (vertical) with n of
    each in which every prefix has at least as many H as V; touching the
    diagonal is allowed.
    """

    __slots__ = ("steps",)

    def __init__(self, steps: str):
        _check_steps(steps)
        object.__setattr__(self, "steps", steps)

    @property
    def n(self) -> int:
        return len(self.steps) // 2


class PlusMinusSequence(_Value):
    """±1 word with every partial sum >= 0 and total 0; each value a plain int."""

    __slots__ = ("values",)

    def __init__(self, values: tuple[int, ...]):
        try:
            values = tuple(values)
        except TypeError:
            raise CatalanError(f"values must be iterable, not {type(values).__name__}") from None
        _check_votes(values)
        object.__setattr__(self, "values", values)


def encode_path(p: GridPath) -> CatalanSequence:
    """H -> 0, V -> 1; valid because the path stays under the diagonal."""
    return _trusted_sequence(p.steps.translate(_PATH_TO_BITS))


def decode_path(s: CatalanSequence) -> GridPath:
    """0 -> H, 1 -> V; inverse of encode_path."""
    return _trusted(GridPath, write_path(s))


def encode_pm(x: PlusMinusSequence) -> CatalanSequence:
    """+1 -> 0 and -1 -> 1 (note the inversion); the partial-sum conditions
    are exactly prefix dominance, so the result is always valid."""
    return _trusted_sequence("".join("0" if v == 1 else "1" for v in x.values))


def decode_pm(s: CatalanSequence) -> PlusMinusSequence:
    """0 -> +1, 1 -> -1; inverse of encode_pm."""
    return _trusted(PlusMinusSequence, tuple(1 if ch == "0" else -1 for ch in s.bits))


def read_path(text: str) -> CatalanSequence:
    parsed(_check_steps, "path text", text)
    return _trusted_sequence(text.translate(_PATH_TO_BITS))


def write_path(s: CatalanSequence) -> str:
    return s.bits.translate(_BITS_TO_PATH)


def read_pm(text: str) -> CatalanSequence:
    check_text(text, "vote text")
    rest = text.lstrip("+-")
    if rest:
        raise ParseError(f"expected '+' or '-', found {rest[0]!r}", len(text) - len(rest) + 1)
    parsed(_check_votes, "vote text", [1 if ch == "+" else -1 for ch in text])
    return _trusted_sequence(text.translate(_PM_TO_BITS))


def write_pm(s: CatalanSequence) -> str:
    return s.bits.translate(_BITS_TO_PM)
