"""Grid paths under the diagonal and ±1 ballot sequences.

Both families are letter-for-letter substitutions on the sequence: a
horizontal step or a +1 vote becomes 0, a vertical step or a -1 vote
becomes 1.  So their texts are read and written by substitution too, and
each value type and text is checked on its word by the sequence's scan
(_checked), which names the first fault in the family's terms.  Votes and
mountain ranges are these same objects under other names, so they are
registry aliases rather than separate codecs.
"""

from __future__ import annotations

from .core import (
    CatalanError, CatalanSequence, ParseError, _scan, _trusted, _trusted_sequence, _Value, check_text, check_type,
    cut_number, parsed, sequence_bits,
)

_PATH_TO_BITS = str.maketrans("HV01", "0122")  # a literal 0 or 1 stays a bad symbol to the scan
_BITS_TO_PATH = str.maketrans("01", "HV")
_PM_TO_BITS = str.maketrans("+-", "01")  # _read_pm refuses any other character first
_BITS_TO_PM = str.maketrans("01", "+-")
_VOTE_BITS = {1: "0", -1: "1"}
_STEP_FAULTS = ("invalid step", "path crosses the diagonal at step", "path does not end on the diagonal")
_VOTE_FAULTS = ("invalid value", "partial sum drops below 0 at position", "values do not sum to 0")


def _checked(values, bits: str, faults: tuple[str, str, str]) -> str:
    """``bits``, the word of ``values`` with '2' for a bad value; CatalanError names its first fault
    by ``faults``, the family's terms for a bad value, a drop below 0 and an uneven end."""
    i, balance = _scan(bits)
    if i < len(bits):
        fault = faults[1] if bits[i] == "1" else f"{faults[0]} {cut_number(values[i])} at position"
        raise CatalanError(f"{fault} {i + 1}")
    if balance:
        raise CatalanError(faults[2])
    return bits


def _check_steps(steps) -> str:
    """GridPath's check of a step word, which returns its bits."""
    check_type(steps, str, "steps")  # the codec and the text form translate a str
    return _checked(steps, steps.translate(_PATH_TO_BITS), _STEP_FAULTS)


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
        # a bool or float equals an int but renders apart
        _checked(values, "".join([_VOTE_BITS.get(x, "2") if type(x) is int else "2" for x in values]), _VOTE_FAULTS)
        object.__setattr__(self, "values", values)


def encode_path(p: GridPath) -> CatalanSequence:
    """H -> 0, V -> 1; valid because the path stays under the diagonal."""
    check_type(p, GridPath, "path")
    return _trusted_sequence(p.steps.translate(_PATH_TO_BITS))


def decode_path(s: CatalanSequence) -> GridPath:
    """0 -> H, 1 -> V; inverse of encode_path."""
    return _trusted(GridPath, _write_path(sequence_bits(s)))


def encode_pm(x: PlusMinusSequence) -> CatalanSequence:
    """+1 -> 0 and -1 -> 1 (note the inversion); the partial-sum conditions
    are exactly prefix dominance, so the result is always valid."""
    check_type(x, PlusMinusSequence, "vote sequence")
    return _trusted_sequence("".join(map(_VOTE_BITS.__getitem__, x.values)))


def decode_pm(s: CatalanSequence) -> PlusMinusSequence:
    """0 -> +1, 1 -> -1; inverse of encode_pm."""
    return _trusted(PlusMinusSequence, tuple(1 if ch == "0" else -1 for ch in sequence_bits(s)))


def _read_path(text: str) -> str:
    return parsed(_check_steps, "path text", text)


def _write_path(bits: str) -> str:
    return bits.translate(_BITS_TO_PATH)


def _read_pm(text: str) -> str:
    check_text(text, "vote text")
    rest = text.lstrip("+-")
    if rest:
        raise ParseError(f"expected '+' or '-', found {rest[0]!r}", len(text) - len(rest) + 1)
    return parsed(_checked, "vote text", text, text.translate(_PM_TO_BITS), _VOTE_FAULTS)


def _write_pm(bits: str) -> str:
    return bits.translate(_BITS_TO_PM)
