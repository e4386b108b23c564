"""Catalan sequences: the validated word type, its errors and the checks every module shares.

A Catalan sequence is a binary word of length 2n containing n zeros and
n ones in which no prefix holds more ones than zeros.  Every other object
family in this package round-trips through this form, so the string of
'0'/'1' characters doubles as the universal interchange format.  One scan
(_scan), 8 symbols a step, checks the prefix balance of every word type.
``validate`` is another name for the CatalanSequence constructor.  The
lexicographic order of the words (enumeration, rank, unrank and uniform
sampling) is in ``catseq.ranking``, which no codec imports.
"""

from __future__ import annotations

from functools import cache
from itertools import accumulate


class CatalanError(ValueError):
    """Base class for every error raised by this package, each built as ``cls(message, position=None)``, with
    ``position`` 1-based or None; ``args`` holds the message alone, so pickle and copy keep message and position."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


class OddLengthError(CatalanError):
    """The word has odd length, so it cannot balance zeros and ones."""


class PrefixViolationError(CatalanError):
    """Some prefix holds more ones than zeros; ``position`` is the length of the first."""


class CountMismatchError(CatalanError):
    """The word ends with unequal totals of zeros and ones."""


class InvalidSymbolError(CatalanError):
    """The word contains a character other than '0' or '1'."""


class CapExceededError(CatalanError):
    """A size was requested above one of the package's stated caps."""


class IndexOutOfRangeError(CatalanError):
    """unrank index k is outside [0, C_n)."""


class ParseError(CatalanError):
    """A family text form failed to parse; a position is also named as a " (position N)" suffix."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message if position is None else f"{message} (position {position})", position)


class DomainError(CatalanError):
    """A valid sequence lies outside the image of a partial codec."""


def parse_natural(text: str) -> int | None:
    """The value of a nonempty run of ASCII digits; None for any other text.

    ``str.isdigit`` alone also accepts digits such as '²' that ``int``
    rejects, and ``int`` refuses runs longer than the interpreter's
    int-string limit, so text parsers read their numbers through here and
    raise ParseError on None.
    """
    if text.isascii() and text.isdigit():
        try:
            return int(text)
        except ValueError:  # longer than sys.get_int_max_str_digits()
            pass
    return None


_DIGITS = str.maketrans("", "", "0123456789")


def quote_prefix(text: str) -> str:
    """``repr(text)``, cut to 20 characters plus '...' when longer, so that
    an error message quoting a part of some input stays short."""
    return repr(text) if len(text) <= 20 else f"{text[:20]!r}..."


def check_text(text, what: str) -> None:
    """ParseError unless ``text`` is a str, the one type every family's reader walks."""
    if not isinstance(text, str):
        raise ParseError(f"{what} must be a str, not {type(text).__name__}")


@cache
def _json_scan():
    """json's C scanner, imported at the first pair list, tree or mult text read rather than at start-up."""
    from json import JSONDecoder

    return JSONDecoder().scan_once


def parse_pairs(text: str, noun: str, form: str) -> list[int]:
    """The numbers of a comma-separated "a-b" list, flat as [a0, b0, a1, b1, ...], [] for ""; ParseError
    names its first bad part as a ``noun``.  ``text`` is a str its caller has checked.  A list whose
    separators, with its ASCII digits deleted, are "-,-,...,-" is read as one JSON array; any other, or one
    JSON refuses (an empty part, a leading zero or int's digit limit), part by part."""
    if not text:
        return []
    separators = text.translate(_DIGITS)
    if separators == ("-," * (len(separators) // 2 + 1))[:-1]:
        try:
            return _json_scan()(f"[{text.replace('-', ',')}]", 0)[0]
        except (ValueError, StopIteration):  # StopIteration where no value starts, as in "1-"
            pass
    labels = []
    for part in text.split(","):
        a, dash, b = part.partition("-")
        if not dash or (a := parse_natural(a)) is None or (b := parse_natural(b)) is None:
            raise ParseError(f"bad {noun} {quote_prefix(part)}, expected the form {form!r}")
        labels += a, b
    return labels


def write_pairs(labels: tuple[int, ...]) -> str:
    """The comma-separated "a-b" list of the flat ints (a0, b0, a1, b1, ...), by one format."""
    return ("%d-%d," * (len(labels) // 2))[:-1] % labels


def parsed(check, what: str, *args):
    """``check(*args)``, its CatalanError raised as a ParseError on a bad ``what``."""
    try:
        return check(*args)
    except CatalanError as exc:
        raise ParseError(f"bad {what}: {exc}") from exc


def cut_number(k: int) -> str:
    """``str(k)``, cut to 20 characters plus '...' when longer, so that an
    error message naming a number stays short.  The low digits go first,
    by division, so a number past the int-string limit never meets ``str``:
    0.30102999 < log10(2), so 29 or more digits stay, far below the limit.
    Any value but an int is shown by ``_whole``."""
    if type(k) is not int:
        return _whole(k)
    drop = max(0, abs(k).bit_length() * 30102999 // 10**8 - 30)
    text = ("-" if k < 0 else "") + str(abs(k) // 10**drop)
    return text if len(text) <= 20 else f"{text[:20]}..."


def _whole(value) -> str:
    """``repr(value)``, which is ``str`` for an int.  Past the int-string limit, where ``repr`` fails on an
    int or on a value holding one: ``cut_number`` for an int, ``<type name>(...)`` for any other value."""
    try:
        return repr(value)
    except ValueError:  # an int longer than sys.get_int_max_str_digits()
        return cut_number(value) if type(value) is int else f"{type(value).__name__}(...)"


def check_int(value, what: str) -> None:
    """CatalanError unless ``value`` is a plain int: a bool or float equals an int but is refused."""
    if type(value) is not int:
        raise CatalanError(f"{what} must be an int, not {type(value).__name__}")


def check_type(value, cls: type, what: str) -> None:
    """CatalanError unless ``value`` is a ``cls``, the value type whose fields an encoder reads."""
    if not isinstance(value, cls):
        raise CatalanError(f"{what} must be a {cls.__name__}, not {type(value).__name__}")


def sequence_bits(s: CatalanSequence) -> str:
    """The bits of ``s``; CatalanError unless it is a CatalanSequence, for every pass that reads one."""
    check_type(s, CatalanSequence, "sequence")
    return s.bits


def _check_semilength(n, cap: int, what: str) -> None:
    check_int(n, "semilength")
    if n < 0:
        raise CatalanError("semilength must be nonnegative")
    if n > cap:
        raise CapExceededError(f"semilength {_whole(n)} exceeds the {what} cap {cap}")


def _trusted(cls, *values):
    """``cls(*values)`` with no check run: the fields, in order, set straight
    into their slots, for a codec whose own construction proves the value
    valid.  It builds every value type but CatalanSequence, which has
    ``_trusted_sequence``; a pickled value enters by its checked constructor."""
    obj = object.__new__(cls)
    for name, value in zip(cls.__match_args__, values):
        object.__setattr__(obj, name, value)
    return obj


class _Value:
    """The base of the value types: immutable fields in ``__slots__``.

    A subclass lists its fields as its ``__slots__`` and sets them in
    ``__init__`` with ``object.__setattr__``, after its checks.  Equality
    (same type, equal fields), hashing, the repr ``Name(field=...)``,
    ``__match_args__`` and pickling by the checked constructor follow from the slots.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        if cls.__slots__:  # a subclass that adds no slot keeps its base's fields
            cls.__match_args__ = cls.__slots__

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__match_args__])
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def __copy__(self, memo=None):  # immutable, as a tuple is, so a copy is the value itself; deepcopy passes a memo
        return self

    __deepcopy__ = __copy__


def _steps_table() -> dict[str, tuple[int, int]]:
    """Every '0'/'1' word of 8 symbols: its end balance and its lowest balance, 0 included."""
    table = {"0": (1, 0), "1": (-1, -1)}
    for _ in range(3):  # the words of 2, 4, then 8 symbols, each a pair of the last
        table = {a + b: (ea + eb, la if la < ea + lb else ea + lb)
                 for a, (ea, la) in table.items() for b, (eb, lb) in table.items()}
    return table


def _scan(word: str, steps=_steps_table().get, bad=(0, float("-inf"))) -> tuple[int, int]:
    """(i, balance) for ``word`` read as '0' +1 and '1' -1: i is the 0-based index of the first fault, a
    symbol but '0'/'1' or a '1' that takes the balance below 0, else len(word) and balance the end balance.
    It takes 8 symbols a step from a table, and goes symbol by symbol only through a step that fails,
    as a short last step does."""
    balance = 0
    for start in range(0, len(word), 8):
        end, low = steps(word[start : start + 8], bad)
        if balance + low < 0:
            for i in range(start, min(start + 8, len(word))):
                if word[i] == "0":
                    balance += 1
                elif word[i] != "1" or not balance:
                    return i, balance
                else:
                    balance -= 1
        balance += end
    return len(word), balance


def _check_bits(bits: str) -> str:
    """``bits``, checked to be a Catalan word: the check of the CatalanSequence constructor, and the
    sequence family's read pass on the hub, which builds no sequence."""
    check_type(bits, str, "bits")  # every codec and text form reads a str
    if len(bits) % 2:
        raise OddLengthError(f"length {len(bits)} is odd")
    i, balance = _scan(bits)
    if i < len(bits):
        raise (PrefixViolationError(f"ones exceed zeros in the prefix of length {i + 1}", i + 1) if bits[i] == "1"
               else InvalidSymbolError(f"invalid symbol {bits[i]!r} at position {i + 1}", i + 1))
    if balance:
        ones = (len(bits) - balance) // 2
        raise CountMismatchError(f"{ones} ones vs {len(bits) - ones} zeros")
    return bits


class CatalanSequence(_Value):
    """A validated Catalan sequence.

    Construction enforces both defining conditions, so any instance in
    flight is valid: equal totals of zeros and ones, and no prefix with
    more ones than zeros.  The empty word is the unique valid sequence
    of semilength 0.  The same holds for every validated type of the
    package: its public constructor checks, and a codec that builds a
    value it has proved valid builds it unchecked, a word through the
    private ``_trusted_sequence`` and any other value through ``_trusted``.

    Raises OddLengthError, PrefixViolationError (with the 1-based index
    of the first offending prefix), CountMismatchError, InvalidSymbolError
    for characters outside '0'/'1', or CatalanError if ``bits`` is no str.

    >>> CatalanSequence("001011").semilength
    3
    >>> CatalanSequence("0110")
    Traceback (most recent call last):
        ...
    catseq.core.PrefixViolationError: ones exceed zeros in the prefix of length 3
    """

    __slots__ = ("bits",)

    def __init__(self, bits: str):
        object.__setattr__(self, "bits", _check_bits(bits))

    @property
    def semilength(self) -> int:
        return len(self.bits) // 2

    def __len__(self) -> int:
        return len(self.bits)

    def __str__(self) -> str:
        return self.bits

    def __iter__(self):
        return iter(self.bits)

def _trusted_sequence(bits: str, new=object.__new__, store=CatalanSequence.bits.__set__) -> CatalanSequence:
    """The one trusted builder of a word: ``bits`` unchecked, by one allocation and one slot store."""
    s = new(CatalanSequence)
    store(s, bits)
    return s


class AltitudeProfile(_Value):
    """Running balance (#0 - #1) along a sequence, one entry per prefix.

    For a sequence of semilength n this holds 2n + 1 int heights, starting
    and ending at 0, moving by exactly 1 per step and never dropping
    below 0.  It is the silhouette of the mountain-range rendering.
    """

    __slots__ = ("heights",)

    def __init__(self, heights: tuple[int, ...]):
        try:
            hs = tuple(heights)
            ok = {*map(type, hs)} == {int}  # a bool or float equals an int but renders apart
            ok = ok and hs[0] == 0 == hs[-1] and min(hs) >= 0 and all(abs(b - a) == 1 for a, b in zip(hs, hs[1:]))
        except (TypeError, IndexError):
            ok = False
        if not ok:
            raise CatalanError("heights must start and end at 0, move by 1 per step and never drop below 0")
        object.__setattr__(self, "heights", hs)

    @property
    def peak(self) -> int:
        return max(self.heights)


validate = CatalanSequence  # checks both Catalan conditions and returns the validated sequence


def altitude_profile(s: CatalanSequence) -> AltitudeProfile:
    """Prefix balances of ``s``: heights[i] = #0 - #1 over the first i bits.

    >>> altitude_profile(CatalanSequence("0011")).heights
    (0, 1, 2, 1, 0)
    """
    steps = (1 if ch == "0" else -1 for ch in sequence_bits(s))
    return _trusted(AltitudeProfile, tuple(accumulate(steps, initial=0)))  # valid as s is
