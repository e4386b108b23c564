"""Catalan sequences: validation, enumeration, ranking and uniform sampling.

A Catalan sequence is a binary word of length 2n containing n zeros and
n ones in which no prefix holds more ones than zeros.  Every other object
family in this package round-trips through this form, so the string of
'0'/'1' characters doubles as the universal interchange format.  One scan
(_scan), 8 symbols a step, checks the prefix balance of every word type.
``validate`` is another name for the CatalanSequence constructor.
"""

from __future__ import annotations

import random
from collections import deque
from collections.abc import Iterator
from functools import cache
from itertools import accumulate, chain, repeat, starmap
from math import comb
from operator import add

#: Largest semilength `iter_sequences` and `enumerate_sequences` accept.
#: C_16 is about 35 million words: the iterator streams them in constant
#: memory, but the list holds them all.  Anything above the cap must go
#: through rank/unrank, which only need the ballot-number table.
ENUMERATION_CAP = 16
#: Length of the closings that end the words of one batch of ``_successors``.
#: Each batch costs one leaf of the prefix walk and one pass of ``_trusted_sequences``
#: (the CLI joins it into lines and builds no sequence), so longer closings mean
#: fewer, larger batches: at 14 a batch holds up to 1,001 words, and the closings
#: table, built on first use, takes 0.24 MB.
_BATCH = 14


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
    ``_trusted_sequence``, and unpickling and copying rebuild every value
    through here.  The public constructors and every ``read`` keep every check."""
    obj = object.__new__(cls)
    for name, value in zip(cls.__match_args__, values):
        object.__setattr__(obj, name, value)
    return obj


class _Value:
    """The base of the value types: immutable fields in ``__slots__``.

    A subclass lists its fields as its ``__slots__`` and sets them in
    ``__init__`` with ``object.__setattr__``, after its checks.  Equality
    (same type, equal fields), hashing, the repr ``Name(field=...)``,
    ``__match_args__``, pickling and copying follow from the slots.
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
        return _trusted, (type(self), *self._values())


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


def _trusted_sequences(prefix: str, ends: list[str], new=object.__new__, store=CatalanSequence.bits.__set__,
                       drain=deque(maxlen=0).extend) -> list[CatalanSequence]:
    """The batch form of ``_trusted_sequence``, for the words ``prefix + end``: one allocation pass and
    one slot-store pass, both run in C, with no Python frame per word.  Enumeration builds through here."""
    batch = [*map(new, repeat(CatalanSequence, len(ends)))]
    drain(map(store, batch, map(prefix.__add__, ends)))
    return batch


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


def iter_sequences(n: int) -> Iterator[CatalanSequence]:
    """The C_n Catalan sequences of semilength n, lexicographically ascending,
    one at a time, in memory that does not grow with C_n.

    Raises CatalanError unless n is an int and n >= 0, and CapExceededError
    for n > ENUMERATION_CAP, when called, before the first word.

    >>> it = iter_sequences(3)
    >>> next(it).bits, next(it).bits, [s.bits for s in it]
    ('000111', '001011', ['001101', '010011', '010101'])
    """
    _check_semilength(n, ENUMERATION_CAP, "enumeration")
    return chain.from_iterable(starmap(_trusted_sequences, _successors(n)))  # valid as each closing is


@cache
def _closings(m: int) -> list[list[str]]:
    """Per balance b, the closings of length m: the words that take b to 0 and no lower, ascending."""
    table = [[""]]
    for length in range(1, m + 1):  # in this one call, so the cache keeps length m alone
        prev = table + [[], []]  # none from length or length + 1, which prev[-1] reads as -1
        table = [["0" + c for c in prev[b + 1]] + ["1" + c for c in prev[b - 1]] for b in range(length + 1)]
    return table


def _successors(n: int, prefix: str = "", balance: int = 0) -> Iterator[tuple[str, list[str]]]:
    """Every word of semilength n that starts with ``prefix``, whose balance is ``balance``, as one
    (prefix, closings) pair per batch with nothing built: the prefix has cut = max(0, 2n - _BATCH) symbols,
    and the closings of its balance, a list of the shared table that no reader may change, end its words.
    The walk tries '0' before '1', so the batches come in lexicographic order; it takes '0' only while the
    rest can still close and '1' only above balance 0, and recurses at most 2 ENUMERATION_CAP - _BATCH deep."""
    cut = max(0, 2 * n - _BATCH)
    if len(prefix) == cut:
        yield prefix, _closings(2 * n - cut)[balance]
        return
    if balance < 2 * n - len(prefix) - 1:
        yield from _successors(n, prefix + "0", balance + 1)
    if balance:
        yield from _successors(n, prefix + "1", balance - 1)


def enumerate_sequences(n: int) -> list[CatalanSequence]:
    """All C_n Catalan sequences of semilength n, lexicographically ascending.

    >>> [s.bits for s in enumerate_sequences(2)]
    ['0011', '0101']
    """
    return list(iter_sequences(n))


#: _ballot[r][b] = number of valid completions with r symbols remaining and a
#: current zeros-minus-ones balance of b, for b = 0..r+2 (zero above r).  Row r
#: does not depend on the word length, so every length reads one table.  It
#: holds rows 0.._TABLE_ROWS at most, about 2.7 MB of ints, grown only as far
#: as a call needs and only onto a copy that then replaces it, so a reader
#: never sees a half-built row and concurrent callers need no lock.
#:
#: A longer word carries, through its first len - _TABLE_ROWS symbols, the
#: count z of the words that go on with a '0' at the current symbol.  By the
#: reflection principle (Feller, vol. 1, III.1) z = (h+1)/(r+1) C(r+1, j),
#: where r symbols follow this one, h is the balance + 1 and j = (r - h) / 2.
#: At the first symbol z = C_n, r = 2n - 1, h = 1 and j = n - 1.  After a '0'
#: z becomes z (h+2) j / (r (h+1)), as h rises and j falls by 1; after a '1',
#: z h (r+1-j) / (r (h+1)), as h falls by 1; r falls by 1 either way.  Both
#: divides are exact.  The table serves the last _TABLE_ROWS symbols.
_ballot: list[tuple[int, ...]] = [(1, 0, 0)]
#: The last row of the table.  A whole word read off the table, a digit pair a
#: step, takes 2.0 to 3.8 times less than one carried a symbol a step at
#: n = 25..200; past here the rows would grow as the square of the length.
_TABLE_ROWS = 400
#: Largest semilength ``sequence_count``, ``rank``, ``unrank`` and
#: ``random_uniform`` accept: the carry costs a word O(n^2) digit operations.
RANKING_CAP = 2**15


def _ballot_rows(length: int) -> list[tuple[int, ...]]:
    """The shared table with at least rows 0..min(length, _TABLE_ROWS)."""
    global _ballot
    rows = _ballot
    if len(rows) <= length and len(rows) <= _TABLE_ROWS:
        rows = rows.copy()
        for _ in range(len(rows), min(length, _TABLE_ROWS) + 1):
            prev = rows[-1]  # place '0': balance rises; place '1': it falls
            rows.append((prev[1], *map(add, prev, prev[2:]), 0, 0))
        _ballot = rows
    return rows


def _count(n: int) -> int:
    """C_n for a checked n, growing no table: read off it where it holds row 2n, else C(2n, n) / (n + 1)."""
    rows = _ballot  # a warm read makes no call, as every unrank and draw runs it
    return rows[2 * n][0] if 2 * n < len(rows) else comb(2 * n, n) // (n + 1)


def sequence_count(n: int) -> int:
    """C_n, the number of Catalan sequences of semilength n, with no list or
    table built: read off the ballot table once grown that far, else C(2n, n) / (n + 1).

    Raises CatalanError unless n is an int and n >= 0, and CapExceededError
    for n > RANKING_CAP.
    """
    _check_semilength(n, RANKING_CAP, "ranking")
    return _count(n)


def rank(s: CatalanSequence) -> int:
    """0-based position of ``s`` within ``enumerate_sequences(s.semilength)``.

    Every '1' is charged with the count of valid words that branch off with
    a '0' at that position: carried by the closed form a symbol a step
    through all but the last 400 symbols, read off the ballot table a digit
    pair a step for those.  Raises CapExceededError for a semilength above
    RANKING_CAP.
    """
    bits = sequence_bits(s)
    b = 1  # the balance + 1
    position = 0
    if len(bits) > _TABLE_ROWS:
        n = len(bits) // 2
        _check_semilength(n, RANKING_CAP, "ranking")  # raises CapExceededError past the cap
        head = len(bits) - _TABLE_ROWS
        z, r, h, j = _count(n), 2 * n - 1, 1, n - 1
        for ch in bits[:head]:
            if ch == "1":
                position += z
                z = z * (h * (r + 1 - j)) // (r * (h + 1))
                h -= 1
            else:
                z = z * ((h + 2) * j) // (r * (h + 1))
                h += 1
                j -= 1
            r -= 1
        b = h
        bits = bits[head:]
    table = _ballot_rows(len(bits))
    remaining = len(bits)
    it = iter(bits)
    for first, second in zip(it, it):  # remaining - 1 symbols follow the first
        if first == "1":
            position += table[remaining - 1][b]
            if second == "1":
                position += table[remaining - 2][b - 1]
                b -= 2
        elif second == "1":
            position += table[remaining - 2][b + 1]
        else:
            b += 2
        remaining -= 2
    return position


def unrank(n: int, k: int) -> CatalanSequence:
    """The k-th sequence of semilength n in lexicographic order; inverse of rank.

    Raises CatalanError unless n and k are ints and n >= 0, CapExceededError
    for n > RANKING_CAP, and IndexOutOfRangeError unless 0 <= k < C_n.
    """
    _check_semilength(n, RANKING_CAP, "ranking")
    check_int(k, "index")
    total = _count(n)
    if not 0 <= k < total:
        raise IndexOutOfRangeError(f"index {_whole(k)} outside [0, {_whole(total)}) for semilength {n}")
    return _unrank(n, k, total)


def _unrank(n: int, k: int, total: int) -> CatalanSequence:
    """``unrank(n, k)`` for a checked n, 0 <= k < C_n and ``total`` = ``_count(n)``: the
    carry picks a symbol a step, the table a digit pair from at most two reads."""
    bits = []
    b = 1  # the balance + 1
    tail = 2 * n  # the symbols read off the table
    table = _ballot  # a warm read makes no call; a cold one grows the table here
    if len(table) <= tail:
        table = _ballot_rows(tail)
    if tail > _TABLE_ROWS:
        z, r, h, j = total, 2 * n - 1, 1, n - 1
        for _ in range(tail - _TABLE_ROWS):
            if k < z:
                bits.append("0")
                z = z * ((h + 2) * j) // (r * (h + 1))
                h += 1
                j -= 1
            else:
                k -= z
                bits.append("1")
                z = z * (h * (r + 1 - j)) // (r * (h + 1))
                h -= 1
            r -= 1
        b = h
        tail = _TABLE_ROWS
    rows = reversed(table[:tail])  # row r: r symbols follow this one
    for first, second in zip(rows, rows):
        if k < first[b]:
            if k < second[b + 1]:
                bits.append("00")
                b += 2
            else:
                k -= second[b + 1]
                bits.append("01")
        else:
            k -= first[b]
            if k < second[b - 1]:
                bits.append("10")
            else:
                k -= second[b - 1]
                bits.append("11")
                b -= 2
    return _trusted_sequence("".join(bits))


def random_uniform(n: int, seed: int) -> CatalanSequence:
    """A uniformly random sequence of semilength n, deterministic in (n, seed): CatalanError for
    a seed of None, which draws from the system, a NaN, or a type ``random.Random`` refuses."""
    _check_semilength(n, RANKING_CAP, "ranking")
    if not isinstance(seed, (int, float, str, bytes, bytearray)):
        raise CatalanError(f"seed must be an int, float, str, bytes or bytearray, not {type(seed).__name__}")
    if seed != seed:
        raise CatalanError("seed must not be NaN")
    total = _count(n)
    return _unrank(n, random.Random(seed).randrange(total), total)
