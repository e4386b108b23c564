"""Catalan sequences in lexicographic order: enumeration, counting, ranking and uniform sampling.

The words of semilength n come from one walk of the prefix tree, '0' before '1', in batches of a prefix
and its closings; rank, unrank and random_uniform read one shared ballot-number table, with a closed-form
carry through the symbols before its last _TABLE_ROWS.  Only the commands that order or draw words import
this module; the codecs and the hub need none of it.
"""

from __future__ import annotations

import random
from collections import deque
from collections.abc import Iterator
from functools import cache
from itertools import chain, repeat, starmap
from math import comb
from operator import add

from .core import (
    CatalanError, CatalanSequence, IndexOutOfRangeError, _check_semilength, _trusted_sequence, _whole, check_int,
    sequence_bits,
)

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


def _trusted_sequences(prefix: str, ends: list[str], new=object.__new__, store=CatalanSequence.bits.__set__,
                       drain=deque(maxlen=0).extend) -> list[CatalanSequence]:
    """The batch form of ``_trusted_sequence``, for the words ``prefix + end``: one allocation pass and
    one slot-store pass, both run in C, with no Python frame per word.  Enumeration builds through here."""
    batch = [*map(new, repeat(CatalanSequence, len(ends)))]
    drain(map(store, batch, map(prefix.__add__, ends)))
    return batch


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
