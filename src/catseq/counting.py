"""Catalan numbers by four routes and three computations, all in exact integers.

C_n = binom(2n, n) / (n + 1), the convolution recurrence
C_{n+1} = C_0 C_n + ... + C_n C_0, the linear recurrence
(n + 2) C_{n+1} = (4n + 2) C_n, and the power series solving
z C(z)^2 = C(z) - 1, C(0) = 1: the convolution's memo read as a series.
Plain Python ints throughout; no floating point is used anywhere here.
"""

from __future__ import annotations

import math

from .core import CapExceededError, CatalanError, _trusted, _Value, _whole, check_int

#: Largest Catalan index ``catalan_convolution`` and ``catalan_series`` reach.  Their
#: one memo sums k + 1 big-integer products for every k below it, so a cold call grows
#: about 11-fold per doubling of n; at the cap it takes about 1 s.
CONVOLUTION_CAP = 1400


class SeriesPrefix(_Value):
    """Leading coefficients of a power series; coefficients[k] is the z^k term, a plain int."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: tuple[int, ...]):
        try:
            coefficients = tuple(coefficients)
        except TypeError:
            raise CatalanError(f"coefficients must be iterable, not {type(coefficients).__name__}") from None
        if not (coefficients and coefficients[0] == 1):
            raise CatalanError("a series prefix must start with the constant term 1")
        if {*map(type, coefficients)} != {int}:  # a bool or float equals an int but renders apart
            raise CatalanError("coefficients must be plain ints")
        object.__setattr__(self, "coefficients", coefficients)


def binomial(a: int, b: int) -> int:
    """Exact binomial coefficient; 0 when b > a.

    >>> binomial(6, 3)
    20
    """
    check_int(a, "binomial argument")
    check_int(b, "binomial argument")
    if a < 0 or b < 0:
        raise CatalanError("binomial arguments must be nonnegative")
    try:
        return math.comb(a, b)
    except OverflowError:  # math.comb refuses min(b, a - b) >= 2**63 at once
        raise CapExceededError(f"binomial({_whole(a)}, {_whole(b)}) is too large to compute") from None


def catalan_closed(n: int) -> int:
    """C_n by the closed form binom(2n, n) / (n + 1).

    >>> [catalan_closed(n) for n in range(7)]
    [1, 1, 2, 5, 14, 42, 132]
    """
    _check_index(n)
    quotient, remainder = divmod(binomial(2 * n, n), n + 1)
    assert remainder == 0, f"(n + 1) does not divide binom(2n, n) at n = {n}"
    return quotient


#: C_0..C_k; grown onto a copy that then replaces it, like ranking._ballot, so no lock
_conv_cache = [1]


def _convolved(n: int) -> list[int]:
    """The shared memo, holding at least C_0..C_n; CapExceededError for n > CONVOLUTION_CAP."""
    global _conv_cache
    if n > CONVOLUTION_CAP:
        raise CapExceededError(f"Catalan index {_whole(n)} exceeds the convolution cap {CONVOLUTION_CAP}")
    memo = _conv_cache
    if len(memo) <= n:
        memo = memo.copy()
        for k in range(len(memo) - 1, n):  # C_0..C_k known, extend by C_{k+1}
            memo.append(sum(memo[i] * memo[k - i] for i in range(k + 1)))
        _conv_cache = memo
    return memo


def catalan_convolution(n: int) -> int:
    """C_n by the convolution recurrence C_{k+1} = sum C_i * C_{k-i}; CapExceededError for n > CONVOLUTION_CAP."""
    _check_index(n)
    return _convolved(n)[n]


def catalan_linear(n: int) -> int:
    """C_n by iterating C_{k+1} = (4k + 2) C_k / (k + 2); each step divides exactly."""
    _check_index(n)
    value = 1
    for k in range(n):
        quotient, remainder = divmod((4 * k + 2) * value, k + 2)
        assert remainder == 0, f"linear recurrence step {k} is not an exact division"
        value = quotient
    return value


def catalan_series(limit: int) -> SeriesPrefix:
    """First ``limit`` coefficients of the series solving C = 1 + z*C^2, C(0) = 1.

    Coefficient k + 1 of 1 + z*C^2 is the degree-k term of C^2, the sum
    C_0 C_k + ... + C_k C_0 of the convolution recurrence, so the prefix is
    the convolution's memo C_0..C_(limit - 1), read as a series.  Raises
    CapExceededError when the prefix would pass C_CONVOLUTION_CAP.
    """
    check_int(limit, "series prefix length")
    if limit < 1:
        raise CatalanError("series prefix length must be at least 1")
    return _trusted(SeriesPrefix, tuple(_convolved(limit - 1)[:limit]))  # plain ints from C_0 = 1


def _check_index(n: int) -> None:
    check_int(n, "Catalan index")
    if n < 0:
        raise CatalanError("Catalan numbers are indexed from 0")
