import random
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from catseq import counting
from catseq.core import CapExceededError, CatalanError
from catseq.counting import (
    SeriesPrefix,
    binomial,
    catalan_closed,
    catalan_convolution,
    catalan_linear,
    catalan_series,
)

from oracle import brute_count

# frozen from the brute-force word count (oracle.brute_count, re-run below)
FIRST_CATALANS = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796]


def test_binomial_examples():
    assert binomial(0, 0) == 1
    assert binomial(6, 3) == 20
    assert binomial(4, 7) == 0
    with pytest.raises(CatalanError):
        binomial(-1, 0)


@pytest.mark.parametrize(
    "fn,args",
    [(binomial, (2**64, 2**63)), (binomial, (10**5000, 10**4999)), (catalan_closed, (2**63,)),
     (catalan_closed, (10**5000,))],
    ids=["binomial-2**64", "binomial-10**5000", "closed-2**63", "closed-10**5000"],
)
def test_a_binomial_that_math_comb_refuses_raises_cap_exceeded(fn, args):
    # math.comb refuses min(b, a - b) >= 2**63 at once, so these calls cost nothing
    with pytest.raises(CapExceededError) as info:
        fn(*args)
    assert len(str(info.value)) < 200


def test_closed_examples():
    assert catalan_closed(0) == 1
    assert catalan_closed(3) == 5
    assert catalan_closed(10) == 16796


def test_convolution_examples():
    assert catalan_convolution(1) == 1
    assert catalan_convolution(4) == 14  # 1*5 + 1*2 + 2*1 + 5*1
    assert catalan_convolution(3) == 5


def test_linear_examples():
    assert catalan_linear(0) == 1
    assert catalan_linear(2) == 2  # C_1 = 2/2 = 1, C_2 = 6/3 = 2
    assert catalan_linear(10) == 16796


def test_series_examples():
    assert catalan_series(1).coefficients == (1,)
    assert catalan_series(4).coefficients == (1, 1, 2, 5)
    assert catalan_series(11).coefficients[-1] == 16796


def test_series_rejects_empty_prefix():
    with pytest.raises(CatalanError):
        catalan_series(0)


def test_negative_index_rejected():
    for fn in (catalan_closed, catalan_convolution, catalan_linear):
        with pytest.raises(CatalanError):
            fn(-1)


def test_convolution_routes_refuse_one_past_the_cap():
    assert counting.CONVOLUTION_CAP == 1400  # README's value; the checks below read the constant
    message = f"^Catalan index {counting.CONVOLUTION_CAP + 1} exceeds the convolution cap {counting.CONVOLUTION_CAP}$"
    with pytest.raises(CapExceededError, match=message):
        catalan_convolution(counting.CONVOLUTION_CAP + 1)
    with pytest.raises(CapExceededError, match=message):
        catalan_series(counting.CONVOLUTION_CAP + 2)  # its last term would be C_(cap + 1)


def test_convolution_cap_holds_at_its_boundary(monkeypatch):
    catalan_convolution(8)  # the memo already holds C_6, yet the cap refuses it below
    monkeypatch.setattr(counting, "CONVOLUTION_CAP", 5)
    assert catalan_convolution(5) == 42 and catalan_series(6).coefficients[-1] == 42
    for call in (lambda: catalan_convolution(6), lambda: catalan_series(7)):
        with pytest.raises(CapExceededError, match="^Catalan index 6 exceeds the convolution cap 5$"):
            call()


def test_cross_method_agreement_to_300():
    series = catalan_series(301).coefficients
    for n in range(301):
        closed = catalan_closed(n)  # exact divisibility asserted inside
        assert closed == catalan_convolution(n)
        assert closed == catalan_linear(n)
        assert closed == series[n]


def test_the_series_reads_the_convolution_memo(monkeypatch):
    monkeypatch.setattr(counting, "_conv_cache", [1])
    catalan_series(60)
    memo = counting._conv_cache
    assert memo == [catalan_closed(n) for n in range(60)]
    assert catalan_convolution(59) == memo[59] and counting._conv_cache is memo and len(memo) == 60


def test_series_satisfies_the_convolution_identity():
    coeffs = catalan_series(40).coefficients
    for k in range(39):
        assert coeffs[k + 1] == sum(coeffs[i] * coeffs[k - i] for i in range(k + 1))


@pytest.mark.parametrize("n", range(11))
def test_every_method_matches_the_brute_force_word_count(n):
    expected = brute_count(n)
    assert expected == FIRST_CATALANS[n]
    assert catalan_closed(n) == expected
    assert catalan_convolution(n) == expected
    assert catalan_linear(n) == expected
    assert catalan_series(n + 1).coefficients[n] == expected


def test_values_stay_positive():
    assert all(catalan_linear(n) >= 1 for n in range(50))


def test_series_prefix_requires_unit_constant_term():
    with pytest.raises(CatalanError):
        SeriesPrefix((2, 1))


#: (function, arguments, message): an index, prefix length or binomial argument
#: that is not a plain int, and the int messages kept as they were
BAD_ARGUMENTS = [
    (catalan_closed, (2.5,), "Catalan index must be an int, not float"),
    (catalan_convolution, (2.5,), "Catalan index must be an int, not float"),
    (catalan_linear, (2.5,), "Catalan index must be an int, not float"),
    (catalan_closed, (True,), "Catalan index must be an int, not bool"),
    (catalan_series, (2.5,), "series prefix length must be an int, not float"),
    (binomial, (4.0, 2), "binomial argument must be an int, not float"),
    (binomial, (4, True), "binomial argument must be an int, not bool"),
    (catalan_linear, (-1,), "Catalan numbers are indexed from 0"),
    (catalan_series, (0,), "series prefix length must be at least 1"),
    (binomial, (-1, 0), "binomial arguments must be nonnegative"),
]


@pytest.mark.parametrize(
    "fn,args,message", BAD_ARGUMENTS, ids=[f"{fn.__name__}{args}" for fn, args, _ in BAD_ARGUMENTS]
)
def test_rejects_an_argument_that_is_not_a_plain_int(fn, args, message):
    with pytest.raises(CatalanError) as info:
        fn(*args)
    assert (type(info.value), str(info.value)) == (CatalanError, message)


def test_series_prefix_stores_a_hashable_tuple():
    prefix = SeriesPrefix([1, 2])
    assert type(prefix.coefficients) is tuple
    assert prefix == SeriesPrefix((1, 2)) and hash(prefix) == hash(SeriesPrefix((1, 2)))


@pytest.mark.parametrize(
    "coefficients,message",
    [
        ((True,), "coefficients must be plain ints"),
        ((1.0, 2), "coefficients must be plain ints"),
        ((1, 2.0), "coefficients must be plain ints"),
        (5, "coefficients must be iterable, not int"),
        ((2, 1), "a series prefix must start with the constant term 1"),
        ((), "a series prefix must start with the constant term 1"),
    ],
)
def test_series_prefix_rejects(coefficients, message):
    with pytest.raises(CatalanError) as info:
        SeriesPrefix(coefficients)
    assert (type(info.value), str(info.value)) == (CatalanError, message)


def test_threads_growing_the_convolution_memo_agree(monkeypatch):
    indices = list(range(0, 241, 3))
    expected = {n: catalan_closed(n) for n in indices}
    orders = [random.Random(t).sample(indices, len(indices)) for t in range(6)]

    def count(order):
        return {n: catalan_convolution(n) for n in order}

    monkeypatch.setattr(counting, "_conv_cache", [1])  # every thread grows it anew
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=len(orders)) as pool:
            counted = list(pool.map(count, orders, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    for result in counted:
        assert result == expected
