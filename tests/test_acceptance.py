"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Everything here is exact integer/string equality; the only tolerances are
the stated wall-clock budgets, asserted where a criterion names one.
Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
"""

import subprocess
import sys
import time
from itertools import product

from catseq.core import validate
from catseq.counting import catalan_closed, catalan_convolution, catalan_linear, catalan_series
from catseq.families import FAMILIES
from catseq.ranking import enumerate_sequences, rank, unrank
from catseq.trees import NotInImageError, node_count, rpn_paper_decode, rpn_paper_encode

parse_rpn, render_rpn = FAMILIES["rpn"].parse, FAMILIES["rpn"].render

COUNTS = [1, 1, 2, 5, 14, 42, 132, 429]  # C_0..C_7


def report(number: int, ok: bool, detail: str, elapsed: float | None = None):
    timing = f" [{elapsed * 1000:.1f} ms]" if elapsed is not None else ""
    line = f"{'PASS' if ok else 'FAIL'} criterion {number}: {detail}{timing}"
    print(line)
    assert ok, line


def test_criterion_1_enumerate_3_in_paper_order():
    start = time.perf_counter()
    words = [s.bits for s in enumerate_sequences(3)]
    elapsed = time.perf_counter() - start
    expected = ["000111", "001011", "001101", "010011", "010101"]
    report(
        1,
        words == expected and elapsed < 0.010,
        "enumerate(3) lists the five semilength-3 codes in order",
        elapsed,
    )


def test_criterion_2_counting_agreement_to_300():
    start = time.perf_counter()
    series = catalan_series(301).coefficients
    agree = all(
        catalan_closed(n) == catalan_convolution(n) == catalan_linear(n) == series[n]
        for n in range(301)
    )
    elapsed = time.perf_counter() - start
    pinned = catalan_closed(0) == 1 and catalan_closed(3) == 5 and catalan_closed(10) == 16796
    report(
        2,
        agree and pinned and elapsed < 1.0,
        "closed/convolution/linear/series agree for 0 <= n <= 300; C_0, C_3, C_10 pinned",
        elapsed,
    )


def test_criterion_3_paper_rpn_round_trip():
    expression = parse_rpn("aaa*a**")
    encoded = rpn_paper_encode(expression)
    back = rpn_paper_decode(encoded)
    report(
        3,
        encoded.bits == "00010111" and back == expression and render_rpn(back) == "aaa*a**",
        'rpn-paper codes "aaa*a**" as 00010111 and back',
    )


def test_criterion_4_fig7_coherence():
    s = validate("00010111")
    views = {name: FAMILIES[name].decode(s) for name in ("tree", "chords", "mult", "path")}
    ok = (
        FAMILIES["tree"].render(views["tree"]) == "((. (. .)) (. .))"
        and node_count(views["tree"]) == 4
        and FAMILIES["chords"].render(views["chords"]) == "1-8,2-7,3-4,5-6"
        and FAMILIES["mult"].render(views["mult"]).count("a") == 5
        and FAMILIES["path"].render(views["path"]) == "HHHVHVVV"
        and all(FAMILIES[name].encode(obj) == s for name, obj in views.items())
    )
    report(4, ok, "00010111 decodes coherently as tree/chords/expression/path and re-encodes")


def test_criterion_5_exhaustive_bijections():
    start = time.perf_counter()
    ok = True
    for name, family in FAMILIES.items():
        if not family.total:
            continue
        for n in range(8):
            sequences = enumerate_sequences(n)
            decoded = [family.decode(s) for s in sequences]
            ok = ok and all(family.encode(obj) == s for obj, s in zip(decoded, sequences))
            ok = ok and len(set(decoded)) == COUNTS[n] == len(sequences)
    elapsed = time.perf_counter() - start
    report(
        5,
        ok and elapsed < 10.0,
        "every total codec is a bijection on all sequences up to n = 7",
        elapsed,
    )


def test_criterion_6_partial_codec_image_counts():
    ok = True
    for n in range(1, 9):
        decodable = 0
        for s in enumerate_sequences(n):
            try:
                rpn_paper_decode(s)
                decodable += 1
            except NotInImageError:
                pass
        ok = ok and decodable == catalan_closed(n - 1)
    report(6, ok, "exactly C_{n-1} sequences are rpn-paper-decodable for 1 <= n <= 8")


def test_criterion_7_oracle_equivalence():
    start = time.perf_counter()
    ok = True
    for n in range(9):
        accepted = []
        for raw in product("01", repeat=2 * n):
            word = "".join(raw)
            try:
                accepted.append(validate(word))
            except Exception:
                pass
        listed = enumerate_sequences(n)
        ok = ok and accepted == listed
        ok = ok and all(rank(s) == k and unrank(n, k) == s for k, s in enumerate(listed))
    elapsed = time.perf_counter() - start
    report(
        7,
        ok and elapsed < 30.0,
        "enumerate equals the validate filter and rank/unrank invert it, n <= 8",
        elapsed,
    )


def test_criterion_8_series_fixed_point():
    coefficients = catalan_series(50).coefficients
    ok = list(coefficients) == [catalan_closed(n) for n in range(50)]
    report(8, ok, "first 50 series coefficients of zC^2 = C - 1 match the closed form")


def test_criterion_9_cli_golden_transcripts():
    def run(*args):
        return subprocess.run([sys.executable, "-m", "catseq", *args], capture_output=True)

    count = run("count", "--n", "3")
    decode_ok = run("decode", "--family", "rpn-paper", "00010111")
    decode_bad = run("decode", "--family", "rpn-paper", "010011")
    ok = (
        (count.returncode, count.stdout, count.stderr) == (0, b"5\n", b"")
        and (decode_ok.returncode, decode_ok.stdout, decode_ok.stderr) == (0, b"aaa*a**\n", b"")
        and decode_bad.returncode == 2
        and decode_bad.stdout == b""
        and b"domain error" in decode_bad.stderr
    )
    report(9, ok, "count/decode transcripts match byte-for-byte with exit codes 0/0/2")
