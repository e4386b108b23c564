"""Work that grows linearly: the polygon and chords passes, counted by events.

One call's count is the number of ``sys.settrace`` line events plus
``sys.setprofile`` ``c_call`` events it raises, after one warming call.  The
count is exact for a given input and interpreter, so doubling n must at
most double it, up to a constant: count(2n) <= 2 count(n) + SLACK.  Counts
differ across CPython minors, so only that relation is asserted, never a
count.

What the count cannot see: the work inside one C call is one event, so a
sort, a ``str`` scan or ``translate``, the JSON scanner and big-int
arithmetic may grow faster than linearly without showing here, and so may
the cyclic collector.  A Python-level loop that grows faster does show.
"""

import random
import sys

import pytest

from catseq.chords import read_chords, write_chords
from catseq.core import ParseError, validate
from catseq.polygons import Triangulation, decode_polygon, encode_polygon, read_polygon, write_polygon

from oracle import cycle_lemma_word

N = 2000
# a random word at 2n is drawn apart from the one at n, so its shape adds a few hundred events either way
SLACK = 1000


def events(call) -> int:
    """The line and C-call events of one ``call()``, after a first call that warms it."""
    count = 0

    def trace(frame, event, arg):
        nonlocal count
        count += event == "line"
        return trace

    def profile(frame, event, arg):
        nonlocal count
        count += event == "c_call"

    call()
    hooks = sys.gettrace(), sys.getprofile()
    sys.settrace(trace)
    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.settrace(hooks[0])
        sys.setprofile(hooks[1])
    return count


def refused(text: str):
    def call():
        with pytest.raises(ParseError):
            read_polygon(text)
    return call


def calls(word: str) -> dict:
    """The passes under test, each on the one input ``word`` gives them."""
    s = validate(word)
    tri = decode_polygon(s)
    polygon_text, chords_text = write_polygon(s), write_chords(s)
    head, _, tail = polygon_text.partition(";")
    parts = tail.split(",")
    faults = {
        where: f"{head};" + ",".join(parts[:k] + ["0-x"] + parts[k + 1 :])
        for where, k in (("start", 0), ("middle", len(parts) // 2), ("end", len(parts) - 1))
    }
    return {
        "read_polygon": lambda: read_polygon(polygon_text),
        "write_polygon": lambda: write_polygon(s),
        "Triangulation": lambda: Triangulation(tri.m, tri.diagonals),
        "encode_polygon": lambda: encode_polygon(tri),
        "read_chords": lambda: read_chords(chords_text),
        "write_chords": lambda: write_chords(s),
        **{f"refused read_polygon, fault at the {where}": refused(text) for where, text in faults.items()},
    }


SHAPES = {
    "random": lambda n: cycle_lemma_word(n, random.Random(n)),
    "deep": lambda n: "0" * n + "1" * n,
    "flat": lambda n: "01" * n,
}


@pytest.mark.parametrize("shape", SHAPES)
def test_doubling_n_at_most_doubles_the_work(shape):
    small, large = calls(SHAPES[shape](N)), calls(SHAPES[shape](2 * N))
    grown = {name: (events(small[name]), events(large[name])) for name in small}
    too_fast = {name: counts for name, counts in grown.items() if counts[1] > 2 * counts[0] + SLACK}
    assert not too_fast, too_fast
