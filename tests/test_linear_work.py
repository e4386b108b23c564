"""Work that grows linearly: every family's read and write, counted by events.

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
from catseq.families import FAMILIES
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


def apexes(m: int, diagonals, a: int, b: int) -> list[int]:
    """The apexes of the two triangles on the diagonal (a, b) of a triangulation."""
    edges = set(diagonals) | {(v, v + 1) for v in range(m - 1)} | {(0, m - 1)}
    return [c for c in range(m) if c not in (a, b) and {(min(a, c), max(a, c)), (min(c, b), max(c, b))} <= edges]


def check_faults(tri) -> dict:
    """Polygon texts whose only fault is one that the pair check finds, each at the start, middle and end of the
    sorted diagonals: a crossing (the diagonal across a quadrilateral, in place of its neighbour), a side and a
    duplicate."""
    parts = [f"{a}-{b}" for a, b in tri.diagonals]
    texts = {}
    for where, k in (("start", 0), ("middle", len(parts) // 2), ("end", len(parts) - 1)):
        a, b = tri.diagonals[k]
        c, d = apexes(tri.m, tri.diagonals, a, b)
        other = k - 1 if k else k + 1
        faults = {"crossing": (other, f"{c}-{d}"), "side": (k, f"{a}-{a + 1}"), "duplicate": (k, parts[other])}
        for fault, (i, part) in faults.items():
            texts[f"{fault} at the {where}"] = f"{tri.m};" + ",".join(parts[:i] + [part] + parts[i + 1 :])
    return texts


def calls(shape, n: int) -> dict:
    """The passes under test, each on the one input the word ``shape(n)`` gives them."""
    word = shape(n)
    s = validate(word)
    tri = decode_polygon(s)
    polygon_text, chords_text = write_polygon(s), write_chords(s)
    head, _, tail = polygon_text.partition(";")
    parts = tail.split(",")
    faults = {
        f"a bad part at the {where}": f"{head};" + ",".join(parts[:k] + ["0-x"] + parts[k + 1 :])
        for where, k in (("start", 0), ("middle", len(parts) // 2), ("end", len(parts) - 1))
    }
    faults.update(check_faults(tri))
    image = validate("0" + shape(n - 1) + "1")  # the words rpn-paper writes
    families = {}
    for name in ("sequence", "tree", "path", "pm", "mult", "rpn", "rpn-paper"):
        family, t = FAMILIES[name], image if name == "rpn-paper" else s
        text = family.write(t)
        families[f"{name} read"] = lambda family=family, text=text: family.read(text)
        families[f"{name} write"] = lambda family=family, t=t: family.write(t)
    return {
        "read_polygon": lambda: read_polygon(polygon_text),
        "write_polygon": lambda: write_polygon(s),
        "Triangulation": lambda: Triangulation(tri.m, tri.diagonals),
        "encode_polygon": lambda: encode_polygon(tri),
        "read_chords": lambda: read_chords(chords_text),
        "write_chords": lambda: write_chords(s),
        **{f"refused read_polygon, {fault}": refused(text) for fault, text in faults.items()},
        **families,
    }


SHAPES = {
    "random": lambda n: cycle_lemma_word(n, random.Random(n)),
    "deep": lambda n: "0" * n + "1" * n,
    "flat": lambda n: "01" * n,
    "fan": lambda n: "0" + "01" * (n - 1) + "1",  # every diagonal from vertex 0
}


@pytest.mark.parametrize("shape", SHAPES)
def test_doubling_n_at_most_doubles_the_work(shape):
    small, large = calls(SHAPES[shape], N), calls(SHAPES[shape], 2 * N)
    grown = {name: (events(small[name]), events(large[name])) for name in small}
    too_fast = {name: counts for name, counts in grown.items() if counts[1] > 2 * counts[0] + SLACK}
    assert not too_fast, too_fast
