"""Runs the operations of a workload against catseq, times them and checks them.

One caller, no threads: every operation, CLI calls included, runs to its
end before the next starts.  Timing covers the call into catseq only;
building inputs and checking outputs happen outside the timed region.
With a Tracer attached, each call into a layer is recorded as a span.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import time
from array import array
from collections import defaultdict

import reference as ref

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")

#: module that implements each family's parse / encode / decode / render
MODULE_OF = {
    "sequence": "core",
    "tree": "trees",
    "path": "lattice",
    "pm": "lattice",
    "chords": "chords",
    "mult": "trees",
    "rpn": "trees",
    "rpn-paper": "trees",
    "polygon": "polygons",
}
STAGES = ("parse", "encode", "decode", "render")


def load_catseq():
    """Import catseq from the checkout's source tree."""
    if not os.path.isfile(os.path.join(SRC, "catseq", "__init__.py")):
        raise SystemExit(f"catseq sources not found under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import catseq
    import catseq.cli

    return catseq


def cli_env() -> dict:
    return dict(os.environ, PYTHONPATH=SRC, PYTHONUTF8="1")


class Tracer:
    """Spans in memory: (name, op, parent, start_ns, end_ns) per span, flat ints."""

    FIELDS = 5

    def __init__(self):
        self.names: dict[str, int] = {}
        self.spans = array("q")

    def name_id(self, name: str) -> int:
        return self.names.setdefault(name, len(self.names))

    def record(self, name: str, op: int, parent: int, start: int, end: int) -> int:
        index = len(self.spans) // self.FIELDS
        self.spans.extend((self.name_id(name), op, parent, start, end))
        return index

    def finish(self, index: int, end: int) -> None:
        self.spans[index * self.FIELDS + 4] = end

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, mean self time in ns).

        Self time is a span's duration minus the durations of its
        children; children of one span never overlap here.
        """
        s = self.spans
        f = self.FIELDS
        count = len(s) // f
        child = [0] * count
        for i in range(count):
            parent = s[i * f + 2]
            if parent >= 0:
                child[parent] += s[i * f + 4] - s[i * f + 3]
        calls = defaultdict(int)
        total = defaultdict(int)
        for i in range(count):
            name = s[i * f]
            calls[name] += 1
            total[name] += s[i * f + 4] - s[i * f + 3] - child[i]
        by_id = {v: k for k, v in self.names.items()}
        return {by_id[k]: (calls[k], total[k] / calls[k]) for k in calls}


#: the words of the calibration loop: fixed, not drawn from the seed
CALIBRATION_WORDS = tuple(ref.cycle_lemma_word(n, random.Random(7)) for n in (6, 12, 20))
CALIBRATION_FAMILIES = tuple(f for f in ref.FAMILY_NAMES if f != "rpn-paper")


def calibration() -> None:
    """A fixed piece of the benchmark's own reference code: the text of
    three fixed words in eight families, each parsed back and checked.
    This is the same kind of interpreter work as a small transcode
    (strings, lists, small objects, recursion), and it does not touch
    catseq."""
    for word in CALIBRATION_WORDS:
        for family in CALIBRATION_FAMILIES:
            if not ref.check_output(family, word, ref.family_text(family, word)):
                raise AssertionError(f"calibration: {family} {word}")


class Runner:
    """Executes operation tuples from workloads.build_round and keeps the tallies."""

    def __init__(self, catseq, tracer: Tracer | None = None):
        self.cs = catseq
        self.tracer = tracer
        self.latency = defaultdict(lambda: array("d"))  # end-to-end kind -> seconds per call
        self.epochs = defaultdict(lambda: array("l"))  # the epoch of each of those calls
        #: calibration loops run so far; the caller keeps it up to date
        self.epoch = 0
        self.words = 0
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.failures: list[str] = []
        self.op_id = 0
        self.repeat: dict[tuple[int, int], str] = {}  # this round's samples, by (n, seed)

    # -- bookkeeping ------------------------------------------------------

    def _fail(self, what) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(repr(what)[:300])

    def _check(self, ok: bool, what) -> None:
        if not ok:
            self.wrong.append(repr(what)[:300])

    def _latency(self, kind: str, seconds: float) -> None:
        self.latency[kind].append(seconds)
        self.epochs[kind].append(self.epoch)

    def run(self, op: tuple) -> None:
        self.op_id += 1
        try:
            getattr(self, "_" + op[0])(*op[1:])
        except self.cs.CatalanError as exc:
            self._check(False, (op[:3], exc))
        except Exception as exc:
            self._fail((op[:3], exc))

    # -- transcode ----------------------------------------------------------

    def _transcode(self, src, dst, text, word, expect):
        self.attempted += 1
        cs = self.cs
        try:
            if self.tracer is None:
                out = err = None
                t0 = time.perf_counter_ns()
                try:
                    out = cs.transcode(src, dst, text)
                except cs.CatalanError as exc:
                    err = exc
                t1 = time.perf_counter_ns()
            else:
                out, err, t0, t1 = self._transcode_traced(src, dst, text)
        except Exception as exc:
            self._fail(("transcode", src, dst, text, exc))
            return
        self._latency("transcode", (t1 - t0) * 1e-9)
        if expect == "ok":
            self._check(err is None and ref.check_output(dst, word, out), (src, dst, text, out, err))
        elif expect == "domain":
            self._check(isinstance(err, cs.DomainError), (src, dst, text, out, err))
        else:
            self._check(err is not None and not isinstance(err, cs.DomainError), (src, dst, text, err))

    def _transcode_traced(self, src, dst, text):
        """The hub's resolve, parse, encode, decode and render, one span each."""
        tr = self.tracer
        cs = self.cs
        op = self.op_id
        now = time.perf_counter_ns
        t0 = now()
        root = tr.record("families.transcode", op, -1, t0, t0)
        value = text
        err = None
        try:
            fs, fd = cs.resolve(src), cs.resolve(dst)
            t = now()
            tr.record("families.resolve", op, root, t0, t)
            for fam, stage in ((fs, "parse"), (fs, "encode"), (fd, "decode"), (fd, "render")):
                try:
                    value = getattr(fam, stage)(value)
                finally:
                    t1 = now()
                    tr.record(f"{MODULE_OF[fam.name]}.{fam.name}.{stage}", op, root, t, t1)
                    t = t1
        except cs.CatalanError as exc:
            err = exc
        finally:
            t1 = now()
            tr.finish(root, t1)
        return (None if err else value), err, t0, t1

    # -- core ---------------------------------------------------------------

    def _timed(self, layer: str, fn, *args):
        t0 = time.perf_counter_ns()
        result = fn(*args)
        t1 = time.perf_counter_ns()
        if self.tracer is not None:
            self.tracer.record(layer, self.op_id, -1, t0, t1)
        return result, (t1 - t0) * 1e-9

    def _sample(self, n, seed, cold):
        self.attempted += 1
        s, dt = self._timed("core.sample_cold" if cold else "core.sample_warm", self.cs.random_uniform, n, seed)
        self._latency("sample", dt)
        self._check(len(s.bits) == 2 * n and ref.is_dyck(s.bits), ("sample", n, seed, s.bits))
        earlier = self.repeat.setdefault((n, seed), s.bits)
        self._check(earlier == s.bits, ("sample repeat", n, seed, earlier, s.bits))

    def _rank(self, n, k1, k2):
        self.attempted += 4
        words = []
        for k in (k1, k2):
            s, dt = self._timed("core.unrank", self.cs.unrank, n, k)
            self._latency("unrank", dt)
            words.append(s.bits)
            self._check(len(s.bits) == 2 * n and ref.is_dyck(s.bits), ("unrank", n, k, s.bits))
        for k, bits in zip((k1, k2), words):
            parsed, dt_validate = self._timed("core.validate", self.cs.validate, bits)
            r, dt_rank = self._timed("core.rank", self.cs.rank, parsed)
            self._latency("rank", dt_validate + dt_rank)
            self._check(r == k, ("rank", n, k, bits, r))
        self._check(k1 == k2 or words[0] < words[1], ("unrank order", n, k1, k2, words))

    def _enumerate(self, n):
        self.attempted += 1
        seqs, dt = self._timed("core.enumerate", self.cs.enumerate_sequences, n)
        self._latency("enumerate", dt)
        self.words += len(seqs)
        self._check(ref.enumeration_ok(n, [s.bits for s in seqs]), ("enumerate", n))

    # -- CLI ------------------------------------------------------------------

    def _cli(self, argv, kind, expected):
        self.attempted += 1
        if kind == "rank":
            n, k = expected
            argv = ("rank", self.cs.unrank(n, k).bits)
        t0 = time.perf_counter_ns()
        proc = subprocess.run(
            [sys.executable, "-m", "catseq", *argv],
            capture_output=True, text=True, env=cli_env(), cwd=ROOT, timeout=120,
        )
        t1 = time.perf_counter_ns()
        if self.tracer is not None:
            self.tracer.record("cli.subprocess", self.op_id, -1, t0, t1)
        if "Traceback" in proc.stderr or proc.returncode not in (0, 1, 2):
            self._fail((argv[:4], proc.returncode, proc.stderr[-200:]))
            return
        self._latency("cli", (t1 - t0) * 1e-9)
        self._check(self.cli_output_ok(kind, expected, proc), (argv[:4], kind, proc.returncode, proc.stderr[-200:]))

    def cli_output_ok(self, kind, expected, proc) -> bool:
        out = proc.stdout
        if kind == "fault":
            return proc.returncode == 1 and proc.stderr.startswith("catseq: error:")
        if kind == "transcode":
            family, word = expected
            if family == "domain":
                return proc.returncode == 2 and proc.stderr.startswith("catseq: domain error:")
            return proc.returncode == 0 and out.endswith("\n") and ref.check_output(family, word, out[:-1])
        if proc.returncode != 0:
            return False
        lines = out.splitlines()
        if kind == "mountain":
            return mountain_word(lines) == expected
        if kind == "dot":
            return dot_word(lines) == expected
        if kind == "random":
            return lines == [self.cs.random_uniform(expected, int(proc.args[-1])).bits]
        if kind == "rank":
            return lines == [str(expected[1])]
        if kind == "unrank":
            n, k = expected
            return len(lines) == 1 and ref.is_dyck(lines[0]) and self.cs.rank(self.cs.validate(lines[0])) == k
        if kind == "enumerate":
            return ref.enumeration_ok(expected, lines)
        if kind == "count":
            return lines == [str(ref.catalan(expected))]
        raise KeyError(kind)


def mountain_word(rows: list[str]) -> str | None:
    """Read a mountain drawing back into its word: one '/' or '\\' per column,
    '/' on the band above its start height, '\\' on the band above its end."""
    height = len(rows)
    width = max((len(r) for r in rows), default=0)
    word = []
    level = 0
    for col in range(width):
        marks = [(height - 1 - i, r[col]) for i, r in enumerate(rows) if col < len(r) and r[col] != " "]
        if len(marks) != 1:
            return None
        band, mark = marks[0]
        if mark == "/" and band == level:
            word.append("0")
            level += 1
        elif mark == "\\" and band == level - 1:
            word.append("1")
            level -= 1
        else:
            return None
    return "".join(word) if level == 0 else None


def dot_word(lines: list[str]) -> str | None:
    """Read a DOT tree (nodes v0.. in preorder, edges labelled L / R) back into its word."""
    if lines[:1] != ["digraph tree {"] or lines[-1:] != ["}"]:
        return None
    nodes = [line for line in lines[1:-1] if line.endswith(";") and "->" not in line]
    edges = [line for line in lines[1:-1] if "->" in line]
    if nodes != [f"  v{i};" for i in range(len(nodes))]:
        return None
    tree = [[None, None] for _ in nodes]
    for line in edges:
        head, _, label = line.strip().rstrip("];").partition(" [label=")
        parent, _, child = head.partition(" -> ")
        try:
            a, b = int(parent[1:]), int(child[1:])
            if label not in ("L", "R") or tree[a][label == "R"] is not None or b <= a:
                return None
            tree[a][label == "R"] = tree[b]
        except (ValueError, IndexError):
            return None
    if len(edges) != max(0, len(nodes) - 1):
        return None
    return ref.tree_to_word(tree[0] if tree else None)
