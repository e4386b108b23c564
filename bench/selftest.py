"""Self-test of the benchmark's checks: each must reject a corrupted output.

    python3 bench/selftest.py

Runs without catseq: a stand-in module answers from the reference code,
then corrupts one answer at a time, and every corruption must show up as
a wrong output (or, for a bare exception or a traceback, as a failure).
"""

from __future__ import annotations

import random
import subprocess
import sys
import unittest
from collections import Counter
from types import SimpleNamespace

import harness
import reference as ref
import workloads


class CatalanError(ValueError):
    pass


class DomainError(CatalanError):
    pass


class Seq:
    def __init__(self, bits):
        self.bits = bits


def corruptions(text: str, other: str):
    """Ways to damage an output text; ``other`` is the text of another word."""
    yield text[:-1]
    yield text + text[-1:]
    for i in range(len(text) - 1):
        if text[i] != text[i + 1]:
            yield text[:i] + text[i + 1] + text[i] + text[i + 2 :]
            break
    yield other


def stand_in(words: dict, damage=None, **overrides):
    """A catseq look-alike answering from the reference; ``damage`` edits transcode output."""

    def transcode(src, dst, text):
        word = words[(src, text)]
        if ref.expects_domain_error(dst, word):
            raise DomainError("outside the image")
        out = ref.family_text(dst, word)
        return damage(out) if damage else out

    def unrank(n, k):
        return Seq(sorted(_all_words(n))[k])

    def rank(s):
        return sorted(_all_words(len(s.bits) // 2)).index(s.bits)

    fake = SimpleNamespace(
        CatalanError=CatalanError,
        DomainError=DomainError,
        transcode=transcode,
        random_uniform=lambda n, seed: Seq(ref.cycle_lemma_word(n, random.Random(seed))),
        unrank=unrank,
        rank=rank,
        validate=Seq,
        enumerate_sequences=lambda n: [Seq(w) for w in sorted(_all_words(n))],
    )
    for name, fn in overrides.items():
        setattr(fake, name, fn)
    return fake


def _all_words(n):
    words = [""]
    for _ in range(2 * n):
        words = [w + c for w in words for c in "01"]
    return [w for w in words if ref.is_dyck(w)]


class TranscodeChecks(unittest.TestCase):
    def setUp(self):
        rng = random.Random(7)
        self.ops = [workloads.transcode_op(src, dst, n, rng) for n in (1, 2, 5) for src, dst in workloads.PAIRS]
        self.words = {(op[1], op[3]): op[4] for op in self.ops}

    def run_ops(self, fake, ops=None):
        runner = harness.Runner(fake)
        for op in ops or self.ops:
            runner.run(op)
        return runner

    def test_reference_answers_pass(self):
        runner = self.run_ops(stand_in(self.words))
        self.assertEqual((runner.wrong, runner.failed), ([], 0))

    def test_every_corrupted_text_is_rejected(self):
        rng = random.Random(3)
        for family in ref.FAMILY_NAMES:
            for n in (3, 4, 6):
                word = workloads.word_for(family, n, rng)
                other = next(w for w in iter(lambda: workloads.word_for(family, n, rng), None) if w != word)
                text = ref.family_text(family, word)
                self.assertTrue(ref.check_output(family, word, text))
                for bad in corruptions(text, ref.family_text(family, other)):
                    self.assertFalse(ref.check_output(family, word, bad), (family, word, bad))

    def test_damaged_hub_output_is_wrong(self):
        runner = self.run_ops(stand_in(self.words, damage=lambda out: out[:-1]))
        answered = sum(op[5] == "ok" for op in self.ops)
        self.assertEqual(len(runner.wrong), answered)

    def test_missing_domain_error_is_wrong(self):
        def transcode(src, dst, text):
            return ref.family_text("sequence", self.words[(src, text)])

        runner = self.run_ops(stand_in(self.words, transcode=transcode))
        self.assertTrue(any("rpn-paper" in line for line in runner.wrong))

    def test_accepted_malformed_text_is_wrong(self):
        rng = random.Random(1)
        word = ref.cycle_lemma_word(4, rng)
        op = ("transcode", "tree", "path", ref.malformed_text("tree", word, rng), word, "malformed")
        fake = stand_in({}, transcode=lambda src, dst, text: "HV")
        self.assertEqual(len(self.run_ops(fake, [op]).wrong), 1)

    def test_bare_exception_is_a_failure(self):
        def transcode(src, dst, text):
            raise ValueError("invalid literal for int()")

        runner = self.run_ops(stand_in({}, transcode=transcode), [("transcode", "chords", "sequence", "1-²", "", "malformed")])
        self.assertEqual((runner.wrong, runner.failed), ([], 1))


class CoreChecks(unittest.TestCase):
    def run_op(self, fake, *ops):
        runner = harness.Runner(fake)
        for op in ops:
            runner.run(op)
        return runner

    def test_reference_answers_pass(self):
        runner = self.run_op(stand_in({}), ("sample", 6, 9, True), ("sample", 6, 9, False),
                             ("rank", 4, 2, 11), ("enumerate", 5))
        self.assertEqual((runner.wrong, runner.failed), ([], 0))

    def test_sample_not_repeatable_is_wrong(self):
        fake = stand_in({}, random_uniform=lambda n, seed: Seq(ref.cycle_lemma_word(n, random.Random())))
        runner = self.run_op(fake, *[("sample", 12, 5, False)] * 4)
        self.assertTrue(runner.wrong)

    def test_invalid_sample_is_wrong(self):
        fake = stand_in({}, random_uniform=lambda n, seed: Seq("01" * (n - 1) + "10"))
        self.assertTrue(self.run_op(fake, ("sample", 3, 1, True)).wrong)

    def test_rank_off_by_one_is_wrong(self):
        base = stand_in({})
        fake = stand_in({}, rank=lambda s: base.rank(s) + 1, unrank=base.unrank)
        self.assertTrue(self.run_op(fake, ("rank", 4, 2, 11)).wrong)

    def test_unrank_out_of_order_is_wrong(self):
        base = stand_in({})
        fake = stand_in({}, unrank=lambda n, k: base.unrank(n, ref.catalan(n) - 1 - k), rank=lambda s: 0)
        runner = self.run_op(fake, ("rank", 4, 2, 11))
        self.assertIn("unrank order", " ".join(runner.wrong))

    def test_enumeration_defects_are_wrong(self):
        words = sorted(_all_words(4))
        for bad in (words[:-1], words + words[-1:], words[::-1], words[:-1] + ["01" * 3 + "10"]):
            fake = stand_in({}, enumerate_sequences=lambda n, bad=bad: [Seq(w) for w in bad])
            self.assertTrue(self.run_op(fake, ("enumerate", 4)).wrong, bad[:3])


class CliChecks(unittest.TestCase):
    def proc(self, returncode, stdout="", stderr="", args=()):
        return subprocess.CompletedProcess(list(args), returncode, stdout, stderr)

    def test_renderings_read_back(self):
        mountain = [" /\\/\\", "/    \\/\\"]
        self.assertEqual(harness.mountain_word(mountain), "00101101")
        self.assertIsNone(harness.mountain_word([" /\\/\\", "/    \\/"]))
        self.assertIsNone(harness.mountain_word([" /\\/\\", "/    \\\\\\"]))
        dot = ["digraph tree {", "  v0;", "  v1;", "  v2;", "  v0 -> v1 [label=L];",
               "  v1 -> v2 [label=R];", "}"]
        self.assertEqual(harness.dot_word(dot), "001101")
        self.assertEqual(harness.dot_word(dot[:4] + ["  v0 -> v1 [label=R];"] + dot[5:]), "010101")
        self.assertIsNone(harness.dot_word(dot[:-1]))
        self.assertIsNone(harness.dot_word(dot[:5] + ["  v1 -> v2 [label=X];"] + dot[6:]))

    def test_cli_outputs(self):
        runner = harness.Runner(stand_in({}))
        ok = runner.cli_output_ok
        word = "0011"
        self.assertTrue(ok("transcode", ("chords", word), self.proc(0, "1-4,2-3\n")))
        self.assertFalse(ok("transcode", ("chords", word), self.proc(0, "1-4,2-3")))
        self.assertFalse(ok("transcode", ("chords", word), self.proc(0, "1-2,3-4\n")))
        self.assertTrue(ok("transcode", ("domain", word), self.proc(2, "", "catseq: domain error: x\n")))
        self.assertFalse(ok("transcode", ("domain", word), self.proc(1, "", "catseq: error: x\n")))
        self.assertTrue(ok("fault", None, self.proc(1, "", "catseq: error: bad chord\n")))
        self.assertFalse(ok("count", 5, self.proc(0, "41\n")))
        self.assertTrue(ok("count", 5, self.proc(0, "42\n")))
        self.assertFalse(ok("enumerate", 2, self.proc(0, "0101\n0011\n")))
        self.assertTrue(ok("enumerate", 2, self.proc(0, "0011\n0101\n")))
        self.assertTrue(ok("rank", (3, 2), self.proc(0, "2\n")))
        self.assertFalse(ok("rank", (3, 2), self.proc(0, "3\n")))
        self.assertTrue(ok("unrank", (3, 2), self.proc(0, "001101\n")))
        self.assertFalse(ok("unrank", (3, 2), self.proc(0, "001011\n")))
        word = ref.cycle_lemma_word(6, random.Random(17))
        args = ("python3", "-m", "catseq", "random", "--n", "6", "--seed", "17")
        self.assertTrue(ok("random", 6, self.proc(0, word + "\n", args=args)))
        self.assertFalse(ok("random", 6, self.proc(0, word[::-1] + "\n", args=args)))

    def test_traceback_is_a_failure(self):
        runner = harness.Runner(stand_in({}))
        real_run = subprocess.run
        subprocess.run = lambda *a, **k: self.proc(1, "", "Traceback (most recent call last):\nValueError\n")
        try:
            runner.run(("cli", ("encode", "--family", "chords", "--input", "1-²"), "fault", None))
        finally:
            subprocess.run = real_run
        self.assertEqual((runner.wrong, runner.failed), ([], 1))


class Sampler(unittest.TestCase):
    def test_cycle_lemma_is_uniform(self):
        rng = random.Random(11)
        counts = Counter(ref.cycle_lemma_word(4, rng) for _ in range(14000))
        self.assertEqual(set(counts), set(_all_words(4)))
        self.assertTrue(all(800 < c < 1200 for c in counts.values()), counts)


if __name__ == "__main__":
    unittest.main(argv=[sys.argv[0], *sys.argv[1:]])
