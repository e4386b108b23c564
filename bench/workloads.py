"""The three workloads and the inputs of each round.

A run is a fixed number of rounds, set by the workload and --seconds.
Every round of a workload holds the same number of operations of each
kind, shuffled so that the kinds interleave; only the inputs differ, and
they are a function of (seed, round index).  So every run of a workload
and run length attempts the same operations in number and kind, and a
faster program finishes the same work sooner.

Every workload carries every kind of operation, so that every run reports
every end-to-end metric, but each gives most of its time to its own
kind: small hub calls, large hub calls, or the core machinery.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import reference as ref

FAMILIES = ref.FAMILY_NAMES
PAIRS = [(src, dst) for src in FAMILIES for dst in FAMILIES]

#: Texts whose digits str.isdigit() accepts but int() rejects.  catseq's
#: chords and polygon parsers let them through to int(), which raises a
#: bare ValueError instead of a CatalanError.  They do not depend on the seed.
ISDIGIT_FAULTS = (("chords", "1-²"), ("polygon", "²;"), ("polygon", "4;0-²"))
CLI_FAULT = ("encode", "--family", "chords", "--input", "1-²")

SMALL_SIZES = range(1, 33)
#: hub-large semilengths, a sqrt(2) ladder from 128 to 2048.
LARGE_SIZES = (128, 181, 256, 362, 512, 724, 1024, 1448, 2048)
COUNT_METHODS = ("closed", "convolution", "linear", "series")
BLOCKS = 8


@dataclass(frozen=True)
class Workload:
    name: str
    #: passes over the 81 ordered family pairs per round
    pair_passes: int
    #: True: semilengths from LARGE_SIZES by a Latin square; False: uniform in SMALL_SIZES
    large: bool
    malformed: int
    #: run the ISDIGIT_FAULTS transcodes and the CLI_FAULT call every round
    faults: bool
    #: rounds per second of --seconds; about the rate of the reference machine
    rounds_per_s: float
    #: semilengths each met for the first time by one sample, spread evenly over the run
    ladder: tuple[int, ...]
    #: semilengths met during warm-up, for warm samples, ranks, unranks and CLI calls
    warm_ns: tuple[int, ...]
    samples: int
    rank_pairs: int
    #: one enumeration of each per round
    enumerate_ns: tuple[int, ...]
    #: CLI calls per round, besides CLI_FAULT
    cli_calls: int
    #: percentile of transcode latency reported as transcode_tail_ms
    tail_percentile: float

    def __post_init__(self):
        # A ladder point met during warm-up would be sampled warm but
        # recorded as cold.
        if set(self.ladder) & set(self.warm_ns):
            raise ValueError(f"{self.name}: ladder and warm_ns overlap")


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "hub-small", pair_passes=60, large=False, malformed=256, faults=True, rounds_per_s=0.63,
            ladder=(5, 7, 9, 11), warm_ns=(4, 8, 16, 32), samples=400, rank_pairs=300,
            enumerate_ns=(7, 8, 9), cli_calls=3, tail_percentile=99.0,
        ),
        Workload(
            "hub-large", pair_passes=1, large=True, malformed=0, faults=False, rounds_per_s=0.53,
            ladder=(5, 7, 9, 11), warm_ns=(4, 8, 16, 32), samples=400, rank_pairs=300,
            enumerate_ns=(7, 8, 9), cli_calls=2, tail_percentile=99.0,
        ),
        Workload(
            "core", pair_passes=4, large=False, malformed=0, faults=False, rounds_per_s=0.87,
            ladder=tuple(range(82, 267, 8)), warm_ns=(25, 50, 100, 200), samples=8,
            rank_pairs=100, enumerate_ns=(6, 7, 8, 9, 10, 11), cli_calls=2,
            tail_percentile=99.0,
        ),
    )
}


def round_count(w: Workload, seconds: float) -> int:
    """Rounds in a run of ``seconds``: never fewer than the ladder's points."""
    return max(len(w.ladder), round(seconds * w.rounds_per_s))


def cold_schedule(w: Workload, rounds: int) -> dict[int, int]:
    """Round index -> the ladder semilength its first sample meets cold,
    spread evenly over the run's rounds."""
    return {i * rounds // len(w.ladder): n for i, n in enumerate(w.ladder)}


def round_rng(seed: int, index: int) -> random.Random:
    return random.Random(f"{seed}/{index}")


def word_for(family: str, n: int, rng) -> str:
    """A uniform word of semilength n, or, for rpn-paper, one of its image 0·u·1."""
    if family == "rpn-paper":
        return "0" + ref.cycle_lemma_word(n - 1, rng) + "1"
    return ref.cycle_lemma_word(n, rng)


def transcode_op(src: str, dst: str, n: int, rng) -> tuple:
    word = word_for(src, n, rng)
    expect = "domain" if ref.expects_domain_error(dst, word) else "ok"
    return ("transcode", src, dst, ref.family_text(src, word), word, expect)


def build_round(w: Workload, seed: int, index: int, cold: int | None = None) -> list[tuple]:
    """The operations of round ``index``, in the order they run.

    ``cold`` is a ladder semilength not yet met in this process; the
    round's first sample then uses it in place of a warm one.
    """
    rng = round_rng(seed, index)
    ops: list[tuple] = []
    for _ in range(w.pair_passes):
        for k, (src, dst) in enumerate(PAIRS):
            if w.large:
                i, j = divmod(k, len(FAMILIES))
                n = LARGE_SIZES[(i + j + index) % len(LARGE_SIZES)]
            else:
                n = rng.choice(SMALL_SIZES)
            ops.append(transcode_op(src, dst, n, rng))
    for _ in range(w.malformed):
        src, dst = rng.choice(PAIRS)
        word = word_for(src, rng.choice(SMALL_SIZES), rng)
        ops.append(("transcode", src, dst, ref.malformed_text(src, word, rng), word, "malformed"))
    if w.faults:
        for src, text in ISDIGIT_FAULTS:
            ops.append(("transcode", src, "sequence", text, "", "malformed"))

    warm = rng.choice(w.warm_ns)
    first = (cold or warm, rng.randrange(1 << 30))
    core_ops = []
    for _ in range(w.samples - 2):
        core_ops.append(("sample", rng.choice(w.warm_ns), rng.randrange(1 << 30), False))
    for _ in range(w.rank_pairs):
        n = rng.choice(w.warm_ns)
        total = ref.catalan(n)
        k1 = rng.randrange(total - 1)
        core_ops.append(("rank", n, k1, rng.randrange(k1 + 1, total)))
    for n in w.enumerate_ns:
        ops.append(("enumerate", n))
    for c in range(w.cli_calls):
        ops.append(("cli", *cli_command(w, index * w.cli_calls + c, rng)))
    if w.faults:
        ops.append(("cli", CLI_FAULT, "fault", None))

    rng.shuffle(ops)
    # Samples, ranks and unranks take microseconds each.  Scattered one by
    # one among large calls they would time cache misses more than their own
    # work, so they go in as BLOCKS runs of consecutive calls.
    rng.shuffle(core_ops)
    for b in range(BLOCKS):
        at = rng.randrange(len(ops) + 1)
        ops[at:at] = core_ops[b::BLOCKS]
    # The round opens with a sample, cold when a ladder semilength is due,
    # and closes with a warm call on the same (n, seed), which must return
    # the same word.
    return [("sample", *first, cold is not None), *ops, ("sample", *first, False)]


def cli_command(w: Workload, serial: int, rng) -> tuple:
    """(argv, kind, expected) for one CLI call in the workload's own terms."""
    if w.name == "core":
        kind = ("random", "rank", "unrank", "enumerate", "count")[serial % 5]
        n = rng.choice(w.warm_ns)
        if kind == "random":
            return ("random", "--n", str(n), "--seed", str(rng.randrange(1 << 30))), kind, n
        if kind == "rank":
            k = rng.randrange(ref.catalan(n))
            return ("rank", "<word>"), kind, (n, k)
        if kind == "unrank":
            k = rng.randrange(ref.catalan(n))
            return ("unrank", "--n", str(n), "--index", str(k)), kind, (n, k)
        if kind == "enumerate":
            n = rng.choice((5, 6, 7, 8))
            return ("enumerate", "--n", str(n)), kind, n
        return ("count", "--n", "300", "--method", COUNT_METHODS[serial // 5 % 4]), kind, 300
    sizes = LARGE_SIZES if w.large else SMALL_SIZES
    n = rng.choice(sizes)
    if serial % 4 == 3:
        word = ref.cycle_lemma_word(n, rng)
        fmt = ("mountain", "dot")[serial // 4 % 2]
        return ("render", "--format", fmt, word), fmt, word
    src, dst = rng.choice(PAIRS)
    word = word_for(src, n, rng)
    expect = "domain" if ref.expects_domain_error(dst, word) else dst
    argv = ("transcode", "--from", src, "--to", dst, "--input", ref.family_text(src, word))
    return argv, "transcode", (expect, word)


def warmup_ops(w: Workload, seed: int) -> list[tuple]:
    """One call of every kind at small sizes, meeting every semilength in warm_ns."""
    rng = round_rng(seed, -1)
    ops = [transcode_op(src, dst, 3, rng) for src, dst in PAIRS]
    for n in w.warm_ns:
        ops.append(("sample", n, 1, False))
        ops.append(("rank", n, 0, 1))
    ops.append(("enumerate", 3))
    return ops
