"""Golden digests: the library's outputs over a fixed, seeded corpus, hashed.

Every case is one input with all its outputs, written as one JSON line; an
output that raises is written as its error class, message and position.
``golden.json`` keeps, per section, the SHA-256 of all its lines and a
16-bit fingerprint per line, so a drift is always caught by the digest and
the fingerprints name the first case that differs.  The sections:

- ``render``: each family's text of every word with n <= 7 and of 60
  cycle-lemma words up to n = 600, with the altitude profile;
- ``transcode``: ``transcode`` over all 81 family pairs of the words with
  n <= 7 and of every fifth of those cycle-lemma words, the rpn-paper
  source reading its image 0·u·1;
- ``parse``: 20,000 seeded short texts, each through the nine parsers;
- ``malformed``: ``transcode(source, "sequence", text)`` for 216 seeded texts
  of n = 128-2048 with 1-3 edits, 24 per source family, and for numbers
  that ``int`` rejects or that run past its 4,300-digit limit;
- ``ranking``: ``rank``, ``unrank``, ``random_uniform`` and
  ``iter_sequences`` for n < 60 and five seeds, and the four Catalan
  routes for n < 320;
- ``enumeration``: the whole of ``iter_sequences(n)`` for n <= 12, as its
  count, its first and last words and the SHA-256 of its words, one a line;
- ``cli``: stdout, stderr and exit code of a fixed list of argv.

The digests were taken on CPython 3.11, and CPython 3.10.13, 3.12.1 and
3.13.0 match them all: the usage line names the subcommand ``command``, so
no version's argparse wraps it.  Check with
``PYTHONPATH=src python tests/golden.py``, and regenerate, after a
deliberate change of output only, by adding ``--write``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import re
import sys
from itertools import islice
from pathlib import Path
from unittest import mock

from catseq import cli, counting
from catseq.core import CatalanSequence, altitude_profile
from catseq.families import FAMILIES, transcode
from catseq.ranking import iter_sequences, random_uniform, rank, sequence_count, unrank

from oracle import brute_sequences, cycle_lemma_word

GOLDEN = Path(__file__).with_name("golden.json")

SMALL = [w for n in range(8) for w in brute_sequences(n)]
LARGE = [cycle_lemma_word(n, random.Random(n)) for n in range(10, 601, 10)]

#: characters each parser's random texts are drawn from, and a few that
#: no grammar accepts ('²' and '٣' pass str.isdigit but not int)
ALPHABETS = {
    "sequence": "01",
    "tree": "(. )",
    "path": "HV",
    "pm": "+-",
    "chords": "0123456789-,",
    "mult": "(a*)",
    "rpn": "a*",
    "rpn-paper": "a*",
    "polygon": "0123456789;-,",
}
STRANGE = "x \n²٣é"


def outcome(fn, *args) -> str:
    """``repr`` of the result, or the error's class, message and position."""
    try:
        return repr(fn(*args))
    except Exception as exc:
        return f"!{type(exc).__name__}: {exc} @{getattr(exc, 'position', None)}"


def family_text(name: str, bits: str) -> str:
    """The text of ``bits`` in family ``name``; rpn-paper reads 0·bits·1."""
    family = FAMILIES[name]
    if name == "rpn-paper":
        bits = f"0{bits}1"
    return family.render(family.decode(CatalanSequence(bits)))


def render_cases():
    for bits in SMALL + LARGE:
        s = CatalanSequence(bits)
        texts = [outcome(lambda f=f: f.render(f.decode(s))) for f in FAMILIES.values()]
        yield [bits, *texts, family_text("rpn-paper", bits), outcome(altitude_profile, s)]


def transcode_cases():
    for bits in SMALL + LARGE[::5]:
        for source in FAMILIES:
            text = family_text(source, bits)
            yield [source, text, *(outcome(transcode, source, target, text) for target in FAMILIES)]


def parse_texts(count: int = 20_000):
    """Seeded texts: half edits of a valid text, half random strings."""
    rng = random.Random("golden parse")
    names = list(ALPHABETS)
    for i in range(count):
        name = names[i % len(names)]
        alphabet = ALPHABETS[name] + (STRANGE if rng.random() < 0.1 else "")
        if i % 2:
            yield "".join(rng.choice(alphabet) for _ in range(rng.randrange(13)))
            continue
        n = rng.randrange(7)
        text = list(family_text(name, random_uniform(n, rng.randrange(10**6)).bits))
        for _ in range(rng.randrange(3)):
            at = rng.randrange(len(text) + 1)
            edit = rng.randrange(3)
            if edit == 0 and at < len(text):
                del text[at]
            elif edit == 1:
                text.insert(at, rng.choice(alphabet))
            elif at < len(text):
                text[at] = rng.choice(alphabet)
        yield "".join(text)


def parse_cases():
    for text in parse_texts():
        yield [text, *(outcome(f.parse, text) for f in FAMILIES.values())]


def edited(text: str, alphabet: str, edits: int, rng) -> str:
    """``text`` after ``edits`` random edits of its tokens, each a run of
    ASCII digits or one other character: a deletion, an insertion or a
    replacement by a character of ``alphabet``, or a swap of two tokens."""
    tokens = re.findall(r"[0-9]+|[^0-9]", text)
    for _ in range(edits):
        at = rng.randrange(len(tokens) + 1)
        edit = rng.randrange(4)
        if edit == 1:
            tokens.insert(at, rng.choice(alphabet))
        elif at == len(tokens):
            continue
        elif edit == 0:
            del tokens[at]
        elif edit == 2:
            tokens[at] = rng.choice(alphabet)
        else:
            other = rng.randrange(len(tokens))
            tokens[at], tokens[other] = tokens[other], tokens[at]
    return "".join(tokens)


#: numbers that str.isdigit accepts but int rejects, or past int's digit limit
BIG = "9" * 5000
NUMBER_FAULTS = ["1-\u00b2", "\u00b2;", "4;0-\u00b2", f"1-{BIG}", f"{BIG}-1,2-3", f"{BIG};", f"4;0-{BIG}", f"4;{BIG}-2"]


def malformed_cases(per_family: int = 24):
    rng = random.Random("golden malformed")
    for i in range(per_family * len(ALPHABETS)):
        name = list(ALPHABETS)[i % len(ALPHABETS)]
        alphabet = ALPHABETS[name] + (STRANGE if rng.random() < 0.1 else "")
        n = rng.randrange(128, 2049)
        bits = cycle_lemma_word(n - (name == "rpn-paper"), rng)
        text = edited(family_text(name, bits), alphabet, rng.randrange(1, 4), rng)
        yield [name, text, outcome(transcode, name, "sequence", text)]
    for text in NUMBER_FAULTS:
        yield [text, *(outcome(transcode, name, "sequence", text) for name in FAMILIES)]


def ranking_cases():
    for n in range(60):
        total = sequence_count(n)
        row = [n, total]
        for seed in range(5):
            s = random_uniform(n, seed)
            row += [s.bits, rank(s)]
        row += [outcome(unrank, n, k) for k in (0, total - 1, total, -1, total // 3)]
        row.append(outcome(lambda: [s.bits for s in islice(iter_sequences(n), 40)]))
        yield row
    for n in range(320):
        yield [n, *(getattr(counting, f"catalan_{m}")(n) for m in ("closed", "convolution", "linear"))]
    yield [str(c) for c in counting.catalan_series(320).coefficients]


def enumeration_cases():
    for n in range(13):
        words = [s.bits for s in iter_sequences(n)]
        text = "".join(f"{w}\n" for w in words)
        yield [n, len(words), words[0], words[-1], hashlib.sha256(text.encode()).hexdigest()]


def _cli_argv():
    argv = [
        [],
        ["nope"],
        ["count"],
        ["count", "--n", "x"],
        ["count", "--n", "-1"],
        ["count", "--n", "4", "--method", "nope"],
        *(["count", "--n", str(n), "--method", m] for n in (0, 1, 9, 40) for m in cli._METHODS),
        *(["enumerate", "--n", n] for n in ("-1", "0", "3", "17")),
        *(["validate", bits] for bits in ("", "0011", "0110", "001", "0012", "0001")),
        *(["rank", bits] for bits in ("", "010011", "0110")),
        *(["unrank", "--n", "4", "--index", k] for k in ("0", "13", "14", "-1")),
        *(["random", "--n", n, "--seed", "7"] for n in ("0", "5", "40", "-1")),
        *(["render", "--format", fmt, bits] for fmt in ("mountain", "dot") for bits in ("", "001011", "10")),
        ["transcode", "--from", "nope", "--to", "tree", "--input", "01"],
        ["decode", "--family", "rpn-paper", "010011"],
    ]
    for name in FAMILIES:
        text = family_text(name, "00101101")
        argv += [
            ["encode", "--family", name, "--input", text],
            ["encode", "--family", name, "--input", text + ","],
            ["decode", "--family", name, "00101101"],
            ["transcode", "--from", name, "--to", "tree", "--input", text],
        ]
    return argv


def cli_cases():
    with mock.patch.dict(os.environ, COLUMNS="80"):  # argparse wraps usage to the terminal width
        for argv in _cli_argv():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            yield [argv, code, out.getvalue(), err.getvalue()]


SECTIONS = {
    "render": render_cases,
    "transcode": transcode_cases,
    "parse": parse_cases,
    "malformed": malformed_cases,
    "ranking": ranking_cases,
    "enumeration": enumeration_cases,
    "cli": cli_cases,
}


def compute(section: str) -> tuple[dict, list[str]]:
    """The section's record for golden.json and its case lines."""
    lines = [json.dumps(case, ensure_ascii=True) for case in SECTIONS[section]()]
    digest = hashlib.sha256()
    prints = []
    for line in lines:
        data = line.encode() + b"\n"
        digest.update(data)
        prints.append(hashlib.sha256(data).hexdigest()[:4])
    return {"cases": len(lines), "sha256": digest.hexdigest(), "fingerprints": "".join(prints)}, lines


def check(section: str, stored: dict) -> str | None:
    """None when the section matches ``stored``; otherwise what differs first."""
    record, lines = compute(section)
    if record["sha256"] == stored["sha256"]:
        return None
    old = stored["fingerprints"]
    for i, line in enumerate(lines):
        if record["fingerprints"][4 * i : 4 * i + 4] != old[4 * i : 4 * i + 4]:
            return f"section {section!r}: case {i} of {len(lines)} differs; it now reads {line[:400]}"
    return f"section {section!r}: {stored['cases']} cases then, {len(lines)} now, digest differs"


def main(argv: list[str]) -> int:
    if argv == ["--write"]:
        records = {section: compute(section)[0] for section in SECTIONS}
        GOLDEN.write_text(json.dumps(records, indent=1) + "\n")
        return 0
    if argv:
        print("usage: python tests/golden.py [--write]", file=sys.stderr)
        return 2
    stored = json.loads(GOLDEN.read_text())
    failures = [msg for section in SECTIONS if (msg := check(section, stored[section]))]
    for msg in failures:
        print(msg)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
