import hashlib
import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catseq import counting, ranking
from catseq.cli import main
from catseq.core import CatalanSequence, DomainError, validate
from catseq.counting import catalan_closed
from catseq.families import ALIASES, FAMILIES, resolve
from catseq.ranking import RANKING_CAP, enumerate_sequences

import golden
from test_core import traced_in_a_fresh_process


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCount:
    def test_default_method(self, capsys):
        assert run(capsys, "count", "--n", "3") == (0, "5\n", "")

    @pytest.mark.parametrize("method", ["closed", "convolution", "linear", "series"])
    def test_methods_print_the_same_number(self, capsys, method):
        assert run(capsys, "count", "--n", "12", "--method", method) == (0, "208012\n", "")

    def test_methods_agree_up_to_300(self, capsys):
        for n in range(301):
            expected = f"{catalan_closed(n)}\n"
            for method in ("closed", "convolution", "linear", "series"):
                code, out, err = run(capsys, "count", "--n", str(n), "--method", method)
                assert (code, out, err) == (0, expected, "")

    @pytest.mark.parametrize("method", ["convolution", "series"])
    def test_over_the_convolution_cap_exits_1(self, capsys, method):
        n = counting.CONVOLUTION_CAP + 1
        message = f"catseq: error: Catalan index {n} exceeds the convolution cap {counting.CONVOLUTION_CAP}\n"
        assert run(capsys, "count", "--n", str(n), "--method", method) == (1, "", message)

    def test_negative(self, capsys):
        code, out, err = run(capsys, "count", "--n", "-1")
        assert code == 1 and out == "" and "error" in err

    def test_negative_by_series(self, capsys):
        code, out, err = run(capsys, "count", "--method", "series", "--n", "-1")
        assert (code, out, err) == (1, "", "catseq: error: Catalan numbers are indexed from 0\n")

    @pytest.mark.parametrize("method", ["closed", "linear"])
    def test_a_count_past_the_int_string_limit_is_an_error(self, capsys, method):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)  # the default, whatever the environment sets
        try:
            expected = f"{catalan_closed(7152)}\n"
            assert len(expected) == 4301
            assert run(capsys, "count", "--n", "7152", "--method", method) == (0, expected, "")
            error = "catseq: error: C_7153 has more than 4300 digits, the int-string limit\n"
            assert run(capsys, "count", "--n", "7153", "--method", method) == (1, "", error)
        finally:
            sys.set_int_max_str_digits(limit)

    @pytest.mark.parametrize("method", ["closed", "linear"])
    def test_refuses_a_count_past_the_int_string_limit_before_computing_it(self, capsys, monkeypatch, method):
        def never(n):
            raise AssertionError(f"C_{n} was computed")

        monkeypatch.setattr(counting, f"catalan_{method}", never)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            error = "catseq: error: C_100000 has more than 4300 digits, the int-string limit\n"
            assert run(capsys, "count", "--n", "100000", "--method", method) == (1, "", error)
        finally:
            sys.set_int_max_str_digits(limit)

    @pytest.mark.parametrize("method", ["convolution", "series"])
    def test_names_the_convolution_cap_before_the_int_string_limit(self, capsys, method):
        message = f"catseq: error: Catalan index 100000 exceeds the convolution cap {counting.CONVOLUTION_CAP}\n"
        assert run(capsys, "count", "--n", "100000", "--method", method) == (1, "", message)

    def test_no_int_string_limit_prints_any_count(self, capsys):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            expected = f"{catalan_closed(8000)}\n"
            assert run(capsys, "count", "--n", "8000") == (0, expected, "")
        finally:
            sys.set_int_max_str_digits(limit)


class TestEnumerateValidate:
    def test_enumerate(self, capsys):
        assert run(capsys, "enumerate", "--n", "2") == (0, "0011\n0101\n", "")

    def test_enumerate_n0__is_one_empty_line(self, capsys):
        assert run(capsys, "enumerate", "--n", "0") == (0, "\n", "")

    @pytest.mark.parametrize("n", range(11))
    def test_enumerate_prints_the_listed_words(self, capsys, n):
        lines = "".join(f"{s.bits}\n" for s in enumerate_sequences(n))
        assert run(capsys, "enumerate", "--n", str(n)) == (0, lines, "")

    def test_enumerate_matches_the_golden_enumeration_digest(self, capsys, monkeypatch):
        def cli_cases():  # golden's enumeration cases, each word list read from the CLI's stdout
            for n in range(13):
                code, out, err = run(capsys, "enumerate", "--n", str(n))
                assert (code, err) == (0, "")
                words = out.splitlines()
                yield [n, len(words), words[0], words[-1], hashlib.sha256(out.encode()).hexdigest()]

        monkeypatch.setitem(golden.SECTIONS, "enumeration", cli_cases)
        assert golden.check("enumeration", json.loads(golden.GOLDEN.read_text())["enumeration"]) is None

    def test_enumerate_builds_no_sequence(self, capsys, monkeypatch):
        lines = "".join(f"{s.bits}\n" for s in enumerate_sequences(9))

        def refuse(*args):
            raise AssertionError("a sequence was built")

        monkeypatch.setattr(ranking, "_trusted_sequences", refuse)
        monkeypatch.setattr(CatalanSequence, "__init__", refuse)
        assert run(capsys, "enumerate", "--n", "9") == (0, lines, "")

    @pytest.mark.parametrize(
        "n,message",
        [("-1", "semilength must be nonnegative"), ("17", "semilength 17 exceeds the enumeration cap 16")],
    )
    def test_enumerate_out_of_range_prints_nothing(self, capsys, n, message):
        assert run(capsys, "enumerate", "--n", n) == (1, "", f"catseq: error: {message}\n")

    def test_enumerate_streams(self):
        setup = """
import io
from contextlib import redirect_stdout
from catseq.cli import main

class ByteCount(io.TextIOBase):
    count = 0

    def write(self, text):
        self.count += len(text)
        return len(text)

sink = ByteCount()
"""
        run = """
with redirect_stdout(sink):
    code = main(["enumerate", "--n", "11"])
count = sink.count if code == 0 else -code
"""
        count, peak = traced_in_a_fresh_process(setup, run)
        assert count == 58786 * 23
        assert peak < 2**20  # the list of 58,786 sequences alone takes several MB

    def test_validate_ok(self, capsys):
        assert run(capsys, "validate", "000111") == (0, "valid semilength=3\n", "")

    def test_validate_empty(self, capsys):
        assert run(capsys, "validate", "") == (0, "valid semilength=0\n", "")

    def test_validate_bad_prefix_names_the_position(self, capsys):
        code, out, err = run(capsys, "validate", "0110")
        assert code == 1 and out == ""
        assert "prefix of length 3" in err


class TestCodecs:
    def test_encode(self, capsys):
        assert run(capsys, "encode", "--family", "path", "--input", "HHVHVV") == (0, "001011\n", "")

    def test_decode(self, capsys):
        assert run(capsys, "decode", "--family", "polygon", "001011") == (0, "5;0-2,0-3\n", "")

    def test_decode_alias(self, capsys):
        assert run(capsys, "decode", "--family", "votes", "0101") == (0, "+-+-\n", "")

    def test_transcode(self, capsys):
        code, out, err = run(
            capsys, "transcode", "--from", "mult", "--to", "rpn", "--input", "(a*((a*a)*a))"
        )
        assert (code, out, err) == (0, "aaa*a**\n", "")

    def test_decode_rpn_paper_examples(self, capsys):
        assert run(capsys, "decode", "--family", "rpn-paper", "00010111") == (0, "aaa*a**\n", "")
        code, out, err = run(capsys, "decode", "--family", "rpn-paper", "010011")
        assert code == 2 and out == "" and "domain error" in err

    def test_unknown_family(self, capsys):
        code, out, err = run(capsys, "decode", "--family", "frieze", "01")
        assert code == 1 and "unknown family" in err

    def test_invalid_bits(self, capsys):
        code, out, err = run(capsys, "decode", "--family", "tree", "0120")
        assert code == 1 and out == ""

    @pytest.mark.parametrize(
        "family,text",
        [
            ("chords", "1-\u00b2"),
            ("polygon", "\u00b2;"),
            ("polygon", "4;0-\u00b2"),
            pytest.param("chords", "1-" + "9" * 5000, id="chords-5000-digit-label"),
            pytest.param("polygon", "9" * 5000 + ";", id="polygon-5000-digit-side-count"),
            pytest.param("polygon", "4;0-" + "9" * 5000, id="polygon-5000-digit-vertex"),
            pytest.param("polygon", "9" * 4000 + ";", id="polygon-4000-digit-side-count"),
            pytest.param("polygon", "5;0-2,0-" + "9" * 4000, id="polygon-4000-digit-vertex"),
        ],
    )
    def test_malformed_numbers_are_errors_not_tracebacks(self, capsys, family, text):
        code, out, err = run(capsys, "encode", "--family", family, "--input", text)
        assert code == 1 and out == "" and err.startswith("catseq: error:")
        assert len(err) < 200


class TestOrderAndRandom:
    def test_rank(self, capsys):
        assert run(capsys, "rank", "010101") == (0, "4\n", "")

    def test_unrank(self, capsys):
        assert run(capsys, "unrank", "--n", "3", "--index", "2") == (0, "001101\n", "")

    def test_unrank_out_of_range(self, capsys):
        code, out, err = run(capsys, "unrank", "--n", "3", "--index", "5")
        assert code == 1 and out == ""

    def test_random_is_deterministic_per_seed(self, capsys):
        first = run(capsys, "random", "--n", "6", "--seed", "11")
        assert first[0] == 0
        assert run(capsys, "random", "--n", "6", "--seed", "11") == first

    @pytest.mark.parametrize(
        "argv",
        [
            ("random", "--n", str(RANKING_CAP + 1), "--seed", "1"),
            ("unrank", "--n", str(RANKING_CAP + 1), "--index", "0"),
            ("rank", "01" * (RANKING_CAP + 1)),
        ],
        ids=["random", "unrank", "rank"],
    )
    def test_over_the_ranking_cap_exits_1(self, capsys, argv):
        message = f"catseq: error: semilength {RANKING_CAP + 1} exceeds the ranking cap {RANKING_CAP}\n"
        assert run(capsys, *argv) == (1, "", message)


class TestRender:
    def test_mountain(self, capsys):
        assert run(capsys, "render", "--format", "mountain", "0011") == (0, " /\\\n/  \\\n", "")

    def test_mountain_empty_prints_nothing(self, capsys):
        assert run(capsys, "render", "--format", "mountain", "") == (0, "", "")

    def test_mountain_over_the_cap_exits_1(self, capsys):
        message = "catseq: error: a mountain of 1024 rows by 4098 columns exceeds the cap of 4194304 cells\n"
        word = "0" * 1024 + "1" * 1024 + "01" * 1025
        assert run(capsys, "render", "--format", "mountain", word) == (1, "", message)

    def test_dot(self, capsys):
        code, out, err = run(capsys, "render", "--format", "dot", "01")
        assert (code, out, err) == (0, "digraph tree {\n  v0;\n}\n", "")


class TestUsage:
    def test_missing_subcommand(self, capsys):
        assert run(capsys, )[0] == 1

    def test_unknown_flag(self, capsys):
        assert run(capsys, "count", "--m", "3")[0] == 1

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0

    @pytest.mark.parametrize(
        "command,usage",
        [
            ("encode", "usage: catseq encode [-h] --family FAMILY --input INPUT"),
            ("decode", "usage: catseq decode [-h] --family FAMILY bits"),
        ],
    )
    def test_codec_usage_lines(self, capsys, command, usage):
        code, out, _ = run(capsys, command, "--help")
        assert code == 0 and out.splitlines()[0] == usage
        code, _, err = run(capsys, command)
        assert code == 1 and err.splitlines()[0] == usage


def test_subprocess_runs_are_byte_identical():
    cmd = [sys.executable, "-m", "catseq", "render", "--format", "dot", "00010111"]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stderr == second.stderr == b""


def test_closed_pipe_exits_1_without_a_traceback():
    cmd = [sys.executable, "-m", "catseq", "enumerate", "--n", "11"]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    first = proc.stdout.readline()  # 1.3 MB follow, far more than the pipe holds
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), first, err) == (1, b"0" * 11 + b"1" * 11 + b"\n", b"")


_NAMES = [*FAMILIES, *ALIASES, "frieze"]
_INTS = st.integers(-3, 12).map(str)
_WORDS = [s.bits for n in range(5) for s in enumerate_sequences(n)]
_BITS = st.one_of(st.text(alphabet="01", max_size=10), st.sampled_from(_WORDS)).map(lambda bits: [bits])


def _texts(name):
    """Short texts over the families' symbols, or a small object in family ``name``."""
    samples = [""]
    if name in FAMILIES or name in ALIASES:
        family = resolve(name)
        for word in _WORDS:
            try:
                samples.append(family.render(family.decode(validate(word))))
            except DomainError:
                pass
    return st.one_of(st.text(alphabet="01()*.aHV+-;,0123456789", max_size=12), st.sampled_from(samples))


def _flag(flag, values):
    return values.map(lambda value: [flag, value])


# each command's argument list, drawn whole
_ARGS = {
    "count": st.tuples(
        _flag("--n", _INTS), _flag("--method", st.sampled_from(["closed", "convolution", "linear", "series"]))
    ),
    "enumerate": st.tuples(_flag("--n", _INTS)),
    "validate": st.tuples(_BITS),
    "encode": st.sampled_from(_NAMES).flatmap(
        lambda f: st.tuples(st.just(["--family", f]), _flag("--input", _texts(f)))
    ),
    "decode": st.tuples(_flag("--family", st.sampled_from(_NAMES)), _BITS),
    "transcode": st.sampled_from(_NAMES).flatmap(
        lambda f: st.tuples(
            st.just(["--from", f]), _flag("--to", st.sampled_from(_NAMES)), _flag("--input", _texts(f))
        ),
    ),
    "rank": st.tuples(_BITS),
    "unrank": st.tuples(_flag("--n", _INTS), _flag("--index", _INTS)),
    "random": st.tuples(_flag("--n", _INTS), _flag("--seed", _INTS)),
    "render": st.tuples(_flag("--format", st.sampled_from(["mountain", "dot"])), _BITS),
}
_FLAGS = ["--n", "--method", "--family", "--input", "--from", "--to", "--index", "--seed", "--format", "--help"]
_TOKENS = st.one_of(st.sampled_from([*_ARGS, *_FLAGS, *_NAMES]), _INTS, _texts(None))


@st.composite
def _argv(draw):
    """A whole command with drawn values, then a few tokens dropped or put
    in anywhere, so that bad usage is drawn too."""
    command = draw(st.sampled_from(sorted(_ARGS)))
    argv = [command, *(token for part in draw(_ARGS[command]) for token in part)]
    for _ in range(draw(st.sampled_from((0, 0, 0, 1, 2)))):
        at = draw(st.integers(0, len(argv) - 1))
        if draw(st.booleans()):
            del argv[at]
        else:
            argv.insert(at, draw(_TOKENS))
    return argv


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(argv=_argv())
def test_any_argv_exits_0_1_or_2_without_raising(argv):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2), (argv, code)


# Each command imports only the modules it runs.  The family modules are
# what the codec commands need and nothing else does.
_CODECS = {"catseq.families", "catseq.trees", "catseq.polygons", "catseq.chords", "catseq.lattice"}
_SCOPE = """
import sys
from catseq.cli import main
code = main(sys.argv[1:])
loaded = sorted(m for m in sys.modules if m.startswith("catseq") or m == "json")
import json
print(json.dumps([code, loaded]))
"""


def _loaded(*argv, stderr=""):
    proc = subprocess.run([sys.executable, "-c", _SCOPE, *argv], capture_output=True, text=True)
    assert proc.stderr == stderr
    *out, last = proc.stdout.splitlines()
    code, modules = json.loads(last)
    return code, out, set(modules)


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--n", "3"),
        ("random", "--n", "6", "--seed", "11"),
        ("rank", "010101"),
        ("unrank", "--n", "3", "--index", "2"),
        ("validate", "000111"),
        ("enumerate", "--n", "2"),
    ],
)
def test_core_commands_leave_the_family_modules_unloaded(argv):
    code, out, modules = _loaded(*argv)
    assert code == 0 and out
    assert not modules & _CODECS, modules & _CODECS
    # only the commands that order or draw words load the ranking module
    assert ("catseq.ranking" in modules) == (argv[0] in ("random", "rank", "unrank", "enumerate"))


@pytest.mark.parametrize(
    "argv", [("count", "--n", "3"), ("random", "--n", "6", "--seed", "11"), ("rank", "010101")]
)
def test_core_commands_leave_json_unloaded(argv):
    # the pair-list reader imports json at its first list, not catseq.core at its import
    code, out, modules = _loaded(*argv)
    assert code == 0 and out and "json" not in modules
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, catseq.core; print('json' in sys.modules)"], capture_output=True, text=True
    )
    assert (proc.stdout, proc.stderr) == ("False\n", "")


def test_mountain_leaves_the_tree_module_unloaded():
    code, out, modules = _loaded("render", "--format", "mountain", "0011")
    assert (code, out) == (0, [" /\\", "/  \\"])
    assert "catseq.render" in modules and "catseq.trees" not in modules and "catseq.ranking" not in modules


def test_dot_is_written_from_the_word_with_no_tree_module():
    code, out, modules = _loaded("render", "--format", "dot", "001101")
    edges = ["  v0 -> v1 [label=L];", "  v1 -> v2 [label=R];"]
    assert (code, out) == (0, ["digraph tree {", "  v0;", "  v1;", "  v2;", *edges, "}"])
    assert "catseq.render" in modules and "catseq.trees" not in modules


def test_transcode_loads_the_codecs_it_joins():
    # a mult text is scanned as nested JSON lists; the postfix fold of the same expression scans none
    joined = {"catseq.families", "catseq.trees", "catseq.chords"}
    code, out, modules = _loaded("transcode", "--from", "mult", "--to", "chords", "--input", "(a*((a*a)*a))")
    assert (code, out) == (0, ["1-2,3-6,4-5"])
    assert modules & _CODECS == joined and "json" in modules
    code, out, modules = _loaded("transcode", "--from", "rpn", "--to", "chords", "--input", "aaa*a**")
    assert (code, out) == (0, ["1-2,3-6,4-5"])
    assert modules & _CODECS == joined and "json" not in modules
    code, out, modules = _loaded("transcode", "--from", "chords", "--to", "mult", "--input", "1-2,3-6,4-5")
    assert (code, out) == (0, ["(a*((a*a)*a))"]) and "json" in modules


def test_a_codec_command_loads_only_its_families_modules():
    code, out, modules = _loaded("transcode", "--from", "path", "--to", "pm", "--input", "HHVV")
    assert (code, out) == (0, ["++--"])
    assert modules & _CODECS == {"catseq.families", "catseq.lattice"} and "json" not in modules
    code, out, modules = _loaded("transcode", "--from", "polygon", "--to", "chords", "--input", "5;0-2,0-3")
    assert (code, out) == (0, ["1-6,2-3,4-5"])
    assert modules & _CODECS == {"catseq.families", "catseq.polygons", "catseq.chords"}
    error = "catseq: error: bad chord '1-²', expected the form 'i-j'\n"  # the benchmark's fault call
    code, out, modules = _loaded("encode", "--family", "chords", "--input", "1-²", stderr=error)
    assert (code, out) == (1, [])
    assert modules & _CODECS == {"catseq.families", "catseq.chords"}


def test_an_unknown_family_loads_no_codec_module():
    known = "sequence, tree, path, pm, chords, mult, rpn, rpn-paper, polygon, ballot, votes, mountain"
    error = f"catseq: error: unknown family 'nope' (known: {known})\n"
    code, out, modules = _loaded("transcode", "--from", "nope", "--to", "tree", "--input", "x", stderr=error)
    assert (code, out) == (1, []) and modules & _CODECS == {"catseq.families"}



@pytest.mark.parametrize(
    "source, target, unknown", [("tree", "nope", "nope"), ("nope", "nope2", "nope"), ("ballot", "nope", "nope")]
)
def test_an_unknown_target_loads_no_codec_module_either(source, target, unknown):
    # both names are checked before the known one's module loads, and the source's error comes first
    known = "sequence, tree, path, pm, chords, mult, rpn, rpn-paper, polygon, ballot, votes, mountain"
    error = f"catseq: error: unknown family '{unknown}' (known: {known})\n"
    code, out, modules = _loaded("transcode", "--from", source, "--to", target, "--input", "(. .)", stderr=error)
    assert (code, out) == (1, []) and modules & _CODECS == {"catseq.families"}
