"""The package surface: 65 names, each loaded from its module on first use."""

import os
import shutil
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import catseq

# The public names, by the module that defines each.
SURFACE = {
    "chords": "ChordDiagram decode_chords encode_chords",
    "core": "AltitudeProfile CapExceededError CatalanError CatalanSequence CountMismatchError"
    " DomainError IndexOutOfRangeError InvalidSymbolError OddLengthError ParseError"
    " PrefixViolationError altitude_profile validate",
    "counting": "SeriesPrefix binomial catalan_closed catalan_convolution catalan_linear catalan_series",
    "families": "FAMILIES Family family_ids resolve transcode",
    "lattice": "GridPath PlusMinusSequence decode_path decode_pm encode_path encode_pm",
    "polygons": "SizeMismatchError Triangulation decode_polygon dual_tree encode_polygon rebuild_triangulation",
    "ranking": "enumerate_sequences iter_sequences random_uniform rank sequence_count unrank",
    "render": "render_dot render_mountain",
    "trees": "BinaryTree ExcessOperandsError ExtendedBinaryTree Internal Node NotInImageError"
    " StackUnderflowError decode_expression decode_tree encode_expression encode_tree extend_tree"
    " internal_count leaf_count node_count rpn_paper_decode rpn_paper_encode strip_leaves",
}
MODULE_OF = {name: module for module, names in SURFACE.items() for name in names.split()}


def test_all_is_the_pinned_surface():
    assert len(MODULE_OF) == 65
    assert catseq.__all__ == sorted(MODULE_OF)


@pytest.mark.parametrize("name", sorted(MODULE_OF))
def test_each_name_is_the_object_its_module_defines(name):
    defined = getattr(import_module(f"catseq.{MODULE_OF[name]}"), name)
    assert getattr(catseq, name) is defined
    assert vars(catseq)[name] is defined  # kept after the first read


def test_star_import_and_dir_list_every_name():
    namespace = {}
    exec("from catseq import *", namespace)
    assert set(MODULE_OF) <= set(namespace)
    assert set(MODULE_OF) <= set(dir(catseq))


def test_the_python_floor_has_the_int_string_limit():
    """``catseq count`` reads sys.get_int_max_str_digits, which CPython added in 3.10.7."""
    tomllib = pytest.importorskip("tomllib")  # 3.11 and later
    with open(Path(__file__).parents[1] / "pyproject.toml", "rb") as f:
        spec = tomllib.load(f)["project"]["requires-python"]
    assert spec.startswith(">=")
    assert tuple(int(part) for part in spec[2:].split(".")) >= (3, 10, 7)


def test_unknown_attribute_is_an_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_codec"):
        catseq.no_such_codec  # noqa: B018
    assert not hasattr(catseq, "no_such_codec")


_FRESH = """
import sys
import catseq
before = sorted(m for m in sys.modules if m.startswith("catseq"))
from catseq import core
print(before, core is sys.modules["catseq.core"], catseq.transcode("pm", "path", "+-"))
print(sorted(m for m in sys.modules if m.startswith("catseq")))
"""


def test_names_load_on_first_use_and_submodules_still_import():
    proc = subprocess.run([sys.executable, "-c", _FRESH], capture_output=True, text=True)
    assert proc.stderr == ""
    first, loaded = proc.stdout.splitlines()
    assert first == "['catseq'] True HV"
    assert "catseq.families" in loaded and "catseq.counting" not in loaded


_CHECKS = """
from catseq.chords import ChordDiagram
from catseq.core import AltitudeProfile, CatalanError, CatalanSequence
from catseq.ranking import enumerate_sequences, iter_sequences, random_uniform, sequence_count, unrank
from catseq.counting import SeriesPrefix, catalan_linear
from catseq.families import FAMILIES
from catseq.lattice import GridPath, PlusMinusSequence
from catseq.trees import Node
from test_core import BAD_SEEDS, NOT_INTS
MALFORMED = {"sequence": "0110", "tree": "((. .) .", "path": "HVVH", "pm": "+--+", "chords": "1-3,2-4",
             "mult": "(a*a", "rpn": "aa", "rpn-paper": "a*", "polygon": "6;0-2,1-3,0-4"}
SCANNED = {"sequence": ("01x1", "0110", "0001"), "path": ("H1", "HVVH", "HHHV"), "pm": ("+0", "+--+", "+++-"),
           "rpn-paper": ("a1", "a**", "aaa*")}
cases = [(SeriesPrefix, ((2, 1),)), (AltitudeProfile, ((0, 2, 0),)), (ChordDiagram, (2, ((1, 3), (2, 4)))),
         (AltitudeProfile, ((0, 1.0, 0),)), (PlusMinusSequence, ((True, -1),)), (Node, (5,)),
         (unrank, (3, 1.5)), (sequence_count, (2.5,)), (catalan_linear, (2.5,)), (SeriesPrefix, ((1.0, 2),))]
cases += [(FAMILIES[name].read, (text,)) for name, text in MALFORMED.items()]
cases += [(FAMILIES[name].read, (text,)) for name in FAMILIES for text in (None, 5, b"01", ["0"])]
cases.append((FAMILIES["rpn-paper"].write, (CatalanSequence("010011"),)))
# the scanned checks: a bad symbol, a prefix violation and a count mismatch each
cases += [(CatalanSequence, (bits,)) for bits in ("0x", "10", "0001")]
cases += [(GridPath, (steps,)) for steps in ("H0", "VH", "HHHV")]
cases += [(PlusMinusSequence, (values,)) for values in ((1, 0), (-1, 1), (1, 1, 1, -1))]
cases += [(FAMILIES[name].read, (text,)) for name, texts in SCANNED.items() for text in texts]
cases.append((FAMILIES["rpn-paper"].write, (CatalanSequence("0101"),)))
cases += [(fn, (n,)) for fn in (iter_sequences, enumerate_sequences) for n, _ in NOT_INTS]
cases += [(random_uniform, (3, seed)) for seed, _ in BAD_SEEDS]
for build, args in cases:
    try:
        build(*args)
    except CatalanError:
        continue
    raise SystemExit(f"{build}{args} was accepted")
"""


def test_checks_hold_under_python_O():
    """python -O strips every assert, so no check may rest on one."""
    path = os.pathsep.join([str(Path(catseq.__file__).parents[1]), str(Path(__file__).parent)])  # src, tests
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _CHECKS], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}
    )
    assert (proc.returncode, proc.stderr) == (0, "")


def _newest_python(minor: str, floor: int) -> Path | None:
    """The newest CPython 3.<minor>.x, x >= floor, that pyenv holds or that ``python3.<minor>`` on PATH runs,
    or None."""
    versions = Path(os.environ.get("PYENV_ROOT") or Path.home() / ".pyenv") / "versions"
    found = []
    for path in versions.glob(f"3.{minor}.*/bin/python3"):
        micro = path.parents[1].name.removeprefix(f"3.{minor}.")
        if micro.isdigit() and int(micro) >= floor:
            found.append((int(micro), path))
    on_path = shutil.which(f"python3.{minor}")
    if on_path:  # a pyenv shim runs some version, or fails
        code = "import sys; print(*sys.version_info[:3], sys.executable)"
        proc = subprocess.run([on_path, "-c", code], capture_output=True, text=True)
        if proc.returncode == 0:
            _, got, micro, executable = proc.stdout.split(maxsplit=3)
            if got == minor and int(micro) >= floor:
                found.append((int(micro), Path(executable.rstrip("\n"))))
    return max(found)[1] if found else None


# the requires-python floor is 3.10.7; Tier-1 runs the golden test on 3.11 itself
@pytest.mark.parametrize(("minor", "floor"), [("10", 7), ("12", 0), ("13", 0)], ids=["3.10", "3.12", "3.13"])
def test_the_golden_digests_hold_at_the_python_floor(minor, floor):
    """tests/golden.py under the newest CPython 3.10.x (x >= 7), 3.12.x or 3.13.x installed: every section matches."""
    python = _newest_python(minor, floor)
    if python is None:
        pytest.skip(f"no CPython 3.{minor}.{floor} or later 3.{minor} under $PYENV_ROOT/versions")
    path = os.pathsep.join([str(Path(catseq.__file__).parents[1]), str(Path(__file__).parent)])  # src, tests
    proc = subprocess.run(
        [str(python), str(Path(__file__).with_name("golden.py"))],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
