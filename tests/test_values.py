"""The value types: immutable, without a per-instance ``__dict__``, and
equal to themselves after pickling and copying; the errors keep their
message and position through the same."""

import copy
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import catseq
from catseq.chords import ChordDiagram
from catseq.core import AltitudeProfile, CatalanSequence, validate
from catseq.counting import SeriesPrefix
from catseq.families import FAMILIES, transcode
from catseq.lattice import GridPath, PlusMinusSequence
from catseq.polygons import Triangulation, dual_tree, rebuild_triangulation
from catseq.ranking import enumerate_sequences, unrank
from catseq.trees import Internal, Node

SRC = Path(__file__).resolve().parent.parent / "src"

VALUES = [
    CatalanSequence(""),
    CatalanSequence("001011"),
    AltitudeProfile((0, 1, 2, 1, 0)),
    SeriesPrefix((1, 1, 2, 5)),
    GridPath("HHVV"),
    PlusMinusSequence((1, -1, 1, -1)),
    ChordDiagram(2, ((1, 4), (2, 3))),
    Triangulation(5, ((0, 2), (0, 3))),
    FAMILIES["tree"],
    FAMILIES["rpn-paper"],
    Node(),
    Node(Node(), Node(None, Node())),
    Internal(),
    Internal(Internal(Internal()), None),
]


def _fields(value):
    """The names of the fields of ``value``."""
    return type(value).__match_args__


CLONES = [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))]


@pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
@pytest.mark.parametrize("clone", CLONES)
def test_pickle_and_copy_give_an_equal_value(value, clone):
    twin = clone(value)
    assert type(twin) is type(value)
    assert twin == value
    assert hash(twin) == hash(value)
    assert repr(twin) == repr(value)
    assert [getattr(twin, name) for name in _fields(value)] == [getattr(value, name) for name in _fields(value)]


def _corrupted_dual_tree():
    tri = Triangulation(5, ((0, 2), (0, 3)))
    object.__setattr__(tri, "diagonals", ((0, 2), (1, 3)))  # crossing, set past the check
    return dual_tree(tri)


#: per error class, a call that raises it; DomainError is raised only as its subclass NotInImageError
RAISERS = {
    "CatalanError": lambda: unrank(3, 1.0),
    "OddLengthError": lambda: validate("0"),
    "PrefixViolationError": lambda: validate("0110"),
    "CountMismatchError": lambda: validate("0001"),
    "InvalidSymbolError": lambda: validate("01x1"),
    "CapExceededError": lambda: enumerate_sequences(17),
    "IndexOutOfRangeError": lambda: unrank(3, 5),
    "ParseError": lambda: transcode("tree", "sequence", "(. x)"),
    "StackUnderflowError": lambda: transcode("rpn", "sequence", "a*"),
    "ExcessOperandsError": lambda: transcode("rpn", "sequence", "aa"),
    "NotInImageError": lambda: transcode("sequence", "rpn-paper", "0101"),
    "MalformedTriangulationError": _corrupted_dual_tree,
    "SizeMismatchError": lambda: rebuild_triangulation(None, 5),
}

#: every error class of the public names
ERRORS = [name for name in catseq.__all__ if name.endswith("Error")]


def _same_error(twin, exc):
    """Whether ``twin`` has the type, message, args and position of ``exc``."""
    return [type(twin), str(twin), twin.args, getattr(twin, "position", None)] == [
        type(exc), str(exc), exc.args, getattr(exc, "position", None)]


@pytest.mark.parametrize("name", RAISERS)
@pytest.mark.parametrize("clone", CLONES)
def test_pickle_and_copy_keep_a_raised_error(name, clone):
    with pytest.raises(getattr(catseq, name)) as info:
        RAISERS[name]()
    exc = info.value
    assert type(exc).__name__ == name
    assert _same_error(clone(exc), exc)


@pytest.mark.parametrize("name", ERRORS)
@pytest.mark.parametrize("clone", CLONES)
def test_every_error_is_built_from_a_message_and_a_position(name, clone):
    cls = getattr(catseq, name)
    assert issubclass(cls, catseq.CatalanError)
    at, nowhere = cls("message", 7), cls("message")
    assert (at.position, nowhere.position, str(nowhere)) == (7, None, "message")
    assert _same_error(clone(at), at)
    assert _same_error(clone(nowhere), nowhere)


def test_a_deep_chain_pickles_and_copies():
    chain = None
    for _ in range(10**4):
        chain = Node(chain)
    assert pickle.loads(pickle.dumps(chain)) == chain
    assert copy.deepcopy(chain) == chain


@pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
def test_no_instance_has_a_dict(value):
    assert not hasattr(value, "__dict__")


@pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
def test_every_field_refuses_assignment_and_deletion(value):
    assert _fields(value)
    for name in _fields(value):
        before = getattr(value, name)
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(value, name, before)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(value, name)
        assert getattr(value, name) is before
    with pytest.raises(AttributeError):
        value.extra = 1


def test_equality_needs_the_same_type():
    assert CatalanSequence("01") != GridPath("HV")
    assert Node() != Internal()
    assert CatalanSequence("01").__eq__("01") is NotImplemented


_IMPORTS = """
import sys
sys.path.insert(0, sys.argv[1])
import catseq.cli, catseq.families, catseq.counting, catseq.render
print(sorted({"dataclasses", "inspect", "typing"} & set(sys.modules)))
"""


def test_no_module_imports_dataclasses_inspect_or_typing():
    # -S: no site hooks, which may load typing themselves
    proc = subprocess.run([sys.executable, "-S", "-c", _IMPORTS, str(SRC)], capture_output=True, text=True)
    assert proc.stderr == ""
    assert proc.stdout == "[]\n"
