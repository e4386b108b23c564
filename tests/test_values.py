"""The value types: immutable, without a per-instance ``__dict__``, and
equal to themselves after pickling and copying."""

import copy
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from catseq.chords import ChordDiagram
from catseq.core import AltitudeProfile, CatalanSequence
from catseq.counting import SeriesPrefix
from catseq.families import FAMILIES
from catseq.lattice import GridPath, PlusMinusSequence
from catseq.polygons import Triangulation
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


@pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))])
def test_pickle_and_copy_give_an_equal_value(value, clone):
    twin = clone(value)
    assert type(twin) is type(value)
    assert twin == value
    assert hash(twin) == hash(value)
    assert repr(twin) == repr(value)
    assert [getattr(twin, name) for name in _fields(value)] == [getattr(value, name) for name in _fields(value)]


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
