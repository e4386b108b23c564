"""The value types: immutable, without a per-instance ``__dict__``, and
equal to themselves after pickling and copying; a pickle with a field
replaced loads only through the value's check; the errors keep their
message and position through pickling and copying."""

import copy
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import catseq
from catseq.chords import ChordDiagram
from catseq.core import AltitudeProfile, CatalanSequence, validate
from catseq.counting import SeriesPrefix
from catseq.families import FAMILIES, transcode
from catseq.lattice import GridPath, PlusMinusSequence
from catseq.polygons import Triangulation, rebuild_triangulation
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


@pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
def test_a_copy_is_the_value_itself(value):
    assert copy.copy(value) is value
    assert copy.deepcopy(value) is value


class _Reduced:
    """An object that pickles as ``build(*args)``: a value's own pickle with one argument replaced."""

    def __init__(self, build, args):
        self.reduced = build, args

    def __reduce__(self):
        return self.reduced


def _forged(value, index: int, replacement) -> bytes:
    """The pickle of ``value`` with the ``index``-th argument of its rebuild replaced by ``replacement``."""
    build, args = value.__reduce__()
    return pickle.dumps(_Reduced(build, (*args[:index], replacement, *args[index + 1 :])))


#: per corruption: a valid value, the argument of its pickle's rebuild that is replaced, what replaces it, and
#: the error it loads as; a Node pickles as its decoder and its CatalanSequence
CORRUPTED = {
    "a side for a diagonal": (
        Triangulation(5, ((0, 2), (0, 3))), 1, ((0, 2), (0, 1)),
        (catseq.CatalanError, "0-1 is a polygon side, not a diagonal"),
    ),
    "a float chord label": (
        ChordDiagram(2, ((1, 4), (2, 3))), 1, ((1, 4.0), (2, 3)),
        (catseq.CatalanError, "expected an int n and chords that are pairs of int labels"),
    ),
    "a step that is no H or V": (GridPath("HV"), 0, "HX", (catseq.CatalanError, "invalid step 'X' at position 2")),
    "a vote of 2": (PlusMinusSequence((1, -1)), 0, (2, -1), (catseq.CatalanError, "invalid value 2 at position 1")),
    "a prefix violation": (
        CatalanSequence("0011"), 0, "0110", (catseq.PrefixViolationError, "ones exceed zeros in the prefix of length 3"),
    ),
    "a node word aaa": (Node(), 0, _Reduced(CatalanSequence, ("aaa",)), (catseq.OddLengthError, "length 3 is odd")),
    "a node word a**": (Node(), 0, _Reduced(CatalanSequence, ("a**",)), (catseq.OddLengthError, "length 3 is odd")),
}


@pytest.mark.parametrize("case", CORRUPTED)
def test_a_corrupted_field_makes_unpickling_raise_the_check_error(case):
    value, index, replacement, (cls, message) = CORRUPTED[case]
    data = _forged(value, index, replacement)
    with pytest.raises(catseq.CatalanError) as info:
        pickle.loads(data)
    assert (type(info.value), str(info.value)) == (cls, message)


#: what may stand in a field: the kinds of value the fields hold, every pickled field of VALUES among them, wrong
#: kinds, and words forged into the pickle
_WORDS = st.sampled_from(["", "01", "0011", "001011"]) | st.text("01x", max_size=8)
_OBJECTS = st.one_of(
    st.sampled_from([field for value in VALUES for field in value.__reduce__()[1]]),
    st.none(), st.booleans(), st.integers(-2, 9), st.floats(), st.text("HVX+-a*", max_size=6), _WORDS,
    st.builds(lambda bits: _Reduced(CatalanSequence, (bits,)), _WORDS),
    st.lists(st.integers(-1, 2) | st.floats(-1, 2), max_size=6).map(tuple),
    st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6) | st.floats(0, 6)), max_size=3).map(tuple),
    st.lists(st.none() | st.integers(0, 3) | st.text("HV", max_size=2), max_size=3),
)


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(data=st.data())
def test_a_pickle_with_a_field_replaced_loads_as_a_checked_value_or_not_at_all(data):
    value = data.draw(st.sampled_from(VALUES))
    index = data.draw(st.integers(0, len(value.__reduce__()[1]) - 1))
    forged = _forged(value, index, data.draw(_OBJECTS))
    try:
        twin = pickle.loads(forged)
    except catseq.CatalanError:
        return
    if twin is not None:  # the empty tree or expression
        assert twin == type(twin)(*[getattr(twin, name) for name in _fields(twin)])


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
