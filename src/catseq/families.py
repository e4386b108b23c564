"""The transcoding hub: every family, one registry, any-to-any conversion.

Each family reads its text straight into the Catalan sequence and writes
the sequence straight back as text, so a conversion is one read and one
write and builds no object of either family.  A family's module holds its
read and write as word passes on plain strs, text to checked word and word
to text: transcode runs the two alone, so it builds no sequence either,
and a Family puts the word into a CatalanSequence and takes it out around
them.  One static table maps each name and alias to its family's module
and the names of its passes there.  transcode checks both names, then
imports a family's module at its first use and keeps the two passes, so a
call loads no codec but its two, and a later call reads the passes with
one dict read a side.  FAMILIES is built from the same table when it is
first read, every codec with it.  The sequence family is registered too,
so the hub is uniform, and "mountain" names it, as the vote and ballot
aliases name the ±1 family.
"""

from __future__ import annotations

from collections.abc import Callable
from importlib import import_module

from .core import (
    CatalanError, CatalanSequence, _check_bits, _trusted_sequence, _Value, _whole, check_type, sequence_bits,
)


class Family(_Value):
    """One object family: its text read into and written from the sequence,
    and its sequence codec.  ``total`` is False when write and decode can
    reject valid sequences."""

    __slots__ = ("name", "read", "write", "encode", "decode", "total")

    def __init__(
        self,
        name: str,
        read: Callable[[str], CatalanSequence],
        write: Callable[[CatalanSequence], str],
        encode: Callable[..., CatalanSequence],
        decode: Callable[[CatalanSequence], object],
        total: bool = True,
    ):
        for field, value in zip(self.__slots__, (name, read, write, encode, decode, total)):
            object.__setattr__(self, field, value)

    def parse(self, text: str) -> object:
        return self.decode(self.read(text))

    def render(self, obj: object) -> str:
        return self.write(self.encode(obj))

    def __reduce__(self):
        # a family in FAMILIES pickles as its name, as a function does: only FAMILIES composes its read and write
        registered = globals().get("FAMILIES", {}).get(self.name) is self
        return (resolve, (self.name,)) if registered else super().__reduce__()


def _identity(s: CatalanSequence) -> CatalanSequence:
    check_type(s, CatalanSequence, "sequence")
    return s


def _same(bits: str) -> str:
    return bits


#: per canonical name: the module that holds the family's passes, and the names there of its encode and
#: decode, then of its two word passes, text to checked word and word to text, which transcode runs
_ROWS = {
    "sequence": ("families", "_identity", "_identity", "_check_bits", "_same"),
    "tree": ("trees", "encode_tree", "decode_tree", "_read_tree", "_write_tree"),
    "path": ("lattice", "encode_path", "decode_path", "_read_path", "_write_path"),
    "pm": ("lattice", "encode_pm", "decode_pm", "_read_pm", "_write_pm"),
    "chords": ("chords", "encode_chords", "decode_chords", "_read_chords", "_write_chords"),
    "mult": ("trees", "encode_expression", "decode_expression", "_read_mult", "_write_mult"),
    "rpn": ("trees", "encode_expression", "decode_expression", "_read_rpn", "_write_rpn"),
    "rpn-paper": ("trees", "rpn_paper_encode", "rpn_paper_decode", "_rpn_paper_read", "_rpn_paper_write"),
    "polygon": ("polygons", "encode_polygon", "decode_polygon", "_read_polygon", "_write_polygon"),
}

ALIASES = {"ballot": "pm", "votes": "pm", "mountain": "sequence"}

#: every name transcode has met to its family's two word passes, which _load keeps at the name's first use
_PASSES = {}

FAMILIES: dict[str, Family]  # every family by canonical name: no value until __getattr__ builds it


def __getattr__(name: str):
    """FAMILIES, built from _ROWS on its first read, which imports every codec module, and kept (PEP 562)."""
    if name != "FAMILIES":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    families = globals()["FAMILIES"] = {
        family: Family(family, *_on_sequences(*_load(family)),
                       *[getattr(import_module(f".{module}", __package__), f) for f in codec],
                       total=family != "rpn-paper")  # the paper's wire format is the one partial codec
        for family, (module, *codec, _, _) in _ROWS.items()
    }
    return families


def _on_sequences(read: Callable[[str], str], write: Callable[[str], str]) -> tuple[Callable, Callable]:
    """A family's read and write on CatalanSequences, from its two word passes; the read pass checks the word."""
    return ((lambda text: _trusted_sequence(read(text))),
            sequence_bits if write is _same else lambda s: write(sequence_bits(s)))


def family_ids() -> list[str]:
    """Canonical family names, aliases excluded: FAMILIES', or _ROWS' until it is first read."""
    return list(globals().get("FAMILIES", _ROWS))


def _key(name: str) -> str:
    """The canonical name of a family name or alias, found in FAMILIES, or in _ROWS until FAMILIES is first
    read; resolve's error for any other name, with nothing built and no codec module imported."""
    try:
        key = ALIASES.get(name, name)
        if key in globals().get("FAMILIES", _ROWS):
            return key
    except TypeError:  # a name no dict can hold, such as a list
        pass
    known = ", ".join([*family_ids(), *ALIASES])
    raise CatalanError(f"unknown family {_whole(name)} (known: {known})")


def resolve(name: str) -> Family:
    """Look up a family by canonical name or alias.  An unknown name imports no codec module."""
    key = _key(name)
    return globals()["FAMILIES"][key] if "FAMILIES" in globals() else __getattr__("FAMILIES")[key]


def transcode(source: str, target: str, text: str) -> str:
    """Convert any family's text form into any other's through the sequence:
    the source family's ``read``, then the target family's ``write``, each run
    as its word pass on a plain str, so no CatalanSequence is built.

    Raises ParseError when ``text`` does not parse in the source family, or
    validate's errors for ``sequence`` text (PrefixViolationError for "0110"),
    and DomainError when the target codec is partial and rejects the sequence.
    An unknown name raises resolve's error, the source's before the target's,
    before any codec module loads; a family put into FAMILIES after import
    runs through its read and write.
    """
    try:
        read, write = _PASSES[source][0], _PASSES[target][1]
    except (KeyError, TypeError):  # a name met here first: both are checked, then _load imports their modules
        if _key(source) not in _ROWS or _key(target) not in _ROWS:  # a family put into FAMILIES since
            return resolve(target).write(resolve(source).read(text))
        read, write = _load(source)[0], _load(target)[1]
    return write(read(text))


def _load(name: str) -> tuple[Callable[[str], str], Callable[[str], str]]:
    """The two word passes of the family that ``name``, canonical or an alias, names in _ROWS: its module
    imported, and the pair kept in _PASSES for every later call."""
    module, *_, read, write = _ROWS[ALIASES.get(name, name)]
    module = import_module(f".{module}", __package__)
    passes = _PASSES[name] = getattr(module, read), getattr(module, write)
    return passes
