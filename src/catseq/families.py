"""The transcoding hub: every family, one registry, any-to-any conversion.

Each family reads its text straight into the Catalan sequence and writes
the sequence straight back as text, so a conversion is one read and one
write and builds no object of either family.  Each read and write is a word
pass on a plain str, which its module's read_*/write_* wraps in or takes out
of a CatalanSequence; transcode runs the two word passes alone, from one
table of names and aliases, so it builds no sequence either.  The object API
composes the wrapped passes with the family's codec: ``parse`` is ``decode``
after ``read`` and ``render`` is ``write`` after ``encode``.  The identity
family for sequences is registered too, so the hub is uniform: its read pass
is the check of the CatalanSequence constructor and its write pass returns
the word.  "mountain" names the same family, as do the vote and ballot
aliases for the ±1 family.  rpn text is read by one pass over the postfix
word, right to left, with ints alone on its stack (trees._read_rpn).
"""

from __future__ import annotations

from collections.abc import Callable

from . import chords, lattice, polygons, trees
from .core import CatalanError, CatalanSequence, _check_bits, _Value, _whole, check_type, sequence_bits, validate


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


def _identity(s: CatalanSequence) -> CatalanSequence:
    check_type(s, CatalanSequence, "sequence")
    return s


def _same(bits: str) -> str:
    return bits


#: per family: the Family, then its word passes, text to checked word and word to text, which transcode runs
_ROWS = (
    (Family("sequence", validate, sequence_bits, _identity, _identity), _check_bits, _same),
    (Family("tree", trees.read_tree, trees.write_tree, trees.encode_tree, trees.decode_tree),
     trees._read_tree, trees._write_tree),
    (Family("path", lattice.read_path, lattice.write_path, lattice.encode_path, lattice.decode_path),
     lattice._read_path, lattice._write_path),
    (Family("pm", lattice.read_pm, lattice.write_pm, lattice.encode_pm, lattice.decode_pm),
     lattice._read_pm, lattice._write_pm),
    (Family("chords", chords.read_chords, chords.write_chords, chords.encode_chords, chords.decode_chords),
     chords._read_chords, chords._write_chords),
    (Family("mult", trees.read_mult, trees.write_mult, trees.encode_expression, trees.decode_expression),
     trees._read_mult, trees._write_mult),
    (Family("rpn", trees.read_rpn, trees.write_rpn, trees.encode_expression, trees.decode_expression),
     trees._read_rpn, trees._write_rpn),
    (Family("rpn-paper", trees.rpn_paper_read, trees.rpn_paper_write, trees.rpn_paper_encode,
            trees.rpn_paper_decode, total=False),
     trees._rpn_paper_read, trees._rpn_paper_write),
    (Family("polygon", polygons.read_polygon, polygons.write_polygon, polygons.encode_polygon,
            polygons.decode_polygon),
     polygons._read_polygon, polygons._write_polygon),
)

FAMILIES: dict[str, Family] = {family.name: family for family, _, _ in _ROWS}

ALIASES = {"ballot": "pm", "votes": "pm", "mountain": "sequence"}

#: every canonical name and alias to its family's two word passes
_PASSES = {family.name: passes for family, *passes in _ROWS}
_PASSES.update({alias: _PASSES[name] for alias, name in ALIASES.items()})


def family_ids() -> list[str]:
    """Canonical family names, aliases excluded."""
    return list(FAMILIES)


def resolve(name: str) -> Family:
    """Look up a family by canonical name or alias."""
    try:
        return FAMILIES[ALIASES.get(name, name)]
    except (KeyError, TypeError):  # TypeError: a name no dict can hold, such as a list
        known = ", ".join([*FAMILIES, *ALIASES])
        raise CatalanError(f"unknown family {_whole(name)} (known: {known})") from None


def transcode(source: str, target: str, text: str) -> str:
    """Convert any family's text form into any other's through the sequence:
    the source family's ``read``, then the target family's ``write``, each run
    as its word pass on a plain str, so no CatalanSequence is built.

    Raises ParseError when ``text`` does not parse in the source family, or
    validate's errors for ``sequence`` text (PrefixViolationError for "0110"),
    and DomainError when the target codec is partial and rejects the sequence.
    An unknown name raises resolve's error, the source's before the target's;
    a family put into FAMILIES after import runs through its read and write.
    """
    try:
        read, write = _PASSES[source][0], _PASSES[target][1]
    except (KeyError, TypeError):  # a name the table lacks: resolve refuses it or finds a family put in since
        src, dst = resolve(source), resolve(target)
        return dst.write(src.read(text))
    return write(read(text))
