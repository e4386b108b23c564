"""The transcoding hub: every family, one registry, any-to-any conversion.

Converting between two families is always encode-to-sequence followed by
decode-from-sequence, which preserves semilength by construction.  The
identity codec for sequences themselves is registered too, so the hub is
uniform; "mountain" names the same family, as do the vote and ballot
aliases for the ±1 family.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from . import chords, lattice, polygons, trees
from .core import CatalanError, CatalanSequence, validate


@dataclass(frozen=True)
class Family:
    """One object family: its text grammar and its sequence codec."""

    name: str
    parse: Callable[[str], Any]
    render: Callable[[Any], str]
    encode: Callable[[Any], CatalanSequence]
    decode: Callable[[CatalanSequence], Any]
    total: bool = True  # False when decode can reject valid sequences


def _identity(s: CatalanSequence) -> CatalanSequence:
    return s


FAMILIES: dict[str, Family] = {
    f.name: f
    for f in (
        Family("sequence", validate, lambda s: s.bits, _identity, _identity),
        Family("tree", trees.parse_tree, trees.render_tree, trees.encode_tree, trees.decode_tree),
        Family("path", lattice.parse_path, lattice.render_path, lattice.encode_path, lattice.decode_path),
        Family("pm", lattice.parse_pm, lattice.render_pm, lattice.encode_pm, lattice.decode_pm),
        Family("chords", chords.parse_chords, chords.render_chords, chords.encode_chords, chords.decode_chords),
        Family("mult", trees.parse_mult, trees.render_mult, trees.encode_expression, trees.decode_expression),
        Family("rpn", trees.parse_rpn, trees.render_rpn, trees.encode_expression, trees.decode_expression),
        Family(
            "rpn-paper",
            trees.parse_rpn,
            trees.render_rpn,
            trees.rpn_paper_encode,
            trees.rpn_paper_decode,
            total=False,
        ),
        Family(
            "polygon",
            polygons.parse_polygon,
            polygons.render_polygon,
            polygons.encode_polygon,
            polygons.decode_polygon,
        ),
    )
}

ALIASES = {"ballot": "pm", "votes": "pm", "mountain": "sequence"}


def family_ids() -> list[str]:
    """Canonical family names, aliases excluded."""
    return list(FAMILIES)


def resolve(name: str) -> Family:
    """Look up a family by canonical name or alias."""
    canonical = ALIASES.get(name, name)
    try:
        return FAMILIES[canonical]
    except KeyError:
        known = ", ".join([*FAMILIES, *ALIASES])
        raise CatalanError(f"unknown family {name!r} (known: {known})") from None


def transcode(source: str, target: str, text: str) -> str:
    """Convert any family's text form into any other's through the sequence.

    Raises ParseError when ``text`` does not parse in the source family, or
    validate's errors for ``sequence`` text (PrefixViolationError for "0110"),
    and DomainError when the target codec is partial and rejects the sequence.
    """
    src = resolve(source)
    dst = resolve(target)
    return dst.render(dst.decode(src.encode(src.parse(text))))
