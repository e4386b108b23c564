"""Catalan sequences and invertible codecs for the families they count.

The package centers on one interchange form, the Catalan sequence (a
balanced binary word whose prefixes never hold more ones than zeros),
with codecs to and from binary trees, multiplication expressions in two
syntaxes, grid paths, ±1 ballot sequences, non-crossing chord diagrams,
and polygon triangulations, plus Catalan numbers by four routes over
three computations, and a CLI (``catseq`` or ``python -m catseq``).

Every public name is listed once, in ``_PUBLIC``, under the submodule
that defines it.  Names load on first use: ``catseq.transcode`` imports
``catseq.families`` when it is first read, and the hub imports each codec
at its family's first use, so ``import catseq`` alone loads no submodule.
"""

from importlib import import_module

_PUBLIC = {
    "chords": ("ChordDiagram", "decode_chords", "encode_chords"),
    "core": (
        "AltitudeProfile", "CapExceededError", "CatalanError", "CatalanSequence",
        "CountMismatchError", "DomainError", "IndexOutOfRangeError", "InvalidSymbolError",
        "OddLengthError", "ParseError", "PrefixViolationError", "altitude_profile", "validate",
    ),
    "counting": (
        "SeriesPrefix", "binomial", "catalan_closed", "catalan_convolution", "catalan_linear",
        "catalan_series",
    ),
    "families": ("FAMILIES", "Family", "family_ids", "resolve", "transcode"),
    "lattice": (
        "GridPath", "PlusMinusSequence", "decode_path", "decode_pm", "encode_path", "encode_pm",
    ),
    "polygons": (
        "SizeMismatchError", "Triangulation", "decode_polygon", "dual_tree", "encode_polygon",
        "rebuild_triangulation",
    ),
    "ranking": ("enumerate_sequences", "iter_sequences", "random_uniform", "rank", "sequence_count", "unrank"),
    "render": ("render_dot", "render_mountain"),
    "trees": (
        "BinaryTree", "ExcessOperandsError", "ExtendedBinaryTree", "Internal", "Node",
        "NotInImageError", "StackUnderflowError", "decode_expression", "decode_tree",
        "encode_expression", "encode_tree", "extend_tree", "internal_count", "leaf_count",
        "node_count", "rpn_paper_decode", "rpn_paper_encode", "strip_leaves",
    ),
}
_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    """Import the submodule that defines ``name`` and keep the value here (PEP 562)."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
