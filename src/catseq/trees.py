"""Binary-tree codec and the expression syntaxes built on top of it.

The tree codec walks the tree in preorder and emits a digit pair per
edge: 01 for a lone left edge, 10 for a lone right edge, and 00 / 11
for the left / right edges of a node with two children, the whole body
wrapped in a leading 0 and a trailing 1.  Decoding reads the pairs once
and builds the frozen nodes bottom-up: each 01, 10 or 00 opens a frame
for the node it describes, and each 11, like the end of the input,
closes frames until it reaches the 00 still waiting for its left subtree.

Extended binary trees (every internal node has exactly two children)
double as multiplication expressions: leaves are factors, internal
nodes multiplications.  Node and Internal share one base, so equality,
hashing, the edge-pair codec and one infix grammar serve both; the
grammar only swaps tokens, "(. (. .))" for trees and "(a*(a*a))" for
expressions.  One walker (_edge_pairs) gives the code of either kind
and one builder (_decode_pairs) decodes a code into either kind, so
extend_tree and strip_leaves are the code of one kind decoded as the other.
Expressions also have a postfix syntax ("aaa**") and two sequence
codecs: the total one, which is the tree codec on the internal nodes,
and the append-a-1 postfix wire format whose decode is partial.

Every traversal here uses an explicit stack; degenerate chains of 10^4
nodes and more are fine.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import CatalanSequence, DomainError, ParseError, _trusted

_RPN_TO_BITS = str.maketrans("a*", "01")
_BITS_TO_RPN = str.maketrans("01", "a*")


@dataclass(frozen=True, eq=False, repr=False)
class _BinaryNode:
    """Two child slots, ``None`` for an empty one; the base of Node and Internal.

    Equality and hashing compare the concrete type and the edge-pair code,
    which is one-to-one on shapes, so a Node never equals an Internal.  The
    repr shows the infix text in the subclass's tokens.
    """

    left: _BinaryNode | None = None
    right: _BinaryNode | None = None

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return _edge_pairs(self) == _edge_pairs(other)

    def __hash__(self):
        return hash((type(self), _edge_pairs(self)))

    def __repr__(self):
        return f"{type(self).__name__}[{_render_infix(self, type(self))}]"


class Node(_BinaryNode):
    """A binary-tree node; ``None`` in either slot is the empty subtree.

    The empty binary tree as a whole is plain ``None``.
    """

    _TOKENS = (".", " ")  # infix leaf and separator: "(. (. .))"


class Internal(_BinaryNode):
    """An internal node of an extended binary tree (one multiplication).

    ``None`` in either slot is a leaf operand; a bare leaf expression is
    plain ``None``.  Both children always exist, counting leaves, so
    leaf_count = internal_count + 1 holds by construction.
    """

    _TOKENS = ("a", "*")  # "(a*(a*a))"


BinaryTree = Node | None
ExtendedBinaryTree = Internal | None


class StackUnderflowError(ParseError):
    """A postfix operator arrived with fewer than two values on the stack."""

    def __init__(self, position: int):
        super().__init__("operator lacks two operands", position)


class ExcessOperandsError(ParseError):
    """A postfix word left more than one value on the stack."""

    def __init__(self, leftover: int):
        super().__init__(f"{leftover} values remain after the last token")


class NotInImageError(DomainError):
    """A valid sequence that no rpn-paper encoding produces."""


def node_count(t: BinaryTree | ExtendedBinaryTree) -> int:
    """Number of nodes, the semilength of the edge-pair code; for an
    expression, its Internal nodes, i.e. multiplications (a bare leaf has 0)."""
    return len(_edge_pairs(t)) // 2


internal_count = node_count


def leaf_count(e: ExtendedBinaryTree) -> int:
    return internal_count(e) + 1


def encode_tree(t: BinaryTree | ExtendedBinaryTree) -> CatalanSequence:
    """Preorder edge-pair encoding; the empty tree maps to the empty sequence.

    The wrapper 0...1 is applied only to nonempty trees, so semilength
    always equals node_count and the single-node tree alone claims "01".
    """
    return _trusted(CatalanSequence, bits=_edge_pairs(t))


def _edge_pairs(t) -> str:
    """The bits of encode_tree(t), unchecked.

    The stack holds the nodes still to walk and None for a 11 still to
    write, so every digit comes from the walk itself and the word is valid
    whatever the nodes hold; a child that is not a node raises.
    """
    if t is None:
        return ""
    out = ["0"]
    stack: list[_BinaryNode | None] = [t]
    while stack:
        item = stack.pop()
        if item is None:
            out.append("11")
            continue
        left, right = item.left, item.right
        if left is not None and right is None:
            out.append("01")
            stack.append(left)
        elif left is None and right is not None:
            out.append("10")
            stack.append(right)
        elif left is not None and right is not None:
            out.append("00")
            stack.append(right)
            stack.append(None)
            stack.append(left)
    out.append("1")
    return "".join(out)


def _decode_pairs(s: CatalanSequence, make):
    """The tree behind ``s`` built from ``make(left, right)`` nodes in one pass.

    Each 01, 10 or 00 pushes a frame for the node it describes, whose
    child comes next.  A 11, or the end of the input, means the current
    node is childless: frames close bottom-up into finished subtrees
    until the 00 still waiting for its left subtree, which takes that
    subtree and waits for its right one.  The root hangs below a virtual
    00 at the bottom of the stack.  Valid input never underflows it.
    """
    if not s.bits:
        return None
    frames: list = ["00"]
    body = s.bits[1:-1] + "11"  # the final 11 closes every frame left open
    for i in range(0, len(body), 2):
        pair = body[i : i + 2]
        if pair != "11":
            frames.append(pair)
            continue
        node = make()
        while True:
            frame = frames.pop()
            if frame.__class__ is make:  # a 00 whose left subtree is done
                node = make(frame, node)
            elif frame == "01":
                node = make(node, None)
            elif frame == "10":
                node = make(None, node)
            else:  # the 00 waiting for its left subtree
                frames.append(node)
                break
    assert len(frames) == 1, "pair stream of a valid sequence left open frames"
    return frames[0]


def decode_tree(s: CatalanSequence) -> BinaryTree:
    """Exact inverse of encode_tree: one pass over the digit pairs."""
    return _decode_pairs(s, Node)


def extend_tree(t: BinaryTree) -> ExtendedBinaryTree:
    """Complete every node to two children: Empty becomes a leaf, each Node
    an Internal.  internal_count of the result equals node_count(t)."""
    return decode_expression(encode_tree(t))


def strip_leaves(e: ExtendedBinaryTree) -> BinaryTree:
    """Inverse of extend_tree: drop all leaves, keep the internal shape."""
    return decode_tree(encode_expression(e))


def encode_expression(e: ExtendedBinaryTree) -> CatalanSequence:
    """Total expression codec: the tree codec on the internal nodes, i.e.
    encode_tree(strip_leaves(e)).  n multiplications yield semilength n."""
    return encode_tree(e)


def decode_expression(s: CatalanSequence) -> ExtendedBinaryTree:
    """Inverse of encode_expression: decode_tree with Internal nodes."""
    return _decode_pairs(s, Internal)


def _parse_infix(text: str, make, end_noun: str, noun: str, separator: str):
    """Parse  T := leaf | "(" T sep T ")"  in ``make``'s tokens into ``make`` nodes.

    Raises ParseError with the 1-based offending position; the three
    strings name the text, the whole and the separator in its messages.
    """
    leaf, sep = make._TOKENS
    pos = 0
    length = len(text)
    frames: list[list] = []
    while True:
        if pos >= length:
            raise ParseError(f"unexpected end of {end_noun}", pos + 1)
        ch = text[pos]
        if ch == "(":
            frames.append([])
            pos += 1
            continue
        if ch != leaf:
            raise ParseError(f"expected '(' or {leaf!r}, found {ch!r}", pos + 1)
        node = None
        pos += 1
        while True:  # attach the finished subtree upward
            if not frames:
                if pos != length:
                    raise ParseError(f"trailing characters after {noun}", pos + 1)
                return node
            frame = frames[-1]
            if not frame:
                frame.append(node)
                if pos >= length or text[pos] != sep:
                    raise ParseError(f"expected {separator}", pos + 1)
                pos += 1
                break
            if pos >= length or text[pos] != ")":
                raise ParseError("expected ')'", pos + 1)
            pos += 1
            node = make(frame[0], node)
            frames.pop()


def _render_infix(root, kind) -> str:
    """Infix text  T := leaf | "(" T sep T ")"  in ``kind``'s tokens."""
    leaf, sep = kind._TOKENS
    out = []
    stack = [root]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        elif item is None:
            out.append(leaf)
        else:
            stack.extend((")", item.right, sep, item.left, "("))
    return "".join(out)


def parse_tree(text: str) -> BinaryTree:
    """Parse the tree text form  Tree := "." | "(" Tree " " Tree ")"."""
    return _parse_infix(text, Node, "tree text", "tree", "' ' between subtrees")


def render_tree(t: BinaryTree) -> str:
    """Canonical tree text: "." for empty, "(left right)" otherwise."""
    return _render_infix(t, Node)


def parse_mult(text: str) -> ExtendedBinaryTree:
    """Parse the grammar  Expr := "a" | "(" Expr "*" Expr ")".

    Raises ParseError with the 1-based offending position.
    """
    return _parse_infix(text, Internal, "expression", "expression", "'*'")


def render_mult(e: ExtendedBinaryTree) -> str:
    """Canonical parenthesized text; every factor is the letter 'a'."""
    return _render_infix(e, Internal)


def parse_rpn(text: str) -> ExtendedBinaryTree:
    """Build an expression from a postfix word over {'a', '*'}.

    Raises StackUnderflowError when an operator lacks two operands and
    ExcessOperandsError when more than one value remains at the end.
    """
    stack: list[ExtendedBinaryTree] = []
    for i, ch in enumerate(text):
        if ch == "a":
            stack.append(None)
        elif ch == "*":
            if len(stack) < 2:
                raise StackUnderflowError(i + 1)
            right = stack.pop()
            left = stack.pop()
            stack.append(Internal(left, right))
        else:
            raise ParseError(f"expected 'a' or '*', found {ch!r}", i + 1)
    if not stack:
        raise ParseError("empty postfix word", 1)
    if len(stack) > 1:
        raise ExcessOperandsError(len(stack))
    return stack[0]


def render_rpn(e: ExtendedBinaryTree) -> str:
    """Postorder text: left body, right body, '*' per multiplication.  A
    preorder walk that takes the right child first writes each '*', then its
    right body, then its left body: the postfix text backwards."""
    out = []
    stack: list[ExtendedBinaryTree] = [e]
    while stack:
        item = stack.pop()
        if item is None:
            out.append("a")
        else:
            out.append("*")
            stack += (item.left, item.right)
    return "".join(out)[::-1]


def rpn_paper_encode(e: ExtendedBinaryTree) -> CatalanSequence:
    """Postfix wire format: operand -> 0, operator -> 1, then one extra 1.

    An expression with k factors encodes to semilength k, always a valid
    sequence (operands strictly dominate operators in every proper prefix).
    """
    return _trusted(CatalanSequence, bits=render_rpn(e).translate(_RPN_TO_BITS) + "1")


def rpn_paper_decode(s: CatalanSequence) -> ExtendedBinaryTree:
    """Partial inverse of rpn_paper_encode.

    Drops the final 1 and reads the rest as a postfix word; raises
    NotInImageError when that word is not well formed, which happens for
    every valid sequence outside the wire format's image.
    """
    if not s.bits:
        raise NotInImageError("the empty sequence is outside the rpn-paper image")
    word = s.bits[:-1].translate(_BITS_TO_RPN)
    try:
        return parse_rpn(word)
    except ParseError as exc:
        raise NotInImageError(f"sequence {s.bits} is outside the rpn-paper image") from exc
