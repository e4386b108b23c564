"""Binary-tree codec and the expression syntaxes built on top of it.

The tree codec walks the tree in preorder and emits a digit pair per
edge: 01 for a lone left edge, 10 for a lone right edge, and 00 / 11
for the left / right edges of a node with two children, the whole body
wrapped in a leading 0 and a trailing 1.

Extended binary trees (every internal node has exactly two children)
double as multiplication expressions: leaves are factors, internal
nodes multiplications.  Node and Internal share one base, so equality,
hashing, the codec and one infix grammar serve both; the grammar only
swaps tokens, "(. (. .))" for trees and "(a*(a*a))" for expressions.
Expressions also have a postfix syntax ("aaa**") and two sequence
codecs: the total one, which is the tree codec on the internal nodes,
and the append-a-1 postfix wire format whose decode is partial.

Each text is read straight into the code, by the pair walk over scanned
lists or one pass over the postfix word, and written from its stream of
digit pairs by one writer (_write), with no nodes.  The writer takes each
pair as its two characters, and the pair walk (_edge_pairs) unpacks a
scanned list as its own (left, right), with no call per node.  An infix
text is first read as nested JSON lists by json's C scanner.  Where that
scan refuses it, the grammar's own pass checks it and names the first
fault, and the text, each "(" and separator deleted, the leaf read as 'a'
and each ")" as '*', is its postfix word.  By the depth rule
('a' +1, '*' -1) a postfix word, 'a' read as 0 and '*' as 1, is 0 D
with D a Catalan word, which the sequence's scan checks (_postfix_bits):
rpn-paper reads 0 D 1 with no fold, and rpn reads only a word so
checked, by one pass right to left that writes each node's digit pair
into its preorder slot, with ints alone on its stack (_read_checked_rpn).  The
postfix fold (_postfix) checks nothing: only decoding runs it, on the text
written from a valid code, and a node pickles as the decoding of its code.
Each _read_*/_write_* pass maps text to a checked word and a word to
text on plain strs; the hub runs those, and FAMILIES[name].read and
.write are the same passes on a CatalanSequence.  Every traversal uses
an explicit stack, so chains of 10^4 nodes are fine.
"""

from __future__ import annotations

from operator import attrgetter

from .core import (
    CatalanError, CatalanSequence, DomainError, ParseError, _json_scan, _scan, _trusted_sequence, _Value, check_text,
    sequence_bits,
)

_RPN_TO_BITS = str.maketrans("a*01", "0122")  # a literal 0 or 1 stays a bad symbol to the scan
_BITS_TO_RPN = str.maketrans("01", "a*")

#: a node's text is opener, left, separator, right, closer; an empty subtree is the leaf
_TREE = ("(", ".", " ", ")")
_MULT = ("(", "a", "*", ")")
_RPN = ("", "a", "", "*")
#: either infix family's tokens as JSON, a node a list of two and a leaf null, for a text of one family's alone
_INFIX_TO_JSON = str.maketrans("(. a*)", "[n,n,]")
#: per infix token set, the table that deletes its tokens: a text of those alone translates to ""
_DROP_TOKENS = {tokens: str.maketrans("", "", "".join(tokens)) for tokens in (_TREE, _MULT)}
#: per infix token set, the table that deletes the opener and separator and maps the leaf to 'a' and ")" to '*':
#: a text the grammar accepts translates to the postfix word of its tree
_INFIX_TO_RPN = {tokens: str.maketrans(tokens[1] + tokens[3], "a*", tokens[0] + tokens[2]) for tokens in (_TREE, _MULT)}
_CHILDREN = attrgetter("left", "right")  # a Node's or an Internal's (left, right), for _edge_pairs


class _BinaryNode(_Value):
    """Two child slots, ``None`` for an empty one; the base of Node and Internal.

    Equality and hashing compare the concrete type and the edge-pair code,
    which is one-to-one on shapes, so a Node never equals an Internal.  The
    repr shows the infix text in the subclass's tokens.  A node pickles as
    its code and its decoder, so unpickling checks the word and a deep chain
    needs no deep recursion; a copy is the node itself.  A child that is
    neither ``None`` nor a node of the same type raises CatalanError.
    """

    __slots__ = ("left", "right")

    def __init__(self, left: _BinaryNode | None = None, right: _BinaryNode | None = None):
        for child in (left, right):
            if child is not None and type(child) is not type(self):
                kind = type(self).__name__
                raise CatalanError(f"{kind} children must be None or {kind}, not {type(child).__name__}")
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return _edge_pairs(self) == _edge_pairs(other)

    def __hash__(self):
        return hash((type(self), _edge_pairs(self)))

    def __repr__(self):
        return f"{type(self).__name__}[{_write(_edge_pairs(self), self._TOKENS)}]"

    def __reduce__(self):
        return decode_tree if type(self) is Node else decode_expression, (_trusted_sequence(_edge_pairs(self)),)


class Node(_BinaryNode):
    """A binary-tree node; ``None`` in either slot is the empty subtree.

    The empty binary tree as a whole is plain ``None``.
    """

    __slots__ = ()
    _TOKENS = _TREE


class Internal(_BinaryNode):
    """An internal node of an extended binary tree (one multiplication).

    ``None`` in either slot is a leaf operand; a bare leaf expression is
    plain ``None``.  Both children always exist, counting leaves, so
    leaf_count = internal_count + 1 holds by construction.
    """

    __slots__ = ()
    _TOKENS = _MULT


BinaryTree = Node | None
ExtendedBinaryTree = Internal | None


class StackUnderflowError(ParseError):
    """A postfix operator arrived with fewer than two values on the stack."""


class ExcessOperandsError(ParseError):
    """A postfix word left more than one value on the stack."""


class NotInImageError(DomainError):
    """A valid sequence that no rpn-paper encoding produces."""


def node_count(t: BinaryTree | ExtendedBinaryTree) -> int:
    """Number of nodes, the semilength of the edge-pair code; for an
    expression, its Internal nodes, i.e. multiplications (a bare leaf has 0)."""
    return encode_tree(t).semilength


internal_count = node_count


def leaf_count(e: ExtendedBinaryTree) -> int:
    return internal_count(e) + 1


def encode_tree(t: BinaryTree | ExtendedBinaryTree) -> CatalanSequence:
    """Preorder edge-pair encoding; the empty tree maps to the empty sequence.

    The wrapper 0...1 is applied only to nonempty trees, so semilength
    always equals node_count and the single-node tree alone claims "01".
    CatalanError for a value that is neither None nor a Node or Internal.
    """
    if t is not None and not isinstance(t, _BinaryNode):
        raise CatalanError(f"tree must be a Node, an Internal or None, not {type(t).__name__}")
    return _trusted_sequence(_edge_pairs(t))


def _edge_pairs(root) -> str:
    """The bits of encode_tree(root): a Node or an Internal holds its (left, right) in its slots, and a scanned
    list is its own; a list that is no pair raises ValueError.  The stack holds the nodes still to walk and None
    for a 11 still to write, so the word is valid whatever the nodes hold."""
    if root is None:
        return ""
    children = _CHILDREN if isinstance(root, _BinaryNode) else None
    out = ["0"]
    stack = [root]
    while stack:
        item = stack.pop()
        if item is None:
            out.append("11")
            continue
        left, right = item if children is None else children(item)
        if right is None:
            if left is not None:
                out.append("01")
                stack.append(left)
        elif left is None:
            out.append("10")
            stack.append(right)
        else:
            out.append("00")
            stack += (right, None, left)
    out.append("1")
    return "".join(out)


def _write(bits: str, tokens: tuple[str, str, str, str]) -> str:
    """The text of the code ``bits``, read as a stream of digit pairs, each as its first character, then
    its second: a node as opener, left, separator, right, closer, and an empty subtree as the leaf.  A 01,
    10 or 00 writes what precedes its node's first nonempty subtree and pushes what follows it, None for a
    00's right subtree.  A 11, like the end, is a childless node; it pops closers down to that None."""
    opener, leaf, sep, closer = tokens
    if not bits:
        return leaf
    childless = opener + leaf + sep + leaf + closer
    right_only, left_only = opener + leaf + sep, sep + leaf + closer
    out = []
    closers: list[str | None] = []
    write, push, pop = out.append, closers.append, closers.pop
    for first, second in zip(bits[1:-1:2], bits[2:-1:2]):
        if first == "0":
            write(opener)
            push(left_only if second == "1" else None)
        elif second == "1":
            write(childless)
            while (tail := pop()) is not None:
                write(tail)
            write(sep)
            push(closer)
        else:
            write(right_only)
            push(closer)
    write(childless)
    out += reversed(closers)  # a valid code leaves no 00 waiting
    return "".join(out)


def _postfix_bits(text: str) -> str:
    """The image of a postfix word over {'a', '*'}, 'a' 0 and '*' 1, by the depth rule ('a' +1, '*' -1):
    after a first 'a' the image of the rest is balanced, so its first fault is the word's.  ParseError names
    it, StackUnderflowError for an operator without two operands and ExcessOperandsError for values left over."""
    check_text(text, "postfix word")
    bits = text.translate(_RPN_TO_BITS)
    i, depth = _scan(bits[1:]) if bits[:1] == "0" else (-1, 0)
    if i + 1 < len(text):  # the fault is at text[i + 1]
        if text[i + 1] == "*":
            raise StackUnderflowError("operator lacks two operands", i + 2)
        raise ParseError(f"expected 'a' or '*', found {text[i + 1]!r}", i + 2)
    if depth:
        raise ExcessOperandsError(f"{depth + 1} values remain after the last token")
    if not text:
        raise ParseError("empty postfix word", 1)
    return bits


def _postfix(text: str, make):
    """The tree of a postfix word over {'a', '*'} that it does not check, as the decoders write it from a valid
    code: None per leaf and ``make(left, right)`` per operator."""
    stack: list = []
    push, pop = stack.append, stack.pop
    for token in text:
        if token == "a":
            push(None)
        else:
            right = pop()
            stack[-1] = make(stack[-1], right)
    return stack[0]


def decode_tree(s: CatalanSequence) -> BinaryTree:
    """Exact inverse of encode_tree: the postfix fold over the rpn text of s."""
    return _postfix(_write_rpn(sequence_bits(s)), Node)


def extend_tree(t: BinaryTree) -> ExtendedBinaryTree:
    """Complete every node to two children: Empty becomes a leaf, each Node
    an Internal.  internal_count of the result equals node_count(t)."""
    return decode_expression(encode_tree(t))


def strip_leaves(e: ExtendedBinaryTree) -> BinaryTree:
    """Inverse of extend_tree: drop all leaves, keep the internal shape."""
    return decode_tree(encode_expression(e))


encode_expression = encode_tree  # the total expression codec: n multiplications yield semilength n


def decode_expression(s: CatalanSequence) -> ExtendedBinaryTree:
    """Inverse of encode_expression: decode_tree with Internal nodes."""
    return _postfix(_write_rpn(sequence_bits(s)), Internal)


def _read_infix(text: str, tokens: tuple[str, str, str, str], end_noun: str, noun: str, separator: str) -> str:
    """The code of the text  T := leaf | "(" T sep T ")"  in ``tokens``.

    A text of the four tokens alone is first scanned by json's C scanner as
    nested lists; a list that is no pair, a scan that stops short and one
    nested past the recursion limit leave it to the pass below.

    That pass checks the grammar alone, with a flag per open "(" for
    whether its separator has come.  ParseError gives the 1-based position
    of the first fault; the strings name parts in it.  A text it accepts,
    with each "(" and separator deleted, the leaf read as 'a' and each ")"
    as '*', is the postfix word of the same tree, which rpn's pass reads.
    """
    check_text(text, end_noun)
    if not text.translate(_DROP_TOKENS[tokens]):  # JSON would also skip whitespace
        nested = text.translate(_INFIX_TO_JSON).replace("n", "null")
        try:
            root, end = _json_scan()(nested, 0)
            if end == len(nested):
                return _edge_pairs(root)
        except (ValueError, StopIteration, RecursionError):
            pass
    leaf, sep = tokens[1:3]
    seps: list[bool] = []  # per open "(": its separator has come
    want = True  # a subtree starts here
    for pos, ch in enumerate(text, 1):
        if want:
            if ch == "(":
                seps.append(False)
            elif ch == leaf:
                want = False
            else:
                raise ParseError(f"expected '(' or {leaf!r}, found {ch!r}", pos)
        elif not seps:
            raise ParseError(f"trailing characters after {noun}", pos)
        elif not seps[-1]:
            if ch != sep:
                raise ParseError(f"expected {separator}", pos)
            seps[-1] = want = True
        elif ch != ")":
            raise ParseError("expected ')'", pos)
        else:
            seps.pop()
    if want:
        raise ParseError(f"unexpected end of {end_noun}", len(text) + 1)
    if seps:
        raise ParseError("expected ')'" if seps[-1] else f"expected {separator}", len(text) + 1)
    return _read_checked_rpn(text.translate(_INFIX_TO_RPN[tokens]))


def _read_tree(text: str) -> str:
    """The code of the tree text  Tree := "." | "(" Tree " " Tree ")"."""
    return _read_infix(text, _TREE, "tree text", "tree", "' ' between subtrees")


def _write_tree(bits: str) -> str:
    return _write(bits, _TREE)


def _read_mult(text: str) -> str:
    """The code of the expression  Expr := "a" | "(" Expr "*" Expr ")"."""
    return _read_infix(text, _MULT, "expression", "expression", "'*'")


def _write_mult(bits: str) -> str:
    return _write(bits, _MULT)


def _read_rpn(text: str) -> str:
    """The code of the expression behind a postfix word over {'a', '*'}, checked by _postfix_bits."""
    _postfix_bits(text)
    return _read_checked_rpn(text)


def _read_checked_rpn(text: str) -> str:
    """The code of a postfix word that _postfix_bits or the infix grammar has checked, by one pass over it read
    right to left, with ints alone on the stack.  Each '*' opens a node, and each 'a' completes a child, right
    before left; a node whose left child completes is complete.  Its preorder index is then the nodes still
    open plus the '*'s to the left of its first token, and it writes its digit pair into that slot, by which
    children are nodes; a 00 also puts the 11 that ends its left subtree in front of its right child's pair."""
    n = len(text) // 2  # a checked word holds n '*'s among its 2n + 1 tokens
    slots = [""] * n
    stack = [-2]  # per open node: -2 until its right child completes, then that child's slot, or -1 for a leaf
    push, pop = stack.append, stack.pop
    left = n - 1  # the '*'s left of this token, less one for the bottom entry, which no node owns
    for token in reversed(text):
        if token == "*":
            left -= 1
            push(-2)
            continue
        child = -1
        right = pop()
        while right != -2:  # the node whose left child just completed is complete
            i = len(stack) + left
            if child >= 0:
                if right >= 0:
                    slots[i] = "00"
                    slots[right] = "11" + slots[right]
                else:
                    slots[i] = "01"
            elif right >= 0:
                slots[i] = "10"
            child = i
            right = pop()
        push(child)
    return "0" + "".join(slots) + "1" if n else ""


def _write_rpn(bits: str) -> str:
    return _write(bits, _RPN)


def _rpn_paper_read(text: str) -> str:
    """The rpn-paper code of a postfix word, its image and a final 1, with no fold; raises _read_rpn's errors."""
    return _postfix_bits(text) + "1"


def _rpn_paper_write(bits: str) -> str:
    """The postfix word whose rpn-paper code is ``bits``: the rest after the final 1.
    A postfix word keeps its depth ('a' +1, '*' -1) at 1 or more and ends at 1, so
    the image is the words 0 D 1 with D a Catalan word; NotInImageError for the rest."""
    if not bits:
        raise NotInImageError("the empty sequence is outside the rpn-paper image")
    if _scan(bits[1:-1])[0] < len(bits) - 2:  # D ends balanced as the word does, so a drop alone fails it
        raise NotInImageError(f"sequence {bits} is outside the rpn-paper image")
    return bits[:-1].translate(_BITS_TO_RPN)


def rpn_paper_encode(e: ExtendedBinaryTree) -> CatalanSequence:
    """Postfix wire format: operand -> 0, operator -> 1, then one extra 1;
    k factors give semilength k, as operands lead in every proper prefix."""
    return _trusted_sequence(_write_rpn(encode_expression(e).bits).translate(_RPN_TO_BITS) + "1")


def rpn_paper_decode(s: CatalanSequence) -> ExtendedBinaryTree:
    """Partial inverse of rpn_paper_encode; NotInImageError outside its image."""
    return _postfix(_rpn_paper_write(sequence_bits(s)), Internal)
