"""Reference code the benchmark checks catseq's outputs against.

Nothing here imports catseq.  Every construction is written from the
definitions in the paper and in the package's documentation: uniform
words come from the cycle lemma, the letter-for-letter families from
substitution, chord diagrams from parenthesis matching, and the tree,
expression and polygon families from the edge-pair tree code.  Trees are
nested two-item lists ``[left, right]`` with ``None`` for the empty tree.
"""

from __future__ import annotations

from math import comb

FAMILY_NAMES = ("sequence", "tree", "path", "pm", "chords", "mult", "rpn", "rpn-paper", "polygon")

_TO_PATH = str.maketrans("01", "HV")
_TO_PM = str.maketrans("01", "+-")
_TO_RPN = str.maketrans("01", "a*")
_FROM_RPN = str.maketrans("a*", "01")


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def is_dyck(word: str) -> bool:
    """Equal numbers of '0' and '1', and no prefix with more '1' than '0'."""
    balance = 0
    for ch in word:
        if ch == "0":
            balance += 1
        elif ch == "1":
            balance -= 1
            if balance < 0:
                return False
        else:
            return False
    return balance == 0


def cycle_lemma_word(n: int, rng) -> str:
    """A uniformly random Dyck word of semilength n.

    Shuffle n zeros and n + 1 ones.  Exactly one of the 2n + 1 rotations,
    the one starting just after the first prefix minimum, is a Dyck word
    followed by a final '1' (cycle lemma), so every Dyck word is equally
    likely.
    """
    steps = ["0"] * n + ["1"] * (n + 1)
    rng.shuffle(steps)
    balance = 0
    lowest = 0
    cut = 0
    for i, ch in enumerate(steps, start=1):
        balance += 1 if ch == "0" else -1
        if balance < lowest:
            lowest = balance
            cut = i
    rotated = steps[cut:] + steps[:cut]
    return "".join(rotated[:-1])


def matching(word: str) -> list[tuple[int, int]]:
    """Chords of a Dyck word by parenthesis matching, 1-based, sorted by opener."""
    stack: list[int] = []
    pairs = []
    for pos, ch in enumerate(word, start=1):
        if ch == "0":
            stack.append(pos)
        else:
            pairs.append((stack.pop(), pos))
    pairs.sort()
    return pairs


# -- the edge-pair tree code ------------------------------------------------


def word_to_tree(word: str):
    """Decode the edge-pair code: 0 <body> 1, body pairs 01 / 10 / 00 ... 11."""
    if not word:
        return None
    root = [None, None]
    current = root
    waiting = []
    interior = word[1:-1]
    for i in range(0, len(interior), 2):
        pair = interior[i : i + 2]
        child = [None, None]
        if pair == "01":
            current[0] = child
        elif pair == "10":
            current[1] = child
        elif pair == "00":
            waiting.append(current)
            current[0] = child
        else:
            current = waiting.pop()
            current[1] = child
        current = child
    return root


def tree_to_word(tree) -> str:
    """Preorder edge-pair code of a tree; the empty tree gives the empty word."""
    if tree is None:
        return ""
    out = ["0"]
    stack = [tree]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        left, right = item
        if left is not None and right is not None:
            out.append("00")
            stack.extend((right, "11", left))
        elif left is not None:
            out.append("01")
            stack.append(left)
        elif right is not None:
            out.append("10")
            stack.append(right)
    out.append("1")
    return "".join(out)


def tree_size(tree) -> int:
    count = 0
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is not None:
            count += 1
            stack.extend(node)
    return count


def infix_text(tree, leaf: str, sep: str) -> str:
    """"(" left sep right ")" per node, ``leaf`` for each empty slot."""
    out = []
    stack = [tree]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        elif item is None:
            out.append(leaf)
        else:
            stack.extend((")", item[1], sep, item[0], "("))
    return "".join(out)


def parse_infix(text: str, leaf: str, sep: str):
    """Strict inverse of infix_text; False when the text is not canonical."""
    pos = 0
    frames: list[list] = []
    while True:
        if pos >= len(text):
            return False
        ch = text[pos]
        pos += 1
        if ch == "(":
            frames.append([])
            continue
        if ch != leaf:
            return False
        node = None
        while True:
            if not frames:
                return node if pos == len(text) else False
            frame = frames[-1]
            if not frame:
                frame.append(node)
                if text[pos : pos + 1] != sep:
                    return False
                pos += 1
                break
            if text[pos : pos + 1] != ")":
                return False
            pos += 1
            node = [frame[0], node]
            frames.pop()


def postfix_text(tree) -> str:
    """Postorder text of the expression whose multiplications are the tree's nodes."""
    out = []
    stack = [tree]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        elif item is None:
            out.append("a")
        else:
            stack.extend(("*", item[1], item[0]))
    return "".join(out)


def parse_postfix(text: str):
    """Strict inverse of postfix_text; False when the text is not one expression."""
    stack: list = []
    for ch in text:
        if ch == "a":
            stack.append(None)
        elif ch == "*" and len(stack) >= 2:
            right = stack.pop()
            stack.append([stack.pop(), right])
        else:
            return False
    return stack[0] if len(stack) == 1 else False


# -- polygons ---------------------------------------------------------------


def tree_to_diagonals(tree, m: int) -> list[tuple[int, int]]:
    """Triangulation of the m-gon whose dual, rooted on side (0, m-1), is the tree.

    The triangle on base (a, b) has its apex at a + 1 + |left subtree|.
    """
    sizes = {}
    order = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is not None:
            order.append(node)
            stack.extend(node)
    for node in reversed(order):
        sizes[id(node)] = 1 + sum(sizes[id(c)] for c in node if c is not None)
    diagonals = []
    stack = [] if tree is None else [(tree, 0, m - 1)]
    while stack:
        node, a, b = stack.pop()
        left, right = node
        c = a + 1 + (sizes[id(left)] if left is not None else 0)
        if c > a + 1:
            diagonals.append((a, c))
            stack.append((left, a, c))
        if c < b - 1:
            diagonals.append((c, b))
            stack.append((right, c, b))
    diagonals.sort()
    return diagonals


def noncrossing(diagonals: list[tuple[int, int]]) -> bool:
    """True when no two chords a < c < b < d cross (stack sweep by left end)."""
    open_: list[int] = []
    for a, b in sorted(diagonals, key=lambda d: (d[0], -d[1])):
        while open_ and open_[-1] <= a:
            open_.pop()
        if open_ and b > open_[-1]:
            return False
        open_.append(b)
    return True


def diagonals_to_tree(m: int, diagonals: list[tuple[int, int]]):
    """Dual tree of a triangulation; the apex on base (a, b) is a's largest
    neighbour below b.  Returns False when a region has no triangle."""
    if m == 2:
        return None
    neighbours = {v: [v + 1] for v in range(m - 1)}
    for a, b in diagonals:
        neighbours[a].append(b)
    edges = set(diagonals) | {(v, v + 1) for v in range(m - 1)}
    root = [None, None]
    stack = [(root, 0, m - 1)]
    while stack:
        node, a, b = stack.pop()
        c = max((v for v in neighbours[a] if v < b), default=None)
        if c is None or (c, b) not in edges:
            return False
        if c > a + 1:
            node[0] = [None, None]
            stack.append((node[0], a, c))
        if c < b - 1:
            node[1] = [None, None]
            stack.append((node[1], c, b))
    return root


def parse_polygon(text: str):
    """(m, diagonals) from "m;a-b,...", or None unless digits are ASCII and well placed."""
    head, sep, tail = text.partition(";")
    if not sep or not _ascii_number(head):
        return None
    diagonals = []
    for part in tail.split(",") if tail else ():
        a, dash, b = part.partition("-")
        if not dash or not _ascii_number(a) or not _ascii_number(b):
            return None
        diagonals.append((int(a), int(b)))
    return int(head), diagonals


def _ascii_number(text: str) -> bool:
    return bool(text) and all("0" <= ch <= "9" for ch in text)


def polygon_text(m: int, diagonals) -> str:
    return f"{m};" + ",".join(f"{a}-{b}" for a, b in diagonals)


# -- family texts -------------------------------------------------------------


def rpn_paper_image(word: str) -> bool:
    """The paper's postfix wire format reaches exactly the words 0·u·1, u a Dyck word."""
    return len(word) >= 2 and word[0] == "0" and word[-1] == "1" and is_dyck(word[1:-1])


def family_text(family: str, word: str) -> str:
    """Text of the family object whose code is ``word``.

    For rpn-paper the word must lie in the image (see rpn_paper_image).
    """
    if family == "sequence":
        return word
    if family == "path":
        return word.translate(_TO_PATH)
    if family == "pm":
        return word.translate(_TO_PM)
    if family == "chords":
        return ",".join(f"{i}-{j}" for i, j in matching(word))
    if family == "rpn-paper":
        return word[:-1].translate(_TO_RPN)
    tree = word_to_tree(word)
    if family == "tree":
        return infix_text(tree, ".", " ")
    if family == "mult":
        return infix_text(tree, "a", "*")
    if family == "rpn":
        return postfix_text(tree)
    if family == "polygon":
        n = len(word) // 2
        return polygon_text(n + 2, tree_to_diagonals(tree, n + 2))
    raise KeyError(family)


def check_output(family: str, word: str, out) -> bool:
    """Is ``out`` the text catseq must print for ``word`` in ``family``?

    The letter-for-letter families and chords must equal the reference
    text.  Tree, mult, rpn and polygon outputs must map back to ``word``
    and have the right size: n nodes, n multiplications, or an
    (n + 2)-gon with n - 1 non-crossing diagonals.  rpn-paper outputs
    must read back to ``word`` with n factors.
    """
    if not isinstance(out, str):
        return False
    n = len(word) // 2
    if family in ("sequence", "path", "pm", "chords"):
        return out == family_text(family, word)
    if family == "tree":
        tree = parse_infix(out, ".", " ")
        return tree is not False and tree_size(tree) == n and tree_to_word(tree) == word
    if family == "mult":
        tree = parse_infix(out, "a", "*")
        return tree is not False and out.count("*") == n and tree_to_word(tree) == word
    if family == "rpn":
        tree = parse_postfix(out)
        return tree is not False and out.count("*") == n and tree_to_word(tree) == word
    if family == "rpn-paper":
        return out.count("a") == n and out.translate(_FROM_RPN) + "1" == word
    if family == "polygon":
        parsed = parse_polygon(out)
        if parsed is None or out != polygon_text(*parsed):
            return False
        m, diagonals = parsed
        if m != n + 2 or len(diagonals) != max(0, n - 1) or diagonals != sorted(set(diagonals)):
            return False
        if any(not (0 <= a and a + 2 <= b <= m - 1) or (a, b) == (0, m - 1) for a, b in diagonals):
            return False
        if not noncrossing(diagonals):
            return False
        tree = diagonals_to_tree(m, diagonals)
        return tree is not False and tree_to_word(tree) == word
    raise KeyError(family)


def expects_domain_error(family: str, word: str) -> bool:
    """Only rpn-paper is partial: it rejects every word outside its image."""
    return family == "rpn-paper" and not rpn_paper_image(word)


# -- malformed texts ------------------------------------------------------------


def malformed_text(family: str, word: str, rng) -> str:
    """A text no parser of ``family`` may accept, built from a valid one.

    Half insert a foreign letter at a random place (a syntax error in
    every grammar); the rest break a counting condition the grammar alone
    cannot see.
    """
    text = family_text(family, word)
    if rng.random() < 0.5 or not word:
        at = rng.randrange(len(text) + 1)
        return text[:at] + "x" + text[at:]
    n = len(word) // 2
    if family in ("sequence", "path", "pm"):
        return family_text(family, word[::-1])  # starts with a '1': prefix violation
    if family == "chords":
        return text + f",{2 * n + 1}-{2 * n + 3}"  # point 2n + 2 unpaired
    if family == "polygon":
        m, diagonals = parse_polygon(text)
        return polygon_text(m + 1, diagonals)  # one diagonal short
    if family == "tree":
        return f"({text} {text}"  # missing ')'
    if family == "mult":
        return f"({text}*{text}"
    return text + "a"  # rpn, rpn-paper: one operand left over


def enumeration_ok(n: int, words) -> bool:
    """C_n distinct Dyck words of semilength n in strictly ascending order."""
    if len(words) != catalan(n):
        return False
    previous = None
    for word in words:
        if len(word) != 2 * n or not is_dyck(word) or (previous is not None and word <= previous):
            return False
        previous = word
    return True
