"""Short-circuit evaluation trees.

An evaluation tree is a binary decision tree whose internal nodes are labeled
with atoms and whose leaves are truth values.  The left child is taken when the
atom evaluates to true, the right child when it evaluates to false.  The tree
se(f) encodes exactly the left-sequential short-circuit evaluation of f.

fold_se computes se_k(f, t, e) = se(f)[T -> t, F -> e] right to left with a
caller's rule in place of each branch: se builds Branch nodes with it,
sat_solvers.sat_open guards and normal_form closed terms.

Leaf and Branch are slotted nodes on formula_core's base, immutable by
convention, with the same iterative ``==``, ``hash`` and ``repr``: deep trees
compare and hash without recursion, each pair of shared subtrees compared
once.  Trees may share subtrees.  se(f) returns a shared DAG, equal under
``==`` to the tree, with O(|f|) distinct nodes where the tree itself can
have exponentially many leaves.  substitute, depth and leaf_profile run on
_fold, which visits each distinct node once, keyed by identity, and keeps that
sharing.  render_tree and export_dot cost O(distinct nodes + output): each
records the span of output a branch's first occurrence produced and reuses it
at a later occurrence; export_dot's lines are %d templates, their ids shifted
per occurrence and formatted once.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, TypeVar, Union

from .formula_core import _ATOM, Con, Const, Dis, Formula, Lit, Neg, _Node, is_valid_atom


class Leaf(_Node):
    __slots__ = ("value",)

    def __init__(self, value: bool) -> None:
        self.value = value


class Branch(_Node):
    __slots__ = ("left", "atom", "right")

    def __init__(self, left: "EvalTree", atom: str, right: "EvalTree") -> None:
        self.left = left
        self.atom = atom
        self.right = right


EvalTree = Union[Leaf, Branch]

V = TypeVar("V")

TRUE_LEAF = Leaf(True)
FALSE_LEAF = Leaf(False)


@dataclass(frozen=True)
class LeafProfile:
    has_true: bool
    has_false: bool
    leaf_count: int


def substitute(x: EvalTree, y: EvalTree, z: EvalTree) -> EvalTree:
    """Replace every true leaf of x by y and every false leaf by z.

    Each distinct node of x is rebuilt once, so shared subtrees stay shared
    and the cost is linear in x's distinct nodes.
    """
    return _fold(
        x,
        lambda leaf: y if leaf.value else z,
        lambda node, left, right: Branch(left, node.atom, right),
    )


def se(f: Formula) -> EvalTree:
    """The short-circuit evaluation tree of f:

        se(T) = T            se(a) = T <| a |> F
        se(!x) = se(x)[T -> F, F -> T]
        se(x && y) = se(x)[T -> se(y), F -> F]

    plus the derived rules se(F) = F and se(x || y) = se(x)[T -> T, F -> se(y)].
    A shared DAG of at most |f| + 2 distinct nodes, equal under ``==`` to the
    tree: fold_se makes one Branch per atom occurrence.
    """
    return fold_se(f, TRUE_LEAF, FALSE_LEAF, _branch)[0]


def _branch(t: EvalTree, lit: Lit, e: EvalTree) -> EvalTree:
    return Branch(t, lit.atom, e)


# The value the right operand left on the results stack; not None, which
# sat_solvers.sat_open uses as a continuation.
_PENDING = object()


def fold_se(f: Formula, t: V, e: V, branch: Callable[[V, Lit, V], V]) -> tuple[V, int]:
    """se_k(f, t, e) = se(f)[T -> t, F -> e] with branch(t', lit, e') in place
    of each Branch, computed right to left, and the number of formula nodes
    visited:

        se_k(T, t, e) = t                  se_k(F, t, e) = e
        se_k(a, t, e) = branch(t, a, e)    se_k(!x, t, e) = se_k(x, e, t)
        se_k(x && y, t, e) = se_k(x, se_k(y, t, e), e)
        se_k(x || y, t, e) = se_k(x, t, se_k(y, t, e))

    Each node occurrence is visited once on an explicit stack, and each right
    operand's value is shared by the left operand's leaves.  Raises TypeError
    on a node that is not a formula.
    """
    visits = 0
    results: list[V] = []
    stack: list[tuple[Formula, object, object]] = [(f, t, e)]
    while stack:
        node, t, e = stack.pop()
        if t is _PENDING:
            t = results.pop()
        elif e is _PENDING:
            e = results.pop()
        visits += 1
        if isinstance(node, Const):
            results.append(t if node.value else e)
        elif isinstance(node, Lit):
            results.append(branch(t, node, e))
        elif isinstance(node, Neg):
            stack.append((node.inner, e, t))
        elif isinstance(node, Con):
            stack.append((node.left, _PENDING, e))
            stack.append((node.right, t, e))
        elif isinstance(node, Dis):
            stack.append((node.left, t, _PENDING))
            stack.append((node.right, t, e))
        else:
            raise TypeError(f"not a formula: {node!r}")
    return results[0], visits


def _fold(t: EvalTree, leaf: Callable[[Leaf], V], branch: Callable[[Branch, V, V], V]) -> V:
    """Post-order fold over the distinct nodes of t, each visited once (keyed
    by identity): leaf(node) at a leaf, branch(node, left value, right value)
    at a branch.  An explicit stack copes with deep trees."""
    values: dict[int, V] = {}
    stack = [t]
    while stack:
        node = stack[-1]
        if id(node) in values:
            stack.pop()
        elif isinstance(node, Leaf):
            values[id(node)] = leaf(node)
            stack.pop()
        elif id(node.left) in values and id(node.right) in values:
            values[id(node)] = branch(node, values[id(node.left)], values[id(node.right)])
            stack.pop()
        else:
            stack.append(node.right)
            stack.append(node.left)
    return values[id(t)]


def depth(t: EvalTree) -> int:
    return _fold(t, lambda leaf: 0, lambda node, left, right: 1 + max(left, right))


def leaf_profile(t: EvalTree) -> LeafProfile:
    """Leaf flags and count of the tree, computed over its distinct nodes, so
    a shared DAG is not expanded."""
    return _fold(
        t,
        lambda leaf: LeafProfile(leaf.value, not leaf.value, 1),
        lambda node, left, right: LeafProfile(left.has_true or right.has_true,
                                              left.has_false or right.has_false,
                                              left.leaf_count + right.leaf_count),
    )


def is_open(t: EvalTree) -> bool:
    profile = leaf_profile(t)
    return profile.has_true and profile.has_false


def render_tree(t: EvalTree) -> str:
    """Fully parenthesised infix form, e.g. ``(F < b > T) < a > F``.

    A subtree's text does not depend on where it occurs, and only the root
    goes without parentheses.  So each branch's first occurrence records the
    span of parts it produced, parentheses included, and a later occurrence
    appends that span joined, built once: the cost is O(distinct nodes +
    output), not one step per node of the full tree."""
    if isinstance(t, Leaf):
        return "T" if t.value else "F"
    parts: list[str] = []
    # id(branch) -> the (start, end) of its first occurrence in parts, then
    # its text from its second occurrence on.
    texts: dict[int, tuple[int, int] | str] = {}
    # Text to emit, subtrees to print, and (id(branch), start) to close a
    # branch's first occurrence, in reverse order.
    stack: list[EvalTree | str | tuple[int, int]] = [t.right, f" < {t.atom} > ", t.left]
    while stack:
        item = stack.pop()
        if type(item) is str:
            parts.append(item)
        elif type(item) is tuple:
            key, start = item
            parts.append(")")
            texts[key] = (start, len(parts))
        elif isinstance(item, Leaf):
            parts.append("T" if item.value else "F")
        else:
            key = id(item)
            text = texts.get(key)
            if text is None:
                stack += ((key, len(parts)), item.right, f" < {item.atom} > ", item.left)
                parts.append("(")
            else:
                if type(text) is tuple:
                    text = texts[key] = "".join(parts[text[0]:text[1]])
                parts.append(text)
    return "".join(parts)


_TREE_TOKEN_RE = re.compile(rf"\s*(?:(?P<lpar>\()|(?P<rpar>\))|(?P<lt><)|(?P<gt>>)|(?P<word>{_ATOM}))")


class TreeParseError(ValueError):
    pass


def parse_tree(text: str) -> EvalTree:
    """Inverse of render_tree."""
    # (kind, text) tokens, each match starting where the last one ended.
    tokens: list[tuple[str, str]] = []
    pos = 0
    while pos < len(text):
        match = _TREE_TOKEN_RE.match(text, pos)
        if match is None:
            if text[pos:].strip():
                raise TreeParseError(f"unexpected input at position {pos}")
            break
        tokens.append((match.lastgroup, match[match.lastgroup]))
        pos = match.end()

    # Grammar: tree := operand ('<' atom '>' operand)?, operand := '(' tree ')'
    # | 'T' | 'F'.  One frame per open parenthesis (the outermost for the
    # whole input): None while it awaits its left operand, (left, atom) once
    # it awaits the right one.
    frames: list[tuple[EvalTree, str] | None] = [None]
    index = 0
    while True:
        if index >= len(tokens):
            raise TreeParseError("unexpected end of input")
        kind, value = tokens[index]
        index += 1
        if kind == "lpar":
            frames.append(None)
            continue
        if kind != "word":
            raise TreeParseError(f"unexpected token {value!r}")
        if value == "T":
            operand: EvalTree = TRUE_LEAF
        elif value == "F":
            operand = FALSE_LEAF
        else:
            raise TreeParseError(f"expected leaf or '(', found atom {value!r}")
        # Hand the operand to its frame; a finished frame is an operand of the
        # enclosing one once its ')' is read.
        while True:
            frame = frames[-1]
            if frame is None and index < len(tokens) and tokens[index][0] == "lt":
                index += 1
                if index >= len(tokens) or tokens[index][0] != "word" or not is_valid_atom(tokens[index][1]):
                    raise TreeParseError("expected atom after '<'")
                atom = tokens[index][1]
                index += 1
                if index >= len(tokens) or tokens[index][0] != "gt":
                    raise TreeParseError("expected '>'")
                index += 1
                frames[-1] = (operand, atom)
                break
            if frame is not None:
                operand = Branch(frame[0], frame[1], operand)
            frames.pop()
            if not frames:
                if index != len(tokens):
                    raise TreeParseError("unexpected trailing input")
                return operand
            if index >= len(tokens) or tokens[index][0] != "rpar":
                raise TreeParseError("expected ')'")
            index += 1


# export_dot's stack markers: the right child is next, and a branch's
# subtrees are done.
_MIDDLE = object()
_END = object()

# Line templates, %d for each node id.
_TRUE_LEAF_LINE = '  n%d [shape=box, label="T"];'
_FALSE_LEAF_LINE = '  n%d [shape=box, label="F"];'
_EDGE_LINES = '  n%d -> n%d [label="T"];\n  n%d -> n%d [label="F"];'


def export_dot(t: EvalTree) -> str:
    """DOT digraph: atoms as ellipses, leaves as boxes labeled T/F,
    true edges labeled "T", false edges labeled "F".  Nodes are numbered in
    pre-order, each branch's edges following both of its subtrees.

    As in render_tree, each branch's first occurrence records its span of
    lines, all %d templates, and of their ids; a later occurrence appends
    those lines joined, built once, and the ids shifted by the same amount.
    The ids are formatted once, at the end: O(distinct nodes + output)."""
    lines = ["digraph evaltree {"]
    ids: list[int] = []
    counter = 0
    # Each open branch's (id(branch), first line, first id index, node id),
    # then its right child's id; its left child's is node id + 1.
    open_ids: list[object] = []
    # id(branch) -> the (first line, end line, first id index, end id index,
    # node id, size) of its first occurrence, then its joined lines, ids,
    # node id and size from its second occurrence on.
    spans: dict[int, tuple] = {}
    stack: list[object] = [t]
    while stack:
        item = stack.pop()
        if item is _MIDDLE:
            open_ids.append(counter)
        elif item is _END:
            right = open_ids.pop()
            key, start, ids_start, node_id = open_ids.pop()
            lines.append(_EDGE_LINES)
            ids += (node_id, node_id + 1, node_id, right)
            spans[key] = (start, len(lines), ids_start, len(ids), node_id, counter - node_id)
        elif isinstance(item, Leaf):
            lines.append(_TRUE_LEAF_LINE if item.value else _FALSE_LEAF_LINE)
            ids.append(counter)
            counter += 1
        elif (span := spans.get(id(item))) is not None:
            if len(span) == 6:
                start, end, ids_start, ids_end, first, size = span
                span = spans[id(item)] = ("\n".join(lines[start:end]), ids[ids_start:ids_end], first, size)
            text, sub_ids, first, size = span
            shift = counter - first
            lines.append(text)
            ids += [i + shift for i in sub_ids]
            counter += size
        else:
            open_ids.append((id(item), len(lines), len(ids), counter))
            lines.append('  n%d [shape=ellipse, label="' + item.atom.replace("%", "%%") + '"];')
            ids.append(counter)
            counter += 1
            stack += (_END, item.right, _MIDDLE, item.left)
    lines.append("}")
    return "\n".join(lines) % tuple(ids)
