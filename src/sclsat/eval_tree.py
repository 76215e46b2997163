"""Short-circuit evaluation trees.

An evaluation tree is a binary decision tree whose internal nodes are labeled
with atoms and whose leaves are truth values.  The left child is taken when the
atom evaluates to true, the right child when it evaluates to false.  The tree
se(f) encodes exactly the left-sequential short-circuit evaluation of f.

fold_se computes se_k(f, t, e) = se(f)[T -> t, F -> e] right to left with a
caller's rule in place of each branch: se builds Branch nodes with it,
sat_solvers.sat_open guards and normal_form closed terms.

Trees are immutable and may share subtrees.  se(f) returns a shared DAG, equal
under ``==`` to the tree, with O(|f|) distinct nodes where the tree itself can
have exponentially many leaves.  substitute, depth and leaf_profile work over
the distinct nodes, keyed by identity, and keep that sharing; render_tree and
export_dot print the full tree.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, TypeVar, Union

from .formula_core import Con, Const, Dis, Formula, Lit, Neg, _scan, is_valid_atom


@dataclass(frozen=True)
class Leaf:
    value: bool


@dataclass(frozen=True)
class Branch:
    left: "EvalTree"
    atom: str
    right: "EvalTree"


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
    """Fully parenthesised infix form, e.g. ``(F < b > T) < a > F``."""
    # The stack holds text still to emit and subtrees still to expand, in
    # reverse order; an explicit stack copes with deep trees.
    parts: list[str] = []
    # One separator string per atom rather than one per branch printed.
    separators: dict[str, str] = {}
    stack: list[EvalTree | str] = [t]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
        elif isinstance(item, Leaf):
            parts.append("T" if item.value else "F")
        else:
            separator = separators.get(item.atom)
            if separator is None:
                separator = separators[item.atom] = f" < {item.atom} > "
            right, left = item.right, item.left
            stack.extend((")", right, "(") if isinstance(right, Branch) else (right,))
            stack.append(separator)
            stack.extend((")", left, "(") if isinstance(left, Branch) else (left,))
    return "".join(parts)


_TREE_TOKEN_RE = re.compile(r"\s*(?:(?P<lpar>\()|(?P<rpar>\))|(?P<lt><)|(?P<gt>>)|(?P<word>[A-Za-z_][A-Za-z0-9_]*))")


class TreeParseError(ValueError):
    pass


def parse_tree(text: str) -> EvalTree:
    """Inverse of render_tree."""
    tokens, stop = _scan(_TREE_TOKEN_RE, text)
    if stop is not None:
        raise TreeParseError(f"unexpected input at position {stop}")

    # Grammar: tree := operand ('<' atom '>' operand)?, operand := '(' tree ')'
    # | 'T' | 'F'.  One frame per open parenthesis (the outermost for the
    # whole input): None while it awaits its left operand, (left, atom) once
    # it awaits the right one.
    frames: list[tuple[EvalTree, str] | None] = [None]
    index = 0
    while True:
        if index >= len(tokens):
            raise TreeParseError("unexpected end of input")
        kind, value, _ = tokens[index]
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


def export_dot(t: EvalTree) -> str:
    """DOT digraph: atoms as ellipses, leaves as boxes labeled T/F,
    true edges labeled "T", false edges labeled "F".  Nodes are numbered in
    pre-order, each branch's edges following both of its subtrees."""
    lines = ["digraph evaltree {"]
    counter = 0
    # A work item is (node, ids of its parent's children) to number and
    # print a node, or (node id, its children's ids) to print its edges.
    stack: list[tuple[EvalTree | int, list[int]]] = [(t, [])]
    while stack:
        item, ids = stack.pop()
        if isinstance(item, int):
            lines.append(f'  n{item} -> n{ids[0]} [label="T"];')
            lines.append(f'  n{item} -> n{ids[1]} [label="F"];')
            continue
        node_id = counter
        counter += 1
        ids.append(node_id)
        if isinstance(item, Leaf):
            label = "T" if item.value else "F"
            lines.append(f'  n{node_id} [shape=box, label="{label}"];')
        else:
            lines.append(f'  n{node_id} [shape=ellipse, label="{item.atom}"];')
            children: list[int] = []
            stack.append((node_id, children))
            stack.append((item.right, children))
            stack.append((item.left, children))
    lines.append("}")
    return "\n".join(lines)
