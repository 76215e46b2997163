"""Formula abstract syntax, text grammar, complexity measure, and abbreviation
expansion for short-circuit logic.

Formulas are built from the constants T and F, named atoms, negation,
left-sequential conjunction (&&) and left-sequential disjunction (||).
F and || are first-class constructors; ``expand_abbreviations`` rewrites them
to the two-constructor core (F = !T, x || y = !(!x && !y)).

Every walk over a formula is a fold over ``postorder(f)``, which yields each
distinct node once, keyed by identity, children before their parent and the
left operand first; it raises TypeError on a node that is not a formula.  A
fold keeps one value per node in a dict keyed by ``id(node)``, so shared
subterms are computed once and deep formulas need no recursion.  The
solvers' flag pass, the boolean encoder's atom numbering and gates, and the
axiom instantiation are folds of the same kind; the gates are defined by
walks that share one set of entered nodes, so each node is defined once.
The functions ``parse`` and ``render`` keep explicit stacks of their own,
because text is read and written top-down; ``_scan`` splits the text.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, Optional, Union

ATOM_PATTERN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
RESERVED_WORDS = frozenset({"T", "F"})


def is_valid_atom(name: str) -> bool:
    return bool(ATOM_PATTERN.match(name)) and name not in RESERVED_WORDS


@dataclass(frozen=True)
class Const:
    value: bool


@dataclass(frozen=True)
class Lit:
    atom: str

    def __post_init__(self) -> None:
        if not is_valid_atom(self.atom):
            raise ValueError(f"invalid atom name: {self.atom!r}")


@dataclass(frozen=True)
class Neg:
    inner: "Formula"


@dataclass(frozen=True)
class Con:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Dis:
    left: "Formula"
    right: "Formula"


Formula = Union[Const, Lit, Neg, Con, Dis]

TRUE = Const(True)
FALSE = Const(False)


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<and>&&)|(?P<or>\|\|)|(?P<not>!)|(?P<lpar>\()|(?P<rpar>\))"
    r"|(?P<word>[A-Za-z_][A-Za-z0-9_]*))"
)


def _scan(pattern: re.Pattern[str], text: str) -> tuple[list[tuple[str, str, int]], Optional[int]]:
    """The (group name, text, position) tokens pattern matches one after
    another from the start of text, and the position where matching stopped
    with non-whitespace text left (None if none was left)."""
    tokens = []
    pos = 0
    while pos < len(text):
        match = pattern.match(text, pos)
        if match is None:
            return tokens, pos if text[pos:].strip() else None
        kind = match.lastgroup
        tokens.append((kind, match.group(kind), match.start(kind)))
        pos = match.end()
    return tokens, None


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens, stop = _scan(_TOKEN_RE, text)
    if stop is not None:
        rest = text[stop:].lstrip()
        raise ParseError(f"unexpected character {rest[0]!r}", len(text) - len(rest))
    return tokens


def parse(text: str) -> Formula:
    """Parse text by the grammar

        formula := dis
        dis     := con ('||' con)*
        con     := unary ('&&' unary)*
        unary   := '!' unary | '(' formula ')' | 'T' | 'F' | IDENT

    with '!' binding tighter than '&&', which binds tighter than '||';
    both binary operators associate to the left.

    Iterative: one group per open parenthesis (the outermost for the whole
    input) holds the disjunction and the conjunction built so far and the
    number of '!' before its '(', so nesting depth costs no recursion.
    """
    tokens = _tokenize(text)
    count = len(tokens)
    index = 0
    # Each group is [disjunction so far, conjunction so far, negations
    # before its '(']; None means no operand yet.
    groups: list[list] = [[None, None, 0]]
    negations = 0
    while True:
        if index == count:
            raise ParseError("unexpected end of input", len(text))
        kind, value, pos = tokens[index]
        index += 1
        if kind == "not":
            negations += 1
            continue
        if kind == "lpar":
            groups.append([None, None, negations])
            negations = 0
            continue
        if kind != "word":
            raise ParseError(f"unexpected token {value!r}", pos)
        operand: Formula = TRUE if value == "T" else FALSE if value == "F" else Lit(value)
        # Fold the finished unary into its group; a closing parenthesis
        # finishes the group as a unary of the enclosing one.
        while True:
            for _ in range(negations):
                operand = Neg(operand)
            group = groups[-1]
            group[1] = operand if group[1] is None else Con(group[1], operand)
            token = tokens[index] if index < count else None
            if token is not None and token[0] == "and":
                index += 1
                negations = 0
                break
            group[0] = group[1] if group[0] is None else Dis(group[0], group[1])
            group[1] = None
            if token is not None and token[0] == "or":
                index += 1
                negations = 0
                break
            if len(groups) == 1:
                if token is not None:
                    raise ParseError(f"unexpected trailing input {token[1]!r}", token[2])
                return group[0]
            if token is None:
                raise ParseError("unexpected end of input, expected rpar", len(text))
            if token[0] != "rpar":
                raise ParseError(f"expected rpar, found {token[1]!r}", token[2])
            index += 1
            groups.pop()
            operand, negations = group[0], group[2]


def postorder(f: Formula, entered: Optional[set[int]] = None) -> Iterator[Formula]:
    """Each distinct node of f once, keyed by identity: children before their
    parent, the left operand before the right.  An explicit stack copes with
    deep formulas, and a subterm shared by several parents is visited once.
    entered holds the ids of nodes already visited, and gains each node
    visited; walks that share it, each run to its end, visit a node once
    between them.  Raises TypeError on a node that is not a formula."""
    if entered is None:
        entered = set()
    # (node, True) once the node's children have been pushed.
    stack: list[tuple[Formula, bool]] = [(f, False)]
    while stack:
        node, children_pushed = stack.pop()
        if children_pushed:
            yield node
        elif id(node) not in entered:
            entered.add(id(node))
            if isinstance(node, (Const, Lit)):
                yield node
            elif isinstance(node, Neg):
                stack.append((node, True))
                stack.append((node.inner, False))
            elif isinstance(node, (Con, Dis)):
                stack.append((node, True))
                stack.append((node.right, False))
                stack.append((node.left, False))
            else:
                raise TypeError(f"not a formula: {node!r}")


# Precedence levels used for minimal parenthesisation.
_PREC_DIS = 1
_PREC_CON = 2
_PREC_UNARY = 3


def render(f: Formula) -> str:
    """Infix text with the fewest parentheses that parse back to f."""
    # The stack holds text still to emit and (subformula, precedence of its
    # context) pairs still to expand, in reverse order.
    parts: list[str] = []
    stack: list[tuple[Formula, int] | str] = [(f, 0)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
            continue
        node, parent_prec = item
        if isinstance(node, Const):
            parts.append("T" if node.value else "F")
        elif isinstance(node, Lit):
            parts.append(node.atom)
        elif isinstance(node, Neg):
            parts.append("!")
            stack.append((node.inner, _PREC_UNARY))
        elif isinstance(node, (Con, Dis)):
            prec, operator = (_PREC_CON, " && ") if isinstance(node, Con) else (_PREC_DIS, " || ")
            if parent_prec > prec:
                parts.append("(")
                stack.append(")")
            stack.append((node.right, prec + 1))
            stack.append(operator)
            stack.append((node.left, prec))
        else:
            raise TypeError(f"not a formula: {node!r}")
    return "".join(parts)


def expand_abbreviations(f: Formula) -> Formula:
    """Rewrite F to !T and x || y to !(!x && !y), throughout f."""
    out: dict[int, Formula] = {}
    for node in postorder(f):
        if isinstance(node, Const):
            new = node if node.value else Neg(TRUE)
        elif isinstance(node, Lit):
            new = node
        elif isinstance(node, Neg):
            new = Neg(out[id(node.inner)])
        elif isinstance(node, Con):
            new = Con(out[id(node.left)], out[id(node.right)])
        else:
            new = Neg(Con(Neg(out[id(node.left)]), Neg(out[id(node.right)])))
        out[id(node)] = new
    return out[id(f)]


def complexity(f: Formula) -> int:
    """cx(T) = cx(a) = 0, cx(!x) = 1 + cx(x), cx(x && y) = 1 + max(cx(x), cx(y)),
    computed on the abbreviation-free form of f: there cx(F) = cx(!T) = 1 and
    cx(x || y) = cx(!(!x && !y)) = 3 + max(cx(x), cx(y))."""
    cx: dict[int, int] = {}
    for node in postorder(f):
        if isinstance(node, Const):
            value = 0 if node.value else 1
        elif isinstance(node, Lit):
            value = 0
        elif isinstance(node, Neg):
            value = 1 + cx[id(node.inner)]
        elif isinstance(node, Con):
            value = 1 + max(cx[id(node.left)], cx[id(node.right)])
        else:
            value = 3 + max(cx[id(node.left)], cx[id(node.right)])
        cx[id(node)] = value
    return cx[id(f)]


def is_constant_free(f: Formula) -> bool:
    return not any(isinstance(node, Const) for node in postorder(f))


def _count(f: Formula, kinds: tuple[type, ...]) -> int:
    """Occurrences of nodes of the given kinds.  Summed over children, so a
    subterm shared by several parents counts once per occurrence."""
    counts: dict[int, int] = {}
    for node in postorder(f):
        count = 1 if isinstance(node, kinds) else 0
        if isinstance(node, Neg):
            count += counts[id(node.inner)]
        elif isinstance(node, (Con, Dis)):
            count += counts[id(node.left)] + counts[id(node.right)]
        counts[id(node)] = count
    return counts[id(f)]


def node_count(f: Formula) -> int:
    return _count(f, (Const, Lit, Neg, Con, Dis))


def atoms_of(f: Formula) -> set[str]:
    return {node.atom for node in postorder(f) if isinstance(node, Lit)}


def atom_occurrences(f: Formula) -> int:
    return _count(f, (Lit,))


def enumerate_formulas(alphabet: list[str], max_nodes: int) -> Iterator[Formula]:
    """Yield every formula over the alphabet with at most max_nodes AST nodes,
    exactly once, smallest first, in a fixed deterministic order."""
    if not alphabet:
        raise ValueError("alphabet must be non-empty")
    if max_nodes < 1:
        raise ValueError("max_nodes must be positive")
    by_size: list[list[Formula]] = [[]]
    by_size.append([TRUE, FALSE] + [Lit(a) for a in alphabet])
    for size in range(2, max_nodes + 1):
        bucket: list[Formula] = [Neg(f) for f in by_size[size - 1]]
        for connective in (Con, Dis):
            for left_size in range(1, size - 1):
                for left in by_size[left_size]:
                    for right in by_size[size - 1 - left_size]:
                        bucket.append(connective(left, right))
        by_size.append(bucket)
    for size in range(1, max_nodes + 1):
        yield from by_size[size]
