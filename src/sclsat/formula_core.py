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
boolean encoder's gates and the axiom instantiation are folds of the same
kind; the gates are defined by walks that share one set of entered nodes,
so each node is defined once.  The functions ``parse`` and ``render`` keep
explicit stacks of their own, because text is read and written top-down.
So do the two passes that run on every call of a decision procedure, which
cost about half a generator fold each: the boolean solver's atom and size
count (``sat_solvers._atoms_and_size``) and the direct solver's flag pass
(``sat_solvers._sat_fal_flags``), whose keys still come in this order.  ``parse``
splits its text with one token pattern and ``re.findall``; only on an error
does it run the same pattern again with positions, to say where.  Atom names follow one pattern,
``_ATOM``; ``ATOM_PATTERN``, the formula token pattern, the word-start
characters and the tree and path readers (``eval_tree.parse_tree``,
``paths.parse_path``) are all built from it.

Nodes are slotted classes, immutable by convention, whose ``==``, ``hash``,
``repr`` and pickling run on explicit stacks (see ``_Node``); ``eval_tree``'s
Leaf and Branch share the base.
"""

from __future__ import annotations

import re
from typing import Iterator, NoReturn, Optional, Union

_ATOM = r"[A-Za-z_][A-Za-z0-9_]*"
ATOM_PATTERN = re.compile(_ATOM + r"\Z")
RESERVED_WORDS = frozenset({"T", "F"})


def is_valid_atom(name: str) -> bool:
    return bool(ATOM_PATTERN.match(name)) and name not in RESERVED_WORDS


class _Node:
    """Base of the formula and evaluation-tree nodes.  A node's fields are
    its class's ``__slots__``, set by ``__init__``.  Nodes are immutable by
    convention: nothing assigns a field after construction.  (A raising
    ``__setattr__`` would double the cost of building a node, to about that
    of a frozen dataclass.)

    ``==``, ``hash`` and ``repr`` agree with a dataclass's but run on
    explicit stacks, so deep nodes need no recursion.  ``==`` compares nodes
    of the same class field by field, each pair of subnodes once; ``hash``
    is computed from the class and fields on first use and cached, so equal
    nodes hash equal; ``repr`` gives the dataclass text.  A pickle holds one
    flat table of the distinct nodes, so sharing survives it, and ``copy``
    and ``deepcopy`` return the node itself."""

    __slots__ = ("_hash",)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        compared: set[tuple[int, int]] = set()
        # Pairs of nodes still to compare, flattened: x1, y1, x2, y2, ...
        stack: list[_Node] = [self, other]
        while stack:
            y = stack.pop()
            x = stack.pop()
            for name in x.__slots__:
                a = getattr(x, name)
                b = getattr(y, name)
                if a is b:
                    continue
                if a.__class__ is b.__class__ and isinstance(a, _Node):
                    key = (id(a), id(b))
                    if key not in compared:
                        compared.add(key)
                        stack += (a, b)
                elif a != b:
                    return False
        return True

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            pass
        stack = [self]
        while stack:
            node = stack[-1]
            values = [getattr(node, name) for name in node.__slots__]
            pending = [v for v in values if isinstance(v, _Node) and not hasattr(v, "_hash")]
            if pending:
                stack += pending
                continue
            stack.pop()
            node._hash = hash((node.__class__, *(v._hash if isinstance(v, _Node) else v for v in values)))
        return self._hash

    def __repr__(self) -> str:
        parts: list[str] = []
        # Text still to emit and nodes still to expand, in reverse order.
        stack: list[_Node | str] = [self]
        while stack:
            item = stack.pop()
            if not isinstance(item, _Node):
                parts.append(item)
                continue
            parts.append(f"{item.__class__.__qualname__}(")
            stack.append(")")
            names = item.__slots__
            for i in range(len(names) - 1, -1, -1):
                value = getattr(item, names[i])
                stack.append(value if isinstance(value, _Node) else repr(value))
                stack.append(f"{', ' if i else ''}{names[i]}=")
        return "".join(parts)

    def __reduce__(self) -> tuple:
        # A flat table, so deep nodes pickle without recursion: each distinct
        # node once, children first, as its class followed by its fields,
        # every subnode replaced by its position among the nodes.  Rebuilt
        # from the fields alone: a cached hash of a string is only valid in
        # the process that computed it.
        index: dict[int, int] = {}
        table: list = []
        stack = [self]
        while stack:
            node = stack[-1]
            if id(node) in index:
                stack.pop()
                continue
            values = [getattr(node, name) for name in node.__slots__]
            pending = [v for v in values if isinstance(v, _Node) and id(v) not in index]
            if pending:
                stack += reversed(pending)
                continue
            stack.pop()
            index[id(node)] = len(index)
            table.append(node.__class__)
            table += [index[id(v)] if isinstance(v, _Node) else v for v in values]
        return _rebuild, (table,)

    # Immutable by convention, so a copy may be the node itself.
    def __copy__(self) -> "_Node":
        return self

    def __deepcopy__(self, memo: dict) -> "_Node":
        return self


def _rebuild(table: list) -> _Node:
    """The last node of a ``_Node.__reduce__`` table.  A field of plain class
    int is the position of a subnode; node fields hold only nodes, bools and
    strings."""
    nodes: list[_Node] = []
    i = 0
    while i < len(table):
        cls = table[i]
        end = i + 1 + len(cls.__slots__)
        nodes.append(cls(*[nodes[v] if v.__class__ is int else v for v in table[i + 1:end]]))
        i = end
    return nodes[-1]


class Const(_Node):
    __slots__ = ("value",)

    def __init__(self, value: bool) -> None:
        self.value = value


class Lit(_Node):
    __slots__ = ("atom",)

    def __init__(self, atom: str) -> None:
        if not is_valid_atom(atom):
            raise ValueError(f"invalid atom name: {atom!r}")
        self.atom = atom


class Neg(_Node):
    __slots__ = ("inner",)

    def __init__(self, inner: "Formula") -> None:
        self.inner = inner


class Con(_Node):
    __slots__ = ("left", "right")

    def __init__(self, left: "Formula", right: "Formula") -> None:
        self.left = left
        self.right = right


class Dis(_Node):
    __slots__ = ("left", "right")

    def __init__(self, left: "Formula", right: "Formula") -> None:
        self.left = left
        self.right = right


Formula = Union[Const, Lit, Neg, Con, Dis]

TRUE = Const(True)
FALSE = Const(False)


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# parse's tokens, blanks skipped: an operator, a parenthesis, a word, or one
# other character, which no rule of the grammar accepts.
_PARSE_TOKEN_RE = re.compile(rf"&&|\|\||[!()]|{_ATOM}|\S")
# The characters that start a word: the ASCII characters that _ATOM matches
# as a one-character word (atom names are ASCII).
_WORD_START = frozenset(filter(re.compile(_ATOM).match, map(chr, range(128))))


def _fail(text: str, index: int, message: str) -> NoReturn:
    """Raise the ParseError message at the position of text's token number
    index (the end of text when there is no such token), or, before that,
    the error for the first character that no rule of the grammar accepts:
    a one-character token that is neither an operator, a parenthesis nor
    the start of a word."""
    matches = list(_PARSE_TOKEN_RE.finditer(text))
    for match in matches:
        token = match[0]
        if len(token) == 1 and token not in "!()" and token not in _WORD_START:
            raise ParseError(f"unexpected character {token!r}", match.start())
    raise ParseError(message, matches[index].start() if index < len(matches) else len(text))


def parse(text: str) -> Formula:
    """Parse text by the grammar

        formula := dis
        dis     := con ('||' con)*
        con     := unary ('&&' unary)*
        unary   := '!' unary | '(' formula ')' | 'T' | 'F' | IDENT

    with '!' binding tighter than '&&', which binds tighter than '||';
    both binary operators associate to the left.

    One ``re.findall`` splits the text into token strings, without
    positions; an error re-runs the same pattern with positions to report
    where.
    Each atom occurrence gets its own Lit, built without re-checking the
    name the token pattern has matched.  Iterative: one group per open
    parenthesis (the outermost for the whole input) holds the disjunction
    and the conjunction built so far and the number of '!' before its '(',
    so nesting depth costs no recursion.
    """
    tokens = _PARSE_TOKEN_RE.findall(text)
    count = len(tokens)
    index = 0
    new = object.__new__
    # Each group is [disjunction so far, conjunction so far, negations
    # before its '(']; None means no operand yet.
    groups: list[list] = [[None, None, 0]]
    negations = 0
    while True:
        if index == count:
            _fail(text, index, "unexpected end of input")
        token = tokens[index]
        index += 1
        if token == "!":
            negations += 1
            continue
        if token == "(":
            groups.append([None, None, negations])
            negations = 0
            continue
        if token == "T":
            operand: Formula = TRUE
        elif token == "F":
            operand = FALSE
        elif token[0] in _WORD_START:
            operand = new(Lit)
            operand.atom = token
        else:
            _fail(text, index - 1, f"unexpected token {token!r}")
        # Fold the finished unary into its group; a closing parenthesis
        # finishes the group as a unary of the enclosing one.
        while True:
            while negations:
                operand = Neg(operand)
                negations -= 1
            group = groups[-1]
            group[1] = operand if group[1] is None else Con(group[1], operand)
            token = tokens[index] if index < count else None
            if token == "&&":
                index += 1
                break
            group[0] = group[1] if group[0] is None else Dis(group[0], group[1])
            group[1] = None
            if token == "||":
                index += 1
                break
            if len(groups) == 1:
                if token is not None:
                    _fail(text, index, f"unexpected trailing input {token!r}")
                return group[0]
            if token is None:
                _fail(text, index, "unexpected end of input, expected rpar")
            if token != ")":
                _fail(text, index, f"expected rpar, found {token!r}")
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
