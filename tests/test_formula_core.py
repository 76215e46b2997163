import re
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

from sclsat.formula_core import (
    _ATOM,
    Con,
    Const,
    Dis,
    FALSE,
    Lit,
    Neg,
    ParseError,
    TRUE,
    atom_occurrences,
    atoms_of,
    complexity,
    enumerate_formulas,
    expand_abbreviations,
    is_constant_free,
    is_valid_atom,
    node_count,
    parse,
    postorder,
    render,
)
from sclsat.eval_tree import FALSE_LEAF, TRUE_LEAF, Branch, TreeParseError, parse_tree, se
from sclsat.normal_form import normalize
from sclsat.paths import PathParseError, parse_path


def formulas(atoms=("a", "b", "c"), max_leaves=8, pinned=False):
    """Random formulas over atoms and both constants.  With pinned, a leaf
    may also be a && F, a || T or !(a || T) for an atom a: subformulas with
    atoms that FSCL cannot satisfy or cannot falsify, which plain draws
    seldom build."""
    lits = st.sampled_from([Lit(a) for a in atoms])
    leaves = [st.just(TRUE), st.just(FALSE), lits]
    if pinned:
        leaves += [
            st.builds(lambda a: Con(a, FALSE), lits),
            st.builds(lambda a: Dis(a, TRUE), lits),
            st.builds(lambda a: Neg(Dis(a, TRUE)), lits),
        ]
    return st.recursive(
        st.one_of(*leaves),
        lambda sub: st.one_of(
            st.builds(Neg, sub),
            st.builds(Con, sub, sub),
            st.builds(Dis, sub, sub),
        ),
        max_leaves=max_leaves,
    )


class TestParse:
    def test_basic(self):
        assert parse("a && !b") == Con(Lit("a"), Neg(Lit("b")))

    def test_constants(self):
        assert parse("T") is TRUE
        assert parse("F") is FALSE

    def test_precedence(self):
        # ! > && > ||
        assert parse("a || b && c") == Dis(Lit("a"), Con(Lit("b"), Lit("c")))
        assert parse("!a && b") == Con(Neg(Lit("a")), Lit("b"))

    def test_left_associativity(self):
        assert parse("a && b && c") == Con(Con(Lit("a"), Lit("b")), Lit("c"))
        assert parse("a || b || c") == Dis(Dis(Lit("a"), Lit("b")), Lit("c"))

    def test_parens(self):
        assert parse("a && (b || c)") == Con(Lit("a"), Dis(Lit("b"), Lit("c")))

    def test_errors_carry_position(self):
        with pytest.raises(ParseError) as exc:
            parse("a &&")
        assert exc.value.position == 4
        with pytest.raises(ParseError):
            parse("a b")
        with pytest.raises(ParseError):
            parse("(a")
        with pytest.raises(ParseError):
            parse("a @ b")

    def test_reserved_words_are_not_atoms(self):
        assert not is_valid_atom("T")
        assert not is_valid_atom("F")
        assert is_valid_atom("Tx")
        with pytest.raises(ValueError):
            Lit("T")

    @given(formulas())
    def test_render_parse_round_trip(self, f):
        assert parse(render(f)) == f


class TestComplexity:
    def test_base_cases(self):
        assert complexity(TRUE) == 0
        assert complexity(Lit("a")) == 0

    def test_negation_and_conjunction(self):
        assert complexity(parse("!a")) == 1
        assert complexity(parse("a && b")) == 1
        assert complexity(parse("!(a && b)")) == 2

    def test_abbreviations_expand_first(self):
        # F becomes !T, so its complexity is 1.
        assert complexity(FALSE) == 1
        # x || y becomes !(!x && !y): 1 + (1 + (1 + max)) over the negated operands.
        assert complexity(parse("a || b")) == 3

    @given(formulas())
    def test_matches_reference_recursion(self, f):
        def ref(g):
            if isinstance(g, (Const, Lit)):
                return 0
            if isinstance(g, Neg):
                return 1 + ref(g.inner)
            return 1 + max(ref(g.left), ref(g.right))

        assert complexity(f) == ref(expand_abbreviations(f))

    @given(formulas())
    def test_expansion_removes_abbreviations(self, f):
        def clean(g):
            if isinstance(g, Const):
                return g.value
            if isinstance(g, Lit):
                return True
            if isinstance(g, Neg):
                return clean(g.inner)
            return not isinstance(g, Dis) and clean(g.left) and clean(g.right)

        assert clean(expand_abbreviations(f))


def _expected_counts(alphabet_size, max_nodes):
    # independent recurrence: one node is a constant or atom; n nodes are a
    # negation of n-1 or a binary split of n-1 remaining nodes
    counts = [0, alphabet_size + 2]
    for n in range(2, max_nodes + 1):
        total = counts[n - 1]
        for i in range(1, n - 1):
            total += 2 * counts[i] * counts[n - 1 - i]
        counts.append(total)
    return counts[1:]


class TestEnumeration:
    def test_counts_match_recurrence(self):
        got = list(enumerate_formulas(["a", "b"], 5))
        assert len(got) == sum(_expected_counts(2, 5))
        assert len(got) == 852

    def test_single_atom_counts(self):
        got = list(enumerate_formulas(["a"], 6))
        assert len(got) == sum(_expected_counts(1, 6))

    def test_no_duplicates_and_sizes_ascend(self):
        got = list(enumerate_formulas(["a", "b"], 5))
        assert len(set(got)) == len(got)
        sizes = [node_count(f) for f in got]
        assert sizes == sorted(sizes)
        assert max(sizes) == 5

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            list(enumerate_formulas([], 3))
        with pytest.raises(ValueError):
            list(enumerate_formulas(["a"], 0))


class TestStructuralHelpers:
    def test_atoms_and_occurrences(self):
        f = parse("(a || b) && !a")
        assert atoms_of(f) == {"a", "b"}
        assert atom_occurrences(f) == 3
        assert node_count(f) == 6

    def test_constant_free(self):
        assert is_constant_free(parse("a && !b"))
        assert not is_constant_free(parse("a && T"))

    def test_deep_chain_is_iterative(self):
        f = Lit("x0")
        for i in range(1, 30000):
            f = Con(Lit(f"x{i}"), f)
        assert node_count(f) == 59999
        assert atom_occurrences(f) == 30000


NOT_FORMULAS = [42, Con(Lit("a"), 42)]


@pytest.mark.parametrize("node", NOT_FORMULAS, ids=["int", "int_operand"])
@pytest.mark.parametrize(
    "function",
    [node_count, atom_occurrences, atoms_of, is_constant_free, complexity,
     expand_abbreviations, render, se, normalize],
    ids=lambda function: function.__name__,
)
def test_non_formula_raises_type_error(function, node):
    with pytest.raises(TypeError, match="not a formula: 42"):
        function(node)


# --- oracles: the recursive and hand-stacked walkers and the recursive-descent
# parser that the folds over postorder and the iterative parser replaced ---

def render_reference(f, parent_prec=0):
    if isinstance(f, Const):
        return "T" if f.value else "F"
    if isinstance(f, Lit):
        return f.atom
    if isinstance(f, Neg):
        return "!" + render_reference(f.inner, 3)
    if isinstance(f, Con):
        text = render_reference(f.left, 2) + " && " + render_reference(f.right, 3)
        return f"({text})" if parent_prec > 2 else text
    text = render_reference(f.left, 1) + " || " + render_reference(f.right, 2)
    return f"({text})" if parent_prec > 1 else text


def expand_reference(f):
    if isinstance(f, Const):
        return f if f.value else Neg(TRUE)
    if isinstance(f, Lit):
        return f
    if isinstance(f, Neg):
        return Neg(expand_reference(f.inner))
    if isinstance(f, Con):
        return Con(expand_reference(f.left), expand_reference(f.right))
    return Neg(Con(Neg(expand_reference(f.left)), Neg(expand_reference(f.right))))


def complexity_reference(f):
    def cx(g):
        if isinstance(g, (Const, Lit)):
            return 0
        if isinstance(g, Neg):
            return 1 + cx(g.inner)
        return 1 + max(cx(g.left), cx(g.right))

    return cx(expand_reference(f))


def constant_free_reference(f):
    if isinstance(f, Const):
        return False
    if isinstance(f, Lit):
        return True
    if isinstance(f, Neg):
        return constant_free_reference(f.inner)
    return constant_free_reference(f.left) and constant_free_reference(f.right)


def nodes_reference(f):
    """Every node occurrence, pre-order, with an explicit stack."""
    stack = [f]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, Neg):
            stack.append(node.inner)
        elif isinstance(node, (Con, Dis)):
            stack.append(node.left)
            stack.append(node.right)


# The position-keeping tokenizer that parse used before it read its tokens
# with one re.findall, kept as the reference parser's own.
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<and>&&)|(?P<or>\|\|)|(?P<not>!)|(?P<lpar>\()|(?P<rpar>\))"
    rf"|(?P<word>{_ATOM}))"
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


class ParserReference:
    """Recursive-descent parser for the same grammar."""

    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0

    def _peek(self):
        return self.tokens[self.index] if self.index < len(self.tokens) else None

    def _advance(self):
        self.index += 1
        return self.tokens[self.index - 1]

    def _expect(self, kind):
        token = self._peek()
        if token is None:
            raise ParseError(f"unexpected end of input, expected {kind}", len(self.text))
        if token[0] != kind:
            raise ParseError(f"expected {kind}, found {token[1]!r}", token[2])
        return self._advance()

    def parse(self):
        formula = self._dis()
        token = self._peek()
        if token is not None:
            raise ParseError(f"unexpected trailing input {token[1]!r}", token[2])
        return formula

    def _dis(self):
        left = self._con()
        while (token := self._peek()) is not None and token[0] == "or":
            self._advance()
            left = Dis(left, self._con())
        return left

    def _con(self):
        left = self._unary()
        while (token := self._peek()) is not None and token[0] == "and":
            self._advance()
            left = Con(left, self._unary())
        return left

    def _unary(self):
        token = self._peek()
        if token is None:
            raise ParseError("unexpected end of input", len(self.text))
        kind, value, pos = token
        if kind == "not":
            self._advance()
            return Neg(self._unary())
        if kind == "lpar":
            self._advance()
            inner = self._dis()
            self._expect("rpar")
            return inner
        if kind == "word":
            self._advance()
            return TRUE if value == "T" else FALSE if value == "F" else Lit(value)
        raise ParseError(f"unexpected token {value!r}", pos)


def parse_outcome(parser, text):
    try:
        return ("tree", parser(text))
    except ParseError as exc:
        return ("error", str(exc), exc.position)


def same_formula(f, g):
    """Structural equality with an explicit stack, independent of the nodes' ==."""
    stack = [(f, g)]
    while stack:
        x, y = stack.pop()
        if type(x) is not type(y):
            return False
        if isinstance(x, Const):
            if x.value != y.value:
                return False
        elif isinstance(x, Lit):
            if x.atom != y.atom:
                return False
        elif isinstance(x, Neg):
            stack.append((x.inner, y.inner))
        else:
            stack.append((x.left, y.left))
            stack.append((x.right, y.right))
    return True


SUITE = list(enumerate_formulas(["a", "b"], 7))


class TestWalkersMatchReferences:
    def test_exhaustive_suite(self):
        assert len(SUITE) == 22140
        for f in SUITE:
            assert render(f) == render_reference(f)
            assert expand_abbreviations(f) == expand_reference(f)
            assert complexity(f) == complexity_reference(f)
            assert is_constant_free(f) == constant_free_reference(f)
            occurrences = list(nodes_reference(f))
            assert node_count(f) == len(occurrences)
            lits = [node.atom for node in occurrences if isinstance(node, Lit)]
            assert atom_occurrences(f) == len(lits)
            assert atoms_of(f) == set(lits)

    def test_postorder_visits_distinct_nodes_children_first(self):
        shared = parse("a && !b")
        f = Dis(Con(shared, Neg(shared)), shared)
        order = list(postorder(f))
        assert len(order) == len({id(node) for node in order}) == 7
        position = {id(node): i for i, node in enumerate(order)}
        for node in order:
            children = [node.inner] if isinstance(node, Neg) else (
                [node.left, node.right] if isinstance(node, (Con, Dis)) else [])
            assert all(position[id(child)] < position[id(node)] for child in children)
        assert order[-1] is f
        assert [render(node) for node in order[:4]] == ["a", "b", "!b", "a && !b"]
        # Shared subterms count once per occurrence.
        assert node_count(f) == 15
        assert atom_occurrences(f) == 6

    def test_postorder_walks_sharing_entered_skip_visited_nodes(self):
        shared = parse("a && !b")
        f = Dis(Con(shared, Neg(shared)), shared)
        entered = set()
        first = list(postorder(shared, entered))
        second = list(postorder(f, entered))
        assert first == list(postorder(shared))
        assert [id(node) for node in first + second] == [id(node) for node in postorder(f)]
        assert entered == {id(node) for node in first + second}
        assert list(postorder(f, entered)) == []


_TOKENS = ["a", "b", "T", "F", "!", "&&", "||", "(", ")", " ", "@", "ab_1"]


class TestParserMatchesReference:
    @settings(max_examples=400)
    @given(st.lists(st.sampled_from(_TOKENS), max_size=14).map(" ".join))
    def test_random_token_strings(self, text):
        assert parse_outcome(parse, text) == parse_outcome(lambda t: ParserReference(t).parse(), text)

    @settings(max_examples=200)
    @given(formulas(max_leaves=12))
    def test_rendered_formulas(self, f):
        text = render(f)
        assert parse(text) == ParserReference(text).parse() == f

    @pytest.mark.parametrize("text", ["", "a &&", "(a", "(a b", "a)", "!", "(a || b", "a && (b || c)) || d", "&& a", "!(!a"])
    def test_malformed(self, text):
        assert parse_outcome(parse, text)[0] == "error"
        assert parse_outcome(parse, text) == parse_outcome(lambda t: ParserReference(t).parse(), text)


# Blanks that \s matches beyond the space, lone halves of the operators, and
# words that are not atoms or are next to one.
_EDGE_TOKENS = _TOKENS + ["\t", "\n", "\u00a0", "\x1c", "&", "|", "1a", "\u00e9", "a1"]


class TestParserEdgeCases:
    @settings(max_examples=600)
    @given(st.lists(st.sampled_from(_EDGE_TOKENS), max_size=14).map("".join))
    def test_wider_token_alphabet(self, text):
        assert parse_outcome(parse, text) == parse_outcome(lambda t: ParserReference(t).parse(), text)

    @pytest.mark.parametrize("text", ["a & b", "a | b", "a &&& b", "1a", "a\u00a0&&\x1cb", "(a\t||\n\u00e9)", "a b @"])
    def test_examples(self, text):
        assert parse_outcome(parse, text) == parse_outcome(lambda t: ParserReference(t).parse(), text)

    def test_each_atom_occurrence_is_its_own_lit(self):
        f = parse("a && a")
        assert f.left == f.right == Lit("a")
        assert f.left is not f.right

    @pytest.mark.parametrize("name", ["T", "1a", "\u00e9"])
    def test_public_lit_validates(self, name):
        with pytest.raises(ValueError):
            Lit(name)


def _reads_atom(read, text, expected, error):
    try:
        return read(text) == expected
    except error:
        return False


@pytest.mark.parametrize("name", ["a", "_", "a1", "a_b", "Tx", "T", "F", "1a", "\u00e9", "a-b", "x "])
def test_text_readers_share_one_atom_grammar(name):
    # Formulas, trees and paths each read name as one atom exactly when it
    # is a valid atom name.
    valid = is_valid_atom(name)
    assert _reads_atom(parse, name, Lit(name) if valid else None, ParseError) == valid
    tree = Branch(TRUE_LEAF, name, FALSE_LEAF)
    assert _reads_atom(parse_tree, f"T < {name} > F", tree, TreeParseError) == valid
    assert _reads_atom(parse_path, f"[({name},T)]", ((name, True),), PathParseError) == valid


def _criterion_10_chain():
    f = Lit("x0")
    for i in range(1, 5000):
        f = Con(Lit(f"x{i}"), f)
    return Neg(f)


class TestDeepInputs:
    """Every public walker on inputs far deeper than the recursion limit."""

    @pytest.mark.parametrize(
        "make, nodes, occurrences, atoms, cx",
        [
            (_criterion_10_chain, 10000, 5000, 5000, 5000),
            (lambda: parse("!" * 3000 + "a"), 3001, 1, 1, 3000),
            (lambda: parse("(" * 3000 + "a" + ")" * 3000), 1, 1, 1, 0),
        ],
        ids=["chain_10000", "negations_3000", "parentheses_3000"],
    )
    def test_walkers(self, make, nodes, occurrences, atoms, cx):
        f = make()
        assert node_count(f) == nodes
        assert sum(1 for _ in postorder(f)) == nodes
        assert atom_occurrences(f) == occurrences
        assert len(atoms_of(f)) == atoms
        assert complexity(f) == cx
        assert is_constant_free(f)
        assert same_formula(expand_abbreviations(f), f)
        assert same_formula(parse(render(f)), f)

    @pytest.mark.parametrize(
        "make",
        [_criterion_10_chain, lambda: parse(" && ".join(f"x{i}" for i in range(1200)))],
        ids=["chain_10000", "flat_chain_1200"],
    )
    def test_equality_hash_and_repr(self, make):
        f, g = make(), make()
        assert f == g and hash(f) == hash(g)
        assert f == parse(render(f)) and hash(f) == hash(parse(render(f)))
        assert f != parse(render(f) + " && z")
        assert repr(f) == repr(g) and repr(f).count("Lit(atom=") == atom_occurrences(f)

    def test_deep_abbreviations(self):
        f = parse("!" * 3000 + "(a || F)")
        assert complexity(f) == 3000 + 3 + 1
        expanded = expand_abbreviations(f)
        assert not any(isinstance(node, Dis) for node in postorder(expanded))
        assert render(expanded).endswith("!(!a && !!T)")
