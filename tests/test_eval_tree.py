import re

import pytest
from hypothesis import given, settings, strategies as st

from sclsat.eval_tree import (
    Branch,
    EvalTree,
    FALSE_LEAF,
    Leaf,
    LeafProfile,
    TRUE_LEAF,
    TreeParseError,
    depth,
    export_dot,
    fold_se,
    is_open,
    leaf_profile,
    parse_tree,
    render_tree,
    se,
    substitute,
    walk,
)
from sclsat.formula_core import (
    Con,
    Const,
    Dis,
    Lit,
    Neg,
    enumerate_formulas,
    is_constant_free,
    is_valid_atom,
    node_count,
    parse,
)
from sclsat.paths import PathEntry, enumerate_paths

from test_cli import run
from test_formula_core import _criterion_10_chain, formulas


def trees(atoms=("a", "b", "c"), max_leaves=8):
    leaf = st.sampled_from([TRUE_LEAF, FALSE_LEAF])
    return st.recursive(
        leaf,
        lambda sub: st.builds(
            Branch, sub, st.sampled_from(list(atoms)), sub
        ),
        max_leaves=max_leaves,
    )


def se_reference(f):
    """Naive recursive construction, used as the oracle for the iterative se."""
    if isinstance(f, Const):
        return Leaf(f.value)
    if isinstance(f, Lit):
        return Branch(TRUE_LEAF, f.atom, FALSE_LEAF)
    if isinstance(f, Neg):
        return substitute(se_reference(f.inner), FALSE_LEAF, TRUE_LEAF)
    if isinstance(f, Con):
        return substitute(se_reference(f.left), se_reference(f.right), FALSE_LEAF)
    return substitute(se_reference(f.left), TRUE_LEAF, se_reference(f.right))


# A verbatim copy of parse_tree's token pattern, so the reference below
# shares no tokenizer with the parser it checks.
_TREE_TOKEN_RE = re.compile(
    r"\s*(?:(?P<lpar>\()|(?P<rpar>\))|(?P<lt><)|(?P<gt>>)|(?P<word>[A-Za-z_][A-Za-z0-9_]*))"
)


def parse_tree_reference(text):
    """Recursive-descent inverse of render_tree, the oracle for parse_tree."""
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TREE_TOKEN_RE.match(text, pos)
        if match is None:
            if not text[pos:].strip():
                break
            raise TreeParseError(f"unexpected input at position {pos}")
        tokens.append((match.lastgroup, match.group(match.lastgroup)))
        pos = match.end()
    index = 0

    def operand():
        nonlocal index
        if index >= len(tokens):
            raise TreeParseError("unexpected end of input")
        kind, value = tokens[index]
        if kind == "lpar":
            index += 1
            inner = tree()
            if index >= len(tokens) or tokens[index][0] != "rpar":
                raise TreeParseError("expected ')'")
            index += 1
            return inner
        if kind == "word":
            index += 1
            if value in ("T", "F"):
                return TRUE_LEAF if value == "T" else FALSE_LEAF
            raise TreeParseError(f"expected leaf or '(', found atom {value!r}")
        raise TreeParseError(f"unexpected token {value!r}")

    def tree():
        nonlocal index
        left = operand()
        if index < len(tokens) and tokens[index][0] == "lt":
            index += 1
            if index >= len(tokens) or tokens[index][0] != "word" or not is_valid_atom(tokens[index][1]):
                raise TreeParseError("expected atom after '<'")
            atom = tokens[index][1]
            index += 1
            if index >= len(tokens) or tokens[index][0] != "gt":
                raise TreeParseError("expected '>'")
            index += 1
            return Branch(left, atom, operand())
        return left

    result = tree()
    if index != len(tokens):
        raise TreeParseError("unexpected trailing input")
    return result


def tree_parse_outcome(parser, text):
    try:
        return ("tree", parser(text))
    except TreeParseError as exc:
        return ("error", str(exc))


_TREE_TOKENS = ["T", "F", "a", "b", "<", ">", "(", ")", "@"]


def _or_chain(n):
    return " && ".join(f"(a{i} || b{i})" for i in range(n))


def _flat_chain(n):
    return " && ".join(f"x{i}" for i in range(n))


def _deep_chain():
    f = Lit("x0")
    for i in range(1, 20000):
        f = Con(Lit(f"x{i}"), f)
    return f


def _distinct_nodes(t):
    seen = set()
    stack = [t]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            if isinstance(node, Branch):
                stack.extend([node.left, node.right])
    return len(seen)


class TestSe:
    def test_examples(self):
        assert se(parse("T")) == TRUE_LEAF
        assert se(parse("F")) == FALSE_LEAF
        assert se(parse("a")) == Branch(TRUE_LEAF, "a", FALSE_LEAF)
        assert render_tree(se(parse("a && !b"))) == "(F < b > T) < a > F"

    def test_disjunction_with_true_collapses(self):
        assert se(parse("T || a")) == TRUE_LEAF

    def test_matches_reference_exhaustively(self):
        for f in enumerate_formulas(["a", "b"], 5):
            assert se(f) == se_reference(f)

    def test_deep_chain(self):
        f = Lit("x0")
        for i in range(1, 20000):
            f = Con(Lit(f"x{i}"), f)
        t = se(f)
        assert depth(t) == 20000
        assert leaf_profile(t).leaf_count == 20001

    def test_renders_match_reference_exhaustively(self):
        for f in enumerate_formulas(["a", "b"], 7):
            assert render_tree(se(f)) == render_tree(se_reference(f))

    @settings(max_examples=300)
    @given(formulas(max_leaves=8).filter(lambda f: node_count(f) <= 15))
    def test_matches_reference(self, f):
        assert se(f) == se_reference(f)

    @pytest.mark.parametrize("text", [_or_chain(20), _flat_chain(1200)], ids=["or_chain", "flat_chain"])
    def test_distinct_nodes_linear(self, text):
        f = parse(text)
        assert _distinct_nodes(se(f)) <= node_count(f) + 2

    @pytest.mark.parametrize("make", [lambda: parse(_flat_chain(1200)), _criterion_10_chain],
                             ids=["flat_chain", "chain_10000"])
    def test_deep_equality_and_hash(self, make):
        t, u = se(make()), se(make())
        assert t is not u
        assert t == u and hash(t) == hash(u)
        assert repr(t) == repr(u)
        assert t != substitute(u, FALSE_LEAF, TRUE_LEAF)

    def test_shared_equality_is_linear(self):
        # Each tree has 2^21 - 1 leaves over 42 distinct nodes; == compares
        # each pair of distinct nodes once.
        t, u = se(parse(_or_chain(20))), se(parse(_or_chain(20)))
        assert t == u and hash(t) == hash(u)
        assert t != se(parse(_or_chain(19) + " && (a19 || c)"))

    def test_shared_chain_profile(self):
        # (a0 || b0) && ... has 2^n true and 2^n - 1 false leaves.
        for n in (3, 10, 20):
            t = se(parse(_or_chain(n)))
            assert leaf_profile(t) == LeafProfile(True, True, 2 ** (n + 1) - 1)
            assert depth(t) == 2 * n


class TestFoldSe:
    def test_rejects_non_formula(self):
        with pytest.raises(TypeError, match="not a formula"):
            fold_se("a", TRUE_LEAF, FALSE_LEAF, lambda t, lit, e: t)
        with pytest.raises(TypeError, match="not a formula"):
            fold_se(Con(Lit("a"), 3), TRUE_LEAF, FALSE_LEAF, lambda t, lit, e: t)

    def test_none_is_a_value(self):
        # None continuations pass through like any other value.
        seen = []

        def branch(t, lit, e):
            seen.append((t, lit.atom, e))
            return lit.atom

        value, visits = fold_se(parse("!(a || b)"), None, "e", branch)
        assert value == "a"
        assert seen == [("e", "b", None), ("e", "a", "b")]
        assert visits == 4

    def test_visits_count_occurrences(self):
        shared = parse("a && !b")
        f = Dis(Con(shared, Neg(shared)), shared)
        assert fold_se(f, TRUE_LEAF, FALSE_LEAF, lambda t, lit, e: Branch(t, lit.atom, e))[1] == node_count(f) == 15


class TestSubstitute:
    @given(trees(), trees(max_leaves=3), trees(max_leaves=3))
    def test_leaf_profile_arithmetic(self, x, y, z):
        px, py, pz = leaf_profile(x), leaf_profile(y), leaf_profile(z)
        true_leaves = sum(1 for _ in _true_leaves(x))
        false_leaves = px.leaf_count - true_leaves
        combined = leaf_profile(substitute(x, y, z))
        assert combined.leaf_count == (
            true_leaves * py.leaf_count + false_leaves * pz.leaf_count
        )

    @given(trees(), trees(max_leaves=3), trees(max_leaves=3))
    def test_openness_propagation(self, x, y, z):
        if is_open(x) and (is_open(y) or is_open(z)):
            assert is_open(substitute(x, y, z))

    def test_identity(self):
        t = se(parse("(a || b) && c"))
        assert substitute(t, TRUE_LEAF, FALSE_LEAF) == t

    def test_keeps_sharing(self):
        t = se(parse(_or_chain(20)))
        flipped = substitute(t, FALSE_LEAF, TRUE_LEAF)
        assert _distinct_nodes(flipped) == _distinct_nodes(t)
        assert leaf_profile(flipped).leaf_count == leaf_profile(t).leaf_count


def _true_leaves(t):
    stack = [t]
    while stack:
        node = stack.pop()
        if isinstance(node, Leaf):
            if node.value:
                yield node
        else:
            stack.extend([node.left, node.right])


class TestOpenness:
    def test_constant_free_implies_open(self):
        for f in enumerate_formulas(["a", "b"], 5):
            if is_constant_free(f):
                assert is_open(se(f))

    def test_closed_trees(self):
        assert not is_open(se(parse("a || T")))
        profile = leaf_profile(se(parse("a || T")))
        assert profile.has_true and not profile.has_false


class TestTreeText:
    @given(trees())
    def test_round_trip(self, t):
        assert parse_tree(render_tree(t)) == t

    def test_parse_examples(self):
        assert parse_tree("T") == TRUE_LEAF
        assert parse_tree("(F < b > T) < a > F") == se(parse("a && !b"))

    def test_parse_errors(self):
        for bad in ["", "(T", "T < a", "T < T > F", "T F"]:
            with pytest.raises(TreeParseError):
                parse_tree(bad)

    def test_deep_chain(self):
        expected = "(" * 19999 + "T < x0 > F" + "".join(f") < x{i} > F" for i in range(1, 20000))
        assert render_tree(se(_deep_chain())) == expected

    @pytest.mark.parametrize("make", [lambda: parse(_flat_chain(1200)), _deep_chain], ids=["flat_chain", "deep_chain"])
    def test_deep_round_trip(self, make):
        # Compared as text, independently of the nodes' ==.
        text = render_tree(se(make()))
        assert render_tree(parse_tree(text)) == text

    @settings(max_examples=400)
    @given(st.lists(st.sampled_from(_TREE_TOKENS), max_size=12).map(" ".join))
    def test_parse_matches_reference(self, text):
        assert tree_parse_outcome(parse_tree, text) == tree_parse_outcome(parse_tree_reference, text)

    def test_cli_flat_chain(self, capsys):
        code, out, _ = run(capsys, "tree", _flat_chain(1200))
        assert code == 0
        assert out.startswith("((") and out.count(" < x") == 1200


class TestDot:
    def test_shapes_and_edges(self):
        dot = export_dot(se(parse("a")))
        assert dot.startswith("digraph")
        assert dot.count("shape=ellipse") == 1
        assert dot.count("shape=box") == 2
        assert '[label="T"];' in dot and '[label="F"];' in dot

    def test_preorder_numbering(self):
        assert export_dot(se(parse("a && !b"))).splitlines() == [
            "digraph evaltree {",
            '  n0 [shape=ellipse, label="a"];',
            '  n1 [shape=ellipse, label="b"];',
            '  n2 [shape=box, label="F"];',
            '  n3 [shape=box, label="T"];',
            '  n1 -> n2 [label="T"];',
            '  n1 -> n3 [label="F"];',
            '  n4 [shape=box, label="F"];',
            '  n0 -> n1 [label="T"];',
            '  n0 -> n4 [label="F"];',
            "}",
        ]

    def test_deep_chain(self):
        dot = export_dot(se(_deep_chain()))
        assert dot.count("shape=ellipse") == 20000
        assert dot.count("shape=box") == 20001


# --- one depth-first walk -----------------------------------------------------

# The explicit-stack loops render_tree, export_dot and enumerate_paths ran
# before they looped over walk, kept verbatim as oracles.

def render_tree_reference(t):
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


def export_dot_reference(t):
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


def enumerate_paths_reference(t):
    """All root-to-leaf traces of t with their leaf values, true branch first."""
    stack: list[tuple[EvalTree, tuple[PathEntry, ...]]] = [(t, ())]
    while stack:
        node, prefix = stack.pop()
        if isinstance(node, Leaf):
            yield prefix, node.value
        else:
            stack.append((node.right, prefix + ((node.atom, False),)))
            stack.append((node.left, prefix + ((node.atom, True),)))


def assert_walkers_match_references(t, paths=True):
    assert render_tree(t) == render_tree_reference(t)
    assert export_dot(t) == export_dot_reference(t)
    if paths:
        assert list(enumerate_paths(t)) == list(enumerate_paths_reference(t))


class TestWalk:
    def test_events_on_example(self):
        t = se(parse("a && !b"))
        b = t.left
        assert t == Branch(Branch(FALSE_LEAF, "b", TRUE_LEAF), "a", FALSE_LEAF)
        expected = [(t, 0), (b, 0), (b.left, 0), (b, 1), (b.right, 0), (b, 2),
                    (t, 1), (t.right, 0), (t, 2)]
        events = list(walk(t))
        assert [step for _, step in events] == [step for _, step in expected]
        assert all(node is want for (node, _), (want, _) in zip(events, expected))

    def test_shared_subtree_walked_at_each_occurrence(self):
        shared = Branch(TRUE_LEAF, "b", FALSE_LEAF)
        t = Branch(shared, "a", shared)
        occurrence = [(shared, 0), (TRUE_LEAF, 0), (shared, 1), (FALSE_LEAF, 0), (shared, 2)]
        expected = [(t, 0), *occurrence, (t, 1), *occurrence, (t, 2)]
        events = list(walk(t))
        assert [step for _, step in events] == [step for _, step in expected]
        assert all(node is want for (node, _), (want, _) in zip(events, expected))

    def test_leaf(self):
        assert list(walk(FALSE_LEAF)) == [(FALSE_LEAF, 0)]

    def test_walkers_match_references_exhaustively(self):
        for f in enumerate_formulas(["a", "b"], 6):
            assert_walkers_match_references(se(f))

    @settings(max_examples=300)
    @given(formulas(max_leaves=10).filter(lambda f: node_count(f) <= 20))
    def test_walkers_match_references(self, f):
        assert_walkers_match_references(se(f))

    def test_shared_chain(self):
        assert_walkers_match_references(se(parse(_or_chain(12))))

    def test_flat_chain(self):
        assert_walkers_match_references(se(parse(_flat_chain(1200))))

    def test_deep_chain(self):
        # The path oracle keeps every pending right leaf with its own prefix,
        # about 2 * 10^8 entries here, so the paths are checked against their
        # closed form: all true down to x0, then each F leaf bottom up.
        t = se(_deep_chain())
        assert_walkers_match_references(t, paths=False)
        traces = enumerate_paths(t)
        first = next(traces)
        assert first == (tuple((f"x{i}", True) for i in reversed(range(20000))), True)
        count = 1
        for j, trace in enumerate(traces, 1):
            # Sliced from the first trace, whose entries the later ones share,
            # so most entries compare by identity.
            assert trace == (first[0][:20000 - j] + ((f"x{j - 1}", False),), False)
            count += 1
        assert count == 20001

    def test_deep_chain_paths_match_reference(self):
        # A 2,000-deep chain keeps the oracle's pending prefixes small.
        f = Lit("x0")
        for i in range(1, 2000):
            f = Con(Lit(f"x{i}"), f)
        t = se(f)
        assert list(enumerate_paths(t)) == list(enumerate_paths_reference(t))
