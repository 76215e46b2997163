"""The slotted formula and tree nodes against the frozen dataclasses they
replaced, kept here as the oracle: the same repr text, the same ==, and equal
nodes hash equal."""

import copy
import pickle
import random
from dataclasses import dataclass, fields
from typing import Union

import pytest

from sclsat import eval_tree, formula_core

from test_formula_core import _criterion_10_chain


@dataclass(frozen=True)
class Const:
    value: bool


@dataclass(frozen=True)
class Lit:
    atom: str


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


@dataclass(frozen=True)
class Leaf:
    value: bool


@dataclass(frozen=True)
class Branch:
    left: "EvalTree"
    atom: str
    right: "EvalTree"


Formula = Union[Const, Lit, Neg, Con, Dis]
EvalTree = Union[Leaf, Branch]


def to_oracle(node):
    """The dataclass copy of a formula or tree, read field by field."""
    cls = globals()[type(node).__name__]
    values = (getattr(node, field.name) for field in fields(cls))
    return cls(*(to_oracle(v) if isinstance(v, formula_core._Node) else v for v in values))


# Two separate builds, so equal nodes are mostly distinct objects.
SUITE = list(formula_core.enumerate_formulas(["a", "b"], 7))
REBUILT = list(formula_core.enumerate_formulas(["a", "b"], 7))
PAIRS = random.Random(0).choices(range(len(SUITE)), k=2 * 20000)


def assert_agrees_on_pairs(xs, ys):
    oracle_xs, oracle_ys = [to_oracle(x) for x in xs], [to_oracle(y) for y in ys]
    pairs = list(zip(PAIRS[::2], PAIRS[1::2])) + [(i, i) for i in range(len(xs))]
    equal_pairs = 0
    for i, j in pairs:
        equal = xs[i] == ys[j]
        assert equal == (oracle_xs[i] == oracle_ys[j])
        assert (xs[i] != ys[j]) is not equal
        if equal:
            assert hash(xs[i]) == hash(ys[j])
            equal_pairs += 1
    return equal_pairs


def test_suite_size():
    assert len(SUITE) == 22140


def test_formula_repr_matches_dataclass():
    for f in SUITE:
        assert repr(f) == repr(to_oracle(f))


def test_formula_eq_and_hash_match_dataclass():
    assert assert_agrees_on_pairs(SUITE, REBUILT) == len(SUITE)


def test_tree_repr_matches_dataclass():
    for f in SUITE:
        t = eval_tree.se(f)
        assert repr(t) == repr(to_oracle(t))


def test_tree_eq_and_hash_match_dataclass():
    # se is many-to-one, so random pairs of the suite's trees are often equal.
    equal_pairs = assert_agrees_on_pairs([eval_tree.se(f) for f in SUITE], [eval_tree.se(f) for f in REBUILT])
    assert equal_pairs > len(SUITE) + 100


def test_other_classes_and_values_are_unequal():
    nodes = [formula_core.TRUE, formula_core.Lit("a"), eval_tree.TRUE_LEAF,
             eval_tree.Branch(eval_tree.TRUE_LEAF, "a", eval_tree.FALSE_LEAF)]
    others = nodes + [True, "a", (True,), None]
    for x in nodes:
        for y in others:
            oracle_y = to_oracle(y) if isinstance(y, formula_core._Node) else y
            assert (x == y) == (to_oracle(x) == oracle_y)
            assert (x == y) is (x is y)


def test_copies_and_pickles_compare_equal():
    f = formula_core.parse("!(a && b) || F")
    for g in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
        assert g == f and hash(g) == hash(f) and repr(g) == repr(f)
    t = eval_tree.se(f)
    assert pickle.loads(pickle.dumps(t)) == t


@pytest.mark.parametrize("make", [
    _criterion_10_chain,
    lambda: formula_core.parse("!" * 3000 + "a"),
    lambda: formula_core.parse(" && ".join(f"x{i}" for i in range(1200))),
], ids=["chain_10000", "negations_3000", "flat_chain_1200"])
def test_deep_copies_and_pickles(make):
    # Deeper than the recursion limit: the pickle is one flat table, and a
    # copy is the node itself.
    f = make()
    assert copy.copy(f) is f and copy.deepcopy(f) is f
    g = pickle.loads(pickle.dumps(f))
    assert g is not f and g == f and hash(g) == hash(f)
    t = eval_tree.se(f)
    assert pickle.loads(pickle.dumps(t)) == t


def distinct_nodes(node):
    seen = {}
    stack = [node]
    while stack:
        n = stack.pop()
        if id(n) not in seen:
            seen[id(n)] = n
            stack += [getattr(n, name) for name in n.__slots__ if isinstance(getattr(n, name), formula_core._Node)]
    return len(seen)


def test_pickle_keeps_sharing():
    # se of the n = 12 chain (a0 || b0) && ... has 8,191 leaves but 26
    # distinct nodes; its pickle held 377 bytes when each node reduced to
    # its class and fields.
    f = formula_core.parse(" && ".join(f"(a{i} || b{i})" for i in range(12)))
    t = eval_tree.se(f)
    data = pickle.dumps(t, protocol=4)
    assert len(data) <= 377
    u = pickle.loads(data)
    assert u == t and distinct_nodes(u) == distinct_nodes(t) == 26
    s = formula_core.Con(formula_core.Lit("a"), formula_core.Lit("b"))
    shared = pickle.loads(pickle.dumps(formula_core.Dis(s, formula_core.Neg(s))))
    assert shared.left is shared.right.inner


def test_suite_pickles_back():
    for f in SUITE[::7]:
        t = eval_tree.se(f)
        assert repr(pickle.loads(pickle.dumps(f))) == repr(f)
        assert repr(pickle.loads(pickle.dumps(t))) == repr(t)
