import copy
import hashlib
import itertools
import json
import random
import sys
import threading
import time
from dataclasses import replace
from typing import Optional

import pytest
from hypothesis import example, given, settings

from sclsat.eval_tree import leaf_profile, se
from sclsat import sat_solvers
from sclsat.formula_core import Con, Const, Dis, Formula, Lit, Neg, node_count, parse, postorder
from sclsat.paths import PathDiscipline, is_memorizing
from sclsat.sat_solvers import (
    _ALL_TRUE,
    _EMPTY,
    Logic,
    SatOutcome,
    _StaticAlgebra,
    _atoms_and_size,
    _cdcl,
    _clausify,
    _sat_fal_flags,
    check_path,
    falsify,
    sat_boolean,
    sat_brute_control,
    sat_brute_force,
    sat_direct,
    sat_open,
    solve,
    verify_witness,
)
from sclsat.cli import _random_formula
from sclsat.formula_core import enumerate_formulas, is_constant_free
from sclsat.valuation_algebras import eval_formula, evaluation_path

from test_formula_core import NOT_FORMULAS, _criterion_10_chain, formulas

ALL_LOGICS = list(Logic)
SMALL_SUITE = list(enumerate_formulas(["a", "b"], 5))


class TestKnownInstances:
    def test_contradiction(self):
        f = parse("a && !a")
        assert solve(Logic.FSCL, f).answer == "yes"
        for logic in (Logic.RPSCL, Logic.CSCL, Logic.MSCL, Logic.SSCL):
            assert solve(logic, f).answer == "no"

    def test_witnessed_everywhere(self):
        f = parse("(a || b) && !a")
        for logic in ALL_LOGICS:
            out = solve(logic, f)
            assert out.answer == "yes"
            assert verify_witness(f, out.witness)
            assert check_path(logic, out.witness)

    def test_canonical_open_witness(self):
        out = sat_open(Logic.RPSCL, parse("(a || b) && !a"))
        assert out.witness == (("a", False), ("b", True), ("a", False))

    def test_constants(self):
        for logic in ALL_LOGICS:
            assert solve(logic, parse("T")).witness == ()
            assert solve(logic, parse("T")).answer == "yes"
            assert solve(logic, parse("F")).answer == "no"

    def test_direct_is_partial_above_fscl(self):
        assert sat_direct(Logic.MSCL, parse("a && !a")).answer == "unknown"
        assert sat_direct(Logic.FSCL, parse("a && !a")).answer == "yes"

    def test_boolean_is_partial_below_mscl(self):
        out = sat_boolean(Logic.FSCL, parse("a && !a"))
        assert out.answer == "unknown"


class TestOracleAgreement:
    def test_small_suite_all_logics(self):
        for f in SMALL_SUITE:
            for logic in ALL_LOGICS:
                oracle = sat_brute_control(logic, f)
                assert sat_brute_force(logic, f).answer == oracle.answer
                auto = solve(logic, f)
                assert auto.answer == oracle.answer
                assert auto.answer in ("yes", "no")
                for partial in (sat_direct, sat_open, sat_boolean):
                    got = partial(logic, f)
                    if got.answer != "unknown":
                        assert got.answer == oracle.answer

    def test_monotonicity(self):
        # a Yes at a stricter discipline implies Yes at every looser one
        order = [Logic.MSCL, Logic.RPSCL, Logic.FSCL]
        for f in SMALL_SUITE:
            answers = [solve(logic, f).answer for logic in order]
            for strict, loose in zip(answers, answers[1:]):
                if strict == "yes":
                    assert loose == "yes"

    def test_collapse(self):
        for f in SMALL_SUITE:
            assert solve(Logic.RPSCL, f).answer == solve(Logic.CSCL, f).answer
            assert solve(Logic.MSCL, f).answer == solve(Logic.SSCL, f).answer

    def test_leaf_characterization(self):
        for f in SMALL_SUITE:
            has_true = leaf_profile(se(f)).has_true
            assert (solve(Logic.FSCL, f).answer == "yes") == has_true

    def test_constant_free_totality(self):
        for f in SMALL_SUITE:
            if is_constant_free(f):
                assert solve(Logic.FSCL, f).answer == "yes"
                assert falsify(Logic.FSCL, f).answer == "yes"


class TestWitnesses:
    @settings(max_examples=150)
    @given(formulas(max_leaves=10))
    def test_yes_witnesses_verify(self, f):
        for logic in ALL_LOGICS:
            out = solve(logic, f)
            if out.answer == "yes":
                assert verify_witness(f, out.witness)
                assert check_path(logic, out.witness)

    def test_verify_witness_rejects(self):
        f = parse("a && !b")
        assert verify_witness(f, (("a", True), ("b", False)))
        assert not verify_witness(f, (("a", True), ("b", True)))
        assert not verify_witness(f, (("a", True),))
        assert not verify_witness(f, (("b", True), ("b", False)))

    def test_falsify_examples(self):
        assert falsify(Logic.SSCL, parse("a || !a")).answer == "no"
        out = falsify(Logic.FSCL, parse("a"))
        assert out.answer == "yes" and out.witness == (("a", False),)


class TestInstrumentation:
    def test_linear_solvers_stay_within_budget(self):
        for f in SMALL_SUITE:
            budget = 2 * node_count(f)
            assert sat_direct(Logic.FSCL, f).node_visits <= budget
            assert sat_open(Logic.RPSCL, f).node_visits <= budget

    def test_chain_formula(self):
        f = Lit("x0")
        for i in range(1, 5000):
            f = Con(Lit(f"x{i}"), f)
        f = Neg(f)
        assert node_count(f) == 10000
        for logic, solver in [(Logic.FSCL, sat_direct), (Logic.RPSCL, sat_open)]:
            out = solver(logic, f)
            assert out.answer == "yes"
            assert out.node_visits <= 2 * 10000
        assert solve(Logic.MSCL, f).answer == "yes"


class TestDispatch:
    def test_explicit_strategies_run_as_is(self):
        out = solve(Logic.MSCL, parse("a && !a"), strategy="direct")
        assert out.answer == "unknown"
        assert out.solver == "direct"

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            solve(Logic.FSCL, parse("a"), strategy="magic")

    def test_outcome_json_schema(self):
        out = solve(Logic.RPSCL, parse("(a || b) && !a"))
        payload = json.loads(out.to_json())
        assert set(payload) == {"answer", "witness", "logic", "solver", "node_visits"}
        assert payload["answer"] == "yes"
        assert payload["logic"] == "RPSCL"
        assert payload["witness"] == [["a", False], ["b", True], ["a", False]]

    def test_no_outcome_has_no_witness(self):
        out = solve(Logic.SSCL, parse("a && !a"))
        assert out.witness is None
        assert json.loads(out.to_json())["witness"] is None

    @pytest.mark.parametrize("strategy", ["auto", *sat_solvers._STRATEGIES])
    @pytest.mark.parametrize("logic", ALL_LOGICS, ids=lambda logic: logic.value)
    def test_non_formula_raises_type_error(self, logic, strategy):
        for node in NOT_FORMULAS:
            for decide in (solve, falsify):
                with pytest.raises(TypeError, match="not a formula: 42"):
                    decide(logic, node, strategy)


# --- oracles: the hand-stacked flag pass and Tseitin encoding that the folds
# over postorder replaced ---

def flags_reference(f):
    flags = {}
    visits = 0
    stack = [f]
    while stack:
        node = stack[-1]
        if id(node) in flags:
            stack.pop()
            continue
        if isinstance(node, Const):
            flags[id(node)] = (node.value, not node.value)
        elif isinstance(node, Lit):
            flags[id(node)] = (True, True)
        elif isinstance(node, Neg):
            inner = flags.get(id(node.inner))
            if inner is None:
                stack.append(node.inner)
                continue
            flags[id(node)] = (inner[1], inner[0])
        else:
            left = flags.get(id(node.left))
            right = flags.get(id(node.right))
            if left is None or right is None:
                if right is None:
                    stack.append(node.right)
                if left is None:
                    stack.append(node.left)
                continue
            if isinstance(node, Con):
                flags[id(node)] = (left[0] and right[0], left[1] or (left[0] and right[1]))
            else:
                flags[id(node)] = (left[0] or (left[1] and right[0]), left[1] and right[1])
        visits += 1
        stack.pop()
    return flags, visits


def tseitin_reference(f):
    atom_var = {}
    clauses = []
    next_var = 0
    lit_of = {}
    stack = [f]
    while stack:
        node = stack[-1]
        if id(node) in lit_of:
            stack.pop()
            continue
        if isinstance(node, Const):
            next_var += 1
            clauses.append([next_var if node.value else -next_var])
            lit_of[id(node)] = next_var
        elif isinstance(node, Lit):
            if node.atom not in atom_var:
                next_var += 1
                atom_var[node.atom] = next_var
            lit_of[id(node)] = atom_var[node.atom]
        elif isinstance(node, Neg):
            inner = lit_of.get(id(node.inner))
            if inner is None:
                stack.append(node.inner)
                continue
            lit_of[id(node)] = -inner
        else:
            left = lit_of.get(id(node.left))
            right = lit_of.get(id(node.right))
            if left is None or right is None:
                if right is None:
                    stack.append(node.right)
                if left is None:
                    stack.append(node.left)
                continue
            next_var += 1
            g = next_var
            if isinstance(node, Con):
                clauses += [[-g, left], [-g, right], [-left, -right, g]]
            else:
                clauses += [[-g, left, right], [-left, g], [-right, g]]
            lit_of[id(node)] = g
        stack.pop()
    clauses.append([lit_of[id(f)]])
    return clauses, atom_var, next_var



# Verbatim copies of the guard solver's cons-list and slot helpers, so the
# reference below shares no code with the solver it checks.
def _cons_to_path(cell):
    """The entries of a cons list, head first."""
    entries = []
    while cell is not None:
        entries.append(cell[0])
        cell = cell[1]
    return tuple(entries)


def _lit_slot(atom: str, value: bool, guard):
    """A full continuation starting with (atom, value), or None.  When the
    guard's atom is this atom, adjacency forces the continuation branch with
    the same value; otherwise any available branch may follow."""
    if guard is None:
        return None
    entry = (atom, value)
    if guard is _EMPTY:
        return (entry, None)
    gatom, gtrue, gfalse = guard
    if gatom == atom:
        cont = gtrue if value else gfalse
        if cont is None:
            return None
        return (entry, cont)
    cont = gtrue if gtrue is not None else gfalse
    return (entry, cont)


def _make_guard_reference(atom, slot_true, slot_false):
    if slot_true is None and slot_false is None:
        return None
    return (atom, slot_true, slot_false)


def sat_open_reference(logic, f):
    """The guard solver as a tagged work-item machine, before it became an
    instance of fold_se."""
    visits = 0
    results = []
    work = [("visit", f, _EMPTY, None)]
    while work:
        item = work.pop()
        tag = item[0]
        if tag == "visit":
            _, node, g_true, g_false = item
            visits += 1
            if isinstance(node, Const):
                results.append(g_true if node.value else g_false)
            elif isinstance(node, Lit):
                results.append(
                    _make_guard_reference(
                        node.atom,
                        _lit_slot(node.atom, True, g_true),
                        _lit_slot(node.atom, False, g_false),
                    )
                )
            elif isinstance(node, Neg):
                work.append(("visit", node.inner, g_false, g_true))
            elif isinstance(node, Con):
                work.append(("con2", node.left, g_false))
                work.append(("visit", node.right, g_true, g_false))
            elif isinstance(node, Dis):
                work.append(("dis2", node.left, g_true))
                work.append(("visit", node.right, g_true, g_false))
            else:
                raise TypeError(f"not a formula: {node!r}")
        elif tag == "con2":
            _, left, g_false = item
            work.append(("visit", left, results.pop(), g_false))
        else:
            _, left, g_true = item
            work.append(("visit", left, g_true, results.pop()))
    final = results.pop()

    if final is None:
        if logic is Logic.FSCL:
            return SatOutcome("unknown", None, logic, "open", visits, 0)
        return SatOutcome("no", None, logic, "open", visits, 0)
    if final is _EMPTY:
        path = ()
    else:
        _, slot_true, slot_false = final
        path = _cons_to_path(slot_true if slot_true is not None else slot_false)
    if logic in (Logic.MSCL, Logic.SSCL) and not is_memorizing(path):
        return SatOutcome("unknown", None, logic, "open", visits, 0)
    return SatOutcome("yes", path, logic, "open", visits, 0)


def sat_direct_reference(logic, f):
    """The direct solver with its trace's && and || written as mirror rules,
    before || was read through &&."""
    flags = flags_reference(f)[0]
    visits = len(flags)
    if not flags[id(f)][0]:
        return SatOutcome("no", None, logic, "direct", visits, 0)
    entries: list[tuple[str, bool]] = []
    SAT, FAL = True, False
    work: list[tuple[Formula, bool]] = [(f, SAT)]
    while work:
        node, want_sat = work.pop()
        visits += 1
        if isinstance(node, Const):
            continue
        if isinstance(node, Lit):
            entries.append((node.atom, want_sat))
            continue
        if isinstance(node, Neg):
            work.append((node.inner, not want_sat))
            continue
        left_sat, left_fal = flags[id(node.left)]
        if isinstance(node, Con):
            if want_sat:
                # Both conjuncts must succeed; the trace runs left then right.
                work.append((node.right, SAT))
                work.append((node.left, SAT))
            elif left_fal:
                work.append((node.left, FAL))
            else:
                work.append((node.right, FAL))
                work.append((node.left, SAT))
        else:
            if not want_sat:
                work.append((node.right, FAL))
                work.append((node.left, FAL))
            elif left_sat:
                work.append((node.left, SAT))
            else:
                work.append((node.right, SAT))
                work.append((node.left, FAL))
    path = tuple(entries)
    if logic is Logic.FSCL or check_path(logic, path):
        return SatOutcome("yes", path, logic, "direct", visits, 0)
    return SatOutcome("unknown", None, logic, "direct", visits, 0)


SUITE = list(enumerate_formulas(["a", "b"], 7))

# SHA-256 over repr((answer, witness, logic, solver, node_visits,
# leaves_explored)) of solve(logic, f, strategy) for every f in SUITE and
# every logic, in order, recorded from the hand-written walkers and the
# separate brute-force loops before they were folded together.
OUTCOME_DIGESTS = {
    "brute-control": "e37cfdeb1af50691a11b8625519f686d3154c91b043eb58ef28fa269651154dd",
    "brute-force": "ba8d212b4d6ffcb1ea8598e331af2cf6980b37e23699336ae824b6b8cc465ac0",
    "direct": "bdbd0c6783cbac07c7dd0822e4432d19681822e24b1b830f1e4f48f2369c8644",
    "open": "90f74cedbf7157f03da45a14d1f7591ddb459655ffb141d150ac5b28f2f52a3b",
    "boolean": "6c83dc415d5307f6d505d80b8fcf689253c6254a2da2266c12091ceedef8fcfa",
    "auto": "c7719af2580ef1da400227be0058b81ad8dd77b2dc440d9a67d632b368a11899",
}


class TestUnchangedOnSuite:
    def test_folds_match_references(self):
        assert len(SUITE) == 22140
        for f in SUITE:
            assert _tseitin(f) == tseitin_reference(f)
            flags = _sat_fal_flags(f)
            expected_flags, expected_visits = flags_reference(f)
            assert list(flags.items()) == list(expected_flags.items())
            assert len(flags) == expected_visits

    def test_open_matches_reference(self):
        for f in SUITE:
            for logic in ALL_LOGICS:
                assert sat_open(logic, f) == sat_open_reference(logic, f)

    @settings(max_examples=300, deadline=None)
    @given(formulas(atoms=("a", "b", "c", "d"), max_leaves=20).filter(lambda f: node_count(f) <= 40))
    def test_open_matches_reference_on_random(self, f):
        for logic in ALL_LOGICS:
            assert sat_open(logic, f) == sat_open_reference(logic, f)

    @settings(max_examples=300, deadline=None)
    @given(formulas(atoms=("a", "b", "c", "d"), max_leaves=20).filter(lambda f: node_count(f) <= 40))
    # Random formulas seldom reach the rule's last case, where the left
    # operand cannot short-circuit and both operands enter the trace.
    @example(parse("(a && F || b && F) || c && d"))
    @example(parse("!((a || T) && (b || c) && d)"))
    @example(parse("!(!(a && b && F) && (c || !d))"))
    def test_direct_matches_reference_on_random(self, f):
        for logic in ALL_LOGICS:
            assert sat_direct(logic, f) == sat_direct_reference(logic, f)

    # Pinned leaves reach the trace case where the left operand cannot
    # short-circuit and both operands enter the trace.
    @settings(max_examples=300, deadline=None)
    @given(formulas(atoms=("a", "b", "c", "d"), max_leaves=20, pinned=True).filter(lambda f: node_count(f) <= 40))
    def test_open_matches_reference_on_pinned(self, f):
        for logic in ALL_LOGICS:
            assert sat_open(logic, f) == sat_open_reference(logic, f)

    @settings(max_examples=300, deadline=None)
    @given(formulas(atoms=("a", "b", "c", "d"), max_leaves=20, pinned=True).filter(lambda f: node_count(f) <= 40))
    def test_direct_matches_reference_on_pinned(self, f):
        for logic in ALL_LOGICS:
            assert sat_direct(logic, f) == sat_direct_reference(logic, f)

    @pytest.mark.parametrize("strategy", list(OUTCOME_DIGESTS))
    def test_every_outcome_field(self, strategy):
        digest = hashlib.sha256()
        for f in SUITE:
            for logic in ALL_LOGICS:
                out = solve(logic, f, strategy)
                digest.update(repr((out.answer, out.witness, out.logic.value, out.solver,
                                    out.node_visits, out.leaves_explored)).encode())
        assert digest.hexdigest() == OUTCOME_DIGESTS[strategy]


def test_auto_unknown_raises(monkeypatch):
    # The auto procedures are exact on their logics; an Unknown from one is a
    # bug, never a cue to fall back to exponential search.
    monkeypatch.setattr(sat_solvers, "_auto_solver", lambda logic: sat_direct)
    with pytest.raises(RuntimeError, match="unknown"):
        solve(Logic.MSCL, parse("a && !a"))


# --- solve's one-slot reuse of its last verified outcome ---

SIBLINGS = [(Logic.RPSCL, Logic.CSCL), (Logic.MSCL, Logic.SSCL)]


@pytest.mark.parametrize("strategy", list(sat_solvers._STRATEGIES))
def test_sibling_logics_pose_one_problem(strategy):
    # The premise behind the reuse: called directly, every solver answers a
    # logic and its sibling alike, apart from the logic field.
    solver = sat_solvers._STRATEGIES[strategy]
    for f in enumerate_formulas(["a", "b"], 6):
        for first, sibling in SIBLINGS:
            assert solver(sibling, f) == replace(solver(first, f), logic=sibling)


@pytest.fixture
def solver_calls(monkeypatch):
    calls = []

    def spy(name):
        solver = getattr(sat_solvers, name)

        def counted(logic, f):
            calls.append((name, logic, f))
            return solver(logic, f)
        return counted

    for name in ("sat_direct", "sat_open", "sat_boolean"):
        counted = spy(name)
        monkeypatch.setattr(sat_solvers, name, counted)
        monkeypatch.setitem(sat_solvers._STRATEGIES, name[len("sat_"):], counted)
    return calls


class TestReuse:
    def test_each_procedure_runs_once_over_all_logics(self, solver_calls):
        f = parse("(a || b) && !a && (b || !b)")
        outcomes = {logic: solve(logic, f) for logic in ALL_LOGICS}
        assert [name for name, _, _ in solver_calls] == ["sat_direct", "sat_open", "sat_boolean"]
        for first, sibling in SIBLINGS:
            assert outcomes[sibling] == replace(outcomes[first], logic=sibling)
            assert outcomes[sibling].logic is sibling

    def test_same_logic_again_returns_the_outcome(self, solver_calls):
        f = parse("a || b")
        out = solve(Logic.MSCL, f)
        assert solve(Logic.MSCL, f) is out
        assert len(solver_calls) == 1

    def test_equal_but_separate_formula_runs_again(self, solver_calls):
        first = solve(Logic.RPSCL, parse("(a || b) && !a"))
        again = solve(Logic.CSCL, parse("(a || b) && !a"))
        assert len(solver_calls) == 2
        assert again == replace(first, logic=Logic.CSCL)

    def test_other_strategy_runs_again(self, solver_calls):
        f = parse("(a || b) && !a")
        auto = solve(Logic.RPSCL, f)
        explicit = solve(Logic.CSCL, f, "open")
        assert len(solver_calls) == 2
        assert explicit == replace(auto, logic=Logic.CSCL)

    def test_unknown_under_explicit_strategy_is_not_reused_by_auto(self, solver_calls):
        f = parse("a && !a")
        assert solve(Logic.MSCL, f, "direct").answer == "unknown"
        assert solve(Logic.SSCL, f).answer == "no"
        assert [name for name, _, _ in solver_calls] == ["sat_direct", "sat_boolean"]

    def test_only_the_last_formula_is_kept(self, solver_calls):
        a, b = parse("a && b"), parse("a || b")
        for f in (a, b, a):
            solve(Logic.RPSCL, f)
            solve(Logic.CSCL, f)
        assert len(solver_calls) == 3
        assert all(f is g for (_, _, f), g in zip(solver_calls, (a, b, a)))

    def test_chain_decided_in_every_logic_without_hashing(self, solver_calls):
        # Criterion 10's chain.  The dataclass hash recurses once per level
        # and cannot take it, so these calls show the slot never hashes f.
        f = Lit("x0")
        for i in range(1, 5000):
            f = Con(Lit(f"x{i}"), f)
        f = Neg(f)
        outcomes = [solve(logic, f) for logic in ALL_LOGICS]
        assert all(out.answer == "yes" for out in outcomes)
        assert len(solver_calls) == 3

    def test_concurrent_callers_see_their_own_outcomes(self):
        texts = ("a && !a", "(a || b) && !a", "a || b", "!a && (a || b)", "b && (a || !b)")
        formulas = [parse(text) for text in texts]
        expected = {
            (id(f), logic): sat_solvers._auto_solver(logic)(logic, f)
            for f in formulas for logic in ALL_LOGICS
        }
        mismatches = []

        def work(shift):
            order = formulas[shift:] + formulas[:shift]
            for _ in range(100):
                for f in order:
                    for logic in ALL_LOGICS:
                        if solve(logic, f) != expected[(id(f), logic)]:
                            mismatches.append((f, logic))

        threads = [threading.Thread(target=work, args=(shift,)) for shift in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not mismatches


def _bad_witness(logic, f):
    return SatOutcome("yes", (("zz", True),), logic, "open")


class TestFailuresNotReused:
    def test_bad_witness_raises_on_both_siblings_then_solves_afresh(self, monkeypatch):
        f = parse("(a || b) && !a")
        with monkeypatch.context() as patch:
            patch.setattr(sat_solvers, "sat_open", _bad_witness)
            for logic in (Logic.RPSCL, Logic.CSCL):
                with pytest.raises(RuntimeError, match="invalid witness"):
                    solve(logic, f)
        for logic in (Logic.RPSCL, Logic.CSCL):
            assert solve(logic, f) == sat_open(logic, f)

    def test_auto_unknown_raises_on_both_siblings(self, monkeypatch):
        monkeypatch.setattr(sat_solvers, "_auto_solver", lambda logic: sat_direct)
        f = parse("a && !a")
        for logic in (Logic.MSCL, Logic.SSCL):
            with pytest.raises(RuntimeError, match="unknown"):
                solve(logic, f)


# --- oracle: the full Tseitin encoding that _clausify replaced ---

def _tseitin(f: Formula) -> tuple[list[list[int]], dict[str, int], int]:
    """CNF whose models are the boolean assignments making f classically true.
    Returns (clauses, atom variable map, variable count).  Variables are
    numbered in post-order, one per constant and connective and one per atom
    at its first occurrence; a negation reuses its operand's variable.  The
    clauses go to static-order CDCL, which returns the lex-greatest model, so
    this numbering fixes which model, and hence which witness, is found."""
    atom_var: dict[str, int] = {}
    clauses: list[list[int]] = []
    next_var = 0
    lit_of: dict[int, int] = {}
    for node in postorder(f):
        if isinstance(node, Const):
            next_var += 1
            clauses.append([next_var if node.value else -next_var])
            lit_of[id(node)] = next_var
        elif isinstance(node, Lit):
            if node.atom not in atom_var:
                next_var += 1
                atom_var[node.atom] = next_var
            lit_of[id(node)] = atom_var[node.atom]
        elif isinstance(node, Neg):
            lit_of[id(node)] = -lit_of[id(node.inner)]
        else:
            left = lit_of[id(node.left)]
            right = lit_of[id(node.right)]
            next_var += 1
            g = next_var
            if isinstance(node, Con):
                clauses.append([-g, left])
                clauses.append([-g, right])
                clauses.append([-left, -right, g])
            else:
                clauses.append([-g, left, right])
                clauses.append([-left, g])
                clauses.append([-right, g])
            lit_of[id(node)] = g
    clauses.append([lit_of[id(f)]])
    return clauses, atom_var, next_var


# --- oracle: the plain DPLL search that static-order CDCL replaced ---

def _dpll(clauses: list[list[int]], num_vars: int) -> Optional[dict[int, bool]]:
    """Plain DPLL: unit propagation and first-unassigned-variable branching
    (true first), iterative with an explicit trail."""
    assignment: dict[int, bool] = {}
    trail: list[int] = []
    # Clause indices containing each literal, so propagation only revisits
    # clauses a new assignment could have falsified.
    occurrences: dict[int, list[int]] = {}
    for index, clause in enumerate(clauses):
        for lit in clause:
            occurrences.setdefault(lit, []).append(index)

    def assign(var: int, value: bool) -> None:
        assignment[var] = value
        trail.append(var)

    def undo_to(mark: int) -> None:
        while len(trail) > mark:
            del assignment[trail.pop()]

    def propagate(start: int) -> bool:
        queue = trail[start:]
        head = 0
        while head < len(queue):
            var = queue[head]
            head += 1
            falsified = -var if assignment[var] else var
            for index in occurrences.get(falsified, ()):
                unassigned = None
                satisfied = False
                count = 0
                for lit in clauses[index]:
                    value = assignment.get(abs(lit))
                    if value is None:
                        unassigned = lit
                        count += 1
                    elif value == (lit > 0):
                        satisfied = True
                        break
                if satisfied:
                    continue
                if count == 0:
                    return False
                if count == 1:
                    assign(abs(unassigned), unassigned > 0)
                    queue.append(abs(unassigned))
        return True

    # Seed propagation with the unit clauses.
    for clause in clauses:
        if len(clause) == 1:
            lit = clause[0]
            value = assignment.get(abs(lit))
            if value is None:
                assign(abs(lit), lit > 0)
            elif value != (lit > 0):
                return None
    if not propagate(0):
        return None

    next_unassigned = 1
    decisions: list[tuple[int, int, bool]] = []  # (var, trail mark, false tried)
    while True:
        while next_unassigned <= num_vars and next_unassigned in assignment:
            next_unassigned += 1
        if next_unassigned > num_vars:
            return assignment
        var = next_unassigned
        mark = len(trail)
        decisions.append((var, mark, False))
        assign(var, True)
        while not propagate(len(trail) - 1):
            while decisions:
                var, mark, false_tried = decisions.pop()
                undo_to(mark)
                if not false_tried:
                    decisions.append((var, mark, True))
                    assign(var, False)
                    break
            else:
                return None
            next_unassigned = 1


def lex_greatest_model(clauses, num_vars):
    """The first model in the order _dpll searches: variable 1 counts most,
    true before false."""
    for values in itertools.product((True, False), repeat=num_vars):
        model = dict(zip(range(1, num_vars + 1), values))
        if all(any(model[abs(lit)] == (lit > 0) for lit in clause) for clause in clauses):
            return model
    return None


def random_3cnf(rng, num_vars, ratio=4.26):
    """Clauses of three distinct variables with random signs."""
    return [[v if rng.random() < 0.5 else -v for v in rng.sample(range(1, num_vars + 1), 3)]
            for _ in range(round(ratio * num_vars))]


def pigeonhole(holes):
    """holes + 1 pigeons in holes holes: unsatisfiable by counting."""
    pigeons = holes + 1
    var = {(i, j): i * holes + j + 1 for i in range(pigeons) for j in range(holes)}
    clauses = [[var[i, j] for j in range(holes)] for i in range(pigeons)]
    for j in range(holes):
        for i in range(pigeons):
            for k in range(i + 1, pigeons):
                clauses.append([-var[i, j], -var[k, j]])
    return clauses, pigeons * holes


def cnf_formula(clauses):
    """(l || l || l) && (...) && ..., left-nested like the parser reads it."""
    def lit(x):
        return Lit(f"x{x}") if x > 0 else Neg(Lit(f"x{-x}"))
    f = None
    for clause in clauses:
        c = lit(clause[0])
        for x in clause[1:]:
            c = Dis(c, lit(x))
        f = c if f is None else Con(f, c)
    return f


def assert_same_model(clauses, num_vars):
    before = copy.deepcopy(clauses)
    model = _cdcl(clauses, num_vars)
    assert clauses == before
    assert model == _dpll(clauses, num_vars)
    return model


class TestCdclMatchesDpll:
    def test_suite(self):
        for f in SUITE:
            clauses, _, num_vars = _tseitin(f)
            assert_same_model(clauses, num_vars)

    @settings(max_examples=300, deadline=None)
    @given(formulas(atoms=tuple(f"x{i}" for i in range(20)), max_leaves=100)
           .filter(lambda f: 5 <= node_count(f) <= 200))
    def test_random_formulas(self, f):
        clauses, _, num_vars = _tseitin(f)
        assert_same_model(clauses, num_vars)

    def test_random_3cnf(self):
        rng = random.Random(4026)
        answers = set()
        for num_vars in range(40, 61, 2):
            clauses = random_3cnf(rng, num_vars)
            answers.add(assert_same_model(clauses, num_vars) is not None)
            encoded, atom_var, encoded_vars = _tseitin(cnf_formula(clauses))
            assert len(atom_var) == num_vars
            assert_same_model(encoded, encoded_vars)
        assert answers == {True, False}

    @pytest.mark.parametrize("holes", [4, 5])
    def test_pigeonhole(self, holes):
        clauses, num_vars = pigeonhole(holes)
        assert assert_same_model(clauses, num_vars) is None
        encoded, _, encoded_vars = _tseitin(cnf_formula(clauses))
        assert assert_same_model(encoded, encoded_vars) is None

    def test_awkward_clauses(self):
        # Repeated literals, in front or behind, and tautologies, against
        # exhaustive search for the lex-greatest model.
        rng = random.Random(7)
        for _ in range(4000):
            num_vars = rng.randint(1, 6)
            literals = [v for v in range(1, num_vars + 1)] + [-v for v in range(1, num_vars + 1)]
            clauses = []
            for _ in range(rng.randint(1, 12)):
                clause = [rng.choice(literals) for _ in range(rng.randint(1, 4))]
                if rng.random() < 0.3:
                    clause.insert(rng.randrange(len(clause) + 1), rng.choice(clause))
                clauses.append(clause)
            assert assert_same_model(clauses, num_vars) == lex_greatest_model(clauses, num_vars)

    def test_repeated_literals_and_tautologies(self):
        # [1, 2, 2] with 1 false leaves 2 as the only way out.
        assert _cdcl([[1, 2, 2], [-1]], 2) == {1: False, 2: True}
        assert _cdcl([[1, 2, 1], [-2]], 2) == {1: True, 2: False}
        assert _cdcl([[1, 1]], 1) == {1: True}
        assert _cdcl([[1, -1], [-1, 2, -2]], 2) == {1: True, 2: True}
        assert _cdcl([[1, 2, 2], [-1], [-2, -2]], 2) is None


class TestTseitinShapes:
    """The clause shapes Tseitin emits that a watched-literal loader must
    handle, decided in both memorizing logics against the tree search."""

    SHAPES = {
        "a && a": [-1, -1, 2],   # a repeated literal
        "a || a": [-2, 1, 1],
        "a && !a": [-1, 1, 2],   # a tautology
        "a || !a": [-2, 1, -1],
        "!a": [-1],              # a unit from a negated root
        "T && F": [-2],          # units from constants
        "!(a || !a)": [-2],
    }

    @pytest.mark.parametrize("text", list(SHAPES))
    def test_shape_is_emitted(self, text):
        clauses, _, _ = _tseitin(parse(text))
        assert self.SHAPES[text] in clauses

    @pytest.mark.parametrize("text", list(SHAPES) + [
        "(a && a) || !(a && !a)", "!(T && F) && (a || a) && !a", "(a && b) && !(b || b)"])
    @pytest.mark.parametrize("logic", [Logic.MSCL, Logic.SSCL])
    def test_solve_matches_tree_search(self, text, logic):
        f = parse(text)
        assert solve(logic, f).answer == sat_brute_control(logic, f).answer

    def test_criterion_10_chain(self):
        # Neg of 5,000 nested Cons: the lex-greatest model sets every atom
        # true but the innermost, so the witness runs the whole chain.
        f = Lit("x0")
        for i in range(1, 5000):
            f = Con(Lit(f"x{i}"), f)
        f = Neg(f)
        assert node_count(f) == 10000
        expected = tuple((f"x{i}", i != 0) for i in range(4999, -1, -1))
        for logic in (Logic.MSCL, Logic.SSCL):
            out = solve(logic, f)
            assert out.answer == "yes"
            assert out.witness == expected


# --- the asserted-top encoding against the full Tseitin oracle ---

def assert_matches_tseitin(f):
    """_cdcl on _clausify(f) gives the answer and the atom assignment that
    _dpll gives on f's full Tseitin encoding, atoms keep their relative
    order, and the size is that encoding's clause count.  Returns the model."""
    clauses, atom_var, num_vars, size = _clausify(f)
    expected_clauses, expected_atom_var, expected_vars = tseitin_reference(f)
    assert size == len(expected_clauses)
    assert list(atom_var.items()) == [(atom, i + 1) for i, atom in enumerate(expected_atom_var)]
    if clauses is not None:
        assert all(clauses)
        assert all(0 < abs(lit) <= num_vars for clause in clauses for lit in clause)
    model = None if clauses is None else _cdcl(clauses, num_vars)
    expected = _dpll(expected_clauses, expected_vars)
    assert (model is None) == (expected is None)
    if model is not None:
        assert ({atom: model[var] for atom, var in atom_var.items()}
                == {atom: expected[var] for atom, var in expected_atom_var.items()})
    return model


class TestClausifyMatchesTseitin:
    def test_suite(self):
        for f in SUITE:
            assert_matches_tseitin(f)

    @settings(max_examples=300, deadline=None)
    @given(formulas(atoms=tuple(f"x{i}" for i in range(20)), max_leaves=100)
           .filter(lambda f: 5 <= node_count(f) <= 200))
    def test_random_formulas(self, f):
        assert_matches_tseitin(f)

    def test_random_3cnf(self):
        rng = random.Random(4027)
        answers = set()
        for num_vars in range(40, 61, 2):
            model = assert_matches_tseitin(cnf_formula(random_3cnf(rng, num_vars)))
            answers.add(model is not None)
        assert answers == {True, False}

    @pytest.mark.parametrize("holes", [4, 5])
    def test_pigeonhole(self, holes):
        clauses, _ = pigeonhole(holes)
        assert assert_matches_tseitin(cnf_formula(clauses)) is None


def _no_search(clauses, num_vars):
    raise AssertionError("_cdcl was called")


def shared_dag(kinds, depth):
    """depth levels over one shared operand: s := kind(s, s), kinds cycled;
    "!" in a kind negates the right operand."""
    s = Dis(Lit("a"), Neg(Lit("b")))
    for level in range(depth):
        kind = kinds[level % len(kinds)]
        right = Neg(s) if kind.startswith("!") else s
        s = Con(s, right) if kind.endswith("&&") else Dis(s, right)
    return s


class TestClausifyShapes:
    @pytest.mark.parametrize("text, expected", [
        ("a || a", [[1, 1]]),                 # a repeated literal in front
        ("a || !a", [[1, -1]]),               # tautologies
        ("!(a && !a)", [[-1, 1]]),
        ("a && !b", [[1], [-2]]),             # asserted atoms are units
        ("!(a || b) && !!c", [[-1], [-2], [3]]),
        ("(a || !b) || !(c && d)", [[1, -2, -3, -4]]),   # one flattened chain
        ("(a && b) || c", [[-4, 1], [-4, 2], [-1, -2, 4], [4, 3]]),  # a gate beneath
        ("a || F", [[1]]),                    # a false constant drops out
        ("(a || T) && b", [[2]]),             # a true one satisfies the clause
        ("T && a", [[1]]),
    ])
    def test_clauses(self, text, expected):
        f = parse(text)
        assert _clausify(f)[0] == expected
        assert_matches_tseitin(f)

    @pytest.mark.parametrize("text", ["T && F", "F || F", "!(T && T)", "a && F", "!T", "(a || b) && !(F || T)"])
    def test_constants_refute_without_search(self, text, monkeypatch):
        f = parse(text)
        monkeypatch.setattr(sat_solvers, "_cdcl", _no_search)
        assert _clausify(f)[0] is None
        for logic in (Logic.MSCL, Logic.SSCL):
            out = sat_boolean(logic, f)
            assert out.answer == "no"
            assert out.node_visits == len(tseitin_reference(f)[0])

    def test_criterion_10_chain_is_one_clause(self):
        f = Lit("x0")
        for i in range(1, 5000):
            f = Con(Lit(f"x{i}"), f)
        f = Neg(f)
        clauses, atom_var, num_vars, size = _clausify(f)
        assert num_vars == 5000
        assert clauses == [[-atom_var[f"x{i}"] for i in range(4999, -1, -1)]]
        assert size == 1 + 3 * 4999

    def test_flat_conjunction_is_units(self):
        # Settled by level-0 propagation: no clause needs a watch list.
        f = parse(" && ".join(f"a{i}" for i in range(200)))
        clauses, _, num_vars, size = _clausify(f)
        assert clauses == [[var] for var in range(1, 201)]
        assert num_vars == 200
        assert size == 1 + 3 * 199
        out = sat_boolean(Logic.MSCL, f)
        assert out.witness == tuple((f"a{i}", True) for i in range(200))

    @pytest.mark.parametrize("kinds", [("&&",), ("||",), ("&&", "||"), ("||", "!&&"), ("!||", "&&")])
    def test_shared_dags_stay_linear(self, kinds):
        # Expanding the sharing doubles the work per level; climbing in steps
        # makes such an encoder fail on the time bound at depth 20, not hang.
        for depth in range(10, 61, 10):
            f = shared_dag(kinds, depth)
            start = time.process_time()
            clauses, _, _, size = _clausify(f)
            assert time.process_time() - start < 1.0
            assert size == 1 + 3 * (depth + 1)
            if clauses is not None:
                assert len(clauses) <= 4 * (depth + 1)
                assert sum(map(len, clauses)) <= 9 * (depth + 1)
            assert_matches_tseitin(f)


# --- the all-true assignment tried before any search ---

def sat_boolean_search(logic, f):
    """sat_boolean before it tried the all-true assignment first: every
    formula is clausified and searched."""
    clauses, atom_var, num_vars, visits = _clausify(f)
    model = None if clauses is None else _cdcl(clauses, num_vars)
    if model is None:
        if logic.discipline is PathDiscipline.MEMORIZING:
            return SatOutcome("no", None, logic, "boolean", visits, 0)
        return SatOutcome("unknown", None, logic, "boolean", visits, 0)
    sigma = {atom: model[var] for atom, var in atom_var.items()}
    # The trace under sigma, memorizing by construction.
    path = evaluation_path(_StaticAlgebra(sigma), f, 0)
    return SatOutcome("yes", path, logic, "boolean", visits, 0)


def _no_clausify(f):
    raise AssertionError("_clausify was called")


class TestAllTrueFirst:
    def test_premise_on_suite(self):
        # Where all-true makes f true, it is the search's atom assignment.
        hits = 0
        for f in SUITE:
            clauses, atom_var, num_vars, _ = _clausify(f)
            all_true = _StaticAlgebra(dict.fromkeys(atom_var, True))
            if not eval_formula(all_true, f, 0):
                continue
            hits += 1
            model = _cdcl(clauses, num_vars)
            assert all(model[var] for var in atom_var.values())
            out = sat_boolean(Logic.MSCL, f)
            assert out.witness == evaluation_path(all_true, f, 0)
            assert out.node_visits == len(tseitin_reference(f)[0])
        assert hits == 14167

    def test_hit_runs_no_search(self, monkeypatch):
        monkeypatch.setattr(sat_solvers, "_clausify", _no_clausify)
        monkeypatch.setattr(sat_solvers, "_cdcl", _no_search)
        out = sat_boolean(Logic.MSCL, parse("a && (b || !c)"))
        assert out.answer == "yes"
        assert out.witness == (("a", True), ("b", True))
        assert out.node_visits == 1 + 3 * 2

    def test_miss_searches(self, monkeypatch):
        # Past _WALK_ATOMS atoms a miss is clausified and searched once.
        calls = []
        for name in ("_clausify", "_cdcl"):
            def spy(*args, name=name, real=getattr(sat_solvers, name)):
                calls.append(name)
                return real(*args)
            monkeypatch.setattr(sat_solvers, name, spy)
        out = sat_boolean(Logic.MSCL, parse("a && b && c && d && !e"))
        assert out.witness == (("a", True), ("b", True), ("c", True), ("d", True), ("e", False))
        assert calls == ["_clausify", "_cdcl"]

    # Up to six atoms, so both sides of _WALK_ATOMS are drawn.
    @settings(max_examples=300, deadline=None)
    @given(formulas(atoms=tuple("abcdef"), max_leaves=20).filter(lambda f: node_count(f) <= 40))
    @example(parse("a && (b || !c)"))
    @example(parse("a && !b"))
    @example(parse("!a && !b && !c && !d"))
    @example(parse("a && b && c && d && !e"))
    def test_matches_search_on_random(self, f):
        for logic in ALL_LOGICS:
            assert sat_boolean(logic, f) == sat_boolean_search(logic, f)
        for logic in (Logic.MSCL, Logic.SSCL):
            assert falsify(logic, f) == sat_boolean_search(logic, Neg(f))


# --- misses on at most _WALK_ATOMS atoms settled by the walk, one count per call ---

def _raise_if_searched(*args):
    raise AssertionError("_clausify or _cdcl was called")


def suite_misses():
    """The suite formulas all-true makes false, with their atom counts."""
    for f in SUITE:
        if not eval_formula(_ALL_TRUE, f, 0):
            yield f, len(tseitin_reference(f)[1])


class TestFewAtomMisses:
    @pytest.mark.parametrize("text, answers, witness", [
        ("!a", dict.fromkeys(ALL_LOGICS, "yes"), (("a", False),)),
        ("!" * 3001 + "a", dict.fromkeys(ALL_LOGICS, "yes"), (("a", False),)),
        ("a && !a", {Logic.FSCL: "unknown", Logic.RPSCL: "unknown", Logic.CSCL: "unknown",
                     Logic.MSCL: "no", Logic.SSCL: "no"}, None),
        ("F", {logic: "no" if logic.discipline is PathDiscipline.MEMORIZING else "unknown"
               for logic in ALL_LOGICS}, None),
        ("!T", {logic: "no" if logic.discipline is PathDiscipline.MEMORIZING else "unknown"
                for logic in ALL_LOGICS}, None),
        ("a && !b", dict.fromkeys(ALL_LOGICS, "yes"), (("a", True), ("b", False))),
        ("!a && !b && !c && !d", dict.fromkeys(ALL_LOGICS, "yes"),
         (("a", False), ("b", False), ("c", False), ("d", False))),
        ("a && b && c && d && !d", {logic: "no" if logic.discipline is PathDiscipline.MEMORIZING
                                    else "unknown" for logic in ALL_LOGICS}, None),
    ], ids=["neg_atom", "negations_3001", "contradiction", "false", "not_true",
            "two_atoms", "four_atoms_last", "four_atoms_unsat"])
    def test_answered_without_search(self, text, answers, witness, monkeypatch):
        f = parse(text)
        monkeypatch.setattr(sat_solvers, "_clausify", _raise_if_searched)
        monkeypatch.setattr(sat_solvers, "_cdcl", _raise_if_searched)
        for logic in ALL_LOGICS:
            out = sat_boolean(logic, f)
            assert out.answer == answers[logic]
            assert out.witness == witness
            assert out.node_visits == len(tseitin_reference(f)[0])

    def test_miss_counts_on_suite(self):
        # Beside the 14,167 hits, the walk settles every miss without a
        # search: 1,139 on no atom, 4,762 on one and 2,072 on two.
        counts = {}
        for _, atoms in suite_misses():
            counts[atoms] = counts.get(atoms, 0) + 1
        assert counts == {0: 1139, 1: 4762, 2: 2072}

    def test_misses_match_search(self):
        for f, _ in suite_misses():
            for logic in ALL_LOGICS:
                assert sat_boolean(logic, f) == sat_boolean_search(logic, f)


# --- walked answers certified by a classical evaluator of its own ---

def classical(f, sigma, trace):
    """f's classical value under sigma; appends to trace each (atom, value)
    that left-to-right short-circuit evaluation inspects."""
    if isinstance(f, Const):
        return f.value
    if isinstance(f, Lit):
        trace.append((f.atom, sigma[f.atom]))
        return sigma[f.atom]
    if isinstance(f, Neg):
        return not classical(f.inner, sigma, trace)
    left = classical(f.left, sigma, trace)
    if left == isinstance(f, Dis):
        return left
    return classical(f.right, sigma, trace)


def leaf_order_atoms(f, atoms):
    """Appends f's atoms to atoms in left-to-right order of first occurrence."""
    if isinstance(f, Lit):
        if f.atom not in atoms:
            atoms.append(f.atom)
    elif isinstance(f, Neg):
        leaf_order_atoms(f.inner, atoms)
    elif not isinstance(f, Const):
        leaf_order_atoms(f.left, atoms)
        leaf_order_atoms(f.right, atoms)
    return atoms


def lex_greatest_trace(f):
    """The trace of the lex-greatest assignment making f true, or None: the
    assignments as the numbers 2^k - 1 down to 0, the first atom the highest
    bit and 1 for true."""
    atoms = leaf_order_atoms(f, [])
    k = len(atoms)
    for number in range(2 ** k - 1, -1, -1):
        sigma = {atom: bool(number >> (k - 1 - i) & 1) for i, atom in enumerate(atoms)}
        trace = []
        if classical(f, sigma, trace):
            return tuple(trace)
    return None


class TestWalkCertified:
    def test_answers_match_oracle(self, monkeypatch):
        # Searching is an error: every formula here has at most four atoms.
        monkeypatch.setattr(sat_solvers, "_clausify", _raise_if_searched)
        monkeypatch.setattr(sat_solvers, "_cdcl", _raise_if_searched)
        rng = random.Random(22)
        seeded = [_random_formula(rng, ["a", "b", "c", "d"], rng.randint(3, 40)) for _ in range(2000)]
        at_four = {"yes": 0, "no": 0}
        fscl_no = 0
        for f in itertools.chain(SUITE, seeded):
            expected = lex_greatest_trace(f)
            out = sat_boolean(Logic.MSCL, f)
            if out.answer == "no":
                assert expected is None
            else:
                assert out.answer == "yes" and out.witness == expected
            if len(leaf_order_atoms(f, [])) == 4:
                at_four[out.answer] += 1
            if solve(Logic.FSCL, f).answer == "no":
                fscl_no += 1
                assert not leaf_profile(se(f)).has_true
        # 482 yes and 136 no at four atoms; 5,887 FSCL "no" in all.
        assert at_four == {"yes": 482, "no": 136}
        assert fscl_no == 5887


class TestSingleCount:
    @pytest.mark.parametrize("text", ["a && (b || !c)", "!a", "a && !b", "a && b && c && d && !e"],
                             ids=["hit", "one_atom_miss", "two_atom_miss", "five_atom_miss"])
    def test_one_count_per_call(self, text, monkeypatch):
        calls = []

        def spy(*args, real=_atoms_and_size):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(sat_solvers, "_atoms_and_size", spy)
        f = parse(text)
        for logic in (Logic.MSCL, Logic.FSCL):
            del calls[:]
            sat_boolean(logic, f)
            assert len(calls) == 1

    def assert_matches_reference(self, f):
        # tseitin_reference's clauses are the full encoding, and its atoms
        # come in first-occurrence post-order.
        clauses, atom_var, _ = tseitin_reference(f)
        atoms, size = _atoms_and_size(f)
        assert list(atoms.items()) == [(atom, i + 1) for i, atom in enumerate(atom_var)]
        assert size == len(clauses)

    def test_suite(self):
        for f in SUITE:
            self.assert_matches_reference(f)

    # Deeper than the recursion limit: criterion 10's chain (a miss on 5,000
    # atoms), 3,000 negations of one atom and the flat 1,200-atom chain.
    @pytest.mark.parametrize("make", [
        _criterion_10_chain, lambda: parse("!" * 3000 + "a"),
        lambda: parse(" && ".join(f"x{i}" for i in range(1200))),
    ], ids=["chain_10000", "negations_3000", "flat_chain_1200"])
    def test_deep_inputs(self, make):
        self.assert_matches_reference(make())

    @pytest.mark.parametrize("kinds", [("&&",), ("||", "!&&")])
    def test_shared_dags(self, kinds):
        self.assert_matches_reference(shared_dag(kinds, 60))

    @pytest.mark.parametrize("node", NOT_FORMULAS + [se(parse("a"))], ids=["int", "int_operand", "tree"])
    def test_non_formula_raises_type_error(self, node):
        with pytest.raises(TypeError, match="not a formula"):
            _atoms_and_size(node)
