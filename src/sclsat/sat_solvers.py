"""Satisfiability testers for the five short-circuit logics.

A formula is satisfiable in a logic when its evaluation tree has a root-to-leaf
path ending in a true leaf whose recorded (atom, value) sequence respects the
logic's path discipline: any path for FSCL, repetition-proof for RPSCL and
CSCL, memorizing for MSCL and SSCL.  Satisfiability therefore collapses to
three problems; RPSCL and CSCL always answer alike, as do MSCL and SSCL.
Every solver sees a logic only through its discipline, ``Logic.discipline``.

Five testers are provided:

    sat_brute_control  depth-first search of the evaluation tree, checking the
                       discipline at every true leaf; the reference oracle
    sat_brute_force    the same search, pruned to repetition-proof traces
                       for RPSCL and CSCL
    sat_direct         linear bottom-up (satisfiable, falsifiable) pass and
                       a top-down trace that reads || through && under the
                       wanted value; decides FSCL exactly
    sat_open           se computed over guards instead of trees, in one
                       linear right-to-left pass; decides RPSCL and CSCL
    sat_boolean        classical reduction: memorizing paths are exactly the
                       traces under a boolean assignment, so the lex-greatest
                       assignment making f true decides MSCL and SSCL; it is
                       found by evaluating the assignments in descending lex
                       order, and past four atoms, after all-true, by
                       static-order CDCL

``solve`` dispatches by strategy, routes "auto" to the decision procedure for
the requested logic, and verifies every witness before returning it.  It
reuses its last verified outcome, kept in one slot keyed by the formula's
identity, for the sibling logic of the same formula object; ``falsify``, which
negates f afresh each call, and the ``sat_*`` testers never reuse one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from enum import Enum
from itertools import product
from typing import Callable, Optional

from .eval_tree import EvalTree, Leaf, fold_se, se
from .formula_core import Con, Const, Dis, Formula, Lit, Neg, postorder
from .paths import (
    PathDiscipline,
    ValuationPath,
    check_discipline,
    is_memorizing,
)
from .valuation_algebras import _evaluate, evaluation_path


class Logic(Enum):
    # The discipline is a plain attribute, read by the solvers on every call.
    FSCL = "FSCL", PathDiscipline.FREE
    RPSCL = "RPSCL", PathDiscipline.REPETITION_PROOF
    CSCL = "CSCL", PathDiscipline.REPETITION_PROOF
    MSCL = "MSCL", PathDiscipline.MEMORIZING
    SSCL = "SSCL", PathDiscipline.MEMORIZING

    discipline: PathDiscipline

    def __new__(cls, value: str, discipline: PathDiscipline) -> "Logic":
        member = object.__new__(cls)
        member._value_ = value
        member.discipline = discipline
        return member


def check_path(logic: Logic, p: ValuationPath) -> bool:
    return check_discipline(logic.discipline, p)


@dataclass(slots=True, unsafe_hash=True)
class SatOutcome:
    """A solver's answer on f in one logic.  node_visits counts one unit of
    work whose meaning depends on the solver: evaluation-tree nodes popped
    (brute-control, brute-force); distinct subformulas flagged plus formula
    nodes walked for the trace (direct); formula nodes popped by fold_se
    (open); and for boolean the size of f's full Tseitin encoding, 1 +
    distinct constants + 3 x distinct binary connectives
    (``_atoms_and_size``), however few clauses the search is given.
    leaves_explored counts the tree leaves the brute-force searches reach,
    and is 0 elsewhere.

    Nothing assigns a field after construction: ``solve`` hands the same
    object out again from its reuse slot, so a change would show in every
    later answer on that formula; ``dataclasses.replace`` makes a changed
    copy.  An outcome is slotted rather than frozen, which makes it about
    three times cheaper to build, and hashes by its fields."""

    answer: str  # "yes" | "no" | "unknown"
    witness: Optional[ValuationPath]
    logic: Logic
    solver: str
    node_visits: int = 0
    leaves_explored: int = 0

    def to_json(self) -> str:
        witness = None
        if self.witness is not None:
            witness = [[atom, value] for atom, value in self.witness]
        return json.dumps(
            {
                "answer": self.answer,
                "witness": witness,
                "logic": self.logic.value,
                "solver": self.solver,
                "node_visits": self.node_visits,
            }
        )

    def __reduce__(self):
        # A slotted class without __getstate__ pickles by default only under
        # protocol 2 and later; this serves protocols 0 and 1 as well.
        return self.__class__, (self.answer, self.witness, self.logic, self.solver,
                                self.node_visits, self.leaves_explored)


# --- witness verification ---------------------------------------------------

class _Mismatch(Exception):
    pass


class _PathFollower:
    """Pseudo-algebra whose state is an index into a fixed path; evaluating an
    atom that disagrees with the path aborts.  A formula evaluates to true
    from index 0 consuming the whole path exactly when the path is a
    root-to-leaf trace of the formula's evaluation tree ending in a true
    leaf."""

    __slots__ = ("path",)

    def __init__(self, path: ValuationPath):
        self.path = path

    def atom_eval(self, atom: str, index: int) -> bool:
        if index < len(self.path) and self.path[index][0] == atom:
            return self.path[index][1]
        raise _Mismatch

    def atom_deriv(self, atom: str, index: int) -> int:
        return index + 1


def verify_witness(f: Formula, p: ValuationPath) -> bool:
    """True when p is the trace of a true-leaf root-to-leaf path of se(f)."""
    try:
        value, end, _ = _evaluate(_PathFollower(p), f, 0, False)
    except _Mismatch:
        return False
    return value and end == len(p)


# --- brute-force search -----------------------------------------------------

# A cons list ((atom, value), rest) of path entries; None is the empty list.
_Cons = Optional[tuple[tuple[str, bool], "_Cons"]]  # type: ignore[misc]


def _cons_to_path(cell: _Cons) -> ValuationPath:
    """The entries of a cons list, head first."""
    entries = []
    while cell is not None:
        entries.append(cell[0])
        cell = cell[1]
    return tuple(entries)


def _search(logic: Logic, f: Formula, solver: str, prune: bool) -> SatOutcome:
    """Depth-first search of se(f), true branch first; the first true leaf
    whose trace passes the logic's path discipline wins.  With prune, a
    branch on the atom just recorded only follows that atom's last value, so
    every trace reached is repetition-proof.  Never Unknown."""
    visits = 0
    leaves = 0
    # The trail holds the trace so far, latest entry first.
    stack: list[tuple[EvalTree, _Cons]] = [(se(f), None)]
    while stack:
        node, trail = stack.pop()
        visits += 1
        if isinstance(node, Leaf):
            leaves += 1
            if node.value:
                path = _cons_to_path(trail)[::-1]
                if check_path(logic, path):
                    return SatOutcome("yes", path, logic, solver, visits, leaves)
        elif prune and trail is not None and trail[0][0] == node.atom:
            forced = trail[0][1]
            child = node.left if forced else node.right
            stack.append((child, ((node.atom, forced), trail)))
        else:
            stack.append((node.right, ((node.atom, False), trail)))
            stack.append((node.left, ((node.atom, True), trail)))
    return SatOutcome("no", None, logic, solver, visits, leaves)


def sat_brute_control(logic: Logic, f: Formula) -> SatOutcome:
    """Unpruned search of se(f); the reference oracle."""
    return _search(logic, f, "brute-control", prune=False)


def sat_brute_force(logic: Logic, f: Formula) -> SatOutcome:
    """Pruned search: RPSCL/CSCL never descend into a branch that would flip
    the value of the atom just recorded; FSCL and MSCL/SSCL search like the
    control.  Every true leaf satisfies FSCL, and every pruned trace is
    repetition-proof, so for those logics the first true leaf wins."""
    prune = logic.discipline is PathDiscipline.REPETITION_PROOF
    return _search(logic, f, "brute-force", prune)


# --- direct solver ----------------------------------------------------------

# Marks the connective below it on _sat_fal_flags's stack as ready to combine;
# not None, so that a None operand still raises TypeError.
_COMBINE = object()


def _sat_fal_flags(f: Formula) -> dict[int, tuple[bool, bool]]:
    """Bottom-up (satisfiable, falsifiable) flags per distinct subformula,
    keyed by identity, so shared subterms are computed once; the keys come in
    ``postorder``'s order.  One explicit stack: a connective met for the
    first time goes back on under a ``_COMBINE`` marker, above it its
    operands, and a popped marker combines the operands' flags.  Raises
    TypeError on a node that is not a formula."""
    flags: dict[int, tuple[bool, bool]] = {}
    stack: list[object] = [f]
    pop = stack.pop
    combine = _COMBINE
    while stack:
        node = pop()
        if node is combine:
            node = pop()
            if node.__class__ is Neg:
                sat, fal = flags[id(node.inner)]
                flags[id(node)] = (fal, sat)
                continue
            left_sat, left_fal = flags[id(node.left)]
            right_sat, right_fal = flags[id(node.right)]
            if node.__class__ is Con:
                flags[id(node)] = (left_sat and right_sat,
                                   left_fal or (left_sat and right_fal))
            else:
                flags[id(node)] = (left_sat or (left_fal and right_sat),
                                   left_fal and right_fal)
            continue
        cls = node.__class__
        # A leaf met again is set again, which keeps its first place.
        if cls is Lit:
            flags[id(node)] = (True, True)
        elif id(node) in flags:
            continue
        elif cls is Con or cls is Dis:
            stack += (node, combine, node.right, node.left)
        elif cls is Neg:
            stack += (node, combine, node.inner)
        elif cls is Const:
            flags[id(node)] = (node.value, not node.value)
        else:
            raise TypeError(f"not a formula: {node!r}")
    return flags


def sat_direct(logic: Logic, f: Formula) -> SatOutcome:
    """Linear two-phase tester: compute (satisfiable, falsifiable) flags
    bottom-up, then emit one candidate trace top-down.  Decides FSCL; for
    stricter logics the candidate either passes the discipline check (Yes) or
    leaves the question open (Unknown); FSCL-unsatisfiable is No for every
    logic.  The trace reads x || y through EqFSCL-2, x || y = !(!x && !y),
    so one rule, taken under the wanted value, serves both connectives."""
    flags = _sat_fal_flags(f)
    visits = len(flags)
    if not flags[id(f)][0]:
        return SatOutcome("no", None, logic, "direct", visits, 0)
    entries: list[tuple[str, bool]] = []
    work: list[tuple[Formula, bool]] = [(f, True)]
    while work:
        node, want_sat = work.pop()
        visits += 1
        cls = node.__class__
        if cls is Lit:
            entries.append((node.atom, want_sat))
            continue
        if cls is Const:
            continue
        if cls is Neg:
            work.append((node.inner, not want_sat))
            continue
        if (cls is Con) == want_sat:
            # Both operands must yield the wanted value, left then right.
            work.append((node.right, want_sat))
            work.append((node.left, want_sat))
        elif flags[id(node.left)][not want_sat]:
            # The left operand alone short-circuits to the wanted value.
            work.append((node.left, want_sat))
        else:
            work.append((node.right, want_sat))
            work.append((node.left, not want_sat))
    path = tuple(entries)
    if check_path(logic, path):
        return SatOutcome("yes", path, logic, "direct", visits, 0)
    return SatOutcome("unknown", None, logic, "direct", visits, 0)


# --- open (guard) solver ----------------------------------------------------

# A guard summarizes all viable continuations of a partially built path:
# None is a dead end, _EMPTY means the remaining path is empty, and a triple
# (atom, cons_if_true, cons_if_false) holds one complete continuation per
# possible first entry.  Paths are shared suffix cons lists.
_EMPTY = object()


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


def _guard(g_true, lit: Lit, g_false):
    """The guard of a literal with continuations g_true and g_false."""
    slot_true = _lit_slot(lit.atom, True, g_true)
    slot_false = _lit_slot(lit.atom, False, g_false)
    if slot_true is None and slot_false is None:
        return None
    return (lit.atom, slot_true, slot_false)


def sat_open(logic: Logic, f: Formula) -> SatOutcome:
    """se computed over guards: each node gets the guards viable when it
    yields true resp. false, and each literal splices itself onto the matching
    one, respecting adjacency with the next atom.  The formula's guard holds a
    repetition-proof true trace when one exists, so this decides RPSCL and
    CSCL; a found path also settles FSCL, and MSCL/SSCL when it is memorizing;
    no repetition-proof path is No for everything except FSCL."""
    final, visits = fold_se(f, _EMPTY, None, _guard)
    discipline = logic.discipline
    if final is None:
        if discipline is PathDiscipline.FREE:
            return SatOutcome("unknown", None, logic, "open", visits, 0)
        return SatOutcome("no", None, logic, "open", visits, 0)
    if final is _EMPTY:
        path: ValuationPath = ()
    else:
        _, slot_true, slot_false = final
        path = _cons_to_path(slot_true if slot_true is not None else slot_false)
    if discipline is PathDiscipline.MEMORIZING and not is_memorizing(path):
        return SatOutcome("unknown", None, logic, "open", visits, 0)
    return SatOutcome("yes", path, logic, "open", visits, 0)


# --- boolean solver ---------------------------------------------------------

def _atoms_and_size(f: Formula) -> tuple[dict[str, int], int]:
    """f's atoms numbered 1..k in first-occurrence post-order, which is their
    left-to-right leaf order, and the clause count of f's full Tseitin
    encoding: 1 + distinct constants + 3 x distinct binary connectives.  One
    pre-order walk on an explicit stack, entering each distinct node once by
    identity; raises TypeError on a node that is not a formula."""
    atom_var: dict[str, int] = {}
    size = 1
    entered: set[int] = set()
    stack: list[Formula] = [f]
    while stack:
        node = stack.pop()
        cls = node.__class__
        if cls is Lit:
            if node.atom not in atom_var:
                atom_var[node.atom] = len(atom_var) + 1
        elif id(node) in entered:
            continue
        elif cls is Neg:
            entered.add(id(node))
            stack.append(node.inner)
        elif cls is Con or cls is Dis:
            entered.add(id(node))
            size += 3
            stack.append(node.right)
            stack.append(node.left)
        elif cls is Const:
            entered.add(id(node))
            size += 1
        else:
            raise TypeError(f"not a formula: {node!r}")
    return atom_var, size


def _clausify(
    f: Formula, count: Optional[tuple[dict[str, int], int]] = None
) -> tuple[Optional[list[list[int]]], dict[str, int], int, int]:
    """CNF whose models are the boolean assignments making f classically true.
    Returns (clauses, atom variable map, variable count, size).  clauses is
    None when a constant refutes f outright; no clause is ever empty.  The
    atom map and size are ``_atoms_and_size(f)``, taken from count when the
    caller has it; size is the clause count of f's full Tseitin encoding,
    whatever this encoding emits.

    f is asserted true top-down on an explicit stack: a negation flips the
    polarity, and a conjunction asserted true or a disjunction asserted false
    splits into its operands.  An asserted atom is a unit clause; an asserted
    constant drops out or refutes f.  A disjunction asserted true or a
    conjunction asserted false becomes one clause: its flattened chain of
    same-kind operands, read through negations, left operand first.  In that
    chain a true constant satisfies the clause and a false one drops out; any
    other operand enters as the literal of a Tseitin gate, defined by full
    equivalence with three clauses per connective.  Each (node, polarity) is
    asserted once and each node is flattened into one clause at most; a node
    reached again inside a clause, or one gated already, enters through its
    gate, so the encoding is linear in f's distinct nodes.

    Atoms are numbered 1..k in their first-occurrence post-order; gate and
    constant variables follow, in post-order, so each is defined by
    lower-numbered variables.  Static-order CDCL returns the lex-greatest
    model; every gate is propagated once the atoms are set, so only atoms are
    decided, and the model's atom part is the lex-greatest assignment of the
    atoms, in this order, that makes f true.  That fixes which witness is
    found."""
    atom_var, size = count if count is not None else _atoms_and_size(f)
    clauses: list[list[int]] = []
    next_var = len(atom_var)
    # The literal of each node beneath a gate, keyed by identity; gated holds
    # the same ids for postorder to skip.
    lit_of: dict[int, int] = {}
    gated: set[int] = set()

    def gate(root: Formula) -> int:
        """The literal of root, defining the gates beneath it in post-order."""
        nonlocal next_var
        for node in postorder(root, gated):
            if isinstance(node, Lit):
                lit_of[id(node)] = atom_var[node.atom]
            elif isinstance(node, Neg):
                lit_of[id(node)] = -lit_of[id(node.inner)]
            elif isinstance(node, Const):
                next_var += 1
                clauses.append([next_var if node.value else -next_var])
                lit_of[id(node)] = next_var
            else:
                left = lit_of[id(node.left)]
                right = lit_of[id(node.right)]
                next_var += 1
                g = next_var
                if isinstance(node, Con):
                    clauses.extend(([-g, left], [-g, right], [-left, -right, g]))
                else:
                    clauses.extend(([-g, left, right], [-left, g], [-right, g]))
                lit_of[id(node)] = g
        return lit_of[id(root)]

    asserted: set[tuple[int, bool]] = set()
    flattened: set[int] = set()
    stack: list[tuple[Formula, bool]] = [(f, True)]
    while stack:
        node, polarity = stack.pop()
        key = (id(node), polarity)
        if key in asserted:
            continue
        asserted.add(key)
        if isinstance(node, Lit):
            var = atom_var[node.atom]
            clauses.append([var if polarity else -var])
        elif isinstance(node, Neg):
            stack.append((node.inner, not polarity))
        elif isinstance(node, Const):
            if node.value != polarity:
                return None, atom_var, next_var, size
        elif isinstance(node, Con) == polarity:
            stack.append((node.right, polarity))
            stack.append((node.left, polarity))
        else:
            clause: list[int] = []
            chain = [(node, polarity)]
            while chain:
                operand, positive = chain.pop()
                if isinstance(operand, Lit):
                    lit = atom_var[operand.atom]
                elif isinstance(operand, Const):
                    if operand.value == positive:
                        break
                    continue
                elif id(operand) in flattened or id(operand) in gated:
                    lit = gate(operand)
                elif isinstance(operand, Neg):
                    flattened.add(id(operand))
                    chain.append((operand.inner, not positive))
                    continue
                elif isinstance(operand, Dis) == positive:
                    flattened.add(id(operand))
                    chain.append((operand.right, positive))
                    chain.append((operand.left, positive))
                    continue
                else:
                    lit = gate(operand)
                clause.append(lit if positive else -lit)
            else:
                if not clause:
                    return None, atom_var, next_var, size
                clauses.append(clause)
    return clauses, atom_var, next_var, size


def _cdcl(clauses: list[list[int]], num_vars: int) -> Optional[dict[int, bool]]:
    """Static-order CDCL, which returns the lex-greatest model: the model that
    is greatest when variables are compared from the lowest number up, with
    true above false; None when the clauses are unsatisfiable.

    Clauses are non-empty lists of non-zero integers, -v standing for the
    negation of variable v in 1..num_vars; repeated literals and tautologies
    are allowed, and the list is not modified.  Each decision sets the
    lowest-numbered unassigned variable true.  Unit propagation uses two
    watched literals per clause (Chaff); a conflict is analysed to its first
    unique implication point and the learned clause backjumps
    non-chronologically (GRASP).  Learned clauses are kept for the whole
    call; there is no activity heuristic, phase saving or restart.  On the
    clauses of ``_clausify`` every variable above the atoms is defined by
    lower-numbered ones, so once the atoms are decided propagation sets the
    rest: only atoms are ever decided.

    Why the model is the lex-greatest one, M*: learned clauses are implied
    by the input, so M* satisfies them too, and propagation from a trail
    that agrees with M* stays in agreement with it.  Take the first decision
    v := true where M*(v) is false.  Every variable below v is then assigned
    as in M*, so a model extending that trail would be lex-greater than M*;
    none does, and the search must backjump below v, where the trail agrees
    with M* again and the asserted literal is implied.  Only a full
    assignment that agrees with M* can be returned."""
    # Every array is indexed by literal: a negative literal indexes from the
    # end, so both polarities index directly.  value[lit] is True, False or
    # None; level, reason and seen are read at the literal on the trail,
    # reason only where propagation set it.
    size = 2 * num_vars + 1
    value: list[Optional[bool]] = [None] * size
    level = [0] * size
    reason: list[Optional[list[int]]] = [None] * size
    seen = [False] * size
    # watches[lit] holds the clauses watching lit, visited when lit turns
    # false; a watched clause keeps its two watched literals in front.
    watches: list[list[list[int]]] = [[] for _ in range(size)]
    trail: list[int] = []
    for clause in clauses:
        # A clause never watches one literal twice: a repeat in front is
        # dropped here, and the search for a new watch skips the other one.
        # A tautology, holding x and -x, never becomes unit or conflicting.
        if len(clause) > 1 and clause[0] == clause[1]:
            clause = list(dict.fromkeys(clause))
        if len(clause) == 1:
            lit = clause[0]
            if value[lit] is None:
                value[lit] = True
                value[-lit] = False
                trail.append(lit)
            elif not value[lit]:
                return None
        else:
            lits = list(clause)
            watches[lits[0]].append(lits)
            watches[lits[1]].append(lits)
    limits: list[int] = []  # trail length at each decision
    head = 0
    next_var = 1
    while True:
        conflict: Optional[list[int]] = None
        current = len(limits)
        while head < len(trail):
            false_lit = -trail[head]
            head += 1
            # Compact the watch list in place: kept clauses move down to j.
            watching = watches[false_lit]
            j = 0
            for i, c in enumerate(watching):
                other = c[0]
                if other == false_lit:
                    other = c[1]
                    c[0] = other
                    c[1] = false_lit
                if value[other]:
                    watching[j] = c
                    j += 1
                    continue
                for k in range(2, len(c)):
                    lit = c[k]
                    if value[lit] is not False and lit != other:
                        c[1] = lit
                        c[k] = false_lit
                        watches[lit].append(c)
                        break
                else:
                    watching[j] = c
                    j += 1
                    if value[other] is None:
                        # Unit: the implied literal stays in front as c[0].
                        value[other] = True
                        value[-other] = False
                        level[other] = current
                        reason[other] = c
                        trail.append(other)
                    else:
                        conflict = c
                        # Keep the clauses not yet visited.
                        del watching[j:i + 1]
                        break
            if conflict is not None:
                break
            del watching[j:]
        if conflict is not None:
            if not current:
                return None
            # 1UIP: resolve backwards along the trail until one literal of the
            # conflict level is left; it is negated into learned[0].
            learned = [0]
            pending = 0
            c = conflict
            start = 0
            index = len(trail) - 1
            while True:
                for k in range(start, len(c)):
                    lit = -c[k]
                    if not seen[lit] and level[lit]:
                        seen[lit] = True
                        if level[lit] == current:
                            pending += 1
                        else:
                            learned.append(-lit)
                while not seen[trail[index]]:
                    index -= 1
                uip = trail[index]
                index -= 1
                seen[uip] = False
                pending -= 1
                if not pending:
                    break
                c = reason[uip]  # type: ignore[assignment]
                start = 1
            learned[0] = -uip
            back = 0
            if len(learned) > 1:
                # Watch the deepest remaining literal, the last to be undone.
                best = 1
                for k in range(1, len(learned)):
                    seen[-learned[k]] = False
                    if level[-learned[k]] > level[-learned[best]]:
                        best = k
                learned[1], learned[best] = learned[best], learned[1]
                back = level[-learned[1]]
                watches[learned[0]].append(learned)
                watches[learned[1]].append(learned)
            # Every variable below the decision that opened level back + 1
            # was assigned before it, so that decision is the lowest variable
            # the backjump unassigns.
            mark = limits[back]
            next_var = trail[mark]
            for lit in trail[mark:]:
                value[lit] = value[-lit] = None
            del trail[mark:]
            del limits[back:]
            head = mark
            lit = learned[0]
            value[lit] = True
            value[-lit] = False
            level[lit] = back
            reason[lit] = learned
            trail.append(lit)
            continue
        while next_var <= num_vars and value[next_var] is not None:
            next_var += 1
        if next_var > num_vars:
            return {var: bool(value[var]) for var in range(1, num_vars + 1)}
        limits.append(len(trail))
        value[next_var] = True
        value[-next_var] = False
        level[next_var] = len(limits)
        trail.append(next_var)


class _StaticAlgebra:
    """The static valuation algebra of sigma: every atom constantly yields
    sigma[atom] (true if absent) and no state changes."""

    __slots__ = ("sigma",)

    def __init__(self, sigma: dict[str, bool]):
        self.sigma = sigma

    def atom_eval(self, atom: str, state: int) -> bool:
        return self.sigma.get(atom, True)

    def atom_deriv(self, atom: str, state: int) -> int:
        return state


# The top of the lex order: every atom yields true.
_ALL_TRUE = _StaticAlgebra({})

# The most atoms whose assignments are walked without a search.
_WALK_ATOMS = 4


def sat_boolean(logic: Logic, f: Formula) -> SatOutcome:
    """Reduce to classical satisfiability: a memorizing true trace exists
    exactly when some boolean assignment makes f classically true.  The
    witness is the trace of the lex-greatest such assignment, with atoms
    numbered in first-occurrence post-order and true above false; static
    evaluation is classical and gives value and trace in one pass.
    node_visits is the size of f's full Tseitin encoding.  Decides MSCL and
    SSCL; a model also yields a witness for the looser logics, while
    boolean-unsatisfiable leaves them Unknown.

    The assignments are walked in descending lex order, all-true first.  The
    first that makes f true is the atom part of the lex-greatest model that
    static-order CDCL finds on ``_clausify``'s encoding, and an exhausted
    walk means that no model exists.  On more than ``_WALK_ATOMS`` atoms
    only all-true is tried, and a miss is clausified, with its asserted top
    as plain clauses and Tseitin gates only beneath it, and searched."""
    value, _, path = _evaluate(_ALL_TRUE, f, 0, True)
    count = _atoms_and_size(f)
    atom_var, size = count
    if not value and len(atom_var) <= _WALK_ATOMS:
        candidates = product((True, False), repeat=len(atom_var))
        next(candidates)  # all-true, tried above
        for values in candidates:
            value, _, path = _evaluate(_StaticAlgebra(dict(zip(atom_var, values))), f, 0, True)
            if value:
                break
    if value:
        return SatOutcome("yes", path, logic, "boolean", size, 0)
    if len(atom_var) <= _WALK_ATOMS:
        model = None
    else:
        clauses, _, num_vars, _ = _clausify(f, count)
        model = None if clauses is None else _cdcl(clauses, num_vars)
    if model is None:
        if logic.discipline is PathDiscipline.MEMORIZING:
            return SatOutcome("no", None, logic, "boolean", size, 0)
        return SatOutcome("unknown", None, logic, "boolean", size, 0)
    sigma = {atom: model[var] for atom, var in atom_var.items()}
    # The trace under sigma, memorizing by construction.
    path = evaluation_path(_StaticAlgebra(sigma), f, 0)
    return SatOutcome("yes", path, logic, "boolean", size, 0)


# --- dispatcher -------------------------------------------------------------

_STRATEGIES: dict[str, Callable[[Logic, Formula], SatOutcome]] = {
    "brute-control": sat_brute_control,
    "brute-force": sat_brute_force,
    "direct": sat_direct,
    "open": sat_open,
    "boolean": sat_boolean,
}


def _auto_solver(logic: Logic) -> Callable[[Logic, Formula], SatOutcome]:
    discipline = logic.discipline
    if discipline is PathDiscipline.FREE:
        return sat_direct
    if discipline is PathDiscipline.REPETITION_PROOF:
        return sat_open
    return sat_boolean


# The last outcome solve returned, as one (formula, discipline, strategy,
# outcome) tuple.  It is replaced whole and never mutated, so a concurrent
# caller reads either the old tuple or the new one.
_last: Optional[tuple[Formula, PathDiscipline, str, SatOutcome]] = None


def solve(logic: Logic, f: Formula, strategy: str = "auto") -> SatOutcome:
    """Dispatch to a solver.  "auto" routes each logic to its decision
    procedure (FSCL -> direct, RPSCL/CSCL -> open, MSCL/SSCL -> boolean),
    each exact on that logic, so it never answers Unknown; an Unknown from
    one of them is a bug and raises RuntimeError.  Every Yes is re-verified
    against the evaluation tree and the logic's path discipline before being
    returned.

    Every solver's outcome depends on the logic only through its path
    discipline, apart from the ``logic`` field, so solve keeps its last
    verified outcome in one slot: called again with the same formula object
    (``is``, never ``==`` or ``hash``), the same discipline and the same
    strategy, it returns that outcome with ``logic`` replaced and runs no
    solver.  Deciding one formula in all five logics thus runs each decision
    procedure once.  A call that raises stores nothing, and the slot keeps
    the last formula alive until the next call."""
    global _last
    discipline = logic.discipline
    last = _last
    if last is not None and last[0] is f and last[1] is discipline and last[2] == strategy:
        outcome = last[3]
        return outcome if outcome.logic is logic else replace(outcome, logic=logic)
    if strategy == "auto":
        outcome = _auto_solver(logic)(logic, f)
        if outcome.answer == "unknown":
            raise RuntimeError(
                f"solver {outcome.solver!r} answered unknown on {logic.value}, "
                f"where it is a decision procedure"
            )
    else:
        try:
            solver = _STRATEGIES[strategy]
        except KeyError:
            raise ValueError(f"unknown strategy: {strategy!r}") from None
        outcome = solver(logic, f)
    if outcome.answer == "yes":
        assert outcome.witness is not None
        if not verify_witness(f, outcome.witness) or not check_path(logic, outcome.witness):
            raise RuntimeError(
                f"solver {outcome.solver!r} produced an invalid witness for "
                f"{logic.value}: {outcome.witness!r}"
            )
    _last = (f, discipline, strategy, outcome)
    return outcome


def falsify(logic: Logic, f: Formula, strategy: str = "auto") -> SatOutcome:
    """Falsifiability as satisfiability of the negation; a Yes witness traces
    se(f) to a false leaf.  Each call negates f afresh, so it never reuses
    the outcome solve kept from an earlier call."""
    return solve(logic, Neg(f), strategy)
