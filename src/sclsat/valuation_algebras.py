"""Valuation algebras: stateful models of short-circuit evaluation.

A valuation algebra assigns to every atom a yield a/H (the truth value the atom
produces in state H) and a derivative a.H (the state left behind after the atom
was inspected).  Evaluating a formula threads the state left to right through
exactly the atoms a short-circuit evaluation inspects.

Algebra classes form a chain, each including the previous one:

    free             no conditions
    repetition-proof a/(a.H) = a/H
    contractive      repetition-proof and a.(a.H) = a.H
    memorizing       contractive and a/(b.a.H) = a/H, a.(b.(a.H)) = b.(a.H)
    static           memorizing and a/(b.H) = a/H

The norm-based constructors turn valuation paths into algebras: ``build_va``
yields a repetition-proof path algebra whose evaluation replays the path,
``build_cva`` contracts the path first (contractive output), and ``build_sva``
collapses a memorizing path into a single-state static algebra.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Callable, Hashable, Sequence

from .formula_core import Con, Const, Dis, Formula, Lit, Neg
from .paths import ValuationPath, contract

State = Hashable


class StateError(ValueError):
    """A derivative left the algebra's state window."""


@dataclass(frozen=True)
class AlgebraClass:
    """Class-membership flags; the chain static => memorizing => contractive
    => repetition_proof always holds for checker outputs."""

    repetition_proof: bool = False
    contractive: bool = False
    memorizing: bool = False
    static: bool = False

    def includes(self, requested: "AlgebraClass") -> bool:
        return (
            (self.repetition_proof or not requested.repetition_proof)
            and (self.contractive or not requested.contractive)
            and (self.memorizing or not requested.memorizing)
            and (self.static or not requested.static)
        )


FREE = AlgebraClass()
REPETITION_PROOF = AlgebraClass(repetition_proof=True)
CONTRACTIVE = AlgebraClass(repetition_proof=True, contractive=True)
MEMORIZING = AlgebraClass(repetition_proof=True, contractive=True, memorizing=True)
STATIC = AlgebraClass(
    repetition_proof=True, contractive=True, memorizing=True, static=True
)


@dataclass(frozen=True)
class FiniteAlgebra:
    """Tabulated valuation algebra over states 1..n."""

    num_states: int
    alphabet: tuple[str, ...]
    eval_table: dict[str, tuple[bool, ...]] = field(hash=False)
    deriv_table: dict[str, tuple[int, ...]] = field(hash=False)

    def __post_init__(self) -> None:
        if self.num_states < 1:
            raise ValueError("an algebra needs at least one state")
        for a in self.alphabet:
            if len(self.eval_table[a]) != self.num_states:
                raise ValueError(f"eval table for {a!r} has the wrong length")
            if len(self.deriv_table[a]) != self.num_states:
                raise ValueError(f"deriv table for {a!r} has the wrong length")
            for s in self.deriv_table[a]:
                if not 1 <= s <= self.num_states:
                    raise ValueError(f"derivative {s} out of range for {a!r}")

    @property
    def states(self) -> tuple[int, ...]:
        return tuple(range(1, self.num_states + 1))

    def atom_eval(self, atom: str, state: int) -> bool:
        return self.eval_table[atom][state - 1]

    def atom_deriv(self, atom: str, state: int) -> int:
        return self.deriv_table[atom][state - 1]

    def to_json(self) -> str:
        payload = {
            "states": self.num_states,
            "alphabet": list(self.alphabet),
            "eval": {a: list(self.eval_table[a]) for a in self.alphabet},
            "deriv": {a: list(self.deriv_table[a]) for a in self.alphabet},
        }
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text: str) -> "FiniteAlgebra":
        payload = json.loads(text)
        alphabet = tuple(payload["alphabet"])
        return cls(
            num_states=payload["states"],
            alphabet=alphabet,
            eval_table={a: tuple(bool(v) for v in payload["eval"][a]) for a in alphabet},
            deriv_table={a: tuple(int(v) for v in payload["deriv"][a]) for a in alphabet},
        )


@dataclass(frozen=True)
class FunctionAlgebra:
    """Valuation algebra given by yield/derivative functions on an explicit
    finite state window; derivatives escaping the window raise StateError."""

    alphabet: tuple[str, ...]
    window: tuple[State, ...]
    eval_fn: Callable[[str, State], bool]
    deriv_fn: Callable[[str, State], State]

    @property
    def states(self) -> tuple[State, ...]:
        return self.window

    def atom_eval(self, atom: str, state: State) -> bool:
        if atom not in self.alphabet:
            raise KeyError(atom)
        return self.eval_fn(atom, state)

    def atom_deriv(self, atom: str, state: State) -> State:
        if atom not in self.alphabet:
            raise KeyError(atom)
        nxt = self.deriv_fn(atom, state)
        if nxt not in self.window:
            raise StateError(f"derivative of {atom!r} left the state window: {nxt!r}")
        return nxt


ValuationAlgebra = FiniteAlgebra | FunctionAlgebra


# --- formula evaluation -----------------------------------------------------

def _evaluate(
    v: ValuationAlgebra, f: Formula, h: State, record_path: bool
) -> tuple[bool, State, ValuationPath]:
    """One left-to-right short-circuit evaluation of f from state h, returning
    (yield, end state, inspected path).  Iterative: the pending-work stack
    holds None for a negation and (continue_on, right_operand) for a binary
    node, so arbitrarily deep formulas evaluate without recursion."""
    entries: list[tuple[str, bool]] = []
    frames: list[tuple[bool, Formula] | None] = []
    current = f
    state = h
    while True:
        while True:
            if isinstance(current, Const):
                value = current.value
                break
            if isinstance(current, Lit):
                value = v.atom_eval(current.atom, state)
                if record_path:
                    entries.append((current.atom, value))
                state = v.atom_deriv(current.atom, state)
                break
            if isinstance(current, Neg):
                frames.append(None)
                current = current.inner
            elif isinstance(current, Con):
                frames.append((True, current.right))
                current = current.left
            elif isinstance(current, Dis):
                frames.append((False, current.right))
                current = current.left
            else:
                raise TypeError(f"not a formula: {current!r}")
        while frames:
            frame = frames.pop()
            if frame is None:
                value = not value
                continue
            continue_on, right = frame
            if value == continue_on:
                current = right
                break
            # Short-circuit: the binary node's value is the left operand's.
        else:
            return value, state, tuple(entries)


def eval_formula(v: ValuationAlgebra, f: Formula, h: State) -> bool:
    """The yield f/H of a short-circuit evaluation of f starting in state H:
    T/H = T, a/H = atom_eval, (!x)/H = not x/H, (x && y)/H = y/(x.H) when
    x/H holds else F, plus the derived F and || clauses."""
    return _evaluate(v, f, h, False)[0]


def deriv_formula(v: ValuationAlgebra, f: Formula, h: State) -> State:
    """The state f.H left behind by a short-circuit evaluation of f from H."""
    return _evaluate(v, f, h, False)[1]


def evaluation_path(v: ValuationAlgebra, f: Formula, h: State) -> ValuationPath:
    """The sequence of (atom, yield) pairs inspected while evaluating f from H."""
    return _evaluate(v, f, h, True)[2]


def congruent(v: ValuationAlgebra, x: Formula, y: Formula) -> bool:
    """True when x and y agree on yield and derivative from every state."""
    for state in v.states:
        try:
            xv, xs, _ = _evaluate(v, x, state, False)
            yv, ys, _ = _evaluate(v, y, state, False)
        except StateError:
            # Out-of-window behaviour is outside the algebra; skip such states.
            continue
        if xv != yv or xs != ys:
            return False
    return True


# --- class membership -------------------------------------------------------

def class_check(v: ValuationAlgebra) -> AlgebraClass:
    """Exhaustive class flags over the algebra's finite state set.  The flags
    are cumulative: each level is only reported when all weaker ones hold."""
    ev = v.atom_eval
    dv = v.atom_deriv
    alphabet = v.alphabet
    states = v.states
    try:
        rp = all(ev(a, dv(a, h)) == ev(a, h) for a in alphabet for h in states)
        cn = rp and all(dv(a, dv(a, h)) == dv(a, h) for a in alphabet for h in states)
        mem = cn and all(
            ev(a, mid := dv(b, dv(a, h))) == ev(a, h) and dv(a, mid) == mid
            for a in alphabet
            for b in alphabet
            for h in states
        )
        st = mem and all(
            ev(a, dv(b, h)) == ev(a, h) for a in alphabet for b in alphabet for h in states
        )
    except StateError:
        return FREE
    return AlgebraClass(rp, cn, mem, st)


# --- path-indexed constructors ----------------------------------------------

def _path_alphabet(p: ValuationPath, extra: Sequence[str] | None) -> tuple[str, ...]:
    atoms = {atom for atom, _ in p}
    if extra is not None:
        atoms.update(extra)
    return tuple(sorted(atoms))


def build_va(p: ValuationPath, alphabet: Sequence[str] | None = None) -> FiniteAlgebra:
    """The path algebra of p: states 1..n+1, state i meaning the first i-1
    entries were consumed.  Consuming entry i advances the state; any other
    atom leaves it unchanged and yields its most recent value on the consumed
    prefix (false if it never occurred).  Always repetition-proof, and the
    evaluation path of any formula that walks p from state 1 is p itself.

    One forward sweep over p fills the tables: the entry at position j (from
    0) sets its atom's yield from state j+1 up to the atom's next occurrence
    and its derivative at state j+1 to j+2.  The cost is O(|alphabet| * n),
    the size of the tables."""
    n = len(p)
    alphabet = _path_alphabet(p, alphabet)
    evals = {a: [False] * (n + 1) for a in alphabet}
    derivs = {a: list(range(1, n + 2)) for a in alphabet}
    # Start of the yield run each atom's latest occurrence opened.
    run_start: dict[str, int] = {}
    for j, (atom, _) in enumerate(p):
        if atom in run_start:
            start = run_start[atom]
            evals[atom][start:j] = [p[start][1]] * (j - start)
        run_start[atom] = j
        derivs[atom][j] = j + 2
    for atom, start in run_start.items():
        evals[atom][start:] = [p[start][1]] * (n + 1 - start)
    # Popping frees each list as its tuple is made, so the two copies of the
    # tables never coexist.
    eval_table = {a: tuple(evals.pop(a)) for a in alphabet}
    deriv_table = {a: tuple(derivs.pop(a)) for a in alphabet}
    return FiniteAlgebra(n + 1, alphabet, eval_table, deriv_table)


def build_cva(p: ValuationPath, alphabet: Sequence[str] | None = None) -> FiniteAlgebra:
    """The path algebra of the contraction of p; contractive by construction."""
    return build_va(contract(p), alphabet)


def build_sva(p: ValuationPath, alphabet: Sequence[str] | None = None) -> FiniteAlgebra:
    """Single-state static algebra of a memorizing path: an atom yields true
    iff some entry of p asserts it true."""
    alphabet = _path_alphabet(p, alphabet)
    asserted = {atom for atom, value in p if value}
    eval_table = {a: (a in asserted,) for a in alphabet}
    deriv_table = {a: (1,) for a in alphabet}
    return FiniteAlgebra(1, alphabet, eval_table, deriv_table)


def project_static(v: ValuationAlgebra, h: State) -> FiniteAlgebra:
    """Freeze a static algebra at one state: the single-state algebra where
    every atom keeps the yield it has at h.  Agrees with v on the yield of
    every formula evaluated from h."""
    if not class_check(v).static:
        raise ValueError("project_static requires a static algebra")
    alphabet = tuple(v.alphabet)
    eval_table = {a: (v.atom_eval(a, h),) for a in alphabet}
    deriv_table = {a: (1,) for a in alphabet}
    return FiniteAlgebra(1, alphabet, eval_table, deriv_table)


# --- example algebras -------------------------------------------------------

def fixture_algebras() -> dict[str, FunctionAlgebra]:
    """Three illustrative algebras over {a, b} on bounded state windows.

    trivial: one state, a true, b false.  counter: natural-number counter
    where a always holds and steps the counter, b reads its parity.  collatz:
    a holds until the orbit reaches 1 and steps the Collatz map, b tests
    divisibility by 4.  The counter and collatz windows are finite; stepping
    outside raises StateError.
    """
    trivial = FunctionAlgebra(
        alphabet=("a", "b"),
        window=(1,),
        eval_fn=lambda atom, s: atom == "a",
        deriv_fn=lambda atom, s: s,
    )

    counter = FunctionAlgebra(
        alphabet=("a", "b"),
        window=tuple(range(64)),
        eval_fn=lambda atom, n: True if atom == "a" else n % 2 == 1,
        deriv_fn=lambda atom, n: n + 1 if atom == "a" else n,
    )

    def collatz_deriv(atom: str, n: int) -> int:
        if atom != "a" or n == 1:
            return n
        return n // 2 if n % 2 == 0 else 3 * n + 1

    collatz = FunctionAlgebra(
        alphabet=("a", "b"),
        window=tuple(range(1, 1024)),
        eval_fn=lambda atom, n: n > 1 if atom == "a" else n % 4 == 0,
        deriv_fn=collatz_deriv,
    )
    return {"trivial": trivial, "counter": counter, "collatz": collatz}


# --- random generation ------------------------------------------------------

# Rejection-sampling budget before falling back to a constructive family.
_REJECTION_ATTEMPTS = 500


def _random_yields(rng: random.Random, num_states: int, alphabet: Sequence[str]) -> dict[str, tuple[bool, ...]]:
    return {a: tuple(rng.random() < 0.5 for _ in range(num_states)) for a in alphabet}


def _random_tables(
    rng: random.Random, num_states: int, alphabet: Sequence[str]
) -> FiniteAlgebra:
    eval_table = _random_yields(rng, num_states, alphabet)
    deriv_table = {
        a: tuple(rng.randrange(1, num_states + 1) for _ in range(num_states))
        for a in alphabet
    }
    return FiniteAlgebra(num_states, tuple(alphabet), eval_table, deriv_table)


def _random_path(rng: random.Random, alphabet: Sequence[str], length: int) -> ValuationPath:
    return tuple(
        (rng.choice(list(alphabet)), rng.random() < 0.5) for _ in range(length)
    )


def _random_rp_path(rng: random.Random, alphabet: Sequence[str], length: int) -> ValuationPath:
    # Adjacent entries with the same atom must repeat its value.
    entries: list[tuple[str, bool]] = []
    for _ in range(length):
        atom = rng.choice(list(alphabet))
        if entries and entries[-1][0] == atom:
            entries.append((atom, entries[-1][1]))
        else:
            entries.append((atom, rng.random() < 0.5))
    return tuple(entries)


def _random_effect_free(rng: random.Random, max_states: int, alphabet: Sequence[str]) -> FiniteAlgebra:
    """Random yields with identity derivatives: an algebra whose state never
    moves, so it is static."""
    num_states = rng.randrange(1, max_states + 1)
    eval_table = _random_yields(rng, num_states, alphabet)
    deriv_table = {a: tuple(range(1, num_states + 1)) for a in alphabet}
    return FiniteAlgebra(num_states, tuple(alphabet), eval_table, deriv_table)


def random_algebra(
    class_target: AlgebraClass,
    max_states: int = 5,
    alphabet: Sequence[str] = ("a", "b", "c"),
    seed: int = 0,
) -> FiniteAlgebra:
    """A seeded random algebra whose class flags include the requested ones.

    Tries rejection sampling on random tables first for variety; if no sample
    passes within the attempt bound, falls back to a constructive family
    (path algebras for repetition-proof and contractive requests, identity
    derivatives for memorizing and static)."""
    if max_states < 1:
        raise ValueError("max_states must be at least 1")
    rng = random.Random(seed)
    if class_target == FREE:
        return _random_tables(rng, rng.randrange(1, max_states + 1), alphabet)

    if class_target.static:
        # The class conditions alone admit algebras that still move state
        # (e.g. a.1 = 2 with equal yields everywhere); those satisfy the
        # static flags but observably distinguish x && F from F by their
        # derivative, so the sampling family for static requests keeps
        # derivatives trivial.
        return _random_effect_free(rng, max_states, alphabet)

    for _ in range(_REJECTION_ATTEMPTS):
        candidate = _random_tables(rng, rng.randrange(1, max_states + 1), alphabet)
        if class_check(candidate).includes(class_target):
            return candidate

    if class_target.memorizing:
        # Identity-derivative algebras are static, hence also memorizing.
        return _random_effect_free(rng, max_states, alphabet)
    # Every request left is repetition-proof or contractive.
    p = _random_path(rng, alphabet, rng.randrange(0, max_states))
    if class_target.contractive:
        return build_cva(p, alphabet)
    # A repetition-proof request throws p away, but its draws stay: the seeded
    # algebras depend on them, as tests pin with _REJECTION_ATTEMPTS = 0.
    return build_va(_random_rp_path(rng, alphabet, rng.randrange(0, max_states)), alphabet)
