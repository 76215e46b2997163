"""The five equational axiom systems as executable data.

Axioms are stored as formula templates over the metavariables x, y, z, u
(instantiated with arbitrary formulas) and the atom metavariables a, b
(instantiated with atoms).  Soundness is checked two ways: structural equality
of evaluation trees (the free-logic criterion) and congruence on a finite
valuation algebra (the class-model criterion).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .eval_tree import FALSE_LEAF, TRUE_LEAF, Branch, EvalTree, fold_se
from .formula_core import Con, Dis, Formula, Lit, Neg, atoms_of, parse, postorder
from .valuation_algebras import ValuationAlgebra, congruent

FORMULA_METAVARS = ("x", "y", "z", "u")
ATOM_METAVARS = ("a", "b")

SYSTEMS = ("EqFSCL", "EqRPSCL", "EqCSCL", "EqMSCL", "EqSSCL")


@dataclass(frozen=True)
class AxiomScheme:
    name: str
    system: str
    lhs: Formula
    rhs: Formula
    # The first two EqFSCL entries introduce F and || and are defining
    # equations rather than proper axioms.
    defining: bool = False

    # Cached: a scheme is immutable, and `sclsat axioms --check` reads both
    # for every instance it draws.
    @cached_property
    def formula_vars(self) -> tuple[str, ...]:
        used = atoms_of(self.lhs) | atoms_of(self.rhs)
        return tuple(v for v in FORMULA_METAVARS if v in used)

    @cached_property
    def atom_vars(self) -> tuple[str, ...]:
        used = atoms_of(self.lhs) | atoms_of(self.rhs)
        return tuple(v for v in ATOM_METAVARS if v in used)


def _scheme(name: str, system: str, lhs: str, rhs: str, defining: bool = False) -> AxiomScheme:
    return AxiomScheme(name, system, parse(lhs), parse(rhs), defining)


_EQFSCL = [
    _scheme("EqFSCL-1", "EqFSCL", "F", "!T", defining=True),
    _scheme("EqFSCL-2", "EqFSCL", "x || y", "!(!x && !y)", defining=True),
    _scheme("EqFSCL-3", "EqFSCL", "!!x", "x"),
    _scheme("EqFSCL-4", "EqFSCL", "T && x", "x"),
    _scheme("EqFSCL-5", "EqFSCL", "x && T", "x"),
    _scheme("EqFSCL-6", "EqFSCL", "F && x", "F"),
    _scheme("EqFSCL-7", "EqFSCL", "(x && y) && z", "x && (y && z)"),
    _scheme("EqFSCL-8", "EqFSCL", "x && F", "!x && F"),
    _scheme("EqFSCL-9", "EqFSCL", "(x && F) || y", "(x || T) && y"),
    _scheme(
        "EqFSCL-10",
        "EqFSCL",
        "(x && y) || (z && F)",
        "(x || (z && F)) && (y || (z && F))",
    ),
]

_EQRPSCL_EXTRA = [
    _scheme("EqRPSCL-1", "EqRPSCL", "a && (a || x)", "a && a"),
    # Dual of EqRPSCL-1.  The right-hand side must be a || a: with a && a the
    # two sides differ in their derivative (a.H versus a.(a.H)) whenever the
    # algebra is repetition-proof but not contractive.
    _scheme("EqRPSCL-2", "EqRPSCL", "a || (a && x)", "a || a"),
    _scheme("EqRPSCL-3", "EqRPSCL", "(a || !a) && x", "(!a && a) || x"),
    _scheme("EqRPSCL-4", "EqRPSCL", "(!a || a) && x", "(a && !a) || x"),
    _scheme("EqRPSCL-5", "EqRPSCL", "(a && !a) && x", "a && !a"),
    _scheme("EqRPSCL-6", "EqRPSCL", "(!a && a) && x", "!a && a"),
    _scheme(
        "EqRPSCL-7",
        "EqRPSCL",
        "(x && y) || (a && !a)",
        "(x || (a && !a)) && (y || (a && !a))",
    ),
    _scheme(
        "EqRPSCL-8",
        "EqRPSCL",
        "(x && y) || (!a && a)",
        "(x || (!a && a)) && (y || (!a && a))",
    ),
]

_EQCSCL_EXTRA = [
    _scheme("EqCSCL-1", "EqCSCL", "a && (a || x)", "a"),
    _scheme("EqCSCL-2", "EqCSCL", "a || (a && x)", "a"),
    _scheme("EqCSCL-3", "EqCSCL", "a || !a", "a || T"),
    _scheme("EqCSCL-4", "EqCSCL", "a && !a", "a && F"),
]

_EQMSCL_EXTRA = [
    _scheme("EqMSCL-1", "EqMSCL", "x && (x || y)", "x"),
    _scheme("EqMSCL-2", "EqMSCL", "x && (y || z)", "(x && y) || (x && z)"),
    _scheme("EqMSCL-3", "EqMSCL", "(x && y) || (!x && z)", "(x || z) && (!x || y)"),
    _scheme("EqMSCL-4", "EqMSCL", "(x && y) || (!x && z)", "(!x && z) || (x && y)"),
    _scheme(
        "EqMSCL-5",
        "EqMSCL",
        "((x && y) || (!x && z)) && u",
        "(x && (y && u)) || (!x && (z && u))",
    ),
]

_EQSSCL_EXTRA = [
    _scheme("EqSSCL-1", "EqSSCL", "x && F", "F"),
]

# EqMSCL is EqFSCL with the last two axioms replaced.
_TABLES: dict[str, list[AxiomScheme]] = {
    "EqFSCL": _EQFSCL,
    "EqRPSCL": _EQFSCL + _EQRPSCL_EXTRA,
    "EqCSCL": _EQFSCL + _EQCSCL_EXTRA,
    "EqMSCL": _EQFSCL[:8] + _EQMSCL_EXTRA,
    "EqSSCL": _EQFSCL[:8] + _EQMSCL_EXTRA + _EQSSCL_EXTRA,
}


def axiom_table(system: str) -> list[AxiomScheme]:
    try:
        return list(_TABLES[system])
    except KeyError:
        raise ValueError(f"unknown axiom system: {system!r}") from None


class MissingBindingError(KeyError):
    pass


def _substitute(
    template: Formula,
    subst: dict[str, Formula],
    atom_subst: dict[str, str],
) -> Formula:
    out: dict[int, Formula] = {}
    for node in postorder(template):
        if isinstance(node, Lit) and node.atom in FORMULA_METAVARS + ATOM_METAVARS:
            try:
                new = (subst[node.atom] if node.atom in FORMULA_METAVARS
                       else Lit(atom_subst[node.atom]))
            except KeyError:
                raise MissingBindingError(node.atom) from None
        elif isinstance(node, Neg):
            new = Neg(out[id(node.inner)])
        elif isinstance(node, Con):
            new = Con(out[id(node.left)], out[id(node.right)])
        elif isinstance(node, Dis):
            new = Dis(out[id(node.left)], out[id(node.right)])
        else:
            new = node
        out[id(node)] = new
    return out[id(template)]


def instantiate(
    scheme: AxiomScheme,
    subst: dict[str, Formula] | None = None,
    atom_subst: dict[str, str] | None = None,
) -> tuple[Formula, Formula]:
    """Simultaneously replace metavariables on both sides of the scheme."""
    subst = subst or {}
    atom_subst = atom_subst or {}
    return (
        _substitute(scheme.lhs, subst, atom_subst),
        _substitute(scheme.rhs, subst, atom_subst),
    )


def check_fscl_soundness(lhs: Formula, rhs: Formula) -> bool:
    """Structural equality of evaluation trees: the equational criterion of
    the free logic.  Both trees are built over one table of unique branches,
    so equal trees are the same object and ``is`` decides equality in time
    linear in the two formulas, however many leaves the trees have."""
    unique: dict[tuple[int, str, int], Branch] = {}

    def branch(t: EvalTree, lit: Lit, e: EvalTree) -> EvalTree:
        key = (id(t), lit.atom, id(e))
        node = unique.get(key)
        if node is None:
            node = unique[key] = Branch(t, lit.atom, e)
        return node

    left = fold_se(lhs, TRUE_LEAF, FALSE_LEAF, branch)[0]
    return left is fold_se(rhs, TRUE_LEAF, FALSE_LEAF, branch)[0]


def check_model_soundness(v: ValuationAlgebra, lhs: Formula, rhs: Formula) -> bool:
    """Congruence on a finite algebra: equal yield and derivative at every
    state."""
    return congruent(v, lhs, rhs)
