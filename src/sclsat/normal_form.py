"""Normal forms: grammar classification and a semantics-preserving normalizer.

The normal-form grammar (a ranges over atoms):

    P   ::= PT | PF | PT && P*
    PT  ::= T | (a && PT) || PT
    PF  ::= F | (a || PF) && PF
    P*  ::= Pc | Pd
    Pl  ::= (a && PT) || PF | (!a && PT) || PF
    Pc  ::= Pl | P* && Pd
    Pd  ::= Pl | P* || Pc

T-terms have evaluation trees closed by true, F-terms trees closed by false,
l-terms and T*-terms open trees.

``classify_nf`` checks the grammar top-down on an explicit stack.  At each
node the shape picks the only production that can apply: an l-term is the
only *-term whose left operand is a conjunction headed by a literal.  PF is
PT's dual, with && and || swapped and F for T, so one rule checks both.

``normalize`` rebuilds a formula bottom-up into this grammar from && and !
alone.  It carries a polarity that each negation flips, and reads x || y
through FSCL's defining equation EqFSCL-2, x || y = !(!x && !y).  Each
subformula is tagged as a T-term, an F-term, a *-term, or a T*-term, each held
as the formula it prints, and every combination rule below preserves the
evaluation tree exactly; the key identities are

    se((a && x) || y) = se(x) <| a |> se(y)      for a T-term x, F-term y
    se(p && q) = se(p)[T -> se(q), F -> F]
    se(!p) = se(p)[T -> F, F -> T]

Closed terms are rebuilt by se_k (eval_tree.fold_se) over formulas, with the
leaf rule _t_lit(t, a, e) = (a && t) || e for T-terms and _f_lit(t, a, e) =
(a || e) && t for F-terms.

The rules prove se(normalize(f)) = se(f), with an output that classifies as a
T-term, F-term, or T*-term.  That equal trees give one normal form is only
tested, on every formula over {a, b} with at most 7 nodes and on seeded random
formulas over {a, b, c}.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Union

from .eval_tree import fold_se
from .formula_core import Con, Const, Dis, FALSE, Formula, Lit, Neg, TRUE


class NfClass(Enum):
    T_TERM = "T-term"
    F_TERM = "F-term"
    T_STAR_TERM = "T*-term"
    L_TERM = "l-term"
    NOT_NORMAL_FORM = "not-normal-form"


# --- grammar membership -----------------------------------------------------

def _l_shaped(f: Formula) -> bool:
    # ((+-a && x) || y).  Of the *-terms only l-terms have this shape: the left
    # operand of a *-term conjunction is itself a *-term, never a literal.
    if not (isinstance(f, Dis) and isinstance(f.left, Con)):
        return False
    head = f.left.left
    return isinstance(head, Lit) or (isinstance(head, Neg) and isinstance(head.inner, Lit))


def _derives(f: Formula, symbol: str) -> bool:
    """Whether f derives from the grammar symbol "PT", "PF", "Pl", "Pc", "Pd"
    or "P*".  Checked top-down: the shape of each node picks the only
    production that can apply, so nothing is retried.  The check descends
    into left operands and keeps the right operands still to check, with
    their symbols, on an explicit stack; every derivation ends at T or F."""
    pending: list[tuple[Formula, str]] = []
    while True:
        if isinstance(f, Const):
            if symbol != ("PT" if f.value else "PF"):
                return False
            if not pending:
                return True
            f, symbol = pending.pop()
        elif symbol in ("PT", "PF"):
            outer, inner = (Dis, Con) if symbol == "PT" else (Con, Dis)
            if not (isinstance(f, outer) and isinstance(f.left, inner) and isinstance(f.left.left, Lit)):
                return False
            pending.append((f.right, symbol))
            f = f.left.right
        elif _l_shaped(f):
            pending.append((f.right, "PF"))
            f, symbol = f.left.right, "PT"
        elif isinstance(f, Con) and symbol in ("Pc", "P*"):
            pending.append((f.right, "Pd"))
            f, symbol = f.left, "P*"
        elif isinstance(f, Dis) and symbol in ("Pd", "P*"):
            pending.append((f.right, "Pc"))
            f, symbol = f.left, "P*"
        else:
            return False


def classify_nf(f: Formula) -> NfClass:
    if _derives(f, "PT"):
        return NfClass.T_TERM
    if _derives(f, "PF"):
        return NfClass.F_TERM
    if isinstance(f, Con) and _derives(f.left, "PT") and _derives(f.right, "P*"):
        return NfClass.T_STAR_TERM
    if _derives(f, "Pl"):
        return NfClass.L_TERM
    return NfClass.NOT_NORMAL_FORM


# --- closed-term rules -----------------------------------------------------
# A T-term (_tt) resp. F-term (_ff) with tree se(x)[T -> se(t), F -> se(e)].
# A continuation x's tree never reaches (F in a T-term) may be None.

def _t_lit(t: Formula, lit: Lit, e: Formula) -> Formula:
    return Dis(Con(lit, t), e)


def _f_lit(t: Formula, lit: Lit, e: Formula) -> Formula:
    return Con(Dis(lit, e), t)


def _tt(x: Formula, t: Formula | None, e: Formula | None) -> Formula:
    return fold_se(x, t, e, _t_lit)[0]


def _ff(x: Formula, t: Formula | None, e: Formula | None) -> Formula:
    return fold_se(x, t, e, _f_lit)[0]


# --- *-term combinators -----------------------------------------------------

def _tt_append(s: Formula, v: Formula) -> Formula:
    # *-term with tree se(s)[T -> se(v), F -> F], for a T-term v.
    if _l_shaped(s):
        return Dis(Con(s.left.left, _tt(s.left.right, v, None)), s.right)
    if isinstance(s, Con):
        return Con(s.left, _tt_append(s.right, v))
    # (p || q) && v has the tree of (p && v) || (q && v) because se(v) is
    # closed by T, so the inner T -> T substitution leaves it untouched.
    return Dis(_tt_append(s.left, v), _tt_append(s.right, v))


def _and_star(s: Formula, t: Formula) -> Formula:
    # *-term with tree se(s)[T -> se(t), F -> F].
    if isinstance(t, Con):
        # s && (p && q) = (s && p) && q, reassociated until the right operand
        # is an l-term or d-term as the Pc production requires.
        return _and_star(_and_star(s, t.left), t.right)
    return Con(s, t)


def _neg_star(s: Formula) -> Formula:
    if _l_shaped(s):
        head = s.left.left
        flipped = head.inner if isinstance(head, Neg) else Neg(head)
        return Dis(Con(flipped, _tt(s.right, None, TRUE)), _ff(s.left.right, FALSE, None))
    if isinstance(s, Con):
        return Dis(_neg_star(s.left), _neg_star(s.right))
    return Con(_neg_star(s.left), _neg_star(s.right))


# --- tagged normalization ---------------------------------------------------

@dataclass(frozen=True)
class _TT:
    term: Formula


@dataclass(frozen=True)
class _FF:
    term: Formula


@dataclass(frozen=True)
class _ST:
    star: Formula


@dataclass(frozen=True)
class _TStar:
    tt: Formula
    star: Formula


_Nf = Union[_TT, _FF, _ST, _TStar]


def _nf_and(m: _Nf, n: _Nf) -> _Nf:
    if isinstance(m, _FF):
        # se(m) has no T leaves, so the conjunction changes nothing.
        return m
    if isinstance(m, _TT):
        if isinstance(n, _TT):
            return _TT(_tt(m.term, n.term, None))
        if isinstance(n, _FF):
            return _FF(_ff(m.term, n.term, None))
        if isinstance(n, _ST):
            return _TStar(m.term, n.star)
        return _TStar(_tt(m.term, n.tt, None), n.star)
    if isinstance(m, _ST):
        if isinstance(n, _TT):
            return _ST(_tt_append(m.star, n.term))
        if isinstance(n, _FF):
            return _FF(_ff(m.star, n.term, FALSE))
        if isinstance(n, _ST):
            return _ST(_and_star(m.star, n.star))
        return _ST(_and_star(_tt_append(m.star, n.tt), n.star))
    # (u && s) && y = u && (s && y)
    inner = _nf_and(_ST(m.star), n)
    if isinstance(inner, _ST):
        return _TStar(m.tt, inner.star)
    assert isinstance(inner, _FF)
    return _FF(_ff(m.tt, inner.term, None))


def _nf_neg(m: _Nf) -> _Nf:
    if isinstance(m, _TT):
        return _FF(_ff(m.term, FALSE, None))
    if isinstance(m, _FF):
        return _TT(_tt(m.term, None, TRUE))
    if isinstance(m, _ST):
        return _ST(_neg_star(m.star))
    return _TStar(m.tt, _neg_star(m.star))


def _norm(f: Formula, positive: bool = True) -> _Nf:
    # The normal form of f, or of !f when positive is false; x || y goes
    # through EqFSCL-2 as !(!x && !y), so && is the only binary combinator.
    while isinstance(f, Neg):
        f, positive = f.inner, not positive
    if isinstance(f, Const):
        return _TT(TRUE) if f.value == positive else _FF(FALSE)
    if isinstance(f, Lit):
        return _ST(Dis(Con(f if positive else Neg(f), TRUE), FALSE))
    if isinstance(f, (Con, Dis)):
        con = isinstance(f, Con)
        m = _nf_and(_norm(f.left, con), _norm(f.right, con))
        return m if con == positive else _nf_neg(m)
    raise TypeError(f"not a formula: {f!r}")


def normalize(f: Formula) -> Formula:
    """A formula in normal form (T-term, F-term, or T*-term) with the same
    evaluation tree as f; x || y is normalized as !(!x && !y).  The rules keep
    the tree; one normal form per tree is tested, not proved.  Output size
    may be exponential in the input size."""
    m = _norm(f)
    if isinstance(m, (_TT, _FF)):
        return m.term
    if isinstance(m, _ST):
        return Con(TRUE, m.star)
    return Con(m.tt, m.star)
