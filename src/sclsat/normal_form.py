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

``normalize`` rebuilds a formula bottom-up into this grammar.  Each subformula
is tagged as a T-term, an F-term, a *-term, or a T*-term, and every combination
rule below preserves the evaluation tree exactly; the key identities are

    se((a && x) || y) = se(x) <| a |> se(y)      for a T-term x, F-term y
    se(p && q) = se(p)[T -> se(q), F -> F]
    se(p || q) = se(p)[T -> T, F -> se(q)]

Closed terms are rebuilt by se_k (eval_tree.fold_se) over formulas, with the
leaf rule _t_lit(t, a, e) = (a && t) || e for T-terms and _f_lit(t, a, e) =
(a || e) && t for F-terms.

The output satisfies se(normalize(f)) = se(f) and classifies as a T-term,
F-term, or T*-term.  No canonicity beyond tree equality is guaranteed.
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

def _is_tterm(f: Formula) -> bool:
    if f == TRUE:
        return True
    return (
        isinstance(f, Dis)
        and isinstance(f.left, Con)
        and isinstance(f.left.left, Lit)
        and _is_tterm(f.left.right)
        and _is_tterm(f.right)
    )


def _is_fterm(f: Formula) -> bool:
    if f == FALSE:
        return True
    return (
        isinstance(f, Con)
        and isinstance(f.left, Dis)
        and isinstance(f.left.left, Lit)
        and _is_fterm(f.left.right)
        and _is_fterm(f.right)
    )


def _is_lterm(f: Formula) -> bool:
    if not (isinstance(f, Dis) and isinstance(f.left, Con)):
        return False
    head = f.left.left
    if not (isinstance(head, Lit) or (isinstance(head, Neg) and isinstance(head.inner, Lit))):
        return False
    return _is_tterm(f.left.right) and _is_fterm(f.right)


def _is_cterm(f: Formula) -> bool:
    if _is_lterm(f):
        return True
    return isinstance(f, Con) and _is_star(f.left) and _is_dterm(f.right)


def _is_dterm(f: Formula) -> bool:
    if _is_lterm(f):
        return True
    return isinstance(f, Dis) and _is_star(f.left) and _is_cterm(f.right)


def _is_star(f: Formula) -> bool:
    return _is_cterm(f) or _is_dterm(f)


def classify_nf(f: Formula) -> NfClass:
    if _is_tterm(f):
        return NfClass.T_TERM
    if _is_fterm(f):
        return NfClass.F_TERM
    if isinstance(f, Con) and _is_tterm(f.left) and _is_star(f.right):
        return NfClass.T_STAR_TERM
    if _is_lterm(f):
        return NfClass.L_TERM
    return NfClass.NOT_NORMAL_FORM


# --- tagged *-terms ---------------------------------------------------------

@dataclass(frozen=True)
class _StarLit:
    # l-term ((+-)a && tt) || ff, with tree se(tt) <| a |> se(ff) when positive
    # and se(ff) <| a |> se(tt) when negated.
    positive: bool
    atom: str
    tt: Formula
    ff: Formula


@dataclass(frozen=True)
class _StarCon:
    left: "_Star"
    right: "_Star"  # must classify as an l-term or d-term


@dataclass(frozen=True)
class _StarDis:
    left: "_Star"
    right: "_Star"  # must classify as an l-term or c-term


_Star = Union[_StarLit, _StarCon, _StarDis]


def _star_formula(s: _Star) -> Formula:
    if isinstance(s, _StarLit):
        head: Formula = Lit(s.atom) if s.positive else Neg(Lit(s.atom))
        return Dis(Con(head, s.tt), s.ff)
    if isinstance(s, _StarCon):
        return Con(_star_formula(s.left), _star_formula(s.right))
    return Dis(_star_formula(s.left), _star_formula(s.right))


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

def _tt_append(s: _Star, v: Formula) -> _Star:
    # *-term with tree se(s)[T -> se(v), F -> F], for a T-term v.
    if isinstance(s, _StarLit):
        return _StarLit(s.positive, s.atom, _tt(s.tt, v, None), s.ff)
    if isinstance(s, _StarCon):
        return _StarCon(s.left, _tt_append(s.right, v))
    # (p || q) && v has the tree of (p && v) || (q && v) because se(v) is
    # closed by T, so the inner T -> T substitution leaves it untouched.
    return _StarDis(_tt_append(s.left, v), _tt_append(s.right, v))


def _ff_graft(s: _Star, w: Formula) -> _Star:
    # *-term with tree se(s)[F -> se(w)], for an F-term w.
    if isinstance(s, _StarLit):
        return _StarLit(s.positive, s.atom, s.tt, _ff(s.ff, None, w))
    if isinstance(s, _StarCon):
        # (p && q) || w has the tree of (p || w) && (q || w); se(w) is closed
        # by F, so the inner F -> F substitution leaves it untouched.
        return _StarCon(_ff_graft(s.left, w), _ff_graft(s.right, w))
    return _StarDis(s.left, _ff_graft(s.right, w))


def _and_star(s: _Star, t: _Star) -> _Star:
    # *-term with tree se(s)[T -> se(t), F -> F].
    if isinstance(t, _StarCon):
        # s && (p && q) = (s && p) && q, reassociated until the right operand
        # is an l-term or d-term as the Pc production requires.
        return _and_star(_and_star(s, t.left), t.right)
    return _StarCon(s, t)


def _or_star(s: _Star, t: _Star) -> _Star:
    # *-term with tree se(s)[T -> T, F -> se(t)].
    if isinstance(t, _StarDis):
        return _or_star(_or_star(s, t.left), t.right)
    return _StarDis(s, t)


def _neg_star(s: _Star) -> _Star:
    if isinstance(s, _StarLit):
        return _StarLit(not s.positive, s.atom, _tt(s.ff, None, TRUE), _ff(s.tt, FALSE, None))
    if isinstance(s, _StarCon):
        return _StarDis(_neg_star(s.left), _neg_star(s.right))
    return _StarCon(_neg_star(s.left), _neg_star(s.right))


# --- tagged normalization ---------------------------------------------------

@dataclass(frozen=True)
class _TT:
    term: Formula


@dataclass(frozen=True)
class _FF:
    term: Formula


@dataclass(frozen=True)
class _ST:
    star: _Star


@dataclass(frozen=True)
class _TStar:
    tt: Formula
    star: _Star


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
            return _FF(_ff(_star_formula(m.star), n.term, FALSE))
        if isinstance(n, _ST):
            return _ST(_and_star(m.star, n.star))
        return _ST(_and_star(_tt_append(m.star, n.tt), n.star))
    # (u && s) && y = u && (s && y)
    inner = _nf_and(_ST(m.star), n)
    if isinstance(inner, _ST):
        return _TStar(m.tt, inner.star)
    assert isinstance(inner, _FF)
    return _FF(_ff(m.tt, inner.term, None))


def _nf_or(m: _Nf, n: _Nf) -> _Nf:
    if isinstance(m, _TT):
        # se(m) has no F leaves, so the disjunction changes nothing.
        return m
    if isinstance(m, _FF):
        if isinstance(n, _TT):
            return _TT(_tt(m.term, None, n.term))
        if isinstance(n, _FF):
            return _FF(_ff(m.term, None, n.term))
        if isinstance(n, _ST):
            # se(m)[F -> se(s)] is the T*-tree of dual(m) && s.
            return _TStar(_tt(m.term, None, TRUE), n.star)
        return _TStar(_tt(m.term, None, n.tt), n.star)
    if isinstance(m, _ST):
        if isinstance(n, _TT):
            return _TT(_tt(_star_formula(m.star), TRUE, n.term))
        if isinstance(n, _FF):
            return _ST(_ff_graft(m.star, n.term))
        if isinstance(n, _ST):
            return _ST(_or_star(m.star, n.star))
        # s || (v && s2): graft v's skeleton into the F slots of s, then let
        # s2 continue at every F leaf of the combined tree.
        return _ST(_or_star(_ff_graft(m.star, _ff(n.tt, FALSE, None)), n.star))
    # (u && s) || y = u && (s || y) on trees: all leaves sit inside se(s).
    inner = _nf_or(_ST(m.star), n)
    if isinstance(inner, _ST):
        return _TStar(m.tt, inner.star)
    assert isinstance(inner, _TT)
    return _TT(_tt(m.tt, inner.term, None))


def _nf_neg(m: _Nf) -> _Nf:
    if isinstance(m, _TT):
        return _FF(_ff(m.term, FALSE, None))
    if isinstance(m, _FF):
        return _TT(_tt(m.term, None, TRUE))
    if isinstance(m, _ST):
        return _ST(_neg_star(m.star))
    return _TStar(m.tt, _neg_star(m.star))


def _norm(f: Formula) -> _Nf:
    if isinstance(f, Const):
        return _TT(TRUE) if f.value else _FF(FALSE)
    if isinstance(f, Lit):
        return _ST(_StarLit(True, f.atom, TRUE, FALSE))
    if isinstance(f, Neg):
        return _nf_neg(_norm(f.inner))
    if isinstance(f, Con):
        return _nf_and(_norm(f.left), _norm(f.right))
    if isinstance(f, Dis):
        return _nf_or(_norm(f.left), _norm(f.right))
    raise TypeError(f"not a formula: {f!r}")


def normalize(f: Formula) -> Formula:
    """A formula in normal form (T-term, F-term, or T*-term) with the same
    evaluation tree as f.  Output size may be exponential in the input size."""
    m = _norm(f)
    if isinstance(m, _TT):
        return m.term
    if isinstance(m, _FF):
        return m.term
    if isinstance(m, _ST):
        return Con(TRUE, _star_formula(m.star))
    return Con(m.tt, _star_formula(m.star))
