from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from typing import Union

import pytest
from hypothesis import given, settings

from sclsat.cli import _random_formula
from sclsat.eval_tree import leaf_profile, render_tree, se
from sclsat.formula_core import (
    Con,
    Const,
    Dis,
    FALSE,
    Formula,
    Lit,
    Neg,
    TRUE,
    enumerate_formulas,
    node_count,
    parse,
    postorder,
    render,
)
from sclsat.normal_form import (
    NfClass,
    _FF,
    _Nf,
    _ST,
    _TStar,
    _TT,
    _ff,
    _tt,
    classify_nf,
    normalize,
)

from test_formula_core import formulas, same_formula


class TestClassify:
    def test_truth_terms(self):
        assert classify_nf(parse("T")) is NfClass.T_TERM
        assert classify_nf(parse("(a && T) || T")) is NfClass.T_TERM

    def test_falsity_terms(self):
        assert classify_nf(parse("F")) is NfClass.F_TERM
        assert classify_nf(parse("(a || F) && F")) is NfClass.F_TERM

    def test_literal_terms(self):
        assert classify_nf(parse("(a && T) || F")) is NfClass.L_TERM
        assert classify_nf(parse("(!a && T) || F")) is NfClass.L_TERM

    def test_star_carrier(self):
        assert classify_nf(parse("T && ((a && T) || F)")) is NfClass.T_STAR_TERM

    def test_rejects_raw_atoms(self):
        assert classify_nf(parse("a")) is NfClass.NOT_NORMAL_FORM
        assert classify_nf(parse("a && b")) is NfClass.NOT_NORMAL_FORM
        assert classify_nf(parse("!T")) is NfClass.NOT_NORMAL_FORM


class TestNormalize:
    def test_worked_example(self):
        got = normalize(parse("a && !b"))
        assert render(got) == "T && ((a && T || F) && (!b && T || F))"

    def test_exhaustive_small(self):
        for f in enumerate_formulas(["a", "b"], 6):
            g = normalize(f)
            assert classify_nf(g) is not NfClass.NOT_NORMAL_FORM
            assert se(g) == se(f)

    @settings(max_examples=200)
    @given(formulas(max_leaves=12))
    def test_sampled_preserves_tree(self, f):
        g = normalize(f)
        assert classify_nf(g) is not NfClass.NOT_NORMAL_FORM
        assert se(g) == se(f)

    def test_class_matches_tree_leaves(self):
        # which normal-form class comes out is readable off the leaves of the
        # evaluation tree: only-T leaves, only-F leaves, or both
        for f in enumerate_formulas(["a", "b"], 5):
            profile = leaf_profile(se(f))
            cls = classify_nf(normalize(f))
            if not profile.has_false:
                assert cls is NfClass.T_TERM
            elif not profile.has_true:
                assert cls is NfClass.F_TERM
            else:
                assert cls is NfClass.T_STAR_TERM

    def test_idempotent_on_tree(self):
        for f in enumerate_formulas(["a"], 5):
            g = normalize(f)
            assert se(normalize(g)) == se(g)

    def test_one_normal_form_per_tree(self):
        # normalize(x) and normalize(y) print alike exactly when se(x) and
        # se(y) do.  Texts are compared because tree == recurses per level.
        rng = random.Random(16)
        sample = [_random_formula(rng, ["a", "b", "c"], rng.randint(5, 24)) for _ in range(5000)]
        nf_of_tree: dict[str, str] = {}
        tree_of_nf: dict[str, str] = {}
        for f in SUITE + sample:
            tree, nf = render_tree(se(f)), render(normalize(f))
            assert nf_of_tree.setdefault(tree, nf) == nf
            assert tree_of_nf.setdefault(nf, tree) == tree
        assert len(nf_of_tree) > 3000


# --- the recursive closed-term combinators, kept as the oracle --------------
# Each one is a hand-written se_k over closed terms; normalize_reference is
# the tagged normalization built on them.

def _conj_tt(u: Formula, v: Formula) -> Formula:
    # T-term with tree se(u)[T -> se(v)].
    if u == TRUE:
        return v
    assert isinstance(u, Dis) and isinstance(u.left, Con)
    return Dis(Con(u.left.left, _conj_tt(u.left.right, v)), _conj_tt(u.right, v))


def _push_ff(u: Formula, w: Formula) -> Formula:
    # F-term with tree se(u)[T -> se(w)], for a T-term u and F-term w.
    if u == TRUE:
        return w
    assert isinstance(u, Dis) and isinstance(u.left, Con)
    return Con(Dis(u.left.left, _push_ff(u.right, w)), _push_ff(u.left.right, w))


def _disj_ff(w: Formula, v: Formula) -> Formula:
    # F-term with tree se(w)[F -> se(v)], for F-terms w and v.
    if w == FALSE:
        return v
    assert isinstance(w, Con) and isinstance(w.left, Dis)
    return Con(Dis(w.left.left, _disj_ff(w.left.right, v)), _disj_ff(w.right, v))


def _disj_ff_tt(w: Formula, v: Formula) -> Formula:
    # T-term with tree se(w)[F -> se(v)], for an F-term w and T-term v.
    if w == FALSE:
        return v
    assert isinstance(w, Con) and isinstance(w.left, Dis)
    return Dis(Con(w.left.left, _disj_ff_tt(w.right, v)), _disj_ff_tt(w.left.right, v))


def _dual_tt(u: Formula) -> Formula:
    # F-term whose tree is se(u) with all leaves flipped, i.e. se(u)[T -> F]:
    # the same branch skeleton as u.
    if u == TRUE:
        return FALSE
    assert isinstance(u, Dis) and isinstance(u.left, Con)
    return Con(Dis(u.left.left, _dual_tt(u.right)), _dual_tt(u.left.right))


def _dual_ff(w: Formula) -> Formula:
    # T-term whose tree is se(w) with all leaves flipped, i.e. se(w)[F -> T]:
    # the same branch skeleton as w.
    if w == FALSE:
        return TRUE
    assert isinstance(w, Con) and isinstance(w.left, Dis)
    return Dis(Con(w.left.left, _dual_ff(w.right)), _dual_ff(w.left.right))


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


# --- *-term combinators -----------------------------------------------------

def _star_to_ff(s: _Star, tcont: Formula, fcont: Formula) -> Formula:
    # F-term with tree se(s)[T -> se(tcont), F -> se(fcont)]; tcont, fcont F-terms.
    if isinstance(s, _StarLit):
        taken = _push_ff(s.tt, tcont)
        skipped = _disj_ff(s.ff, fcont)
        if s.positive:
            return Con(Dis(Lit(s.atom), skipped), taken)
        return Con(Dis(Lit(s.atom), taken), skipped)
    if isinstance(s, _StarCon):
        return _star_to_ff(s.left, _star_to_ff(s.right, tcont, fcont), fcont)
    return _star_to_ff(s.left, tcont, _star_to_ff(s.right, tcont, fcont))


def _star_to_tt(s: _Star, tcont: Formula, fcont: Formula) -> Formula:
    # T-term with tree se(s)[T -> se(tcont), F -> se(fcont)]; tcont, fcont T-terms.
    if isinstance(s, _StarLit):
        taken = _conj_tt(s.tt, tcont)
        skipped = _disj_ff_tt(s.ff, fcont)
        if s.positive:
            return Dis(Con(Lit(s.atom), taken), skipped)
        return Dis(Con(Lit(s.atom), skipped), taken)
    if isinstance(s, _StarCon):
        return _star_to_tt(s.left, _star_to_tt(s.right, tcont, fcont), fcont)
    return _star_to_tt(s.left, tcont, _star_to_tt(s.right, tcont, fcont))


def _tt_append(s: _Star, v: Formula) -> _Star:
    # *-term with tree se(s)[T -> se(v), F -> F], for a T-term v.
    if isinstance(s, _StarLit):
        return _StarLit(s.positive, s.atom, _conj_tt(s.tt, v), s.ff)
    if isinstance(s, _StarCon):
        return _StarCon(s.left, _tt_append(s.right, v))
    # (p || q) && v has the tree of (p && v) || (q && v) because se(v) is
    # closed by T, so the inner T -> T substitution leaves it untouched.
    return _StarDis(_tt_append(s.left, v), _tt_append(s.right, v))


def _ff_graft(s: _Star, w: Formula) -> _Star:
    # *-term with tree se(s)[F -> se(w)], for an F-term w.
    if isinstance(s, _StarLit):
        return _StarLit(s.positive, s.atom, s.tt, _disj_ff(s.ff, w))
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
        return _StarLit(not s.positive, s.atom, _dual_ff(s.ff), _dual_tt(s.tt))
    if isinstance(s, _StarCon):
        return _StarDis(_neg_star(s.left), _neg_star(s.right))
    return _StarCon(_neg_star(s.left), _neg_star(s.right))



def _nf_and(m: _Nf, n: _Nf) -> _Nf:
    if isinstance(m, _FF):
        # se(m) has no T leaves, so the conjunction changes nothing.
        return m
    if isinstance(m, _TT):
        if isinstance(n, _TT):
            return _TT(_conj_tt(m.term, n.term))
        if isinstance(n, _FF):
            return _FF(_push_ff(m.term, n.term))
        if isinstance(n, _ST):
            return _TStar(m.term, n.star)
        return _TStar(_conj_tt(m.term, n.tt), n.star)
    if isinstance(m, _ST):
        if isinstance(n, _TT):
            return _ST(_tt_append(m.star, n.term))
        if isinstance(n, _FF):
            return _FF(_star_to_ff(m.star, n.term, FALSE))
        if isinstance(n, _ST):
            return _ST(_and_star(m.star, n.star))
        return _ST(_and_star(_tt_append(m.star, n.tt), n.star))
    # (u && s) && y = u && (s && y)
    inner = _nf_and(_ST(m.star), n)
    if isinstance(inner, _ST):
        return _TStar(m.tt, inner.star)
    assert isinstance(inner, _FF)
    return _FF(_push_ff(m.tt, inner.term))


def _nf_or(m: _Nf, n: _Nf) -> _Nf:
    if isinstance(m, _TT):
        # se(m) has no F leaves, so the disjunction changes nothing.
        return m
    if isinstance(m, _FF):
        if isinstance(n, _TT):
            return _TT(_disj_ff_tt(m.term, n.term))
        if isinstance(n, _FF):
            return _FF(_disj_ff(m.term, n.term))
        if isinstance(n, _ST):
            # se(m)[F -> se(s)] is the T*-tree of dual(m) && s.
            return _TStar(_dual_ff(m.term), n.star)
        return _TStar(_disj_ff_tt(m.term, n.tt), n.star)
    if isinstance(m, _ST):
        if isinstance(n, _TT):
            return _TT(_star_to_tt(m.star, TRUE, n.term))
        if isinstance(n, _FF):
            return _ST(_ff_graft(m.star, n.term))
        if isinstance(n, _ST):
            return _ST(_or_star(m.star, n.star))
        # s || (v && s2): graft v's skeleton into the F slots of s, then let
        # s2 continue at every F leaf of the combined tree.
        return _ST(_or_star(_ff_graft(m.star, _dual_tt(n.tt)), n.star))
    # (u && s) || y = u && (s || y) on trees: all leaves sit inside se(s).
    inner = _nf_or(_ST(m.star), n)
    if isinstance(inner, _ST):
        return _TStar(m.tt, inner.star)
    assert isinstance(inner, _TT)
    return _TT(_conj_tt(m.tt, inner.term))


def _nf_neg(m: _Nf) -> _Nf:
    if isinstance(m, _TT):
        return _FF(_dual_tt(m.term))
    if isinstance(m, _FF):
        return _TT(_dual_ff(m.term))
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


def normalize_reference(f: Formula) -> Formula:
    m = _norm(f)
    if isinstance(m, _TT):
        return m.term
    if isinstance(m, _FF):
        return m.term
    if isinstance(m, _ST):
        return Con(TRUE, _star_formula(m.star))
    return Con(m.tt, _star_formula(m.star))


# --- the recursive grammar predicates, kept as the oracle -------------------

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


def classify_reference(f: Formula) -> NfClass:
    if _is_tterm(f):
        return NfClass.T_TERM
    if _is_fterm(f):
        return NfClass.F_TERM
    if isinstance(f, Con) and _is_tterm(f.left) and _is_star(f.right):
        return NfClass.T_STAR_TERM
    if _is_lterm(f):
        return NfClass.L_TERM
    return NfClass.NOT_NORMAL_FORM


SUITE = list(enumerate_formulas(["a", "b"], 7))


def _deep_tterm(n):
    # A T-term of n nested l-terms, nested alternately in the taken branch
    # and in the continuation.
    u = TRUE
    for i in range(n):
        atom = Lit(f"x{i % 3}")
        u = Dis(Con(atom, u), TRUE) if i % 2 else Dis(Con(atom, TRUE), u)
    return u


def _deep_fterm(n):
    w = FALSE
    for i in range(n):
        atom = Lit(f"x{i % 3}")
        w = Con(Dis(atom, w), FALSE) if i % 2 else Con(Dis(atom, FALSE), w)
    return w


def _run_deep(oracle, *args):
    # The oracle recurses once per nested l-term; a few thousand frames fit
    # the interpreter's stack once the recursion limit allows them.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + 10000)
    try:
        return oracle(*args)
    finally:
        sys.setrecursionlimit(limit)


_V = parse("(b && T) || T")
_W = parse("(b || F) && F")


class TestClosedTermRules:
    def test_normalize_text_matches_oracle_on_suite(self):
        assert len(SUITE) == 22140
        for f in SUITE:
            assert render(normalize(f)) == render(normalize_reference(f))

    @settings(max_examples=300, deadline=None)
    @given(formulas(atoms=("a", "b", "c", "d"), max_leaves=20).filter(lambda f: node_count(f) <= 40))
    def test_normalize_text_matches_oracle(self, f):
        assert render(normalize(f)) == render(normalize_reference(f))

    @pytest.mark.parametrize(
        "make, rule, oracle",
        [
            (_deep_tterm, lambda u: _tt(u, _V, None), lambda u: _conj_tt(u, _V)),
            (_deep_tterm, lambda u: _ff(u, _W, None), lambda u: _push_ff(u, _W)),
            (_deep_tterm, lambda u: _ff(u, FALSE, None), _dual_tt),
            (_deep_fterm, lambda w: _tt(w, None, _V), lambda w: _disj_ff_tt(w, _V)),
            (_deep_fterm, lambda w: _ff(w, None, _W), lambda w: _disj_ff(w, _W)),
            (_deep_fterm, lambda w: _tt(w, None, TRUE), _dual_ff),
        ],
        ids=["conj_tt", "push_ff", "dual_tt", "disj_ff_tt", "disj_ff", "dual_ff"],
    )
    def test_deep_terms(self, make, rule, oracle):
        term = make(5000)
        with pytest.raises(RecursionError):
            oracle(term)
        got = rule(term)
        assert same_formula(got, _run_deep(oracle, term))


class TestGrammarCheck:
    def test_matches_oracle_on_suite(self):
        assert len(SUITE) == 22140
        outside = 0
        for f in SUITE:
            got = classify_nf(f)
            assert got is classify_reference(f)
            outside += got is NfClass.NOT_NORMAL_FORM
            g = normalize(f)
            assert classify_nf(g) is classify_reference(g)
        assert outside > len(SUITE) // 2

    @settings(max_examples=200, deadline=None)
    @given(formulas(atoms=("a", "b", "c"), max_leaves=12), formulas(atoms=("a", "b"), max_leaves=8))
    def test_matches_oracle_on_pieces_of_normal_forms(self, f, h):
        # Subterms of normal forms are l-terms, c- and d-terms and closed
        # terms; joining two of them gives formulas one production away from
        # the grammar.
        pieces = list(postorder(normalize(f)))[-12:] + list(postorder(normalize(h)))[-12:]
        for p in pieces:
            assert classify_nf(p) is classify_reference(p)
        for p in pieces[::3]:
            for q in pieces[1::3]:
                for joined in (Con(p, q), Dis(p, q), Con(TRUE, Con(p, q)), Con(TRUE, Dis(p, q))):
                    assert classify_nf(joined) is classify_reference(joined)

    @pytest.mark.parametrize(
        "make, expected",
        [
            (lambda: _deep_tterm(5000), NfClass.T_TERM),
            (lambda: _deep_fterm(5000), NfClass.F_TERM),
            (
                lambda: Con(_deep_tterm(5000),
                            Dis(Con(Neg(Lit("a")), _deep_tterm(5000)), _deep_fterm(5000))),
                NfClass.T_STAR_TERM,
            ),
        ],
        ids=["tterm", "fterm", "tstar"],
    )
    def test_deep_terms(self, make, expected):
        term = make()
        with pytest.raises(RecursionError):
            classify_reference(term)
        assert classify_nf(term) is expected
        assert _run_deep(classify_reference, term) is expected
