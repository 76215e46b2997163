import random

import pytest

from sclsat.axiom_suite import (
    AxiomScheme,
    MissingBindingError,
    SYSTEMS,
    axiom_table,
    check_fscl_soundness,
    check_model_soundness,
    instantiate,
)
from sclsat.cli import _random_formula
from sclsat.eval_tree import se
from sclsat.formula_core import enumerate_formulas, parse, render
from sclsat.valuation_algebras import (
    CONTRACTIVE,
    MEMORIZING,
    REPETITION_PROOF,
    STATIC,
    random_algebra,
)


def _random_bindings(rng, scheme, atoms=("a", "b", "c")):
    subst = {
        v: _random_formula(rng, atoms, rng.randrange(1, 10)) for v in scheme.formula_vars
    }
    atom_subst = {v: rng.choice(atoms) for v in scheme.atom_vars}
    return subst, atom_subst


class TestTables:
    def test_sizes(self):
        assert [len(axiom_table(s)) for s in SYSTEMS] == [10, 18, 14, 13, 14]

    def test_defining_flags(self):
        table = axiom_table("EqFSCL")
        assert [s.defining for s in table] == [True, True] + [False] * 8

    def test_known_axioms_present(self):
        rendered = {render(s.lhs) + " = " + render(s.rhs) for s in axiom_table("EqRPSCL")}
        assert "a || a && x = a || a" in rendered
        rendered = {render(s.lhs) + " = " + render(s.rhs) for s in axiom_table("EqSSCL")}
        assert "x && F = F" in rendered

    def test_mscl_drops_the_last_two_base_axioms(self):
        names = [s.name for s in axiom_table("EqMSCL")]
        assert "EqFSCL-9" not in names and "EqFSCL-10" not in names
        assert "EqFSCL-8" in names

    def test_unknown_system(self):
        with pytest.raises(ValueError):
            axiom_table("EqXYZ")


class TestInstantiate:
    def test_simple(self):
        scheme = next(s for s in axiom_table("EqFSCL") if s.name == "EqFSCL-4")
        lhs, rhs = instantiate(scheme, {"x": parse("p && q")})
        assert lhs == parse("T && (p && q)")
        assert rhs == parse("p && q")

    def test_atom_metavars(self):
        scheme = next(s for s in axiom_table("EqCSCL") if s.name == "EqCSCL-3")
        lhs, rhs = instantiate(scheme, {}, {"a": "p"})
        assert lhs == parse("p || !p")
        assert rhs == parse("p || T")

    def test_missing_binding(self):
        scheme = next(s for s in axiom_table("EqFSCL") if s.name == "EqFSCL-7")
        with pytest.raises(MissingBindingError):
            instantiate(scheme, {"x": parse("a")})


class TestTreeSoundness:
    def test_examples(self):
        assert check_fscl_soundness(parse("!!p"), parse("p"))
        assert check_fscl_soundness(parse("p && F"), parse("!p && F"))
        assert not check_fscl_soundness(parse("p && q"), parse("q && p"))

    def test_all_base_axioms_hold_on_random_instances(self):
        rng = random.Random(0)
        for scheme in axiom_table("EqFSCL"):
            for _ in range(50):
                lhs, rhs = instantiate(scheme, *_random_bindings(rng, scheme))
                assert check_fscl_soundness(lhs, rhs), scheme.name

    def test_agrees_with_tree_equality_on_instantiated_axioms(self):
        # Schemes of the stronger systems fail in the free logic on many
        # instances, and crossed sides of two schemes mostly differ, so both
        # answers are exercised.
        rng = random.Random(1)
        sides = []
        for system in SYSTEMS:
            for scheme in axiom_table(system):
                for _ in range(5):
                    lhs, rhs = instantiate(scheme, *_random_bindings(rng, scheme))
                    assert check_fscl_soundness(lhs, rhs) is (se(lhs) == se(rhs)), scheme.name
                    sides += [lhs, rhs]
        answers = set()
        for lhs in sides[::7]:
            for rhs in sides[::11]:
                got = check_fscl_soundness(lhs, rhs)
                assert got is (se(lhs) == se(rhs))
                answers.add(got)
        assert answers == {True, False}

    def test_agrees_with_tree_equality_on_small_formulas(self):
        small = list(enumerate_formulas(["a"], 5))
        trees = [se(f) for f in small]
        for f, t in zip(small, trees):
            for g, u in zip(small, trees):
                assert check_fscl_soundness(f, g) is (t == u)

    def test_shared_chain(self):
        # se of this chain is a DAG of 2n + 2 nodes over a tree of 2^(n+1) - 1
        # leaves; regrouping the conjunction does not change the tree.
        n = 18
        left = parse(" && ".join(f"(a{i} || b{i})" for i in range(n)))
        right = parse("".join(f"(a{i} || b{i}) && (" for i in range(n - 1))
                      + f"(a{n - 1} || b{n - 1})" + ")" * (n - 1))
        assert left != right
        assert check_fscl_soundness(left, right)
        assert not check_fscl_soundness(left, parse(render(right).replace(f"b{n - 1}", "c")))

    def test_flat_chain(self):
        text = " && ".join(f"x{i}" for i in range(1200))
        assert check_fscl_soundness(parse(text), parse(text))
        assert not check_fscl_soundness(parse(text), parse(text + " && y"))


class TestModelSoundness:
    SYSTEM_CLASS = {
        "EqRPSCL": REPETITION_PROOF,
        "EqCSCL": CONTRACTIVE,
        "EqMSCL": MEMORIZING,
        "EqSSCL": STATIC,
    }

    @pytest.mark.parametrize("system", ["EqRPSCL", "EqCSCL", "EqMSCL", "EqSSCL"])
    def test_schemes_hold_on_matching_class(self, system):
        rng = random.Random(hash(system) % 1000)
        for seed in range(10):
            v = random_algebra(
                self.SYSTEM_CLASS[system], max_states=4, alphabet=("a", "b", "c"), seed=seed
            )
            for scheme in axiom_table(system):
                lhs, rhs = instantiate(scheme, *_random_bindings(rng, scheme))
                assert check_model_soundness(v, lhs, rhs), (system, scheme.name, seed)

    def test_sscl_absorption_observes_side_effects(self):
        # An algebra that moves state can satisfy the static yield conditions
        # and still distinguish x && F from F by its derivative; this is why
        # static sampling keeps derivatives trivial.
        from sclsat.valuation_algebras import FiniteAlgebra, class_check

        stepper = FiniteAlgebra(
            num_states=2,
            alphabet=("p",),
            eval_table={"p": (True, True)},
            deriv_table={"p": (2, 2)},
        )
        assert class_check(stepper).static
        assert not check_model_soundness(stepper, parse("p && F"), parse("F"))

    def test_static_samples_are_effect_free(self):
        for seed in range(20):
            v = random_algebra(STATIC, max_states=5, seed=seed)
            assert check_model_soundness(v, parse("a && F"), parse("F"))
