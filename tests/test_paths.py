import pytest
from hypothesis import given, strategies as st

from sclsat.eval_tree import leaf_profile, se
from sclsat.formula_core import enumerate_formulas, parse
from sclsat.paths import (
    EMPTY_PATH,
    PathDiscipline,
    PathParseError,
    check_discipline,
    contract,
    enumerate_paths,
    is_memorizing,
    is_repetition_proof,
    norm,
    parse_path,
    render_path,
    result,
)

paths = st.lists(
    st.tuples(st.sampled_from(["a", "b", "c"]), st.booleans()), max_size=10
).map(tuple)


class TestResult:
    def test_defined(self):
        t = se(parse("a && !b"))
        assert result((("a", True), ("b", False)), t) is True
        assert result((("a", True), ("b", True)), t) is False
        assert result((("a", False),), t) is False

    def test_undefined_too_short(self):
        assert result((("a", True),), se(parse("a && !b"))) is None

    def test_undefined_too_long(self):
        assert result((("a", False), ("b", True)), se(parse("a && !b"))) is None

    def test_undefined_wrong_atom(self):
        assert result((("b", True), ("b", False)), se(parse("a && !b"))) is None

    def test_empty_path_on_leaf(self):
        assert result(EMPTY_PATH, se(parse("T"))) is True
        assert result(EMPTY_PATH, se(parse("a"))) is None


class TestDisciplines:
    def test_repetition_proof(self):
        assert is_repetition_proof((("a", True), ("a", True), ("b", False)))
        assert not is_repetition_proof((("a", True), ("a", False)))
        # non-adjacent flips are fine
        assert is_repetition_proof((("a", True), ("b", True), ("a", False)))

    def test_memorizing(self):
        assert is_memorizing((("a", False), ("b", True), ("a", False)))
        assert not is_memorizing((("a", True), ("b", True), ("a", False)))

    @given(paths)
    def test_memorizing_implies_repetition_proof(self, p):
        if is_memorizing(p):
            assert is_repetition_proof(p)

    @given(paths)
    def test_check_discipline_dispatch(self, p):
        assert check_discipline(PathDiscipline.FREE, p)
        assert check_discipline(PathDiscipline.REPETITION_PROOF, p) == is_repetition_proof(p)
        assert check_discipline(PathDiscipline.MEMORIZING, p) == is_memorizing(p)


class TestContraction:
    def test_collapses_adjacent_runs_to_first(self):
        p = (("a", True), ("a", False), ("a", False), ("b", True), ("a", True))
        assert contract(p) == (("a", True), ("b", True), ("a", True))

    @given(paths)
    def test_idempotent(self, p):
        assert contract(contract(p)) == contract(p)

    @given(paths)
    def test_no_adjacent_duplicates_after(self, p):
        c = contract(p)
        assert all(x[0] != y[0] for x, y in zip(c, c[1:]))


class TestNorms:
    def test_kinds(self):
        p = (("a", True), ("a", True), ("b", False))
        assert norm("length", p) == 3
        assert norm("contraction", p) == 2
        assert norm("trivial", p) == 0
        with pytest.raises(ValueError):
            norm("nope", p)

    @given(paths)
    def test_contraction_bounded_by_length(self, p):
        assert norm("trivial", p) <= norm("contraction", p) <= norm("length", p)


class TestEnumeratePaths:
    def test_covers_all_leaves(self):
        for f in enumerate_formulas(["a", "b"], 4):
            t = se(f)
            traces = list(enumerate_paths(t))
            assert len(traces) == leaf_profile(t).leaf_count
            assert len({p for p, _ in traces}) == len(traces)
            for p, leaf in traces:
                assert result(p, t) is leaf

    def test_true_branch_first(self):
        t = se(parse("a"))
        assert [p for p, _ in enumerate_paths(t)] == [
            (("a", True),),
            (("a", False),),
        ]


class TestPathText:
    def test_render(self):
        assert render_path((("a", True), ("b", False))) == "[(a,T),(b,F)]"
        assert render_path(EMPTY_PATH) == "[]"

    @given(paths)
    def test_round_trip(self, p):
        assert parse_path(render_path(p)) == p

    def test_whitespace_tolerated(self):
        assert parse_path(" [ (a, T) , (b, F) ] ") == (("a", True), ("b", False))

    def test_errors(self):
        for bad in ["", "(a,T)", "[(a,X)]", "[(a,T)(b,F)]", "[(T,T)]"]:
            with pytest.raises(PathParseError):
                parse_path(bad)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[ (a,T),x]", "malformed path entry at position 8"),
            ("[(a,T) ;(b,F)]", "expected ',' at position 7"),
            ("[(a,T),]", "malformed path entry at position 7"),
        ],
    )
    def test_error_positions_count_from_start_of_input(self, text, message):
        with pytest.raises(PathParseError) as excinfo:
            parse_path(text)
        assert str(excinfo.value) == message
