import json

import pytest

from sclsat.cli import EXIT_NO, EXIT_PARSE, EXIT_UNKNOWN, EXIT_USAGE, EXIT_YES, main
from sclsat.valuation_algebras import FiniteAlgebra, class_check


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # usage errors raise instead of returning
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSat:
    def test_yes_with_witness(self, capsys):
        code, out, _ = run(capsys, "sat", "--logic", "rpscl", "(a || b) && !a")
        assert code == EXIT_YES
        assert "answer: yes" in out
        assert "witness: [(a,F),(b,T),(a,F)]" in out

    def test_no(self, capsys):
        code, out, _ = run(capsys, "sat", "--logic", "sscl", "a && !a")
        assert code == EXIT_NO
        assert "answer: no" in out

    def test_trivial(self, capsys):
        code, out, _ = run(capsys, "sat", "T")
        assert code == EXIT_YES
        assert "witness: []" in out

    def test_unknown_exit_code(self, capsys):
        code, out, _ = run(
            capsys, "sat", "--logic", "mscl", "--strategy", "direct", "a && !a"
        )
        assert code == EXIT_UNKNOWN
        assert "answer: unknown" in out

    def test_json_output(self, capsys):
        code, out, _ = run(
            capsys, "sat", "--logic", "MSCL", "--output", "json", "a && b"
        )
        assert code == EXIT_YES
        payload = json.loads(out)
        assert payload["answer"] == "yes"
        assert payload["logic"] == "MSCL"

    def test_witness_algebra_json(self, capsys):
        code, out, _ = run(
            capsys,
            "sat", "--logic", "rpscl", "--output", "json", "--witness-algebra",
            "(a || b) && !a",
        )
        assert code == EXIT_YES
        outcome_line, algebra_line = out.strip().splitlines()
        witness = json.loads(outcome_line)["witness"]
        algebra = FiniteAlgebra.from_json(algebra_line)
        # the witness is memorizing, so the strongest constructor is the
        # single-state static one
        assert witness == [["a", False], ["b", True], ["a", False]]
        assert algebra.num_states == 1
        assert class_check(algebra).static

    def test_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("a && !a"))
        code, out, _ = run(capsys, "sat", "--logic", "fscl", "-")
        assert code == EXIT_YES

    def test_parse_error(self, capsys):
        code, _, err = run(capsys, "sat", "a &&")
        assert code == EXIT_PARSE
        assert "parse error" in err

    def test_unknown_logic(self, capsys):
        code, _, err = run(capsys, "sat", "--logic", "XXX", "a")
        assert code == EXIT_USAGE
        assert "unknown logic" in err

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run(capsys, "frobnicate", "a")
        assert code == EXIT_USAGE

    def test_deep_negation(self, capsys):
        code, out, _ = run(capsys, "sat", "!" * 3000 + "a")
        assert code == EXIT_YES
        assert "answer: yes" in out
        assert "witness: [(a,T)]" in out


class TestTree:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "tree", "a && !b")
        assert code == EXIT_YES
        assert out.strip() == "(F < b > T) < a > F"

    def test_dot(self, capsys):
        code, out, _ = run(capsys, "tree", "--dot", "a")
        assert code == EXIT_YES
        assert out.startswith("digraph")


class TestVerify:
    def test_accepting(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--logic", "rpscl", "(a || b) && !a", "[(a,F),(b,T),(a,F)]"
        )
        assert code == EXIT_YES
        assert "result: T" in out
        assert "discipline (repetition-proof): ok" in out
        assert "path-algebra round-trip: ok" in out

    def test_false_result(self, capsys):
        code, out, _ = run(capsys, "verify", "a", "[(a,F)]")
        assert code == EXIT_NO
        assert "result: F" in out

    def test_undefined_path(self, capsys):
        code, out, _ = run(capsys, "verify", "a && b", "[(a,T)]")
        assert code == EXIT_NO
        assert "undefined" in out

    def test_discipline_violation(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--logic", "rpscl", "a && !a", "[(a,T),(a,F)]"
        )
        assert code == EXIT_NO
        assert "result: T" in out
        assert "violated" in out

    def test_bad_path_text(self, capsys):
        code, _, err = run(capsys, "verify", "a", "nonsense")
        assert code == EXIT_PARSE


class TestNormalize:
    def test_worked_example(self, capsys):
        code, out, _ = run(capsys, "normalize", "a && !b")
        assert code == EXIT_YES
        lines = out.strip().splitlines()
        assert lines[0] == "T && ((a && T || F) && (!b && T || F))"
        assert lines[1].startswith("class:")


@pytest.mark.parametrize(
    "argv",
    [
        ["sat", "a &&"],
        ["tree", "(a"],
        ["verify", "a @ b", "[(a,T)]"],
        ["verify", "a", "[(a,T)"],
        ["normalize", "!"],
    ],
    ids=["sat", "tree", "verify", "verify_path", "normalize"],
)
def test_parse_errors_exit_65(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_PARSE == 65
    assert out == ""
    assert err.startswith("parse error: ")


def test_formula_checked_before_path_and_logic(capsys):
    code, _, err = run(capsys, "verify", "--logic", "XXX", "a &&", "nonsense")
    assert code == EXIT_PARSE
    assert "parse error" in err
    code, _, err = run(capsys, "verify", "--logic", "XXX", "a", "nonsense")
    assert code == EXIT_PARSE
    code, _, err = run(capsys, "verify", "--logic", "XXX", "a", "[(a,T)]")
    assert code == EXIT_USAGE


class TestAxioms:
    def test_list(self, capsys):
        code, out, _ = run(capsys, "axioms", "--system", "EqFSCL")
        assert code == EXIT_YES
        lines = out.strip().splitlines()
        assert len(lines) == 10
        assert lines[0].startswith("EqFSCL-1:")
        assert "(defining equation)" in lines[0]

    @pytest.mark.parametrize("system", ["EqFSCL", "EqCSCL"])
    def test_check(self, capsys, system):
        code, out, _ = run(
            capsys, "axioms", "--system", system, "--check", "--count", "5"
        )
        assert code == EXIT_YES
        for line in out.strip().splitlines():
            assert line.endswith("5/5 ok")
