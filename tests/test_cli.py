import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sclsat
from sclsat import cli
from sclsat.axiom_suite import SYSTEMS
from sclsat.cli import EXIT_NO, EXIT_PARSE, EXIT_UNKNOWN, EXIT_USAGE, EXIT_YES, build_parser, main
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

    def test_flat_chain(self, capsys):
        # The normal form nests 600 *-terms; its class is checked without
        # recursion.
        code, out, _ = run(capsys, "normalize", " && ".join(f"x{i}" for i in range(600)))
        assert code == EXIT_YES
        lines = out.strip().splitlines()
        assert lines[0].count(" && T || F)") == 600
        assert lines[1] == "class: T*-term"


@pytest.mark.parametrize(
    "argv",
    [
        ["sat", "a &&"],
        ["tree", "(a"],
        ["verify", "a @ b", "[(a,T)]"],
        ["verify", "a", "[(a,T)"],
        ["verify", "a", "[(a,T),]"],
        ["normalize", "!"],
    ],
    ids=["sat", "tree", "verify", "verify_path", "verify_path_dangling_comma", "normalize"],
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

    def test_negative_count_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "axioms", "--check", "--count", "-1")
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("usage: sclsat axioms ")
        assert "error: argument --count: " in err

    def test_zero_count(self, capsys):
        code, out, _ = run(capsys, "axioms", "--system", "EqFSCL", "--check", "--count", "0")
        assert code == EXIT_YES
        lines = out.strip().splitlines()
        assert len(lines) == 10
        assert all(line.endswith(": 0/0 ok") for line in lines)


# SHA-256 of the stdout of `sclsat axioms --check --system S --seed N
# --count 5`.  Every line reads "<axiom>: 5/5 ok", so one digest serves all
# three seeds of a system.
AXIOMS_CHECK_SHA256 = {
    "EqFSCL": "2276a0955dc0ce66387b4dfbe25d2f0d26d07ec9d77b70ebc76fd242ba368646",
    "EqRPSCL": "d3af7e212fe3b567d6b84205a6895bb5a06efb8bd36fdc62c3fcfca1ff0fb537",
    "EqCSCL": "fa77aeb499ecee1dfae326985d64c89a8d31d1b6ebbe3a3427e4a2f7634dfdb8",
    "EqMSCL": "18feb0857bf4781a0018fe4ce0ba9a4fa6231284bc8ec379f5ff410cb751086b",
    "EqSSCL": "e3fb097423a9924b966446f0c68aa69cf7b399f33a862269b65c5821959e2e5e",
}


@pytest.mark.parametrize("seed", [0, 1, 20151018])
@pytest.mark.parametrize("system", list(SYSTEMS))
def test_axioms_check_output_pinned(capsys, system, seed):
    code, out, _ = run(
        capsys, "axioms", "--check", "--system", system, "--seed", str(seed), "--count", "5"
    )
    assert code == EXIT_YES
    assert hashlib.sha256(out.encode()).hexdigest() == AXIOMS_CHECK_SHA256[system]


# --- one parser per process ---------------------------------------------------

@pytest.fixture
def unbuilt_parser():
    """Drop the parser main keeps, before and after the test."""
    cli._shared_parser.cache_clear()
    yield
    cli._shared_parser.cache_clear()


def run_raising(capsys, argv):
    """(how main ended, exit code, stdout, stderr) of one main call."""
    try:
        ending, code = "returned", main(list(argv))
    except SystemExit as exc:
        ending, code = "raised", exc.code
    captured = capsys.readouterr()
    return ending, code, captured.out, captured.err


FORMULAS = ["a && !b", "(a || b) && !a", "a && !a", "!(a || b) || c", "T", "b || !b && a"]
LOGICS = ["FSCL", "rpscl", "CSCL", "mscl", "SSCL"]
HELPS = [["--help"], ["sat", "--help"], ["tree", "-h"], ["verify", "--help"],
         ["normalize", "-h"], ["axioms", "--help"]]


def mixed_argvs():
    """Over 200 argv covering every subcommand, exits 0, 1, 2, 64 and 65 and
    --help, with each optional flag alternating with calls that omit it."""
    argvs = []
    for i in range(12):
        f = FORMULAS[i % len(FORMULAS)]
        logic = LOGICS[i % len(LOGICS)]
        system = list(SYSTEMS)[i % len(SYSTEMS)]
        argvs += [
            ["sat", "--logic", logic, "--witness-algebra", f],
            ["sat", "--logic", logic, f],
            ["sat", "--logic", logic, "--output", "json", f],
            ["sat", "--logic", logic, f],
            ["sat", "--output", "json", "--witness-algebra", "--logic", logic, f],
            ["sat", f],
            ["tree", "--dot", f],
            ["tree", f],
            ["verify", "--logic", logic, f, "[(a,T),(b,F)]"],
            ["verify", f, "[(a,F)]"],
            ["normalize", f],
            ["sat", "--logic", "mscl", "--strategy", "direct", "a && !a"],
            ["sat", f + " &&"],
            ["verify", f, "nonsense"],
            ["sat", "--logic", "XXX", f],
            ["frobnicate", f],
            ["sat"],
            ["axioms", "--check", "--count", "-1"],
            ["axioms", "--system", system],
            ["axioms", "--check", "--system", system, "--count", "2", "--seed", str(i)],
            HELPS[i % len(HELPS)],
        ]
    return argvs


def test_parser_built_once_per_process(monkeypatch, capsys, unbuilt_parser):
    builds = []

    def counting_build_parser():
        builds.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    for i in range(50):
        run(capsys, *(["sat", f"a{i} && !b"] if i % 2 else ["tree", "--dot", f"a{i}"]))
    assert len(builds) == 1


def test_shared_parser_matches_fresh_parser(capsys, unbuilt_parser):
    argvs = mixed_argvs()
    assert len(argvs) >= 200
    shared = [run_raising(capsys, argv) for argv in argvs]
    for argv, outcome in zip(argvs, shared):
        cli._shared_parser.cache_clear()
        assert run_raising(capsys, argv) == outcome, argv
    codes = {code for _, code, _, _ in shared}
    assert {EXIT_YES, EXIT_NO, EXIT_UNKNOWN, EXIT_USAGE, EXIT_PARSE} <= codes
    assert ("raised", 0) in {(ending, code) for ending, code, _, _ in shared}
    assert {argv[0] for argv in argvs} >= {"sat", "tree", "verify", "normalize", "axioms"}


def test_help_ends_description_before_in_process_note(capsys):
    ending, code, out, _ = run_raising(capsys, ["--help"])
    assert (ending, code) == ("raised", 0)
    assert "65 parse error.\n\npositional arguments:" in out
    assert "main(argv)" not in out


def test_module_entry_point_in_fresh_interpreter():
    src = str(Path(sclsat.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "sclsat.cli", "sat", "a && b"],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == EXIT_YES, proc.stderr
    assert "answer: yes" in proc.stdout
