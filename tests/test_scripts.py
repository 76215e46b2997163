"""The scripts under scripts/, run through their main() on small inputs."""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(monkeypatch, capsys, name, *args):
    spec = importlib.util.spec_from_file_location(f"scripts_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr("sys.argv", [f"{name}.py", *args])
    code = module.main()
    return code, capsys.readouterr().out


def test_compare_solvers_agree(monkeypatch, capsys):
    code, out = run_script(monkeypatch, capsys, "compare_solvers", "--atoms", "a", "b", "--max-nodes", "4")
    assert code == 0
    assert out.splitlines()[0].endswith("formulas over ['a', 'b'] with <= 4 nodes")
    assert out.rstrip().endswith("\n0 disagreements")
    assert "DISAGREES" not in out


def test_tree_growth_within_bound(monkeypatch, capsys):
    code, out = run_script(monkeypatch, capsys, "tree_growth", "--max-occurrences", "8", "--samples", "5")
    assert code == 0
    rows = [line.split() for line in out.splitlines()[1:]]
    assert [int(n) for n, _, _ in rows] == list(range(1, 9))
    for n, observed, bound in rows:
        assert int(bound) == 2 ** int(n)
        assert 1 <= int(observed) <= int(bound)


def test_cnf_scaling_rows(monkeypatch, capsys):
    code, out = run_script(monkeypatch, capsys, "cnf_scaling", "--sizes", "10", "12")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n sat median_s max_s"
    rows = [line.split() for line in lines[1:]]
    assert [n for n, _, _, _ in rows] == ["10", "12"]
    for _, sat, median, worst in rows:
        assert 0 <= int(sat.split("/")[0]) <= int(sat.split("/")[1]) == 5
        assert 0 <= float(median) <= float(worst)
