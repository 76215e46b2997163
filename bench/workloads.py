"""The benchmark's three workloads: their inputs, ops and output checks.

A workload is built from its seed and yields rounds.  A round is a list of
ops, each a triple: a closure that makes one call into sclsat and returns its
output, a check that judges that output against reference.py, and whether the
op is one of the inputs kept although they fail every time today.  Every
round of a workload has the same number of ops of the same kinds, so the
share of ops that fail is the same in every run.

    sweep  every formula over {a, b} with at most 7 nodes, decided by
           solve() in all five logics; one op is one solve() call
    cnf    3-CNF-shaped formulas at clause/variable ratio 4.26 with 40-60
           variables, and pigeonhole formulas; one op parses one formula
           text and decides it in all five logics
    cli    seeded streams of in-process `sclsat` calls through cli.main
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re

import reference as ref

LOGICS = ("FSCL", "RPSCL", "CSCL", "MSCL", "SSCL")
HERE = os.path.dirname(os.path.abspath(__file__))


class CheckFailed(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def from_program(f):
    """The reference form of an sclsat Formula, read from its fields."""
    out: list = []
    stack: list = [(False, f)]
    while stack:
        built, node = stack.pop()
        kind = type(node).__name__
        if kind == "Const":
            out.append(ref.TRUE if node.value else ref.FALSE)
        elif kind == "Lit":
            out.append(ref.atom(node.atom))
        elif not built:
            stack.append((True, node))
            stack.extend((False, c) for c in ((node.inner,) if kind == "Neg" else (node.right, node.left)))
        elif kind == "Neg":
            out.append(ref.neg(out.pop()))
        else:
            right = out.pop()
            out.append(("&" if kind == "Con" else "|", out.pop(), right))
    return out[0]


def check_outcome(outcome, f, logic: str, expected_yes: bool, where: str) -> None:
    expect(outcome.answer == ("yes" if expected_yes else "no"),
           f"{where}: {logic} answered {outcome.answer}, expected {'yes' if expected_yes else 'no'}")
    if expected_yes:
        expect(outcome.witness is not None and ref.check_witness(f, tuple(outcome.witness), logic),
               f"{where}: {logic} witness {outcome.witness!r} is not a disciplined true trace")


# --- sweep ------------------------------------------------------------------

def formula_count(atoms: int, max_nodes: int) -> int:
    """Formulas over T, F and the atoms with at most max_nodes nodes."""
    by_size = [0, atoms + 2]
    for size in range(2, max_nodes + 1):
        binary = sum(by_size[i] * by_size[size - 1 - i] for i in range(1, size - 1))
        by_size.append(by_size[size - 1] + 2 * binary)
    return sum(by_size)


class Sweep:
    name = "sweep"

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.max_nodes = 4 if smoke else 7
        self.decisions: dict[int, tuple[bool, ...]] = {}

    def setup(self, sclsat) -> None:
        """The program call made before the first timed op."""
        self.formulas = list(sclsat.enumerate_formulas(["a", "b"], self.max_nodes))

    def bind(self, sclsat) -> None:
        self.solve = sclsat.sat_solvers.solve
        self.logics = {name: sclsat.Logic[name] for name in LOGICS}
        formulas = self.formulas
        expect(len(formulas) == formula_count(2, self.max_nodes),
               f"enumerate_formulas gave {len(formulas)} formulas")
        self.ref_formulas = [from_program(f) for f in formulas]
        expect(len(set(self.ref_formulas)) == len(formulas), "enumerate_formulas repeated a formula")
        expect(all(ref.node_count(f) <= self.max_nodes for f in self.ref_formulas),
               "enumerate_formulas exceeded the node bound")

    def round(self, index: int):
        rng = random.Random(f"sweep:{self.seed}:{index}")
        pairs = [(i, k) for i in range(len(self.formulas)) for k in range(len(LOGICS))]
        rng.shuffle(pairs)
        solve, logics, formulas = self.solve, self.logics, self.formulas
        for i, k in pairs:
            yield ((lambda f=formulas[i], L=logics[LOGICS[k]]: solve(L, f)),
                   (lambda out, i=i, k=k: self.check(i, k, out)), False)

    def check(self, i: int, k: int, outcome) -> None:
        f = self.ref_formulas[i]
        if i not in self.decisions:
            trace_set = ref.traces(f)
            self.decisions[i] = tuple(ref.decide(trace_set, L) for L in LOGICS)
        check_outcome(outcome, f, LOGICS[k], self.decisions[i][k], f"formula {ref.to_text(f)}")

    def corrupt(self, outcome):
        return type(outcome)("no" if outcome.answer == "yes" else "yes", None, outcome.logic, outcome.solver)


# --- cnf --------------------------------------------------------------------

PIGEONHOLE_HOLES = (4, 5, 6)


class Cnf:
    name = "cnf"

    def __init__(self, seed: int, smoke: bool) -> None:
        with open(os.path.join(HERE, "cnf_pool.json")) as src:
            pool = json.load(src)["instances"]
        if smoke:
            pool = pool[:2]
        rng = random.Random(f"cnf:{seed}")
        self.seed = seed
        self.instances = []
        for inst in pool:
            # Renaming atoms keeps every answer, and keeps the order in which
            # atoms first occur, so every seed poses instances of equal size.
            n = inst["n"]
            perm = rng.sample(range(n), n)
            names = {v: f"x{perm[v - 1]:02d}" for v in range(1, n + 1)}
            self.instances.append(self._instance(inst["clauses"], names, inst["mscl"] == "yes"))
        for holes in PIGEONHOLE_HOLES[:1] if smoke else PIGEONHOLE_HOLES:
            clauses, names = ref.pigeonhole(holes)
            # holes + 1 pigeons never fit into holes holes.
            self.instances.append(self._instance(clauses, names, False))

    @staticmethod
    def _instance(clauses, names, classical: bool) -> dict:
        return {
            "text": ref.cnf_text(clauses, names),
            "clauses": clauses,
            "names": names,
            "formula": ref.cnf_formula(clauses, names),
            # Every clause is non-empty, so some true trace satisfies each in turn.
            "expected": {"FSCL": True, "RPSCL": ref.cnf_repetition_proof_sat(clauses, names),
                         "CSCL": None, "MSCL": classical, "SSCL": classical},
        }

    def setup(self, sclsat) -> None:
        pass

    def bind(self, sclsat) -> None:
        self.parse = sclsat.formula_core.parse
        self.solve = sclsat.sat_solvers.solve
        self.logics = [sclsat.Logic[name] for name in LOGICS]

    def round(self, index: int) -> list:
        rng = random.Random(f"cnf:{self.seed}:{index}")
        order = list(range(len(self.instances)))
        rng.shuffle(order)
        parse, solve, logics = self.parse, self.solve, self.logics

        def op(text):
            f = parse(text)
            return [solve(L, f) for L in logics]
        return [((lambda t=self.instances[i]["text"]: op(t)),
                 (lambda out, i=i: self.check(i, out)), False) for i in order]

    def check(self, i: int, outcomes) -> None:
        inst = self.instances[i]
        f = inst["formula"]
        where = f"cnf instance {i}"
        for logic, outcome in zip(LOGICS, outcomes):
            expected = inst["expected"][logic if logic != "CSCL" else "RPSCL"]
            check_outcome(outcome, f, logic, expected, where)
            if logic in ("MSCL", "SSCL") and expected:
                sigma = dict(outcome.witness)
                expect(ref.cnf_satisfied(inst["clauses"], inst["names"], sigma),
                       f"{where}: {logic} witness does not satisfy every clause")

    def corrupt(self, outcomes):
        out = list(outcomes)
        o = out[3]
        out[3] = type(o)("no" if o.answer == "yes" else "yes", None, o.logic, o.solver)
        return out


# --- cli --------------------------------------------------------------------

ATOMS4 = ("a", "b", "c", "d")
AXIOM_SYSTEMS = ("EqFSCL", "EqRPSCL", "EqCSCL", "EqMSCL", "EqSSCL")
# Inputs that make cli.main raise RecursionError today, whatever the seed.
DEEP_NEGATIONS = "!" * 3000 + "a"
LONG_CHAIN = " && ".join(f"y{i}" for i in range(1200))
AXIOM_LINE = re.compile(r"(\S+): (\d+)/(\d+) (ok|FAIL)")
NF_CLASS = {(True,): "T-term", (False,): "F-term", (False, True): "T*-term"}


def random_formula(rng: random.Random, nodes: int):
    """A random formula over ATOMS4 with exactly `nodes` AST nodes."""
    if nodes == 1:
        if rng.random() < 0.1:
            return rng.choice((ref.TRUE, ref.FALSE))
        return ref.atom(rng.choice(ATOMS4))
    if nodes == 2 or rng.random() < 0.2:
        return ref.neg(random_formula(rng, nodes - 1))
    left = rng.randint(1, nodes - 2)
    op = "&" if rng.random() < 0.5 else "|"
    return (op, random_formula(rng, left), random_formula(rng, nodes - 1 - left))


class Cli:
    name = "cli"
    # A round makes just over 1,000 calls, so its p99 has 10 calls beyond it.
    RANDOM_FORMULAS = 216
    CHAINS = 20
    FLAT_SIZES = (100, 150, 200) * 4
    AXIOM_SYSTEMS = AXIOM_SYSTEMS * 4
    AXIOM_COUNT = 3

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        if smoke:
            self.RANDOM_FORMULAS, self.CHAINS, self.FLAT_SIZES, self.AXIOM_SYSTEMS = 3, 2, (10,), ("EqFSCL",)

    def setup(self, sclsat) -> None:
        pass

    def bind(self, sclsat) -> None:
        self.main = sclsat.cli.main

    def _formulas(self, rng: random.Random) -> list[list[tuple[str, object]]]:
        """(text, reference formula) per formula of one round, by kind."""
        randoms = [random_formula(rng, rng.randint(10, 40)) for _ in range(self.RANDOM_FORMULAS)]
        out = [[(ref.to_text(f), f) for f in randoms]]
        sizes = [12 if i % 5 == 0 else rng.randint(2, 11) for i in range(self.CHAINS)]
        chains = []
        for n in sizes:
            groups = [ref.disj(ref.atom(f"a{i}"), ref.atom(f"b{i}")) for i in range(n)]
            text = " && ".join(f"(a{i} || b{i})" for i in range(n))
            chains.append((text, ref.chain("&", groups)))
        out.append(chains)
        flats = []
        for n in self.FLAT_SIZES:
            names = [f"v{k}" for k in rng.sample(range(1000), n)]
            flats.append((" && ".join(names), ref.chain("&", map(ref.atom, names))))
        out.append(flats)
        return out

    def round(self, index: int) -> list:
        rng = random.Random(f"cli:{self.seed}:{index}")
        groups = []
        k = 0
        for category in self._formulas(rng):
            for position, (text, f) in enumerate(category):
                groups.append(self._formula_ops(text, f, LOGICS[k % 5], position % 2 == 1))
                k += 1
        for system in self.AXIOM_SYSTEMS:
            argv = ["axioms", "--check", "--system", system, "--count", str(self.AXIOM_COUNT),
                    "--seed", str(rng.randrange(10**6))]
            groups.append([(self._call(argv), self.check_axioms, False)])
        # The two inputs kept although they fail every time today.
        groups.append([(self._call(["sat", DEEP_NEGATIONS]),
                        self._sat_check(ref.parse(DEEP_NEGATIONS), "FSCL", lazy=True), True)])
        long_chain = ref.chain("&", map(ref.atom, LONG_CHAIN.split(" && ")))
        groups.append([(self._call(["normalize", LONG_CHAIN]), self._normalize_check(long_chain), True)])
        rng.shuffle(groups)
        return [op for group in groups for op in group]

    def _call(self, argv):
        main = self.main

        def call():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    rc = main(argv)
                except SystemExit as exc:
                    rc = exc.code
            return rc, out.getvalue(), err.getvalue()
        return call

    def _formula_ops(self, text: str, f, logic: str, dot: bool) -> list:
        state: dict = {}
        sat_check = self._sat_check(f, logic, state=state)

        def verify():
            if "witness" in state:
                path = state["witness"]
            else:
                true_traces = [p for p, v in state["traces"] if v]
                path = true_traces[0] if true_traces else state["traces"][0][0]
            state["verified"] = path
            return self._call(["verify", "--logic", logic, text, ref.path_text(path)])()

        tree_argv = ["tree", "--dot", text] if dot else ["tree", text]
        return [
            (self._call(["sat", "--logic", logic, text]), sat_check, False),
            (verify, lambda out: self.check_verify(out, f, logic, state), False),
            (self._call(tree_argv), lambda out: self.check_tree(out, state["traces"], dot), False),
            (self._call(["normalize", text]), self._normalize_check(f, state), False),
        ]

    def _sat_check(self, f, logic: str, state: dict | None = None, lazy: bool = False):
        state = {} if state is None else state
        if not lazy:
            state["traces"] = ref.traces(f)

        def check(out):
            rc, stdout, _ = out
            if "traces" not in state:
                state["traces"] = ref.traces(f)
            expected = ref.decide(state["traces"], logic)
            fields = dict(line.split(": ", 1) for line in stdout.splitlines() if ": " in line)
            expect(fields.get("answer") == ("yes" if expected else "no"),
                   f"sat {logic} {ref.to_text(f)[:60]}: answered {fields.get('answer')}")
            expect(rc == (0 if expected else 1), f"sat exit code {rc}")
            if expected:
                path = ref.parse_path(fields.get("witness", ""))
                expect(ref.check_witness(f, path, logic), f"sat {logic}: bad witness {path!r}")
                state["witness"] = path
            else:
                expect("witness" not in fields, "sat printed a witness for no")
        return check

    @staticmethod
    def check_verify(out, f, logic: str, state: dict) -> None:
        rc, stdout, _ = out
        path = state["verified"]
        value = ref.replay(f, path)
        disciplined = ref.DISCIPLINES[ref.LOGIC_DISCIPLINE[logic]](path)
        if value is None:
            expected = ["result: undefined (path does not trace the tree to a leaf)"]
        else:
            expected = [f"result: {'T' if value else 'F'}",
                        f"discipline ({ref.LOGIC_DISCIPLINE[logic]}): {'ok' if disciplined else 'violated'}",
                        "path-algebra round-trip: ok"]
        expect(stdout.splitlines() == expected, f"verify {logic} {ref.path_text(path)[:60]}: {stdout[:200]!r}")
        expect(rc == (0 if value and disciplined else 1), f"verify exit code {rc}")

    @staticmethod
    def check_tree(out, trace_set, dot: bool) -> None:
        rc, stdout, _ = out
        expect(rc == 0, f"tree exit code {rc}")
        tree = ref.parse_dot(stdout) if dot else ref.parse_tree_text(stdout)
        got = ref.tree_traces(tree)
        expect(len(got) == len(trace_set) and set(got) == set(trace_set),
               "tree leaves differ from the formula's traces")

    def _normalize_check(self, f, state: dict | None = None):
        state = {} if state is None else state

        def check(out):
            rc, stdout, _ = out
            expect(rc == 0, f"normalize exit code {rc}")
            lines = stdout.splitlines()
            expect(len(lines) == 2 and lines[1].startswith("class: "), f"normalize printed {stdout[:100]!r}")
            if "traces" not in state:
                state["traces"] = ref.traces(f)
            got = ref.traces(ref.parse(lines[0]))
            expect(sorted(got) == sorted(state["traces"]), "normal form changes the trace set")
            leaf_values = tuple(sorted({v for _, v in got}))
            expect(lines[1] == "class: " + NF_CLASS[leaf_values], f"normal form class {lines[1]!r}")
        return check

    def check_axioms(self, out) -> None:
        rc, stdout, _ = out
        lines = stdout.splitlines()
        expect(rc == 0 and lines, f"axioms --check exit code {rc}")
        for line in lines:
            m = AXIOM_LINE.fullmatch(line)
            expect(m is not None and m.group(2) == m.group(3) == str(self.AXIOM_COUNT) and m.group(4) == "ok",
                   f"axioms --check: {line!r}")

    def corrupt(self, out):
        rc, stdout, err = out
        return 1 - rc if rc in (0, 1) else rc, stdout.replace("answer: yes", "answer: no"), err


WORKLOADS = {"sweep": Sweep, "cnf": Cnf, "cli": Cli}
