"""Command-line surface.

Subcommands:

    sat        decide satisfiability of a formula in a chosen logic
    tree       print the evaluation tree (text or DOT)
    verify     check a claimed witness path against a formula
    normalize  print the normal form of a formula and its class
    axioms     list an axiom system or run its randomized soundness suite

Exit codes: 0 yes / success, 1 no / failed check, 2 unknown, 64 usage error,
65 parse error, 74 output error (the reader closed stdout early).

main(argv) may be called repeatedly in one process; it builds its argparse
parser on the first call and reuses it afterwards.
"""

from __future__ import annotations

import argparse
import functools
import os
import random
import sys

from .axiom_suite import SYSTEMS, axiom_table, check_fscl_soundness, check_model_soundness, instantiate
from .eval_tree import export_dot, render_tree, se
from .formula_core import FALSE, TRUE, Con, Dis, Formula, Lit, Neg, ParseError, parse, render
from .normal_form import classify_nf, normalize
from .paths import (
    PathParseError,
    contract,
    is_memorizing,
    is_repetition_proof,
    parse_path,
    render_path,
    result,
)
from .sat_solvers import _STRATEGIES, Logic, check_path, solve
from .valuation_algebras import (
    CONTRACTIVE,
    MEMORIZING,
    REPETITION_PROOF,
    STATIC,
    build_cva,
    build_sva,
    build_va,
    eval_formula,
    random_algebra,
)

EXIT_YES = 0
EXIT_NO = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 64
EXIT_PARSE = 65
EXIT_IO = 74


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


class _NonNegative(argparse.Action):
    """Store an int option, rejecting negative values as a usage error."""

    def __call__(self, parser, namespace, value, option_string=None):
        if value < 0:
            raise argparse.ArgumentError(self, f"must be non-negative, got {value}")
        setattr(namespace, self.dest, value)


def _read_formula(text: str) -> Formula:
    if text == "-":
        text = sys.stdin.read()
    return parse(text)


def _parse_logic(name: str) -> Logic:
    try:
        return Logic[name.upper()]
    except KeyError:
        print(f"error: unknown logic {name!r}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE) from None


def _witness_constructor(p):
    """Strongest constructor the witness discipline allows."""
    if is_memorizing(p):
        return "sva", build_sva(p)
    if is_repetition_proof(p):
        return "cva", build_cva(p)
    return "va", build_va(p)


def cmd_sat(args: argparse.Namespace) -> int:
    f = _read_formula(args.formula)
    logic = _parse_logic(args.logic)
    outcome = solve(logic, f, args.strategy)
    if args.output == "json":
        print(outcome.to_json())
    else:
        print(f"answer: {outcome.answer}")
        if outcome.witness is not None:
            print(f"witness: {render_path(outcome.witness)}")
        print(f"logic: {outcome.logic.value}")
        print(f"solver: {outcome.solver}")
        print(f"node_visits: {outcome.node_visits}")
    if args.witness_algebra and outcome.witness is not None:
        kind, algebra = _witness_constructor(outcome.witness)
        if args.output == "json":
            print(algebra.to_json())
        else:
            print(f"witness algebra ({kind}): {algebra.to_json()}")
    if outcome.answer == "yes":
        return EXIT_YES
    if outcome.answer == "no":
        return EXIT_NO
    return EXIT_UNKNOWN


def cmd_tree(args: argparse.Namespace) -> int:
    f = _read_formula(args.formula)
    t = se(f)
    print(export_dot(t) if args.dot else render_tree(t))
    return EXIT_YES


def cmd_verify(args: argparse.Namespace) -> int:
    f = _read_formula(args.formula)
    p = parse_path(args.path)
    logic = _parse_logic(args.logic)
    r = result(p, se(f))
    if r is None:
        print("result: undefined (path does not trace the tree to a leaf)")
        return EXIT_NO
    print(f"result: {'T' if r else 'F'}")
    disciplined = check_path(logic, p)
    print(f"discipline ({logic.discipline.value}): {'ok' if disciplined else 'violated'}")
    # Round trip: the path algebra replays the path, so evaluating the formula
    # from its initial state must reproduce the tree result.
    agree = eval_formula(build_va(p), f, 1) == r
    print(f"path-algebra round-trip: {'ok' if agree else 'MISMATCH'}")
    # Without adjacent repeats p is its own contraction: build_cva is build_va.
    if is_repetition_proof(p) and contract(p) != p:
        agree = agree and eval_formula(build_cva(p), f, 1) == r
    if is_memorizing(p):
        agree = agree and eval_formula(build_sva(p), f, 1) == r
    if not agree:
        print("round-trip failure", file=sys.stderr)
        return EXIT_NO
    return EXIT_YES if (r and disciplined) else EXIT_NO


def cmd_normalize(args: argparse.Namespace) -> int:
    f = _read_formula(args.formula)
    nf = normalize(f)
    print(render(nf))
    print(f"class: {classify_nf(nf).value}")
    return EXIT_YES


def _random_formula(rng: random.Random, atoms: list[str], max_nodes: int) -> Formula:
    leaves = [TRUE, FALSE] + [Lit(a) for a in atoms]

    def build(budget: int) -> Formula:
        if budget <= 1:
            return rng.choice(leaves)
        kind = rng.randrange(3)
        if kind == 0 or budget == 2:
            return Neg(build(budget - 1))
        left_budget = rng.randrange(1, budget - 1)
        left = build(left_budget)
        right = build(budget - 1 - left_budget)
        return Con(left, right) if kind == 1 else Dis(left, right)

    return build(max_nodes)


_SYSTEM_CLASS = {
    "EqRPSCL": REPETITION_PROOF,
    "EqCSCL": CONTRACTIVE,
    "EqMSCL": MEMORIZING,
    "EqSSCL": STATIC,
}


def cmd_axioms(args: argparse.Namespace) -> int:
    schemes = axiom_table(args.system)
    if not args.check:
        for scheme in schemes:
            tag = " (defining equation)" if scheme.defining else ""
            print(f"{scheme.name}: {render(scheme.lhs)} = {render(scheme.rhs)}{tag}")
        return EXIT_YES

    rng = random.Random(args.seed)
    atoms = ["p", "q", "r"]
    failures = 0
    for scheme in schemes:
        passed = 0
        for i in range(args.count):
            subst = {v: _random_formula(rng, atoms, 9) for v in scheme.formula_vars}
            atom_subst = {v: rng.choice(atoms) for v in scheme.atom_vars}
            lhs, rhs = instantiate(scheme, subst, atom_subst)
            if scheme.system == "EqFSCL":
                ok = check_fscl_soundness(lhs, rhs)
            else:
                cls = _SYSTEM_CLASS[scheme.system]
                v = random_algebra(cls, max_states=5, alphabet=atoms, seed=rng.randrange(2**30))
                ok = check_model_soundness(v, lhs, rhs)
            if ok:
                passed += 1
        status = "ok" if passed == args.count else "FAIL"
        if passed != args.count:
            failures += 1
        print(f"{scheme.name}: {passed}/{args.count} {status}")
    return EXIT_YES if failures == 0 else EXIT_NO


def build_parser() -> argparse.ArgumentParser:
    # --help shows the module docstring up to its note for in-process callers.
    parser = _Parser(prog="sclsat", description=__doc__.partition("\nmain(argv)")[0],
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--logic", default="FSCL",
                       help="FSCL, RPSCL, CSCL, MSCL or SSCL (case-insensitive)")

    p_sat = sub.add_parser("sat", help="decide satisfiability")
    p_sat.add_argument("formula", help="formula text, or - for stdin")
    add_common(p_sat)
    p_sat.add_argument("--strategy", default="auto", choices=["auto", *_STRATEGIES])
    p_sat.add_argument("--output", default="text", choices=["text", "json"])
    p_sat.add_argument("--witness-algebra", action="store_true",
                       help="also print the witness path algebra as JSON")
    p_sat.set_defaults(func=cmd_sat)

    p_tree = sub.add_parser("tree", help="print the evaluation tree")
    p_tree.add_argument("formula")
    p_tree.add_argument("--dot", action="store_true", help="emit DOT instead of text")
    p_tree.set_defaults(func=cmd_tree)

    p_verify = sub.add_parser("verify", help="check a witness path")
    p_verify.add_argument("formula")
    p_verify.add_argument("path", help='path text, e.g. "[(a,T),(b,F)]"')
    add_common(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_norm = sub.add_parser("normalize", help="print the normal form")
    p_norm.add_argument("formula")
    p_norm.set_defaults(func=cmd_normalize)

    p_ax = sub.add_parser("axioms", help="list or check an axiom system")
    p_ax.add_argument("--system", default="EqFSCL", choices=list(SYSTEMS))
    p_ax.add_argument("--check", action="store_true",
                      help="run randomized soundness checks and report per-axiom pass counts")
    p_ax.add_argument("--seed", type=int, default=0)
    p_ax.add_argument("--count", type=int, default=50, action=_NonNegative,
                      help="instantiations per axiom when checking")
    p_ax.set_defaults(func=cmd_axioms)
    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser main uses: built on the first call, then kept for the
    process.  Parsing leaves no state in it, and argparse looks up
    sys.argv, sys.stdout and sys.stderr on each call, not when it is built."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, PathParseError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except BrokenPipeError:
        # The reader is gone: point stdout at devnull, so that the flush at
        # shutdown raises nothing (the "Note on SIGPIPE" in Python's signal
        # module docs). This serves the console script, which exits next; an
        # in-process caller keeps fd 1 on devnull, whose reader left anyway.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
