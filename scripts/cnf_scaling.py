#!/usr/bin/env python3
"""Time solve(MSCL) on seeded random 3-CNF formulas as the variable count grows.

For each size n, builds five random 3-CNF formulas with round(4.26 n)
clauses (three distinct variables per clause, each negated with probability
1/2), left-nested like the parser reads them, and prints how many are
satisfiable and the median and max CPU time of solve(Logic.MSCL, f).

    python3 scripts/cnf_scaling.py --sizes 60 80 100
"""

import argparse
import random
import statistics
import time

from sclsat.formula_core import Con, Dis, Formula, Lit, Neg
from sclsat.sat_solvers import Logic, solve

RATIO = 4.26
SAMPLES = 5
SEED = 0


def random_3cnf(rng: random.Random, n: int) -> Formula:
    f = None
    for _ in range(round(RATIO * n)):
        clause = None
        for v in rng.sample(range(n), 3):
            lit = Lit(f"x{v}") if rng.random() < 0.5 else Neg(Lit(f"x{v}"))
            clause = lit if clause is None else Dis(clause, lit)
        f = clause if f is None else Con(f, clause)
    return f


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", type=int, nargs="+", default=[60, 80, 100])
    args = parser.parse_args()
    if min(args.sizes) < 3:
        parser.error("every size must be at least 3")

    print("n sat median_s max_s")
    for n in args.sizes:
        rng = random.Random(f"{SEED}:{n}")
        times = []
        sat = 0
        for _ in range(SAMPLES):
            f = random_3cnf(rng, n)
            start = time.process_time()
            out = solve(Logic.MSCL, f)
            times.append(time.process_time() - start)
            sat += out.answer == "yes"
        print(f"{n} {sat}/{SAMPLES} {statistics.median(times):.4f} {max(times):.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
