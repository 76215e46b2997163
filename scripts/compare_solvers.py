#!/usr/bin/env python3
"""Cross-check all satisfiability solvers over an exhaustive formula suite.

Runs every solver on every formula over a small alphabet, reports per-solver
CPU time, answer counts, and any disagreement with the brute-force oracle.

    python3 scripts/compare_solvers.py --atoms a b --max-nodes 6
"""

import argparse
import time
from collections import Counter

from sclsat.formula_core import enumerate_formulas, render
from sclsat.sat_solvers import _STRATEGIES, Logic

# Every solve strategy but auto, brute-control (the oracle) first.
SOLVERS = _STRATEGIES


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--atoms", nargs="+", default=["a", "b"])
    parser.add_argument("--max-nodes", type=int, default=6)
    args = parser.parse_args()

    suite = list(enumerate_formulas(args.atoms, args.max_nodes))
    print(f"{len(suite)} formulas over {args.atoms} with <= {args.max_nodes} nodes")

    disagreements = 0
    for logic in Logic:
        oracle = {}
        print(f"\n{logic.value}:")
        for name, solver in SOLVERS.items():
            start = time.process_time()
            answers = Counter()
            for f in suite:
                out = solver(logic, f)
                answers[out.answer] += 1
                if name == "brute-control":
                    oracle[f] = out.answer
                elif out.answer != "unknown" and out.answer != oracle[f]:
                    disagreements += 1
                    print(f"  DISAGREES on {render(f)}: {name} says {out.answer}")
            elapsed = time.process_time() - start
            summary = ", ".join(f"{k}={v}" for k, v in sorted(answers.items()))
            print(f"  {name:>13}: {summary}  ({elapsed:.2f}s)")

    print(f"\n{disagreements} disagreements")
    return 0 if disagreements == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
