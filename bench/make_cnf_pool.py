#!/usr/bin/env python3
"""Regenerate cnf_pool.json: the random 3-CNF instances of the `cnf` workload
with their classical (MSCL/SSCL) answers, decided by the plain reference DPLL
in reference.py.  Does not use sclsat.

    python3 bench/make_cnf_pool.py

The pool is fixed by POOL_SEED so that the answer table covers every run;
each run's --seed picks the order of the instances and renames their atoms,
which leaves every answer unchanged.
"""

import json
import os
import random
import sys

import reference

POOL_SEED = 1510
RATIO = 4.26
VARIABLES = range(40, 61)
PER_SIZE = 6
POOL_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cnf_pool.json")


def random_3cnf(rng: random.Random, n: int) -> list[list[int]]:
    return [
        [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), 3)]
        for _ in range(round(RATIO * n))
    ]


def main() -> int:
    rng = random.Random(POOL_SEED)
    instances = []
    for _ in range(PER_SIZE):
        for n in VARIABLES:
            clauses = random_3cnf(rng, n)
            model = reference.dpll(clauses, n)
            if model is not None and not all(
                any(model.get(abs(x), False) == (x > 0) for x in c) for c in clauses
            ):
                raise SystemExit("reference DPLL returned a non-model")
            instances.append({"n": n, "mscl": "no" if model is None else "yes", "clauses": clauses})
            print(f"n={n} clauses={len(clauses)} {instances[-1]['mscl']}", file=sys.stderr)
    with open(POOL_FILE, "w") as out:
        json.dump({"seed": POOL_SEED, "ratio": RATIO, "instances": instances}, out, separators=(",", ":"))
        out.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
