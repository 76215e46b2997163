"""One workload run in a fresh, single-threaded process: a closed loop with
one caller that makes the workload's ops one after another, times each, and
checks each output.  Started by run.py; writes its figures as JSON to the
--result file.

With --trace 1 the first round runs untraced, as the baseline for the
tracer's overhead; then the tracer is installed and the rounds that follow
give the per-layer figures, per round.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import traceback
from array import array
from time import perf_counter, perf_counter_ns, thread_time_ns

from workloads import WORKLOADS, CheckFailed

# A tail is read at the highest of these percentiles that leaves at least
# TAIL_BEYOND samples above it within a single round.  Every round of a
# workload makes the same ops, so the percentile is fixed by the workload and
# does not move when a faster or slower program fits more or fewer rounds
# into a run.
TAIL_LADDER = (99.9, 99.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10

# Per-layer metrics whose value is a function's self time per round.
SELF_TIMES = [
    "sat_solvers.sat_boolean", "sat_solvers.sat_direct", "sat_solvers.sat_open",
    "sat_solvers.verify_witness", "sat_solvers.solve",
    "formula_core.parse", "formula_core.render",
    "eval_tree.se", "eval_tree.substitute", "eval_tree.render_tree", "eval_tree.export_dot",
    "paths.result", "paths.parse_path", "paths.render_path", "paths.check_discipline",
    "normal_form.normalize", "normal_form.classify_nf",
    "valuation_algebras.build_va", "valuation_algebras.build_cva", "valuation_algebras.build_sva",
    "valuation_algebras.eval_formula", "valuation_algebras.random_algebra",
    "valuation_algebras.congruent",
    "axiom_suite.instantiate", "axiom_suite.check_fscl_soundness", "axiom_suite.check_model_soundness",
    "cli.main", "cli.build_parser",
]
CALLS = ["sat_solvers.solve", "formula_core.parse", "eval_tree.se", "cli.main"]
COUNTS = ["sat_solvers.sat_boolean.clauses", "formula_core.parse.chars", "eval_tree.se.tree_leaves",
          "eval_tree.se.distinct_nodes", "valuation_algebras.build_va.path_entries"]


def percentile(ordered, q: float) -> float:
    pos = q / 100 * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


class Samples:
    """Per-op (wall, CPU) nanoseconds of the ops that completed.  They are
    spilled to a file in fixed-size blocks, so the workload process's peak
    memory does not grow with the number of ops a run makes."""

    BLOCK = 1 << 16

    def __init__(self, path: str) -> None:
        self.file = open(path, "w+b")
        self.buffer = array("q")
        self.count = 0

    def add(self, wall: int, cpu: int) -> None:
        self.buffer.append(wall)
        self.buffer.append(cpu)
        self.count += 1
        if len(self.buffer) >= 2 * self.BLOCK:
            self.buffer.tofile(self.file)
            self.buffer = array("q")

    def load(self, first: int) -> tuple[array, array]:
        """(wall, cpu) of the samples from the first-th on."""
        self.file.flush()
        self.file.seek(0)
        data = array("q")
        data.frombytes(self.file.read())
        self.file.seek(0, os.SEEK_END)
        data.extend(self.buffer)
        return data[2 * first::2], data[2 * first + 1::2]

    def close(self) -> None:
        self.file.close()
        os.remove(self.file.name)


class Loop:
    """Runs rounds of ops, timing each op and checking its output."""

    def __init__(self, workload, inject: bool, samples: Samples) -> None:
        self.workload = workload
        self.inject = inject
        self.tracer = None
        self.samples = samples
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.rounds = 0
        self.ops_per_round = 0  # completed ops in the smallest round

    def run_round(self) -> None:
        ops = self.workload.round(self.rounds)
        # The benchmark's own objects (inputs, reference traces) would make
        # the collector's full passes during an op slower than they are in a
        # process that holds only the program's data; keep them out of its
        # scans while the round runs.
        start = self.samples.count
        gc.collect()
        gc.freeze()
        try:
            self._run_ops(ops)
        finally:
            gc.unfreeze()
        completed = self.samples.count - start
        if self.rounds == 0 or completed < self.ops_per_round:
            self.ops_per_round = completed
        self.rounds += 1

    def _run_ops(self, ops) -> None:
        tracer = self.tracer
        for call, check, may_fail in ops:
            if tracer is not None:
                tracer.op = self.attempted
            w0 = perf_counter_ns()
            c0 = thread_time_ns()
            try:
                out = call()
            except Exception as exc:  # a failed op is counted, not fatal
                c1 = thread_time_ns()
                self.attempted += 1
                self.failed += 1
                if not may_fail:
                    self.errors.append(f"op raised {type(exc).__name__}: {str(exc)[:200]}")
                continue
            c1 = thread_time_ns()
            w1 = perf_counter_ns()
            self.attempted += 1
            self.samples.add(w1 - w0, c1 - c0)
            if self.inject:
                out = self.workload.corrupt(out)
                self.inject = False
            try:
                check(out)
            except CheckFailed as exc:
                self.errors.append(str(exc)[:300])
            except Exception:
                self.errors.append("check raised: " + traceback.format_exc(limit=3)[-300:])

    def run_for(self, seconds: float) -> None:
        """Whole rounds, at least one, until `seconds` have passed."""
        start = perf_counter()
        self.run_round()
        while perf_counter() - start < seconds:
            self.run_round()

    def figures(self, first_sample: int = 0) -> dict:
        wall, cpu = self.samples.load(first_sample)
        wall = sorted(wall)
        n = len(cpu)
        tail_q = next((q for q in TAIL_LADDER if self.ops_per_round * (1 - q / 100) >= TAIL_BEYOND), 50.0)
        return {
            "ops": n,
            "ops_per_cpu_s": n / (sum(cpu) / 1e9),
            "latency_p50_ms": percentile(wall, 50) / 1e6,
            "cpu_tail_ms": percentile(sorted(cpu), tail_q) / 1e6,
            "tail_percentile": tail_q,
            "tail_beyond": int(n * (1 - tail_q / 100)),
        }


def layer_metrics(summary: dict, rounds: int) -> dict:
    functions = summary["functions"]

    def fn(name: str, key: str) -> int:
        return functions.get(name, {}).get(key, 0)

    out = {f"{name}.self_ms": fn(name, "self_ns") / 1e6 / rounds for name in SELF_TIMES}
    out.update({f"{name}.calls": fn(name, "calls") / rounds for name in CALLS})
    out.update({name: summary["counts"].get(name, 0) / rounds for name in COUNTS})
    out["sat_solvers.solve.fallbacks"] = summary["solve_fallbacks"] / rounds
    algebras = fn("valuation_algebras.random_algebra", "calls")
    out["valuation_algebras.class_check.calls_per_random_algebra"] = (
        summary["class_checks_in_random_algebra"] / algebras if algebras else 0.0)
    # Called once, before the first op, not per round.
    out["formula_core.enumerate_formulas.self_ms"] = fn("formula_core.enumerate_formulas", "self_ns") / 1e6
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--inject", action="store_true", help="corrupt one output; the run must fail")
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans")
    args = ap.parse_args()

    workload = WORKLOADS[args.workload](args.seed, args.smoke)
    import sclsat
    import sclsat.cli

    src = os.path.join(os.getcwd(), "src", "sclsat")
    if os.path.dirname(os.path.abspath(sclsat.__file__)) != src:
        raise SystemExit(f"imported sclsat from {sclsat.__file__}, not from {src}")

    samples = Samples(os.path.splitext(args.result)[0] + ".samples")
    loop = Loop(workload, args.inject, samples)
    result: dict = {}
    try:
        workload.setup(sclsat)
        workload.bind(sclsat)
        if args.trace:
            from tracer import Tracer

            loop.run_round()
            baseline = loop.figures()
            first_traced = samples.count
            first_round = loop.rounds
            tracer = Tracer()
            tracer.install()
            loop.tracer = tracer
            workload.setup(sclsat)
            workload.bind(sclsat)
            loop.run_for(0 if args.smoke else args.seconds)
            traced = loop.figures(first_traced)
            summary = tracer.summary()
            if args.spans:
                tracer.write(args.spans)
            traced_rounds = loop.rounds - first_round
            layers = layer_metrics(summary, traced_rounds)
            layers["tracer.overhead_pct"] = 100 * (baseline["ops_per_cpu_s"] / traced["ops_per_cpu_s"] - 1)
            result.update(layers=layers, functions=summary["functions"], baseline=baseline, traced=traced,
                          traced_rounds=traced_rounds)
        else:
            loop.run_for(0 if args.smoke else args.seconds)
            peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            result.update(loop.figures(), peak_rss_mb=peak_rss_kb / 1024)
    except CheckFailed as exc:
        loop.errors.append(str(exc))
    samples.close()
    result.update(
        correct=not loop.errors and loop.attempted > 0,
        errors=loop.errors[:20],
        attempted=loop.attempted,
        failed=loop.failed,
        rounds=loop.rounds,
    )
    with open(args.result, "w") as out:
        json.dump(result, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
