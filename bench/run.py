#!/usr/bin/env python3
"""The sclsat benchmark.  Run from the root of the repository:

    python3 bench/run.py --workload sweep|cnf|cli --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

Each run starts fresh child processes, one at a time, with a fixed
PYTHONHASHSEED: one that warms the bytecode caches, SETUP_PROBES that each
time sclsat's set-up in a fresh interpreter, and one that runs the workload
for S seconds of whole rounds and checks every output.  The last line of
standard output is one JSON object: correct, attempted, failed and metrics
(the end-to-end metrics with --trace 0, the per-layer ones with --trace 1).
The exit code is 0 only when every output was correct.

--smoke runs each workload on tiny inputs, once as is and once with one
output corrupted, and fails unless every plain run passes and every
corrupted run is caught.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".bench_out"
SETUP_PROBES = 11
CHILD_TIMEOUT_S = 150
WORKLOADS = ("sweep", "cnf", "cli")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath("src")
    env["PYTHONHASHSEED"] = "0"
    # Bytecode caches live in the output directory and are written once, by
    # the warm-up child, so every timed interpreter finds them warm.
    env["PYTHONPYCACHEPREFIX"] = os.path.abspath(os.path.join(OUT_DIR, "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_child(argv: list[str], env: dict) -> str:
    proc = subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[:2])} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc.stdout


def setup_times(workload: str, env: dict) -> tuple[float, float]:
    """Medians over fresh interpreters of (set-up seconds, import seconds)."""
    run_child(["-c", "import sclsat, sclsat.cli"], env)
    probes = [json.loads(run_child([os.path.join(HERE, "setup_probe.py"), workload], env))
              for _ in range(SETUP_PROBES)]
    return (statistics.median(p["setup_s"] for p in probes),
            statistics.median(p["import_s"] for p in probes))


def run_workload(workload: str, seed: int, seconds: float, trace: int, env: dict,
                 smoke: bool = False, inject: bool = False) -> dict:
    result_file = os.path.join(OUT_DIR, f"result-{workload}.json")
    argv = [os.path.join(HERE, "child.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace), "--result", result_file]
    if trace:
        argv += ["--spans", os.path.join(OUT_DIR, f"spans-{workload}.bin")]
    if smoke:
        argv.append("--smoke")
    if inject:
        argv.append("--inject")
    run_child(argv, env)
    with open(result_file) as src:
        return json.load(src)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("calls_per_random_algebra"):
        return "ratio"
    return "count"


def report_layers(workload: str, child: dict) -> None:
    functions = child["functions"]
    by_module: dict[str, float] = {}
    for name, f in functions.items():
        module = name.split(".")[0]
        if module != "tracer":
            by_module[module] = by_module.get(module, 0) + f["self_ns"]
    total = sum(by_module.values()) or 1
    print(f"{workload} traced: {child['traced_rounds']} traced rounds; self time by module: " + ", ".join(
        f"{m} {100 * v / total:.1f}%" for m, v in sorted(by_module.items(), key=lambda kv: -kv[1])))
    top = sorted(functions.items(), key=lambda kv: -kv[1]["self_ns"])[:6]
    print(f"{workload} traced: largest self times: " + ", ".join(
        f"{n} {f['self_ns'] / 1e6:.1f} ms" for n, f in top))
    base, traced = child["baseline"], child["traced"]
    print(f"{workload} traced: tracer overhead {child['layers']['tracer.overhead_pct']:.1f}% "
          f"({traced['ops_per_cpu_s']:.1f} ops per CPU-second traced, "
          f"{base['ops_per_cpu_s']:.1f} untraced in the same process)")


def smoke(env: dict) -> int:
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            plain = run_workload(workload, 1, 0, trace, env, smoke=True)
            print(f"smoke {workload} trace={trace}: correct={plain['correct']} attempted={plain['attempted']} "
                  f"failed={plain['failed']} {plain['errors'][:1]}")
            ok = ok and plain["correct"]
        caught = run_workload(workload, 1, 0, 0, env, smoke=True, inject=True)
        print(f"smoke {workload} with a corrupted output: caught={not caught['correct']} {caught['errors'][:1]}")
        ok = ok and not caught["correct"]
    print("smoke:", "pass" if ok else "FAIL")
    return 0 if ok else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join("src", "sclsat", "__init__.py")):
        print("error: run from the root of an sclsat checkout (src/sclsat not found)", file=sys.stderr)
        return 2
    if not args.smoke and args.workload is None:
        ap.error("--workload is required")
    os.makedirs(OUT_DIR, exist_ok=True)
    env = child_env()
    try:
        if args.smoke:
            return smoke(env)
        setup_s, import_s = setup_times(args.workload, env)
        child = run_workload(args.workload, args.seed, args.seconds, args.trace, env)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for error in child["errors"]:
        print(f"{args.workload}: WRONG OUTPUT: {error}")
    print(f"{args.workload}: seed {args.seed}, {child['rounds']} rounds, {child['attempted']} ops attempted, "
          f"{child['failed']} failed")
    if "layers" in child:
        report_layers(args.workload, child)
        metrics = {name: metric(value, unit_of(name)) for name, value in child["layers"].items()}
        metrics["sclsat.import_ms"] = metric(import_s * 1e3, "ms")
    elif "ops" in child:
        print(f"{args.workload}: cpu_tail_ms is the p{child['tail_percentile']:g} of {child['ops']} "
              f"per-op CPU times ({child['tail_beyond']} samples beyond it)")
        metrics = {
            "ops_per_cpu_s": metric(child["ops_per_cpu_s"], "1/s"),
            "latency_p50_ms": metric(child["latency_p50_ms"], "ms"),
            "cpu_tail_ms": metric(child["cpu_tail_ms"], "ms"),
            "setup_s": metric(setup_s, "s"),
            "peak_rss_mb": metric(child["peak_rss_mb"], "MB"),
        }
    else:  # the run stopped at a wrong output before its first op
        metrics = {}
    print(json.dumps({"correct": child["correct"], "attempted": child["attempted"],
                      "failed": child["failed"], "metrics": metrics}))
    return 0 if child["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
