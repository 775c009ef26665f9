#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (bench_e2e).

One workload (the last stdout line is the result JSON):

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Without --workload every workload runs, each in its own process, and a
table with one row per workload is printed. --repeat N runs each
workload with seeds seed..seed+N-1; --sets K repeats that whole pass K
times; --layers adds one traced pass; --out PATH writes everything as a
report that compare.py reads (baseline.json has this shape).

The program is built from the checkout's sources into .bench_build/e2e.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "e2e"
BINARY = BUILD / "bench_e2e"
WORKDIR = BUILD / "work"
# Compilers and the benchmark keep their temporary files in the checkout.
ENV = dict(os.environ, TMPDIR=str(BUILD / "tmp"))
# A run ends itself after 170 s (bench_e2e's watchdog); this is the
# backstop for a child that cannot.
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"missing {path}")
    return json.loads(path.read_text())


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no icewafl sources under {ROOT / 'src'}; run from a checkout")
    cache = BUILD / "CMakeCache.txt"
    # A cache configured for another source tree cannot be reused.
    if cache.is_file() and f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in cache.read_text():
        shutil.rmtree(BUILD)
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    WORKDIR.mkdir(exist_ok=True)
    steps = []
    if not cache.is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release", *generator])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD), "--target", "bench_e2e", "-j", jobs])
    for step in steps:
        # Build output goes to stderr: stdout carries only results.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, env=ENV).returncode != 0:
            fail("build failed: " + " ".join(step))


def run_once(workload, seed, seconds, trace, spec):
    """Runs one workload in a fresh process; returns (result, stdout)."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--workdir", str(WORKDIR)]
    if trace:
        cmd += ["--chrome-trace", str(BUILD / f"trace_{workload}_{seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=ENV,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} seed {seed}: no result within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stdout.write(proc.stdout)
        fail(f"{workload} seed {seed}: exited {proc.returncode} without a result")
    expected = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    if sorted(result["metrics"]) != sorted(expected):
        fail(f"{workload}: metrics {sorted(result['metrics'])} do not match "
             f"BENCHMARK.json {sorted(expected)}")
    return result, proc


def summarize(values):
    # statistics.quantiles' default (exclusive) quartiles; the run-to-run
    # spread is their distance over the median.
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else 0.0}


def run_set(workloads, seeds, seconds, trace, spec):
    """One pass: every workload on every seed, summarized per metric."""
    out = {"seeds": seeds, "seconds": seconds, "trace": trace, "workloads": {}}
    for workload in workloads:
        attempted = failed = 0
        per_metric = {}
        for seed in seeds:
            result, _ = run_once(workload, seed, seconds, trace, spec)
            attempted += result["attempted"]
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                per_metric.setdefault(name, {"unit": metric["unit"], "values": []})
                per_metric[name]["values"].append(metric["value"])
            print(f"  {workload} seed {seed}: {result['failed']}/{result['attempted']} failed",
                  file=sys.stderr)
        out["workloads"][workload] = {
            "attempted": attempted, "failed": failed,
            "metrics": {name: {"unit": m["unit"], **summarize(m["values"])}
                        for name, m in per_metric.items()}}
    return out


def print_table(result_set, spec):
    """End-to-end: one row per workload, each cell the median and the
    run-to-run spread. Per-layer: one row per metric, a column per workload."""
    data = result_set["workloads"]
    if not result_set["trace"]:
        metrics = spec["end_to_end"]
        print(f"{'workload':13s}" + "".join(f"{m['name'] + ' ' + m['unit']:>24s}" for m in metrics)
              + "  failed")
        for workload, d in data.items():
            cells = "".join(f"{d['metrics'][m['name']]['median']:>15.6g} ({100 * d['metrics'][m['name']]['spread']:4.1f}%)"
                            for m in metrics)
            print(f"{workload:13s}{cells}  {d['failed']}/{d['attempted']}")
        return
    print(f"{'metric':36s} {'unit':8s}" + "".join(f"{w:>14s}" for w in data))
    for m in spec["per_layer"]:
        print(f"{m['name']:36s} {m['unit']:8s}"
              + "".join(f"{d['metrics'][m['name']]['median']:14.5g}" for d in data.values()))
    print(f"{'failed':45s}" + "".join(f"{str(d['failed']) + '/' + str(d['attempted']):>14s}"
                                      for d in data.values()))


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--layers", action="store_true")
    parser.add_argument("--out")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    spec = load_spec()
    build()
    if args.smoke:
        sys.exit(subprocess.run([str(BINARY), "--smoke", "--workdir", str(WORKDIR)],
                                env=ENV, timeout=RUN_TIMEOUT_S).returncode)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in workloads:
        fail(f"unknown workload {args.workload!r}; one of {workloads}")

    if args.workload is not None and args.repeat == 1 and args.sets == 1 and not args.out:
        result, proc = run_once(args.workload, args.seed, seconds, args.trace, spec)
        sys.stdout.write(proc.stdout)
        sys.exit(proc.returncode)

    selected = [args.workload] if args.workload else workloads
    seeds = list(range(args.seed, args.seed + args.repeat))
    report = {"command": sys.argv[1:], "sets": []}
    for _ in range(args.sets):
        result_set = run_set(selected, seeds, seconds, args.trace, spec)
        print_table(result_set, spec)
        report["sets"].append(result_set)
    if args.layers:
        layers = run_set(selected, [args.seed], seconds, 1, spec)
        print_table(layers, spec)
        report["layers"] = layers
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    result_sets = report["sets"] + ([report["layers"]] if args.layers else [])
    failed = sum(d["failed"] for s in result_sets for d in s["workloads"].values())
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
