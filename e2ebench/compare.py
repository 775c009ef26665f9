#!/usr/bin/env python3
"""Compares a fresh bench_e2e report against a baseline report.

    python3 e2ebench/compare.py e2ebench/baseline.json NEW.json
                                [--base-set I] [--new-set J]

Both files are `run.py --out` reports (baseline.json is one); each holds
one or more sets of runs. For every workload x end-to-end metric it
prints the two medians, the change (positive = worse), each side's
spread (interquartile range over median) and a verdict:

  same        within the metric's bound from BENCHMARK.json
  better      better by more than the bound
  REGRESSION  worse by more than the bound
  unresolved  a spread exceeds the bound, so the medians cannot tell;
              reported as better only if every new run reads better
              than every baseline run

It exits 1 on any regression or any rise in the failed fraction.
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def verdict(base, new, bound, higher_is_better):
    sign = -1.0 if higher_is_better else 1.0
    change = sign * (new["median"] - base["median"]) / base["median"]
    if max(base["spread"], new["spread"]) > bound:
        if higher_is_better:
            all_better = min(new["values"]) > max(base["values"])
        else:
            all_better = max(new["values"]) < min(base["values"])
        return change, "better" if all_better else "unresolved"
    if change > bound:
        return change, "REGRESSION"
    if change < -bound:
        return change, "better"
    return change, "same"


def failed_fraction(data):
    return data["failed"] / data["attempted"] if data["attempted"] else 1.0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("baseline")
    parser.add_argument("new")
    parser.add_argument("--base-set", type=int, default=0)
    parser.add_argument("--new-set", type=int, default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base = json.loads(Path(args.baseline).read_text())["sets"][args.base_set]
    new = json.loads(Path(args.new).read_text())["sets"][args.new_set]

    bad = False
    print(f"{'workload':13s} {'metric':15s} {'baseline':>12s} {'new':>12s} "
          f"{'change':>8s} {'spreads':>13s} {'bound':>6s}  verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        if workload not in base["workloads"] or workload not in new["workloads"]:
            print(f"{workload:13s} missing from one report")
            bad = True
            continue
        b, n = base["workloads"][workload], new["workloads"][workload]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            bm, nm = b["metrics"][name], n["metrics"][name]
            change, result = verdict(bm, nm, metric["bound"], metric["better"] == "higher")
            bad = bad or result == "REGRESSION"
            spreads = f"{100 * bm['spread']:.1f}/{100 * nm['spread']:.1f}%"
            print(f"{workload:13s} {name:15s} {bm['median']:12.6g} {nm['median']:12.6g} "
                  f"{100 * change:+7.1f}% {spreads:>13s} {100 * metric['bound']:5.0f}%  {result}")
        if failed_fraction(n) > failed_fraction(b):
            print(f"{workload:13s} failed fraction rose: {b['failed']}/{b['attempted']} -> "
                  f"{n['failed']}/{n['attempted']}")
            bad = True
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
