#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py --runs 10 [--workloads a,b] [--seconds s] [--first-seed n]

Runs perfbench/run.py once per seed (seeds first-seed .. first-seed+runs-1)
on each workload, then prints for every end-to-end metric its median and
the distance between the first and third quartile as a share of the
median, next to the metric's bound from BENCHMARK.json.  A spread above a
third of the bound is flagged: the benchmark is not steady enough there.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--workloads",
                   default=",".join(w["name"] for w in bench["workloads"]))
    args = p.parse_args()

    steady = True
    for workload in args.workloads.split(","):
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
            result = json.loads(out.splitlines()[-1])
            if not result["correct"]:
                sys.exit("%s seed %d: incorrect result" % (workload, seed))
            for name, m in result["metrics"].items():
                values[name].append(m["value"])
        for m in bench["end_to_end"]:
            v = values[m["name"]]
            med = statistics.median(v)
            q = statistics.quantiles(v, n=4) if len(v) > 1 else [med, med, med]
            spread = (q[2] - q[0]) / med if med else float("inf")
            flag = spread > m["bound"] / 3
            steady = steady and not flag
            print("%-14s %-14s median %-12.6g spread %6.3f bound %.2f %s"
                  % (workload, m["name"], med, spread, m["bound"],
                     "UNSTEADY" if flag else ""))
            print("    values " + " ".join("%.6g" % x for x in v))
        sys.stdout.flush()
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
