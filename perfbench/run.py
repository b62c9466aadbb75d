#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --compare <old.json> <new.json>

The first form builds the harness (library sources from src/ plus the
files in this directory) under .bench_build/perfbench, runs one workload
and forwards the harness's output; its last line is the result JSON
object.  The harness's full report is saved under
.bench_build/perfbench/results/.  Build output goes to stderr.

The second form compares two saved reports metric by metric, and refuses
(exit 2) when their host blocks differ: numbers from different
compilers, SIMD backends, worker counts or environments are not
comparable.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]


def run(args):
    build()
    results = os.path.join(BUILD, "results")
    os.makedirs(results, exist_ok=True)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(results, tag + ".spans.json")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stdout)
        sys.exit("perfbench: harness exited with %d" % proc.returncode)

    report, result = json.loads(lines[0]), json.loads(lines[-1])
    want = declared_metrics(args.trace)
    if list(result["metrics"]) != want:
        sys.exit("perfbench: metrics %s do not match BENCHMARK.json %s"
                 % (list(result["metrics"]), want))
    with open(os.path.join(results, tag + ".json"), "w") as f:
        json.dump(report, f, indent=1)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()


def compare(old_path, new_path):
    with open(old_path) as f:
        old = json.load(f)
    with open(new_path) as f:
        new = json.load(f)
    if old["host"] != new["host"]:
        sys.stderr.write("perfbench: refusing to compare results from "
                         "different host blocks:\n  %s\n  %s\n"
                         % (json.dumps(old["host"]), json.dumps(new["host"])))
        return 2
    if old["workload"] != new["workload"]:
        sys.stderr.write("perfbench: refusing to compare different workloads\n")
        return 2
    for section in ("end_to_end", "per_layer"):
        for name, m in new[section].items():
            if name not in old[section]:
                continue
            a, b = old[section][name]["value"], m["value"]
            change = "" if a == 0 else " (%+.1f%%)" % (100.0 * (b - a) / a)
            print("%-40s %14.6g -> %14.6g %s%s" % (name, a, b, m["unit"], change))
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = p.parse_args()
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        p.error("--workload is required")
    run(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
