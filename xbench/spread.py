#!/usr/bin/env python3
"""Run every workload of BENCHMARK.json on several seeds and print, per
end-to-end metric, the median and the spread the driver computes: the
distance between the first and third quartile as a share of the median.

    python3 xbench/spread.py [--runs 10] [--first-seed 1] [--workload NAME]...

Run from the root of the repository, after the command in BENCHMARK.json
has built once. A spread above a third of the metric's bound is marked.
"""
import argparse
import json
import statistics
import subprocess
import sys

parser = argparse.ArgumentParser()
parser.add_argument("--runs", type=int, default=10)
parser.add_argument("--first-seed", type=int, default=1)
parser.add_argument("--workload", action="append")
args = parser.parse_args()

with open("BENCHMARK.json") as f:
    bench = json.load(f)
bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
workloads = args.workload or [w["name"] for w in bench["workloads"]]

worst = 0.0
for workload in workloads:
    values = {name: [] for name in bounds}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        command = bench["command"] + [
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", "0",
        ]
        out = subprocess.run(command, capture_output=True, text=True)
        if out.returncode != 0:
            sys.exit(f"{workload} seed {seed} exited {out.returncode}:\n{out.stderr}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            sys.exit(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} failed")
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
    for name, seen in values.items():
        q1, _, q3 = statistics.quantiles(seen, n=4)
        median = statistics.median(seen)
        spread = (q3 - q1) / median
        if name != "setup_s":
            worst = max(worst, spread / bounds[name])
        mark = "  > bound/3" if spread > bounds[name] / 3 and name != "setup_s" else ""
        print(f"{workload:12} {name:10} median {median:12.4f}  spread {spread:.4f}  "
              f"bound {bounds[name]:.2f}  min {min(seen):.4f}  max {max(seen):.4f}{mark}",
              flush=True)
print(f"worst spread is {worst:.2f} of its bound")
