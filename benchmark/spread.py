#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, as the driver measures it.

    python3 benchmark/spread.py [--runs 10] [--first-seed 1] [--workload NAME ...]

Runs every workload once per seed through the command BENCHMARK.json
names and prints, per workload and end-to-end metric, the median of the
runs and the distance between their first and third quartile as a share
of that median, next to the metric's bound. A benchmark is steady when
every spread is below a third of its bound.
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        man = json.load(f)
    names = args.workload or [w["name"] for w in man["workloads"]]
    worst = 0.0
    for wl in names:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = man["command"] + ["--workload", wl, "--seed", str(seed),
                                    "--seconds", str(man["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                sys.exit(f"{wl} seed {seed}: exit status {proc.returncode}\n{proc.stdout}")
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append(res["metrics"])
        for m in man["end_to_end"]:
            vals = [r[m["name"]]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med
            if m["name"] != "setup_s":
                worst = max(worst, spread / m["bound"])
            print(f"{wl:16} {m['name']:18} median {med:14.6g} {m['unit']:10} spread {spread:7.2%}  bound {m['bound']:.0%}"
                  f"  runs {' '.join(f'{v:.4g}' for v in vals)}", flush=True)
    print(f"largest spread/bound (setup_s excepted): {worst:.2f}")


if __name__ == "__main__":
    main()
