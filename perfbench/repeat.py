#!/usr/bin/env python3
"""Repeat the benchmark over several seeds and report each metric's spread.

    python3 perfbench/repeat.py --workload NAME [--runs 10] [--first-seed 1]
                                [--seconds S] [--trace 0|1]

Runs `perfbench/run.py` once per seed and prints, for every metric, the
median of the runs and the distance between the first and third quartile
(`statistics.quantiles(values, n=4)`) as a share of that median, next to
the metric's bound from BENCHMARK.json. Also prints the slowest run's wall
time. Exits non-zero if any run fails or reports `correct: false`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", default="0")
    parser.add_argument("--verbose", action="store_true",
                        help="also print every run's value as a share of the median")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values, walls = {}, []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [*bench["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", args.trace]
        start = time.time()
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        walls.append(time.time() - start)
        if done.returncode != 0:
            sys.exit(f"seed {seed}: exit {done.returncode}")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: incorrect result {result}")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    print(f"{args.workload}: {args.runs} runs, slowest {max(walls):.1f} s")
    for name, vs in sorted(values.items()):
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None else ("  OK" if spread < bound / 3 else
                                         ("  within bound" if spread <= bound else "  OVER"))
        print(f"  {name:<36} median {med:<14.6g} spread {spread:.3f}"
              f"{'' if bound is None else f' bound {bound}'}{flag}")
        if args.verbose:
            print("      " + " ".join(f"{v / med:.3f}" for v in vs))


if __name__ == "__main__":
    main()
