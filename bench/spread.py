#!/usr/bin/env python3
"""Run every workload on several seeds and report each end-to-end metric's
run-to-run spread: the distance between the first and third quartile of its
values (statistics.quantiles(values, n=4)) as a share of their median.

    python3 bench/spread.py [--bin PATH] [--seeds 1,2,...] [--seconds N]
                            [--workloads a,b] [--out FILE]

Without --bin the harness is run through cargo, as the driver runs it.
The benchmark is accepted only while every spread except setup_s's stays
within the metric's bound; aim for a third of it.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                      "--trace", "0"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stdout}\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed} was not correct: {result}")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def main():
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser()
    parser.add_argument("--bin")
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--seconds", type=int, default=contract["run_seconds"])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in contract["workloads"]))
    parser.add_argument("--out")
    args = parser.parse_args()
    command = [args.bin] if args.bin else contract["command"]
    seeds = [int(s) for s in args.seeds.split(",")]
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}

    report = {}
    worst = 0.0
    for workload in args.workloads.split(","):
        runs = [run_once(command, workload, seed, args.seconds) for seed in seeds]
        report[workload] = {}
        print(f"{workload}  ({len(seeds)} seeds, {args.seconds} s)")
        for name, bound in bounds.items():
            values = [run[name] for run in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            report[workload][name] = {"median": median, "spread": spread, "values": values}
            gated = name != "setup_s"
            if gated:
                worst = max(worst, spread / bound)
            flag = "" if not gated or spread <= bound / 3 else ("  > bound/3" if spread <= bound else "  > BOUND")
            print(f"  {name:14s} median {median:12.4f}  spread {spread:7.2%}  bound {bound:.0%}{flag}")
    print(f"worst gated spread is {worst:.2f} of its bound")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
