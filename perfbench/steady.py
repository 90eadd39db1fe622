#!/usr/bin/env python3
"""Steadiness report: run each workload repeatedly and compare the spread of
every end-to-end metric with its bound in BENCHMARK.json.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1] [--same-seed]
                                [--workload NAME ...]

Run from the root of the checkout.  Each run uses the next seed, or with
--same-seed the first seed every time, which leaves only the host's noise
in the spread.  For every workload and end-to-end metric it prints the
median, the quartiles (as statistics.quantiles(values, n=4) gives them) and
the spread (q3 - q1) / median next to the metric's bound, and flags a
spread above the bound, or above a third of it.  Exits 1 when any run fails
or any spread exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                      "--trace", "0"]
    done = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = [line for line in done.stdout.splitlines() if line.strip()]
    if done.returncode != 0 or not lines:
        return None
    result = json.loads(lines[-1])
    return result if result.get("correct") else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--same-seed", action="store_true", help="run every time with --first-seed")
    parser.add_argument("--workload", action="append", help="default: every workload")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    ok = True
    for workload in workloads:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for i in range(args.runs):
            seed = args.first_seed + (0 if args.same_seed else i)
            result = run_once(bench["command"], workload, seed, bench["run_seconds"])
            if result is None:
                print(f"{workload}: seed {seed}: run failed")
                ok = False
                continue
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload}: seed {seed}: " + ", ".join(
                f"{name} {result['metrics'][name]['value']:.6g}" for name in values), flush=True)
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            samples = values[name]
            if len(samples) < 2:
                continue
            q1, median, q3 = statistics.quantiles(samples, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            flag = ""
            if spread > bound:
                flag = "  OVER BOUND"
                ok = False
            elif spread > bound / 3:
                flag = "  over a third of the bound"
            print(f"{workload:>10} {name:<22} median {median:<12.6g} q1 {q1:<12.6g} "
                  f"q3 {q3:<12.6g} spread {spread:6.3f}  bound {bound:.3f}{flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
