#!/usr/bin/env python3
"""Checks that repeated benchmark runs agree.

Run from the repository root:

    python3 perfbench/spread.py paper4 serve_zipf --seeds 10 --seconds 10

Runs `perfbench/run.py --workload W --seed S --trace 0` once per seed
for each named workload and prints, per end-to-end metric, the median
and the spread (interquartile range over the median, quartiles as
`statistics.quantiles(values, n=4)` computes them) beside the metric's
bound from BENCHMARK.json. A spread above a third of its bound is
flagged. Exits non-zero if a run fails, reports `correct: false`, or
any spread (`setup_s` included) exceeds its metric's bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("workloads", nargs="+")
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=100)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--log", help="append every run's full output to this file")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for w in args.workloads:
        values = {name: [] for name in bounds}
        took_all = [0.0]
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = [sys.executable, "perfbench/run.py", "--workload", w,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
            began = time.monotonic()
            out = subprocess.run(cmd, capture_output=True, text=True)
            took = time.monotonic() - began
            last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else "{}"
            try:
                result = json.loads(last)
            except json.JSONDecodeError:
                result = {}
            took_all.append(took)
            if args.log:
                with open(args.log, "a") as log:
                    log.write(out.stdout)
            if out.returncode != 0 or not result.get("correct"):
                ok = False
                print(f"{w} seed {seed}: FAILED (exit {out.returncode})\n{out.stdout}{out.stderr}")
                continue
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print(f"== {w}: {args.seeds} seeds from {args.first_seed}, "
              f"{max(took_all):.1f} s per run at most")
        for name, vs in values.items():
            if len(vs) < 2:
                continue
            q1, _, q3 = statistics.quantiles(vs, n=4)
            med = statistics.median(vs)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if spread > bounds[name]:
                flag = "  <-- ABOVE BOUND"
                ok = False
            elif spread > bounds[name] / 3:
                flag = "  <-- above bound/3"
            print(f"   {name:<14} median {med:<12.6g} spread {spread:.4f} "
                  f"(bound {bounds[name]}){flag}")
            print("      " + " ".join(f"{v:.6g}" for v in vs))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
