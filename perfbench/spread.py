#!/usr/bin/env python3
"""Measures the run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload <name> --seeds 1-10 [--seconds S]
                                [--out results.json]

Runs perfbench/run.py once per seed (trace off) and prints, per end-to-end
metric, the median of the runs and the quartile spread: the distance
between the first and third quartile (statistics.quantiles, n=4) as a share
of the median, next to the metric's bound from BENCHMARK.json. A spread at
or above a third of its bound is flagged; setup_s is reported but, as its
spread is not gated, never flagged.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--out")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]

    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in seeds_of(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            sys.exit(f"seed {seed}: run.py exited {proc.returncode}")
        result = json.loads(proc.stdout.splitlines()[-1])
        for name, metric in result["metrics"].items():
            values[name].append(metric["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()),
            flush=True)

    steady = True
    for metric in spec["end_to_end"]:
        vals = values[metric["name"]]
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median if median else float("inf")
        flag = ""
        if metric["name"] != "setup_s" and spread >= metric["bound"] / 3:
            flag = "  <-- above a third of the bound"
            steady = False
        print(f"{metric['name']:>16}: median {median:.6g} "
              f"spread {spread:.3f} (bound {metric['bound']}){flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"workload": args.workload, "values": values}, indent=1))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
