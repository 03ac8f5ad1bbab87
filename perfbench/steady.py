#!/usr/bin/env python3
"""Run the benchmark several times with different seeds and report, per
end-to-end metric, the median, the quartiles and the spread (quartile
distance as a share of the median) against the bound in BENCHMARK.json.

    python3 perfbench/steady.py --workload sweep-cached --runs 10 [--first-seed 1]

Run from the root of a checkout. Each run is a separate process.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", default="0")
    opts = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    for i in range(opts.runs):
        seed = opts.first_seed + i
        cmd = bench["command"] + [
            "--workload", opts.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", opts.trace,
        ]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: incorrect result {result}", file=sys.stderr)
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(f"{k}={v[-1]:.6g}" for k, v in values.items()),
              file=sys.stderr)
    print(f"{opts.workload}: {opts.runs} runs")
    print(f"{'metric':32s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'spread':>8s} {'bound':>6s}")
    for name, v in values.items():
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], v[0], v[0])
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        print(f"{name:32s} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f} {bound!s:>6s}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
