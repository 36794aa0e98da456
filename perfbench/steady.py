#!/usr/bin/env python3
"""Runs one workload several times and reports how steady its metrics are.

    python3 perfbench/steady.py --workload serve_write --runs 10

Run k uses seed k (1, 2, ...), untraced. For every end-to-end metric it
prints the median, the first and third quartiles (statistics.quantiles,
n=4), min and max, the spread (the distance between the quartiles as a
share of the median), the bound from BENCHMARK.json and whether the spread
stays below a third of it. The share of failed operations is
printed per run. This is what set the bounds, and what re-checks them.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()

    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    results = []
    for seed in range(1, args.runs + 1):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--trace", "0"],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: run failed (exit {proc.returncode})")
            return 1
        r = json.loads(lines[-1])
        share = r["failed"] / r["attempted"]
        host = ""
        for line in lines:
            if line.startswith("PERFBENCH_RESULT "):
                full = json.loads(line[len("PERFBENCH_RESULT "):])["metrics"]
                host = " ".join(f"{k}={v['value']:.4g}" for k, v in full.items()
                                if k in ("host.steal_share",
                                         "host.mem_latency_ns"))
        print(f"seed {seed}: correct={r['correct']} attempted={r['attempted']} "
              f"failed={r['failed']} (share {share:.6g}) {host}", flush=True)
        results.append(r)

    names = list(results[0]["metrics"])
    print(f"\n{'metric':34} {'median':>12} {'q1':>12} {'q3':>12} {'min':>12} "
          f"{'max':>12} {'spread':>8} {'bound':>6}")
    worst = 0.0
    for name in names:
        vals = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        mark = ""
        if bound is not None:
            mark = f"{bound:6.2f}" + (" ok" if spread < bound / 3 else " WIDE")
            if name != "setup_s":
                worst = max(worst, spread / bound)
        print(f"{name:34} {med:12.6g} {q1:12.6g} {q3:12.6g} {min(vals):12.6g} "
              f"{max(vals):12.6g} {spread:8.4f} {mark}")
    print(f"\nlargest spread/bound (setup_s excluded): {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
