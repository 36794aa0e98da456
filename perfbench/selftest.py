#!/usr/bin/env python3
"""The benchmark's own test: every workload in short mode (serve_read, which
BENCHMARK.json does not list, too), untraced and traced, must finish with
every answer correct and no failed operation, and the traced run must
report every per-layer metric BENCHMARK.json lists.

    python3 perfbench/selftest.py

Takes about a minute after the build.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)


def main():
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0
    for w in ["serve_read"] + [x["name"] for x in spec["workloads"]]:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                 "--seed", "7", "--seconds", "2", "--trace", str(trace),
                 "--short"], stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            problem = None
            if proc.returncode != 0 or not lines:
                problem = f"exit {proc.returncode}"
            else:
                r = json.loads(lines[-1])
                wanted = spec["per_layer"] if trace else []
                missing = [m["name"] for m in wanted
                           if m["name"] not in r["metrics"]]
                if not r["correct"]:
                    problem = "incorrect answers"
                elif r["failed"] != 0:
                    problem = f"{r['failed']} failed operations"
                elif missing:
                    problem = "missing " + ", ".join(missing)
            print(f"{w:16} trace {trace}: {problem or 'ok'}", flush=True)
            failures += problem is not None
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
