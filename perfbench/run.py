#!/usr/bin/env python3
"""Builds the repo benchmark from source and runs one workload.

    python3 perfbench/run.py --workload serve_write --seed 1 --seconds 45 --trace 0

Run it from the root of the repository. The driver binary is built with
CMake into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench),
against the library sources in src/. The last line of standard output is
one JSON object: correct, attempted, failed and the metrics that
BENCHMARK.json lists, its end_to_end metrics with --trace 0 and its
per_layer metrics with --trace 1. The line before it, PERFBENCH_RESULT,
holds every metric the run produced and the per-class counts.

--short runs the small version of a workload, which executes every check
in a few seconds; its result may lack metrics that need many samples.
Exit status: 0 when every answer was correct, 1 otherwise or when the build
or the run failed (then no result line is printed).
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
WORKLOADS = ("serve_read", "serve_write", "paper_embedded")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "perfbench")


def build(bdir):
    """Configures once and builds the driver; output goes to stderr."""
    os.makedirs(bdir, exist_ok=True)
    with open(os.path.join(bdir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(bdir, "Makefile")):
            subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, check=True)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", bdir, "--target", "perfbench_driver",
                        "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(bdir, "perfbench_driver")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None,
                    help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--short", action="store_true")
    args = ap.parse_args()
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]

    try:
        driver = build(build_dir())
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    trace_dir = os.path.join(build_dir(), "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(args.trace),
           "--trace-dir", trace_dir]
    if args.short:
        cmd.append("--short")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=170)
    except subprocess.TimeoutExpired:
        print("perfbench: the driver did not finish in time", file=sys.stderr)
        return 1

    result = None
    for line in proc.stdout.splitlines():
        print(line)
        if line.startswith("PERFBENCH_RESULT "):
            result = json.loads(line[len("PERFBENCH_RESULT "):])
    if result is None:
        print(f"perfbench: the driver exited with {proc.returncode} and no "
              "result", file=sys.stderr)
        return 1

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            if args.short:
                continue
            print(f"perfbench: the run produced no {m['name']}",
                  file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0 if result["correct"] and proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
