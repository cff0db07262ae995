#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from source and runs one workload.

    python3 perfbench/run.py --workload solve_large|serve_mixed|dynamic_churn
                             --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the repository root. The first call configures and builds the
library (from src/) and the perfbench binary into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); build output goes to stderr. The
binary's ledger lines go to stdout, and the last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics of BENCHMARK.json with --trace 0, the per-layer metrics with
--trace 1. The exit code is nonzero when the build fails, a correctness
check fails, or the metric set does not match BENCHMARK.json.

`--workload all` runs the three workloads back to back and ends with one
JSON object holding every workload's named metrics (hit_p99_ms,
forest_solve_s, ...) instead. BENCHMARK.json lists solve_large and
dynamic_churn only; serve_mixed runs here with its checks, but its
open-loop latencies follow the host's load too closely to be bounded
(perfbench/METRICS.md).
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("solve_large", "serve_mixed", "dynamic_churn")


def build_dir():
    return os.path.join(os.getcwd(), os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def build():
    """Configures (once) and builds the perfbench binary; returns its path or None."""
    out = build_dir()
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return None
    if subprocess.run(["cmake", "--build", out, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        return None
    binary = os.path.join(out, "perfbench")
    return binary if os.path.exists(binary) else None


def source_digest():
    """Commit id when run from a git checkout, else a digest of src/."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            head = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                                  capture_output=True, text=True)
            if head.returncode == 0 and head.stdout.strip():
                return "commit-" + head.stdout.strip()
        except OSError:
            pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-" + digest.hexdigest()[:12]


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_one(binary, workload, seed, seconds, trace, inject=None, echo=True):
    """Runs one workload; returns (exit code, stdout lines, result dict)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", str(trace), "--source-digest", source_digest()]
    if inject:
        cmd += ["--inject", inject]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    if echo:
        for line in lines[:-1]:
            print(line)
    return proc.returncode, lines, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject", default=None,
                        help="deliberate defect, for the gate tests only")
    args = parser.parse_args()

    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    if args.workload == "all":
        named, correct, attempted, failed, worst = {}, True, 0, 0, 0
        for workload in WORKLOADS:
            code, lines, result = run_one(binary, workload, args.seed, args.seconds,
                                          args.trace, args.inject)
            worst = max(worst, code)
            if result is None:
                return code or 1
            correct &= result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            for line in lines:
                parts = line.split()
                if parts[:1] == ["metric"]:
                    name = parts[1]
                    if name in ("setup_s", "peak_rss_mb", "error_frac"):
                        name = workload + "." + name
                    entry = {"value": float(parts[2]), "unit": parts[3]}
                    if len(parts) > 4 and parts[4].startswith("n="):
                        entry["samples"] = int(parts[4][2:])
                    named[name] = entry
        print(json.dumps({"correct": correct, "attempted": attempted,
                          "failed": failed, "metrics": named}))
        return worst if worst else (0 if correct else 1)

    code, lines, result = run_one(binary, args.workload, args.seed, args.seconds,
                                  args.trace, args.inject)
    if result is None:
        print("perfbench: no result line", file=sys.stderr)
        return code or 1
    want = expected_metrics(args.trace)
    if sorted(result.get("metrics", {})) != sorted(want):
        print("perfbench: metric names differ from BENCHMARK.json", file=sys.stderr)
        return 1
    print(lines[-1])
    return code


if __name__ == "__main__":
    sys.exit(main())
