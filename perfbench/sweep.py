#!/usr/bin/env python3
"""Repeated runs, spread and comparison for the repository benchmark.

    # ten seeds of every workload; result lines appended to runs.jsonl
    python3 perfbench/sweep.py run --seeds 1-10 --out runs.jsonl [--workload W]
    # per workload and metric: median, quartiles, IQR/median vs bound
    python3 perfbench/sweep.py spread runs.jsonl
    # parent vs change: flags every end-to-end metric whose median got
    # worse by more than its BENCHMARK.json bound (exit 1 if any)
    python3 perfbench/sweep.py compare parent.jsonl change.jsonl

Each line of a .jsonl file is {"workload", "seed", "trace", "result"},
where "result" is the final JSON line of one run.py call. Run from the
repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def load_runs(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def by_workload(runs, trace=0):
    grouped = {}
    for run in runs:
        if run["trace"] == trace:
            grouped.setdefault(run["workload"], []).append(run["result"])
    return grouped


def spread_rows(runs, spec):
    """Yields (workload, metric, median, iqr_share, bound) per metric."""
    for workload, results in sorted(by_workload(runs).items()):
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            q1, med, q3 = quartiles(values)
            share = (q3 - q1) / abs(med) if med else float("inf")
            yield workload, metric["name"], med, share, metric["bound"]


def regressions(parent_runs, change_runs, spec):
    """Yields (workload, metric, parent median, change median, worse share,
    bound) for every metric whose change median is worse than the
    parent's by more than its bound."""
    parent = by_workload(parent_runs)
    change = by_workload(change_runs)
    for workload in sorted(set(parent) & set(change)):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p = statistics.median(r["metrics"][name]["value"] for r in parent[workload])
            c = statistics.median(r["metrics"][name]["value"] for r in change[workload])
            worse = (c - p) if metric["better"] == "lower" else (p - c)
            share = worse / abs(p) if p else (float("inf") if worse > 0 else 0.0)
            if share > metric["bound"]:
                yield workload, name, p, c, share, metric["bound"]


def cmd_run(args):
    spec = load_spec()
    workloads = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    failures = 0
    with open(args.out, "a") as out:
        for workload in workloads:
            for seed in parse_seeds(args.seeds):
                proc = subprocess.run(
                    [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                     "--seed", str(seed), "--seconds", str(seconds), "--trace",
                     str(args.trace)], stdout=subprocess.PIPE, text=True, cwd=ROOT)
                last = proc.stdout.splitlines()[-1] if proc.stdout else ""
                try:
                    result = json.loads(last)
                except ValueError:
                    result = None
                if proc.returncode != 0 or result is None or not result["correct"]:
                    failures += 1
                    print(f"{workload} seed {seed}: FAILED (exit {proc.returncode})",
                          file=sys.stderr)
                    print(proc.stdout, file=sys.stderr)
                    continue
                out.write(json.dumps({"workload": workload, "seed": seed,
                                      "trace": args.trace, "result": result}) + "\n")
                out.flush()
                print(f"{workload} seed {seed}: " + " ".join(
                    f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                    if args.trace == 0))
    return 1 if failures else 0


def cmd_spread(args):
    spec = load_spec()
    runs = []
    for path in args.files:
        runs.extend(load_runs(path))
    worst = 0.0
    for workload, name, med, share, bound in spread_rows(runs, spec):
        flag = "" if share < bound / 3 else ("  > bound/3" if share <= bound else "  > BOUND")
        if name != "setup_s":
            worst = max(worst, share / bound)
        print(f"{workload:14s} {name:14s} median {med:12.6g}  iqr/median {share:7.4f}"
              f"  bound {bound:5.3f}{flag}")
    print(f"worst spread/bound (setup_s excluded): {worst:.3f}")
    return 0 if worst <= 1.0 else 1


def cmd_compare(args):
    spec = load_spec()
    flagged = list(regressions(load_runs(args.parent), load_runs(args.change), spec))
    for workload, name, p, c, share, bound in flagged:
        print(f"REGRESSION {workload} {name}: {p:.6g} -> {c:.6g} "
              f"({100 * share:.1f}% worse, bound {100 * bound:.0f}%)")
    if not flagged:
        print("no end-to-end metric worse than its bound")
    return 1 if flagged else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    run = sub.add_parser("run")
    run.add_argument("--seeds", required=True)
    run.add_argument("--out", required=True)
    run.add_argument("--workload")
    run.add_argument("--seconds", type=float)
    run.add_argument("--trace", type=int, default=0, choices=(0, 1))
    spread = sub.add_parser("spread")
    spread.add_argument("files", nargs="+")
    compare = sub.add_parser("compare")
    compare.add_argument("parent")
    compare.add_argument("change")
    args = parser.parse_args()
    return {"run": cmd_run, "spread": cmd_spread, "compare": cmd_compare}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
