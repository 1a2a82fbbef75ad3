#!/usr/bin/env python3
"""Repeatability report for the repository benchmark.

Runs the command in BENCHMARK.json several times on each workload, each run
under another seed, and prints per metric the median, the quartiles and the
spread (Q3 - Q1) / median, using statistics.quantiles(values, n=4). An
end-to-end metric is flagged when its spread exceeds its bound (setup_s is
exempt, as it is only compared by median). With --sets 2 the whole series
runs twice, on fresh seeds, and a metric is also flagged when the second
median is worse than the first by more than its bound. With --trace the
per-layer metrics are reported instead, and a count that must repeat
exactly is flagged when it does not.

Run from the root of the repository:

    python3 perfbench/repeat.py --runs 10 --sets 2
    python3 perfbench/repeat.py --runs 3 --trace --workloads verify-cold
"""

import argparse
import json
import statistics
import subprocess
import sys

# Per-layer counts that must read the same on every run.
EXACT = {
    "prod.firings", "prod.cycles", "prod.pattern_tests", "prod.join_tests",
    "prod.token_asserts", "prod.join_nodes", "serve.cache_hit_ratio",
    "cluster.coalesced", "cluster.failovers", "serve.design_evictions_per_op",
    "flow.front_evictions_per_op", "serve.explain_evictions_per_op",
}


def run_once(spec, workload, seed, seconds, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    res = json.loads(lines[-1])
    if not res["correct"] or res["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect result {res}")
    return res


def summarize(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per workload per set")
    ap.add_argument("--sets", type=int, default=1, help="series of runs to compare")
    ap.add_argument("--seed0", type=int, default=1, help="first seed")
    ap.add_argument("--seconds", type=int, help="timed phase (default: run_seconds)")
    ap.add_argument("--workloads", help="comma-separated subset")
    ap.add_argument("--trace", action="store_true", help="report the per-layer metrics")
    ap.add_argument("--out", help="append every raw result to this JSON-lines file")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]

    medians = []  # per set: {(workload, metric): median}
    seed = args.seed0
    bad = 0
    for s in range(args.sets):
        values = {(w, m["name"]): [] for w in names for m in metrics}
        for _ in range(args.runs):
            for w in names:
                res = run_once(spec, w, seed, seconds, args.trace)
                if args.out:
                    with open(args.out, "a") as f:
                        f.write(json.dumps({"set": s, "workload": w, "seed": seed, **res}) + "\n")
                for m in metrics:
                    values[(w, m["name"])].append(res["metrics"][m["name"]]["value"])
            seed += 1
        print(f"set {s + 1}: {args.runs} runs per workload, {seconds}s each")
        print(f"  {'workload':<12} {'metric':<32} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7}  flag")
        meds = {}
        for w in names:
            for m in metrics:
                name = m["name"]
                vals = values[(w, name)]
                med, q1, q3, spread = summarize(vals)
                meds[(w, name)] = med
                flags = []
                if "bound" in m and name != "setup_s" and spread > m["bound"]:
                    flags.append(f"spread>{m['bound']}")
                elif "bound" in m and name != "setup_s" and spread > m["bound"] / 3:
                    flags.append("spread>bound/3")
                if args.trace and name in EXACT and len(set(vals)) > 1:
                    flags.append("not exact")
                if s > 0 and "bound" in m:
                    first = medians[0][(w, name)]
                    worse = (med - first) if m["better"] == "lower" else (first - med)
                    if first and worse / first > m["bound"]:
                        flags.append(f"median worse by {worse / first:.1%}")
                bad += any(not f.startswith("spread>bound/3") for f in flags)
                print(f"  {w:<12} {name:<32} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} {spread:>7.1%}  {' '.join(flags)}")
        medians.append(meds)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
