#!/usr/bin/env python3
"""Checks that the benchmark repeats: runs each workload several times, one
seed per run, and reports every metric's median, quartiles and spread
(q3 - q1) / median; then compares two such sets against the bounds in
BENCHMARK.json.

    # one set: 10 runs per workload, seeds 1..10, written to a JSON record
    python3 e2ebench/steadiness.py --runs 10 --out .bench_build/set1.json
    # a second set on seeds 101..110, then the comparison
    python3 e2ebench/steadiness.py --runs 10 --first-seed 101 --out .bench_build/set2.json
    python3 e2ebench/steadiness.py --compare .bench_build/set1.json .bench_build/set2.json

Run from the root of a checkout. --workloads picks a subset, --trace 1
measures the per-layer metrics instead (no bounds apply to those), and
--first-seed shifts the seeds. A set passes when every end-to-end spread,
setup_s's too, is within its bound (spreads above a third of it are
flagged); a comparison passes when every metric's two medians differ by at
most its bound, |second - first| / first, in either direction.
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


def run_once(spec, workload, seed, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise SystemExit("run failed (exit %d): %s" % (proc.returncode, " ".join(cmd)))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit("incorrect run: %s\n%s" % (" ".join(cmd), proc.stdout))
    return {k: v["value"] for k, v in result["metrics"].items()}


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def collect(args, spec):
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    record = {}
    for w in workloads:
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + i
            runs.append(run_once(spec, w, seed, args.trace))
            print("  %s seed %d done" % (w, seed), file=sys.stderr, flush=True)
        record[w] = {m: [r[m] for r in runs] for m in runs[0]}
    return record


def report(record, spec):
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    ok = True
    for w, metrics in record.items():
        print("%s (%d runs)" % (w, len(next(iter(metrics.values())))))
        print("  %-28s %14s %14s %14s %8s %7s" % ("metric", "median", "q1", "q3", "spread", "bound"))
        for m, values in metrics.items():
            med, q1, q3, spread = summary(values)
            bound = bounds.get(m, {}).get("bound")
            flag = ""
            if bound is not None:
                if spread > bound:
                    flag, ok = "  OVER BOUND", False
                elif spread > bound / 3:
                    flag = "  over bound/3"
            print("  %-28s %14.6g %14.6g %14.6g %8.4f %7s%s" % (
                m, med, q1, q3, spread, "-" if bound is None else bound, flag))
    return ok


def compare(first, second, spec):
    ok = True
    for m in spec["end_to_end"]:
        for w in first:
            a = statistics.median(first[w][m["name"]])
            b = statistics.median(second[w][m["name"]])
            # Two sets of the same code must agree: a second set that is
            # faster by more than the bound fails as well as a slower one.
            moved = (b - a) / a
            agree = abs(moved) <= m["bound"]
            ok &= agree
            print("  %-16s %-18s %14.6g %14.6g %+8.4f (bound %.2f) %s" % (
                w, m["name"], a, b, moved, m["bound"],
                "ok" if agree else "OUTSIDE BOUND"))
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", nargs="*")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out")
    ap.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = ap.parse_args()
    spec = load_spec()
    if args.compare:
        sets = []
        for path in args.compare:
            with open(path) as f:
                sets.append(json.load(f))
        ok = all([report(s, spec) for s in sets])
        ok = compare(sets[0], sets[1], spec) and ok
    else:
        record = collect(args, spec)
        if args.out:
            with open(args.out, "w") as f:
                json.dump(record, f, indent=1)
        ok = report(record, spec) if args.trace == 0 else True
        if args.trace:
            report(record, {"end_to_end": []})
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
