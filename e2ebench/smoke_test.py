#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark at tiny scale.

    python3 e2ebench/smoke_test.py

Runs every workload in BENCHMARK.json on amazon x0.1 (2 sweeps, about 50
serving requests), once untraced and once traced, and checks that:
  * the last output line is the result object, with exactly the keys
    correct / attempted / failed / metrics;
  * every oracle passed (correct, failed == 0, attempted >= 1);
  * the untraced run prints exactly the end_to_end metrics and the traced
    run exactly the per_layer metrics of BENCHMARK.json, with their units;
  * every end-to-end value is a positive number, and so is every per-layer
    value of a layer the workload runs;
  * the context stamp names the build type, nproc and the seed.
Exits 0 when all pass. Takes about a minute on 4 cores, plus the first build.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TINY = ["--scale", "0.1", "--sweeps", "2", "--requests", "50"]

# Per-layer metrics that must be nonzero in each workload's traced run:
# the layers that workload runs. The rest print 0 there.
COMMON = ["io.ingest_s", "io.ingest_mb_per_s", "obs.coverage"]
CP = ["cp.gram_s", "cp.spd_solve_s", "cp.normalize_s", "cp.epilogue_share",
      "mttkrp.kernel_s", "mttkrp.calls", "mttkrp.kernel_share",
      "mttkrp.gflops_computed"]
SKETCH = ["sketch.leverage_s", "sketch.sampled_kernel_s", "sketch.samples_per_draw"]
LIVE_LAYERS = {
    "als-exact": COMMON + CP + ["tensor.csf_build_s", "tensor.csf_builds",
                                "mttkrp.parallel_efficiency"],
    "als-sampled": COMMON + CP + SKETCH + [
        "tensor.csf_build_s", "tensor.csf_builds", "sketch.krp_gram_s",
        "sketch.leverage_rebuilds"],
    "par-als-threads": COMMON + CP + [
        "planner.cold_plan_s", "planner.candidates_scored", "planner.cache_hits",
        "planner.cache_hit_rate", "parsim.distribute_s", "parsim.comm_s",
        "parsim.compute_s", "parsim.orchestrator_s", "parsim.words_max",
        "parsim.messages_max", "parsim.rank_imbalance", "parsim.collective_calls"],
    "serve-mixed": COMMON + SKETCH + [
        "tensor.csf_build_s", "tensor.csf_builds", "mttkrp.kernel_s",
        "mttkrp.calls", "planner.cold_plan_s", "planner.candidates_scored",
        "planner.cache_hits", "planner.cache_hit_rate", "serve.factor_prep_ms",
        "serve.kernel_ms", "serve.admit_ms", "serve.queue_wait_ms",
        "serve.repeat_share"],
}


def check(cond, what, problems):
    if not cond:
        problems.append(what)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for w in spec["workloads"]:
        for trace, expected in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            cmd = spec["command"] + ["--workload", w["name"], "--seed", "11",
                                     "--seconds", "1", "--trace", str(trace)] + TINY
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True, timeout=600)
            tag = "%s trace=%d" % (w["name"], trace)
            lines = proc.stdout.strip().splitlines()
            check(proc.returncode == 0, "%s: exit %d" % (tag, proc.returncode), problems)
            if not lines:
                problems.append("%s: no output" % tag)
                continue
            try:
                result = json.loads(lines[-1])
            except ValueError:
                problems.append("%s: last line is not JSON: %r" % (tag, lines[-1]))
                continue
            check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                  "%s: result keys %s" % (tag, sorted(result)), problems)
            check(result.get("correct") is True and result.get("failed") == 0
                  and result.get("attempted", 0) >= 1,
                  "%s: oracle failures\n%s" % (tag, proc.stdout), problems)
            metrics = result.get("metrics", {})
            check(list(metrics) == [m["name"] for m in expected],
                  "%s: metric names differ from BENCHMARK.json" % tag, problems)
            for m in expected:
                got = metrics.get(m["name"], {})
                check(got.get("unit") == m["unit"],
                      "%s: %s unit %r" % (tag, m["name"], got.get("unit")), problems)
                if trace == 0 or m["name"] in LIVE_LAYERS[w["name"]]:
                    check(isinstance(got.get("value"), (int, float)) and got["value"] > 0,
                          "%s: %s = %r" % (tag, m["name"], got.get("value")), problems)
            stamp = "\n".join(lines[:-1])
            for key in ("build type", "nproc", "seed", "load average at start"):
                check("# " + key in stamp, "%s: stamp lacks %r" % (tag, key), problems)
            print("%-28s %s" % (tag, "ok" if not problems else "..."), flush=True)
    for p in problems:
        print("FAIL:", p)
    print("PASS" if not problems else "FAIL")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
