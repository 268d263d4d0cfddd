#!/usr/bin/env python3
"""Builds the end-to-end benchmark and runs one workload.

    python3 e2ebench/run.py --workload als-exact --seed 7 --seconds 10 --trace 0

Run from the root of a checkout. The benchmark program (src/ in this
directory) is built in Release into .bench_build/ with the library from the checkout's
source tree; a rebuild is a no-op when nothing changed. The workload's input
is generated from --seed (untimed, in its own process), written as a FROSTT
.tns file, and the workload runs in a fresh process that sees only that
file. The last line of standard output is the result object; the `# ...`
lines before it are the context stamp.

Extra flags (--scale, --sweeps, --requests) are passed to the program; the
smoke test uses them to shrink a run.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "e2e_bench")

# Workload -> (amazon preset scale, OpenMP threads). The OpenMP team is
# pinned in the environment and again inside the program, never inherited.
WORKLOADS = {
    "als-exact": (4.0, 4),
    "als-sampled": (4.0, 4),
    "par-als-threads": (4.0, 1),
    "serve-mixed": (1.0, 1),
}

# Every child is waited for; a run that hangs is killed well inside the
# 180-second limit of one benchmark run.
CHILD_TIMEOUT_S = 150


def build():
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "w") as log:
        # Configure once; the build step re-runs it when a CMakeLists.txt
        # changes.
        steps = [["cmake", "--build", BUILD, "-j", "4", "--target", "e2e_bench"]]
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD,
                             "-DCMAKE_BUILD_TYPE=Release"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.stderr.write("run.py: build failed: %s\n" % " ".join(cmd))
                return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--scale", type=float, default=None)
    args, extra = ap.parse_known_args()

    if not build():
        return 1
    scale, threads = WORKLOADS[args.workload]
    if args.scale is not None:
        scale = args.scale
    env = dict(os.environ, OMP_NUM_THREADS=str(threads), OMP_DYNAMIC="false")

    data = os.path.join(BUILD, "data")
    os.makedirs(data, exist_ok=True)
    tns = os.path.join(data, "%s-%d-%d.tns" % (args.workload, args.seed, os.getpid()))
    try:
        gen = subprocess.run(
            [BINARY, "gen", "--scale", repr(scale), "--seed", str(args.seed), "--out", tns],
            env=env, timeout=CHILD_TIMEOUT_S)
        if gen.returncode:
            return 1
        sys.stdout.flush()
        run = subprocess.run(
            [BINARY, "run", "--workload", args.workload, "--tns", tns,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--scale", repr(scale)] + extra,
            env=env, timeout=CHILD_TIMEOUT_S)
        return run.returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("run.py: workload timed out\n")
        return 1
    finally:
        if os.path.exists(tns):
            os.remove(tns)


if __name__ == "__main__":
    sys.exit(main())
