#!/usr/bin/env python3
"""Benchmark entry point for bgpsim.

    python3 perfbench/run.py --workload sweep|serve|campaign --seed N \
        --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (the bgpsim library from
src/ plus the benchmark driver) into $CARGO_TARGET_DIR, default
.bench_build, runs the benchmark's self-test, then one workload. The last
line of stdout is the driver's JSON result; build output goes to stderr.

Every BGPSIM_* variable is removed from the environment first, and the
scale, topology seed and worker count W (= the CPUs this process may use)
are passed to the driver explicitly.
"""

import argparse
import os
import subprocess
import sys

SCALE = 8000
TOPOLOGY_SEED = 2014
# A run normally takes well under a minute; this bounds a hung one.
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["sweep", "serve", "campaign"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    root = os.getcwd()
    source = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        log("no bgpsim sources (src/CMakeLists.txt) under the working "
            "directory; run from the repository root")
        return 2

    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = {k: v for k, v in os.environ.items() if not k.startswith("BGPSIM_")}
    workers = len(os.sched_getaffinity(0))

    def step(command):
        # Build and self-test output goes to stderr: stdout carries only
        # the driver's lines.
        done = subprocess.run(command, env=env, stdout=sys.stderr,
                              stderr=sys.stderr, check=False)
        return done.returncode == 0

    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        if not step(["cmake", "-S", source, "-B", build,
                     "-DCMAKE_BUILD_TYPE=Release"]):
            log("configure failed")
            return 1
    if not step(["cmake", "--build", build, "-j", str(workers), "--target",
                 "perfbench_driver", "perfbench_selftest"]):
        log("build failed")
        return 1
    if not step([os.path.join(build, "perfbench_selftest")]):
        log("self-test failed")
        return 1

    workdir = os.path.join(build, "run")
    os.makedirs(workdir, exist_ok=True)
    command = [
        os.path.join(build, "perfbench_driver"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--workers", str(workers),
        "--scale", str(SCALE),
        "--topology-seed", str(TOPOLOGY_SEED),
        "--workdir", workdir,
    ]
    try:
        done = subprocess.run(command, env=env, timeout=RUN_TIMEOUT_S,
                              check=False)
    except subprocess.TimeoutExpired:
        log(f"driver did not finish within {RUN_TIMEOUT_S} s")
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
