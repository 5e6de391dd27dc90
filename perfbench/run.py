#!/usr/bin/env python3
"""The sptd benchmark: a tensor file in, a decomposition model out.

Run from the root of the repository:

    python3 perfbench/run.py --workload cpd-yelp --seed 1 --seconds 10 --trace 0

The first run configures and builds perfbench/ -- the benchmark program and
the library sources it links -- into .bench_build/perfbench; later runs
reuse that build. Each run generates the workload's input from --seed into
a fresh directory under .bench_build/data (a separate, untimed process),
measures the user path on it for --seconds, and removes the directory.
With --trace 1 the Chrome trace of the run is written to
.bench_build/traces/<workload>-seed<seed>.json.

The last line of standard output is the JSON result; lines before it that
start with '#' describe the input and the samples. --smoke runs the same
path on tiny inputs (the benchmark's own test uses it).
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("cpd-yelp", "cpd-nell2")
# A run must end within 180 s of its start once the program is built.
RUN_BUDGET_S = 170.0


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures and builds the benchmark program; returns its path."""
    for needed in ("CMakeLists.txt", os.path.join("src", "sptd.hpp")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail(f"library source {needed} not found next to perfbench/")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    build_dir = os.path.join(BUILD_ROOT, "perfbench")
    # Build logs go to stderr: stdout carries only the result.
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own test")
    args = parser.parse_args()

    try:
        program = build()
    except (subprocess.CalledProcessError, OSError) as err:
        fail(f"build failed: {err}")

    start = time.monotonic()
    env = dict(os.environ)
    env.pop("SPTD_BACKEND", None)  # the library's default backend
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        common.append("--smoke")
    os.makedirs(os.path.join(BUILD_ROOT, "data"), exist_ok=True)
    data_dir = tempfile.mkdtemp(prefix=f"{args.workload}-",
                                dir=os.path.join(BUILD_ROOT, "data"))
    try:
        subprocess.run([program, "generate", "--dir", data_dir] + common,
                       env=env, check=True, timeout=RUN_BUDGET_S)
        # Put the input on disk now, so that its writeback does not compete
        # with the measured model writes.
        for name in os.listdir(data_dir):
            fd = os.open(os.path.join(data_dir, name), os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
        measure = [program, "run", "--dir", data_dir,
                   "--seconds", str(args.seconds),
                   "--trace", str(args.trace)] + common
        if args.trace:
            traces = os.path.join(BUILD_ROOT, "traces")
            os.makedirs(traces, exist_ok=True)
            measure += ["--trace-out", os.path.join(
                traces, f"{args.workload}-seed{args.seed}.json")]
        left = RUN_BUDGET_S - (time.monotonic() - start)
        result = subprocess.run(measure, env=env, stdout=subprocess.PIPE,
                                text=True, timeout=max(left, 1.0))
    except subprocess.CalledProcessError as err:
        fail(f"input generation failed (exit {err.returncode})")
    except subprocess.TimeoutExpired:
        fail("run exceeded its time budget")
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
    sys.stdout.write(result.stdout)
    if result.returncode != 0:
        fail(f"benchmark program exited with {result.returncode}")


if __name__ == "__main__":
    main()
