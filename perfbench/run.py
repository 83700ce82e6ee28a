#!/usr/bin/env python3
"""End-to-end benchmark of the DBWipes `debug` gesture.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark program (perfbench/e2e_bench.cc) and the library
sources it links against in `.bench_build/perfbench` (Release), then
runs it. Build output goes to stderr; the report goes to
stdout, and its last line is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics (a separate traced run). The exit
code is the benchmark's: 0 only when every output check passed. Scratch
files (WAL directories, span dumps) go to `.bench_run/`.

Workloads: intel_explain, fec_analysts, intel_stream (see e2e_bench.cc
for what each stresses and why).
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_run")
BINARY = os.path.join(BUILD_DIR, "e2e_bench")
WORKLOADS = ("intel_explain", "fec_analysts", "intel_stream")

# A run must end within 180 s; leave room for process start and teardown.
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds the benchmark program. Returns True on success."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no library sources at %s/src" % ROOT)
        return False
    if shutil.which("cmake") is None:
        log("perfbench: cmake not found")
        return False
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
    if (shutil.which("ninja") is not None and
            not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt"))):
        cmd += ["-G", "Ninja"]
    if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
        return False
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "e2e_bench", "-j", jobs]
    return subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) == 0


def run_bench(args, timeout=RUN_TIMEOUT_S):
    """Runs the built benchmark program with `args`; returns (exit code, stdout)."""
    os.makedirs(WORK_DIR, exist_ok=True)
    proc = subprocess.Popen([BINARY, "--work-dir", WORK_DIR] + args,
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("perfbench: run exceeded %d s" % timeout)
        return 124, ""
    return proc.returncode, out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    if not build():
        log("perfbench: build failed")
        return 3
    code, out = run_bench(["--workload", args.workload, "--seed",
                           str(args.seed), "--seconds", str(args.seconds),
                           "--trace", args.trace])
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
