#!/usr/bin/env python3
"""Builds and runs the restart-and-serve benchmark.

Usage, from the root of a checkout of the whole repository:

    python3 restartbench/run.py --workload <name> --seed <n> \
        --seconds <s> --trace <0|1>

The benchmark is compiled from source on first use (CMake, Release) into
$CARGO_TARGET_DIR/restartbench, or .bench_build/restartbench when that
variable is unset; later runs rebuild only what changed. Build output goes
to stderr. Backups live in a per-run directory under the build directory
and are removed when the run ends; traces (--trace 1) are kept under
<build dir>/restartbench-out. The last line of stdout is the benchmark's
JSON result.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("shm_rollover", "crash_rowmajor", "crash_columnar")
RUN_TIMEOUT_S = 170


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    root = os.getcwd()
    source = os.path.join(root, "restartbench")
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_root = os.path.join(root, build_root)
    build = os.path.join(build_root, "restartbench")

    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        configure = ["cmake", "-S", source, "-B", build,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            print("restartbench: configure failed", file=sys.stderr)
            return 1
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.call(["cmake", "--build", build, "--target", "restartbench",
                        "-j", jobs], stdout=sys.stderr) != 0:
        print("restartbench: build failed", file=sys.stderr)
        return 1

    data_dir = os.path.join(build_root, "restartbench-data-%d" % os.getpid())
    out_dir = os.path.join(build_root, "restartbench-out")
    env = dict(os.environ)
    env.setdefault("SCUBA_LOG_LEVEL", "warning")
    cmd = [os.path.join(build, "restartbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--data-dir", data_dir, "--out-dir", out_dir]
    proc = subprocess.Popen(cmd, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("restartbench: run exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
