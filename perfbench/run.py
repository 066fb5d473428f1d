#!/usr/bin/env python3
"""Build and run one perfbench workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the repository root. The first call configures and builds the
hybridcnn library and the benchmark driver (Release, -march=native) under
$CARGO_TARGET_DIR, or .bench_build when that is unset; later calls only
rebuild what changed. Build output goes to stderr. The driver's output is
passed through, so the last line of stdout is the JSON result. Exits
non-zero, without a result line, when the build or the run fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840
BUILD_JOBS = "3"


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def run_logged(cmd, timeout):
    """Runs a build step with its output on stderr; returns the exit code."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        log(f"timed out: {' '.join(cmd)}")
        return 1


def build(build_dir):
    """Configures (once) and builds the driver and tests; True on success."""
    if not os.path.isfile(os.path.join(HERE, "..", "CMakeLists.txt")):
        log("no hybridcnn source tree next to perfbench/; nothing to build")
        return False
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.isfile(cache) and run_logged(configure, BUILD_TIMEOUT_S):
        return False
    step = ["cmake", "--build", build_dir, "--target", "perfbench_driver",
            "perfbench_tests", "-j", BUILD_JOBS]
    if run_logged(step, BUILD_TIMEOUT_S) == 0:
        return True
    # A cache from another source location cannot be reused: start over.
    log("build failed; reconfiguring from scratch")
    shutil.rmtree(build_dir, ignore_errors=True)
    return (run_logged(configure, BUILD_TIMEOUT_S) == 0 and
            run_logged(step, BUILD_TIMEOUT_S) == 0)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, "perfbench")
    if not build(build_dir):
        return 1

    if args.self_test:
        return subprocess.run([os.path.join(build_dir, "perfbench_tests")],
                              timeout=RUN_TIMEOUT_S).returncode

    cmd = [os.path.join(build_dir, "perfbench_driver"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--data-dir", os.path.join(HERE, "expected"),
           "--work-dir", os.path.join(root, "perfbench-work")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    if done.returncode != 0:
        log(f"driver exited with {done.returncode}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
