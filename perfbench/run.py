#!/usr/bin/env python3
"""Repository benchmark: one command, two workloads (perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout.  Builds the library, the aar_node daemon
and the benchmark binary from source into .bench_build (a no-op when up to
date), runs the workload with its rate ladder, reference rate and latency
limit from perfbench/config.json, and passes the binary's output through:
progress lines, then one JSON object as the last line.  Exits non-zero when the build fails, when any
correctness check fails, or when the binary does not finish in time.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BENCH_BINARY = os.path.join(BUILD_DIR, "perfbench")
AAR_NODE = os.path.join(BUILD_DIR, "aar", "tools", "aar_node")
RUN_TIMEOUT_S = 170
WORKLOADS = ("serve-mined", "serve-flood")


def build():
    """Configure once and build; the cmake output goes to a log file."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "perfbench", "aar_node"])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                sys.stderr.write("perfbench: build failed: %s\n" % " ".join(step))
                return False
    return True


def workload_args(name):
    """The serve workloads' parameters from config.json as --key value."""
    with open(os.path.join(HERE, "config.json")) as handle:
        config = json.load(handle)
    args = []
    for key, value in config.get(name, {}).items():
        if isinstance(value, list):
            value = ",".join(str(item) for item in value)
        args += ["--" + key, str(value)]
    return args


def stop_group(pgid):
    """Kill whatever the benchmark left in its process group and wait for it."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.time() + 10
    while time.time() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    options = parser.parse_args()

    if not options.selftest and options.workload not in WORKLOADS:
        parser.error("--workload must be one of: " + ", ".join(WORKLOADS))
    if not build():
        return 1

    if options.selftest:
        command = [BENCH_BINARY, "selftest"]
    else:
        work_dir = os.path.join(BUILD_DIR, "work", options.workload)
        command = [BENCH_BINARY, options.workload,
                   "--seed", str(options.seed),
                   "--seconds", str(options.seconds),
                   "--trace", str(options.trace),
                   "--work-dir", work_dir,
                   "--aar-node", AAR_NODE] + workload_args(options.workload)

    child = subprocess.Popen(command, start_new_session=True)
    try:
        code = child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: benchmark did not finish in %d s\n" % RUN_TIMEOUT_S)
        code = 1
    finally:
        stop_group(child.pid)
        if child.poll() is None:
            child.wait()
    return 0 if code == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
