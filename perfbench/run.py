#!/usr/bin/env python3
"""Build and run the UNIT compile-service benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload cold-zoo --seed 1 --seconds 15 --trace 0

Builds libunit, the unit_serve daemon and the benchmark client from the
checkout's sources into .bench_build/perfbench (Release), then runs the
client, which prints one JSON result line last. Exits non-zero, without a
result, when the program cannot be built; see perfbench/README.md.
"""

import os
import shutil
import subprocess
import sys

WORKLOADS = ("cold-zoo", "warm-stream", "conn-churn", "fleet-fetch")


def fail(msg):
    sys.stderr.write("perfbench: %s\n" % msg)
    sys.exit(2)


def die_with_parent():
    """Child setup: the client is killed when this wrapper dies."""
    try:
        import ctypes
        ctypes.CDLL(None, use_errno=True).prctl(1, 9)  # PR_SET_PDEATHSIG, SIGKILL
    except (OSError, AttributeError):
        pass


def build(root, build_dir):
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    with open(log_path, "w") as log:
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            cmd = ["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                   build_dir, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT):
                # A failed configure leaves a cache behind; drop it so the
                # next run configures again.
                cache = os.path.join(build_dir, "CMakeCache.txt")
                if os.path.exists(cache):
                    os.remove(cache)
                return log_path
        jobs = str(min(4, os.cpu_count() or 1))
        if subprocess.call(["cmake", "--build", build_dir, "-j", jobs],
                           stdout=log, stderr=subprocess.STDOUT):
            return log_path
    return None


def main():
    args = sys.argv[1:]
    opts = dict(zip(args[::2], args[1::2]))
    if len(args) % 2 or opts.get("--workload") not in WORKLOADS:
        fail("usage: run.py --workload {%s} --seed N --seconds S --trace 0|1"
             % "|".join(WORKLOADS))
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    os.chdir(root)
    for need in ("src/server/CompileServer.h", "tools/unit_serve.cpp"):
        if not os.path.exists(need):
            fail("cannot build the program: %s is missing from this checkout"
                 % need)
    if shutil.which("cmake") is None:
        fail("cannot build the program: cmake is not installed")
    build_dir = os.path.join(".bench_build", "perfbench")
    failed_log = build(root, build_dir)
    if failed_log:
        with open(failed_log) as f:
            tail = f.read()[-4000:]
        sys.stderr.write(tail)
        fail("cannot build the program (log: %s)" % failed_log)
    client = os.path.join(build_dir, "perfbench_client")
    cmd = [client, "--bin-dir", build_dir]
    for key in ("--workload", "--seed", "--seconds", "--trace"):
        if key in opts:
            cmd += [key, opts[key]]
    proc = subprocess.run(cmd, preexec_fn=die_with_parent)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
