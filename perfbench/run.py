#!/usr/bin/env python3
"""Builds the NetTrails benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload converge|churn|query --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --self-test     # the benchmark's own tests

The build is a Release CMake build of perfbench/CMakeLists.txt in
.bench_build/perfbench. A traced run writes its Chrome trace-event file to
.bench_build/traces/<workload>-seed<N>.json. The last line of standard
output is the result JSON; build output goes to standard error.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def jobs():
    return str(max(1, min(4, os.cpu_count() or 1)))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "runtime", "engine.h")):
        fail("NetTrails sources not found under " + os.path.join(ROOT, "src"))
    if not os.path.isdir(os.path.join(ROOT, "examples", "topologies")):
        fail("topology corpus not found under examples/topologies")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs()])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return "git:" + out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def run(cmd):
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("run exceeded %d s and was stopped" % RUN_TIMEOUT_S)
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=["converge", "churn", "query"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")
    if not args.self_test and args.workload is None:
        fail("--workload is required")

    build()
    if args.self_test:
        sys.exit(run([os.path.join(BUILD, "perfbench_test")]))

    cmd = [os.path.join(BUILD, "nettrails_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--root", ROOT, "--source-id", source_id()]
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    sys.exit(run(cmd))


if __name__ == "__main__":
    main()
