#!/usr/bin/env python3
"""End-to-end monitor -> collector benchmark: build, then run one workload.

Usage (from the repository root):
    python3 e2ebench/run.py --workload fresh|sharded --seed N \
        --seconds S --trace 0|1
    python3 e2ebench/run.py --unit-tests

Builds nitro_monitor and the benchmark from source (Release) under
.bench_build/, then runs e2ebench's e2e_bench binary.  Build output goes to
.bench_build/e2ebench-build.log; the benchmark's last stdout line is its
JSON result.  See e2ebench/README.md.
"""
import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD_BASE = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_BASE, "cmake-release")
LOG = os.path.join(BUILD_BASE, "e2ebench-build.log")
BUILD_TYPE = "Release"


def run_logged(cmd):
    with open(LOG, "a") as log:
        log.write("$ " + " ".join(cmd) + "\n")
        log.flush()
        return subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode


def fail_build(what):
    sys.stderr.write(f"e2ebench: {what} failed; see {LOG}\n")
    try:
        with open(LOG) as log:
            sys.stderr.write("".join(log.readlines()[-30:]))
    except OSError:
        pass
    sys.exit(2)


def build(targets):
    os.makedirs(os.path.dirname(LOG), exist_ok=True)
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        rc = run_logged(["cmake", "-S", ROOT, "-B", BUILD_DIR,
                         f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}",
                         "-DCMAKE_PROJECT_INCLUDE=" + os.path.join(HERE, "attach.cmake")])
        if rc != 0:
            fail_build("configure")
    jobs = str(min(4, os.cpu_count() or 1))
    if run_logged(["cmake", "--build", BUILD_DIR, "--target", *targets, "-j", jobs]) != 0:
        fail_build("build")


def source_digest():
    """git commit when run from a clone.  A source tree that is not a clone
    (an exported archive) has no commit to name, so hash its sources."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return "git:" + out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha1()
    for top in ("CMakeLists.txt", "src", "tools", os.path.relpath(HERE, ROOT)):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "tree:" + h.hexdigest()


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--unit-tests", action="store_true")
    args = ap.parse_args()

    if args.unit_tests:
        build(["e2e_bench_tests"])
        sys.exit(subprocess.run([os.path.join(BUILD_DIR, "e2ebench", "e2e_bench_tests")]).returncode)
    if not args.workload:
        ap.error("--workload is required")

    build(["nitro_monitor", "e2e_bench"])
    cmd = [os.path.join(BUILD_DIR, "e2ebench", "e2e_bench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--monitor", os.path.join(BUILD_DIR, "tools", "nitro_monitor"),
           "--work-dir", os.path.join(BUILD_BASE, "e2ebench-work"),
           "--source-digest", source_digest(), "--build-type", BUILD_TYPE]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
