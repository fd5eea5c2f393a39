#!/usr/bin/env python3
"""Build and run hostbench, the end-to-end host benchmark.

    python3 hostbench/run.py --workload paper_sweep --seed 1 --seconds 20 --trace 0

Run from the repository root. The first call configures and builds
hostbench/ with CMake (RelWithDebInfo, the library's default) into
.bench_build/hostbench; later calls rebuild only what changed. Build
output goes to stderr. The benchmark's report goes to stdout, and its
last line is the JSON result. The exit code is the benchmark's: 0 when
every check passed, 1 when one failed, 2 on bad arguments or a failed
build.
"""
import argparse
import os
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "hostbench")
BINARY = os.path.join(BUILD, "hostbench")
WORKLOADS = ("paper_sweep", "large_campaign", "profile_trace")


def fail(msg):
    print(f"hostbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no library sources at {os.path.join(ROOT, 'src')}")
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            fail(f"{tool} not found")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cfg = subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, *gen,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr)
        if cfg.returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(os.cpu_count() or 1, 4))
    res = subprocess.run(
        ["cmake", "--build", BUILD, "--target", "hostbench", "-j", jobs],
        stdout=sys.stderr)
    if res.returncode != 0:
        fail("build failed")


def git_stamp():
    """(commit, dirty) of the checkout, or ("unknown", "unknown")."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, env=env,
                              timeout=10)
        if head.returncode != 0:
            return "unknown", "unknown"
        status = subprocess.run(
            ["git", "-C", ROOT, "status", "--porcelain",
             "--untracked-files=no"],
            capture_output=True, text=True, env=env, timeout=10)
        return head.stdout.strip(), "1" if status.stdout.strip() else "0"
    except (OSError, subprocess.SubprocessError):
        return "unknown", "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    # A run measures --seconds plus set-up, a warm-up pass and the
    # overshoot of its last pass; this caps it so a hung simulation cannot
    # hold the caller.
    timeout_s = 3 * args.seconds + 80

    build()
    commit, dirty = git_stamp()
    sys.stdout.flush()
    try:
        res = subprocess.run(
            [BINARY, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--commit", commit, "--dirty", dirty],
            timeout=timeout_s)
    except subprocess.TimeoutExpired:
        print(f"hostbench: run exceeded {timeout_s:g} s", file=sys.stderr)
        sys.exit(1)
    sys.exit(res.returncode)


if __name__ == "__main__":
    main()
