#!/usr/bin/env python3
"""Builds and runs the fsct flow benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload large-chip --seed 1 --seconds 20 --trace 0

The benchmark program (perfbench/flowbench.cpp) is built from source into
.bench_build/perfbench on first use; later runs only re-check the build.
Build output goes to stderr, so the last line of stdout is the benchmark's
JSON result.  The exit status is the benchmark's: 0 when every circuit
passed the correctness gate, 1 when one failed, 2 on a usage or build error.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")


def build(target="flowbench"):
    """Configures (once) and builds `target`; returns its path."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "--target", target, "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(BUILD, target)


def main():
    try:
        exe = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    work = os.path.join(BUILD_ROOT, "work")
    return subprocess.run([exe, "--work", work] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
