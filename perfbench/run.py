#!/usr/bin/env python3
"""Build and run the FRaZ end-to-end benchmark.

    python3 perfbench/run.py --workload pack-cold|campaign-warm|serve-skewed \
        --seed N --seconds S --trace 0|1

Configures and builds perfbench/CMakeLists.txt (the project's fraz_core plus
the benchmark program) into .bench_build/ at the checkout root, then runs the
program from there.  Build output goes to standard error; the program's last
line of standard output is the result JSON.  Exits nonzero when the build
fails or a correctness check fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Compiler temporaries stay inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", "fraz_perfbench", "-j", jobs],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode != 0:
            return False
    return True


def main():
    if not build():
        print("benchmark build failed", file=sys.stderr)
        return 1
    program = os.path.join(BUILD, "fraz_perfbench")
    return subprocess.run([program, *sys.argv[1:], "--out", BUILD], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
