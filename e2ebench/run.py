#!/usr/bin/env python3
"""Build and run the end-to-end benchmark from the repository root.

    python3 e2ebench/run.py --workload newton-dense --seed 1 --seconds 10 --trace 0
    python3 e2ebench/run.py --self-test

Builds the library and the `nadmm_e2e` program from source into
.bench_build/e2ebench (Release; the first build takes about a minute),
then runs it with the same arguments. Build output goes to stderr,
so the last stdout line is the program's JSON result. Exits
non-zero without a result when the build fails, e.g. when the library
sources are not next to this directory.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
BUILD_TIMEOUT_S = 840


def run_quiet(cmd, env):
    """Run a build step, sending its output to stderr; exit on failure."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("e2ebench: build step timed out: " + " ".join(cmd))
    if proc.returncode != 0:
        sys.exit("e2ebench: build step failed: " + " ".join(cmd))


def main():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        sys.exit("e2ebench: library sources not found next to " + HERE)
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=Release"], env)
    run_quiet(["cmake", "--build", BUILD, "-j", "4", "--target", "nadmm_e2e"],
              env)
    program = os.path.join(BUILD, "nadmm_e2e")
    args = sys.argv[1:]
    if args != ["--self-test"]:
        args += ["--workdir", os.path.join(BUILD, "work")]
    sys.stdout.flush()
    proc = subprocess.run([program] + args, cwd=ROOT, env=env)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
