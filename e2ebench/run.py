#!/usr/bin/env python3
"""Build and run Mnemo's end-to-end benchmark.

    python3 e2ebench/run.py --workload consult|sweep|serve --seed N \\
        --seconds S --trace 0|1

Run it from the root of a checkout. The first run configures and builds
the benchmark package (e2ebench/CMakeLists.txt, which compiles ../src)
under .bench_build/e2ebench; later runs only re-check the build. The
helpers' self-tests run after every build. Then the benchmark runs with the
given arguments plus the checked-in digest table and an output directory,
and its output, ending in one JSON result line, passes through unchanged.

Exit status: the benchmark's own (0 ok, 1 failed output check, 2 bad
argument), or 1 when the sources are missing or the build or a self-test
fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
# A run must end within 180 s; the benchmark itself takes about 30.
RUN_TIMEOUT_S = 170


def fail(message):
    print("e2ebench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no Mnemo sources under %s: run from the root of a checkout"
             % os.path.join(ROOT, "src"))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1),
                  "--target", "e2ebench", "e2e_selftest"])
    steps.append([os.path.join(BUILD, "e2e_selftest")])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              check=False)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            fail("failed: " + " ".join(cmd))


def main():
    build()
    cmd = [os.path.join(BUILD, "e2ebench"), *sys.argv[1:],
           "--digests", os.path.join(HERE, "expected_digests.txt"),
           "--out", os.path.join(BUILD, "out")]
    try:
        done = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail("no result within %d s" % RUN_TIMEOUT_S)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
