#!/usr/bin/env python3
"""Build and run the end-to-end co-search benchmark.

Usage (from the repository root):

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the library and the harness from source into .bench_build/ (an
incremental no-op after the first run), then runs the harness, whose
last stdout line is the result JSON. Extra harness flags (--size tiny,
--inject-digest-mismatch) pass through unchanged. Build logs go to
stderr; the exit status is the harness's, or 2 when the build fails.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "e2e_bench")
RUN_TIMEOUT_S = 170


def build():
    """Configure once, then build the harness incrementally.

    Returns the path of the harness binary; raises
    subprocess.CalledProcessError when configuring or building fails.
    """
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise FileNotFoundError("library sources (src/) not found next to "
                                "e2ebench/; run from a full checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "--target", "e2e_bench",
                    "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return BINARY


def main(argv):
    if shutil.which("cmake") is None:
        print("error: cmake not found", file=sys.stderr)
        return 2
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"error: build failed: {err}", file=sys.stderr)
        return 2
    try:
        proc = subprocess.run([binary] + argv, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
