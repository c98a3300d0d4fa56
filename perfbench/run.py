#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload regular --seed 1 --seconds 20 --trace 0

All arguments are passed on to the benchmark executable (see
perfbench/README.md).  The last line of standard output is the JSON
result.  Exits non-zero, without a result, when the checkout does not
hold the repository's sources or the build fails.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def main():
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(need):
            print(f"perfbench: {need} not found; run from the repository root",
                  file=sys.stderr)
            return 2
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--cache=disabled",
             "./perfbench/perfbench.exe"],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build did not finish: {e}", file=sys.stderr)
        return 3
    if build.returncode != 0:
        sys.stderr.write(build.stderr)
        return 3
    try:
        run = subprocess.run([EXE] + sys.argv[1:], timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 4
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
