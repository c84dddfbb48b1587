#!/usr/bin/env python3
"""Build the APNA benchmark from source and run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload flow_small --seed 1 --seconds 10 --trace 0

Builds perfbench/main.exe with dune (inside the repository's own _build
directory), then runs it with the given arguments. The benchmark prints a
report and, as its last line, one JSON object with the metrics. The exit
status is the benchmark's: non-zero when the build fails, set-up fails or
any output is wrong.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGET = os.path.join("perfbench", "main.exe")


def main():
    # The shared dune cache lives outside the repository; keep every
    # build artefact inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", TARGET],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(ROOT, "_build", "default", TARGET)
    sys.stdout.flush()
    return subprocess.run([exe] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
