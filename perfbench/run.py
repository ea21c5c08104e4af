#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Builds perfbench/wmbench.exe and bin/wm_cli.exe with dune into
.bench_build/, then runs wmbench with the same arguments.  Its last line
of output is the result object; see perfbench/README.md.
"""

import os
import subprocess
import sys

BUILD = os.path.abspath(os.path.join(".bench_build", "dune"))
TARGETS = ["./perfbench/wmbench.exe", "./bin/wm_cli.exe"]


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.exit("run.py: run from the repository root (no dune-project or lib/ here)")
    os.makedirs(os.path.dirname(BUILD), exist_ok=True)
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD, "--profile", "release"]
        + TARGETS,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.exit("run.py: build failed")
    exe = os.path.join(BUILD, "default", "perfbench", "wmbench.exe")
    cli = os.path.join(BUILD, "default", "bin", "wm_cli.exe")
    work = os.path.join(".bench_build", "work")
    os.execv(exe, [exe, "--cli", cli, "--work", work] + sys.argv[1:])


if __name__ == "__main__":
    main()
