#!/usr/bin/env python3
"""Build the handshake benchmark from source and run one workload.

    python3 perfbench/run.py --workload s1-m4 --seed 1 --seconds 28 --trace 0

Run from the repository root.  The benchmark program (perfbench/hsbench.ml)
is built with dune against the repository's libraries, then run; its
standard output is passed through, so the last line is the JSON result.
Traced runs (--trace 1) also write their spans as a Chrome trace to
.bench_out/.  Exits non-zero, printing no result, when the repository
sources are missing or the build or the run fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

TARGET = "perfbench/hsbench.exe"
EXE = "_build/default/" + TARGET
TRACE_DIR = ".bench_out"


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(needed):
            fail("run from the repository root: %s is missing" % needed)
    dune = shutil.which("dune")
    if dune is None:
        fail("dune is not on PATH")

    build = subprocess.run(
        [dune, "build", "--root", ".", "./" + TARGET],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if build.returncode != 0:
        sys.stderr.write(build.stdout)
        fail("build failed")

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace == 1:
        os.makedirs(TRACE_DIR, exist_ok=True)
        cmd += ["--trace-dir", TRACE_DIR]
    run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(run.stdout)
        fail("benchmark run failed (exit %d)" % run.returncode)
    sys.stdout.write(run.stdout)


if __name__ == "__main__":
    main()
