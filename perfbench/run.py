#!/usr/bin/env python3
"""Build and run the repository benchmark (see README.md beside this file).

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all            # every workload in turn

The benchmark is built from source with dune first; build output goes to
standard error, so the last line of standard output is the result object
of the (last) workload run.  Without --seconds a run lasts BENCHMARK.json's
run_seconds.  dune is taken from PATH, or else through `opam exec`, because
an opam switch puts dune on PATH only in a shell that loaded its environment.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ["cqp-recover", "preagg-stream", "reopt-poll", "serve-recover"]
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")


def dune():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    sys.exit("run.py: dune is not on PATH")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.exit("run.py: the engine sources (dune-project, lib/) are not here; "
                 "run from the repository root")
    if args.seconds is None:
        with open("BENCHMARK.json") as f:
            args.seconds = json.load(f)["run_seconds"]
    build = subprocess.run(dune() + ["build", "--root", ".", "./perfbench/bench.exe"],
                           stdout=sys.stderr)
    if build.returncode != 0:
        sys.exit(build.returncode)

    names = WORKLOADS if args.workload == "all" else [args.workload]
    for name in names:
        sys.stdout.flush()
        run = subprocess.run([EXE, "--workload", name, "--seed", str(args.seed),
                              "--seconds", str(args.seconds),
                              "--trace", str(args.trace)])
        if run.returncode != 0:
            sys.exit(run.returncode)


if __name__ == "__main__":
    main()
