#!/usr/bin/env python3
"""Builds and runs the checkpoint/restore benchmark.

    python3 ckptbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the
benchmark in Release under .bench_build/; later runs only re-check the
build. The run's stores live under .bench_run/<workload>-<pid>/ and are
removed when it ends, whatever the outcome. The last line of standard
output is the benchmark's JSON result; build output goes to standard error.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUNS = os.path.join(ROOT, ".bench_run")
WORKLOADS = ("trainer-pec", "cluster-dedup-mem", "cluster-delta-file")


def build():
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "ckptbench",
                    "-j", "4"], stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "ckptbench")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"ckptbench: build failed: {err}", file=sys.stderr)
        return 1
    root = os.path.join(RUNS, f"{args.workload}-{os.getpid()}")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", root]
    proc = subprocess.Popen(cmd, cwd=ROOT)

    def stop(signum, frame):
        proc.terminate()

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(root, ignore_errors=True)
        try:
            os.rmdir(RUNS)
        except OSError:
            pass  # another run still uses it


if __name__ == "__main__":
    sys.exit(main())
