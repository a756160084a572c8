#!/usr/bin/env python3
"""Build the OTIS-fabric benchmark and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The script builds perfbench/ in release mode into $CARGO_TARGET_DIR
(default .bench_build), runs the benchmark binary once with the given
arguments and passes its output through. The last line of standard
output is the JSON result. When the build or the run fails, the script
prints no result and exits non-zero.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def main(argv):
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S, check=False)
    if build.returncode != 0:
        print("run.py: the benchmark did not build", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "otis-perfbench")
    run = subprocess.run([binary] + argv, stdout=subprocess.PIPE, text=True,
                         env=env, timeout=RUN_TIMEOUT_S, check=False)
    if run.returncode != 0 or not run.stdout.strip():
        sys.stderr.write(run.stdout)
        print(f"run.py: the benchmark exited with {run.returncode}", file=sys.stderr)
        return run.returncode or 1
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
