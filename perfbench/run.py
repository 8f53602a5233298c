#!/usr/bin/env python3
"""Build and run the rcmp engine benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <chain-clean|chain-recover|serve-small>
        --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark package (perfbench/Cargo.toml, a workspace of its
own that depends on the repository's crates by path) in release mode
into $CARGO_TARGET_DIR (default .bench_build), then runs it with the
given arguments. The benchmark's standard output is passed through: its
last line is the JSON result. Build output goes to standard error.
Traced runs write their spans under .bench_out/.

Exits non-zero without printing a result if the build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def main(argv):
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", manifest],
            stdout=sys.stderr, env=env)
    except OSError as e:
        print(f"run.py: cannot start cargo: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("run.py: benchmark build failed", file=sys.stderr)
        return 1

    rustc = subprocess.run(["rustc", "--version"], capture_output=True,
                           text=True, env=env)
    env["PERFBENCH_RUSTC"] = rustc.stdout.strip() or "unknown"
    binary = os.path.join(target, "release", "rcmp-perfbench")
    out_dir = os.path.join(os.getcwd(), ".bench_out")
    try:
        run = subprocess.run([binary, *argv, "--out", out_dir], env=env,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
