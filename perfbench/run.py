#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload hetero --seed 1 --seconds 30 --trace 0

Every argument is passed to the `perfbench` binary (see README.md). The
binary is built in release mode into $CARGO_TARGET_DIR (default
`.bench_build`); result records and span traces go to
`<target dir>/perfbench/`. If the build fails, for instance because the
simulator crates are missing, this exits non-zero without printing a
result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    binary = os.path.join(target, "release", "perfbench")
    args = ["--out", os.path.join(target, "perfbench"),
            "--expected", os.path.join(HERE, "expected.json")]
    return subprocess.run([binary, *args, *sys.argv[1:]], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
