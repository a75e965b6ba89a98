#!/usr/bin/env python3
"""Build and run the sweep benchmark from the root of a checkout.

    python3 sweepbench/run.py --workload cold_grid --seed 1 --seconds 20 --trace 0

Builds the benchmark package (sweepbench/Cargo.toml) and the repository's
`sweep` binary in release mode into $CARGO_TARGET_DIR (default
`.bench_build`), then runs the benchmark with the given arguments. Build
output goes to standard error; the last line of standard output is the
benchmark's JSON result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    if not os.path.isfile(os.path.join(ROOT, "crates", "core", "Cargo.toml")):
        print("sweepbench: no repository sources beside sweepbench/; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["--manifest-path", os.path.join(HERE, "Cargo.toml")],
        ["--manifest-path", os.path.join(ROOT, "Cargo.toml"), "-p", "dlp-bench", "--bin", "sweep"],
    ]
    for extra in builds:
        cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + extra
        built = subprocess.run(cmd, env=env, stdout=sys.stderr)
        if built.returncode != 0:
            print(f"sweepbench: build failed: {' '.join(cmd)}", file=sys.stderr)
            return built.returncode
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "sweepbench")] + sys.argv[1:] + [
        "--scratch", os.path.join(target, "sweepbench-scratch"),
    ]
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
