#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py                    # every workload, untraced then traced
    python3 perfbench/run.py --workload paper4 --seed 1 --seconds 10 --trace 0

Builds this benchmark package and the `cmp-serve` binary in release
mode (offline) into $CARGO_TARGET_DIR (default `.bench_build`), then
runs the benchmark binary with the same arguments. Build output goes
to stderr; the benchmark's own output, ending in one JSON line, goes
to stdout. Exits non-zero if the build fails or a check fails.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join(here, "Cargo.toml")],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join(root, "crates", "serve", "Cargo.toml"),
         "--bin", "cmp-serve"],
    ]
    for cmd in builds:
        try:
            done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=900)
        except (OSError, subprocess.TimeoutExpired) as e:
            print(f"perfbench: build failed: {e}", file=sys.stderr)
            return 2
        if done.returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 2
    release = os.path.join(target, "release")
    bench = os.path.join(release, "cmp-perfbench")
    args = [bench] + sys.argv[1:] + [
        "--serve-bin", os.path.join(release, "cmp-serve"),
        "--run-dir", os.path.join(target, "perfbench-run"),
    ]
    sys.stdout.flush()
    return subprocess.run(args).returncode


if __name__ == "__main__":
    sys.exit(main())
