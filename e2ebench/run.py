#!/usr/bin/env python3
"""Builds the `brics` CLI and the `e2e` benchmark, then runs the benchmark.

Run from the repository root; every argument goes to `e2e`:

    python3 e2ebench/run.py --workload web-scan --seed 1 --seconds 15 --trace 0

Both programs build offline, in release mode, into $CARGO_TARGET_DIR
(default `.bench_build`), so the `brics` binary the benchmark spawns sits
next to `e2e`. Build output goes to standard error; standard output is the
benchmark's own, ending with its one-line JSON result.
"""

import os
import subprocess
import sys


def main():
    target = os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    bench = os.path.relpath(os.path.dirname(os.path.abspath(__file__)))
    builds = [
        ["--manifest-path", "Cargo.toml", "-p", "brics-cli"],
        ["--manifest-path", os.path.join(bench, "Cargo.toml"), "--bin", "e2e"],
    ]
    for args in builds:
        cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + args
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            print("run.py: build failed: " + " ".join(cmd), file=sys.stderr)
            return 2
    e2e = os.path.join(target, "release", "e2e")
    return subprocess.run([e2e] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
