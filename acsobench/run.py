#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 acsobench/run.py --workload <train|table2|serve|dbn-fit> \
        --seed N --seconds S --trace <0|1>

Run it from the repository root. The build (`cargo build --release`) covers
both binaries of the package: the benchmark and the `acso-serve` daemon it
drives. Build output goes to `$CARGO_TARGET_DIR`, or `.bench_build` at
the repository root when that is unset. Build messages go to standard error, so the last line of
standard output is the benchmark's JSON result. A failed build exits with
cargo's non-zero code and prints no result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build():
    """Builds both binaries; returns the path of the benchmark executable."""
    manifest = os.path.join(HERE, "Cargo.toml")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    result = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        stdout=sys.stderr,
        env=dict(os.environ, CARGO_TARGET_DIR=target),
    )
    if result.returncode != 0:
        sys.exit(result.returncode)
    return os.path.join(target, "release", "acsobench")


def main():
    exe = build()
    os.execv(exe, [exe] + sys.argv[1:])


if __name__ == "__main__":
    main()
