#!/usr/bin/env python3
"""Build and run the repo benchmark.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Builds the benchmark (`perfbench/`, a cargo package of its own) and the
`rlnc-experiments` CLI it checks exports against, in release mode, into
`$CARGO_TARGET_DIR` (default `.bench_build`), then runs the benchmark
binary with the same arguments. The binary prints each metric with its
unit and ends with one JSON result line; see perfbench/README.md.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build(target_dir, *cargo_args):
    """Runs one offline release build; build output goes to stderr."""
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", *cargo_args]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"perfbench: build failed: {' '.join(cmd)}")


def main():
    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target_abs = os.path.join(ROOT, target_dir)
    build(target_dir, "--manifest-path", os.path.join("perfbench", "Cargo.toml"))
    build(target_dir, "--package", "rlnc-experiments", "--bin", "rlnc-experiments")
    release = os.path.join(target_abs, "release")
    scratch = os.path.relpath(os.path.join(target_abs, "perfbench"), ROOT)
    cmd = [
        os.path.join(release, "perfbench"),
        *sys.argv[1:],
        "--cli", os.path.join(release, "rlnc-experiments"),
        "--scratch", scratch,
    ]
    sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
