#!/usr/bin/env python3
"""Build the benchmark from source, then run it.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

perfbench/ is a cargo package of its own that depends on the
repository's crates by path. This script builds it in release mode,
offline, into $CARGO_TARGET_DIR (default: .bench_build at the root),
then runs the binary from the root with the same arguments and exits
with its exit code. Build output goes to standard error, so the last
line of standard output is the benchmark's JSON result. When the build
fails (for example in a directory without the repository's crates) the
script prints no result and exits non-zero.
"""

import os
import subprocess
import sys


def main() -> int:
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(root, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)

    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(bench_dir, "Cargo.toml"),
        ],
        cwd=root,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1

    exe = os.path.join(target, "release", "perfbench")
    return subprocess.run([exe] + sys.argv[1:], cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
