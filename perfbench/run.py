#!/usr/bin/env python3
"""Build the serving benchmark and run one measurement.

Run from the repository root:

    python3 perfbench/run.py --workload digits --seed 1 --seconds 10 --trace 0

Workloads: digits, sensor-tenants, learn-mix, remat-burst. The release
build goes to $CARGO_TARGET_DIR (default: .bench_build in the current
directory); build output goes to stderr, and the last line of stdout is
the run's JSON result. Exits non-zero, printing no result, when the
repository's crates are missing or the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv):
    manifest = os.path.join(HERE, "Cargo.toml")
    if not os.path.isfile(os.path.join(HERE, "..", "crates", "serve", "Cargo.toml")):
        print("perfbench: the repository's crates are not beside perfbench/", file=sys.stderr)
        return 2
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(target, "release", "perfbench")
    work = os.path.join(target, "perfbench-work")
    sys.stdout.flush()
    return subprocess.run([exe, "drive", "--work-dir", work] + argv, env=env).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
