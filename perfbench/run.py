#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload report-modern --seed 1 --seconds 20 --trace 0

Every argument goes to the `perfbench` binary (see src/main.rs). The
binary is built with cargo into $CARGO_TARGET_DIR, or perfbench/target
when that is unset. The last line of standard output is the binary's JSON
result; cargo's own output goes to standard error. The exit code is the
binary's, or 2 when the build fails (for example outside a full checkout
of the repository, where the workspace crates are missing).
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    target = Path(os.environ.get("CARGO_TARGET_DIR", HERE / "target"))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
        stdout=sys.stderr,
        env={**os.environ, "CARGO_TARGET_DIR": str(target)},
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    sys.stdout.flush()
    return subprocess.run([str(target / "release" / "perfbench"), *sys.argv[1:]]).returncode


if __name__ == "__main__":
    sys.exit(main())
