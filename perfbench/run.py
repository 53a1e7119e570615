#!/usr/bin/env python3
"""Build the benchmark from source, pin it to one CPU and run it.

Usage, from the repository root:

    python3 perfbench/run.py --workload vm-engine --seed 1 --seconds 20 --trace 0

All arguments go to the benchmark binary (see perfbench/src/main.rs).
The binary is built in release mode into $CARGO_TARGET_DIR, or into
.bench_build under the current directory when that is unset. Build
output goes to standard error, so the last line of standard output is
the benchmark's JSON result. The process pins itself to the
highest-numbered CPU it may use and then replaces itself with the
benchmark: the simulator never runs two guest threads at once, so one
CPU is all it uses, and pinning keeps the thread backend's OS-thread
hand-offs on one core.
"""

import os
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(os.getcwd(), ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(here, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
        check=False,
    )
    if build.returncode != 0:
        print(f"perfbench: build failed (exit {build.returncode})", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "perfbench")
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    sys.stdout.flush()
    sys.stderr.flush()
    os.execv(binary, [binary, *sys.argv[1:]])
    return 1  # not reached: execv only returns by raising


if __name__ == "__main__":
    sys.exit(main())
