#!/usr/bin/env python3
"""Builds the repository benchmark and runs one workload of it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark is a package of its own (perfbench/Cargo.toml) that depends
on the workspace crates by path. It is built with all CPUs, then run
pinned to a single CPU with a single malloc arena: the serving stack's
driver, stage and pool threads share that core and heap, so results do
not depend on how the host schedules a second virtual CPU or on which
per-thread arenas a run happened to grow. All arguments are passed
through to the benchmark.
"""

import os
import subprocess
import sys

MANIFEST = os.path.join(os.path.dirname(os.path.abspath(__file__)), "Cargo.toml")
CARGO = ["cargo", "bench", "--quiet", "--offline", "--manifest-path", MANIFEST, "--bench", "lutserve"]


def main():
    build = subprocess.run(CARGO + ["--no-run"], stdout=sys.stderr)
    if build.returncode != 0:
        sys.exit(build.returncode)
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    os.environ["MALLOC_ARENA_MAX"] = "1"
    print(f"run.py: pinned to cpu {cpu}", file=sys.stderr, flush=True)
    os.execvp(CARGO[0], CARGO + ["--"] + sys.argv[1:])


if __name__ == "__main__":
    main()
