#!/usr/bin/env python3
"""Builds the perfbench package and runs one workload of it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The package builds into $CARGO_TARGET_DIR
(default `.bench_build`). The last line of standard output is the run's
JSON result; build output and progress go to standard error. Exits
non-zero, printing no result, if the build or the run fails.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# A metric run takes the --seconds of work plus set-up; the build is
# timed separately.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def main():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr, env=env,
    )
    if build.returncode != 0:
        fail(f"build failed (exit {build.returncode})")
    exe = os.path.join(target, "release", "perfbench")
    # One glibc malloc arena per short-lived server thread made
    # serve-mixed's peak RSS depend on which threads happened to overlap
    # (163-205 MB over four runs); a single arena pins it (112-121 MB).
    # secsim-serve itself runs with glibc's default, so peak_rss_mb is a
    # figure for comparing changes, not the RSS of a deployment.
    run_env = dict(env, MALLOC_ARENA_MAX="1")
    try:
        run = subprocess.run([exe] + sys.argv[1:], stdout=subprocess.PIPE, text=True,
                             env=run_env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if run.returncode != 0:
        fail(f"run failed (exit {run.returncode})")
    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("run printed no JSON result")
    if set(result) != RESULT_KEYS:
        fail(f"result keys {sorted(result)} != {sorted(RESULT_KEYS)}")
    print(lines[-1])


if __name__ == "__main__":
    main()
