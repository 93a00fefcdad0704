#!/usr/bin/env python3
"""Steadiness check: runs one workload N times and reports, for every
end-to-end metric, the median, the quartiles and the spread
(Q3 - Q1) / median against the metric's bound in BENCHMARK.json.

    python3 perfbench/steady.py --workload sim-miss [--runs 10] [--seed0 100] [--sets 1]

Run from the repository root. Set i uses seeds seed0 + i*runs ...; with
--sets 2 it also prints how far the second set's median moved from the
first's, in the direction that is worse, against the bound. A spread
above a third of its bound, or a drift above its bound, is flagged, on
every metric, setup_s included.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def one_run(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"seed {seed}: incorrect run: {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=100)
    ap.add_argument("--sets", type=int, default=1)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    sets = []
    for s in range(args.sets):
        runs = []
        for i in range(args.runs):
            seed = args.seed0 + s * args.runs + i
            t = time.monotonic()
            runs.append(one_run(args.workload, seed, spec["run_seconds"]))
            print(f"set {s} seed {seed} ({time.monotonic() - t:.0f} s): "
                  + ", ".join(f"{k}={v:.6g}" for k, v in runs[-1].items()), file=sys.stderr)
        sets.append(runs)

    ok = True
    print(f"{args.workload}: {args.runs} runs x {args.sets} set(s)")
    print(f"{'metric':18s} {'set':>3s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for name, m in metrics.items():
        medians = []
        for s, runs in enumerate(sets):
            values = [r[name] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            medians.append(med)
            flag = ""
            if spread > m["bound"] / 3:
                flag, ok = "  SPREAD > bound/3", False
            print(f"{name:18s} {s:3d} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {m['bound']:6.3f}{flag}")
        if len(medians) > 1:
            sign = 1 if m["better"] == "lower" else -1
            drift = sign * (medians[-1] - medians[0]) / medians[0]
            flag = ""
            if drift > m["bound"]:
                flag, ok = "  DRIFT > bound", False
            print(f"{name:18s} drift (worse-ward) {drift:+.4f} vs bound {m['bound']:.3f}{flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
