#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Runs the benchmark once per seed on each named workload (untraced) and
prints, per metric, the median, the first and third quartiles
(`statistics.quantiles(values, n=4)`), the quartile spread as a share of
the median, and whether every run's digest line matched for equal seeds.

    python3 simbench/spread.py --seconds 20 --seeds 1-10 flood_epoch quorum_stream

Run it from the repository root. It runs the `command` of BENCHMARK.json,
so the first run also builds the benchmark.
"""

import argparse
import json
import statistics
import subprocess
import sys

with open("BENCHMARK.json") as spec:
    COMMAND = json.load(spec)["command"]


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds):
    out = subprocess.run(
        COMMAND + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"],
        check=True, capture_output=True, text=True).stdout.splitlines()
    digest = next(line for line in out if line.startswith("digest:"))
    return json.loads(out[-1]), digest


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("workloads", nargs="+")
    args = ap.parse_args()
    for workload in args.workloads:
        values = {}
        failed = 0
        digests = []
        for seed in seeds(args.seeds):
            result, digest = run(workload, seed, args.seconds)
            failed += result["failed"] + (0 if result["correct"] else 1)
            digests.append(f"seed {seed}: {digest}")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                file=sys.stderr, flush=True)
        print(f"## {workload} ({len(digests)} runs, {args.seconds} s, failed {failed})")
        for name, vs in values.items():
            q1, _, q3 = statistics.quantiles(vs, n=4)
            med = statistics.median(vs)
            print(f"{name:14s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"spread {(q3 - q1) / med:.4f}")
        for line in digests:
            print(line)


if __name__ == "__main__":
    main()
