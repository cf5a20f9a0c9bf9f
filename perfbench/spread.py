#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs one workload once per seed and prints, for every metric, the median,
the quartiles and the interquartile distance as a share of the median
(`statistics.quantiles(values, n=4)`), next to the bound BENCHMARK.json
fixes for it. Run from the repository root, after building:

    python3 perfbench/spread.py corpus_cold --seeds 1-10 --seconds 20
    python3 perfbench/spread.py serve_warm --seeds 1-5 --trace 1

The per-seed result lines are appended to perfbench/out/runs.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BINARY = os.path.join(
    os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "release", "datavinci-perfbench"
)


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("workload")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    os.makedirs("perfbench/out", exist_ok=True)
    values = {}
    for seed in seeds(args.seeds):
        cmd = [BINARY, "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", args.trace]
        out = subprocess.run(cmd, capture_output=True, text=True, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        with open("perfbench/out/runs.jsonl", "a") as log:
            log.write(json.dumps({"workload": args.workload, "seed": seed,
                                  "trace": args.trace, **result}) + "\n")
        if not result["correct"] or result["failed"]:
            print(f"seed {seed}: incorrect run: {result}", file=sys.stderr)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()), flush=True)

    print(f"{'metric':32} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
        else:
            q1 = q3 = vals[0]
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        print(f"{name:32} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.3f} "
              f"{'' if bound is None else bound:>6}")


if __name__ == "__main__":
    main()
