"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 bench/spread.py --workload NAME [--runs 10] [--first-seed 1]

Runs bench/run.py once per seed (first-seed, first-seed + 1, ...) with the
run length from BENCHMARK.json and prints, for each end-to-end metric, the
median of the runs and the quartile spread (Q3 - Q1) / median next to its
bound.  A spread below a third of the bound is steady enough.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from stats import quartile_spread

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()

    values: dict[str, list[float]] = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, *spec["command"][1:], "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            sys.stderr.write(proc.stdout)
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(
            f"{name}={metric['value']:.6g}"
            for name, metric in result["metrics"].items()), flush=True)

    for metric in spec["end_to_end"]:
        runs = values[metric["name"]]
        spread = quartile_spread(runs)
        verdict = "ok" if spread < metric["bound"] / 3 else "WIDE"
        print(f"{metric['name']:<14} median {statistics.median(runs):.6g} "
              f"{metric['unit']:<4} spread {spread:.4f} "
              f"bound {metric['bound']} {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
