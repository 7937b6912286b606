#!/usr/bin/env python3
"""Run the benchmark on several seeds and summarize each metric.

    python3 perfbench/spread.py --workload plan --seeds 1-10 --seconds 25
    python3 perfbench/spread.py --workload plan --seeds 1-10 --second 11-20

For each metric it prints the median and the distance between the first
and the third quartile (statistics.quantiles, n=4) as a share of the
median; it also prints each run's failed share. With ``--second`` it
runs a second set of seeds, one run of each set in turn, and prints the
second set's median as a share of the first's. This is how the
reference figures in README.md were made.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def run(workload: str, seed: int, seconds: str) -> dict:
    t0 = time.time()
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", seconds, "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT)
    if proc.returncode != 0:
        print(proc.stdout[-2000:], proc.stderr[-2000:], sep="\n")
        raise SystemExit(proc.returncode)
    result = json.loads(proc.stdout.splitlines()[-1])
    share = result["failed"] / result["attempted"]
    print(f"seed {seed}: {time.time() - t0:.1f} s, correct={result['correct']}, "
          f"attempted={result['attempted']}, failed={result['failed']} "
          f"({share:.6f})", flush=True)
    return result


def summary(results: list[dict]) -> dict[str, tuple[float, float, str]]:
    """metric -> (median, quartile spread as a share of the median, unit)"""
    out = {}
    for name in results[0]["metrics"]:
        v = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(v)
        q = statistics.quantiles(v, n=4)
        out[name] = (med, (q[2] - q[0]) / med, results[0]["metrics"][name]["unit"])
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--second", type=seed_list, default=[])
    parser.add_argument("--seconds", default="25")
    args = parser.parse_args()

    sets: list[list[dict]] = [[], []]
    for i, seed in enumerate(args.seeds):
        sets[0].append(run(args.workload, seed, args.seconds))
        if i < len(args.second):
            sets[1].append(run(args.workload, args.second[i], args.seconds))
    first = summary(sets[0])
    second = summary(sets[1]) if sets[1] else {}
    for name, (med, spread, unit) in first.items():
        line = f"{name:20s} {med:14.6g} {unit:4s} spread {spread:.4f}"
        if name in second:
            med2, spread2, _ = second[name]
            line += f" | second {med2:14.6g} spread {spread2:.4f} ratio {med2 / med:.4f}"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
