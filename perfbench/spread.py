"""Run the benchmark several times and report how steady its metrics are.

Run from the repository root:

    python3 perfbench/spread.py --workload scan --runs 10 [--first-seed 1] [--trace 0]

Each run gets its own seed (first-seed, first-seed + 1, ...).  With
``--trace 0`` it prints, for every end-to-end metric, the median and the
quartile spread (Q3 - Q1, from ``statistics.quantiles(values, n=4)``) as
a share of the median, next to a third of the metric's bound from
BENCHMARK.json.  With ``--trace 1`` it checks the exact-repeat rule: every
per-layer count must read the same in every run, whatever the seed.
Exits 1 when a run fails, reports a wrong output, or breaks either rule.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        result = run_once(args.workload, seed, spec["run_seconds"], args.trace)
        results.append(result)
        print(json.dumps({"seed": seed, **result}), flush=True)
    ok = all(r["correct"] and r["failed"] == 0 for r in results)

    if args.trace == 0:
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            steady = spread < metric["bound"] / 3 or metric["name"] == "setup_s"
            ok = ok and steady
            print(f"{args.workload:8} {metric['name']:12} median {median:.6g} "
                  f"spread {spread:.4f} bound/3 {metric['bound'] / 3:.4f} "
                  f"{'ok' if steady else 'UNSTEADY'}")
    else:
        for metric in spec["per_layer"]:
            if metric["unit"] != "count":
                continue
            values = {r["metrics"][metric["name"]]["value"] for r in results}
            if len(values) > 1:
                ok = False
                print(f"{args.workload:8} {metric['name']} differs between runs: {sorted(values)}")
        print(f"{args.workload:8} exact repeat of per-layer counts: {'ok' if ok else 'FAILED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
