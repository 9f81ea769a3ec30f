#!/usr/bin/env python3
"""Run one workload over several seeds and report each metric's spread.

    python3 sentbench/spread.py --workload train --seeds 1-10 [--seconds 20] [--trace 0]

Spread is the distance between the first and third quartile of the runs'
values (statistics.quantiles, n=4) as a share of their median: the figure a
metric's bound in BENCHMARK.json is compared with. Runs one at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-5"))
    ap.add_argument("--seconds", default=None,
                    help="defaults to run_seconds from BENCHMARK.json")
    ap.add_argument("--trace", default="0", choices=("0", "1"))
    args = ap.parse_args()
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or str(bench["run_seconds"])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", seconds, "--trace", args.trace],
            cwd=HERE.parent, capture_output=True, text=True, check=False)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: exit {proc.returncode}, correct {result['correct']}, "
              f"{result['failed']}/{result['attempted']} failed", flush=True)
        for line in proc.stdout.splitlines():
            if line.startswith(("# set-ups", "# traffic")) or " iterations, wall" in line:
                print("   " + line, flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    print(f"{'metric':<44} {'median':>12} {'spread':>8} {'bound':>6}  values / median")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None or spread < bound / 3 else "  <-- over a third"
        rel = " ".join(f"{v / med:.2f}" if med else f"{v:g}" for v in vals)
        print(f"{name:<44} {med:>12.6g} {spread:>8.3f} {bound if bound is not None else '':>6}"
              f"  {rel}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
