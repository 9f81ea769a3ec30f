#!/usr/bin/env python3
"""Compare the parent and change runs of a committed BENCH_<n>.json.

    python3 scripts/bench_compare.py BENCH_12.json [--benchmark BENCHMARK.json]

For each workload and each end-to-end metric of BENCHMARK.json it prints
each side's median and quartiles (statistics.quantiles, n=4, as
sentbench/spread.py takes them), the change's median over the parent's,
the median and quartiles of the per-pair ratios (change over parent), and
how many pairs the change wins. Runs of one seed pair up in file
order; a tie counts for neither side. Two verdicts follow:

* gain: "yes" when at least 10 pairs ran, the change wins at least nine
  tenths of them, and its median is better than the parent's by more than
  the parent's quartile spread (q3 - q1); else "no".
* bound: "WORSE" when the change's median is worse than the parent's by
  more than the metric's bound (a share of the parent's median);
  "unresolved" when it is not, but the parent's own quartile spread is
  wider than the bound and some change run reads no better than some
  parent run; else "ok".

It reads the two JSON files and writes nothing.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def pairs(runs: list[dict], metric: str) -> list[tuple[float, float]]:
    """(parent, change) values of `metric`, the runs of each seed paired in file order."""
    sides: dict[int, dict[str, list[float]]] = {}
    for run in runs:
        value = run["result"]["metrics"][metric]["value"]
        sides.setdefault(run["seed"], {"parent": [], "change": []})[run["side"]].append(value)
    return [pair for seed in sides.values() for pair in zip(seed["parent"], seed["change"])]


def compare(runs: list[dict], metric: dict) -> dict:
    """The comparison of one metric over one workload's runs."""
    sign = 1.0 if metric["better"] == "higher" else -1.0
    matched = pairs(runs, metric["name"])
    parent = quartiles([p for p, _ in matched])
    change = quartiles([c for _, c in matched])
    wins = sum(sign * (c - p) > 0 for p, c in matched)
    gain = sign * (change[1] - parent[1])  # > 0 when the change's median is better
    spread = parent[2] - parent[0]
    worse_share = -gain / abs(parent[1]) if parent[1] else 0.0
    if worse_share > metric["bound"]:
        bound = "WORSE"
    elif (spread / abs(parent[1]) if parent[1] else 0.0) > metric["bound"] and not (
            min(sign * c for _, c in matched) > max(sign * p for p, _ in matched)):
        bound = "unresolved"
    else:
        bound = "ok"
    return {"pairs": len(matched), "parent": parent, "change": change, "wins": wins,
            "ratio": change[1] / parent[1] if parent[1] else float("nan"),
            "pair_ratios": quartiles([c / p if p else float("nan") for p, c in matched]),
            "gain": len(matched) >= MIN_PAIRS and wins >= WIN_SHARE * len(matched)
            and gain > spread,
            "bound": bound}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("bench", type=Path, help="a BENCH_<n>.json file")
    ap.add_argument("--benchmark", type=Path, default=ROOT / "BENCHMARK.json")
    args = ap.parse_args()
    try:
        bench = json.loads(args.bench.read_text())
        spec = json.loads(args.benchmark.read_text())
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{args.bench.name}: parent {bench.get('parent', '?')}")
    for workload, runs in bench["workloads"].items():
        print(f"\n{workload}")
        print(f"{'metric':<20} {'parent median [q1, q3]':>34} {'change median [q1, q3]':>34}"
              f" {'ratio':>7} {'pair ratios [q1, q3]':>22} {'wins':>7} {'gain':>5}"
              f" {'bound':>11}")
        for metric in spec["end_to_end"]:
            row = compare(runs, metric)
            sides = (f"{m:>10.4g} [{q1:.4g}, {q3:.4g}]" for q1, m, q3 in
                     (row["parent"], row["change"]))
            q1, m, q3 = row["pair_ratios"]
            print(f"{metric['name']:<20} {next(sides):>34} {next(sides):>34}"
                  f" {row['ratio']:>7.3f} {f'{m:.3f} [{q1:.3f}, {q3:.3f}]':>22}"
                  f" {row['wins']:>3}/{row['pairs']:<3}"
                  f" {'yes' if row['gain'] else 'no':>5} {row['bound']:>11}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
