#!/usr/bin/env python3
"""Run alternating benchmark pairs of two revisions and write a BENCH file.

    python3 scripts/bench_pairs.py BASE [CHANGE] --workload W [--workload W2 ...] \\
        --pairs N --seeds A-B --seconds S [--note TEXT] [--out BENCH_<n>.json]

BASE and CHANGE are git revisions; CHANGE defaults to the working tree,
which is used in place. Each revision is checked out in a temporary
`git worktree` (`byte_check.checked_out`), and every worktree is removed
however the run ends. BASE = CHANGE measures the noise floor (A/A).

For each workload in turn, pair i runs `sentbench/run.py --workload W
--seed N --seconds S` once in each tree, with its own `sentbench/` and
`src/`, one run at a time; the seeds A..B are taken in turn, again from A
when N is larger. BASE runs first in even pairs and CHANGE in odd ones.
`sentbench/run.py` pins one BLAS thread.

The result is the JSON that `scripts/bench_compare.py` reads: `parent`,
`change`, `description`, `command`, `machine` and `workloads`, which maps
each workload to its runs in run order, each {"seed", "side", "result"}
with side "parent" or "change" and the run's last output line as the
result. It goes to --out, or to standard output. A progress line per run
goes to standard error. It exits 2 when a revision cannot be checked out
or a run prints no result. SIGTERM ends it as an interrupt does: the
current run is killed and the worktrees are removed.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

from byte_check import CheckoutError, checked_out, git

SIDES = ("parent", "change")


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    try:
        seeds = list(range(int(first), int(last or first) + 1))
    except ValueError:
        seeds = []
    if not seeds:
        raise argparse.ArgumentTypeError(f"expected seeds A-B with A <= B, got {text!r}")
    return seeds


def schedule(workloads: list[str], pairs: int, seeds: list[int]):
    """(workload, seed, side) of every run, in run order."""
    for workload in workloads:
        for i in range(pairs):
            for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                yield workload, seeds[i % len(seeds)], side


def run_one(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one `sentbench/run.py` run in `tree`; RuntimeError when it
    prints none."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}  # the tree's own src/
    done = subprocess.run([sys.executable, "sentbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds)],
                          cwd=tree, env=env, capture_output=True, text=True)
    try:
        return json.loads(done.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        raise RuntimeError(f"{workload} seed {seed} in {tree} printed no result "
                           f"(exit {done.returncode}):\n{done.stderr[-2000:]}") from None


def describe(base: str, change: str | None, args) -> dict:
    short = {rev: git("rev-parse", "--short", rev).stdout.strip() or rev
             for rev in (base, change) if rev is not None}
    seeds = f"{args.seeds[0]}-{args.seeds[-1]}"
    text = (f"sentbench/run.py --seconds {args.seconds:g}, {args.pairs} alternating parent "
            f"and change runs of the same seed per workload (the side that runs first "
            f"alternates every pair; entries are in run order), seeds {seeds}, by "
            f"scripts/bench_pairs.py. Each entry is the result JSON line as printed.")
    ram = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 1e9
    return {"parent": short[base], "change": short.get(change, "working tree"),
            "description": f"{text} {args.note}".strip(),
            "command": "python3 sentbench/run.py --workload W --seed N --seconds "
                       f"{args.seconds:g}",
            "machine": f"{os.cpu_count()} CPUs, {ram:.1f} GB RAM, 1 BLAS thread"}


def main(argv=None, run=run_one) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", help="revision of the parent side")
    ap.add_argument("change", nargs="?", help="revision of the change side "
                    "(default: the working tree)")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seeds", type=seed_range, required=True, help="A-B")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--note", default="", help="appended to the description")
    ap.add_argument("--out", type=Path, help="file to write (default: standard output)")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    bench = describe(args.base, args.change, args)
    bench["workloads"] = {w: [] for w in args.workload}
    with tempfile.TemporaryDirectory(prefix="bench_pairs.") as tmp:
        try:
            with checked_out({"parent": args.base, "change": args.change},
                             Path(tmp)) as trees:
                for workload, seed, side in schedule(args.workload, args.pairs, args.seeds):
                    result = run(trees[side], workload, seed, args.seconds)
                    bench["workloads"][workload].append(
                        {"seed": seed, "side": side, "result": result})
                    tokens = result["metrics"].get("train_tokens_per_s", {}).get("value")
                    print(f"{workload} seed {seed} {side}: correct {result['correct']}, "
                          f"train_tokens_per_s {tokens}", file=sys.stderr)
        except (CheckoutError, RuntimeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    text = json.dumps(bench, indent=1) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text)
    return 0


if __name__ == "__main__":
    # SIGTERM exits through main's cleanup, as an interrupt does.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    sys.exit(main())
