#!/usr/bin/env python3
"""sentsimp benchmark: one workload, one seed, one run.

    python3 sentbench/run.py --workload {train,bigvocab} --seed N \\
        --seconds S --trace {0,1}

Run from the repository root. The BLAS thread count is pinned before numpy
is imported. The workload's iteration repeats, closed loop, for --seconds,
each after a timed set-up; setup_s is the median set-up. Each throughput is
the work of every timed call in the run over their summed wall time
(training tokens over train_loop wall, lines over `sentsimp simplify`
wall); checkpoint times are medians over the run. Every output is checked,
and every check counts as an operation in `attempted` / `failed`.

--trace 1 alternates untraced and traced iterations (the second set-up is
traced too) and reports the per-layer metrics instead, plus the tracing
overhead: the traced iteration wall time over the untraced one, minus one.
Traced and untraced outputs must be byte-identical.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

# One thread keeps a run on one core, so runs compare; it is <= nproc anywhere.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build" / "sentbench"

END_TO_END = {
    "setup_s": "s",
    "train_tokens_per_s": "tokens/s",
    "time_to_target_s": "s",
    "valid_sari": "SARI",
    "greedy_sents_per_s": "lines/s",
    "beam_sents_per_s": "lines/s",
    "greedy_sari": "SARI",
    "beam_sari": "SARI",
    "ckpt_save_s": "s",
    "ckpt_load_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    head = ROOT / ".git" / "HEAD"
    commit = "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    return {"commit": commit, "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": BLAS_THREADS, "nproc": os.cpu_count()}


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in ("src/sentsimp/__init__.py", "scripts/make_toy_corpus.py")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a sentsimp checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from harness import run_workload
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    env = environment()
    print("# env " + json.dumps(env, sort_keys=True))
    result = run_workload(WORKLOADS[args.workload](), args.seed, args.seconds,
                          bool(args.trace), WORK / f"{args.workload}-{args.seed}-{args.trace}",
                          END_TO_END)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
