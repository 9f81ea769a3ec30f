#!/usr/bin/env python3
"""Train, decode and score all four variant names on one corpus.

The names run two wirings: `bert+gpt2` and `gpt2+bert` are aliases of
`bert` and `gpt2`, which train byte-identical models, so each wiring
trains and decodes once and an alias scores its wiring's output under its
own label.

Drives the CLI end to end: train on train.src/train.tgt with early stopping
against the valid split, simplify the test split, score it, then print the
combined comparison table. Expects the file layout produced by
make_toy_corpus.py.
"""

import argparse
from pathlib import Path

from sentsimp.cli import main as cli
from sentsimp.model import VARIANTS


def run():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--corpus", required=True, help="directory with train/valid/test files")
    ap.add_argument("--out", required=True, help="directory for run outputs")
    ap.add_argument("--scale", choices=["paper", "toy"], default="toy")
    ap.add_argument("--epochs", default="40")
    ap.add_argument("--seed", default="0")
    args = ap.parse_args()

    corpus = Path(args.corpus)
    out = Path(args.out)
    eval_dirs = []
    for variant in sorted(VARIANTS):  # each wiring sorts before its alias
        run_dir = out / variant.replace("+", "_")
        system = out / VARIANTS[variant] / "system.txt"
        if VARIANTS[variant] == variant:
            code = cli(["train",
                        "--train-src", str(corpus / "train.src"),
                        "--train-tgt", str(corpus / "train.tgt"),
                        "--valid-stem", str(corpus / "valid"),
                        "--out", str(run_dir),
                        "--variant", variant, "--scale", args.scale,
                        "--epochs", args.epochs, "--seed", args.seed])
            if code != 0:
                raise SystemExit(code)
            cli(["simplify", "--checkpoint", str(run_dir / "checkpoint.bin"),
                 "--input", str(corpus / "test.src"), "--output", str(system)])
        cli(["eval", "--system", str(system), "--eval-stem", str(corpus / "test"),
             "--out", str(run_dir / "eval"), "--label", variant])
        eval_dirs.append(str(run_dir / "eval"))

    cli(["report", *eval_dirs, "--out", str(out)])


if __name__ == "__main__":
    run()
