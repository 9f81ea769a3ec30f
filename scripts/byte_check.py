#!/usr/bin/env python3
"""Check that two revisions train and decode byte-identical outputs.

    python3 scripts/byte_check.py PARENT [CHANGE]

PARENT and CHANGE are git revisions; CHANGE defaults to the working tree,
which is used in place. Each revision is checked out in a temporary
`git worktree`, and every worktree is removed however the run ends,
SIGTERM included.

Both trees run the same toy flow, each with its own `src/` and
`scripts/make_toy_corpus.py`: the corpus of `make_toy_corpus.py --seed 3`,
then for each of the four variant names `sentsimp train` (4 epochs,
seed 5, `--max-lr 3e-3`) and `sentsimp simplify` of the test sources,
greedy and beam-4. The toy preset's dropout rate is 0, so one more run,
through the library API, trains `bert` at dropout rate 0.1 (3 epochs,
seed 5, `max_lr` 3e-3) into `bert_dropout/`: the only run that draws
dropout masks. Two last library-API runs train `gpt2` and `bert` (3
epochs, seed 5, `max_lr` 3e-3) into `gpt2_ragged/` and `bert_ragged/` on
64 pairs of a seeded synthetic corpus, sentences of 4-14 words drawn from
5,000 (a 4,153-entry vocabulary): the only runs whose batches hold pads on
both sides, whose loss spans several vocabulary chunks and whose embedding
tables have rows no batch reaches; `bert_ragged` is the only one whose
bidirectional encoder masks source pads. A revision whose API lacks a name
it uses fails with exit 2. The two trees run at the same time, each with one BLAS thread.

For each artifact it prints `same`, or the offset of the first byte that
differs. It exits 0 when every artifact is the same, 1 on any difference,
and 2 when a revision cannot be checked out or its flow fails.
"""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
VARIANTS = ("bert", "bert+gpt2", "gpt2", "gpt2+bert")
ARTIFACTS = ("checkpoint.bin", "history.tsv", "greedy.txt", "beam.txt")
# Directory under out/ -> the artifacts to compare there.
RUNS = {**{v.replace("+", "_"): ARTIFACTS for v in VARIANTS},
        "bert_dropout": ("checkpoint.bin", "history.tsv"),
        "gpt2_ragged": ("checkpoint.bin", "history.tsv"),
        "bert_ragged": ("checkpoint.bin", "history.tsv")}

# Run in each tree with its own src/ on the path; argv: the tree, the work directory and
# the variant names.
FLOW = """
import dataclasses, subprocess, sys
from pathlib import Path
import numpy as np
from sentsimp import corpus as C, tokenizer as tok
from sentsimp.cli import main
from sentsimp.model import init_model, variant_config
from sentsimp.train import TrainConfig, history_tsv, save_checkpoint, train_loop

tree, work = Path(sys.argv[1]), Path(sys.argv[2])
corpus, out = work / "corpus", work / "out"
subprocess.run([sys.executable, str(tree / "scripts" / "make_toy_corpus.py"), "--out",
                str(corpus), "--seed", "3"], stdout=subprocess.DEVNULL, check=True)
for variant in sys.argv[3:]:
    run = out / variant.replace("+", "_")
    code = main(["train", "--train-src", str(corpus / "train.src"),
                 "--train-tgt", str(corpus / "train.tgt"), "--valid-stem", str(corpus / "valid"),
                 "--out", str(run), "--variant", variant, "--epochs", "4", "--seed", "5",
                 "--max-lr", "3e-3"])
    for strategy in ("greedy", "beam"):
        code = code or main(["simplify", "--checkpoint", str(run / "checkpoint.bin"),
                             "--input", str(corpus / "test.src"),
                             "--output", str(run / (strategy + ".txt")),
                             "--strategy", strategy, "--beam-width", "4"])
    if code:
        sys.exit(f"{variant}: exit {code}")

examples = C.load_parallel(corpus / "train.src", corpus / "train.tgt")
valid = C.load_eval(*C.find_eval_files(corpus / "valid"))
vocab = tok.build_vocab([e.source for e in examples] + [e.target for e in examples], 2000)
config = dataclasses.replace(variant_config("bert", "toy", vocab.size), dropout_rate=0.1)
cfg = TrainConfig(max_lr=3e-3, epochs=3, seed=5)

def train_into(name, config, vocab, pairs, valid):
    pairs = [(tok.encode(vocab, s, config.max_len).ids, tok.encode(vocab, t, config.max_len).ids)
             for s, t in pairs]
    batches = C.make_batches(pairs, cfg.batch_size, vocab.pad_id, config.max_len,
                             shuffle_seed=cfg.seed)
    ckpt, history = train_loop(init_model(config, cfg.seed), batches, valid, cfg, vocab)
    run = out / name
    run.mkdir()
    save_checkpoint(ckpt, run / "checkpoint.bin")
    (run / "history.tsv").write_text(history_tsv(history))


train_into("bert_dropout", config, vocab, [(e.source, e.target) for e in examples], valid)

# 1,000 sentences of 4-14 words drawn from 5,000 make the vocabulary; 64 pairs train and 8
# validate, so most table rows are never reached. Each target keeps every other word.
rng = np.random.default_rng(11)
sources = [" ".join(f"w{i}" for i in rng.integers(0, 5000, size=n))
           for n in rng.integers(4, 15, size=1000)]
pairs = [(s, " ".join(s.split()[::2])) for s in sources]
vocab = tok.build_vocab(sources, 6000)
valid = [C.EvalExample(s, (t,)) for s, t in pairs[64:72]]
for variant in ("gpt2", "bert"):
    train_into(variant + "_ragged", variant_config(variant, "toy", vocab.size), vocab,
               pairs[:64], valid)
"""


def first_difference(a: bytes, b: bytes) -> int | None:
    """The offset of the first byte where `a` and `b` differ (the shorter one's length
    when it is a prefix of the other), or None when they are equal."""
    if a == b:
        return None
    return next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))


def start_flow(tree: Path, work: Path) -> subprocess.Popen:
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    return subprocess.Popen([sys.executable, "-c", FLOW, str(tree), str(work), *VARIANTS],
                            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            text=True)


def git(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True)


class CheckoutError(Exception):
    pass


@contextmanager
def checked_out(revisions: dict[str, str | None], tmp: Path):
    """Side -> the tree of each side's revision: a temporary `git worktree` at
    tmp/<side>/tree, or this checkout, in place, for None. Every worktree added is
    removed when the block ends, however it ends. CheckoutError names a revision that
    cannot be checked out."""
    trees, added = {}, []
    try:
        for side, rev in revisions.items():
            if rev is None:
                trees[side] = ROOT
                continue
            tree = tmp / side / "tree"
            done = git("worktree", "add", "--detach", str(tree), rev)
            if done.returncode:
                raise CheckoutError(f"cannot check out {rev}: {done.stderr.strip()}")
            added.append(tree)
            trees[side] = tree
        yield trees
    finally:
        for tree in added:
            git("worktree", "remove", "--force", str(tree))
        git("worktree", "prune")


def run(parent: str, change: str | None, tmp: Path) -> int:
    try:
        with checked_out({"parent": parent, "change": change}, tmp) as trees:
            flows = {side: start_flow(tree, tmp / side) for side, tree in trees.items()}
            failed = False
            try:
                for side, flow in flows.items():
                    log = flow.communicate()[0]
                    if flow.returncode:
                        print(f"error: the {side} flow failed:\n{log}", file=sys.stderr)
                        failed = True
            finally:
                for flow in flows.values():  # still running only when this run was stopped
                    flow.kill()
            if failed:
                return 2
    except CheckoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    differs = False
    for run_dir, artifacts in RUNS.items():
        for artifact in artifacts:
            name = f"{run_dir}/{artifact}"
            a, b = ((tmp / side / "out" / name).read_bytes() for side in ("parent", "change"))
            at = first_difference(a, b)
            differs |= at is not None
            print(f"{name:28} {'same' if at is None else f'differs at byte {at}'}")
    return 1 if differs else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent", help="revision to compare against")
    ap.add_argument("change", nargs="?", help="revision to check (default: the working tree)")
    args = ap.parse_args()
    with tempfile.TemporaryDirectory(prefix="byte_check.") as tmp:
        return run(args.parent, args.change, Path(tmp))


if __name__ == "__main__":
    # SIGTERM exits through the worktrees' cleanup, as an interrupt does.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    sys.exit(main())
