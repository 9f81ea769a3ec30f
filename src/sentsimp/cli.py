"""Command-line entry point: train / simplify / eval / report.

Train settings merge in order: built-in defaults, then a key=value config
file (--config), then explicit flags; file values pass the same type and
choice checks as flags. Every run echoes its parsed settings into the
output directory as config.resolved so it can be replayed.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import fields

import numpy as np

from . import corpus as C
from . import sari as S
from . import tokenizer as tok
from .decoding import STRATEGIES, DecodeConfig, simplify
from .model import VARIANTS, init_model, variant_config
from .train import (TrainConfig, TrainingDivergedError, history_tsv, load_checkpoint,
                    model_from_checkpoint, save_checkpoint, schedule_steps, staged_write,
                    train_loop)
from .tensor import NonFiniteError

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_NUMERIC = 1
EXIT_USAGE = 2

# Published Mechanical Turk results, shown alongside our runs for context.
PAPER_VARIANT_ROWS = [
    ("BERT", 46.80, 12.13, 67.16, 61.22),
    ("GPT-2", 46.35, 12.60, 66.64, 59.73),
    ("GPT-2+BERT", 42.35, 10.74, 62.37, 54.05),
    ("BERT+GPT-2", 42.31, 11.07, 62.82, 53.93),
]
LITERATURE_ROWS = [
    ("Zhao et al. (2018)", 40.42, 5.72, 42.23, 73.41),
    ("Martin et al. (2019)", 41.87, None, None, None),
    ("Omelianchuk et al. (2021)", 41.46, 6.96, 47.87, 69.56),
    ("Sheang & Saggion (2021)", 43.31, None, None, None),
    ("Stajner et al. (2022)", 43.30, None, None, None),
]


# The train settings that config.resolved records and a --config file may set (besides
# `out`, which the required --out flag always overrides).
TRAIN_SETTINGS = ("variant", "scale", "seed", "epochs", "batch_size", "patience",
                  "max_vocab", "min_freq", "base_lr", "max_lr")


class _Parser(argparse.ArgumentParser):
    """Argument errors raise ValueError, which main reports as one `error:` line."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def int_or_none(text: str) -> int | None:
    return None if text.lower() in ("none", "off") else int(text)


def _read_config_file(path) -> dict[str, str]:
    values = {}
    for line in C._read_lines(path):
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"bad config line (expected key=value): {line!r}")
        values[key.strip()] = value.strip()
    return values


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """defaults < config file < explicit flags: the file's settings are parsed as flags
    placed ahead of the explicit ones, which win because the last value given wins."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "config", None):
        return args
    values = _read_config_file(args.config)
    unknown = sorted(set(values) - set(TRAIN_SETTINGS) - {"out"})
    if unknown:
        raise ValueError(f"unknown keys in config file {args.config}: {unknown}")
    ahead = [f"--{key.replace('_', '-')}={value}" for key, value in values.items()
             if key != "out"]
    try:
        return parser.parse_args([argv[0], *ahead, *argv[1:]])  # argv[0] is "train"
    except ValueError as exc:
        raise ValueError(f"config file {args.config}: {exc}") from exc


def cmd_train(args) -> int:
    train_cfg = TrainConfig(**{f.name: getattr(args, f.name) for f in fields(TrainConfig)})
    out_dir = args.out
    train_examples = C.load_parallel(args.train_src, args.train_tgt)
    if not train_examples:
        raise C.CorpusFormatError("training corpus is empty after filtering")
    src_eval, ref_paths = C.find_eval_files(args.valid_stem)
    valid = C.load_eval(src_eval, ref_paths)
    vocab = tok.build_vocab(
        [e.source for e in train_examples] + [e.target for e in train_examples],
        max_size=args.max_vocab, min_freq=args.min_freq,
    )
    model_cfg = variant_config(args.variant, args.scale, vocab_size=vocab.size)
    pairs = [
        (tok.encode(vocab, e.source, model_cfg.max_len).ids,
         tok.encode(vocab, e.target, model_cfg.max_len).ids)
        for e in train_examples
    ]
    batches = C.make_batches(pairs, train_cfg.batch_size, vocab.pad_id,
                             model_cfg.max_len, shuffle_seed=train_cfg.seed)
    schedule_steps(train_cfg, len(batches))
    # After the inputs load and the schedule is checked, so bad input leaves no --out
    # behind; before training, so an unusable --out fails fast.
    created = not os.path.exists(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    try:
        ckpt, history = train_loop(init_model(model_cfg, train_cfg.seed), batches, valid,
                                   train_cfg, vocab)
    except BaseException:
        if created and not os.listdir(out_dir):  # a failed run leaves no empty --out behind
            os.rmdir(out_dir)
        raise

    with staged_write(os.path.join(out_dir, "config.resolved")) as f:
        for key in sorted((*TRAIN_SETTINGS, "out")):
            f.write(f"{key}={getattr(args, key)}\n")
    save_checkpoint(ckpt, os.path.join(out_dir, "checkpoint.bin"))
    with staged_write(os.path.join(out_dir, "history.tsv")) as f:
        f.write(history_tsv(history))
    log.info("trained %s for %d epochs, best SARI %.2f at epoch %d",
             args.variant, len(history.epochs),
             max(r.valid_sari for r in history.epochs), history.best_epoch)
    return EXIT_OK


def cmd_simplify(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    model = model_from_checkpoint(ckpt)
    decode_cfg = DecodeConfig(max_len=ckpt.config.max_len, strategy=args.strategy,
                              beam_width=args.beam_width)
    lines = C._read_lines(args.input)
    with staged_write(args.output) as f:  # replaces --output once all lines decode
        for line in lines:
            f.write((simplify(model, ckpt.vocab, line, decode_cfg) if line else "") + "\n")
    return EXIT_OK


def _format_row(label, sari, add, delete, keep):
    def fmt(v):
        return f"{v:6.2f}" if v is not None else "     -"
    return f"{label:<28} {fmt(sari)} {fmt(add)} {fmt(delete)} {fmt(keep)}"


def _results_table(rows, heading: str, published) -> str:
    """Our rows under the column header, a blank line, then `heading` over `published`."""
    return "\n".join([f"{'Model':<28}   SARI    ADD DELETE   KEEP",
                      *(_format_row(*row) for row in rows), "", heading,
                      *(_format_row(*row) for row in published)])


def cmd_eval(args) -> int:
    src_path, ref_paths = C.find_eval_files(args.eval_stem)
    evals = C.load_eval(src_path, ref_paths)
    outputs = C._read_lines(args.system)
    if len(outputs) != len(evals):
        raise C.CorpusFormatError(
            f"system output has {len(outputs)} lines, evaluation set has {len(evals)}"
        )
    report, scores = S.sari_corpus(
        (e.source, out, list(e.references)) for e, out in zip(evals, outputs)
    )
    histogram = S.score_histogram(scores, args.bins)  # rejects a bad --bins before any write
    out_dir = args.out
    os.makedirs(out_dir, exist_ok=True)
    label = args.label or os.path.basename(os.path.normpath(out_dir))

    with staged_write(os.path.join(out_dir, "report.json")) as f:
        json.dump({"label": label, "sari": report.sari, "add": report.add,
                   "keep": report.keep, "delete": report.delete, "n": len(scores)},
                  f, indent=2)
        f.write("\n")

    table = _results_table([(label, report.sari, report.add, report.delete, report.keep)],
                           "Published Mechanical Turk results (reference constants):",
                           PAPER_VARIANT_ROWS)
    with staged_write(os.path.join(out_dir, "report.txt")) as f:
        f.write(table + "\n")

    with staged_write(os.path.join(out_dir, "sentences.tsv")) as f:
        f.write("index\tsari\tsari_normalized\n")
        for i, s in enumerate(scores):
            f.write(f"{i}\t{s!r}\t{s / 100.0!r}\n")

    with staged_write(os.path.join(out_dir, "histogram.tsv")) as f:
        f.write("bin_lower\tcount\n")
        for lower, count in histogram:
            f.write(f"{lower!r}\t{count}\n")

    print(f"SARI {report.sari:.2f}  ADD {report.add:.2f}  "
          f"DELETE {report.delete:.2f}  KEEP {report.keep:.2f}  (n={len(scores)})")
    return EXIT_OK


def cmd_report(args) -> int:
    rows = []
    for run_dir in args.run_dirs:
        path = os.path.join(run_dir, "report.json")
        if not os.path.exists(path):
            log.warning("skipping %s: no report.json", run_dir)
            continue
        with open(path, encoding="utf-8") as f:
            try:
                data = json.load(f)
            except (ValueError, RecursionError) as exc:  # not JSON, not UTF-8, or too deep
                raise ValueError(f"{path} is not JSON: {exc}") from exc
        scores = ("sari", "add", "delete", "keep")
        if not (isinstance(data, dict) and isinstance(data.get("label"), str)
                and all(type(data.get(k)) in (int, float) and 0 <= data[k] <= 100
                        for k in scores)):
            raise ValueError(f"{path} is not a JSON object with a string label and "
                             f"numbers {', '.join(scores)} in [0, 100]")
        rows.append((data["label"], *(data[k] for k in scores)))
    rows.sort(key=lambda r: -r[1])

    table = _results_table(rows, "Published results (static):", LITERATURE_ROWS)
    print(table)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with staged_write(os.path.join(args.out, "comparison.txt")) as f:
            f.write(table + "\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sentsimp", description="Sentence simplification toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="fine-tune a variant on a parallel corpus")
    p.add_argument("--config", help="key=value settings file")
    p.add_argument("--out", required=True, help="run/output directory")
    p.add_argument("--train-src", required=True)
    p.add_argument("--train-tgt", required=True)
    p.add_argument("--valid-stem", required=True,
                   help="stem of <stem>.src and <stem>.ref.N validation files")
    p.add_argument("--variant", choices=sorted(VARIANTS), default="bert")
    p.add_argument("--scale", choices=["paper", "toy"], default="toy")
    p.add_argument("--seed", type=int, default=TrainConfig.seed)
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p.add_argument("--batch-size", dest="batch_size", type=int, default=TrainConfig.batch_size)
    p.add_argument("--patience", type=int_or_none, default=TrainConfig.patience,
                   help="integer or 'none'")
    p.add_argument("--max-vocab", dest="max_vocab", type=int, default=2000)
    p.add_argument("--min-freq", dest="min_freq", type=int, default=1)
    p.add_argument("--base-lr", dest="base_lr", type=float, default=TrainConfig.base_lr)
    p.add_argument("--max-lr", dest="max_lr", type=float, default=TrainConfig.max_lr)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("simplify", help="decode an input file with a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--strategy", choices=STRATEGIES, default="greedy")
    p.add_argument("--beam-width", dest="beam_width", type=int, default=4)
    p.set_defaults(func=cmd_simplify)

    p = sub.add_parser("eval", help="score a system output file with SARI")
    p.add_argument("--system", required=True, help="system output, one sentence per line")
    p.add_argument("--eval-stem", dest="eval_stem", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--label", default=None)
    p.add_argument("--bins", type=int, default=20)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("report", help="tabulate eval results from run directories")
    p.add_argument("run_dirs", nargs="+")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse_args(argv)
        with np.errstate(all="ignore"):  # the finite checks report an overflow, in one line
            return args.func(args)
    except (OSError, ValueError) as exc:  # file-system errors; bad input, format errors too
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NonFiniteError, TrainingDivergedError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
