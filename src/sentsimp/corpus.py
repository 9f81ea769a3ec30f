"""Loaders and batchers for aligned sentence-pair corpora.

Corpus files are plain UTF-8 text, one sentence per line (LF or CRLF).
Evaluation sets follow the <stem>.src / <stem>.ref.0 ... naming scheme.
The records are frozen dataclasses with slots and no `__dict__`, smaller and
quicker to build, which counts when a corpus holds tens of thousands of
pairs.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass

import numpy as np

log = logging.getLogger(__name__)


class CorpusFormatError(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class ParallelExample:
    source: str
    target: str


@dataclass(frozen=True, slots=True)
class EvalExample:
    source: str
    references: tuple[str, ...]


@dataclass
class Batch:
    source_ids: np.ndarray        # int64 [B, Ls]
    source_pad_mask: np.ndarray   # bool  [B, Ls], True at real tokens
    target_in_ids: np.ndarray     # int64 [B, Lt]
    target_out_ids: np.ndarray    # int64 [B, Lt]


def _read_lines(path) -> list[str]:
    """A UTF-8 text file's lines, stripped of surrounding whitespace."""
    try:
        with open(path, encoding="utf-8") as f:
            return [line.strip() for line in f]
    except UnicodeDecodeError as exc:
        raise CorpusFormatError(f"{path} is not UTF-8 text: {exc}") from exc


def load_parallel(src_path, tgt_path) -> list[ParallelExample]:
    """Pair line i of src with line i of tgt; drop pairs with an empty side."""
    src_lines = _read_lines(src_path)
    tgt_lines = _read_lines(tgt_path)
    if len(src_lines) != len(tgt_lines):
        raise CorpusFormatError(
            f"line count mismatch: {src_path} has {len(src_lines)} lines, "
            f"{tgt_path} has {len(tgt_lines)}"
        )
    examples = [ParallelExample(s, t) for s, t in zip(src_lines, tgt_lines) if s and t]
    if len(examples) < len(src_lines):
        for i, (s, t) in enumerate(zip(src_lines, tgt_lines), start=1):
            if not s or not t:
                log.warning("dropping pair at line %d: empty %s side", i,
                            "source" if not s else "target")
    return examples


def load_eval(src_path, ref_paths) -> list[EvalExample]:
    """Read one source file and r reference files of identical length."""
    src_lines = _read_lines(src_path)
    refs = []
    for path in ref_paths:
        lines = _read_lines(path)
        if len(lines) != len(src_lines):
            raise CorpusFormatError(
                f"line count mismatch: {path} has {len(lines)} lines, "
                f"expected {len(src_lines)} (from {src_path})"
            )
        refs.append(lines)
    return [
        EvalExample(s, tuple(r[i] for r in refs))
        for i, s in enumerate(src_lines)
    ]


def find_eval_files(stem) -> tuple[str, list[str]]:
    """Resolve <stem>.src plus every consecutive <stem>.ref.N on disk."""
    src = f"{stem}.src"
    if not os.path.exists(src):
        raise FileNotFoundError(f"evaluation source file not found: {src}")
    refs = []
    while os.path.exists(f"{stem}.ref.{len(refs)}"):
        refs.append(f"{stem}.ref.{len(refs)}")
    if not refs:
        raise FileNotFoundError(f"no reference files matching {stem}.ref.0 ...")
    return src, refs


def make_batches(examples, batch_size: int, pad_id: int, max_len: int,
                 shuffle_seed: int | None = None) -> list[Batch]:
    """Group tokenized (source_ids, target_ids) pairs into padded batches.

    target_ids carry bos...eos; the batch stores the usual teacher-forcing
    split: target_in = ids[:-1], target_out = ids[1:]; causal attention hides their pads.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    examples = list(examples)
    for src, tgt in examples:
        if len(src) > max_len or len(tgt) > max_len:
            raise ValueError(f"sequence longer than max_len={max_len}")
    order = np.arange(len(examples))
    if shuffle_seed is not None:
        order = np.random.default_rng(shuffle_seed).permutation(len(examples))

    batches = []
    for start in range(0, len(examples), batch_size):
        chunk = [examples[i] for i in order[start:start + batch_size]]
        src_ids, src_mask = pad_block([s for s, _ in chunk], pad_id)
        tin_ids, _ = pad_block([t[:-1] for _, t in chunk], pad_id)
        tout_ids, _ = pad_block([t[1:] for _, t in chunk], pad_id)
        batches.append(Batch(src_ids, src_mask, tin_ids, tout_ids))
    return batches


def pad_block(seqs, pad_id) -> tuple[np.ndarray, np.ndarray]:
    """Rows right-padded with pad_id to the longest, which causal attention relies on: int64
    ids and a bool mask, True at tokens."""
    width = max(len(s) for s in seqs)
    ids = np.full((len(seqs), width), pad_id, dtype=np.int64)
    mask = np.zeros((len(seqs), width), dtype=bool)
    for i, s in enumerate(seqs):
        ids[i, : len(s)] = s
        mask[i, : len(s)] = True
    return ids, mask
