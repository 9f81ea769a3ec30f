"""Greedy and beam-search generation from a trained model.

`simplify` decodes one sentence with the configured strategy;
`greedy_decode_batch` decodes many sentences greedily in one padded batch.
Both encode once, then feed each step's new tokens alone through a
`DecoderCache`, over an untracked wrap of the model's payload so no autodiff
tape is recorded. A decoded prefix holds no pads: a step's token sees every cached one.
The search cores `greedy_ids` and `beam_ids` map a step's live prefixes to
next-token logits [rows, V] with one call, so they can be exercised against
hand-built distributions as well as real models. Ties resolve to the lowest id.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corpus import pad_block
from .model import DecoderCache, Model, decoder_logits, encode_source
from .tokenizer import Vocabulary, decode as decode_ids, encode

STRATEGIES = ("greedy", "beam")


@dataclass(frozen=True)
class DecodeConfig:
    max_len: int = 80
    strategy: str = "greedy"
    beam_width: int = 4

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown decoding strategy {self.strategy!r}; "
                             f"choose from {list(STRATEGIES)}")
        if self.beam_width < 1:
            raise ValueError("beam_width must be >= 1")
        if self.max_len < 3:
            raise ValueError("max_len must be >= 3")


def _cached_step(model: Model, vocab: Vocabulary, sources: list[str], cfg: DecodeConfig):
    """Encode the sources, each cut to the model's positions, as one padded batch; return
    the step over them and the output length cap, which never exceeds the model's
    positions. After the first call, each prefix extends by one token the prefix of row
    rows[i] (row i if rows is None) of the last call."""
    cap = min(cfg.max_len, model.config.max_len)
    model = Model(model.config, model.payload, requires_grad=False)
    src_ids, src_mask = pad_block([encode(vocab, s, model.config.max_len).ids for s in sources],
                                  vocab.pad_id)
    enc_out = encode_source(model, src_ids, src_mask)
    cache = DecoderCache()

    def step(prefixes, rows) -> np.ndarray:
        if rows is not None:
            cache.select(np.asarray(rows, dtype=np.int64))
        tgt = np.asarray([p[-1:] for p in prefixes], dtype=np.int64)
        return decoder_logits(model, enc_out, src_mask, tgt, cache=cache).data[:, -1]

    return step, cap


def _greedy_rows(step_fn, n_rows: int, bos_id: int, eos_id: int, max_len: int) -> list[list[int]]:
    """Argmax chains from bos, each until its eos or the length cap; finished rows drop out."""
    prefixes = [[bos_id] for _ in range(n_rows)]
    live, rows = list(range(n_rows)), None
    while live and len(prefixes[live[0]]) < max_len:
        nxt = np.argmax(step_fn([prefixes[i] for i in live], rows), axis=-1)
        for i, tok in zip(live, nxt):
            prefixes[i].append(int(tok))
        kept = [r for r, tok in enumerate(nxt) if tok != eos_id]
        rows = None if len(kept) == len(live) else kept  # no gather while every row continues
        live = [live[r] for r in kept]
    return prefixes


def greedy_ids(step_fn, bos_id: int, eos_id: int, max_len: int) -> list[int]:
    """Argmax chain from bos until eos or the length cap."""
    return _greedy_rows(step_fn, 1, bos_id, eos_id, max_len)[0]


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max()
    return z - math.log(np.exp(z).sum())


def _top_k(logp: np.ndarray, k: int) -> np.ndarray:
    """Ids of the k highest entries, highest first and ties in id order: the first k of
    a stable descending sort, found by sorting only the entries at or above the k-th."""
    if k >= logp.size:
        return np.argsort(-logp, kind="stable")
    kth = logp[np.argpartition(logp, -k)[-k]]
    at_least = np.flatnonzero(logp >= kth)
    return at_least[np.argsort(-logp[at_least], kind="stable")[:k]]


def beam_ids(step_fn, bos_id: int, eos_id: int, max_len: int, beam_width: int) -> list[int]:
    """Beam search for the highest total log-probability; beams reaching eos are retired,
    and the search ends once a retired beam beats every live one."""
    active: list[tuple[float, tuple[int, ...]]] = [(0.0, (bos_id,))]
    finished: list[tuple[float, tuple[int, ...]]] = []
    rows = None  # each live beam's parent row in the previous step
    while active and len(active[0][1]) < max_len:
        if finished and max(score for score, _ in finished) > active[0][0]:
            break  # log-probabilities are <= 0, so no live beam can still win
        candidates = []
        logits = step_fn([ids for _, ids in active], rows)
        for row, ((score, ids), row_logits) in enumerate(zip(active, logits)):
            logp = _log_softmax(row_logits)
            for tok in _top_k(logp, beam_width):
                candidates.append((score + float(logp[tok]), ids + (int(tok),), row))
        candidates.sort(key=lambda c: (-c[0], c[1]))
        active, rows = [], []
        for score, ids, row in candidates:
            if len(active) == beam_width:
                break
            if ids[-1] == eos_id:
                finished.append((score, ids))
            else:
                active.append((score, ids))
                rows.append(row)
    finished.extend(active)  # unfinished beams at the length cap still compete
    finished.sort(key=lambda e: (-e[0], e[1]))
    return list(finished[0][1])


def simplify(model: Model, vocab: Vocabulary, source: str, cfg: DecodeConfig) -> str:
    """Decode one sentence with cfg.strategy."""
    step, cap = _cached_step(model, vocab, [source], cfg)
    if cfg.strategy == "beam":
        ids = beam_ids(step, vocab.bos_id, vocab.eos_id, cap, cfg.beam_width)
    else:
        ids = greedy_ids(step, vocab.bos_id, vocab.eos_id, cap)
    return decode_ids(vocab, ids)


def greedy_decode_batch(model: Model, vocab: Vocabulary, sources: list[str],
                        cfg: DecodeConfig) -> list[str]:
    """Greedy decoding of many sentences in one padded batch: exactly the per-sentence
    output, with padded source positions masked out and each row leaving at its eos."""
    if not sources:
        return []
    step, cap = _cached_step(model, vocab, sources, cfg)
    return [decode_ids(vocab, ids)
            for ids in _greedy_rows(step, len(sources), vocab.bos_id, vocab.eos_id, cap)]
