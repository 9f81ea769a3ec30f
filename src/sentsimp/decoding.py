"""Greedy and beam-search generation from a trained model.

`simplify` decodes one sentence with the configured strategy;
`greedy_decode_batch` decodes many sentences greedily in one padded batch.
The search cores `greedy_ids` and `beam_ids` work over a step function
mapping token-id prefixes to next-token logits, so they can be exercised
against hand-built distributions as well as real models. Ties always
resolve to the lowest token id.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Model, decoder_logits, encode_source
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


def _decode_cap(model: Model, cfg: DecodeConfig) -> int:
    """Generation cap: the decode limit, never beyond the model's positions."""
    return min(cfg.max_len, model.config.max_len)


def _model_step_fn(model: Model, vocab: Vocabulary, source: str, cfg: DecodeConfig):
    """Encode the source once; return prefixes -> next-token logits."""
    seq = encode(vocab, source, _decode_cap(model, cfg))
    src_ids = np.asarray([seq.ids], dtype=np.int64)
    src_mask = np.ones_like(src_ids, dtype=bool)
    enc_out = encode_source(model, src_ids, src_mask)

    def step(prefix: list[int]) -> np.ndarray:
        tgt = np.asarray([prefix], dtype=np.int64)
        logits = decoder_logits(model, enc_out, src_mask, tgt, np.ones_like(tgt, dtype=bool))
        return logits.data[0, -1]

    return step


def greedy_ids(step_fn, bos_id: int, eos_id: int, max_len: int) -> list[int]:
    """Argmax chain from bos until eos or the length cap."""
    ids = [bos_id]
    while len(ids) < max_len:
        nxt = int(np.argmax(step_fn(ids)))
        ids.append(nxt)
        if nxt == eos_id:
            break
    return ids


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max()
    return z - math.log(np.exp(z).sum())


def beam_ids(step_fn, bos_id: int, eos_id: int, max_len: int, beam_width: int) -> list[int]:
    """Beam search for the highest total log-probability; beams reaching eos are retired."""
    active: list[tuple[float, tuple[int, ...]]] = [(0.0, (bos_id,))]
    finished: list[tuple[float, tuple[int, ...]]] = []
    while active and len(active[0][1]) < max_len:
        candidates = []
        for score, ids in active:
            logp = _log_softmax(step_fn(list(ids)))
            top = np.argsort(-logp, kind="stable")[:beam_width]
            for tok in top:
                candidates.append((score + float(logp[tok]), ids + (int(tok),)))
        candidates.sort(key=lambda c: (-c[0], c[1]))
        active = []
        for score, ids in candidates:
            if len(active) == beam_width:
                break
            if ids[-1] == eos_id:
                finished.append((score, ids))
            else:
                active.append((score, ids))
    finished.extend(active)  # unfinished beams at the length cap still compete
    finished.sort(key=lambda e: (-e[0], e[1]))
    return list(finished[0][1])


def simplify(model: Model, vocab: Vocabulary, source: str, cfg: DecodeConfig) -> str:
    """Decode one sentence with cfg.strategy."""
    step = _model_step_fn(model, vocab, source, cfg)
    cap = _decode_cap(model, cfg)
    if cfg.strategy == "beam":
        ids = beam_ids(step, vocab.bos_id, vocab.eos_id, cap, cfg.beam_width)
    else:
        ids = greedy_ids(step, vocab.bos_id, vocab.eos_id, cap)
    return decode_ids(vocab, ids)


def greedy_decode_batch(model: Model, vocab: Vocabulary, sources: list[str],
                        cfg: DecodeConfig) -> list[str]:
    """Greedy decoding of many sentences in one padded batch.

    Produces exactly the per-sentence greedy output; padded source
    positions are masked out of cross-attention, and each row stops
    independently at its own eos.
    """
    if not sources:
        return []
    cap = _decode_cap(model, cfg)
    encoded = [encode(vocab, s, cap).ids for s in sources]
    width = max(len(ids) for ids in encoded)
    src_ids = np.full((len(sources), width), vocab.pad_id, dtype=np.int64)
    src_mask = np.zeros_like(src_ids, dtype=bool)
    for i, ids in enumerate(encoded):
        src_ids[i, : len(ids)] = ids
        src_mask[i, : len(ids)] = True
    enc_out = encode_source(model, src_ids, src_mask)

    prefixes = np.full((len(sources), 1), vocab.bos_id, dtype=np.int64)
    done = np.zeros(len(sources), dtype=bool)
    while prefixes.shape[1] < cap and not done.all():
        logits = decoder_logits(model, enc_out, src_mask, prefixes,
                                np.ones_like(prefixes, dtype=bool))
        nxt = np.argmax(logits.data[:, -1, :], axis=-1)
        nxt = np.where(done, vocab.eos_id, nxt)
        prefixes = np.concatenate([prefixes, nxt[:, None]], axis=1)
        done |= nxt == vocab.eos_id
    return [decode_ids(vocab, list(row)) for row in prefixes]
