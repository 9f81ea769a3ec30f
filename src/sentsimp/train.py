"""Teacher-forced training: AdamW, one-cycle LR, early stopping on SARI.

Training updates the model's payload in place. The optimiser keeps both
Adam moments, and a buffer for gradients, in three mappings of the
payload's layout, which it takes from the config (see `OptState`), and
updates the dense parameters in spans, a block at a time: each maximal run
of adjacent parameters smaller than one block is one contiguous run of the
payload, of both moments and of the gradient buffer, which the step copies
their gradients into; a larger parameter is a span of its own whose
gradient is read in place, so only the small parameters' part of the
buffer (1.3 MB at toy width) is ever touched, at any vocabulary. An
embedding table's gradient stays in the row form `backward` gives it
(`tensor.RowGrad`): the clip norm and the update read only the rows a
batch reached. Each block the update writes is checked finite right after
its weight decay, while it is in cache; there is no pass over the whole
payload. The best-epoch snapshot is one buffer the size of the payload,
written over at each improving epoch, and it is the checkpoint's.

The checkpoint file is the magic "SSCK", then a little-endian uint32
version (2) and uint64 header length, then a UTF-8 JSON header
{"config", "vocab", "history", "params": {name: shape}}, then each
parameter's little-endian float64 bytes in header order: the flat payload,
written in one call and loaded as one `np.frombuffer` that the parameters
are views of. The header is padded with spaces so the payload starts on a
64-byte boundary; an unpadded header loads too. Version 1 files are
rejected; retrain to get a version 2 checkpoint.
"""

from __future__ import annotations

import json
import math
import mmap
import os
import struct
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field, fields, asdict
from itertools import groupby, zip_longest
from typing import ClassVar, NamedTuple

import numpy as np

from . import tensor as T
from .corpus import Batch, EvalExample
from .model import Model, ModelConfig, forward, param_shapes, param_views
from .tokenizer import Vocabulary, SPECIALS
from .tensor import NonFiniteError

CHECKPOINT_MAGIC = b"SSCK"
CHECKPOINT_VERSION = 2
_PREFIX = struct.Struct("<4sIQ")  # magic, version, header length
_PAYLOAD_ALIGN = 64  # bytes; the header's trailing spaces pad the payload to this
_ADAMW_BLOCK = 1 << 15  # elements updated together, so a block's arrays stay in cache
_HEADER = {"config": dict, "vocab": list, "history": dict, "params": dict}  # key -> JSON type


class TrainingDivergedError(ArithmeticError):
    pass


class CheckpointFormatError(ValueError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    """The run-level settings. Every run shares one fixed recipe, the class constants:
    AdamW (betas 0.9 and 0.999, eps 1e-8, decoupled weight decay 0.01), gradients
    clipped to norm 1.0, and a one-cycle schedule that warms up over the first 10%
    of steps and decays to 1e-6."""
    base_lr: float = 1e-4
    max_lr: float = 1e-3
    epochs: int = 20
    batch_size: int = 8
    patience: int | None = 3      # None disables early stopping
    seed: int = 0

    warmup_fraction: ClassVar[float] = 0.1
    final_lr: ClassVar[float] = 1e-6
    weight_decay: ClassVar[float] = 0.01
    beta1: ClassVar[float] = 0.9
    beta2: ClassVar[float] = 0.999
    eps_adam: ClassVar[float] = 1e-8
    clip_norm: ClassVar[float] = 1.0

    def __post_init__(self):
        if not 0 < self.base_lr <= self.max_lr:
            raise ValueError("need 0 < base_lr <= max_lr")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.patience is not None and self.patience < 1:
            raise ValueError("patience must be >= 1")


class Span(NamedTuple):
    """Adjacent dense parameters that AdamW updates as one run of the payload."""
    at: slice                   # its entries of the payload and of each OptState arena
    names: tuple[str, ...]      # its parameters, in header order
    decayed: tuple[tuple[int, int], ...]  # its runs of decayed parameters, span offsets


@dataclass
class OptState:
    """AdamW's state over one model: both Adam moments (`m_arena`, `v_arena`) and a
    gradient buffer (`g_arena`) in the payload's layout, and the step count `t`. Each is
    an anonymous mapping advised off huge pages (`_zeros`), so its pages take memory
    only once written: a table's moment rows once they go live, 4 KB pages where a 2 MB
    huge page would be faulted in whole for one row, and of the gradient buffer only
    the spans of several parameters.

    `tables` maps each embedding table (`_emb`) to its views of both moment buffers and
    a live flag per row, set once a gradient row that is not all zero has reached it,
    so a pad id's row never goes live. A row whose flag is unset has had an all-zero
    gradient at every step, so its moments are +0.0 and the Adam step leaves it
    unchanged.

    `spans` covers every other parameter, in header order: a maximal run of adjacent
    parameters smaller than one block (`_ADAMW_BLOCK`) is one span, and a larger one is
    a span of its own. A span of several parameters copies their gradients into its
    run of `g_arena`; a span of one reads that parameter's gradient in place. Weight
    decay applies to all but the layer norms (`.ln`)."""
    m_arena: np.ndarray
    v_arena: np.ndarray
    g_arena: np.ndarray
    tables: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]]
    spans: list[Span]
    t: int = 0


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    valid_sari: float
    lr: float


@dataclass
class TrainHistory:
    epochs: list[EpochRecord] = field(default_factory=list)
    best_epoch: int = 0
    stopped_early: bool = False


@dataclass
class Checkpoint:
    """A model's config, vocabulary and history, and every parameter's float64 values in
    one flat `payload`, in `param_shapes(config)` order."""
    config: ModelConfig
    vocab: Vocabulary
    payload: np.ndarray
    history: TrainHistory


def schedule_steps(cfg: TrainConfig, n_batches: int) -> int:
    """The run's optimiser steps, `cfg.epochs` passes over `n_batches`; ValueError when
    there are fewer than the 2 that the one-cycle schedule needs."""
    steps = cfg.epochs * n_batches
    if steps < 2:
        raise ValueError(f"{cfg.epochs} epoch(s) of {n_batches} batch(es) make {steps} "
                         f"step(s); the one-cycle schedule needs at least 2")
    return steps


def onecycle_lr(step: int, total_steps: int, cfg: TrainConfig) -> float:
    """Linear warmup base_lr -> max_lr, then cosine decay to final_lr."""
    if total_steps < 2:
        raise ValueError("one-cycle schedule needs at least 2 steps")
    if not 0 <= step < total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps})")
    peak = max(1, math.floor(cfg.warmup_fraction * total_steps))
    if step == peak:
        return cfg.max_lr
    if step < peak:
        return cfg.base_lr + (cfg.max_lr - cfg.base_lr) * (step / peak)
    t = (step - peak) / (total_steps - 1 - peak)
    return cfg.final_lr + (cfg.max_lr - cfg.final_lr) * 0.5 * (1.0 + math.cos(math.pi * t))


def _zeros(n: int) -> np.ndarray:
    """n float64 zeros in an anonymous mapping kept off huge pages, where mmap can say so:
    numpy advises huge pages for arrays of 4 MB or more, and under them one row written
    into a table's span faults in 2 MB, where here it costs its 4 KB pages."""
    buffer = mmap.mmap(-1, 8 * n)
    if hasattr(mmap, "MADV_NOHUGEPAGE"):
        buffer.madvise(mmap.MADV_NOHUGEPAGE)
    return np.frombuffer(buffer, np.float64)


def init_opt_state(model: Model) -> OptState:
    """Zero both moments and the gradient buffer in the payload's layout, with no table
    row live, and lay out the spans. Each is a fresh mapping (`_zeros`), so the moments
    of table rows that never go live cost no memory, nor does the gradient buffer
    outside the spans of several parameters, the only ones a step copies into."""
    shapes = param_shapes(model.config)
    m_arena, v_arena, g_arena = (_zeros(model.payload.size) for _ in range(3))
    ms, vs = param_views(m_arena, shapes), param_views(v_arena, shapes)
    tables = {n: (ms[n], vs[n], np.zeros(s[0], dtype=bool))
              for n, s in shapes.items() if n.endswith("_emb")}
    layout, offset = [], 0  # (name, start, end) in the payload
    for name, shape in shapes.items():
        layout.append((name, offset, offset + math.prod(shape)))
        offset += math.prod(shape)

    def kind(entry):  # tables; runs of small parameters; each large one on its own
        name, lo, hi = entry
        return "table" if name in tables else "small" if hi - lo < _ADAMW_BLOCK else name

    spans = []
    for group in (list(g) for k, g in groupby(layout, kind) if k != "table"):
        lo, hi = group[0][1], group[-1][2]
        runs = [list(r) for decays, r in groupby(group, lambda e: ".ln" not in e[0]) if decays]
        decayed = tuple((r[0][1] - lo, r[-1][2] - lo) for r in runs)
        spans.append(Span(slice(lo, hi), tuple(n for n, _, _ in group), decayed))
    return OptState(m_arena, v_arena, g_arena, tables, spans)


def _finite(block: np.ndarray) -> None:
    if not np.isfinite(block).all():
        raise NonFiniteError("non-finite update")


def _adam(p, g, m, v, lr: float, t: int, cfg: TrainConfig, factor: float, decay: float,
          decayed: tuple[tuple[int, int], ...]) -> None:
    """The AdamW recurrence on gradient g * factor, in place over the flat arrays p, m
    and v, a block at a time in two block-sized buffers; g is only read. The decay of the
    updated value follows on the entries of p in the `decayed` ranges, and then every
    value the block wrote is checked finite (NonFiniteError), while it is in cache. Every
    operation is elementwise, so neither blocking nor spans change a byte."""
    bc1 = 1.0 - cfg.beta1 ** t
    bc2 = 1.0 - cfg.beta2 ** t
    size = min(_ADAMW_BLOCK, p.size)
    tmp_buffer, update_buffer = np.empty(size), np.empty(size)
    for lo in range(0, p.size, _ADAMW_BLOCK):
        hi = lo + _ADAMW_BLOCK
        pb, gb, mb, vb = p[lo:hi], g[lo:hi], m[lo:hi], v[lo:hi]
        tmp, update = tmp_buffer[:pb.size], update_buffer[:pb.size]
        if factor != 1.0:
            gb = np.multiply(gb, factor, out=update)  # last read before the update is formed
        np.multiply(gb, 1.0 - cfg.beta1, out=tmp)
        mb *= cfg.beta1
        mb += tmp
        np.multiply(gb, 1.0 - cfg.beta2, out=tmp)
        tmp *= gb
        vb *= cfg.beta2
        vb += tmp
        np.divide(vb, bc2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += cfg.eps_adam
        np.divide(mb, bc1, out=update)
        update /= tmp
        update *= lr
        pb -= update
        for a, b in decayed:
            if a >= hi:
                break
            if b > lo:
                part = slice(max(a, lo) - lo, min(b, hi) - lo)
                np.multiply(pb[part], decay, out=tmp[part])
                pb[part] -= tmp[part]
        _finite(pb)  # after the decay, which can overflow too: at lr 1e200 it scales by 1e198


def adamw_step(model: Model, state: OptState, lr: float, cfg: TrainConfig,
               factor: float = 1.0) -> None:
    """One decoupled-weight-decay Adam update of every parameter in place in the
    payload, on the gradients scaled by `factor` (the clip from `clip_gradients`; no
    gradient array is written, since parameters can share one): the Adam step, then the
    decay of the updated value. Weight decay skips layer-norm gains and biases (never by
    a multiply by 0.0, which would turn a -0.0 parameter into +0.0).

    Each span (see OptState) is one run of `_adam`: the gradients of a span of several
    parameters are first copied into its run of `g_arena`, never aliased. On an
    embedding table the Adam step runs on the live rows only, gathered and scattered
    back, and every row then gets the decay: for a row that is not live the full
    arithmetic would subtract +0.0, so the bytes are those of the dense update. A
    table's gradient is read as its RowGrad, never densified; a dense one, as a caller
    may assign, is first cut to its nonzero rows.

    Each block is checked finite once written (NonFiniteError), which leaves the
    payload partly updated; nothing is written before every gradient is checked present
    and of its parameter's shape (ValueError).
    """
    grads = {}
    for name, p in model.params.items():
        g = p.stored_grad
        if g is None:
            raise ValueError(f"parameter {name} has no gradient")
        if g.shape != p.data.shape:
            raise ValueError(f"gradient shape {g.shape} != parameter shape {p.data.shape} for {name}")
        grads[name] = g
    state.t += 1
    decay = lr * cfg.weight_decay
    for at, names, decayed in state.spans:
        if len(names) == 1:
            g = grads[names[0]].reshape(-1)
        else:
            g = np.concatenate([grads[n] for n in names], axis=None, out=state.g_arena[at])
        _adam(model.payload[at], g, state.m_arena[at], state.v_arena[at], lr, state.t, cfg,
              factor, decay, decayed)
    for name, (m, v, live) in state.tables.items():
        p, g = model.params[name].data, grads[name]
        if not isinstance(g, T.RowGrad):
            ids = np.flatnonzero((g != 0).any(axis=1))
            g = T.RowGrad(ids, g[ids], g.shape)
        reached = (g.rows != 0).any(axis=1)  # a pad id's row is all zero: it stays unset
        live[g.ids[reached]] = True
        rows = np.flatnonzero(live)
        gr = np.zeros((rows.size, p.shape[1]))
        gr[np.searchsorted(rows, g.ids[reached])] = g.rows[reached]
        pr, mr, vr = p[rows], m[rows], v[rows]
        _adam(pr.reshape(-1), gr.reshape(-1), mr.reshape(-1), vr.reshape(-1), lr,
              state.t, cfg, factor, decay, ())
        p[rows], m[rows], v[rows] = pr, mr, vr
        flat = p.reshape(-1)
        for lo in range(0, flat.size, _ADAMW_BLOCK):
            pb = flat[lo:lo + _ADAMW_BLOCK]
            pb -= pb * decay
            _finite(pb)


def clip_gradients(model: Model) -> float:
    """The global gradient norm, before clipping. Clipping to `clip_norm` scales every
    gradient by clip_norm / norm when the norm is larger; `adamw_step` applies that
    factor as it reads each gradient, so no gradient is written here. A table's RowGrad
    adds only its stored rows, one `np.vdot` as for any other parameter: the rows left
    out are whole rows of zeros."""
    total = 0.0
    for p in model.params.values():
        g = p.stored_grad
        if g is not None:
            g = g.rows if isinstance(g, T.RowGrad) else g
            total += float(np.vdot(g, g))
    return math.sqrt(total)


def default_valid_scorer(vocab: Vocabulary, valid: list[EvalExample]):
    """Greedy-decode the validation sources and return corpus SARI."""
    from .decoding import DecodeConfig, greedy_decode_batch
    from .sari import sari_corpus

    sources = [e.source for e in valid]

    def score(model: Model) -> float:
        outputs = greedy_decode_batch(model, vocab, sources, DecodeConfig())
        report, _ = sari_corpus(
            (e.source, out, list(e.references)) for e, out in zip(valid, outputs)
        )
        return report.sari

    return score


def train_loop(model: Model, train_batches: list[Batch], valid: list[EvalExample],
               cfg: TrainConfig, vocab: Vocabulary,
               score_fn=None) -> tuple[Checkpoint, TrainHistory]:
    """Run the full fine-tuning loop and return the best-SARI checkpoint."""
    if not train_batches:
        raise ValueError("no training batches")
    if score_fn is None:
        if not valid:
            raise ValueError("no validation examples")
        score_fn = default_valid_scorer(vocab, valid)

    total_steps = schedule_steps(cfg, len(train_batches))
    if vocab.size != model.config.vocab_size:
        raise ValueError(f"training vocabulary has {vocab.size} tokens, the model config's "
                         f"vocab_size is {model.config.vocab_size}")
    rng = np.random.default_rng(cfg.seed)
    state = init_opt_state(model)
    history = TrainHistory()
    best_sari = -math.inf
    best = None
    step = 0
    lr = cfg.base_lr

    T.zero_grad(model.parameters())
    for epoch in range(1, cfg.epochs + 1):
        losses = []
        for bi, batch in enumerate(train_batches):
            try:
                loss = forward(model, batch, rng=rng, ignore_id=vocab.pad_id)
            except NonFiniteError as exc:
                raise TrainingDivergedError(
                    f"non-finite loss at epoch {epoch}, batch {bi}"
                ) from exc
            T.backward(loss)
            losses.append(loss.item())
            del loss  # the graph, freed before the update and the next forward
            norm = clip_gradients(model)
            if not math.isfinite(norm):  # the update would write it into the payload
                raise TrainingDivergedError(
                    f"non-finite gradient norm {norm} at epoch {epoch}, batch {bi}")
            factor = cfg.clip_norm / norm if norm > cfg.clip_norm else 1.0
            lr = onecycle_lr(step, total_steps, cfg)
            try:
                adamw_step(model, state, lr, cfg, factor)
            except NonFiniteError as exc:  # a finite norm's update can overflow
                raise TrainingDivergedError(
                    f"non-finite update at epoch {epoch}, batch {bi}") from exc
            T.zero_grad(model.parameters())  # no gradient lives through validation
            step += 1

        valid_sari = score_fn(model)
        history.epochs.append(EpochRecord(epoch, sum(losses) / len(losses), valid_sari, lr))
        if best is None or valid_sari > best_sari:
            best_sari = valid_sari
            history.best_epoch = epoch
            if best is None:
                best = np.empty_like(model.payload)
            np.copyto(best, model.payload)
        elif cfg.patience is not None and epoch - history.best_epoch >= cfg.patience:
            history.stopped_early = True
            break

    ckpt = Checkpoint(model.config, vocab, best, history)
    return ckpt, history


def history_tsv(history: TrainHistory) -> str:
    lines = ["epoch\tloss\tsari\tlr"]
    for rec in history.epochs:
        lines.append(f"{rec.epoch}\t{rec.train_loss!r}\t{rec.valid_sari!r}\t{rec.lr!r}")
    return "\n".join(lines) + "\n"


@contextmanager
def staged_write(path, mode: str = "w"):
    """A file opened beside `path` (UTF-8 text, or binary for mode "wb") that takes the
    place of `path` when the block ends cleanly and is removed when it raises, so `path`
    holds either its old contents or the complete new ones.

    The old file is unlinked before the rename, never truncated or renamed over: a
    process that has it mapped keeps its inode, and ext4 starts no write-out of the
    new file as it does on a rename over an existing one. `path` is missing between
    the two calls. Nothing is fsynced."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as f:
            yield f
        with suppress(FileNotFoundError):
            os.remove(path)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _declared_shapes(config: ModelConfig, n_tokens: int, params: dict | None = None) -> dict:
    """`param_shapes(config)`, if the vocabulary has `config.vocab_size` tokens and `params`
    (name -> shape tuple), when given, equals it in order; else CheckpointFormatError. Load
    and save use it."""
    if n_tokens != config.vocab_size:
        raise CheckpointFormatError(f"checkpoint vocabulary has {n_tokens} tokens, "
                                    f"its config's vocab_size is {config.vocab_size}")
    shapes = param_shapes(config)
    if params is not None and list(params.items()) != list(shapes.items()):
        got, need = next((g, n) for g, n in zip_longest(params.items(), shapes.items())
                         if g != n)
        raise CheckpointFormatError(f"checkpoint params do not match its config: checkpoint "
                                    f"has {json.dumps(got)}, config needs {json.dumps(need)}")
    return shapes


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Write `ckpt` through `staged_write`, its payload in one call. The payload must hold
    exactly the values of the params its config declares, and the vocabulary its size, as
    `load_checkpoint` demands, and the vocabulary distinct tokens led by the specials; a
    mismatch raises CheckpointFormatError before the file is opened."""
    vocab = ckpt.vocab
    if len(vocab.token_to_id) != vocab.size or vocab.id_to_token[:4] != SPECIALS:
        raise CheckpointFormatError("checkpoint vocabulary is not distinct tokens led by the "
                                    "specials")
    shapes = _declared_shapes(ckpt.config, vocab.size)
    count = sum(math.prod(s) for s in shapes.values())
    if ckpt.payload.shape != (count,):
        raise CheckpointFormatError(f"checkpoint payload has shape {ckpt.payload.shape}, "
                                    f"its config's params need ({count},)")
    header = json.dumps({
        "config": asdict(ckpt.config),
        "vocab": list(vocab.id_to_token),
        # As asdict would give it, at a fiftieth of the cost over a 20-epoch history.
        "history": {**vars(ckpt.history), "epochs": [vars(r) for r in ckpt.history.epochs]},
        "params": shapes,
    }).encode("utf-8")
    header += b" " * (-(_PREFIX.size + len(header)) % _PAYLOAD_ALIGN)
    with staged_write(path, "wb") as f:
        f.write(_PREFIX.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, len(header)))
        f.write(header)
        f.write(np.ascontiguousarray(ckpt.payload, dtype="<f8"))


def _parse_header(raw: bytes) -> tuple[Checkpoint, dict[str, tuple[int, ...]]]:
    """The checkpoint the header describes, its payload empty, and the params' shapes: the
    header must declare exactly the parameters and vocabulary size of its config."""
    try:
        header = json.loads(raw)
    except (ValueError, RecursionError) as exc:
        raise CheckpointFormatError(f"checkpoint header is not JSON: {exc}") from exc
    if not (isinstance(header, dict) and header.keys() == _HEADER.keys()
            and all(isinstance(header[k], t) for k, t in _HEADER.items())):
        raise CheckpointFormatError("checkpoint header must hold exactly " + ", ".join(
            f"{k} ({t.__name__})" for k, t in _HEADER.items()))
    cfg = header["config"]
    # Field annotations are the type names int, float and str.
    types = {f.name: f.type for f in fields(ModelConfig)}
    bad = sorted(k for k in types.keys() | cfg.keys() if type(cfg.get(k)).__name__ != types.get(k))
    if bad:
        raise CheckpointFormatError(f"checkpoint config has unknown, missing or mistyped {bad}")
    try:
        config = ModelConfig(**cfg)
    except ValueError as exc:
        raise CheckpointFormatError(f"bad checkpoint config: {exc}") from exc
    tokens = header["vocab"]
    if set(map(type, tokens)) != {str} or tuple(tokens[:4]) != SPECIALS:
        raise CheckpointFormatError("checkpoint vocabulary is not strings led by the specials")
    token_to_id = dict(zip(tokens, range(len(tokens))))
    if len(token_to_id) != len(tokens):
        repeated = sorted({t for i, t in enumerate(tokens) if token_to_id[t] != i})
        raise CheckpointFormatError(f"checkpoint vocabulary repeats tokens {repeated}")
    # Only a list of JSON integers becomes a shape tuple, so a dimension of true or 64.0
    # never passes as 1 or 64.
    params = {name: tuple(s) if type(s) is list and all(type(d) is int for d in s) else s
              for name, s in header["params"].items()}
    shapes = _declared_shapes(config, len(tokens), params)
    h = header["history"]
    try:
        history = TrainHistory(**{**h, "epochs": [EpochRecord(**r) for r in h["epochs"]]})
    except (TypeError, KeyError) as exc:
        raise CheckpointFormatError(f"bad checkpoint history: {exc!r}") from exc
    return (Checkpoint(config, Vocabulary(token_to_id, tuple(tokens)), np.empty(0), history),
            shapes)


def load_checkpoint(path) -> Checkpoint:
    """The checkpoint at `path`, its payload one view of a private mapping of the file.

    Every check runs before the file is mapped. No payload byte is copied or read until
    a tensor is used, and writes to a tensor stay in this process. A payload whose bytes
    are not 8-byte aligned (a header saved without padding) is copied once."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        prefix = f.read(_PREFIX.size)
        if len(prefix) < _PREFIX.size or prefix[:4] != CHECKPOINT_MAGIC:
            raise CheckpointFormatError(f"not a checkpoint file (short or bad magic): {path}")
        _, version, header_len = _PREFIX.unpack(prefix)
        if version != CHECKPOINT_VERSION:
            raise CheckpointFormatError(f"unsupported checkpoint version {version}")
        # Sizes are checked against the file before anything is read or mapped.
        if header_len > size - _PREFIX.size:
            raise CheckpointFormatError(f"truncated checkpoint file: {path}")
        ckpt, shapes = _parse_header(f.read(header_len))
        offset = _PREFIX.size + header_len
        count = sum(math.prod(s) for s in shapes.values())
        expected = offset + 8 * count
        if size != expected:
            problem = "truncated" if size < expected else "trailing bytes in"
            raise CheckpointFormatError(f"{problem} checkpoint file: {path}")
        mapped = mmap.mmap(f.fileno(), size, access=mmap.ACCESS_COPY)
    ckpt.payload = np.require(np.frombuffer(mapped, "<f8", count, offset), requirements="A")
    return ckpt


def model_from_checkpoint(ckpt: Checkpoint) -> Model:
    """A model over the checkpoint's payload, which `load_checkpoint` has checked against
    its config."""
    return Model(ckpt.config, ckpt.payload)
