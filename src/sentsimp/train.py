"""Teacher-forced training: AdamW, one-cycle LR, early stopping on SARI.

The checkpoint file is a small binary format: magic "SSCK", a version
integer, a length-prefixed key=value text block (config, vocabulary,
history), then one record per parameter tensor with its name, shape, and
little-endian float64 payload.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field, fields, asdict

import numpy as np

from . import tensor as T
from .corpus import Batch, EvalExample
from .model import (Model, ModelConfig, clone_params, forward, model_from_arrays,
                    param_shapes)
from .tokenizer import Vocabulary, SPECIALS
from .tensor import NonFiniteError

CHECKPOINT_MAGIC = b"SSCK"
CHECKPOINT_VERSION = 1


class TrainingDivergedError(ArithmeticError):
    pass


class CheckpointFormatError(ValueError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    base_lr: float = 1e-4
    max_lr: float = 1e-3
    epochs: int = 20
    batch_size: int = 8
    warmup_fraction: float = 0.1
    final_lr: float = 1e-6
    weight_decay: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps_adam: float = 1e-8
    patience: int | None = 3      # None disables early stopping
    clip_norm: float | None = 1.0
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.base_lr <= self.max_lr:
            raise ValueError("need 0 < base_lr <= max_lr")
        if not 0 < self.warmup_fraction < 1:
            raise ValueError("warmup_fraction must lie in (0, 1)")
        if self.patience is not None and self.patience < 1:
            raise ValueError("patience must be >= 1")


@dataclass
class OptState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
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
    config: ModelConfig
    vocab: Vocabulary
    params: dict[str, np.ndarray]
    history: TrainHistory


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
    span = total_steps - 1 - peak
    if span <= 0:
        return cfg.final_lr
    t = (step - peak) / span
    return cfg.final_lr + (cfg.max_lr - cfg.final_lr) * 0.5 * (1.0 + math.cos(math.pi * t))


def init_opt_state(model: Model) -> OptState:
    return OptState(
        m={name: np.zeros_like(p.data) for name, p in model.params.items()},
        v={name: np.zeros_like(p.data) for name, p in model.params.items()},
    )


def adamw_step(model: Model, state: OptState, lr: float, cfg: TrainConfig) -> None:
    """One decoupled-weight-decay Adam update over every parameter.

    Weight decay skips layer-norm gains and biases.
    """
    state.t += 1
    t = state.t
    bc1 = 1.0 - cfg.beta1 ** t
    bc2 = 1.0 - cfg.beta2 ** t
    for name, p in model.params.items():
        g = p.grad
        if g is None:
            raise ValueError(f"parameter {name} has no gradient")
        if g.shape != p.data.shape:
            raise ValueError(f"gradient shape {g.shape} != parameter shape {p.data.shape} for {name}")
        m = state.m[name]
        v = state.v[name]
        m *= cfg.beta1
        m += (1.0 - cfg.beta1) * g
        v *= cfg.beta2
        v += (1.0 - cfg.beta2) * g * g
        update = (m / bc1) / (np.sqrt(v / bc2) + cfg.eps_adam)
        p.data -= lr * update
        if name not in model.no_decay:
            p.data -= lr * cfg.weight_decay * p.data


def clip_gradients(model: Model, max_norm: float) -> float:
    total = 0.0
    for p in model.params.values():
        if p.grad is not None:
            total += float((p.grad * p.grad).sum())
    norm = math.sqrt(total)
    if norm > max_norm:
        factor = max_norm / norm
        for p in model.params.values():
            if p.grad is not None:
                p.grad = p.grad * factor
    return norm


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

    rng = np.random.default_rng(cfg.seed)
    state = init_opt_state(model)
    total_steps = cfg.epochs * len(train_batches)
    history = TrainHistory()
    best_sari = -math.inf
    best_params = clone_params(model)
    step = 0
    lr = cfg.base_lr

    for epoch in range(1, cfg.epochs + 1):
        losses = []
        for bi, batch in enumerate(train_batches):
            T.zero_grad(model.parameters())
            try:
                logits = forward(model, batch, train_mode=True, rng=rng)
                loss = T.cross_entropy(logits, batch.target_out_ids, ignore_id=vocab.pad_id)
            except NonFiniteError as exc:
                raise TrainingDivergedError(
                    f"non-finite loss at epoch {epoch}, batch {bi}"
                ) from exc
            T.backward(loss)
            if cfg.clip_norm is not None:
                clip_gradients(model, cfg.clip_norm)
            lr = onecycle_lr(step, total_steps, cfg)
            adamw_step(model, state, lr, cfg)
            step += 1
            losses.append(loss.item())

        valid_sari = score_fn(model)
        history.epochs.append(EpochRecord(epoch, sum(losses) / len(losses), valid_sari, lr))
        if valid_sari > best_sari:
            best_sari = valid_sari
            history.best_epoch = epoch
            best_params = clone_params(model)
        elif cfg.patience is not None and epoch - history.best_epoch >= cfg.patience:
            history.stopped_early = True
            break

    ckpt = Checkpoint(model.config, vocab, best_params, history)
    return ckpt, history


def history_tsv(history: TrainHistory) -> str:
    lines = ["epoch\tloss\tsari\tlr"]
    for rec in history.epochs:
        lines.append(f"{rec.epoch}\t{rec.train_loss!r}\t{rec.valid_sari!r}\t{rec.lr!r}")
    return "\n".join(lines) + "\n"


def _config_text(ckpt: Checkpoint) -> str:
    lines = []
    for key, value in asdict(ckpt.config).items():
        lines.append(f"config.{key}={value!r}")
    for i, tok in enumerate(ckpt.vocab.id_to_token):
        lines.append(f"vocab.{i}={tok}")
    h = ckpt.history
    lines.append(f"history.best_epoch={h.best_epoch}")
    lines.append(f"history.stopped_early={h.stopped_early}")
    for rec in h.epochs:
        lines.append(
            f"history.epoch.{rec.epoch}={rec.train_loss!r}\t{rec.valid_sari!r}\t{rec.lr!r}"
        )
    return "\n".join(lines)


def _parse_config_text(text: str) -> Checkpoint:
    import ast

    known = {f.name for f in fields(ModelConfig)}
    cfg_kwargs: dict = {}
    tokens: dict[int, str] = {}
    history = TrainHistory()
    for line in text.split("\n"):
        if not line:
            continue
        key, _, value = line.partition("=")
        if key.startswith("config."):
            field_name = key[len("config."):]
            if field_name not in known:
                raise CheckpointFormatError(f"unknown checkpoint config key {key!r}")
            try:
                cfg_kwargs[field_name] = ast.literal_eval(value)
            except (ValueError, SyntaxError) as exc:
                raise CheckpointFormatError(f"bad value for {key}: {value!r}") from exc
        elif key.startswith("vocab."):
            tokens[int(key[len("vocab."):])] = value
        elif key == "history.best_epoch":
            history.best_epoch = int(value)
        elif key == "history.stopped_early":
            history.stopped_early = value == "True"
        elif key.startswith("history.epoch."):
            epoch = int(key[len("history.epoch."):])
            loss, sari, lr = (ast.literal_eval(x) for x in value.split("\t"))
            history.epochs.append(EpochRecord(epoch, loss, sari, lr))
    if sorted(tokens) != list(range(len(tokens))):
        raise CheckpointFormatError("checkpoint vocabulary ids are not 0..n-1 without gaps")
    ordered = tuple(tokens[i] for i in range(len(tokens)))
    if ordered[:4] != SPECIALS:
        raise CheckpointFormatError("checkpoint vocabulary lacks the four specials")
    # Field annotations are the type names int, float and str.
    bad = [f.name for f in fields(ModelConfig) if type(cfg_kwargs.get(f.name)).__name__ != f.type]
    if bad:
        raise CheckpointFormatError(f"checkpoint config lacks or mistypes {bad}")
    vocab = Vocabulary({tok: i for i, tok in enumerate(ordered)}, ordered)
    return Checkpoint(ModelConfig(**cfg_kwargs), vocab, {}, history)


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    text = _config_text(ckpt).encode("utf-8")
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<I", CHECKPOINT_VERSION))
        f.write(struct.pack("<Q", len(text)))
        f.write(text)
        f.write(struct.pack("<I", len(ckpt.params)))
        for name, data in ckpt.params.items():
            nbytes = name.encode("utf-8")
            f.write(struct.pack("<I", len(nbytes)))
            f.write(nbytes)
            f.write(struct.pack("<I", data.ndim))
            f.write(struct.pack(f"<{data.ndim}Q", *data.shape))
            f.write(np.ascontiguousarray(data, dtype="<f8").tobytes())


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as f:
        raw = f.read()
    view = memoryview(raw)
    off = 0

    def take(n):
        nonlocal off
        if off + n > len(raw):
            raise CheckpointFormatError(f"truncated checkpoint file: {path}")
        chunk = view[off:off + n]
        off += n
        return chunk

    if bytes(take(4)) != CHECKPOINT_MAGIC:
        raise CheckpointFormatError(f"not a checkpoint file (bad magic): {path}")
    (version,) = struct.unpack("<I", take(4))
    if version != CHECKPOINT_VERSION:
        raise CheckpointFormatError(f"unsupported checkpoint version {version}")
    (text_len,) = struct.unpack("<Q", take(8))
    ckpt = _parse_config_text(bytes(take(text_len)).decode("utf-8"))
    (n_tensors,) = struct.unpack("<I", take(4))
    for _ in range(n_tensors):
        (name_len,) = struct.unpack("<I", take(4))
        name = bytes(take(name_len)).decode("utf-8")
        (rank,) = struct.unpack("<I", take(4))
        shape = struct.unpack(f"<{rank}Q", take(8 * rank))
        count = int(np.prod(shape, dtype=np.int64)) if rank else 1
        data = np.frombuffer(take(8 * count), dtype="<f8").reshape(shape).copy()
        ckpt.params[name] = data
    if off != len(raw):
        raise CheckpointFormatError(f"trailing bytes in checkpoint file: {path}")
    return ckpt


def model_from_checkpoint(ckpt: Checkpoint) -> Model:
    """A model over the checkpoint's arrays, which must be exactly the config's parameters."""
    shapes = param_shapes(ckpt.config)
    missing = sorted(set(shapes) - set(ckpt.params))
    extra = sorted(set(ckpt.params) - set(shapes))
    if missing or extra:
        raise CheckpointFormatError(
            f"checkpoint parameters do not match its config: missing {missing}, extra {extra}")
    for name, shape in shapes.items():
        if ckpt.params[name].shape != shape:
            raise CheckpointFormatError(
                f"parameter {name} has shape {ckpt.params[name].shape}, config needs {shape}")
    return model_from_arrays(ckpt.config, {name: ckpt.params[name] for name in shapes})
