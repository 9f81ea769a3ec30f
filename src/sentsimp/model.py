"""Encoder-decoder transformer under the paper's four variant names.

There are two wirings. The encoder self-attends bidirectionally
(BERT-style, `bert`) or causally (GPT-2-style, `gpt2`); the decoder is
always causal self-attention plus cross-attention over the encoder output,
so `bert+gpt2` and `gpt2+bert` are aliases of `bert` and `gpt2`. At paper
scale the vocabulary size follows the encoder side. Residual +
post-layer-norm around every sublayer. Sequences are right-padded
(`corpus.pad_block`), so causal attention masks by position alone: no real
position sees a pad, and nothing reads a pad position's output (the loss
ignores it; cross-attention and the `bert` encoder mask source pads).

A model's parameters live in one flat float64 payload in `param_shapes`
order, the checkpoint header's; each parameter tensor is a view of it.
`init_model` fills a new payload and a checkpoint's payload is wrapped as
it is, so training, the optimiser and the checkpoint all work on one array.

Training runs the decoder's layer loop over the whole target prefix and
hands its last hidden state, with the output projection's weight and bias,
to the vocabulary-chunked `cross_entropy`, so it never builds [B, Lt, V]
logits. Decoding runs the same loop incrementally, feeding only new tokens
with a cache, and projects them with `decoder_logits`. Dropout runs exactly in a
pass given an `rng`: `train_loop` passes its seeded one, and decoding and
evaluation pass none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .corpus import Batch
from .tensor import Tensor

BIDIRECTIONAL = "bidirectional"
CAUSAL = "causal"

BERT_VOCAB = 30522
GPT2_VOCAB = 50257

INIT_STD = 0.02


@dataclass(frozen=True)
class ModelConfig:
    d_model: int
    n_heads: int
    n_layers: int
    d_ff: int
    vocab_size: int
    max_len: int = 80
    encoder_masking: str = BIDIRECTIONAL
    dropout_rate: float = 0.0

    def __post_init__(self):
        for name in ("d_model", "n_heads", "n_layers", "d_ff", "vocab_size"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.d_model % self.n_heads != 0:
            raise ValueError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if self.max_len < 3:
            raise ValueError("max_len must be >= 3")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must lie in [0, 1)")
        if self.encoder_masking not in (BIDIRECTIONAL, CAUSAL):
            raise ValueError(f"unknown encoder masking {self.encoder_masking!r}")


# Paper name -> the wiring it runs. The decoder is the same for every name,
# so each combined name is an alias of the wiring its encoder side names.
VARIANTS = {"bert": "bert", "gpt2": "gpt2", "bert+gpt2": "bert", "gpt2+bert": "gpt2"}
# Wiring -> (encoder self-attention masking, paper-scale vocabulary size).
_WIRINGS = {"bert": (BIDIRECTIONAL, BERT_VOCAB), "gpt2": (CAUSAL, GPT2_VOCAB)}

_PAPER = dict(d_model=768, n_heads=12, n_layers=12, d_ff=3072, max_len=80, dropout_rate=0.1)
_TOY = dict(d_model=64, n_heads=2, n_layers=2, d_ff=128, max_len=80, dropout_rate=0.0)


def variant_config(name: str, scale: str, vocab_size: int | None = None) -> ModelConfig:
    """Preset hyperparameters for a named variant at paper or toy scale.

    Toy scale uses a corpus-built shared vocabulary, so vocab_size must be
    given; paper scale defaults to the encoder side's vocabulary size.
    """
    if name not in VARIANTS:
        raise ValueError(f"unknown variant {name!r}; choose from {sorted(VARIANTS)}")
    masking, paper_vocab = _WIRINGS[VARIANTS[name]]
    if scale == "paper":
        base = _PAPER
        vocab = vocab_size if vocab_size is not None else paper_vocab
    elif scale == "toy":
        base = _TOY
        if vocab_size is None:
            raise ValueError("toy scale needs a vocab_size built from the corpus")
        vocab = vocab_size
    else:
        raise ValueError(f"unknown scale {scale!r}; choose 'paper' or 'toy'")
    return ModelConfig(vocab_size=vocab, encoder_masking=masking, **base)


class Model:
    """A config, one contiguous float64 `payload` holding every parameter in
    `param_shapes(config)` order, and `params`: name -> a Tensor over that parameter's
    view of the payload. Writing a tensor's data writes the payload, so training updates
    the payload in place and a checkpoint saves it as it stands. `requires_grad` is False
    for decoding's untracked wrap of a trained payload."""

    def __init__(self, config: ModelConfig, payload: np.ndarray, requires_grad: bool = True):
        shapes = param_shapes(config)
        count = sum(math.prod(s) for s in shapes.values())
        # Tensor would copy any other array silently, and train a copy the payload lacks.
        if not (isinstance(payload, np.ndarray) and payload.dtype == np.float64
                and payload.shape == (count,) and payload.flags["C_CONTIGUOUS"]):
            raise ValueError(f"model payload must be a C-contiguous float64 array of shape "
                             f"({count},), its config's parameter count")
        self.config = config
        self.payload = payload
        self.params = {name: Tensor(view, requires_grad)
                       for name, view in param_views(payload, shapes).items()}

    def parameters(self) -> list[Tensor]:
        return list(self.params.values())

    def __deepcopy__(self, memo) -> Model:
        """The same model over a copy of the payload (copying each tensor instead would
        leave the copy's tensors outside its payload)."""
        return Model(self.config, self.payload.copy(), self.params["out.b"].requires_grad)


class DecoderCache:
    """Keys and values per decoder attention sublayer for the rows being decoded: cross
    ones projected once, self ones grown each call by copying, which cuts the autodiff
    tape, so use it only over an untracked model (`requires_grad=False`)."""

    def __init__(self):
        self.length = 0
        self.kv: dict[str, tuple[Tensor, Tensor]] = {}
        self.cross_mask = None

    def append(self, name: str, k: Tensor, v: Tensor) -> tuple[Tensor, Tensor]:
        if name in self.kv:
            k, v = (Tensor(np.concatenate([old.data, new.data], axis=2))
                    for old, new in zip(self.kv[name], (k, v)))
        self.kv[name] = (k, v)
        return k, v

    def select(self, rows: np.ndarray) -> None:
        """Keep the given rows in the given order: beam parents, unfinished rows."""
        self.kv = {name: (Tensor(k.data[rows]), Tensor(v.data[rows]))
                   for name, (k, v) in self.kv.items()}
        self.cross_mask = self.cross_mask[rows]


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape for every parameter, in creation order."""
    d, ff, v, L = config.d_model, config.d_ff, config.vocab_size, config.max_len
    shapes: dict[str, tuple[int, ...]] = {
        "enc.tok_emb": (v, d),
        "enc.pos_emb": (L, d),
        "dec.tok_emb": (v, d),
        "dec.pos_emb": (L, d),
    }

    def attn(prefix):
        for part in ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo"):
            shapes[f"{prefix}.{part}"] = (d, d) if part[0] == "w" else (d,)

    def ln(prefix):
        shapes[f"{prefix}.gain"] = (d,)
        shapes[f"{prefix}.bias"] = (d,)

    def ffn(prefix):
        shapes[f"{prefix}.w1"] = (d, ff)
        shapes[f"{prefix}.b1"] = (ff,)
        shapes[f"{prefix}.w2"] = (ff, d)
        shapes[f"{prefix}.b2"] = (d,)

    for i in range(config.n_layers):
        attn(f"enc.{i}.attn")
        ln(f"enc.{i}.ln1")
        ffn(f"enc.{i}.ff")
        ln(f"enc.{i}.ln2")
    for i in range(config.n_layers):
        attn(f"dec.{i}.self")
        ln(f"dec.{i}.ln1")
        attn(f"dec.{i}.cross")
        ln(f"dec.{i}.ln2")
        ffn(f"dec.{i}.ff")
        ln(f"dec.{i}.ln3")
    shapes["out.w"] = (d, v)
    shapes["out.b"] = (v,)
    return shapes


def param_views(flat: np.ndarray, shapes: dict[str, tuple[int, ...]]) -> dict[str, np.ndarray]:
    """Name -> a view of `flat`, the arrays of `shapes` laid end to end in its order."""
    views, offset = {}, 0
    for name, shape in shapes.items():
        count = math.prod(shape)
        views[name] = flat[offset:offset + count].reshape(shape)
        offset += count
    return views


def init_model(config: ModelConfig, seed: int) -> Model:
    """Normal(0, 0.02^2) weights, layer-norm gains 1 / biases 0, all from one PRNG. Each
    weight is drawn into its view of the payload and then scaled, which gives exactly the
    values of `rng.normal(0.0, INIT_STD, size=shape)` with no second copy of them."""
    rng = np.random.default_rng(seed)
    model = Model(config, np.empty(sum(math.prod(s) for s in param_shapes(config).values())))
    for name, p in model.params.items():
        if ".ln" in name:
            p.data[...] = 1.0 if name.endswith(".gain") else 0.0
        else:
            rng.standard_normal(out=p.data)
            p.data *= INIT_STD
    return model


def attention(q: Tensor, k: Tensor, v: Tensor, mask: np.ndarray) -> Tensor:
    """Scaled dot-product attention over [B, h, L, d_h] tensors."""
    d_h = q.shape[-1]
    scores = T.scale(T.matmul(q, T.transpose(k, (0, 1, 3, 2))), 1.0 / math.sqrt(d_h))
    weights = T.masked_softmax(scores, mask)
    return T.matmul(weights, v)


def _split_heads(x: Tensor, n_heads: int) -> Tensor:
    b, length, d = x.shape
    return T.transpose(T.reshape(x, (b, length, n_heads, d // n_heads)), (0, 2, 1, 3))


def _merge_heads(x: Tensor) -> Tensor:
    b, h, length, d_h = x.shape
    return T.reshape(T.transpose(x, (0, 2, 1, 3)), (b, length, h * d_h))


def _kv(model: Model, prefix: str, x: Tensor) -> tuple[Tensor, Tensor]:
    p, h = model.params, model.config.n_heads
    return tuple(_split_heads(T.matmul(x, p[f"{prefix}.w{part}"], p[f"{prefix}.b{part}"]), h)
                 for part in "kv")


def _mha(model: Model, prefix: str, x_q: Tensor, kv: tuple[Tensor, Tensor],
         mask: np.ndarray) -> Tensor:
    p, h = model.params, model.config.n_heads
    q = _split_heads(T.matmul(x_q, p[f"{prefix}.wq"], p[f"{prefix}.bq"]), h)
    out = _merge_heads(attention(q, *kv, mask))
    return T.matmul(out, p[f"{prefix}.wo"], p[f"{prefix}.bo"])


def _ffn(model: Model, prefix: str, x: Tensor) -> Tensor:
    p = model.params
    hidden = T.gelu(T.matmul(x, p[f"{prefix}.w1"], p[f"{prefix}.b1"]))
    return T.matmul(hidden, p[f"{prefix}.w2"], p[f"{prefix}.b2"])


def _sublayer(model: Model, ln_prefix: str, x: Tensor, out: Tensor, rng) -> Tensor:
    p = model.params
    out = T.dropout(out, model.config.dropout_rate, rng)
    return T.layer_norm(x, p[f"{ln_prefix}.gain"], p[f"{ln_prefix}.bias"], residual=out)


def _embed(model: Model, side: str, ids: np.ndarray, rng, start: int = 0) -> Tensor:
    p = model.params
    tok = T.embedding(p[f"{side}.tok_emb"], ids)
    pos = T.embedding(p[f"{side}.pos_emb"], np.arange(start, start + ids.shape[1]))
    return T.dropout(T.add(tok, pos), model.config.dropout_rate, rng)


def encode_source(model: Model, src_ids: np.ndarray, src_pad_mask: np.ndarray, *,
                  rng=None) -> Tensor:
    cfg = model.config
    if src_ids.shape[1] > cfg.max_len:
        raise ValueError(f"source length {src_ids.shape[1]} exceeds max_len {cfg.max_len}")
    x = _embed(model, "enc", src_ids, rng)
    mask = (np.tri(src_ids.shape[1], dtype=bool) if cfg.encoder_masking == CAUSAL
            else src_pad_mask[:, None, None, :])
    for i in range(cfg.n_layers):
        attn = _mha(model, f"enc.{i}.attn", x, _kv(model, f"enc.{i}.attn", x), mask)
        x = _sublayer(model, f"enc.{i}.ln1", x, attn, rng)
        x = _sublayer(model, f"enc.{i}.ln2", x, _ffn(model, f"enc.{i}.ff", x), rng)
    return x


def _decoder_states(model: Model, enc_out: Tensor, src_pad_mask: np.ndarray,
                    tgt_in_ids: np.ndarray, rng, cache: DecoderCache) -> Tensor:
    """The last decoder layer's output [B, Lt, d], the layer loop of `decoder_logits`."""
    cfg = model.config
    start, new = cache.length, tgt_in_ids.shape[1]
    if start + new > cfg.max_len:
        raise ValueError(f"target length {start + new} exceeds max_len {cfg.max_len}")
    if start == 0:
        cache.cross_mask = src_pad_mask[:, None, None, :]
        cache.kv = {f"dec.{i}.cross": _kv(model, f"dec.{i}.cross", enc_out) for i in range(cfg.n_layers)}
    self_mask = np.tri(new, start + new, start, dtype=bool)  # row i: keys 0 .. start + i
    x = _embed(model, "dec", tgt_in_ids, rng, start)
    for i in range(cfg.n_layers):
        self_kv = cache.append(f"dec.{i}.self", *_kv(model, f"dec.{i}.self", x))
        x = _sublayer(model, f"dec.{i}.ln1", x, _mha(model, f"dec.{i}.self", x, self_kv, self_mask), rng)
        cross = _mha(model, f"dec.{i}.cross", x, cache.kv[f"dec.{i}.cross"], cache.cross_mask)
        x = _sublayer(model, f"dec.{i}.ln2", x, cross, rng)
        x = _sublayer(model, f"dec.{i}.ln3", x, _ffn(model, f"dec.{i}.ff", x), rng)
    cache.length += new
    return x


def decoder_logits(model: Model, enc_out: Tensor, src_pad_mask: np.ndarray, tgt_in_ids: np.ndarray,
                   *, rng=None, cache: DecoderCache | None = None) -> Tensor:
    """Logits [B, Lt, V] for tgt_in_ids: the whole target prefix, or with a cache only the tokens
    after its `length` decoded ones (enc_out and src_pad_mask are read on its first call only)."""
    x = _decoder_states(model, enc_out, src_pad_mask, tgt_in_ids, rng, cache or DecoderCache())
    return T.matmul(x, model.params["out.w"], model.params["out.b"])


def forward(model: Model, batch: Batch, *, rng=None, ignore_id: int | None = None) -> Tensor:
    """Logits [B, Lt, V] for a teacher-forced batch; with `ignore_id`, instead the mean
    cross entropy against `batch.target_out_ids` (positions holding ignore_id left out),
    projected and reduced a vocabulary chunk at a time so no [B, Lt, V] array is built."""
    enc_out = encode_source(model, batch.source_ids, batch.source_pad_mask, rng=rng)
    args = (model, enc_out, batch.source_pad_mask, batch.target_in_ids)
    if ignore_id is None:
        return decoder_logits(*args, rng=rng)
    p = model.params
    return T.cross_entropy(_decoder_states(*args, rng, DecoderCache()),
                           batch.target_out_ids, ignore_id, p["out.w"], p["out.b"])
