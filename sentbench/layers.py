"""Which sentsimp functions are traced, and the per-layer metrics made from them.

There is one layer per module: tensor, tokenizer, corpus, model, train,
decoding, sari and cli. A few hooks are on in every run because end-to-end
metrics need them: train_loop's start and target tokens, the end time and
SARI of each validation. They cost a few timer reads per epoch. Everything
else is wrapped only while a traced pass runs.
"""

from __future__ import annotations

from sentsimp import cli, corpus, decoding, model, sari, tensor, tokenizer, train

from tracing import Tracer

TENSOR_OPS = ("matmul", "add", "scale", "transpose", "reshape", "masked_softmax",
              "layer_norm", "gelu", "embedding", "cross_entropy")
STRATEGIES = ("greedy", "beam")


class Recorder:
    """Owns the tracer, the always-on hooks and the per-sentence decode tally."""

    def __init__(self):
        self.tracer = Tracer()
        self.events: list[tuple] = []
        self._sentence: dict | None = None
        self._install_light()
        self._light_patches = self.tracer.patch_count()

    # -- always-on hooks ---------------------------------------------------

    def _install_light(self) -> None:
        t, events = self.tracer, self.events

        def on_train_loop(args, kwargs, result, start, elapsed):
            batches, vocab = args[1], args[4]
            per_epoch = sum(int((b.target_out_ids != vocab.pad_id).sum()) for b in batches)
            events.append(("train_loop", start, elapsed, per_epoch))

        def on_valid(args, kwargs, result, start, elapsed):
            events.append(("valid", start + elapsed, result))

        t.install(train, "train_loop", "train.train_loop", on_train_loop)
        scorer_factory = train.default_valid_scorer

        def default_valid_scorer(*args, **kwargs):
            return t.wrap(scorer_factory(*args, **kwargs), "train.valid_score", on_valid)

        t.replace(train, "default_valid_scorer", default_valid_scorer)

    def take_events(self) -> list[tuple]:
        out = list(self.events)
        self.events.clear()
        return out

    # -- full tracing ------------------------------------------------------

    def start_tracing(self) -> None:
        t = self.tracer
        t.reset()
        for op in TENSOR_OPS + ("backward",):
            t.install(tensor, op, f"tensor.{op}")
        t.install(tokenizer, "encode", "tokenizer.encode", self._on_encode)
        t.install(tokenizer, "build_vocab", "tokenizer.build_vocab")
        for fn in ("load_parallel", "load_eval", "make_batches"):
            t.install(corpus, fn, f"corpus.{fn}")
        t.install(model, "init_model", "model.init_model")
        t.install(model, "forward", "model.forward")
        t.install(model, "encode_source", "model.encode_source")
        t.install(model, "decoder_logits", "model.decoder_logits", self._on_decoder_logits)
        for fn in ("clip_gradients", "adamw_step", "save_checkpoint", "load_checkpoint",
                   "model_from_checkpoint"):
            t.install(train, fn, f"train.{fn}")
        t.install(decoding, "greedy_decode_batch", "decoding.greedy_decode_batch",
                  self._on_batch, keep_samples=True)
        for fn in ("greedy_ids", "beam_ids"):
            t.install(decoding, fn, f"decoding.{fn}", self._on_search)
        by_strategy = {s: t.wrap(decoding.simplify, f"decoding.simplify.{s}", keep_samples=True)
                       for s in STRATEGIES}

        def simplify(model_, vocab, source, cfg):
            self._sentence = {"calls": 0, "positions": 0, "longest": 0, "tokens": 0}
            try:
                out = by_strategy[cfg.strategy](model_, vocab, source, cfg)
            finally:
                done, self._sentence = self._sentence, None
            cap = min(cfg.max_len, model_.config.max_len)
            c = t.counters
            c[f"decoding.{cfg.strategy}.sentences"] += 1
            c[f"decoding.{cfg.strategy}.decoder_calls"] += done["calls"]
            c[f"decoding.{cfg.strategy}.positions"] += done["positions"]
            c[f"decoding.{cfg.strategy}.tokens"] += done["tokens"]
            c[f"decoding.{cfg.strategy}.cap_hits"] += done["longest"] == cap - 1
            return out

        t.replace(decoding, "simplify", simplify)
        t.install(sari, "sari_corpus", "sari.sari_corpus")
        t.install(sari, "sari_sentence", "sari.sari_sentence")
        for sub in ("train", "simplify", "eval"):
            t.install(cli, f"cmd_{sub}", f"cli.{sub}")

    def stop_tracing(self) -> dict:
        self.tracer.uninstall(keep=self._light_patches)
        return self.tracer.snapshot()

    def _on_encode(self, args, kwargs, result, start, elapsed):
        c = self.tracer.counters
        content = result.ids[1:-1]
        c["tokenizer.tokens"] += len(content)
        c["tokenizer.unks"] += sum(1 for i in content if i == args[0].unk_id)
        c["tokenizer.truncated"] += result.truncated

    def _on_decoder_logits(self, args, kwargs, result, start, elapsed):
        rows, length = args[3].shape
        self.tracer.counters["model.decoder_logits.positions"] += rows * length
        if self._sentence is not None:
            self._sentence["calls"] += 1
            self._sentence["positions"] += rows * length
            self._sentence["longest"] = max(self._sentence["longest"], length)

    def _on_search(self, args, kwargs, result, start, elapsed):
        if self._sentence is not None:
            self._sentence["tokens"] += len(result) - 1

    def _on_batch(self, args, kwargs, result, start, elapsed):
        self.tracer.samples["decoding.greedy_decode_batch.lines"].append(len(args[2]))


def merge(setup: dict, iterations: list[dict]) -> dict:
    """One traced set-up plus the mean traced iteration; samples are pooled."""
    spans: dict[str, list[float]] = {}
    counters: dict[str, float] = {}
    samples: dict[str, list[float]] = {}
    for snap in iterations:
        for name, values in snap["spans"].items():
            acc = spans.setdefault(name, [0.0, 0.0, 0.0])
            for i, v in enumerate(values):
                acc[i] += v
        for name, v in snap["counters"].items():
            counters[name] = counters.get(name, 0) + v
    k = len(iterations)
    spans = {name: [v / k for v in acc] for name, acc in spans.items()}
    counters = {name: v / k for name, v in counters.items()}
    for name, values in setup["spans"].items():
        acc = spans.setdefault(name, [0.0, 0.0, 0.0])
        for i, v in enumerate(values):
            acc[i] += v
    for name, v in setup["counters"].items():
        counters[name] = counters.get(name, 0) + v
    for snap in [setup] + iterations:
        for name, values in snap["samples"].items():
            samples.setdefault(name, []).extend(values)
    return {"spans": spans, "counters": counters, "samples": samples}


def top_quantile(n: int) -> float:
    """The highest quantile with at least ten samples beyond it (at least the median)."""
    return max(0.5, 1.0 - 10.0 / n) if n else 0.5


def quantile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(m: dict, extra: dict) -> dict[str, tuple[float, str]]:
    """name -> (value, unit) for every per-layer metric, from a merged trace."""
    spans, counters, samples = m["spans"], m["counters"], m["samples"]
    out: dict[str, tuple[float, str]] = {}

    def span(name: str, with_calls: bool = True):
        calls, total, _ = spans.get(name, (0, 0.0, 0.0))
        out[f"{name}.s"] = (total, "s")
        if with_calls:
            out[f"{name}.calls"] = (calls, "count")

    for op in TENSOR_OPS + ("backward",):
        span(f"tensor.{op}")
    for fn in ("forward", "encode_source", "decoder_logits"):
        span(f"model.{fn}")
    out["model.decoder_logits.positions"] = (counters.get("model.decoder_logits.positions", 0),
                                             "count")
    span("model.init_model", with_calls=False)

    for s in STRATEGIES:
        times = samples.get(f"decoding.simplify.{s}", [])
        out[f"decoding.simplify.{s}.s_p50"] = (quantile(times, 0.5), "s")
        out[f"decoding.simplify.{s}.s_ptop"] = (quantile(times, top_quantile(len(times))), "s")
        sentences = counters.get(f"decoding.{s}.sentences", 0)
        out[f"decoding.{s}.decoder_calls_per_sentence"] = (
            _ratio(counters.get(f"decoding.{s}.decoder_calls", 0), sentences), "calls/sentence")
        out[f"decoding.{s}.positions_per_token"] = (
            _ratio(counters.get(f"decoding.{s}.positions", 0),
                   counters.get(f"decoding.{s}.tokens", 0)), "positions/token")
        out[f"decoding.{s}.cap_hit_share"] = (
            _ratio(counters.get(f"decoding.{s}.cap_hits", 0), sentences), "share")
    per_line = [t / n for t, n in zip(samples.get("decoding.greedy_decode_batch", []),
                                      samples.get("decoding.greedy_decode_batch.lines", []))]
    out["decoding.greedy_decode_batch.s_p50"] = (quantile(per_line, 0.5), "s")
    out["decoding.greedy_decode_batch.s_ptop"] = (
        quantile(per_line, top_quantile(len(per_line))), "s")

    for fn in ("clip_gradients", "adamw_step", "valid_score", "save_checkpoint",
               "load_checkpoint", "model_from_checkpoint"):
        span(f"train.{fn}", with_calls=False)
    out["train.load_peak_over_param_bytes"] = (extra["load_peak_over_param_bytes"], "ratio")

    span("sari.sari_corpus", with_calls=False)
    out["sari.sari_sentence.calls"] = (spans.get("sari.sari_sentence", (0,))[0], "count")

    span("tokenizer.encode")
    span("tokenizer.build_vocab", with_calls=False)
    out["tokenizer.unk_rate"] = (_ratio(counters.get("tokenizer.unks", 0),
                                        counters.get("tokenizer.tokens", 0)), "share")
    out["tokenizer.truncated_share"] = (_ratio(counters.get("tokenizer.truncated", 0),
                                               spans.get("tokenizer.encode", (0,))[0]), "share")
    for fn in ("load_parallel", "load_eval", "make_batches"):
        span(f"corpus.{fn}", with_calls=False)
    for sub in ("train", "simplify", "eval"):
        out[f"cli.{sub}.self_s"] = (spans.get(f"cli.{sub}", (0, 0.0, 0.0))[2], "s")
    out["trace.overhead_share"] = (extra["overhead_share"], "share")
    return out


def uncalled(m: dict, expected_absent: set[str]) -> list[str]:
    """Traced spans that a workload should reach but never did."""
    names = ([f"tensor.{op}" for op in TENSOR_OPS + ("backward",)]
             + ["tokenizer.encode", "tokenizer.build_vocab", "corpus.load_parallel",
                "corpus.load_eval", "corpus.make_batches", "model.init_model", "model.forward",
                "model.encode_source", "model.decoder_logits", "train.clip_gradients",
                "train.adamw_step", "train.valid_score", "train.save_checkpoint",
                "train.load_checkpoint", "train.model_from_checkpoint",
                "decoding.greedy_decode_batch", "decoding.simplify.greedy",
                "decoding.simplify.beam", "sari.sari_corpus", "sari.sari_sentence",
                "cli.train", "cli.simplify", "cli.eval"])
    return [n for n in names
            if n not in expected_absent and m["spans"].get(n, (0,))[0] == 0]
