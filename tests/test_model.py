from dataclasses import replace

import numpy as np
import pytest

from sentsimp import tensor as T
from sentsimp.cli import build_parser
from sentsimp.corpus import make_batches
from sentsimp.model import (BIDIRECTIONAL, CAUSAL, GPT2_VOCAB, INIT_STD, Model, ModelConfig,
                            VARIANTS, attention, encode_source, forward, init_model, param_shapes,
                            param_views, variant_config)
from sentsimp.tensor import Tensor
from sentsimp.train import TrainConfig, adamw_step, init_opt_state

from conftest import ragged_pairs, random_batch, tokenized_batches, toy_model_config, toy_vocab
from gradcheck import grad_check_params


def expected_param_count(config: ModelConfig) -> int:
    """Closed-form parameter count for a config."""
    d, ff, v, L, n = config.d_model, config.d_ff, config.vocab_size, config.max_len, config.n_layers
    attn = 4 * (d * d + d)
    ffn = d * ff + ff + ff * d + d
    ln = 2 * d
    enc_layer = attn + ffn + 2 * ln
    dec_layer = 2 * attn + ffn + 3 * ln
    emb = 2 * (v * d + L * d)
    return emb + n * enc_layer + n * dec_layer + d * v + v


class TestVariantConfig:
    def test_bert_paper_preset(self):
        cfg = variant_config("bert", "paper")
        assert (cfg.d_model, cfg.n_heads, cfg.n_layers, cfg.d_ff) == (768, 12, 12, 3072)
        assert cfg.vocab_size == 30522
        assert cfg.max_len == 80
        assert cfg.encoder_masking == BIDIRECTIONAL

    def test_gpt2_paper_preset(self):
        cfg = variant_config("gpt2", "paper")
        assert cfg.encoder_masking == CAUSAL
        assert cfg.vocab_size == 50257

    def test_mixed_toy_preset(self):
        cfg = variant_config("bert+gpt2", "toy", vocab_size=100)
        assert cfg.encoder_masking == BIDIRECTIONAL
        assert cfg.d_model == 64
        assert cfg.vocab_size == 100

    def test_gpt2_encoder_side_is_causal(self):
        assert variant_config("gpt2+bert", "toy", vocab_size=10).encoder_masking == CAUSAL

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            variant_config("t5", "toy", vocab_size=10)

    def test_toy_scale_requires_vocab(self):
        with pytest.raises(ValueError):
            variant_config("bert", "toy")

    def test_variant_table_complete(self):
        assert set(VARIANTS) == {"bert", "gpt2", "bert+gpt2", "gpt2+bert"}
        parser = build_parser()
        for name in VARIANTS:
            args = parser.parse_args(["train", "--out", "o", "--train-src", "s",
                                      "--train-tgt", "t", "--valid-stem", "v",
                                      "--variant", name])
            assert args.variant == name

    def test_combined_names_alias_their_encoder_side(self):
        for alias, base in (("bert+gpt2", "bert"), ("gpt2+bert", "gpt2")):
            assert VARIANTS[alias] == base
            assert variant_config(alias, "paper") == variant_config(base, "paper")
            assert variant_config(alias, "toy", vocab_size=50) == \
                variant_config(base, "toy", vocab_size=50)


class TestConfigValidation:
    def test_heads_must_divide_width(self):
        with pytest.raises(ValueError):
            ModelConfig(d_model=10, n_heads=3, n_layers=1, d_ff=4, vocab_size=8)

    @pytest.mark.parametrize("field", ["d_model", "n_heads", "n_layers", "d_ff", "vocab_size"])
    @pytest.mark.parametrize("value", [0, -2])
    def test_sizes_must_be_positive(self, field, value):
        sizes = dict(d_model=8, n_heads=2, n_layers=1, d_ff=4, vocab_size=8)
        with pytest.raises(ValueError, match=f"{field} must be positive"):
            ModelConfig(**{**sizes, field: value})

    def test_dropout_range(self):
        with pytest.raises(ValueError):
            ModelConfig(d_model=8, n_heads=2, n_layers=1, d_ff=4, vocab_size=8,
                        dropout_rate=1.0)


class TestInitModel:
    def test_same_seed_bit_identical(self):
        cfg = toy_model_config(32)
        a = init_model(cfg, 11)
        b = init_model(cfg, 11)
        for name in a.params:
            assert a.params[name].data.tobytes() == b.params[name].data.tobytes()

    def test_different_seed_differs(self):
        cfg = toy_model_config(32)
        a = init_model(cfg, 1)
        b = init_model(cfg, 2)
        assert a.params["enc.tok_emb"].data.tobytes() != b.params["enc.tok_emb"].data.tobytes()

    def test_param_count_matches_closed_form(self):
        for vocab in (16, 64):
            cfg = toy_model_config(vocab)
            model = init_model(cfg, 0)
            assert sum(p.data.size for p in model.parameters()) == expected_param_count(cfg)

    def test_layer_norm_gains_are_ones(self):
        model = init_model(toy_model_config(16), 0)
        for name, p in model.params.items():
            if name.endswith("ln1.gain"):
                assert np.all(p.data == 1.0)
            if name.endswith("ln1.bias"):
                assert np.all(p.data == 0.0)

    def test_no_decay_covers_exactly_layer_norms(self):
        """With every gradient zero the Adam step moves nothing, so one AdamW step
        changes exactly the parameters that weight decay applies to: all but the layer
        norms, whose entries are set nonzero here so a decay would show."""
        model = init_model(toy_model_config(16), 0)
        model.payload[:] = np.random.default_rng(0).normal(size=model.payload.size)
        for p in model.parameters():
            p.grad = np.zeros_like(p.data)
        before = {n: p.data.tobytes() for n, p in model.params.items()}
        adamw_step(model, init_opt_state(model), 0.1, TrainConfig())
        assert {n for n, p in model.params.items() if p.data.tobytes() == before[n]} == {
            n for n in model.params if ".ln" in n}

    def test_embeddings_are_exactly_the_token_and_position_tables(self):
        """AdamW keeps live rows for the parameters named `_emb`, and those are the token
        and position tables, each a row per id or position, d_model wide."""
        cfg = toy_model_config(16)
        model = init_model(cfg, 0)
        state = init_opt_state(model)
        live = {n: f for n, (_, _, f) in state.tables.items()}
        assert live.keys() == {"enc.tok_emb", "enc.pos_emb", "dec.tok_emb", "dec.pos_emb"}
        assert {n for n in param_shapes(cfg) if n.endswith("_emb")} == live.keys()
        assert all(param_shapes(cfg)[n] == (f.size, cfg.d_model) for n, f in live.items())
        assert sum(f.size for f in live.values()) == 192 and not any(f.any() for f in live.values())

    @pytest.mark.parametrize("cfg", [
        toy_model_config(29),
        replace(variant_config("gpt2", "toy", vocab_size=GPT2_VOCAB), max_len=16),
    ], ids=["toy", "bigvocab"])
    def test_payload_matches_per_tensor_normal_draws(self, cfg):
        """Drawing into the payload and scaling gives exactly the bytes of one
        `rng.normal(0.0, INIT_STD, size=shape)` per weight in `param_shapes` order."""
        rng = np.random.default_rng(7)
        want = [np.ones(s) if n.endswith(".gain") else np.zeros(s) if ".ln" in n
                else rng.normal(0.0, INIT_STD, size=s) for n, s in param_shapes(cfg).items()]
        payload = init_model(cfg, 7).payload
        offset = 0
        for a in want:
            assert payload[offset:offset + a.size].tobytes() == a.tobytes()
            offset += a.size
        assert offset == payload.size

    @pytest.mark.parametrize("payload", [
        lambda n: np.zeros(n, dtype=np.float32),
        lambda n: np.zeros(n + 1),
        lambda n: np.zeros(n - 1),
        lambda n: np.zeros(2 * n)[::2],
        lambda n: np.zeros((1, n)),
        lambda n: np.zeros(n).astype(">f8"),
        lambda n: [0.0] * n,
    ], ids=["float32", "long", "short", "strided", "2d", "big_endian", "list"])
    def test_payload_that_tensors_would_copy_is_rejected(self, payload):
        cfg = toy_model_config(16)
        with pytest.raises(ValueError, match="payload"):
            Model(cfg, payload(expected_param_count(cfg)))


class TestAttention:
    def test_single_position_returns_value(self):
        rng = np.random.default_rng(0)
        q = Tensor(rng.normal(size=(1, 1, 1, 4)))
        k = Tensor(rng.normal(size=(1, 1, 1, 4)))
        v = Tensor(rng.normal(size=(1, 1, 1, 4)))
        out = attention(q, k, v, np.ones((1, 1, 1, 1), dtype=bool))
        assert np.allclose(out.data, v.data)

    def test_identical_keys_average_values(self):
        key = np.random.default_rng(1).normal(size=4)
        q = Tensor(np.zeros((1, 1, 1, 4)))
        k = Tensor(np.stack([key, key])[None, None])
        v = Tensor(np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0]])[None, None])
        out = attention(q, k, v, np.ones((1, 1, 1, 2), dtype=bool))
        assert np.allclose(out.data[0, 0, 0], [0.5, 0.5, 0, 0])

    def test_causal_mask_blocks_future(self):
        rng = np.random.default_rng(2)
        base = rng.normal(size=(1, 1, 3, 4))
        mask = np.tril(np.ones((3, 3), dtype=bool))[None, None]

        def run(arr):
            return attention(Tensor(arr), Tensor(arr), Tensor(arr), mask).data

        perturbed = base.copy()
        perturbed[0, 0, 2] += 5.0
        assert run(base)[0, 0, :2].tobytes() == run(perturbed)[0, 0, :2].tobytes()


class TestForward:
    def test_logits_shape(self):
        model = init_model(toy_model_config(32), 0)
        batch = random_batch(32, seed=0)
        logits = forward(model, batch)
        assert logits.shape == (2, 5, 32)

    def test_eval_mode_deterministic(self):
        model = init_model(toy_model_config(32), 0)
        batch = random_batch(32, seed=1)
        a = forward(model, batch).data.tobytes()
        b = forward(model, batch).data.tobytes()
        assert a == b

    def test_too_long_sequence_rejected(self):
        model = init_model(toy_model_config(32, max_len=4), 0)
        batch = random_batch(32, seed=0, ls=6)
        with pytest.raises(ValueError):
            forward(model, batch)

    def test_bidirectional_encoder_sees_future(self):
        model = init_model(toy_model_config(32), 3)
        batch = random_batch(32, seed=4)
        base = forward(model, batch).data.copy()
        batch.source_ids[0, 1] = (batch.source_ids[0, 1] % 28) + 4
        assert not np.array_equal(forward(model, batch).data, base)


    def test_loss_with_ignore_id_is_the_bytes_of_cross_entropy_over_the_logits(self):
        """Below one vocabulary chunk, the fused projection and loss of training give the
        loss and every gradient of `cross_entropy` over `forward`'s logits, to the byte."""
        batch = random_batch(32, seed=2, b=3, ls=6, lt=5)
        runs = []
        for fused in (False, True):
            model = init_model(toy_model_config(32), 1)
            loss = (forward(model, batch, ignore_id=0) if fused else
                    T.cross_entropy(forward(model, batch), batch.target_out_ids, 0))
            T.backward(loss)
            runs.append([loss.data.tobytes()] + [p.grad.tobytes() for p in model.parameters()])
        assert runs[0] == runs[1]

    def test_rng_is_keyword_only(self):
        model = init_model(toy_model_config(32), 0)
        batch = random_batch(32, seed=0)
        with pytest.raises(TypeError):
            forward(model, batch, True)
        with pytest.raises(TypeError):
            encode_source(model, batch.source_ids, batch.source_pad_mask, True)


class TestDropout:
    @staticmethod
    def pass_bytes(rate, rng):
        """The loss, its gradients and the logits of one pass at `rate`."""
        model = init_model(replace(toy_model_config(32), dropout_rate=rate), 0)
        batch = random_batch(32, seed=1, b=3)
        loss = forward(model, batch, rng=rng, ignore_id=0)
        T.backward(loss)
        logits = forward(model, batch, rng=rng).data
        return [loss.data.tobytes(), logits.tobytes()] + [p.grad.tobytes()
                                                          for p in model.parameters()]

    def test_no_rng_gives_the_bytes_of_rate_zero(self):
        assert self.pass_bytes(0.1, None) == self.pass_bytes(0.0, None)

    def test_a_pass_given_an_rng_drops_units(self):
        runs = [self.pass_bytes(0.1, np.random.default_rng(seed)) for seed in (0, 0, 1)]
        assert runs[0] == runs[1]
        assert runs[0][0] != runs[2][0] and runs[0][0] != self.pass_bytes(0.1, None)[0]

    def test_gradient_through_dropout(self):
        """Each evaluation draws its masks from a fresh rng of one seed, so every
        finite difference sees the same masks as the analytic gradient."""
        model = init_model(replace(toy_model_config(32), dropout_rate=0.2), 0)
        batch = random_batch(32, seed=0, b=2)

        def loss():
            return forward(model, batch, rng=np.random.default_rng(7), ignore_id=0)

        err = grad_check_params(loss, model.parameters(), h=1e-3, max_evals=300, seed=0)
        assert err < 1e-4


class TestMaskingSemantics:
    def test_causal_encoder_invariant_to_future(self):
        model = init_model(toy_model_config(32, masking="causal"), 5)
        rng = np.random.default_rng(0)
        for _ in range(10):
            ls = int(rng.integers(3, 8))
            src = rng.integers(4, 32, size=(1, ls))
            mask = np.ones_like(src, dtype=bool)
            i = int(rng.integers(0, ls - 1))
            j = int(rng.integers(i + 1, ls))
            out_a = encode_source(model, src, mask).data
            src2 = src.copy()
            src2[0, j] = (src2[0, j] % 28) + 4
            out_b = encode_source(model, src2, mask).data
            assert out_a[0, : i + 1].tobytes() == out_b[0, : i + 1].tobytes()

    def test_cross_attention_ignores_padded_source(self):
        model = init_model(toy_model_config(32), 6)
        batch = random_batch(32, seed=7)
        base = forward(model, batch).data.copy()
        # row 0 has a padded source tail; change the id stored under the pad
        assert not batch.source_pad_mask[0, -1]
        batch.source_ids[0, -1] = 9
        again = forward(model, batch).data
        assert np.array_equal(base[0], again[0])

    # (wiring, side whose pads get real ids): causal attention hides the target's pads in
    # both wirings and the source's in `gpt2`; `bert` masks its source pads explicitly.
    @pytest.mark.parametrize("variant, side", [("bert", "target"), ("gpt2", "target"),
                                               ("gpt2", "source")])
    def test_ids_under_right_padding_change_nothing(self, variant, side):
        """Real ids written under a padded batch's pads leave the training loss, its
        gradients and every real position's logits as they were, to the byte."""
        rng = np.random.default_rng(11)

        def seq(n):
            return (1, *rng.integers(4, 32, size=n).tolist(), 2)

        pairs = [(seq(int(rng.integers(1, 8))), seq(int(rng.integers(1, 8)))) for _ in range(6)]
        (batch,) = make_batches(pairs, len(pairs), pad_id=0, max_len=16)
        ids = batch.target_in_ids if side == "target" else batch.source_ids
        pads, real = ids == 0, batch.target_in_ids != 0
        assert pads.any(axis=1).sum() > 1 and not pads.all(axis=1).any()

        def run():
            model = init_model(variant_config(variant, "toy", 32), 0)
            loss = forward(model, batch, rng=np.random.default_rng(0), ignore_id=0)
            T.backward(loss)
            logits = forward(model, batch).data[real]
            return loss.data.tobytes(), logits.tobytes(), [p.grad for p in model.parameters()]

        loss, logits, grads = run()
        ids[pads] = rng.integers(4, 32, size=int(pads.sum()))
        again_loss, again_logits, again_grads = run()
        assert again_loss == loss
        assert again_logits == logits
        assert all(np.array_equal(a, b) for a, b in zip(again_grads, grads))

    def test_variants_differ_only_through_encoder_mask(self):
        batch = random_batch(32, seed=8)
        bert = init_model(toy_model_config(32, masking="bidirectional"), 42)
        gpt2 = init_model(toy_model_config(32, masking="causal"), 42)
        for name in bert.params:
            assert np.array_equal(bert.params[name].data, gpt2.params[name].data)
        assert not np.array_equal(forward(bert, batch).data, forward(gpt2, batch).data)


@pytest.mark.parametrize("variant", ["bert", "gpt2"])
def test_padded_batch_is_the_token_weighted_sum_of_its_rows(variant):
    """A batch of ragged pairs, padded, gives the mean of each row's loss computed alone
    with no pad, weighted by the row's target tokens, and each parameter's gradient is
    the same weighted sum of the rows' gradients: pads reach neither. Gradients are
    compared against the largest of them all, since a key bias's is rounding noise: a
    softmax does not change when one constant is added to every score."""
    pairs = ragged_pairs(8)
    vocab = toy_vocab(pairs)
    model = init_model(variant_config(variant, "toy", vocab.size), 0)

    def loss_and_grads(batch):
        T.zero_grad(model.parameters())
        loss = forward(model, batch, ignore_id=vocab.pad_id)
        T.backward(loss)
        return loss.item(), {n: p.grad for n, p in model.params.items()}

    (batch,) = tokenized_batches(pairs, vocab, batch_size=8)
    real = batch.target_out_ids != vocab.pad_id
    assert not batch.source_pad_mask.all() and not real.all()
    loss, grads = loss_and_grads(batch)
    want_loss, want = 0.0, dict.fromkeys(grads, 0.0)
    for row in tokenized_batches(pairs, vocab, batch_size=1):
        share = (row.target_out_ids != vocab.pad_id).sum() / real.sum()
        row_loss, row_grads = loss_and_grads(row)
        want_loss += share * row_loss
        want = {n: want[n] + share * g for n, g in row_grads.items()}
    assert abs(loss - want_loss) <= 1e-12 * abs(want_loss)
    largest = max(np.abs(g).max() for g in want.values())
    for name, g in grads.items():
        assert np.abs(g - want[name]).max() <= 1e-12 * largest, name


def test_gradients_flow_to_every_parameter():
    model = init_model(toy_model_config(16, max_len=8), 0)
    batch = random_batch(16, seed=0, ls=6, lt=5)
    T.backward(T.cross_entropy(forward(model, batch), batch.target_out_ids, 0))
    for name, p in model.params.items():
        assert p.grad is not None, name
        if "pos_emb" not in name:
            assert np.any(p.grad != 0.0), name


def test_train_step_tape_op_count(monkeypatch):
    """Linear layers, residual + layer norm, and the output projection + loss are one
    tape op each: a toy `bert` train step's forward and loss, as `train_loop` runs it,
    record 131 ops (175 with them unfused)."""
    model = init_model(toy_model_config(29), 0)
    batch = random_batch(29, 0, b=8, ls=12, lt=12)
    calls = []
    result = T._result

    def counted(data, parents, backward_fn):
        calls.append(backward_fn)
        return result(data, parents, backward_fn)

    monkeypatch.setattr(T, "_result", counted)
    forward(model, batch, rng=np.random.default_rng(0), ignore_id=0)
    assert len(calls) <= 131
