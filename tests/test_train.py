import copy
import gc
import json
import math
import os
import struct
import subprocess
import sys
import tempfile
import textwrap
import tracemalloc
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sentsimp
from sentsimp import tensor as T
from sentsimp.corpus import EvalExample
from sentsimp.model import Model, ModelConfig, forward, init_model, param_shapes, param_views
from sentsimp.tensor import Tensor
from sentsimp.train import (Checkpoint, CheckpointFormatError, EpochRecord, TrainConfig,
                            TrainHistory, adamw_step, clip_gradients, history_tsv, init_opt_state,
                            load_checkpoint, model_from_checkpoint, onecycle_lr,
                            save_checkpoint, train_loop, TrainingDivergedError,
                            _parse_header)
from sentsimp.tokenizer import SPECIALS, Vocabulary, build_vocab
from sentsimp.decoding import DecodeConfig, simplify

from conftest import (make_toy_pairs, ragged_pairs, random_batch, tokenized_batches,
                      toy_model_config, toy_vocab)


class TestOneCycle:
    cfg = TrainConfig()

    def test_starts_at_base_lr(self):
        assert onecycle_lr(0, 1000, self.cfg) == 1e-4

    def test_peaks_at_max_lr(self):
        peak = math.floor(0.1 * 1000)
        assert onecycle_lr(peak, 1000, self.cfg) == 1e-3

    def test_ends_at_final_lr(self):
        assert onecycle_lr(999, 1000, self.cfg) == pytest.approx(1e-6, rel=1e-12)

    def test_decay_midpoint(self):
        total = 1001
        peak = math.floor(0.1 * total)
        mid = peak + (total - 1 - peak) // 2
        want = self.cfg.final_lr + (self.cfg.max_lr - self.cfg.final_lr) / 2
        assert onecycle_lr(mid, total, self.cfg) == pytest.approx(want, rel=1e-9)

    def test_continuous_and_piecewise_monotone(self):
        total = 10_000
        lrs = [onecycle_lr(s, total, self.cfg) for s in range(total)]
        peak_idx = int(np.argmax(lrs))
        assert all(b > a for a, b in zip(lrs[:peak_idx], lrs[1 : peak_idx + 1]))
        assert all(b < a for a, b in zip(lrs[peak_idx:], lrs[peak_idx + 1 :]))
        bound = (self.cfg.max_lr - self.cfg.final_lr) * (math.pi / 2) / (total - 1 - peak_idx)
        decay_jumps = np.abs(np.diff(lrs[peak_idx:]))
        assert decay_jumps.max() <= bound * 1.0000001

    def test_too_few_steps_rejected(self):
        with pytest.raises(ValueError):
            onecycle_lr(0, 1, self.cfg)


def assert_laid_end_to_end(flat: np.ndarray, arrays) -> None:
    """Each array is a view of the 1-D `flat`, and in order they cover it with no gap."""
    start, offset = flat.__array_interface__["data"][0], 0
    for a in arrays:
        assert a.base is flat and a.flags["C_CONTIGUOUS"]
        assert a.__array_interface__["data"][0] == start + 8 * offset
        offset += a.size
    assert offset == flat.size


def live_flags(model: Model, state) -> dict[str, np.ndarray]:
    """Name -> AdamW's live flags, for each parameter that has them, in header order."""
    return {n: state.tables[n][2] for n in model.params if n in state.tables}


def ckpt_params(ckpt: Checkpoint) -> dict[str, np.ndarray]:
    """Name -> a view of the checkpoint's payload for each parameter its config declares."""
    return param_views(ckpt.payload, param_shapes(ckpt.config))


TINY = ModelConfig(d_model=3, n_heads=1, n_layers=1, d_ff=2, vocab_size=4, max_len=3)


def scalar_model(value: float) -> Model:
    """A tiny model whose `out.b[0]`, a decayed parameter entry, holds `value`, with every
    gradient zero. The update is elementwise, so a test can follow that one entry."""
    model = init_model(TINY, 0)
    model.params["out.b"].data[0] = value
    for p in model.parameters():
        p.grad = np.zeros_like(p.data)
    return model


class TestAdamW:
    def test_zero_gradient_pure_decay(self):
        model = scalar_model(1.0)
        adamw_step(model, init_opt_state(model), lr=0.1, cfg=TrainConfig())
        assert model.params["out.b"].data[0] == pytest.approx(0.999, abs=1e-12)

    def test_first_step_moves_by_lr(self):
        model = scalar_model(1.0)
        model.params["out.b"].grad[0] = 0.5
        adamw_step(model, init_opt_state(model), lr=0.1, cfg=TrainConfig())
        # the Adam step moves by lr, then the fixed 0.01 decay shrinks by lr * 0.01
        assert model.params["out.b"].data[0] == pytest.approx(0.9 * (1 - 0.1 * 0.01), abs=1e-6)

    def test_three_steps_match_hand_recurrence(self):
        lr, b1, b2, eps, wd = 0.1, 0.9, 0.999, 1e-8, 0.01
        model = scalar_model(1.0)
        w = model.params["out.b"]
        state = init_opt_state(model)
        cfg = TrainConfig()
        # hand-iterated recurrence on f(p) = p^2
        p, m, v = 1.0, 0.0, 0.0
        for t in range(1, 4):
            g = 2 * p
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            mhat = m / (1 - b1 ** t)
            vhat = v / (1 - b2 ** t)
            p = p - lr * mhat / (math.sqrt(vhat) + eps)
            p = p - lr * wd * p

            w.grad[0] = 2 * w.data[0]
            adamw_step(model, state, lr=lr, cfg=cfg)
        assert w.data[0] == pytest.approx(p, abs=1e-12)

    def test_missing_gradient_rejected(self):
        model = scalar_model(1.0)
        model.params["out.b"].grad = None
        with pytest.raises(ValueError, match="out.b"):
            adamw_step(model, init_opt_state(model), 0.1, TrainConfig())

    def test_layer_norm_params_not_decayed(self):
        model = scalar_model(1.0)
        before = {n: p.data.tobytes() for n, p in model.params.items() if ".ln" in n}
        adamw_step(model, init_opt_state(model), 0.1, TrainConfig())
        assert model.params["enc.0.ln1.gain"].data[0] == 1.0
        assert {n: model.params[n].data.tobytes() for n in before} == before

    def test_parameters_and_moments_are_views_of_their_arenas(self):
        model = init_model(toy_model_config(29), 0)
        before = model.payload.tobytes()
        state = init_opt_state(model)
        assert list(model.params) == list(param_shapes(model.config))
        assert_laid_end_to_end(model.payload, [p.data for p in model.params.values()])
        assert state.m_arena.shape == state.v_arena.shape == model.payload.shape
        assert [n for span in state.spans for n in span.names] == [
            n for n in model.params if n not in state.tables]
        for k, arena in enumerate((state.m_arena, state.v_arena)):
            # The tables' moment views and the spans' runs cover it in header order.
            runs = {**{n: views[k] for n, views in state.tables.items()},
                    **{span.names[0]: arena[span.at] for span in state.spans}}
            assert_laid_end_to_end(arena, [runs[n] for n in model.params if n in runs])
        assert not np.shares_memory(state.m_arena, state.v_arena)
        assert model.payload.tobytes() == before
        assert not state.m_arena.any() and not state.v_arena.any()
        # Each embedding table, found by name, has a live flag per row, none set.
        live = live_flags(model, state)
        assert live.keys() == {n for n in model.params if n.endswith("_emb")}
        assert all(f.shape == model.params[n].shape[:1] and not f.any() for n, f in live.items())

    def test_step_allocates_blocks_not_parameters(self):
        """The update runs a block at a time inside each parameter, so one step at a
        vocabulary of 5,000 allocates under a quarter of out.w's 2.56 MB; one whole-array
        temporary of out.w would be all of it. The gradient reaches 12 rows of each
        table, as a batch's would."""
        model = init_model(toy_model_config(5000), 0)
        rng = np.random.default_rng(0)
        for name, p in model.params.items():
            p.grad = rng.normal(size=p.shape)
            if name.endswith("_emb"):
                p.grad[rng.permutation(p.shape[0])[12:]] = 0.0
        state = init_opt_state(model)
        tracemalloc.start()
        try:
            adamw_step(model, state, 1e-3, TrainConfig(), 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(f.sum() for f in live_flags(model, state).values()) == 4 * 12
        assert peak < 0.25 * model.params["out.w"].data.nbytes

    @pytest.mark.parametrize("masking", ["bidirectional", "causal"])
    def test_live_rows_of_a_real_step_are_its_real_tokens(self, masking):
        """After one training step each embedding table has exactly the rows of the ids
        or positions of the batch's real tokens live: no pad reaches a gradient. The toy
        pairs all have one length, so words are cut off to give the batch pads."""
        pairs = [(" ".join(s.split()[:9 - i % 4]), " ".join(t.split()[:8 - i % 3]))
                 for i, (s, t) in enumerate(make_toy_pairs(16, 0))]
        vocab = toy_vocab(pairs)
        model = init_model(toy_model_config(vocab.size, masking), 0)
        batch = tokenized_batches(pairs, vocab, batch_size=8)[0]
        T.backward(forward(model, batch, ignore_id=vocab.pad_id))
        state = init_opt_state(model)
        adamw_step(model, state, 1e-3, TrainConfig())
        live = live_flags(model, state)
        real = {"enc": (batch.source_ids, batch.source_pad_mask),
                "dec": (batch.target_in_ids, batch.target_in_ids != vocab.pad_id)}
        assert live.keys() == {f"{side}.{kind}_emb" for side in real for kind in ("tok", "pos")}
        for side, (ids, mask) in real.items():
            assert not mask.all()  # the batch holds pads on this side
            assert np.array_equal(np.flatnonzero(live[f"{side}.tok_emb"]), np.unique(ids[mask]))
            assert np.array_equal(np.flatnonzero(live[f"{side}.pos_emb"]),
                                  np.unique(np.nonzero(mask)[1]))
            assert not live[f"{side}.tok_emb"][vocab.pad_id]

    def test_table_gradients_stay_row_sparse_through_a_step(self):
        """At a vocabulary of 5,000, backward, clip_gradients and adamw_step leave each
        table's gradient a RowGrad over exactly its batch's distinct ids (pads included,
        as all-zero rows). Read as `grad` it is dense, and the dense gradients give the
        same clip norm and the same update, bit for bit."""
        pairs = [(" ".join(s.split()[:9 - i % 4]), " ".join(t.split()[:8 - i % 3]))
                 for i, (s, t) in enumerate(make_toy_pairs(16, 0))]
        vocab = toy_vocab(pairs)
        model = init_model(toy_model_config(5000), 0)
        reference = copy.deepcopy(model)
        batch = tokenized_batches(pairs, vocab, batch_size=8)[0]
        T.backward(forward(model, batch, ignore_id=vocab.pad_id))
        norm = clip_gradients(model)
        adamw_step(model, init_opt_state(model), 1e-3, TrainConfig(), 0.5)
        looked_up = {"enc": batch.source_ids, "dec": batch.target_in_ids}
        for side, ids in looked_up.items():
            for kind, want in (("tok", np.unique(ids)), ("pos", np.arange(ids.shape[1]))):
                g = model.params[f"{side}.{kind}_emb"].stored_grad
                assert isinstance(g, T.RowGrad) and np.array_equal(g.ids, want)
            assert vocab.pad_id in ids
        for name, p in reference.params.items():
            p.grad = model.params[name].grad
            assert isinstance(p.grad, np.ndarray) and p.grad.shape == p.shape
        assert clip_gradients(reference) == norm
        adamw_step(reference, init_opt_state(reference), 1e-3, TrainConfig(), 0.5)
        assert reference.payload.tobytes() == model.payload.tobytes()

    def test_reading_gradients_changes_no_step(self):
        """Reading every parameter's `grad` after backward, as a gradient check does,
        leaves each table's stored gradient a RowGrad, and clip_gradients and adamw_step
        then give the bytes of a step without the reads."""
        pairs = ragged_pairs(16)
        vocab = toy_vocab(pairs)
        batch = tokenized_batches(pairs, vocab, batch_size=8)[0]
        steps = []
        for read in (False, True):
            model = init_model(toy_model_config(vocab.size), 0)
            T.backward(forward(model, batch, ignore_id=vocab.pad_id))
            if read:
                assert all(isinstance(p.grad, np.ndarray) for p in model.parameters())
                assert all(isinstance(model.params[n].stored_grad, T.RowGrad)
                           for n in model.params if n.endswith("_emb"))
            norm = clip_gradients(model)
            adamw_step(model, init_opt_state(model), 1e-3, TrainConfig(), 0.5)
            steps.append((norm, model.payload.tobytes()))
        assert steps[0] == steps[1]

    def test_blocked_update_matches_whole_array_recurrence(self):
        """Updating each parameter a block at a time, the embedding tables' live
        rows only, gives exactly the bytes of the per-parameter whole-array formula on
        the clipped gradient. The token tables and out.w are larger than one block, and
        the layer norms sit between decayed parameters: ln2.bias's -0.0 entries, whose
        gradient is always zero, stay -0.0."""
        cfg = ModelConfig(d_model=37, n_heads=1, n_layers=1, d_ff=5, vocab_size=3001,
                          max_len=20)
        rng = np.random.default_rng(0)
        shapes = param_shapes(cfg)
        model = init_model(cfg, 1)
        model.params["enc.tok_emb"].data[::7, ::3] = -0.0
        model.params["dec.tok_emb"].data[::5, ::2] = -0.0
        model.params["enc.0.ln2.bias"].data[::2] = -0.0
        # Rows of each table that a step's gradient reaches. For enc.tok_emb: 0-99 from
        # step 1, 200-399 from step 2 (live share 10%), 1000-2599 at step 3 only (share
        # 60%); row 100 is reached at step 1 only. Every other entry is +0.0 or -0.0.
        reached = {"enc.tok_emb": {1: np.r_[0:101], 2: np.r_[0:100, 200:400],
                                   3: np.r_[0:100, 200:400, 1000:2600]},
                   "dec.tok_emb": {1: np.r_[0:10], 2: np.r_[0:10, 300:350], 3: np.r_[600:700]},
                   "enc.pos_emb": {1: np.r_[0:7], 2: np.r_[0:12], 3: np.r_[0:5]},
                   "dec.pos_emb": {1: np.r_[0:3], 2: np.r_[0:9], 3: np.r_[15:20]}}
        state, tc = init_opt_state(model), TrainConfig()
        p = {n: t.data.copy() for n, t in model.params.items()}
        m = {n: np.zeros(s) for n, s in shapes.items()}
        v = {n: np.zeros(s) for n, s in shapes.items()}
        for t, lr, factor in ((1, 1e-3, 0.37), (2, 3e-3, 1.0), (3, 2e-3, 0.81)):
            for name, param in model.params.items():
                g = param.grad = rng.normal(size=shapes[name])
                if name in reached:
                    rows = reached[name][t]
                    g[:] = np.where(rng.random(g.shape) < 0.5, -0.0, 0.0)
                    g[rows] = rng.normal(size=(len(rows), shapes[name][1]))
                    g[rows[::5], :4] = -0.0
                if name == "enc.0.ln2.bias":
                    g[::2] = 0.0
                g = g * factor
                m[name] = tc.beta1 * m[name] + (1.0 - tc.beta1) * g
                v[name] = tc.beta2 * v[name] + (1.0 - tc.beta2) * g * g
                update = (m[name] / (1.0 - tc.beta1 ** t)) / (
                    np.sqrt(v[name] / (1.0 - tc.beta2 ** t)) + tc.eps_adam)
                p[name] = p[name] - lr * update
                if ".ln" not in name:
                    p[name] = p[name] - lr * tc.weight_decay * p[name]
            adamw_step(model, state, lr, tc, factor)
        for (name, param), got_m, got_v in zip(model.params.items(),
                                               param_views(state.m_arena, shapes).values(),
                                               param_views(state.v_arena, shapes).values()):
            assert param.data.tobytes() == p[name].tobytes()
            assert got_m.tobytes() == m[name].tobytes()
            assert got_v.tobytes() == v[name].tobytes()
        live = live_flags(model, state)
        assert live.keys() == reached.keys()
        for name, flags in live.items():
            assert np.array_equal(np.flatnonzero(flags),
                                  np.unique(np.concatenate(list(reached[name].values()))))
        kept = model.params["enc.0.ln2.bias"].data[::2]
        assert not kept.any() and np.signbit(kept).all()

    def test_spans_that_cut_blocks_match_whole_array_recurrence(self, monkeypatch):
        """At a block of 64 entries, spans cross block boundaries inside a parameter,
        runs of decayed parameters end partway through a block, and d_ff 17 makes each
        feed-forward weight (68 entries) a span of its own, read in place. Three steps
        at clip factors other than 1 give the bytes of the per-parameter whole-array
        formula, and enc.0.ln2.bias, a layer norm between decayed parameters, keeps its
        -0.0 entries."""
        monkeypatch.setattr(sentsimp.train, "_ADAMW_BLOCK", 64)
        cfg = ModelConfig(d_model=4, n_heads=1, n_layers=1, d_ff=17, vocab_size=23,
                          max_len=5)
        shapes = param_shapes(cfg)
        rng = np.random.default_rng(3)
        model = init_model(cfg, 2)
        for name, param in model.params.items():
            if ".ln" in name:
                param.data[:] += rng.normal(size=param.shape)
        model.params["enc.0.ln2.bias"].data[::2] = -0.0
        state, tc = init_opt_state(model), TrainConfig()
        # Each span as (first parameter, parameters, entries); a span of one parameter
        # reads its gradient in place, and the others copy theirs into their run of
        # g_arena, the payload's layout.
        assert [(s.names[0], len(s.names), s.at.stop - s.at.start) for s in state.spans] == [
            ("enc.0.attn.wq", 10, 88), ("enc.0.ff.w1", 1, 68), ("enc.0.ff.b1", 1, 17),
            ("enc.0.ff.w2", 1, 68), ("enc.0.ff.b2", 23, 188), ("dec.0.ff.w1", 1, 68),
            ("dec.0.ff.b1", 1, 17), ("dec.0.ff.w2", 1, 68), ("dec.0.ff.b2", 3, 12),
            ("out.w", 1, 92), ("out.b", 1, 23)]
        assert state.g_arena.shape == model.payload.shape
        # enc.0.ff.b2, then dec.0.self and dec.0.cross, each ended by a layer norm.
        assert state.spans[4].decayed == ((0, 4), (12, 92), (100, 180))
        p = {n: t.data.copy() for n, t in model.params.items()}
        m = {n: np.zeros(s) for n, s in shapes.items()}
        v = {n: np.zeros(s) for n, s in shapes.items()}
        for t, lr, factor in ((1, 1e-2, 0.37), (2, 3e-2, 0.81), (3, 2e-2, 0.5)):
            for name, param in model.params.items():
                g = param.grad = rng.normal(size=shapes[name])
                if name == "enc.0.ln2.bias":
                    g[::2] = 0.0
                g = g * factor
                m[name] = tc.beta1 * m[name] + (1.0 - tc.beta1) * g
                v[name] = tc.beta2 * v[name] + (1.0 - tc.beta2) * g * g
                update = (m[name] / (1.0 - tc.beta1 ** t)) / (
                    np.sqrt(v[name] / (1.0 - tc.beta2 ** t)) + tc.eps_adam)
                p[name] = p[name] - lr * update
                if ".ln" not in name:
                    p[name] = p[name] - lr * tc.weight_decay * p[name]
            adamw_step(model, state, lr, tc, factor)
        for (name, param), got_m, got_v in zip(model.params.items(),
                                               param_views(state.m_arena, shapes).values(),
                                               param_views(state.v_arena, shapes).values()):
            assert param.data.tobytes() == p[name].tobytes(), name
            assert got_m.tobytes() == m[name].tobytes(), name
            assert got_v.tobytes() == v[name].tobytes(), name
        kept = model.params["enc.0.ln2.bias"].data[::2]
        assert not kept.any() and np.signbit(kept).all()


class TestClipGradients:
    def test_parameters_sharing_one_gradient_are_each_scaled_once(self):
        """`add` and `layer_norm(..., residual=)` hand one gradient array to both
        parents. `clip_gradients` only measures; `adamw_step` applies the clip factor
        as it reads each gradient, so each parameter sees its gradient scaled once
        and the shared array is never written."""
        model = init_model(TINY, 0)
        a, b, x, r = (model.params[f"enc.0.attn.b{part}"] for part in "qkvo")
        weights = Tensor(np.array([3.0, -1.0, 2.0]))
        hidden = T.add(T.add(a, b), T.layer_norm(x, Tensor(np.ones(3)), Tensor(np.zeros(3)),
                                                 residual=r))
        loss = T._result(np.asarray((hidden.data * weights.data).sum()), (hidden,),
                         lambda g: (g * weights.data,))
        T.backward(loss)
        assert a.grad is b.grad and x.grad is r.grad
        rng = np.random.default_rng(0)
        for p in model.parameters():
            if p.grad is None:
                p.grad = rng.normal(size=p.shape)
        grads = {n: p.grad for n, p in model.params.items()}
        before = {n: g.tobytes() for n, g in grads.items()}
        norm = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
        assert norm > 0.5
        assert clip_gradients(model) == pytest.approx(norm, rel=1e-12)
        factor = 0.5 / norm

        # The same step on unshared copies of the explicitly scaled gradients.
        reference = copy.deepcopy(model)
        for n, p in reference.params.items():
            p.grad = grads[n] * factor
        tc = TrainConfig()
        state, ref_state = init_opt_state(model), init_opt_state(reference)
        adamw_step(model, state, 0.1, tc, factor)
        adamw_step(reference, ref_state, 0.1, tc)
        for name, p in model.params.items():
            assert p.grad is grads[name] and p.grad.tobytes() == before[name]
        assert model.payload.tobytes() == reference.payload.tobytes()
        assert state.m_arena.tobytes() == ref_state.m_arena.tobytes()
        assert state.v_arena.tobytes() == ref_state.v_arena.tobytes()


class TestTrainConfig:
    def test_lr_ordering_enforced(self):
        with pytest.raises(ValueError):
            TrainConfig(base_lr=1e-2, max_lr=1e-3)

    def test_patience_floor(self):
        with pytest.raises(ValueError):
            TrainConfig(patience=0)


def tiny_setup(n_pairs=8, seed=0):
    pairs = make_toy_pairs(n_pairs, seed=seed)
    vocab = toy_vocab(pairs)
    batches = tokenized_batches(pairs, vocab, batch_size=4)
    model = init_model(toy_model_config(vocab.size), seed)
    valid = [EvalExample(s, (t,)) for s, t in pairs]
    return model, batches, valid, vocab


class TestTrainLoop:
    def test_loss_decreases_over_first_steps(self):
        model, batches, valid, vocab = tiny_setup()
        cfg = TrainConfig(epochs=10, patience=None, seed=0)
        first_losses = []

        def fake_score(m):
            return 0.0

        ckpt, history = train_loop(model, batches[:1], valid, cfg, vocab,
                                   score_fn=fake_score)
        losses = [r.train_loss for r in history.epochs]
        assert losses[9] < losses[0]

    def test_early_stop_on_injected_sequence(self):
        model, batches, valid, vocab = tiny_setup(4)
        scores = iter([10.0, 12.0, 11.0, 11.0, 11.0, 99.0])
        cfg = TrainConfig(epochs=20, patience=3, seed=0)
        ckpt, history = train_loop(model, batches, valid, cfg, vocab,
                                   score_fn=lambda m: next(scores))
        assert len(history.epochs) == 5
        assert history.stopped_early
        assert history.best_epoch == 2

    def test_monotone_improvement_runs_to_the_end(self):
        model, batches, valid, vocab = tiny_setup(4)
        counter = iter(range(100))
        cfg = TrainConfig(epochs=20, patience=3, seed=0)
        ckpt, history = train_loop(model, batches, valid, cfg, vocab,
                                   score_fn=lambda m: float(next(counter)))
        assert len(history.epochs) == 20
        assert not history.stopped_early
        assert history.best_epoch == 20

    def test_best_checkpoint_holds_best_epoch_params(self):
        model, batches, valid, vocab = tiny_setup(4)
        snapshots = []

        def score(m):
            snapshots.append({k: p.data.copy() for k, p in m.params.items()})
            return [5.0, 9.0, 1.0, 1.0, 1.0][len(snapshots) - 1]

        cfg = TrainConfig(epochs=5, patience=3, seed=0)
        ckpt, history = train_loop(model, batches, valid, cfg, vocab, score_fn=score)
        assert history.best_epoch == 2
        for name, data in ckpt_params(ckpt).items():
            assert np.array_equal(data, snapshots[1][name])
        assert_laid_end_to_end(ckpt.payload, ckpt_params(ckpt).values())
        assert not any(np.shares_memory(ckpt.payload, p.data) for p in model.params.values())

    def test_snapshot_rewritten_in_place_holds_the_best_epoch(self):
        """Epochs 1, 2 and 4 improve, so the snapshot taken at epoch 1 is written over
        twice; the checkpoint holds epoch 4's bytes, neither the first epoch's nor the
        last's."""
        model, batches, valid, vocab = tiny_setup(4)
        snapshots = []

        def score(m):
            snapshots.append(m.payload.tobytes())
            return [1.0, 3.0, 2.0, 7.0, 5.0][len(snapshots) - 1]

        cfg = TrainConfig(epochs=5, patience=None, seed=0)
        ckpt, history = train_loop(model, batches, valid, cfg, vocab, score_fn=score)
        assert history.best_epoch == 4 and len(set(snapshots)) == 5
        assert ckpt.payload.tobytes() == snapshots[3]
        assert not np.shares_memory(ckpt.payload, model.payload)

    def test_deep_copy_trains_its_own_payload(self):
        """A deep copy's tensors are views of the copy's own payload, so training the copy
        leaves the original's bytes alone and ends where a fresh model would."""
        model, batches, valid, vocab = tiny_setup(4)
        before = model.payload.tobytes()
        twin = copy.deepcopy(model)
        assert twin.config == model.config and twin.payload.tobytes() == before
        assert not np.shares_memory(twin.payload, model.payload)
        assert_laid_end_to_end(twin.payload, [p.data for p in twin.parameters()])
        assert all(p.requires_grad for p in twin.parameters())
        cfg = TrainConfig(epochs=3, patience=None, seed=0)
        ckpt, history = train_loop(twin, batches, valid, cfg, vocab, score_fn=lambda m: 0.0)
        assert model.payload.tobytes() == before
        fresh, *_ = tiny_setup(4)
        want, want_history = train_loop(fresh, batches, valid, cfg, vocab,
                                        score_fn=lambda m: 0.0)
        assert ckpt.payload.tobytes() == want.payload.tobytes()
        assert twin.payload.tobytes() == fresh.payload.tobytes()
        assert history == want_history

    def test_reproducible_history(self):
        cfg = TrainConfig(epochs=3, patience=None, seed=0)
        histories = []
        for _ in range(2):
            model, batches, valid, vocab = tiny_setup()
            _, history = train_loop(model, batches, valid, cfg, vocab)
            histories.append(history_tsv(history))
        assert histories[0] == histories[1]

    @pytest.mark.parametrize("masking", ["bidirectional", "causal"])
    def test_dropout_follows_the_seed(self, masking):
        """At dropout 0.1 one seed gives one payload and history; another seed, or rate
        0, gives another payload."""
        def run(rate, seed):
            model, batches, valid, vocab = tiny_setup(4)
            config = replace(model.config, encoder_masking=masking, dropout_rate=rate)
            model = Model(config, model.payload)
            cfg = TrainConfig(epochs=3, patience=None, seed=seed)
            _, history = train_loop(model, batches, valid, cfg, vocab, score_fn=lambda m: 0.0)
            return model.payload.tobytes(), history

        payload, history = run(0.1, 0)
        assert run(0.1, 0) == (payload, history)
        assert run(0.1, 1)[0] != payload and run(0.0, 0)[0] != payload

    def test_non_finite_gradient_norm_stops_before_the_update(self):
        model, batches, valid, vocab = tiny_setup()
        cfg = TrainConfig(base_lr=1e8, max_lr=1e9, epochs=5, patience=None)
        with pytest.raises(TrainingDivergedError,
                           match=r"gradient norm inf at epoch \d+, batch \d+"):
            train_loop(model, batches, valid, cfg, vocab, score_fn=lambda m: 0.0)
        assert np.isfinite(model.payload).all()

    @pytest.mark.parametrize("name", ["out.b", "enc.tok_emb"])
    def test_update_overflowing_in_one_entry_names_its_batch(self, monkeypatch, name):
        """After batch 1's backward one entry is set to the largest float64: out.b's
        last, the payload's last entry, or the last of a live row of a token table. At
        lr 150 the Adam step leaves it finite and its weight decay (1.5) overflows it, so
        the check that follows each block's decay stops training at that batch, with
        that one entry the only one not finite."""
        model, batches, valid, vocab = tiny_setup()
        clip_gradients, calls = sentsimp.train.clip_gradients, []
        row = batches[1].source_ids[0, 1]  # a real token of batch 1, so its row is live
        assert row != vocab.pad_id

        def clip(m):
            calls.append(m)
            if len(calls) == 2:
                param = m.params[name].data
                param[(-1,) if name == "out.b" else (row, -1)] = np.finfo(np.float64).max
            return clip_gradients(m)

        monkeypatch.setattr(sentsimp.train, "clip_gradients", clip)
        cfg = TrainConfig(base_lr=150.0, max_lr=150.0, epochs=2, patience=None)
        with np.errstate(over="ignore"), pytest.raises(
                TrainingDivergedError, match=r"^non-finite update at epoch 1, batch 1$"):
            train_loop(model, batches, valid, cfg, vocab, score_fn=lambda m: 0.0)
        d = model.config.d_model  # enc.tok_emb leads the payload
        entry = model.payload.size - 1 if name == "out.b" else row * d + d - 1
        assert np.flatnonzero(~np.isfinite(model.payload)).tolist() == [entry]

    def test_no_gradient_or_graph_lives_through_validation(self):
        """Each step frees its graph and the parameters' gradients before the next
        step and before validation decodes."""
        model, batches, valid, vocab = tiny_setup(4)
        params = {id(p) for p in model.parameters()}

        def score(m):
            assert all(p.grad is None for p in m.parameters())
            assert not [t for t in gc.get_objects() if isinstance(t, Tensor)
                        and any(id(q) in params for q in t._parents)]
            return 0.0

        train_loop(model, batches, valid, TrainConfig(epochs=2, patience=None, seed=0), vocab,
                   score_fn=score)

    def test_short_schedule_rejected_before_the_first_forward(self, monkeypatch):
        model, batches, valid, vocab = tiny_setup(4)
        calls = []
        real_forward = sentsimp.train.forward

        def counted(*args, **kwargs):
            calls.append(args)
            return real_forward(*args, **kwargs)

        monkeypatch.setattr(sentsimp.train, "forward", counted)
        with pytest.raises(ValueError, match="at least 2"):
            train_loop(model, batches[:1], valid, TrainConfig(epochs=1), vocab,
                       score_fn=lambda m: 0.0)
        assert calls == []

    def test_vocabulary_that_does_not_fit_the_config_rejected_before_the_first_forward(
            self, monkeypatch):
        _, batches, valid, vocab = tiny_setup(4)
        model = init_model(toy_model_config(vocab.size + 3), 0)
        monkeypatch.setattr(sentsimp.train, "forward", lambda *a, **k: pytest.fail("forward ran"))
        with pytest.raises(ValueError) as exc:
            train_loop(model, batches, valid, TrainConfig(epochs=2), vocab,
                       score_fn=lambda m: 0.0)
        assert type(exc.value) is ValueError
        assert str(exc.value) == (f"training vocabulary has {vocab.size} tokens, the model "
                                  f"config's vocab_size is {vocab.size + 3}")

    def test_validation_sari_of_checkpoint_is_maximum(self):
        model, batches, valid, vocab = tiny_setup()
        cfg = TrainConfig(epochs=4, patience=None, seed=0)
        ckpt, history = train_loop(model, batches, valid, cfg, vocab)
        best = max(r.valid_sari for r in history.epochs)
        assert history.epochs[history.best_epoch - 1].valid_sari == best


class TestCheckpointIO:
    def make_checkpoint(self):
        pairs = make_toy_pairs(4)
        vocab = toy_vocab(pairs)
        model = init_model(toy_model_config(vocab.size), 3)
        history = TrainHistory(
            epochs=[EpochRecord(1, 2.5, 31.2, 1e-4)], best_epoch=1)
        payload = np.concatenate([p.data.ravel() for p in model.params.values()])
        return Checkpoint(model.config, vocab, payload, history), model, vocab

    def test_round_trip_bitwise(self, tmp_path):
        ckpt, model, vocab = self.make_checkpoint()
        path = tmp_path / "ck.bin"
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        assert loaded.config == ckpt.config
        assert loaded.vocab == vocab
        assert loaded.history == ckpt.history
        got, want = ckpt_params(loaded), ckpt_params(ckpt)
        assert set(got) == set(want)
        for name in want:
            assert got[name].tobytes() == want[name].tobytes()
        resaved = tmp_path / "resaved.bin"
        save_checkpoint(loaded, resaved)
        assert resaved.read_bytes() == path.read_bytes()

    def test_version_2_layout(self, tmp_path):
        ckpt, _, vocab = self.make_checkpoint()
        path = tmp_path / "ck.bin"
        save_checkpoint(ckpt, path)
        raw = path.read_bytes()
        magic, version, n = struct.unpack_from("<4sIQ", raw)
        assert (magic, version) == (b"SSCK", 2)
        text = raw[16:16 + n].decode("utf-8")
        assert (16 + n) % 64 == 0 and len(text) - len(text.rstrip(" ")) < 64
        header = json.loads(text)
        assert list(header) == ["config", "vocab", "history", "params"]
        assert header["config"] == {"d_model": 64, "n_heads": 2, "n_layers": 2, "d_ff": 128,
                                    "vocab_size": vocab.size, "max_len": 80,
                                    "encoder_masking": "bidirectional", "dropout_rate": 0.0}
        assert header["vocab"] == list(vocab.id_to_token)
        assert header["history"] == {"epochs": [{"epoch": 1, "train_loss": 2.5,
                                                 "valid_sari": 31.2, "lr": 1e-4}],
                                     "best_epoch": 1, "stopped_early": False}
        params = ckpt_params(ckpt)
        assert header["params"] == {k: list(a.shape) for k, a in params.items()}
        assert raw[16 + n:] == b"".join(a.astype("<f8").tobytes() for a in params.values())

    def test_load_allocates_little_beyond_the_parameters(self, tmp_path):
        ckpt, _, _ = self.make_checkpoint()
        path = tmp_path / "ck.bin"
        save_checkpoint(ckpt, path)
        tracemalloc.start()
        try:
            loaded = load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The tensors are views of the mapped file: what is allocated is the header's.
        assert peak <= 0.1 * sum(a.nbytes for a in ckpt_params(loaded).values())

    def test_loaded_tensors_are_aligned_private_views(self, tmp_path):
        ckpt, _, _ = self.make_checkpoint()
        path = tmp_path / "ck.bin"
        save_checkpoint(ckpt, path)
        raw = path.read_bytes()
        loaded = load_checkpoint(path)
        params = ckpt_params(loaded)
        assert list(params) == list(param_shapes(loaded.config))
        assert_laid_end_to_end(loaded.payload, params.values())
        for a in params.values():
            assert a.flags["ALIGNED"] and a.flags["WRITEABLE"] and a.flags["C_CONTIGUOUS"]
            a += 1.0
        assert path.read_bytes() == raw
        again = ckpt_params(load_checkpoint(path))
        for name, a in ckpt_params(ckpt).items():
            assert again[name].tobytes() == a.tobytes()
            assert params[name].tobytes() == (a + 1.0).tobytes()

    def test_unpadded_header_loads_identically(self, tmp_path):
        """A file saved before the header was padded: its payload starts wherever the
        JSON ends, here (and in most such files) off the 8-byte grid."""
        ckpt, _, _ = self.make_checkpoint()
        path = tmp_path / "ck.bin"
        save_checkpoint(ckpt, path)
        raw = path.read_bytes()
        _, _, n = struct.unpack_from("<4sIQ", raw)
        header = raw[16:16 + n].rstrip(b" ")
        if (16 + len(header)) % 8 == 0:
            header += b" "
        path.write_bytes(struct.pack("<4sIQ", b"SSCK", 2, len(header)) + header
                         + raw[16 + n:])
        loaded = load_checkpoint(path)
        assert loaded.vocab == ckpt.vocab and loaded.history == ckpt.history
        params = ckpt_params(loaded)
        assert_laid_end_to_end(loaded.payload, params.values())
        for name, a in ckpt_params(ckpt).items():
            assert params[name].flags["ALIGNED"]
            assert params[name].tobytes() == a.tobytes()

    def test_saving_over_a_loaded_checkpoint_keeps_its_tensors(self, tmp_path):
        """A save replaces the file by a rename, so tensors loaded from the old file keep
        its bytes. The check runs in a child process: had the save rewritten the mapped
        file in place, reading those tensors would kill it with SIGBUS."""
        ckpt, _, _ = self.make_checkpoint()
        path = tmp_path / "ck.bin"
        save_checkpoint(ckpt, path)
        script = textwrap.dedent("""
            import math
            import os
            import sys
            from sentsimp.model import ModelConfig, param_shapes
            from sentsimp.tokenizer import SPECIALS, Vocabulary
            from sentsimp.train import Checkpoint, load_checkpoint, save_checkpoint
            path = sys.argv[1]
            with open(path, "rb") as f:
                raw = f.read()
            first = load_checkpoint(path)
            other = load_checkpoint(path)
            config = ModelConfig(d_model=2, n_heads=1, n_layers=1, d_ff=2, vocab_size=4,
                                 max_len=3)
            count = sum(math.prod(s) for s in param_shapes(config).values())
            other = Checkpoint(config, Vocabulary(dict(zip(SPECIALS, range(4))), SPECIALS),
                               other.payload[:count] * 2.0, other.history)
            save_checkpoint(other, path)
            assert os.path.getsize(path) < len(raw) // 2
            payload = first.payload.tobytes()
            assert raw.endswith(payload), "a loaded tensor changed under a save"
        """)
        src = str(Path(sentsimp.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-c", script, str(path)], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, (done.returncode, done.stderr)

    @pytest.mark.parametrize("edit", [
        lambda c: setattr(c, "payload", c.payload[:-c.config.vocab_size]),
        lambda c: setattr(c, "payload", np.append(c.payload, 0.0)),
        lambda c: setattr(c, "payload", c.payload[:-1]),
        lambda c: setattr(c, "vocab", Vocabulary({**c.vocab.token_to_id, "zebra": c.vocab.size},
                                                 c.vocab.id_to_token + ("zebra",))),
    ], ids=["missing", "extra", "wrong_shape", "vocab_longer"])
    def test_mismatched_save_raises_and_keeps_the_old_file(self, edit, tmp_path):
        """A payload without out.b's values, one value long or one short, or a vocabulary
        its config does not declare."""
        ckpt, _, _ = self.make_checkpoint()
        path = tmp_path / "ck.bin"
        save_checkpoint(ckpt, path)
        raw = path.read_bytes()
        edit(ckpt)
        with pytest.raises(CheckpointFormatError, match="payload has shape|vocab_size"):
            save_checkpoint(ckpt, path)
        assert path.read_bytes() == raw
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("edit", [
        lambda t: t[:4] + (t[3],) + t[5:],
        lambda t: (t[1], t[0]) + t[2:],
    ], ids=["repeated_token", "specials_out_of_order"])
    def test_vocabulary_load_would_refuse_is_not_saved(self, edit, tmp_path):
        ckpt, _, _ = self.make_checkpoint()
        tokens = edit(ckpt.vocab.id_to_token)
        ckpt.vocab = Vocabulary({w: i for i, w in enumerate(tokens)}, tokens)
        with pytest.raises(CheckpointFormatError, match="not distinct tokens led by the specials"):
            save_checkpoint(ckpt, tmp_path / "ck.bin")
        assert list(tmp_path.iterdir()) == []

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(CheckpointFormatError, match="magic"):
            load_checkpoint(path)

    def test_truncated_file_rejected(self, tmp_path):
        ckpt, _, _ = self.make_checkpoint()
        path = tmp_path / "ck.bin"
        save_checkpoint(ckpt, path)
        path.write_bytes(path.read_bytes()[:-100])
        with pytest.raises(CheckpointFormatError, match="truncated"):
            load_checkpoint(path)

    def test_reloaded_model_decodes_identically(self, tmp_path):
        ckpt, model, vocab = self.make_checkpoint()
        path = tmp_path / "ck.bin"
        save_checkpoint(ckpt, path)
        restored = model_from_checkpoint(load_checkpoint(path))
        cfg = DecodeConfig(max_len=16)
        source = "the perspicacious cat saw the tree"
        assert simplify(restored, vocab, source, cfg) == simplify(model, vocab, source, cfg)

    @pytest.mark.parametrize("dim", [True, 1.0])
    def test_shapes_must_be_json_integers(self, dim):
        config = ModelConfig(d_model=1, n_heads=1, n_layers=1, d_ff=1, vocab_size=4, max_len=3)
        header = {"config": asdict(config), "vocab": list(SPECIALS),
                  "history": asdict(TrainHistory()),
                  "params": {name: list(s) for name, s in param_shapes(config).items()}}
        assert _parse_header(json.dumps(header).encode())[0].config == config
        header["params"]["dec.0.ln3.gain"] = [dim]  # equal to 1 in Python, not in JSON
        with pytest.raises(CheckpointFormatError, match="dec.0.ln3.gain"):
            _parse_header(json.dumps(header).encode())

    @pytest.fixture(scope="class")
    def saved_bytes(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("ckpt") / "ck.bin"
        save_checkpoint(self.make_checkpoint()[0], path)
        return path.read_bytes()

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_damaged_file_is_rejected_or_matches_its_config(self, saved_bytes, data):
        """A truncation anywhere, or one changed byte in the prefix or header, either
        raises CheckpointFormatError or leaves a file that holds exactly the parameters
        and vocabulary its config declares."""
        raw = saved_bytes
        if data.draw(st.booleans(), label="truncate"):
            damaged = raw[:data.draw(st.integers(0, len(raw) - 1), label="length")]
        else:
            at = data.draw(st.integers(0, 16 + struct.unpack_from("<Q", raw, 8)[0] - 1),
                           label="at")
            byte = data.draw(st.integers(0, 255).filter(lambda b: b != raw[at]), label="byte")
            damaged = raw[:at] + bytes([byte]) + raw[at + 1:]
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "ck.bin"
            path.write_bytes(damaged)
            try:
                ckpt = load_checkpoint(path)
            except CheckpointFormatError:
                return
        model = model_from_checkpoint(ckpt)
        assert ckpt.vocab.size == ckpt.config.vocab_size
        assert [(n, p.shape) for n, p in model.params.items()] == list(
            param_shapes(ckpt.config).items())
