import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sentsimp import tensor as T
from sentsimp.tensor import (FullyMaskedError, GraphError, NonFiniteError, ShapeError,
                             Tensor, backward)

from gradcheck import grad_check, grad_check_params


def tensor(data, rg=False):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=rg)


# Test-only ops for building gradient-check graphs; the model needs neither.
def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of two same-shape tensors."""
    return T._result(a.data * b.data, (a, b), lambda g: (g * b.data, g * a.data))


def tensor_sum(a: Tensor) -> Tensor:
    return T._result(np.asarray(a.data.sum()), (a,),
                     lambda g: (np.full(a.data.shape, g, dtype=np.float64),))


class TestMatmul:
    def test_identity(self):
        out = T.matmul(tensor([[1, 0], [0, 1]]), tensor([[3, 4], [5, 6]]))
        assert np.array_equal(out.data, [[3, 4], [5, 6]])

    def test_inner_product(self):
        out = T.matmul(tensor([[1, 2]]), tensor([[3], [4]]))
        assert np.array_equal(out.data, [[11]])

    def test_grad_matches_transpose_rule(self):
        a = tensor([[1.0, 2.0]], rg=True)
        b = tensor([[3.0], [4.0]])
        backward(tensor_sum(T.matmul(a, b)))
        assert np.array_equal(a.grad, [[3.0, 4.0]])

    def test_shape_mismatch_names_shapes(self):
        with pytest.raises(ShapeError, match=r"\(1, 2\).*\(3, 1\)"):
            T.matmul(tensor([[1, 2]]), tensor([[1], [2], [3]]))

    def test_batched_broadcast_grad(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.normal(size=(2, 3, 4)))
        w = Tensor(rng.normal(size=(4, 5)))
        err = grad_check(lambda x: tensor_sum(T.matmul(x, w)), a)
        assert err < 1e-8
        err = grad_check(lambda x: tensor_sum(T.matmul(a, x)), w)
        assert err < 1e-8


def analytic(build, leaves):
    """Forward value of build(*leaves) and each leaf's gradient of the sum of its square."""
    ts = [tensor(x, rg=True) for x in leaves]
    out = build(*ts)
    backward(tensor_sum(mul(out, out)))
    return out.data, [t.grad for t in ts]


class TestFusedOps:
    """Each fused op against the composition it replaces: both sides are exact
    backprop, so values and gradients agree to rounding."""

    def assert_equivalent(self, fused, composed, leaves):
        (got, got_grads), (want, want_grads) = analytic(fused, leaves), analytic(composed, leaves)
        assert np.abs(got - want).max() < 1e-12
        for g, w in zip(got_grads, want_grads):
            assert g.shape == w.shape
            assert np.abs(g - w).max() < 1e-12

    def test_matmul_bias_matches_add_of_matmul(self):
        rng = np.random.default_rng(3)
        leaves = [rng.normal(size=(2, 3, 4)), rng.normal(size=(4, 5)), rng.normal(size=5)]
        self.assert_equivalent(lambda x, w, b: T.matmul(x, w, b),
                               lambda x, w, b: T.add(T.matmul(x, w), b), leaves)

    def test_flat_matmul_matches_batched_matmul(self):
        rng = np.random.default_rng(4)
        leaves = [rng.normal(size=(2, 3, 4)), rng.normal(size=(4, 5))]
        batched = lambda x, w: T._result(np.matmul(x.data, w.data), (x, w), lambda g: (
            np.matmul(g, w.data.T), np.matmul(np.swapaxes(x.data, -1, -2), g).sum(axis=0)))
        self.assert_equivalent(T.matmul, batched, leaves)

    def test_layer_norm_residual_matches_layer_norm_of_add(self):
        rng = np.random.default_rng(5)
        leaves = [rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 3, 4)),
                  rng.normal(size=4) + 2.0, rng.normal(size=4)]
        self.assert_equivalent(lambda x, r, g, b: T.layer_norm(x, g, b, residual=r),
                               lambda x, r, g, b: T.layer_norm(T.add(x, r), g, b), leaves)

    def test_matmul_bias_grad_check(self):
        rng = np.random.default_rng(6)
        x, w, b = (Tensor(rng.normal(size=s)) for s in ((2, 3, 4), (4, 5), (5,)))

        def loss(out):
            return tensor_sum(mul(out, out))

        assert grad_check(lambda t: loss(T.matmul(t, w, b)), x) < 1e-8
        assert grad_check(lambda t: loss(T.matmul(x, t, b)), w) < 1e-8
        assert grad_check(lambda t: loss(T.matmul(x, w, t)), b) < 1e-8

    def test_layer_norm_residual_grad_check(self):
        rng = np.random.default_rng(7)
        x, r = Tensor(rng.normal(size=(3, 4))), Tensor(rng.normal(size=(3, 4)))
        gain, bias = Tensor(rng.normal(size=4) + 2.0), Tensor(rng.normal(size=4))
        weights = Tensor(rng.normal(size=(3, 4)))  # so the loss is not invariant to x

        def loss(out):
            return tensor_sum(mul(out, weights))

        assert grad_check(lambda t: loss(T.layer_norm(t, gain, bias, residual=r)), x) < 1e-8
        assert grad_check(lambda t: loss(T.layer_norm(x, gain, bias, residual=t)), r) < 1e-8

    def test_bias_shape_checked(self):
        with pytest.raises(ShapeError, match="bias"):
            T.matmul(tensor(np.ones((2, 3))), tensor(np.ones((3, 4))), tensor(np.ones(3)))
        with pytest.raises(ShapeError, match="bias"):
            T.matmul(tensor(np.ones((2, 2, 3))), tensor(np.ones((2, 3, 4))), tensor(np.ones(4)))

    def test_residual_shape_checked(self):
        with pytest.raises(ShapeError, match="residual"):
            T.layer_norm(tensor(np.ones((2, 3))), tensor(np.ones(3)), tensor(np.zeros(3)),
                         residual=tensor(np.ones(3)))

    def test_residual_parents_share_one_gradient(self):
        x, r = tensor([[1.0, 2.0, 4.0]], rg=True), tensor([[0.5, -1.0, 3.0]], rg=True)
        out = T.layer_norm(x, tensor(np.ones(3)), tensor(np.zeros(3)), residual=r)
        backward(tensor_sum(mul(out, tensor([[1.0, 2.0, 3.0]]))))
        assert x.grad is r.grad


class TestMaskedSoftmax:
    def test_uniform(self):
        out = T.masked_softmax(tensor([0.0, 0.0]), np.array([True, True]))
        assert np.allclose(out.data, [0.5, 0.5])

    def test_single_survivor(self):
        out = T.masked_softmax(tensor([5.0, -1e9]), np.array([True, False]))
        assert np.array_equal(out.data, [1.0, 0.0])

    def test_three_way_values(self):
        out = T.masked_softmax(tensor([1.0, 2.0, 3.0]), np.array([True] * 3))
        assert np.allclose(out.data, [0.09003, 0.24473, 0.66524], atol=1e-5)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        x = tensor(rng.normal(size=(5, 7)) * 10)
        mask = rng.random((5, 7)) > 0.3
        mask[:, 0] = True
        out = T.masked_softmax(x, mask)
        assert np.all(np.abs(out.data.sum(-1) - 1.0) <= 1e-12)
        assert np.all(out.data[~mask] == 0.0)

    def test_fully_masked_row_rejected(self):
        with pytest.raises(FullyMaskedError):
            T.masked_softmax(tensor([1.0, 2.0]), np.array([False, False]))

    def test_masked_values_cannot_leak(self):
        mask = np.array([True, False, True])
        a = T.masked_softmax(tensor([1.0, 2.0, 3.0]), mask)
        b = T.masked_softmax(tensor([1.0, 999.0, 3.0]), mask)
        assert np.array_equal(a.data, b.data)


class TestLayerNorm:
    def ln(self, x, eps=1e-5):
        d = np.asarray(x).shape[-1]
        return T.layer_norm(tensor(x), tensor(np.ones(d)), tensor(np.zeros(d)), eps)

    def test_constant_row_collapses_to_bias(self):
        assert np.allclose(self.ln([1.0, 1.0, 1.0]).data, [0, 0, 0], atol=1e-2)

    def test_already_normalized(self):
        out = self.ln([-1.0, 1.0], eps=1e-12)
        assert np.allclose(out.data, [-1.0, 1.0], atol=1e-6)

    def test_three_values(self):
        out = self.ln([1.0, 2.0, 3.0])
        assert np.allclose(out.data, [-1.2247, 0.0, 1.2247], atol=1e-3)

    def test_nonpositive_eps_rejected(self):
        with pytest.raises(ValueError):
            self.ln([1.0, 2.0], eps=0.0)


class TestGelu:
    def test_zero(self):
        assert T.gelu(tensor([0.0])).data[0] == 0.0

    def test_asymptote(self):
        assert abs(T.gelu(tensor([10.0])).data[0] - 10.0) < 1e-6

    def test_unit_value(self):
        assert T.gelu(tensor([1.0])).data[0] == pytest.approx(0.84119, abs=1e-4)


class TestDropout:
    def test_no_rng_or_zero_rate_returns_the_input(self):
        x = tensor(np.ones((3, 4)), rg=True)
        assert T.dropout(x, 0.5, None) is x
        assert T.dropout(x, 0.0, np.random.default_rng(0)) is x

    def test_keeps_scaled_entries_and_gradients(self):
        x = tensor(np.arange(1.0, 201.0).reshape(10, 20), rg=True)
        y = T.dropout(x, 0.25, np.random.default_rng(3))
        kept = y.data != 0.0
        assert 0 < kept.sum() < x.data.size
        assert np.array_equal(y.data[kept], x.data[kept] * (1.0 / 0.75))
        backward(tensor_sum(y))
        assert np.array_equal(x.grad, np.where(kept, 1.0 / 0.75, 0.0))


class TestCrossEntropy:
    def test_uniform_logits(self):
        logits = tensor(np.zeros((1, 1, 4)))
        loss = T.cross_entropy(logits, np.array([[2]]), ignore_id=0)
        assert loss.item() == pytest.approx(math.log(4), abs=1e-12)

    def test_confident_correct_prediction(self):
        logits = np.zeros((1, 1, 4))
        logits[0, 0, 3] = 50.0
        loss = T.cross_entropy(tensor(logits), np.array([[3]]), ignore_id=0)
        assert loss.item() < 1e-12

    def test_three_logit_value(self):
        loss = T.cross_entropy(tensor([[[1.0, 2.0, 3.0]]]), np.array([[2]]), ignore_id=9)
        assert loss.item() == pytest.approx(0.40761, abs=1e-4)

    def test_ignored_positions_do_not_contribute(self):
        logits = tensor(np.random.default_rng(0).normal(size=(1, 3, 4)), rg=True)
        loss = T.cross_entropy(logits, np.array([[2, 0, 3]]), ignore_id=0)
        backward(loss)
        assert np.all(logits.grad[0, 1] == 0.0)

    def test_all_ignored_rejected(self):
        with pytest.raises(ValueError):
            T.cross_entropy(tensor(np.zeros((1, 2, 4))), np.array([[0, 0]]), ignore_id=0)

    def test_gradient_bytes_match_the_fresh_buffer_formula(self):
        """The backward reuses the forward's buffer and applies the mask and the
        upstream scale in one multiply; the bytes, signed zeros included, are those
        of the formula on a fresh array."""
        x = np.random.default_rng(3).normal(size=(3, 5, 7))
        targets = np.array([[2, 0, 3, 6, 0], [0, 0, 1, 4, 5], [3, 2, 0, 6, 1]])
        logits = tensor(x, rg=True)
        backward(T.scale(T.cross_entropy(logits, targets, ignore_id=0), -2.0))

        valid = targets != 0
        z = x - x.max(axis=-1, keepdims=True)
        lse = np.log(np.exp(z).sum(axis=-1))
        want = np.exp(z - lse[..., None])
        want.reshape(-1, 7)[np.arange(15), np.where(valid, targets, 0).reshape(-1)] -= 1.0
        want *= valid[..., None]
        want *= -2.0 / valid.sum()
        assert logits.grad.tobytes() == want.tobytes()
        ignored = logits.grad[~valid]
        assert np.all(ignored == 0.0)
        assert np.signbit(ignored).any() and not np.signbit(ignored).all()

    def test_given_logits_are_reduced_whole_at_any_vocabulary(self, monkeypatch):
        """Logits passed in are one chunk however many `_CHUNK`s they span: over 11
        words at chunks of 4 the loss and the gradient have the bytes of the whole-row
        formula."""
        monkeypatch.setattr(T, "_CHUNK", 4)
        x = np.random.default_rng(4).normal(size=(3, 4, 11)) * 3.0
        targets = np.array([[4, 7, 0, 10], [8, 3, 0, 0], [1, 4, 10, 7]])
        logits = tensor(x, rg=True)
        loss = T.cross_entropy(logits, targets, ignore_id=0)
        backward(T.scale(loss, -2.0))

        x2, valid = x.reshape(-1, 11), (targets != 0).reshape(-1)
        rows, safe = np.arange(12), np.where(valid, targets.reshape(-1), 0)
        top = x2.max(axis=1)
        z = x2 - top[:, None]
        lse = np.log(np.exp(z).sum(axis=1))
        nll = np.where(valid, lse - (x2[rows, safe] - top), 0.0)
        assert loss.data.tobytes() == np.asarray(nll.sum() / valid.sum()).tobytes()
        want = np.exp(z - lse[:, None])
        want[rows, safe] -= 1.0
        want *= (valid * (-2.0 / valid.sum()))[:, None]
        assert logits.grad.tobytes() == want.reshape(x.shape).tobytes()

    def test_a_weight_needs_a_bias(self):
        x, w = tensor(np.zeros((1, 2, 3))), tensor(np.zeros((3, 5)))
        with pytest.raises(ShapeError, match="bias"):
            T.cross_entropy(x, np.array([[1, 2]]), 0, w)


class TestChunkedCrossEntropy:
    """cross_entropy over vocabulary chunks, and with the output projection fused in,
    against matmul then cross_entropy over whole rows. Chunks of 4 columns over an
    11-word vocabulary end in a partial chunk; the targets hold pads (0) and the first
    and last columns of chunks (3, 4, 7, 8, 10)."""
    vocab = 11
    targets = np.array([[4, 7, 0, 10], [8, 3, 0, 0], [1, 4, 10, 7]])

    def leaves(self, seed):
        rng = np.random.default_rng(seed)
        return rng.normal(size=(3, 4, 5)), rng.normal(size=(5, self.vocab)), rng.normal(size=self.vocab)

    def fused(self, x, w, b):
        return T.cross_entropy(x, self.targets, 0, w, b)

    def unfused(self, x, w, b):
        return T.cross_entropy(T.matmul(x, w, b), self.targets, 0)

    @staticmethod
    def loss_and_grads(build, leaves):
        ts = [tensor(a, rg=True) for a in leaves]
        loss = build(*ts)
        backward(T.scale(loss, -2.0))  # so the upstream gradient is not 1
        return [loss.data] + [t.grad for t in ts]

    def test_chunks_match_whole_rows(self, monkeypatch):
        leaves = self.leaves(0)
        whole = self.loss_and_grads(self.unfused, leaves)
        monkeypatch.setattr(T, "_CHUNK", 4)
        for build in (self.fused, self.unfused):
            for got, want in zip(self.loss_and_grads(build, leaves), whole):
                assert got.shape == want.shape
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_one_chunk_gives_the_bytes_of_matmul_then_cross_entropy(self):
        leaves = self.leaves(1)
        fused, unfused = (self.loss_and_grads(b, leaves) for b in (self.fused, self.unfused))
        assert [a.tobytes() for a in fused] == [a.tobytes() for a in unfused]

    def test_fused_grad_check_over_chunks(self, monkeypatch):
        monkeypatch.setattr(T, "_CHUNK", 4)
        x, w, b = (Tensor(a) for a in self.leaves(2))
        assert grad_check(lambda t: self.fused(t, w, b), x) < 1e-6
        assert grad_check(lambda t: self.fused(x, t, b), w) < 1e-6
        assert grad_check(lambda t: self.fused(x, w, t), b) < 1e-6

    def test_non_finite_chunk_logit_raises(self, monkeypatch):
        monkeypatch.setattr(T, "_CHUNK", 4)
        x, w, b = self.leaves(3)
        b[9] = -np.inf  # in the last chunk only; a softmax over it would still be finite
        with pytest.raises(NonFiniteError):
            self.fused(tensor(x), tensor(w), tensor(b))

    def test_shapes_checked(self):
        x, w, b = (tensor(a) for a in self.leaves(4))
        with pytest.raises(ShapeError, match="targets"):
            T.cross_entropy(x, self.targets.T, 0, w, b)
        with pytest.raises(ShapeError, match="weight"):
            T.cross_entropy(x, self.targets, 0, tensor(w.data.T), b)
        with pytest.raises(ShapeError, match="bias"):
            T.cross_entropy(x, self.targets, 0, w, tensor(b.data[:-1]))

    def test_peak_memory_stays_near_the_weight_gradient(self):
        """At the `bigvocab` output shape ([8, 16, 64] x [64, 50257]) one forward plus
        backward allocates at most 1.5x the weight's bytes, its gradient included; matmul
        then cross_entropy holds [8, 16, 50257] logits and more."""
        rng = np.random.default_rng(5)
        d, vocab = 64, 50257
        leaves = rng.normal(size=(8, 16, d)), rng.normal(size=(d, vocab)) * 0.02, np.zeros(vocab)
        targets = rng.integers(4, vocab, size=(8, 16))
        targets[:, 12:] = 0

        def peak(build):
            x, w, b = (tensor(a, rg=True) for a in leaves)
            tracemalloc.start()
            try:
                backward(build(x, w, b, targets))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        bound = 1.5 * leaves[1].nbytes
        assert peak(lambda x, w, b, t: T.cross_entropy(x, t, 0, w, b)) <= bound
        assert peak(lambda x, w, b, t: T.cross_entropy(T.matmul(x, w, b), t, 0)) > bound


class TestEmbeddingRowGrad:
    """A table's gradient is a RowGrad over the distinct ids looked up, with the bytes
    of the dense scatter `np.add.at(np.zeros(table.shape), ids, g)`. Id 0 stands for
    the pad: its upstream rows are zero, as a loss that ignores pads makes them."""
    shape = (50, 6)

    def lookups(self, table, *id_arrays):
        """A loss over a lookup of each id array, and the dense gradient of each."""
        rng = np.random.default_rng(len(id_arrays))
        loss, dense = None, []
        for ids in id_arrays:
            g = rng.normal(size=ids.shape + self.shape[1:])
            g[ids == 0] = 0.0
            term = tensor_sum(mul(T.embedding(table, ids), tensor(g)))
            loss = term if loss is None else T.add(loss, term)
            dense.append(np.zeros(self.shape))
            np.add.at(dense[-1], ids, g)
        return loss, dense

    def table(self):
        return tensor(np.random.default_rng(0).normal(size=self.shape), rg=True)

    def test_repeated_and_pad_ids_densify_to_the_dense_scatter(self):
        table = self.table()
        ids = np.array([[3, 7, 3, 0, 0], [7, 12, 3, 3, 0]])
        loss, (want,) = self.lookups(table, ids)
        backward(loss)
        g = table.stored_grad
        assert isinstance(g, T.RowGrad) and g.ids.tolist() == [0, 3, 7, 12]
        assert not g.rows[0].any()
        assert g.dense().tobytes() == want.tobytes()
        assert table.grad.tobytes() == want.tobytes()  # dense on read
        assert table.stored_grad is g  # and it stays a RowGrad

    def test_two_lookups_of_one_table_merge_to_the_dense_sum(self):
        table = self.table()
        loss, (a, b) = self.lookups(table, np.array([[5, 9, 5, 0]]), np.array([9, 2, 40, 2]))
        backward(loss)
        g = table.stored_grad
        assert isinstance(g, T.RowGrad) and g.ids.tolist() == [0, 2, 5, 9, 40]
        assert g.dense().tobytes() == (a + b).tobytes()

    def test_a_dense_gradient_densifies_the_row_form(self):
        table = self.table()
        loss, (want,) = self.lookups(table, np.array([4, 4, 11]))
        weights = np.random.default_rng(1).normal(size=self.shape)
        backward(T.add(loss, tensor_sum(mul(table, tensor(weights)))))
        assert isinstance(table.stored_grad, np.ndarray)
        assert table.stored_grad.tobytes() == (want + weights).tobytes()

    def test_a_lookup_into_a_computed_table_passes_a_dense_gradient_on(self):
        table = self.table()
        ids = np.array([1, 8, 1])
        loss, (want,) = self.lookups(T.scale(table, 2.0), ids)
        backward(loss)
        assert table.stored_grad.tobytes() == (want * 2.0).tobytes()


class TestBackward:
    def test_sum_gives_ones(self):
        w = tensor([1.0, 2.0, 3.0], rg=True)
        backward(tensor_sum(w))
        assert np.array_equal(w.grad, [1.0, 1.0, 1.0])

    def test_quadratic(self):
        w = tensor([1.0, 2.0], rg=True)
        backward(tensor_sum(mul(w, w)))
        assert np.array_equal(w.grad, [2.0, 4.0])

    def test_non_scalar_rejected(self):
        w = tensor([1.0, 2.0], rg=True)
        with pytest.raises(GraphError):
            backward(T.add(w, w))

    def test_double_backward_rejected(self):
        w = tensor([1.0], rg=True)
        loss = tensor_sum(w)
        backward(loss)
        with pytest.raises(GraphError):
            backward(loss)

    def test_grad_accumulates_through_shared_input(self):
        w = tensor([2.0], rg=True)
        backward(tensor_sum(T.add(mul(w, w), w)))
        assert np.array_equal(w.grad, [5.0])

    def test_nonfinite_output_rejected(self):
        big = tensor([1e308])
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
            T.add(big, big)


class TestGradCheck:
    def test_linear_exact(self):
        err = grad_check(tensor_sum, tensor([1.0, -2.0, 3.0]))
        assert err < 1e-10

    def test_gelu_chain(self):
        err = grad_check(lambda x: tensor_sum(T.gelu(x)), tensor([-2.0, 0.5, 3.0]))
        assert err < 1e-6

    def test_nan_gradient_is_reported(self):
        # A sum whose backward is NaN on the last two of three entries.
        def broken_sum(t):
            return T._result(np.asarray(t.data.sum()), (t,),
                             lambda g: (np.array([g, np.nan, np.nan]),))

        x = tensor([1.0, 2.0, 3.0], rg=True)
        assert math.isnan(grad_check_params(lambda: broken_sum(x), [x]))
        assert math.isnan(grad_check(broken_sum, x))

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_random_op_compositions(self, seed):
        rng = np.random.default_rng(seed)
        shape = (int(rng.integers(1, 4)), int(rng.integers(2, 5)))
        x = Tensor(rng.normal(size=shape))
        w = Tensor(rng.normal(size=(shape[1], 3)))
        gain = Tensor(rng.normal(size=3) + 2.0)
        bias = Tensor(rng.normal(size=3))
        mask = np.ones((shape[0], 3), dtype=bool)

        def f(t):
            h = T.gelu(T.matmul(t, w))
            h = T.layer_norm(h, gain, bias)
            h = T.masked_softmax(h, mask)
            return tensor_sum(mul(h, h))

        assert grad_check(f, x) < 1e-4


class TestDeterminism:
    def test_ops_bit_identical(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(4, 8))
        w = rng.normal(size=(8, 8))
        mask = np.ones((4, 8), dtype=bool)

        def run():
            h = T.matmul(Tensor(a), Tensor(w))
            h = T.masked_softmax(h, mask)
            h = T.gelu(h)
            return h.data.tobytes()

        assert run() == run()
