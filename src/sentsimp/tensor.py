"""Dense float64 tensors with reverse-mode automatic differentiation.

Just enough operations for an encoder-decoder transformer: matmul,
masked softmax, layer norm, GeLU, embedding lookup, cross entropy.
Everything runs in float64 so finite-difference gradient checks are
decisive. All ops are deterministic: identical inputs give bit-identical
outputs.

Each op records one tape node, and the hot compositions are folded into
one: `matmul(x, w, bias)` is a linear layer, a single GEMM over x's rows
with the bias added in place; `layer_norm(x, gain, bias, residual=r)`
normalises x + r; and `cross_entropy(x, targets, ignore_id, w, bias)` is
the output projection and the loss together, run over vocabulary chunks
so the logits are never held whole. Backward functions never write into
the gradient they are given, since it may be shared with other nodes.

An embedding table's gradient is a `RowGrad`: the rows a lookup reached,
by sorted distinct id, where a dense `[V, d]` array would be mostly zeros
(a 50,257-row table gets under 0.3% of its rows from a batch). `backward`
stores it as it is in `Tensor.stored_grad`; `Tensor.grad` returns a dense
copy of it and leaves it stored as it was.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

import numpy as np

GELU_C = math.sqrt(2.0 / math.pi)
GELU_CUBIC = 0.044715
_CHUNK = 2048  # vocabulary columns per block of logits in cross_entropy


class NonFiniteError(ArithmeticError):
    """An operation produced NaN or Inf, which the contract forbids."""


class ShapeError(ValueError):
    pass


class GraphError(RuntimeError):
    pass


class FullyMaskedError(ValueError):
    """A softmax row had no unmasked position."""


class RowGrad:
    """The gradient of a table that is zero outside some rows: `ids`, the sorted
    distinct ids of those rows, and `rows`, their values. Its dense form puts `rows` into
    zeros of `shape`. Adding another RowGrad merges the two by id; adding an ndarray
    (either way round) densifies it first. Both give the bytes of the dense sum, since
    no stored row holds -0.0 (it is summed onto +0.0)."""

    __slots__ = ("ids", "rows", "shape")
    __array_ufunc__ = None  # so that ndarray + RowGrad calls RowGrad.__radd__

    def __init__(self, ids: np.ndarray, rows: np.ndarray, shape: tuple[int, ...]):
        self.ids, self.rows, self.shape = ids, rows, shape

    def dense(self) -> np.ndarray:
        out = np.zeros(self.shape)
        out[self.ids] = self.rows
        return out

    def __add__(self, other):
        if not isinstance(other, RowGrad):
            return self.dense() + other
        ids = np.union1d(self.ids, other.ids)
        rows = np.zeros((ids.size,) + self.shape[1:])
        rows[np.searchsorted(ids, self.ids)] = self.rows
        rows[np.searchsorted(ids, other.ids)] += other.rows
        return RowGrad(ids, rows, self.shape)

    __radd__ = __add__


class Tensor:
    """N-dimensional float64 value, optionally tracked for backprop."""

    __slots__ = ("data", "stored_grad", "requires_grad", "_parents", "_backward_fn",
                 "_backward_done")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        # ascontiguousarray would promote 0-d scalars to shape (1,)
        self.data = arr if arr.flags["C_CONTIGUOUS"] else np.ascontiguousarray(arr)
        # The gradient as `backward` left it: an ndarray, a RowGrad, or None.
        self.stored_grad: np.ndarray | RowGrad | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn: Callable | None = None
        self._backward_done = False

    @property
    def grad(self) -> np.ndarray | None:
        """dloss/dself as a dense array; a RowGrad is densified afresh on each read."""
        g = self.stored_grad
        return g.dense() if isinstance(g, RowGrad) else g

    @grad.setter
    def grad(self, value: np.ndarray | None) -> None:
        self.stored_grad = value

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _result(data: np.ndarray, parents: Sequence[Tensor], backward_fn: Callable) -> Tensor:
    if not np.isfinite(data).all():
        raise NonFiniteError("operation produced a non-finite value")
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward_fn = backward_fn
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient down to the shape it was broadcast from."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data

    def bw(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _result(out, (a, b), bw)


def scale(a: Tensor, c: float) -> Tensor:
    out = a.data * c

    def bw(g):
        return (g * c,)

    return _result(out, (a,), bw)


def matmul(a: Tensor, b: Tensor, bias: Tensor | None = None) -> Tensor:
    """a @ b, plus bias when given. A 2-D b (a weight matrix) takes one GEMM over
    a's rows, so neither direction builds a batched temporary."""
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(f"matmul needs >=2-d operands, got {a.shape} x {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} x {b.shape}")
    if b.data.ndim > 2:
        if bias is not None:
            raise ShapeError(f"matmul bias needs a 2-d right operand, got {b.shape}")
        out = np.matmul(a.data, b.data)

        def bw(g):
            ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
            gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
            return _unbroadcast(ga, a.data.shape), _unbroadcast(gb, b.data.shape)

        return _result(out, (a, b), bw)

    d_in, d_out = b.shape
    if bias is not None and bias.shape != (d_out,):
        raise ShapeError(f"matmul bias {bias.shape} does not fit {a.shape} x {b.shape}")
    a2 = a.data.reshape(-1, d_in)
    out = a2 @ b.data
    if bias is not None:
        out += bias.data

    def bw_2d(g):
        g2 = g.reshape(-1, d_out)
        grads = ((g2 @ b.data.T).reshape(a.data.shape), a2.T @ g2)
        return grads if bias is None else grads + (g2.sum(axis=0),)

    return _result(out.reshape(a.shape[:-1] + (d_out,)),
                   (a, b) if bias is None else (a, b, bias), bw_2d)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    out = a.data.reshape(shape)

    def bw(g):
        return (g.reshape(a.data.shape),)

    return _result(out, (a,), bw)


def transpose(a: Tensor, axes: tuple[int, ...]) -> Tensor:
    out = np.ascontiguousarray(np.transpose(a.data, axes))
    inverse = np.argsort(axes)

    def bw(g):
        return (np.transpose(g, inverse),)

    return _result(out, (a,), bw)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup table[ids]. The table's gradient is a RowGrad over the distinct ids,
    each row summed in index order onto +0.0 by `np.add.at`, as the dense scatter
    `np.add.at(np.zeros(table.shape), ids, g)` sums it, so the bytes are the same."""
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise ShapeError(f"embedding id out of range for table of {table.shape[0]} rows")
    out = table.data[ids]

    def bw(g):
        distinct, at = np.unique(ids.reshape(-1), return_inverse=True)
        rows = np.zeros((distinct.size,) + table.shape[1:])
        np.add.at(rows, at, g.reshape((-1,) + table.shape[1:]))
        return (RowGrad(distinct, rows, table.shape),)

    return _result(out, (table,), bw)


def masked_softmax(x: Tensor, mask: np.ndarray) -> Tensor:
    """Softmax over the last axis; positions where mask is False get exactly 0.

    The row max is taken over unmasked entries only, so values at masked
    positions cannot influence the output even at the bit level.
    """
    mask = np.broadcast_to(np.asarray(mask, dtype=bool), x.shape)
    if not mask.any(axis=-1).all():
        raise FullyMaskedError("softmax row with every position masked")
    shifted = np.where(mask, x.data, -np.inf)
    rowmax = shifted.max(axis=-1, keepdims=True)
    expo = np.where(mask, np.exp(shifted - rowmax), 0.0)
    y = expo / expo.sum(axis=-1, keepdims=True)

    def bw(g):
        inner = (g * y).sum(axis=-1, keepdims=True)
        return (y * (g - inner),)

    return _result(y, (x,), bw)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5, *,
               residual: Tensor | None = None) -> Tensor:
    """Normalize the last axis of x (plus residual, when given) to zero mean /
    unit variance, then affine."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    if residual is not None and residual.shape != x.shape:
        raise ShapeError(f"layer_norm residual {residual.shape} does not match {x.shape}")
    xs = x.data if residual is None else x.data + residual.data
    mu = xs.mean(axis=-1, keepdims=True)
    centered = xs - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
    out = xhat * gain.data + bias.data
    d = x.shape[-1]

    def bw(g):
        ggain = (g * xhat).reshape(-1, d).sum(axis=0)
        gbias = g.reshape(-1, d).sum(axis=0)
        gg = g * gain.data
        gx = inv * (gg - gg.mean(axis=-1, keepdims=True)
                    - xhat * (gg * xhat).mean(axis=-1, keepdims=True))
        return (gx, ggain, gbias) if residual is None else (gx, ggain, gbias, gx)

    return _result(out, (x, gain, bias) if residual is None else (x, gain, bias, residual), bw)


def gelu(x: Tensor) -> Tensor:
    """tanh-approximation GeLU: 0.5*x*(1 + tanh(c*(x + 0.044715*x^3)))."""
    x2 = x.data * x.data
    u = x2 * x.data
    u *= GELU_CUBIC
    u += x.data
    u *= GELU_C
    t = np.tanh(u, out=u)
    out = 0.5 * x.data * (1.0 + t)

    def bw(g):
        du = GELU_C * (1.0 + 3.0 * GELU_CUBIC * x2)
        dx = 0.5 * (1.0 + t) + 0.5 * x.data * (1.0 - t * t) * du
        return (g * dx,)

    return _result(out, (x,), bw)


def dropout(x: Tensor, rate: float, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout at `rate`; x itself when there is no rng, outside training."""
    if rng is None or rate == 0.0:
        return x
    keep = (rng.random(x.shape) >= rate).astype(np.float64) / (1.0 - rate)
    out = x.data * keep

    def bw(g):
        return (g * keep,)

    return _result(out, (x,), bw)


def cross_entropy(x: Tensor, targets: np.ndarray, ignore_id: int,
                  weight: Tensor | None = None, bias: Tensor | None = None) -> Tensor:
    """Mean negative log-likelihood over positions whose target != ignore_id.

    The logits are x itself, or with `weight` [d, V] and `bias` [V] the output
    projection x @ weight + bias, which is never built whole. Both passes run over
    `_CHUNK` vocabulary columns at a time: the forward keeps each row's running max,
    its rescaled sum of exps and its target logit (an online softmax); the backward
    recomputes each chunk's logits and turns them into softmax minus one-hot, written
    into the chunk only when the projection made it: given logits are read, never
    written. Given logits are one chunk, as is a projection of one chunk's columns,
    and then the arithmetic, and so every byte, is that of the whole-row formula.
    """
    targets = np.asarray(targets)
    if targets.shape != x.shape[:-1]:
        raise ShapeError(f"cross_entropy targets {targets.shape} do not fit inputs {x.shape}")
    valid = targets != ignore_id
    if not valid.any():
        raise ValueError("cross_entropy: every position is ignored")
    if weight is not None and (weight.data.ndim != 2 or weight.shape[0] != x.shape[-1]):
        raise ShapeError(f"cross_entropy weight {weight.shape} does not fit inputs {x.shape}")
    vocab = x.shape[-1] if weight is None else weight.shape[1]
    if (bias is None) != (weight is None) or bias is not None and bias.shape != (vocab,):
        raise ShapeError(f"cross_entropy takes a bias of {vocab} entries exactly when it "
                         f"takes a weight, got {None if bias is None else bias.shape}")
    if targets[valid].min() < 0 or targets[valid].max() >= vocab:
        raise ShapeError(f"target id out of range for vocab of {vocab}")
    x2 = x.data.reshape(-1, x.shape[-1])
    safe = np.where(valid, targets, 0).reshape(-1)
    step = vocab if weight is None else _CHUNK
    chunks = [(lo, min(lo + step, vocab)) for lo in range(0, vocab, step)]

    def logits(lo, hi):
        """The chunk's logits: x's own, or a fresh array the caller may write."""
        if weight is None:
            return x2
        c = x2 @ weight.data[:, lo:hi]
        c += bias.data[lo:hi]
        return c

    def hits(lo, hi):
        """The rows whose target lies in the chunk, and its column there."""
        rows = np.flatnonzero((safe >= lo) & (safe < hi))
        return rows, safe[rows] - lo

    picked = np.empty(len(x2))
    m = s = None
    for lo, hi in chunks:
        c = logits(lo, hi)
        if not np.isfinite(c).all():
            raise NonFiniteError("cross_entropy produced a non-finite logit")
        rows, cols = hits(lo, hi)
        picked[rows] = c[rows, cols]
        top = c.max(axis=1) if m is None else np.maximum(m, c.max(axis=1))
        z = c - top[:, None]
        total = np.exp(z, out=z).sum(axis=1)
        s = total if m is None else s * np.exp(m - top) + total
        m = top
    lse = np.log(s)
    nll = np.where(valid.reshape(-1), lse - (picked - m), 0.0)
    n = int(valid.sum())
    out = np.asarray(nll.sum() / n)

    def bw(g):
        row_scale = (valid.reshape(-1) * (g / n))[:, None]
        gx = None
        if weight is not None:
            gw, gb = np.empty(weight.shape), np.empty(vocab)
        for lo, hi in chunks:
            c = logits(lo, hi)
            c = np.subtract(c, m[:, None], out=None if weight is None else c)
            c -= lse[:, None]
            np.exp(c, out=c)
            c[hits(lo, hi)] -= 1.0
            c *= row_scale
            if weight is None:
                return (c.reshape(x.shape),)
            part = c @ weight.data[:, lo:hi].T
            gx = part if gx is None else np.add(gx, part, out=gx)
            gw[:, lo:hi] = x2.T @ c
            gb[lo:hi] = c.sum(axis=0)
        return gx.reshape(x.shape), gw, gb

    return _result(out, (x,) if weight is None else (x, weight, bias), bw)


def backward(loss: Tensor) -> None:
    """Populate .grad with dloss/dtensor for every requires_grad tensor. Gradients add up
    with `+`, so a table's RowGrads merge by id and meet a dense gradient densified; a
    node's backward function always gets a dense array."""
    if loss.data.ndim != 0:
        raise GraphError(f"backward needs a scalar, got shape {loss.shape}")
    if loss._backward_done:
        raise GraphError("backward already ran for this graph; rebuild the loss first")
    loss._backward_done = True

    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen or not node.requires_grad:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            stack.append((p, False))

    grads: dict[int, np.ndarray] = {id(loss): np.ones((), dtype=np.float64)}
    for node in reversed(topo):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        node.stored_grad = g if node.stored_grad is None else node.stored_grad + g
        if node._backward_fn is None:
            continue
        if isinstance(g, RowGrad):  # a lookup into a computed table
            g = g.dense()
        for parent, pg in zip(node._parents, node._backward_fn(g)):
            if not parent.requires_grad or pg is None:
                continue
            if id(parent) in grads:
                grads[id(parent)] = grads[id(parent)] + pg
            else:
                grads[id(parent)] = pg


def zero_grad(tensors: Iterable[Tensor]) -> None:
    for t in tensors:
        t.grad = None

