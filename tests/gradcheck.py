"""Finite-difference gradient checking for the autodiff tape.

Only the tests use it: criterion 2 checks a whole model with `grad_check_params`,
and the op tests check single inputs with `grad_check`.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from sentsimp.tensor import Tensor, backward, zero_grad


def _relative_error(analytic: np.ndarray, numeric: np.ndarray) -> np.ndarray:
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return np.abs(analytic - numeric) / denom


def grad_check(f: Callable[[Tensor], Tensor], x: Tensor, h: float = 1e-5) -> float:
    """Max relative error between analytic grad of f at x and central differences."""
    xt = Tensor(x.data.copy(), requires_grad=True)
    return grad_check_params(lambda: f(xt), [xt], h)


def grad_check_params(loss_fn: Callable[[], Tensor], params: Sequence[Tensor],
                      h: float = 1e-5, max_evals: int | None = None,
                      seed: int = 0) -> float:
    """Gradient check over many parameter tensors at once.

    When max_evals caps the work, coordinates are subsampled with at least
    two probes per tensor so every parameter gets covered.
    """
    zero_grad(params)
    backward(loss_fn())
    analytic = [p.grad.reshape(-1).copy() for p in params]

    total = sum(p.data.size for p in params)
    rng = np.random.default_rng(seed)
    flags = [p.requires_grad for p in params]
    for p in params:
        p.requires_grad = False
    try:
        worst = 0.0
        for p, a in zip(params, analytic):
            size = p.data.size
            if max_evals is None or max_evals >= total:
                idxs = np.arange(size)
            else:
                k = min(size, max(2, int(round(max_evals * size / total))))
                idxs = rng.choice(size, size=k, replace=False)
            flat = p.data.reshape(-1)
            for i in idxs:
                orig = flat[i]
                flat[i] = orig + h
                plus = float(loss_fn().data)
                flat[i] = orig - h
                minus = float(loss_fn().data)
                flat[i] = orig
                numeric = (plus - minus) / (2.0 * h)
                # np.maximum, unlike max, keeps a NaN error.
                worst = np.maximum(worst, _relative_error(a[i], numeric))
        return float(worst)
    finally:
        for p, flag in zip(params, flags):
            p.requires_grad = flag
