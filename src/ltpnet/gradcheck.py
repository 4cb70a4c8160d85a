"""Finite-difference verification of the hand-derived gradients.

Central differences with eps=1e-5 against the analytic backward pass. The
relative error between analytic value a and numeric value n is
|a - n| / max(|a| + |n|, 1e-6), so zero-gradient parameters compare cleanly.
"""

from dataclasses import dataclass

import numpy as np

from .model import ModelParams, build_model, forward_batch
from .rng import SeededRng
from .training import loss_and_gradients, mse_loss

DEFAULT_EPS = 1e-5
REL_ERR_FLOOR = 1e-6


def finite_difference_grads(loss_fn, params: ModelParams, eps: float = DEFAULT_EPS) -> np.ndarray:
    """Numeric gradient of ``loss_fn()`` w.r.t. ``params.flat``, packed the same way.

    ``loss_fn`` must read the parameter arrays in place; each element of
    ``flat`` is nudged up and down by ``eps`` and restored.
    """
    flat = params.flat
    grads = np.zeros_like(flat)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        up = loss_fn()
        flat[i] = original - eps
        down = loss_fn()
        flat[i] = original
        grads[i] = (up - down) / (2.0 * eps)
    return grads


def check_model_gradients(model: ModelParams, windows, targets, eps=DEFAULT_EPS):
    """Compare backward_batch with finite differences of the MSE loss."""
    windows = np.asarray(windows, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)

    def loss_fn():
        preds, _ = forward_batch(windows, model, keep_cache=False)
        loss, _ = mse_loss(preds, targets)
        return loss

    analytic = loss_and_gradients(windows, targets, model)[1].flat
    numeric = finite_difference_grads(loss_fn, model, eps)
    denom = np.maximum(np.abs(analytic) + np.abs(numeric), REL_ERR_FLOOR)
    return float(np.max(np.abs(analytic - numeric) / denom))


@dataclass
class GradCheckCase:
    seed: int
    error: float


def composed_gradcheck_suite(n_seeds: int = 20, seed_base: int = 0) -> list:
    """The standing end-to-end configuration: 2 LSTM layers (hidden 4),
    one encoder layer (d_model 8, 2 heads), head width 4, 6 steps of 2
    features. Returns per-seed max relative errors."""
    cases = []
    for s in range(n_seeds):
        seed = seed_base + s
        rng = SeededRng(seed)
        model = build_model(
            n_features=2,
            lookback=6,
            lstm_hidden=4,
            lstm_layers=2,
            transformer_layers=1,
            attention_heads=2,
            d_model=8,
            head_width=4,
            rng=rng.split(0),
        )
        data_rng = rng.split(1)
        windows = data_rng.uniform(-1.0, 1.0, (2, 6, 2))
        targets = data_rng.uniform(-1.0, 1.0, 2)
        cases.append(GradCheckCase(seed=seed, error=check_model_gradients(model, windows, targets)))
    return cases
