"""Finite-difference verification of the hand-derived gradients.

Central differences with one fixed step, ``DEFAULT_EPS`` = 1e-5, against the
analytic backward pass. The relative error between analytic a and numeric n is
|a - n| / max(|a| + |n|, 1e-6), so zero-gradient parameters compare cleanly.

The differences are staged. The forward runs once and keeps each stage's
input (``model.Stage``); a nudged element of ``flat`` can change only its
owner stage and the stages after it, so each loss evaluation reruns just
those, from the kept input, without caches. An encoder layer is two stages,
so a nudge of a feed-forward or layer-norm weight reruns that layer's
feed-forward sub-block and what follows, never its attention. The numeric
gradient is the same vector, bit for bit, as nudging a full forward
(``finite_difference_grads`` over a plain loss, the generic reference) gives.
"""

from dataclasses import dataclass

import numpy as np

from .model import ModelParams, build_model, forward_batch
from .rng import SeededRng
from .training import loss_and_gradients, mse_loss

DEFAULT_EPS = 1e-5
REL_ERR_FLOOR = 1e-6


def finite_difference_grads(loss_fn, params) -> np.ndarray:
    """Numeric gradient of ``loss_fn()`` w.r.t. ``params.flat``, packed the same way.

    ``params`` is a model or one of its ``stages``, whose ``flat`` is a view.
    ``loss_fn`` must read the parameter arrays in place; each element of
    ``flat`` is nudged up and down by ``DEFAULT_EPS`` and restored.
    """
    flat = params.flat
    grads = np.zeros_like(flat)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + DEFAULT_EPS
        up = loss_fn()
        flat[i] = original - DEFAULT_EPS
        down = loss_fn()
        flat[i] = original
        grads[i] = (up - down) / (2.0 * DEFAULT_EPS)
    return grads


def staged_finite_difference_grads(model: ModelParams, windows, targets):
    """Numeric gradient of the MSE loss w.r.t. ``model.flat``, stage by stage."""
    targets = np.asarray(targets, dtype=np.float64)
    inputs = [np.asarray(windows, dtype=np.float64)]
    for stage in model.stages[:-1]:
        inputs.append(stage.forward(inputs[-1])[0])

    def loss_from(k):  # reruns stages k onward from their kept input
        return lambda: mse_loss(forward_batch(inputs[k], model, keep_cache=False, start=k)[0],
                                targets)[0]

    # each nudge of a stage's view reaches the model; the views tile ``flat`` in run order
    return np.concatenate([
        finite_difference_grads(loss_from(k), stage) for k, stage in enumerate(model.stages)
    ])


def check_model_gradients(model: ModelParams, windows, targets):
    """Compare backward_batch with staged finite differences of the MSE loss."""
    analytic = loss_and_gradients(windows, targets, model)[1].flat
    numeric = staged_finite_difference_grads(model, windows, targets)
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
