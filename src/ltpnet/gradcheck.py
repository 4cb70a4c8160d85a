"""Finite-difference verification of the hand-derived gradients.

Central differences with one fixed step, ``DEFAULT_EPS`` = 1e-5, against the
analytic backward pass. The relative error between analytic a and numeric n is
|a - n| / max(|a| + |n|, 1e-6), so zero-gradient parameters compare cleanly.

The differences are staged. The forward runs once and keeps each stage's
input (``model.Stage``); a nudged element of ``flat`` can change only its
owner stage and the stages after it. ``finite_difference_grads`` hands over
the nudges of a stage's span in runs of up to ``RUN_SIZE`` (both signs
count), each nudge as a copy of the nudged span. A run's copies, stacked
into a (K, n) flat, are K models (``ModelParams.over``). The owner stage
runs them once, from its kept input and without caches, and every stage
before the last then runs them once more, from the previous stage's
(K, B, ...) output. Each nudge's own slice goes through the last stage
(``pool+head`` or ``bypass+head``) and the loss alone, in one
``forward_batch`` per loss. An encoder layer is two stages, so a nudge of a
feed-forward or layer-norm weight never reruns that layer's attention.

The numeric gradient is the same vector, bit for bit, as nudging a full
forward (``finite_difference_grads`` over a plain loss, the generic
reference) gives. A stacked product gives each slice the bits of its 2-D
product, at every shape, one row or one column included, so every stacked
run is exact, one window or many. Only the head runs alone: the last stage
and every backward take one model. Nudges owned by the last stage run it
one at a time.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import ModelParams, build_model, forward_batch
from .rng import SeededRng
from .training import loss_and_gradients, mse_loss

DEFAULT_EPS = 1e-5
REL_ERR_FLOOR = 1e-6
# Values that ``finite_difference_grads`` hands its ``losses`` at most at once:
# the nudged spans whose models the stages before the head run stacked.
RUN_SIZE = 32


def finite_difference_grads(fn, params, losses=list) -> np.ndarray:
    """Numeric gradient of a loss w.r.t. ``params.flat``, packed the same way.

    ``params`` is a model or one of its ``stages``, whose ``flat`` is a view.
    ``fn`` must read the parameter arrays in place; each element of ``flat``
    is nudged up and down by ``DEFAULT_EPS`` and restored, and ``fn()`` is
    called at each nudge. ``losses`` maps a run of at most ``RUN_SIZE`` of
    those values, in call order, to their losses; by default the values are
    the losses.
    """
    flat = params.flat
    found = np.empty(2 * flat.size)  # the loss of each nudge, up and down alternating
    run, done = [], 0
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + DEFAULT_EPS
        run.append(fn())
        flat[i] = original - DEFAULT_EPS
        run.append(fn())
        flat[i] = original
        if len(run) == RUN_SIZE or i == flat.size - 1:
            found[done:done + len(run)] = losses(run)
            done += len(run)
            run = []
    return (found[0::2] - found[1::2]) / (2.0 * DEFAULT_EPS)


def staged_finite_difference_grads(model: ModelParams, windows, targets):
    """Numeric gradient of the MSE loss w.r.t. ``model.flat``, stage by stage."""
    targets = np.asarray(targets, dtype=np.float64)
    inputs = [np.asarray(windows, dtype=np.float64)]
    for stage in model.stages[:-1]:
        inputs.append(stage.forward(inputs[-1])[0])
    last = len(model.stages) - 1
    structure = model.structure()

    def loss(x):  # from the last stage's input
        return mse_loss(forward_batch(x, model, keep_cache=False, start=last)[0], targets)[0]

    def losses_after(k, start):  # the losses of a run of nudged copies of stage k's span
        def losses(spans):
            flats = np.tile(model.flat, (len(spans), 1))
            flats[:, start:start + len(spans[0])] = spans
            x = inputs[k]
            for stage in ModelParams.over(structure, flats).stages[k:last]:
                x = stage.forward(x)[0]
            return [loss(out) for out in x]

        return losses

    # each nudge of a stage's view reaches the model; the views tile ``flat`` in run order
    grads, start = [], 0
    for k, stage in enumerate(model.stages[:-1]):
        grads.append(finite_difference_grads(stage.flat.copy, stage, losses_after(k, start)))
        start += stage.flat.size
    grads.append(finite_difference_grads(lambda: loss(inputs[last]), model.stages[last]))
    return np.concatenate(grads)


class GradientCheck(NamedTuple):
    error: float  # the largest relative error
    index: int  # the element of ``flat`` where it occurs


def check_model_gradients(model: ModelParams, windows, targets) -> GradientCheck:
    """Compare backward_batch with staged finite differences of the MSE loss."""
    analytic = loss_and_gradients(windows, targets, model)[1].flat
    numeric = staged_finite_difference_grads(model, windows, targets)
    denom = np.maximum(np.abs(analytic) + np.abs(numeric), REL_ERR_FLOOR)
    errors = np.abs(analytic - numeric) / denom
    index = int(np.argmax(errors))  # the first NaN, if any
    return GradientCheck(float(errors[index]), index)


def _relu_masks(cache):
    """``act > 0`` of every ReLU block in a forward's caches, in run order."""
    if isinstance(cache, dict):
        if "act" in cache:
            yield cache["act"] > 0
        cache = list(cache.values())
    if isinstance(cache, (list, tuple)):
        for part in cache:
            yield from _relu_masks(part)


def straddles_relu_kink(model: ModelParams, windows, index: int) -> bool:
    """Whether any ReLU input changes sign between the forwards at element
    ``index`` of ``flat`` nudged up and down by ``DEFAULT_EPS``."""
    flat, masks = model.flat, []
    original = flat[index]
    for nudged in (original + DEFAULT_EPS, original - DEFAULT_EPS):
        flat[index] = nudged
        try:
            masks.append(list(_relu_masks(forward_batch(windows, model)[1])))
        finally:
            flat[index] = original
    return any(not np.array_equal(up, down) for up, down in zip(*masks))


@dataclass
class GradCheckCase:
    seed: int
    error: float
    # whether the worst element's ±eps forwards straddle a ReLU kink, where
    # a central difference is no derivative; reported, never exempted
    kink: bool = False


def composed_gradcheck_suite(n_seeds: int = 20, seed_base: int = 0) -> list:
    """The standing end-to-end configuration: 2 LSTM layers (hidden 4),
    one encoder layer (d_model 8, 2 heads), head width 4, 6 steps of 2
    features. Returns one ``GradCheckCase`` per seed."""
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
        error, index = check_model_gradients(model, windows, targets)
        kink = straddles_relu_kink(model, windows, index)
        cases.append(GradCheckCase(seed=seed, error=error, kink=kink))
    return cases
