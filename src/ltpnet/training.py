"""Loss, optimizers, the mini-batch training loop, and hyperparameter search.

Training follows the usual pattern: shuffle the training windows each epoch
(seeded), walk mini-batches (final partial batch kept), backpropagate through
the encoder and then the LSTM, clip the global gradient norm, and step the
optimizer. A chronological tail of the training split (15% by default) is
held out for validation-driven early stopping; the parameters from the best
validation epoch are the ones reported. Training stops at the first batch
whose loss or gradient norm is not finite, before the optimizer applies it,
and reports that it diverged. A step's forward caches are freed before the
optimizer steps and its gradients before the next batch's forward pass, so
one step's buffers never overlap the next's. Validation and test passes
predict without caches (``forward_batch(..., keep_cache=False)``).

SGD applies the LSTM learning rate to LSTM weights and the transformer
learning rate to encoder and head weights. The adaptive-momentum optimizer
relaxes its momentum factor toward a ceiling once per epoch:
mu <- mu + rate * (mu_target - mu).
"""

import itertools
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from . import pso as P
from .model import ModelParams, backward_batch, build_model, forward_batch
from .preprocessing import SplitSpec, WindowedDataset, invert_standardization
from .metrics import EvalReport, evaluate
from .ops import check_fields, declared, mean
from .rng import SeededRng

DIVERGED_FITNESS = 1e18


def mse_loss(pred, target):
    """Mean squared error and its gradient w.r.t. the predictions."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {target.shape}")
    if pred.size == 0:
        raise ValueError("cannot compute a loss over zero samples")
    err = pred - target
    return float(mean(err * err)), (2.0 / pred.size) * err


@dataclass
class TrainConfig:
    lstm_lr: float = declared(1e-3, gt=0)
    transformer_lr: float = declared(1e-4, gt=0)
    batch_size: int = declared(64, ge=1)
    epochs: int = declared(100, ge=0)
    iterations_per_epoch: int = declared(1000, ge=1)
    patience: int = declared(10, ge=1)
    min_delta: float = declared(1e-9, ge=0)
    optimizer: str = declared("sgd", choices=("sgd", "adam", "adaptive-momentum"))
    adam_lr: float = declared(1e-3, gt=0)
    adam_beta1: float = declared(0.9, ge=0, lt=1)
    adam_beta2: float = declared(0.999, ge=0, lt=1)
    adam_eps: float = declared(1e-8, gt=0)
    momentum_lr: float = declared(1e-3, gt=0)
    momentum_init: float = declared(0.9, ge=0, lt=1)
    momentum_update_rate: float = declared(0.1, ge=0, le=1)
    momentum_target: float = declared(0.99, ge=0, lt=1)
    grad_clip_norm: float = declared(5.0, ge=0)  # 0: no clipping
    val_fraction: float = declared(0.15, gt=0, lt=1)
    lstm_layers: int = declared(2, ge=0)
    head_width: int = declared(64, ge=1)
    seed: int = declared(0, ge=0)

    def __post_init__(self):
        check_fields(self, "train")


@dataclass
class TrainReport:
    train_losses: list
    val_losses: list
    stopped_epoch: int
    best_epoch: int
    diverged: bool
    train_mse_initial: float | None  # None when train() skipped the pass
    train_mse_final: float | None
    wall_time_s: float
    params: ModelParams
    used_train_indices: np.ndarray

    @property
    def best_val_loss(self) -> float:
        """The validation loss of the epoch whose weights were restored; +inf
        when no epoch finished or none scored below +inf (a NaN never does)."""
        return self.val_losses[self.best_epoch - 1] if self.best_epoch else math.inf

    def summary(self) -> dict:
        return {
            "train_losses": [float(v) for v in self.train_losses],
            "val_losses": [float(v) for v in self.val_losses],
            "stopped_epoch": self.stopped_epoch,
            "best_epoch": self.best_epoch,
            "diverged": self.diverged,
            "train_mse_initial": self.train_mse_initial,
            "train_mse_final": self.train_mse_final,
        }


# ---------------------------------------------------------------------------
# optimizers
# ---------------------------------------------------------------------------

class SgdOptimizer:
    """Plain gradient descent with per-component learning rates."""

    def __init__(self, lstm_lr=1e-3, transformer_lr=1e-4):
        self.lstm_lr = lstm_lr
        self.transformer_lr = transformer_lr

    def step(self, model: ModelParams, grads: ModelParams):
        n = model.lstm_size
        model.flat[:n] -= self.lstm_lr * grads.flat[:n]
        model.flat[n:] -= self.transformer_lr * grads.flat[n:]

    def advance_epoch(self):
        pass


class AdamOptimizer:
    def __init__(self, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = 0.0
        self.v = 0.0

    def step(self, model: ModelParams, grads: ModelParams):
        self.t += 1
        g = grads.flat
        self.m = self.beta1 * self.m + (1 - self.beta1) * g
        self.v = self.beta2 * self.v + (1 - self.beta2) * g * g
        m_hat = self.m / (1 - self.beta1**self.t)
        v_hat = self.v / (1 - self.beta2**self.t)
        model.flat -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def advance_epoch(self):
        pass


class AdaptiveMomentumOptimizer:
    """Heavy-ball updates whose momentum relaxes toward a ceiling per epoch."""

    def __init__(self, lr=1e-3, mu=0.9, update_rate=0.1, mu_target=0.99):
        self.lr = lr
        self.mu = mu
        self.update_rate = update_rate
        self.mu_target = mu_target
        self.velocity = 0.0

    def step(self, model: ModelParams, grads: ModelParams):
        self.velocity = self.mu * self.velocity - self.lr * grads.flat
        model.flat += self.velocity

    def advance_epoch(self):
        self.mu = min(
            self.mu + self.update_rate * (self.mu_target - self.mu), self.mu_target
        )


def make_optimizer(cfg: TrainConfig, hp: P.HyperparamPoint):
    """The configured optimizer; SGD takes its component rates from ``hp``."""
    if cfg.optimizer == "sgd":
        return SgdOptimizer(hp.lstm_lr, hp.transformer_lr)
    if cfg.optimizer == "adam":
        return AdamOptimizer(cfg.adam_lr, cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps)
    return AdaptiveMomentumOptimizer(
        cfg.momentum_lr, cfg.momentum_init, cfg.momentum_update_rate, cfg.momentum_target
    )


def clip_gradients(grads: ModelParams, max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most ``max_norm``."""
    total = float(np.linalg.norm(grads.flat))
    if total > max_norm > 0:
        grads.flat *= max_norm / total
    return total


class EarlyStopping:
    """Patience counter over validation losses.

    The best epoch tracks any strict improvement; the patience streak resets
    only on improvements larger than ``min_delta``.
    """

    def __init__(self, patience: int, min_delta: float = 1e-9):
        if patience < 1:
            raise ValueError(f"patience must be >= 1, got {patience}")
        self.patience = patience
        self.min_delta = min_delta
        self.best_value = math.inf
        self.best_epoch = 0
        self.streak = 0

    def update(self, epoch: int, value: float) -> bool:
        """Record epoch (1-based) validation loss; True means stop now."""
        improved_enough = value < self.best_value - self.min_delta
        if value < self.best_value:
            self.best_value = value
            self.best_epoch = epoch
        self.streak = 0 if improved_enough else self.streak + 1
        return self.streak >= self.patience


def _batched_predictions(dataset: WindowedDataset, indices, model, batch=256):
    preds = np.empty(len(indices))
    for start in range(0, len(indices), batch):
        chunk = indices[start : start + batch]
        preds[start : start + len(chunk)], _ = forward_batch(
            dataset.features[chunk], model, keep_cache=False
        )
    return preds


def dataset_mse(dataset: WindowedDataset, indices, model) -> float:
    preds = _batched_predictions(dataset, indices, model)
    loss, _ = mse_loss(preds, dataset.targets[indices])
    return loss


def loss_and_gradients(windows, targets, model: ModelParams):
    """MSE of one batch and its gradients, packed like ``model.flat``.

    The forward caches live only inside this call: they are gone by the time
    the caller clips or applies the gradients.
    """
    preds, caches = forward_batch(windows, model)
    loss, d_pred = mse_loss(preds, targets)
    return loss, backward_batch(d_pred, caches, model)


def _train_step(model, opt, windows, targets, clip_norm) -> tuple:
    """Clip, check and apply one batch's gradients. Returns (loss, stepped).

    ``stepped`` is False when the loss or the pre-clip gradient norm is not
    finite; the optimizer then does not step. The gradients are gone when
    this returns, before the next batch's forward pass.
    """
    loss, grads = loss_and_gradients(windows, targets, model)
    norm = clip_gradients(grads, clip_norm)
    if not (math.isfinite(loss) and math.isfinite(norm)):
        # clipping cannot tame a NaN norm; stop before the step applies it
        return loss, False
    opt.step(model, grads)
    return loss, True


def carve_validation(train_indices: np.ndarray, fraction: float):
    """Chronological tail of the training indices becomes validation."""
    n = len(train_indices)
    if n < 2:
        raise ValueError(f"need at least 2 training windows, got {n}")
    n_val = max(1, int(math.floor(fraction * n)))
    return train_indices[: n - n_val], train_indices[n - n_val :]


def train(
    dataset: WindowedDataset,
    split: SplitSpec,
    hp: P.HyperparamPoint,
    cfg: TrainConfig,
    rng: SeededRng | None = None,
    init_rng: SeededRng | None = None,
    shuffle_rng: SeededRng | None = None,
    lstm_enabled: bool = True,
    transformer_enabled: bool = True,
    *,
    measure_train_mse: bool = True,
) -> TrainReport:
    """Mini-batch training with early stopping on a held-out tail.

    ``measure_train_mse=False`` skips the MSE passes over the training carve
    before and after training; the report then holds None for both. The
    searches, which read only the validation losses, train their proxies so.
    """
    if len(split.train) == 0:
        raise ValueError("empty training split")
    base = rng or SeededRng(cfg.seed)
    init_rng = init_rng or base.split(1)
    shuffle_rng = shuffle_rng or base.split(2)

    model = build_model(
        n_features=dataset.n_features,
        lstm_hidden=hp.lstm_hidden,
        lstm_layers=cfg.lstm_layers,
        transformer_layers=hp.transformer_layers,
        attention_heads=hp.attention_heads,
        d_model=hp.d_model,
        head_width=cfg.head_width,
        lstm_enabled=lstm_enabled,
        transformer_enabled=transformer_enabled,
        rng=init_rng,
    )
    opt = make_optimizer(cfg, hp)

    inner_train, inner_val = carve_validation(split.train, cfg.val_fraction)
    stopper = EarlyStopping(cfg.patience, cfg.min_delta)
    train_losses, val_losses = [], []
    used = set()
    best_flat = model.flat.copy()
    started = time.perf_counter()
    initial_mse = dataset_mse(dataset, inner_train, model) if measure_train_mse else None

    stopped_epoch = 0
    diverged = False
    for epoch in range(1, cfg.epochs + 1):
        stopped_epoch = epoch
        order = inner_train[shuffle_rng.permutation(len(inner_train))]
        n_batches = min(
            cfg.iterations_per_epoch,
            math.ceil(len(inner_train) / cfg.batch_size),
        )
        epoch_sse = 0.0
        epoch_count = 0
        for b in range(n_batches):
            batch_idx = order[b * cfg.batch_size : (b + 1) * cfg.batch_size]
            used.update(int(i) for i in batch_idx)
            loss, stepped = _train_step(
                model, opt, dataset.features[batch_idx], dataset.targets[batch_idx],
                cfg.grad_clip_norm,
            )
            if not stepped:
                diverged = True
                break
            epoch_sse += loss * len(batch_idx)
            epoch_count += len(batch_idx)
        if diverged:
            break
        opt.advance_epoch()
        train_losses.append(epoch_sse / epoch_count)
        val_loss = dataset_mse(dataset, inner_val, model)
        val_losses.append(val_loss)
        if val_loss < stopper.best_value:
            best_flat[...] = model.flat
        if stopper.update(epoch, val_loss):
            break

    model.flat[...] = best_flat
    final_mse = dataset_mse(dataset, inner_train, model) if measure_train_mse else None
    return TrainReport(
        train_losses=train_losses,
        val_losses=val_losses,
        stopped_epoch=stopped_epoch,
        best_epoch=stopper.best_epoch,
        diverged=diverged,
        train_mse_initial=initial_mse,
        train_mse_final=final_mse,
        wall_time_s=time.perf_counter() - started,
        params=model,
        used_train_indices=np.array(sorted(used), dtype=np.intp),
    )


def evaluate_on_indices(
    dataset: WindowedDataset, indices, model: ModelParams
) -> EvalReport:
    """Metrics over the given windows, in de-standardized target units."""
    preds = _batched_predictions(dataset, indices, model)
    stats = dataset.target_stats()
    return evaluate(
        invert_standardization(preds, stats),
        invert_standardization(dataset.targets[indices], stats),
        units=dataset.target_name,
    )


# ---------------------------------------------------------------------------
# grid search, swarm search
# ---------------------------------------------------------------------------

GRID = {
    "lr": (1e-3, 1e-4),
    "batch_size": (32, 64),
    "transformer_layers": (4, 6),
}


def grid_search(dataset: WindowedDataset, split: SplitSpec, hp: P.HyperparamPoint,
                cfg: TrainConfig):
    """Train every lr x batch x layers cell of ``GRID``; rows sorted by ``best_val_loss``.

    The grid learning rate drives the LSTM component. The 8 fixed cells run
    in sorted order, cell i with ``SeededRng(cfg.seed).split(i)``.
    """
    rng = SeededRng(cfg.seed)
    rows = []
    for i, (lr, batch, layers) in enumerate(sorted(itertools.product(*GRID.values()))):
        cell_hp = replace(hp, lstm_lr=lr, transformer_layers=layers)
        cell_cfg = replace(cfg, batch_size=batch)
        result = train(
            dataset, split, cell_hp, cell_cfg, rng=rng.split(i), measure_train_mse=False
        )
        rows.append(
            {
                "lr": lr,
                "batch_size": batch,
                "transformer_layers": layers,
                "val_loss": result.best_val_loss,
            }
        )
    rows.sort(key=lambda r: r["val_loss"])
    return rows


@dataclass
class SearchBudget:
    """Truncated training used to score one hyperparameter candidate."""

    epochs: int = declared(5, ge=1)
    patience: int = declared(2, ge=1)
    fitness_seed: int = declared(1234, ge=0)

    def __post_init__(self):
        check_fields(self, "budget")


def pso_hyperparameter_search(
    dataset: WindowedDataset,
    split: SplitSpec,
    space: P.SearchSpace,
    swarm_cfg: P.SwarmConfig,
    budget: SearchBudget,
    cfg: TrainConfig,
):
    """Swarm-search the model configuration space.

    Fitness of a position: decode it, train with the proxy budget on the
    training split's own train/validation carve, and return the validation
    MSE of the epoch whose weights ``train`` restores (``best_val_loss``).
    Returns (best HyperparamPoint, best fitness, history).
    """
    proxy = replace(cfg, epochs=budget.epochs, patience=budget.patience)

    def fitness(x):
        hp = P.decode_position(x, space)
        result = train(
            dataset, split, hp, proxy, rng=SeededRng(budget.fitness_seed),
            measure_train_mse=False,
        )
        value = result.best_val_loss
        return value if math.isfinite(value) else DIVERGED_FITNESS

    objective = P.Objective(name="proxy-validation-mse", dim=6, fn=fitness)
    run_cfg = replace(swarm_cfg, bounds=space.bounds())
    best_position, best_value, history = P.run(run_cfg, objective)
    return P.decode_position(best_position, space), best_value, history
