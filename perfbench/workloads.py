"""The benchmark's three workloads, one per use of the system.

Each workload prepares its inputs from the run's seed, then runs whole
rounds of the same operations. A round returns its phase wall times and its
operation counts; ``check`` verifies the program's outputs after the rounds
and returns a list of problems (empty when every output is correct).

The workloads reach the program only through the public functions of its
modules, imported as modules so that the tracer's rebinding takes effect.
"""

import csv
import math
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from ltpnet import checkpoint, gradcheck, harness, metrics, model, pso, training
from ltpnet.rng import SeededRng

GRADCHECK_TOLERANCE = 1e-4
# Criterion 01 of the acceptance suite checks these seeds. Seeds outside the
# set can land a finite difference on a ReLU kink and fail the tolerance
# (see CHANGES.md), so the gradcheck workload draws its seeds from here.
GRADCHECK_GATE_SEEDS = 20


def write_series(path: Path, seed: int, n_rows: int) -> None:
    """Hourly demand-like series: target plus temperature and irradiance.

    A daily and a weekly cycle with seeded phases, bounded uniform noise (so
    the three-sigma filter removes no row and the window count is exact),
    and about 1% blank feature cells for the imputation step.
    """
    rng = np.random.default_rng(seed)
    t = np.arange(n_rows, dtype=np.float64)
    day, week = rng.uniform(0.0, 2.0 * np.pi, 2)
    daily = np.sin(2.0 * np.pi * t / 24.0 + day)
    weekly = np.sin(2.0 * np.pi * t / 168.0 + week)
    target = 1.0 + 0.8 * daily + 0.3 * weekly + rng.uniform(-0.1, 0.1, n_rows)
    temperature = 0.6 * np.roll(daily, 2) + 0.2 * weekly + rng.uniform(-0.1, 0.1, n_rows)
    irradiance = np.maximum(daily, 0.0) + rng.uniform(-0.05, 0.05, n_rows)
    blank = rng.random((n_rows, 2)) < 0.01
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["target", "feature_1", "feature_2"])
        for i in range(n_rows):
            writer.writerow([
                repr(float(target[i])),
                "" if blank[i, 0] else repr(float(temperature[i])),
                "" if blank[i, 1] else repr(float(irradiance[i])),
            ])


def rows_for(n_windows: int, lookback: int) -> int:
    return n_windows + lookback  # horizon 1


def _spec(csv_path, seed, lookback, out_dir, **fields):
    return harness.ExperimentSpec(
        dataset={"csv": {
            "path": str(csv_path),
            "target_column": "target",
            "feature_columns": ["feature_1", "feature_2"],
        }},
        variant="full",
        optimizer="sgd",
        lookback=lookback,
        seeds={"data": seed, "init": seed + 1, "shuffle": seed + 2, "swarm": seed + 3},
        output_dir=str(out_dir),
        **fields,
    )


def _timed(fn, *args):
    started = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - started


def _forecast(report, out_dir, repeats):
    """Reload the run's checkpoint and predict every window, ``repeats``
    times, so that a small model's forecast is long enough to time."""
    started = time.perf_counter()
    everything = np.arange(report.dataset.n_windows)
    for _ in range(repeats):
        params = checkpoint.load_checkpoint(Path(out_dir) / "checkpoints" / "model.ckpt")
        evaluated = training.evaluate_on_indices(report.dataset, everything, params)
    return params, evaluated, time.perf_counter() - started


def _finite_eval(e) -> bool:
    return all(math.isfinite(v) for v in (e.mae, e.rmse, e.mse))


class _Rounds:
    """Shared bookkeeping: the last round's outputs and report bytes."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.report_bytes = set()

    def _remember(self, report):
        path = self.out_dir / "reports" / "run_report.json"
        self.report_bytes.add(path.read_bytes())
        self.report = report

    def _reproducible(self) -> list:
        if len(self.report_bytes) != 1:
            return [f"{len(self.report_bytes)} distinct run_report.json across rounds"]
        return []


class Reference(_Rounds):
    """The paper's reference model trained with fixed hyperparameters, then
    reloaded from its checkpoint to forecast every window."""

    name = "reference"
    phases = ("main", "forecast")
    PARAMETERS = 5_078_913
    SIZES = {
        # 108 windows: 75 train (64 stepped, 11 validation), 33 test
        "full": {"windows": 108, "lookback": 24, "batch": 64, "epochs": 3, "hp": {}},
        "tiny": {
            "windows": 40, "lookback": 8, "batch": 8, "epochs": 1,
            "hp": {"lstm_hidden": 8, "transformer_layers": 1, "attention_heads": 2, "d_model": 8},
        },
    }

    def __init__(self, seed: int, size: str, out_dir: Path):
        super().__init__(out_dir)
        self.seed, self.size = seed, size
        c = self.c = self.SIZES[size]
        out_dir.mkdir(parents=True, exist_ok=True)
        csv_path = out_dir / "series.csv"
        write_series(csv_path, seed, rows_for(c["windows"], c["lookback"]))
        self.spec = _spec(
            csv_path, seed, c["lookback"], out_dir,
            hyperparameter_source="fixed",
            hyperparams=dict(c["hp"]),
            train={"epochs": c["epochs"], "batch_size": c["batch"], "patience": c["epochs"]},
        )

    def _stepped(self, report):
        """Training windows stepped per epoch and steps per epoch."""
        inner, _ = training.carve_validation(report.split.train, training.TrainConfig().val_fraction)
        return inner.size, math.ceil(inner.size / self.c["batch"])

    def round(self) -> dict:
        report, main_s = _timed(harness.run_experiment, self.spec)
        self._remember(report)
        self.params, self.forecast, forecast_s = _forecast(report, self.out_dir, 1)
        windows, steps = self._stepped(report)
        losses = report.training["train_losses"]
        failed_steps = steps * sum(not math.isfinite(v) for v in losses)
        n = report.dataset.n_windows
        return {
            "main_s": main_s,
            "forecast_s": forecast_s,
            "work": windows * len(losses),
            "forecast_windows": n,
            "attempted": steps * len(losses) + n,
            "failed": failed_steps + (0 if _finite_eval(self.forecast) else n),
        }

    def check(self) -> list:
        report, params, problems = self.report, self.params, self._reproducible()
        ds, test = report.dataset, report.split.test
        if ds.n_windows != self.c["windows"]:
            problems.append(f"{ds.n_windows} windows, expected {self.c['windows']}")
        if self.size == "full" and report.efficiency.parameter_count != self.PARAMETERS:
            problems.append(f"{report.efficiency.parameter_count} parameters")
        if report.training["stopped_epoch"] != self.c["epochs"]:
            problems.append(f"stopped at epoch {report.training['stopped_epoch']}")
        if report.audit["test_overlap_count"]:
            problems.append("training touched test windows")
        if self.forecast.n != ds.n_windows:
            problems.append(f"forecast covered {self.forecast.n} windows")

        # Report metrics, recomputed in plain numpy from the reloaded model.
        preds, _ = model.forward_batch(ds.features[test], params)
        mean, std = ds.target_stats()
        err = (preds * std + mean) - (ds.targets[test] * std + mean)
        mae = float(np.mean(np.abs(err)))
        rmse = float(np.sqrt(np.mean(err * err)))
        for label, mine, theirs in (("mae", mae, report.eval.mae), ("rmse", rmse, report.eval.rmse)):
            if not math.isclose(mine, theirs, rel_tol=1e-12, abs_tol=0.0):
                problems.append(f"test {label} {mine!r} != report {theirs!r}")
        if not rmse >= mae:
            problems.append(f"rmse {rmse} < mae {mae}")

        # Batch independence: a window alone predicts what it did in the batch.
        rng = np.random.default_rng(self.seed)
        for j in rng.choice(test.size, size=min(4, test.size), replace=False):
            alone, _ = model.forward_full(ds.features[test[j]], params)
            if not math.isclose(alone, preds[j], rel_tol=1e-9, abs_tol=1e-12):
                problems.append(f"window {test[j]}: alone {alone!r} vs batched {preds[j]!r}")

        problems += self._directional_check(params, ds, report.split.train, rng)
        return problems

    def _directional_check(self, params, ds, train_idx, rng) -> list:
        """Central difference of the batch MSE along a random unit direction
        against the analytic gradient's inner product with it."""
        batch = np.sort(rng.choice(train_idx, size=min(self.c["batch"], train_idx.size), replace=False))
        windows, targets = ds.features[batch], ds.targets[batch]
        arrays = [arr for _, arr in params.named_arrays()]
        direction = [rng.standard_normal(arr.shape) for arr in arrays]
        norm = math.sqrt(sum(float(np.sum(d * d)) for d in direction))
        direction = [d / norm for d in direction]

        preds, caches = model.forward_batch(windows, params)
        _, d_pred = training.mse_loss(preds, targets)
        grads = model.backward_batch(d_pred, caches, params)
        del caches
        analytic = sum(float(np.sum(g * d)) for (_, g), d in zip(grads.named_arrays(), direction))

        # Small enough that few of the encoder's ~10^7 ReLU inputs cross zero
        # (at 1e-5 the kinks cost up to 2.4e-4 relative error), large enough
        # that rounding stays below 1e-6.
        eps = 1e-6
        saved = [arr.copy() for arr in arrays]

        def loss_at(sign):
            for arr, orig, d in zip(arrays, saved, direction):
                np.add(orig, sign * eps * d, out=arr)
            p, _ = model.forward_batch(windows, params)
            return training.mse_loss(p, targets)[0]

        numeric = (loss_at(1.0) - loss_at(-1.0)) / (2.0 * eps)
        for arr, orig in zip(arrays, saved):
            arr[...] = orig
        error = abs(analytic - numeric) / max(abs(analytic) + abs(numeric), 1e-6)
        if not error < GRADCHECK_TOLERANCE:
            return [f"directional derivative {numeric!r} vs gradient {analytic!r}"]
        return []


class SwarmSearch(_Rounds):
    """A swarm search over small models, each candidate scored by a proxy
    training, then the chosen configuration fitted and used to forecast."""

    name = "swarm-search"
    phases = ("main", "forecast")
    # Only the learning rates have a choice: every other axis changes what a
    # candidate costs, and the work of a search must not depend on where the
    # seed sends the swarm.
    SPACE = {
        "lstm_hidden": [32],
        "lstm_lr_bounds": [1e-3, 1e-2],
        "transformer_layers": [2],
        "attention_heads": [2],
        "d_model": [16],
        "transformer_lr_bounds": [1e-4, 1e-3],
    }
    SIZES = {
        "full": {"windows": 160, "lookback": 24, "batch": 32, "particles": 6, "iterations": 3,
                 "proxy_epochs": 2, "epochs": 3, "forecasts": 8},
        "tiny": {"windows": 40, "lookback": 8, "batch": 8, "particles": 2, "iterations": 1,
                 "proxy_epochs": 1, "epochs": 1, "forecasts": 1},
    }

    def __init__(self, seed: int, size: str, out_dir: Path):
        super().__init__(out_dir)
        c = self.c = self.SIZES[size]
        out_dir.mkdir(parents=True, exist_ok=True)
        csv_path = out_dir / "series.csv"
        write_series(csv_path, seed, rows_for(c["windows"], c["lookback"]))
        self.spec = _spec(
            csv_path, seed, c["lookback"], out_dir,
            hyperparameter_source="pso-search",
            search_space={k: list(v) for k, v in self.SPACE.items()},
            swarm={"n_particles": c["particles"], "iterations": c["iterations"]},
            budget={"epochs": c["proxy_epochs"], "patience": c["proxy_epochs"], "fitness_seed": seed + 4},
            train={"epochs": c["epochs"], "batch_size": c["batch"], "patience": c["epochs"]},
        )
        self._probe_fitness()

    def _probe_fitness(self):
        """Record every fitness value the swarm computes (one call per
        candidate, so the untraced timing is unaffected)."""
        self.fitness_values = []
        run, values = pso.run, self.fitness_values

        def recording_run(cfg, obj):
            def fn(x):
                value = obj.fn(x)
                values.append(value)
                return value
            return run(cfg, pso.Objective(obj.name, obj.dim, fn))

        pso.run = recording_run

    def round(self) -> dict:
        c = self.c
        self.fitness_values.clear()
        report, main_s = _timed(harness.run_experiment, self.spec)
        self._remember(report)
        self.params, self.forecast, forecast_s = _forecast(report, self.out_dir, c["forecasts"])
        self.values = list(self.fitness_values)
        n = report.dataset.n_windows
        bad = sum(not (math.isfinite(v) and v < training.DIVERGED_FITNESS) for v in self.values)
        return {
            "main_s": main_s,
            "forecast_s": forecast_s,
            "work": len(self.values),
            "forecast_windows": n * c["forecasts"],
            "attempted": len(self.values),
            "failed": bad,
        }

    def best_value(self) -> float:
        return min(self.values)

    def check(self) -> list:
        report, problems, c = self.report, self._reproducible(), self.c
        expected = c["particles"] * (c["iterations"] + 1)
        if len(self.values) != expected:
            problems.append(f"{len(self.values)} fitness evaluations, expected {expected}")
        with open(self.out_dir / "histories" / "pso_history.csv", newline="", encoding="utf-8") as fh:
            trace = [float(row["global_best_value"]) for row in csv.DictReader(fh)]
        if len(trace) != c["iterations"]:
            problems.append(f"history has {len(trace)} rows, expected {c['iterations']}")
        if any(b > a for a, b in zip(trace, trace[1:])):
            problems.append("global-best trace increases")
        if trace and trace[-1] != self.best_value():
            problems.append(f"trace ends at {trace[-1]!r}, best evaluation {self.best_value()!r}")

        hp = pso.HyperparamPoint(**report.resolved_hyperparams)
        space = self.SPACE
        inside = (
            hp.lstm_hidden in space["lstm_hidden"]
            and hp.transformer_layers in space["transformer_layers"]
            and hp.attention_heads in space["attention_heads"]
            and hp.d_model in space["d_model"]
            and space["lstm_lr_bounds"][0] <= hp.lstm_lr <= space["lstm_lr_bounds"][1]
            and space["transformer_lr_bounds"][0] <= hp.transformer_lr <= space["transformer_lr_bounds"][1]
        )
        if not inside:
            problems.append(f"resolved hyperparameters {asdict(hp)} outside the search space")

        # A fresh proxy training of the chosen point reproduces its fitness.
        budget = self.spec.budget
        proxy = replace(
            training.TrainConfig(**{**self.spec.train, "optimizer": self.spec.optimizer}),
            epochs=budget["epochs"], patience=budget["patience"],
        )
        again = training.train(
            report.dataset, report.split, hp, proxy, rng=SeededRng(budget["fitness_seed"])
        )
        if trace and min(again.val_losses) != trace[-1]:
            problems.append(f"fresh proxy training gives {min(again.val_losses)!r}, trace {trace[-1]!r}")
        if self.forecast.n != report.dataset.n_windows or not _finite_eval(self.forecast):
            problems.append("forecast did not cover every window with finite predictions")
        return problems


class GradCheck:
    """The composed finite-difference suite of acceptance criterion 01,
    one of its seeds per round."""

    name = "gradcheck"
    phases = ("main",)

    def __init__(self, seed: int, size: str, out_dir: Path):
        self.seed = seed % GRADCHECK_GATE_SEEDS
        self._probe_checks()

    def _probe_checks(self):
        """Count parameters and windows of each checked model (one call per seed)."""
        self.checked = []
        check, checked = gradcheck.check_model_gradients, self.checked

        def counting_check(params, windows, targets, *args, **kwargs):
            checked.append((metrics.count_parameters(params), len(windows)))
            return check(params, windows, targets, *args, **kwargs)

        gradcheck.check_model_gradients = counting_check

    def round(self) -> dict:
        self.checked.clear()
        self.cases, main_s = _timed(gradcheck.composed_gradcheck_suite, 1, self.seed)
        fd_evals = sum(2 * p for p, _ in self.checked)
        windows = sum(b * (2 * p + 1) for p, b in self.checked)
        failed = sum(not c.error < GRADCHECK_TOLERANCE for c in self.cases)
        return {
            "main_s": main_s,
            "forecast_s": main_s,
            "work": fd_evals,
            "forecast_windows": windows,
            "attempted": len(self.cases),
            "failed": failed,
        }

    def check(self) -> list:
        seeds = [c.seed for c in self.cases]
        if seeds != [self.seed] or len(self.checked) != 1:
            return [f"checked seeds {seeds} with {len(self.checked)} models, expected [{self.seed}]"]
        return []


WORKLOADS = {w.name: w for w in (Reference, SwarmSearch, GradCheck)}
