import copy
import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from ltpnet import pso as P
from ltpnet import training as TR
from ltpnet.model import backward_batch, build_model, forward_batch
from ltpnet.preprocessing import (
    SplitSpec,
    SyntheticSpec,
    build_dataset,
    synthesize_series,
)
from ltpnet.rng import SeededRng
from ltpnet.training import (
    DIVERGED_FITNESS,
    AdamOptimizer,
    AdaptiveMomentumOptimizer,
    EarlyStopping,
    SearchBudget,
    SgdOptimizer,
    TrainConfig,
    carve_validation,
    clip_gradients,
    evaluate_on_indices,
    grid_search,
    loss_and_gradients,
    mse_loss,
    pso_hyperparameter_search,
    train,
)

TINY_HP = P.HyperparamPoint(
    lstm_hidden=4, lstm_lr=1e-3, transformer_layers=1,
    attention_heads=2, d_model=8, transformer_lr=1e-4,
)


def tiny_cfg(**overrides):
    args = dict(
        epochs=2, batch_size=8, patience=5, lstm_layers=1, head_width=4, seed=0
    )
    args.update(overrides)
    return TrainConfig(**args)


def tiny_dataset(length=80, seed=5, lookback=8):
    table = synthesize_series(
        SyntheticSpec(length=length, feature_count=1, seasonal_period=12.0,
                      noise_std=0.05, seed=seed)
    )
    return build_dataset(table, lookback=lookback)


class TestMseLoss:
    def test_zero_on_match(self):
        loss, grad = mse_loss([1.0, 2.0], [1.0, 2.0])
        assert loss == 0.0
        np.testing.assert_array_equal(grad, 0.0)

    def test_single_point(self):
        loss, grad = mse_loss([1.0], [0.0])
        assert loss == 1.0
        np.testing.assert_array_equal(grad, [2.0])

    def test_hand_computed(self):
        loss, grad = mse_loss([1.0, 2.0, 3.0], [2.0, 2.0, 5.0])
        np.testing.assert_allclose(loss, 5.0 / 3.0)
        np.testing.assert_allclose(grad, [-2.0 / 3.0, 0.0, -4.0 / 3.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mse_loss([], [])


def single_param_model():
    """A one-layer scalar LSTM model exposing simple arrays for optimizers."""
    return build_model(
        n_features=1, lstm_hidden=1, lstm_layers=1,
        transformer_layers=0, attention_heads=2, d_model=2, head_width=1,
        rng=SeededRng(0),
    )


def grads_like(model, fill):
    g = copy.deepcopy(model)
    g.flat[...] = fill
    return g


class TestSgd:
    def test_zero_gradient_no_change(self):
        model = single_param_model()
        before = {n: a.copy() for n, a in model.named_arrays()}
        SgdOptimizer(0.001, 0.0001).step(model, grads_like(model, 0.0))
        for name, arr in model.named_arrays():
            np.testing.assert_array_equal(arr, before[name])

    def test_hand_update(self):
        model = single_param_model()
        for _, arr in model.named_arrays():
            arr[...] = 1.0
        g = grads_like(model, 0.5)
        SgdOptimizer(0.001, 0.001).step(model, g)
        for _, arr in model.named_arrays():
            np.testing.assert_allclose(arr, 0.9995)

    def test_two_steps_equal_one_doubled_rate(self):
        m1 = single_param_model()
        m2 = copy.deepcopy(m1)
        g = grads_like(m1, 0.3)
        opt1 = SgdOptimizer(0.001, 0.0001)
        opt1.step(m1, g)
        opt1.step(m1, g)
        SgdOptimizer(0.002, 0.0002).step(m2, g)
        for (_, a1), (_, a2) in zip(m1.named_arrays(), m2.named_arrays()):
            np.testing.assert_allclose(a1, a2, atol=1e-15)

    def test_component_rates_differ(self):
        model = build_model(
            n_features=1, lstm_hidden=1, lstm_layers=1,
            transformer_layers=1, attention_heads=1, d_model=2, head_width=1,
            rng=SeededRng(0),
        )
        before = {n: a.copy() for n, a in model.named_arrays()}
        SgdOptimizer(lstm_lr=0.1, transformer_lr=0.01).step(model, grads_like(model, 1.0))
        after = dict(model.named_arrays())
        np.testing.assert_allclose(before["lstm.0.b"] - after["lstm.0.b"], 0.1)
        np.testing.assert_allclose(before["head.b_b"] - after["head.b_b"], 0.01)
        np.testing.assert_allclose(
            before["encoder.b_in"] - after["encoder.b_in"], 0.01
        )


class TestAdam:
    def test_zero_gradient_from_zero_state(self):
        model = single_param_model()
        before = {n: a.copy() for n, a in model.named_arrays()}
        AdamOptimizer().step(model, grads_like(model, 0.0))
        for name, arr in model.named_arrays():
            np.testing.assert_array_equal(arr, before[name])

    def test_first_step_magnitude(self):
        model = single_param_model()
        start = {n: a.copy() for n, a in model.named_arrays()}
        AdamOptimizer(lr=0.001).step(model, grads_like(model, 1.0))
        for name, arr in model.named_arrays():
            np.testing.assert_allclose(start[name] - arr, 0.001, atol=1e-10)

    def test_first_step_scale_invariance(self):
        model = single_param_model()
        start = {n: a.copy() for n, a in model.named_arrays()}
        AdamOptimizer(lr=0.001).step(model, grads_like(model, 10.0))
        for name, arr in model.named_arrays():
            np.testing.assert_allclose(start[name] - arr, 0.001, atol=1e-9)


class TestAdaptiveMomentum:
    def test_zero_gradient_zero_velocity(self):
        model = single_param_model()
        before = {n: a.copy() for n, a in model.named_arrays()}
        AdaptiveMomentumOptimizer().step(model, grads_like(model, 0.0))
        for name, arr in model.named_arrays():
            np.testing.assert_array_equal(arr, before[name])

    def test_first_step(self):
        model = single_param_model()
        start = {n: a.copy() for n, a in model.named_arrays()}
        AdaptiveMomentumOptimizer(lr=0.001).step(model, grads_like(model, 1.0))
        for name, arr in model.named_arrays():
            np.testing.assert_allclose(start[name] - arr, 0.001, atol=1e-15)

    def test_velocity_approaches_geometric_limit(self):
        model = single_param_model()
        opt = AdaptiveMomentumOptimizer(lr=0.001, mu=0.9)
        g = grads_like(model, 1.0)
        for _ in range(100):
            opt.step(model, g)
        limit = 0.001 * 1.0 / (1.0 - 0.9)
        np.testing.assert_allclose(np.abs(opt.velocity), limit, rtol=0.01)

    def test_mu_adapts_per_epoch(self):
        opt = AdaptiveMomentumOptimizer(mu=0.9, update_rate=0.1, mu_target=0.99)
        opt.advance_epoch()
        assert opt.mu == pytest.approx(0.909)
        for _ in range(500):
            opt.advance_epoch()
        assert opt.mu <= 0.99 + 1e-12

    def test_vanishing_rate_changes_nothing(self):
        for opt in (
            SgdOptimizer(1e-300, 1e-300),
            AdamOptimizer(lr=1e-300),
            AdaptiveMomentumOptimizer(lr=1e-300),
        ):
            model = single_param_model()
            before = {n: a.copy() for n, a in model.named_arrays()}
            opt.step(model, grads_like(model, 1.0))
            for name, arr in model.named_arrays():
                assert np.max(np.abs(arr - before[name])) < 1e-200, type(opt)


class TestClipGradients:
    def test_small_gradients_untouched(self):
        model = single_param_model()
        g = grads_like(model, 0.001)
        before = {n: a.copy() for n, a in g.named_arrays()}
        clip_gradients(g, 5.0)
        for name, arr in g.named_arrays():
            np.testing.assert_array_equal(arr, before[name])

    def test_large_gradients_scaled_to_norm(self):
        model = single_param_model()
        g = grads_like(model, 100.0)
        clip_gradients(g, 5.0)
        total = math.sqrt(sum(float(np.sum(a * a)) for _, a in g.named_arrays()))
        np.testing.assert_allclose(total, 5.0, rtol=1e-12)


class TestEarlyStopping:
    def test_reference_sequence(self):
        stopper = EarlyStopping(patience=2)
        stops = [stopper.update(e, v) for e, v in enumerate([1.0, 0.9, 0.9, 0.9], 1)]
        assert stops == [False, False, False, True]
        assert stopper.best_epoch == 2

    def test_best_epoch_has_minimal_loss(self):
        rng = SeededRng(80)
        for _ in range(50):
            losses = rng.uniform(0, 1, 12)
            stopper = EarlyStopping(patience=3)
            seen = []
            for e, v in enumerate(losses, 1):
                seen.append(v)
                if stopper.update(e, float(v)):
                    break
            assert losses[stopper.best_epoch - 1] == min(seen)

    def test_patience_validation(self):
        with pytest.raises(ValueError):
            EarlyStopping(patience=0)


class TestTrain:
    def test_zero_epochs_returns_initial_params(self):
        dataset, split, _ = tiny_dataset()
        report = train(dataset, split, TINY_HP, tiny_cfg(epochs=0), rng=SeededRng(0))
        assert report.train_losses == []
        assert report.stopped_epoch == 0
        ref = build_model(
            n_features=dataset.n_features,
            lstm_hidden=4, lstm_layers=1, transformer_layers=1,
            attention_heads=2, d_model=8, head_width=4,
            rng=SeededRng(0).split(1),
        )
        for (_, a), (_, b) in zip(report.params.named_arrays(), ref.named_arrays()):
            np.testing.assert_array_equal(a, b)

    def test_single_fixed_batch_loss_decreases_over_ten_sgd_steps(self):
        dataset, split, _ = tiny_dataset(length=40, lookback=8)
        model = build_model(
            n_features=dataset.n_features,
            lstm_hidden=4, lstm_layers=1, transformer_layers=1,
            attention_heads=2, d_model=8, head_width=4, rng=SeededRng(3),
        )
        idx = split.train[:8]
        opt = SgdOptimizer(lstm_lr=0.001, transformer_lr=0.001)
        losses = []
        for _ in range(11):
            preds, caches = forward_batch(dataset.features[idx], model)
            loss, d_pred = mse_loss(preds, dataset.targets[idx])
            losses.append(loss)
            grads = backward_batch(d_pred, caches, model)
            clip_gradients(grads, 5.0)
            opt.step(model, grads)
        assert all(b < a for a, b in zip(losses[:11], losses[1:]))

    def test_determinism_bit_for_bit(self):
        dataset, split, _ = tiny_dataset()
        cfg = tiny_cfg(epochs=3)
        r1 = train(dataset, split, TINY_HP, cfg, rng=SeededRng(7))
        r2 = train(dataset, split, TINY_HP, cfg, rng=SeededRng(7))
        assert r1.train_losses == r2.train_losses
        assert r1.val_losses == r2.val_losses
        for (_, a), (_, b) in zip(
            r1.params.named_arrays(), r2.params.named_arrays()
        ):
            np.testing.assert_array_equal(a, b)

    def test_training_indices_never_touch_test(self):
        dataset, split, _ = tiny_dataset()
        report = train(dataset, split, TINY_HP, tiny_cfg(), rng=SeededRng(1))
        assert np.intersect1d(report.used_train_indices, split.test).size == 0

    def test_validation_tail_excluded_from_batches(self):
        dataset, split, _ = tiny_dataset()
        report = train(dataset, split, TINY_HP, tiny_cfg(), rng=SeededRng(1))
        n_val = max(1, int(0.15 * len(split.train)))
        val_tail = split.train[-n_val:]
        assert np.intersect1d(report.used_train_indices, val_tail).size == 0

    def test_best_epoch_never_dominated(self):
        dataset, split, _ = tiny_dataset(seed=9)
        report = train(dataset, split, TINY_HP, tiny_cfg(epochs=6), rng=SeededRng(2))
        best = report.val_losses[report.best_epoch - 1]
        assert best == min(report.val_losses)

    def test_empty_training_split_rejected(self):
        dataset, split, _ = tiny_dataset()
        bad = SplitSpec(train=np.array([], dtype=np.intp), test=split.test)
        with pytest.raises(ValueError, match="empty training split"):
            train(dataset, bad, TINY_HP, tiny_cfg(), rng=SeededRng(0))

    def test_clean_run_has_not_diverged(self):
        dataset, split, _ = tiny_dataset()
        report = train(dataset, split, TINY_HP, tiny_cfg(), rng=SeededRng(0))
        assert report.summary()["diverged"] is False
        assert report.stopped_epoch == 2

    def test_nan_feature_stops_at_first_epoch_with_finite_params(self):
        dataset, split, _ = tiny_dataset()
        dataset.features[split.train[0], 0, 0] = np.nan
        report = train(dataset, split, TINY_HP, tiny_cfg(epochs=4), rng=SeededRng(0))
        assert report.summary()["diverged"] is True
        assert report.stopped_epoch == 1
        assert report.train_losses == [] and report.val_losses == []
        assert np.all(np.isfinite(report.params.flat))

    def test_huge_learning_rate_stops_at_first_epoch_with_finite_params(self):
        dataset, split, _ = tiny_dataset()
        hp = replace(TINY_HP, lstm_lr=1e100, transformer_lr=1e100)
        with np.errstate(all="ignore"):
            report = train(dataset, split, hp, tiny_cfg(epochs=4), rng=SeededRng(0))
        assert report.diverged and report.stopped_epoch == 1
        assert np.all(np.isfinite(report.params.flat))
        assert math.isfinite(report.train_mse_final)

    def test_adam_and_momentum_paths_run(self):
        dataset, split, _ = tiny_dataset()
        for kind in ("adam", "adaptive-momentum"):
            report = train(
                dataset, split, TINY_HP, tiny_cfg(optimizer=kind), rng=SeededRng(3)
            )
            assert len(report.train_losses) == 2
            assert all(np.isfinite(v) for v in report.train_losses)

    def test_skipping_the_train_mse_changes_nothing_else(self):
        dataset, split, _ = tiny_dataset()
        full = train(dataset, split, TINY_HP, tiny_cfg(), rng=SeededRng(4))
        lean = train(
            dataset, split, TINY_HP, tiny_cfg(), rng=SeededRng(4), measure_train_mse=False
        )
        assert lean.train_mse_initial is None and lean.train_mse_final is None
        assert math.isfinite(full.train_mse_initial) and math.isfinite(full.train_mse_final)
        assert lean.train_losses == full.train_losses
        assert lean.val_losses == full.val_losses
        np.testing.assert_array_equal(lean.params.flat, full.params.flat)

    def test_searches_train_their_proxies_without_the_train_mse(self, monkeypatch):
        calls = []
        real_train = TR.train

        def spy(*args, **kwargs):
            calls.append(kwargs.get("measure_train_mse", True))
            return real_train(*args, **kwargs)

        monkeypatch.setattr(TR, "train", spy)
        dataset, split, _ = tiny_dataset()
        grid_search(dataset, split, TINY_HP, tiny_cfg(epochs=1))
        space = P.SearchSpace(
            lstm_hidden=(4,), lstm_lr_bounds=(1e-3, 1e-3), transformer_layers=(1,),
            attention_heads=(2,), d_model=(8,), transformer_lr_bounds=(1e-4, 1e-4),
        )
        pso_hyperparameter_search(
            dataset, split, space, P.SwarmConfig(n_particles=2, iterations=1, seed=1),
            SearchBudget(epochs=1), tiny_cfg(),
        )
        assert calls and not any(calls)


def held_bytes(obj) -> int:
    """Bytes of the distinct array buffers reachable through dicts and lists."""
    seen, total, todo = set(), 0, [obj]
    while todo:
        item = todo.pop()
        if isinstance(item, np.ndarray):
            while isinstance(item.base, np.ndarray):
                item = item.base
            if id(item) not in seen:
                seen.add(id(item))
                total += item.nbytes
        elif isinstance(item, dict):
            todo.extend(item.values())
        elif isinstance(item, (list, tuple)):
            todo.extend(item)
    return total


def traced_peak(fn) -> int:
    """Peak bytes that numpy and Python allocate while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    """Activation caches dominate at this shape: 6 encoder layers over 24 steps."""

    HP = P.HyperparamPoint(
        lstm_hidden=8, lstm_lr=1e-3, transformer_layers=6,
        attention_heads=2, d_model=16, transformer_lr=1e-4,
    )

    def _setup(self):
        dataset, split, _ = tiny_dataset(length=200, lookback=24)
        model = build_model(
            n_features=dataset.n_features, lstm_hidden=8,
            lstm_layers=1, transformer_layers=6, attention_heads=2, d_model=16,
            head_width=8, rng=SeededRng(0),
        )
        return dataset, split, model

    def test_prediction_peak_is_far_below_the_backward_caches(self):
        dataset, _, model = self._setup()
        _, caches = forward_batch(dataset.features[:4], model)
        per_window = held_bytes(caches) / 4
        indices = np.arange(dataset.n_windows)
        peak = traced_peak(lambda: evaluate_on_indices(dataset, indices, model))
        assert peak < 0.3 * indices.size * per_window

    def test_backward_never_holds_every_cache_and_both_gradient_copies(self):
        # backward builds the stage gradients, then their concatenation; a pass
        # that kept every stage's cache until the end would hold all three at once
        dataset, _, model = self._setup()
        windows = dataset.features[:4]
        tracemalloc.start()
        try:
            _, caches = forward_batch(windows, model)
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            backward_batch(np.ones(4), caches, model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < held + 2 * model.flat.nbytes

    def test_training_steps_do_not_overlap(self):
        # a step that kept its caches and gradients alive into the next one
        # would hold two steps' buffers at once
        dataset, split, model = self._setup()
        cfg = tiny_cfg(epochs=1, batch_size=32, lstm_layers=1, head_width=8)
        inner, _ = carve_validation(split.train, cfg.val_fraction)
        assert inner.size >= 2 * cfg.batch_size
        batch = inner[: cfg.batch_size]
        one_step = traced_peak(
            lambda: loss_and_gradients(dataset.features[batch], dataset.targets[batch], model)
        )
        peak = traced_peak(lambda: train(dataset, split, self.HP, cfg, rng=SeededRng(0)))
        assert peak < 1.3 * one_step


class TestGridSearch:
    def test_each_fixed_cell_runs_once(self):
        dataset, split, _ = tiny_dataset()
        rows = grid_search(dataset, split, TINY_HP, tiny_cfg(epochs=1))
        cells = sorted((r["lr"], r["batch_size"], r["transformer_layers"]) for r in rows)
        assert cells == [(lr, b, n) for lr in (1e-4, 1e-3) for b in (32, 64) for n in (4, 6)]

    def test_full_grid_sorted_and_deterministic(self):
        dataset, split, _ = tiny_dataset()
        rows1 = grid_search(dataset, split, TINY_HP, tiny_cfg(epochs=1, seed=2))
        rows2 = grid_search(dataset, split, TINY_HP, tiny_cfg(epochs=1, seed=2))
        assert len(rows1) == 8
        assert rows1 == rows2
        losses = [r["val_loss"] for r in rows1]
        assert losses == sorted(losses)

    @pytest.mark.parametrize("i, cell", [(0, (1e-4, 32, 4)), (7, (1e-3, 64, 6))])
    def test_cell_i_trains_with_split_i_of_the_config_seed(self, i, cell):
        # grid-search reports depend on this order and seeding
        dataset, split, _ = tiny_dataset()
        cfg = tiny_cfg(epochs=2, seed=5)
        rows = grid_search(dataset, split, TINY_HP, cfg)
        lr, batch, layers = cell
        alone = train(
            dataset, split, replace(TINY_HP, lstm_lr=lr, transformer_layers=layers),
            replace(cfg, batch_size=batch), rng=SeededRng(cfg.seed).split(i),
        )
        row = next(r for r in rows if (r["lr"], r["batch_size"], r["transformer_layers"]) == cell)
        assert row["val_loss"] == min(alone.val_losses)


class TestBestValLoss:
    """A run, a grid cell and a swarm candidate score the validation loss of
    the epoch whose weights ``train`` restores, which a NaN never becomes."""

    @staticmethod
    def _script_validation(monkeypatch, losses):
        """Make every validation pass return the next of ``losses``."""
        scripted = iter(losses)
        monkeypatch.setattr(TR, "dataset_mse", lambda *args: next(scripted))

    @pytest.mark.parametrize("losses, epoch, best", [
        ([math.nan, 0.5], 2, 0.5),
        ([0.5, math.nan], 1, 0.5),
        ([math.nan, math.nan], 0, math.inf),
        ([], 0, math.inf),
    ])
    def test_the_restored_epochs_loss(self, monkeypatch, losses, epoch, best):
        self._script_validation(monkeypatch, losses)
        dataset, split, _ = tiny_dataset()
        cfg = tiny_cfg(epochs=len(losses))
        report = train(dataset, split, TINY_HP, cfg, measure_train_mse=False)
        assert report.best_epoch == epoch
        assert report.best_val_loss == best

    def test_grid_cells_sort_by_the_restored_epochs_loss(self, monkeypatch):
        scores = [0.8, 0.7, 0.6, 0.1, 0.5, 0.4, 0.3, 0.2]  # cell i's loss after a NaN epoch
        self._script_validation(monkeypatch, [v for s in scores for v in (math.nan, s)])
        dataset, split, _ = tiny_dataset()
        rows = grid_search(dataset, split, TINY_HP, tiny_cfg(epochs=2))
        assert [r["val_loss"] for r in rows] == sorted(scores)
        assert (rows[0]["lr"], rows[0]["batch_size"], rows[0]["transformer_layers"]) == (1e-4, 64, 6)

    def test_a_candidate_with_a_nan_epoch_is_not_diverged(self, monkeypatch):
        self._script_validation(monkeypatch, itertools.cycle([math.nan, 0.5]))
        dataset, split, _ = tiny_dataset()
        swarm = P.SwarmConfig(n_particles=2, iterations=1, seed=5)
        _, value, history = pso_hyperparameter_search(
            dataset, split, TestSwarmSearch._space(), swarm, SearchBudget(epochs=2, patience=2),
            tiny_cfg(),
        )
        assert value == 0.5
        assert history == [0.5] * len(history)


class TestSwarmSearch:
    @staticmethod
    def _space():
        return P.SearchSpace(
            lstm_hidden=(2, 4), lstm_lr_bounds=(1e-3, 1e-2),
            transformer_layers=(1,), attention_heads=(2,), d_model=(8,),
            transformer_lr_bounds=(1e-4, 1e-3),
        )

    def test_collapsed_space_returns_the_point(self):
        dataset, split, _ = tiny_dataset()
        space = P.SearchSpace(
            lstm_hidden=(4,), lstm_lr_bounds=(1e-3, 1e-3),
            transformer_layers=(1,), attention_heads=(2,), d_model=(8,),
            transformer_lr_bounds=(1e-4, 1e-4),
        )
        swarm = P.SwarmConfig(n_particles=2, iterations=1, seed=1)
        best, _, _ = pso_hyperparameter_search(
            dataset, split, space, swarm, SearchBudget(epochs=1), tiny_cfg()
        )
        assert best.lstm_hidden == 4
        assert best.transformer_layers == 1
        assert best.attention_heads == 2
        assert best.d_model == 8

    def test_sphere_objective_plumbing(self):
        # swap the fitness for a known analytic bowl over the encoded axes;
        # the swarm must drive toward its floor
        space = self._space()
        bounds = space.bounds()
        center = np.array([(lo + hi) / 2 for lo, hi in bounds])

        def bowl(x):
            return float(np.sum((x - center) ** 2))

        cfg = P.SwarmConfig(n_particles=12, iterations=40, bounds=bounds, seed=3)
        _, best_value, history = P.run(cfg, P.Objective("bowl", len(bounds), bowl))
        assert best_value < 1e-3
        assert all(b <= a for a, b in zip(history, history[1:]))

    def test_diverging_candidates_score_diverged_fitness(self):
        dataset, split, _ = tiny_dataset()
        dataset.features[split.train[0], 0, 0] = np.nan
        swarm = P.SwarmConfig(n_particles=2, iterations=1, seed=5)
        _, value, history = pso_hyperparameter_search(
            dataset, split, self._space(), swarm, SearchBudget(epochs=3), tiny_cfg()
        )
        assert value == DIVERGED_FITNESS
        assert history == [DIVERGED_FITNESS] * len(history)

    def test_deterministic_end_to_end(self):
        dataset, split, _ = tiny_dataset()
        swarm = P.SwarmConfig(n_particles=2, iterations=2, seed=5)
        args = (dataset, split, self._space(), swarm, SearchBudget(epochs=1))
        best1, value1, hist1 = pso_hyperparameter_search(*args, tiny_cfg())
        best2, value2, hist2 = pso_hyperparameter_search(*args, tiny_cfg())
        assert best1 == best2
        assert value1 == value2
        assert hist1 == hist2
