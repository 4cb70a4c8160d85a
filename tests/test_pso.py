import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltpnet import pso as P
from ltpnet.rng import SeededRng


def sphere_cfg(dim=2, **overrides):
    args = dict(bounds=[(-5.0, 5.0)] * dim, seed=0)
    args.update(overrides)
    return P.SwarmConfig(**args)


class TestObjectives:
    def test_sphere_values(self):
        assert P.sphere(np.zeros(4)) == 0.0
        assert P.sphere([1.0, 0.0, 0.0]) == 1.0
        assert P.sphere([1.0, 2.0, 3.0]) == 14.0

    def test_rastrigin_values(self):
        assert P.rastrigin(np.zeros(3)) == 0.0
        np.testing.assert_allclose(P.rastrigin([1.0]), 1.0, atol=1e-12)
        np.testing.assert_allclose(P.rastrigin([0.5]), 20.25, atol=1e-12)

    def test_registry(self):
        assert P.make_objective("sphere", 3).dim == 3
        with pytest.raises(ValueError, match="unknown objective"):
            P.make_objective("ackley", 3)


class TestInitSwarm:
    def test_degenerate_interval(self):
        cfg = sphere_cfg(dim=1, bounds=[(0.0, 1e-9)], n_particles=10)
        state = P.init_swarm(cfg, P.make_objective("sphere", 1))
        np.testing.assert_allclose(state.positions, 0.0, atol=1e-8)

    def test_same_seed_identical(self):
        cfg = sphere_cfg(n_particles=20)
        s1 = P.init_swarm(cfg, P.make_objective("sphere", 2))
        s2 = P.init_swarm(cfg, P.make_objective("sphere", 2))
        np.testing.assert_array_equal(s1.positions, s2.positions)

    def test_positions_uniform_mean(self):
        cfg = sphere_cfg(n_particles=50, seed=3)
        state = P.init_swarm(cfg, P.make_objective("sphere", 2))
        # mean of U(-5,5) over 50 draws: std of the mean ~ 0.41
        assert np.all(np.abs(state.positions.mean(axis=0)) < 0.6)

    def test_velocities_zero_and_bests_at_start(self):
        cfg = sphere_cfg(n_particles=8)
        state = P.init_swarm(cfg, P.make_objective("sphere", 2))
        np.testing.assert_array_equal(state.velocities, 0.0)
        np.testing.assert_array_equal(state.best_positions, state.positions)
        assert state.global_best_value == state.best_values.min()

    def test_invalid_bounds(self):
        with pytest.raises(ValueError, match="bound"):
            P.init_swarm(sphere_cfg(dim=1, bounds=[(2.0, 1.0)]), P.make_objective("sphere", 1))

    def test_bounds_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            P.init_swarm(sphere_cfg(dim=1), P.make_objective("sphere", 3))


class TestStep:
    def test_velocity_update_hand_case(self):
        v = P.velocity_update(
            v=0.2, x=0.0, p=1.0, g=2.0, omega=0.5, c1=1.0, c2=1.0, r1=0.5, r2=0.5
        )
        np.testing.assert_allclose(v, 1.6)

    def test_converged_particle_stays_fixed(self):
        cfg = sphere_cfg(dim=2, n_particles=1, iterations=5)
        obj = P.make_objective("sphere", 2)
        state = P.init_swarm(cfg, obj)
        spot = np.array([1.5, -2.0])
        state.positions[0] = spot
        state.velocities[0] = 0.0
        state.best_positions[0] = spot
        state.best_values[0] = obj.fn(spot)
        state.global_best_position = spot.copy()
        state.global_best_value = obj.fn(spot)
        P.step(state, cfg, obj)
        np.testing.assert_array_equal(state.positions[0], spot)

    def test_global_best_non_increasing(self):
        cfg = sphere_cfg(dim=3, n_particles=12, iterations=40, seed=5)
        _, _, history = P.run(cfg, P.make_objective("sphere", 3))
        assert all(b <= a for a, b in zip(history, history[1:]))

    def test_positions_stay_in_bounds(self):
        cfg = sphere_cfg(dim=2, n_particles=10, iterations=30, seed=6,
                         bounds=[(-0.5, 0.5), (-0.1, 2.0)])
        obj = P.make_objective("sphere", 2)
        state = P.init_swarm(cfg, obj)
        lo = np.array([-0.5, -0.1])
        hi = np.array([0.5, 2.0])
        for _ in range(cfg.iterations):
            P.step(state, cfg, obj)
            assert np.all(state.positions >= lo) and np.all(state.positions <= hi)

    def test_personal_best_dominates_visited_positions(self):
        cfg = sphere_cfg(dim=2, n_particles=6, iterations=25, seed=7)
        obj = P.make_objective("sphere", 2)
        state = P.init_swarm(cfg, obj)
        for _ in range(cfg.iterations):
            P.step(state, cfg, obj)
            current = np.array([obj.fn(x) for x in state.positions])
            assert np.all(state.best_values <= current + 1e-15)

    def test_two_states_from_one_config_draw_apart_and_alike(self):
        # each state owns its streams: stepping one moves none of the other's draws
        cfg = sphere_cfg(dim=3, n_particles=5, iterations=4, seed=12, per_dimension_rand=True)
        obj = P.make_objective("rastrigin", 3)
        first, second = P.init_swarm(cfg, obj), P.init_swarm(cfg, obj)
        for _ in range(cfg.iterations):
            P.step(first, cfg, obj)
        for _ in range(cfg.iterations):
            P.step(second, cfg, obj)
        for name in ("positions", "velocities", "best_positions", "best_values",
                     "global_best_position"):
            np.testing.assert_array_equal(getattr(first, name), getattr(second, name), name)
        assert first.history == second.history
        for a, b in zip(first.streams, second.streams):
            assert a is not b and a.uniform() == b.uniform()

    def test_velocity_decay_without_attraction(self):
        cfg = sphere_cfg(dim=2, n_particles=3, c1=0.0, c2=0.0, omega=0.5,
                         bounds=[(-100.0, 100.0)] * 2)
        obj = P.make_objective("sphere", 2)
        state = P.init_swarm(cfg, obj)
        state.velocities[:] = SeededRng(1).uniform(-1, 1, (3, 2))
        norms = [np.linalg.norm(state.velocities, axis=1).copy()]
        for _ in range(5):
            P.step(state, cfg, obj)
            norms.append(np.linalg.norm(state.velocities, axis=1).copy())
        for before, after in zip(norms, norms[1:]):
            np.testing.assert_allclose(after, 0.5 * before, rtol=1e-12)


def reference_step(state, cfg, obj):
    """The iteration written one particle at a time, as a reference."""
    lo, hi = (np.array(b) for b in zip(*cfg.bounds))
    v_max = cfg.velocity_clamp_fraction * (hi - lo)
    omega = cfg.inertia_at(state.iteration)
    g = state.global_best_position.copy()
    size = obj.dim if cfg.per_dimension_rand else None
    for i in range(cfg.n_particles):
        r1 = state.streams[i].uniform(size=size)
        r2 = state.streams[i].uniform(size=size)
        x = state.positions[i]
        v = omega * state.velocities[i] + cfg.c1 * r1 * (state.best_positions[i] - x) \
            + cfg.c2 * r2 * (g - x)
        v = np.clip(v, -v_max, v_max)
        x = x + v
        v[(x < lo) | (x > hi)] = 0.0
        x = np.clip(x, lo, hi)
        state.positions[i], state.velocities[i] = x, v
        value = obj.fn(x)
        if value < state.best_values[i]:
            state.best_values[i], state.best_positions[i] = value, x
    best = int(np.argmin(state.best_values))
    if state.best_values[best] < state.global_best_value:
        state.global_best_value = float(state.best_values[best])
        state.global_best_position = state.best_positions[best].copy()
    state.iteration += 1
    state.history.append(state.global_best_value)


class TestWholeSwarmStep:
    @pytest.mark.parametrize("schedule", ["static", "linear"])
    @pytest.mark.parametrize("per_dimension_rand", [False, True])
    def test_matches_the_per_particle_loop_bit_for_bit(self, schedule, per_dimension_rand):
        # c1, c2 = 2 and a narrow box make both clamps fire
        cfg = sphere_cfg(dim=3, n_particles=9, iterations=12, seed=31, c1=2.0, c2=2.0,
                         bounds=[(-1.0, 1.0), (0.5, 3.0), (-4.0, -2.0)],
                         inertia_schedule=schedule, per_dimension_rand=per_dimension_rand)
        calls = {"swarm": [], "reference": []}

        def objective(side):
            def fn(x):
                calls[side].append(np.array(x))
                return P.rastrigin(x)
            return P.Objective("rastrigin", 3, fn)

        states = {}
        for side, advance in (("swarm", P.step), ("reference", reference_step)):
            obj = objective(side)
            states[side] = state = P.init_swarm(cfg, obj)
            for _ in range(cfg.iterations):
                advance(state, cfg, obj)
        swarm, ref = states["swarm"], states["reference"]
        for name in ("positions", "velocities", "best_positions", "best_values",
                     "global_best_position"):
            np.testing.assert_array_equal(getattr(swarm, name), getattr(ref, name), name)
        assert swarm.history == ref.history
        assert len(calls["swarm"]) == len(calls["reference"]) == 9 * 13
        for a, b in zip(calls["swarm"], calls["reference"]):
            np.testing.assert_array_equal(a, b)


class TestScoring:
    @settings(max_examples=60)
    @given(
        n=st.integers(1, 4), iterations=st.integers(0, 3),
        values=st.lists(st.sampled_from([-1.0, 0.0, 0.5, 2.0]), min_size=16, max_size=16),
    )
    def test_bests_are_the_first_lowest_values_seen(self, n, iterations, values):
        # drawn values from a small set, so ties are common
        cfg = sphere_cfg(dim=2, n_particles=n, iterations=iterations)
        seen = []  # (particle, value, position) in evaluation order

        def fn(x):
            value = values[len(seen) % len(values)]
            seen.append((len(seen) % n, value, np.array(x)))
            return value

        obj = P.Objective("drawn", 2, fn)
        state = P.init_swarm(cfg, obj)
        for k in range(iterations + 1):
            if k:
                P.step(state, cfg, obj)
            for i in range(n):
                first = min((v, t) for t, (p, v, _) in enumerate(seen) if p == i)
                assert state.best_values[i] == first[0]
                np.testing.assert_array_equal(state.best_positions[i], seen[first[1]][2])
            first = min((v, t) for t, (_, v, _) in enumerate(seen))
            assert state.global_best_value == first[0]
            np.testing.assert_array_equal(state.global_best_position, seen[first[1]][2])

    def test_a_nan_first_value_never_becomes_the_best(self):
        calls = []

        def fn(x):
            calls.append(None)
            return float("nan") if len(calls) == 1 else P.sphere(x)

        cfg = sphere_cfg(dim=2, n_particles=5, iterations=20)
        _, value, history = P.run(cfg, P.Objective("nan-first", 2, fn))
        assert np.isfinite(value)
        assert all(np.isfinite(history))


class TestRun:
    def test_zero_iterations_returns_initial_best(self):
        cfg = sphere_cfg(dim=2, iterations=0, n_particles=15)
        obj = P.make_objective("sphere", 2)
        pos, value, history = P.run(cfg, obj)
        init = P.init_swarm(cfg, obj)
        assert value == init.global_best_value
        assert history == []

    def test_constant_objective(self):
        cfg = sphere_cfg(dim=2, iterations=10, n_particles=5)
        obj = P.Objective(name="flat", dim=2, fn=lambda x: 7.0)
        _, value, history = P.run(cfg, obj)
        assert value == 7.0
        assert all(v == 7.0 for v in history)

    def test_history_is_deterministic(self):
        cfg = sphere_cfg(dim=4, iterations=30, n_particles=10, seed=9)
        obj = P.make_objective("sphere", 4)
        h1 = P.run(cfg, obj)[2]
        h2 = P.run(cfg, obj)[2]
        assert h1 == h2

    def test_per_dimension_rand_mode_runs(self):
        cfg = sphere_cfg(dim=3, iterations=20, n_particles=8, per_dimension_rand=True)
        _, value, _ = P.run(cfg, P.make_objective("sphere", 3))
        assert np.isfinite(value)

    def test_dynamic_inertia_schedule_interpolates(self):
        cfg = sphere_cfg(iterations=11, inertia_schedule="linear",
                         omega_start=0.9, omega_end=0.4)
        assert cfg.inertia_at(0) == 0.9
        assert cfg.inertia_at(10) == pytest.approx(0.4)
        assert cfg.inertia_at(5) == pytest.approx(0.65)


class TestHistoryCsv:
    def test_header_and_rows(self, tmp_path):
        path = tmp_path / "hist.csv"
        P.write_history_csv(path, {3: [2.0, 1.0], 1: [5.0]})
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "run_seed,iteration,global_best_value"
        assert lines[1].startswith("1,0,")
        assert lines[2].startswith("3,0,")
        assert len(lines) == 4


def position(h: P.HyperparamPoint) -> np.ndarray:
    """The point's coordinates on the search axes (rates on log10 axes)."""
    return np.array([
        h.lstm_hidden, np.log10(h.lstm_lr), h.transformer_layers,
        h.attention_heads, h.d_model, np.log10(h.transformer_lr),
    ], dtype=np.float64)


class TestHyperparamCodec:
    def test_round_trip_on_admissible_lattice(self):
        space = P.SearchSpace()
        bounds = space.bounds()
        for hidden in space.lstm_hidden:
            for layers in space.transformer_layers:
                h = P.HyperparamPoint(
                    lstm_hidden=hidden, lstm_lr=1e-3, transformer_layers=layers,
                    attention_heads=8, d_model=256, transformer_lr=1e-4,
                )
                x = position(h)
                assert all(lo <= v <= hi for v, (lo, hi) in zip(x, bounds))
                back = P.decode_position(x, space)
                assert back.lstm_hidden == h.lstm_hidden
                assert back.transformer_layers == h.transformer_layers
                assert back.attention_heads == h.attention_heads
                assert back.d_model == h.d_model
                assert back.lstm_lr == pytest.approx(h.lstm_lr, rel=1e-12)
                assert back.transformer_lr == pytest.approx(h.transformer_lr, rel=1e-12)

    @settings(max_examples=200)
    @given(data=st.data())
    def test_in_bounds_positions_decode_to_admissible_points_that_round_trip(self, data):
        space = P.SearchSpace()
        bounds = space.bounds()
        x = np.array([data.draw(st.floats(lo, hi)) for lo, hi in bounds])
        h = P.decode_position(x, space)
        assert h.lstm_hidden in space.lstm_hidden
        assert h.transformer_layers in space.transformer_layers
        assert h.attention_heads in space.attention_heads
        assert h.d_model in space.d_model and h.d_model % h.attention_heads == 0
        assert space.lstm_lr_bounds[0] <= h.lstm_lr <= space.lstm_lr_bounds[1]
        lo, hi = space.transformer_lr_bounds
        assert lo <= h.transformer_lr <= hi

        # the decoded point sits inside the bounds and decodes to itself
        x_h = position(h)
        assert all(lo <= v <= hi for v, (lo, hi) in zip(x_h, bounds))
        back = P.decode_position(x_h, space)
        axes = lambda p: (p.lstm_hidden, p.transformer_layers, p.attention_heads, p.d_model)
        assert axes(back) == axes(h)
        assert back.lstm_lr == pytest.approx(h.lstm_lr, rel=1e-12)
        assert back.transformer_lr == pytest.approx(h.transformer_lr, rel=1e-12)

    def test_log_axis_midpoint(self):
        space = P.SearchSpace()
        x = position(P.HyperparamPoint())
        x[1] = (np.log10(1e-3) + np.log10(1e-4)) / 2.0
        decoded = P.decode_position(x, space)
        assert decoded.lstm_lr == pytest.approx(10**-3.5, rel=1e-12)

    def test_heads_snap_to_divisor(self):
        space = P.SearchSpace()
        x = position(P.HyperparamPoint())
        x[3] = 7.0  # nearest admissible divisor of 256 is 8
        decoded = P.decode_position(x, space)
        assert decoded.attention_heads == 8

    def test_heads_must_divide_d_model(self):
        with pytest.raises(ValueError, match="divide"):
            P.HyperparamPoint(attention_heads=16, d_model=24)

    def test_collapsed_space_decodes_to_single_point(self):
        space = P.SearchSpace(
            lstm_hidden=(32,), lstm_lr_bounds=(1e-3, 1e-3),
            transformer_layers=(2,), attention_heads=(4,), d_model=(32,),
            transformer_lr_bounds=(1e-4, 1e-4),
        )
        bounds = space.bounds()
        assert all(hi > lo for lo, hi in bounds)
        mid = np.array([(lo + hi) / 2 for lo, hi in bounds])
        decoded = P.decode_position(mid, space)
        assert decoded.lstm_hidden == 32
        assert decoded.transformer_layers == 2
        assert decoded.attention_heads == 4
        assert decoded.d_model == 32
        assert decoded.lstm_lr == pytest.approx(1e-3, rel=1e-8)


    def test_decoded_learning_rates_stay_inside_their_bounds(self):
        space = P.SearchSpace(lstm_lr_bounds=(3e-4, 2e-3))
        x = position(P.HyperparamPoint())
        x[1] = space.bounds()[1][1]
        h = P.decode_position(x, space)
        assert h.lstm_lr <= 2e-3
        np.testing.assert_array_equal(position(h), x)

    def test_degenerate_rate_axis_decodes_to_its_value(self):
        space = P.SearchSpace(lstm_lr_bounds=(1e-3, 1e-3))
        x = position(P.HyperparamPoint())
        x[1] = space.bounds()[1][1]
        assert P.decode_position(x, space).lstm_lr == 1e-3


class TestBenchmarks:
    def test_sphere_reaches_tolerance_under_reference_config(self):
        hits = 0
        for seed in range(10):
            cfg = P.SwarmConfig(bounds=[(-5.0, 5.0)] * 5, seed=seed)
            _, best, history = P.run(cfg, P.make_objective("sphere", 5))
            assert all(b <= a for a, b in zip(history, history[1:]))
            if best <= 1e-3:
                hits += 1
        assert hits >= 9

    def test_dynamic_inertia_not_worse_on_rastrigin(self):
        obj = P.make_objective("rastrigin", 5)
        static, dynamic = [], []
        for seed in range(20):
            s_cfg = P.SwarmConfig(bounds=[(-5.0, 5.0)] * 5, seed=seed)
            d_cfg = P.SwarmConfig(
                bounds=[(-5.0, 5.0)] * 5, seed=seed,
                inertia_schedule="linear", omega_start=0.9, omega_end=0.4,
            )
            static.append(P.run(s_cfg, obj)[1])
            dynamic.append(P.run(d_cfg, obj)[1])
        assert np.median(dynamic) <= np.median(static)
