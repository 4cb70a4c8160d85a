import time

import numpy as np
import pytest

from ltpnet import lstm as L
from ltpnet import transformer as T
from ltpnet.metrics import (
    count_parameters,
    encoder_layer_flops,
    estimate_flops,
    evaluate,
    lstm_layer_flops,
    matmul_flops,
    time_run,
)
from ltpnet.model import ModelParams, build_model
from ltpnet.rng import SeededRng


class TestEvaluate:
    def test_perfect_prediction(self):
        r = evaluate([1.0, 2.0], [1.0, 2.0])
        assert r.mae == r.mape == r.rmse == r.mse == 0.0

    def test_hand_computed(self):
        r = evaluate([1.0, 2.0, 3.0], [2.0, 2.0, 5.0])
        np.testing.assert_allclose(r.mae, 1.0, atol=1e-12)
        np.testing.assert_allclose(r.mse, 5.0 / 3.0, atol=1e-12)
        np.testing.assert_allclose(r.rmse, np.sqrt(5.0 / 3.0), atol=1e-12)
        np.testing.assert_allclose(r.mape, 30.0, atol=1e-12)
        assert r.n == 3
        assert r.skipped_mape_points == 0

    def test_zero_actual_excluded_from_mape(self):
        r = evaluate([1.0, 1.0], [0.0, 2.0])
        assert r.skipped_mape_points == 1
        np.testing.assert_allclose(r.mape, 50.0)

    def test_all_zero_actuals_mape_absent(self):
        r = evaluate([1.0, 2.0], [0.0, 0.0])
        assert r.mape is None
        assert r.skipped_mape_points == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            evaluate([], [])

    def test_rmse_squared_equals_mse(self):
        rng = SeededRng(70)
        for _ in range(1000):
            n = int(rng.integers(1, 30))
            r = evaluate(rng.uniform(-10, 10, n), rng.uniform(-10, 10, n))
            assert abs(r.rmse**2 - r.mse) <= 1e-9 * max(r.mse, 1e-300)

    def test_mae_never_exceeds_rmse(self):
        rng = SeededRng(71)
        for _ in range(300):
            n = int(rng.integers(1, 50))
            r = evaluate(rng.uniform(-5, 5, n), rng.uniform(-5, 5, n))
            assert r.mae <= r.rmse + 1e-12

    def test_permutation_symmetry(self):
        rng = SeededRng(72)
        pred = rng.uniform(-5, 5, 40)
        actual = rng.uniform(-5, 5, 40)
        perm = rng.permutation(40)
        a = evaluate(pred, actual)
        b = evaluate(pred[perm], actual[perm])
        for metric in ("mae", "mape", "rmse", "mse"):
            np.testing.assert_allclose(
                getattr(a, metric), getattr(b, metric), rtol=1e-12
            )


class TestCountParameters:
    def test_empty_model(self):
        assert count_parameters(ModelParams(lstm_stack=[], encoder=None, head=None)) == 0

    def test_single_lstm_layer_hand_count(self):
        # F=1, H=2: three peephole gates of 2+4+4+2 = 12, candidate 2+4+2 = 8
        layer = L.init_layer(1, 2, SeededRng(0))
        model = ModelParams(lstm_stack=[layer], encoder=None, head=None)
        assert count_parameters(model) == 44

    def test_feed_forward_block_hand_count(self):
        layer = T.init_encoder_layer(4, 8, SeededRng(0))
        ff = sum(
            arr.size
            for name, arr in layer.named_arrays()
            if name.startswith(("W_ff", "b_ff"))
        )
        assert ff == 76  # 4*8 + 8 + 8*4 + 4

    def test_reference_configuration_closed_form(self):
        features, hidden, d_model, d_ff, width = 4, 128, 256, 1024, 64
        model = build_model(
            n_features=features, lstm_hidden=hidden, lstm_layers=2,
            transformer_layers=6, attention_heads=8, d_model=d_model,
            head_width=width, rng=SeededRng(1),
        )

        def lstm_layer(f, h):
            return 3 * (h * f + h * h + h * h + h) + (h * f + h * h + h)

        encoder_layer = (
            4 * d_model * d_model
            + d_model * d_ff + d_ff + d_ff * d_model + d_model
            + 4 * d_model  # two layer-norm affine pairs
        )
        expected = (
            lstm_layer(features, hidden)
            + lstm_layer(hidden, hidden)
            + hidden * d_model + d_model  # input projection
            + 6 * encoder_layer
            + d_model * width + width + width * 1 + 1
        )
        assert count_parameters(model) == expected

    def test_stable_across_runs(self):
        kwargs = dict(
            n_features=3, lstm_hidden=16, lstm_layers=2,
            transformer_layers=2, attention_heads=4, d_model=32, head_width=8,
        )
        a = count_parameters(build_model(rng=SeededRng(1), **kwargs))
        b = count_parameters(build_model(rng=SeededRng(99), **kwargs))
        assert a == b


class TestEstimateFlops:
    def test_empty_model(self):
        model = ModelParams(lstm_stack=[], encoder=None, head=None)
        assert estimate_flops(model, (24, 4)) == 0

    def test_single_matmul_convention(self):
        assert matmul_flops(2, 2, 2) == 16

    def test_lstm_flops_linear_in_sequence_length(self):
        assert lstm_layer_flops(3, 8, 48) == 2 * lstm_layer_flops(3, 8, 24)

    def test_doubling_window_doubles_lstm_contribution(self):
        model = build_model(
            n_features=3, lstm_hidden=8, lstm_layers=2,
            transformer_layers=0, attention_heads=2, d_model=8, head_width=4,
            rng=SeededRng(2),
        )
        lstm_only = ModelParams(lstm_stack=model.lstm_stack, encoder=None, head=None)
        assert estimate_flops(lstm_only, (48, 3)) == 2 * estimate_flops(lstm_only, (24, 3))

    def test_total_is_sum_of_parts(self):
        model = build_model(
            n_features=3, lstm_hidden=8, lstm_layers=1,
            transformer_layers=2, attention_heads=2, d_model=16, head_width=4,
            rng=SeededRng(3),
        )
        total = estimate_flops(model, (10, 3))
        lstm_part = lstm_layer_flops(3, 8, 10)
        proj = matmul_flops(10, 8, 16) + 10 * 16 + 10 * 16
        enc = 2 * encoder_layer_flops(10, 16, 2, 64)
        pool = 10 * 16 + 16
        head = matmul_flops(1, 16, 4) + 4 + 4 + matmul_flops(1, 4, 1) + 1
        assert total == lstm_part + proj + enc + pool + head


class TestTimeRun:
    def test_empty_thunk_non_negative(self):
        mean, std = time_run(lambda: None, repetitions=5)
        assert mean >= 0.0 and std >= 0.0

    def test_single_repetition_zero_std(self):
        _, std = time_run(lambda: None, repetitions=1)
        assert std == 0.0

    def test_sleep_duration_measured(self):
        mean, _ = time_run(lambda: time.sleep(0.01), repetitions=3, warmup=1)
        assert 9.0 <= mean <= 50.0

    def test_bad_repetitions(self):
        with pytest.raises(ValueError):
            time_run(lambda: None, repetitions=0)
