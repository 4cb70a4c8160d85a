import copy

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ltpnet.preprocessing import (
    RawTable,
    SyntheticSpec,
    build_dataset,
    column_stats,
    impute_missing,
    invert_standardization,
    kfold_split,
    load_csv,
    make_windows,
    remove_outliers,
    split_train_test,
    standardize,
    synthesize_series,
    write_csv,
)
from ltpnet.rng import SeededRng


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadCsv:
    def test_blank_cell_becomes_missing(self, tmp_path):
        path = _write(tmp_path, "a,b\n1,2\n,3\n4,5\n")
        table = load_csv(path)
        assert table.n_rows == 3
        assert table.missing_counts() == {"a": 1, "b": 0}

    def test_header_only_gives_zero_rows(self, tmp_path):
        table = load_csv(_write(tmp_path, "a,b\n"))
        assert table.n_rows == 0
        assert table.names == ["a", "b"]

    def test_nan_token_is_missing(self, tmp_path):
        table = load_csv(_write(tmp_path, "a\n1\nNaN\n3\n"))
        assert table.missing_counts()["a"] == 1

    def test_non_numeric_token_is_missing(self, tmp_path):
        table = load_csv(_write(tmp_path, "a\nhello\n2\n"))
        assert table.missing_counts()["a"] == 1

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_csv(tmp_path / "nope.csv")

    def test_schema_mismatch(self, tmp_path):
        path = _write(tmp_path, "a,b\n1,2\n")
        with pytest.raises(ValueError, match="header"):
            load_csv(path, schema=["a", "c"])

    def test_ragged_row_rejected(self, tmp_path):
        path = _write(tmp_path, "a,b\n1,2\n3\n")
        with pytest.raises(ValueError, match="expected 2 cells"):
            load_csv(path)

    def test_round_trip(self, tmp_path):
        table = synthesize_series(SyntheticSpec(length=30, feature_count=2, seed=3))
        path = tmp_path / "round.csv"
        write_csv(table, path)
        back = load_csv(path, schema=table.names)
        for name in table.names:
            np.testing.assert_array_equal(back.columns[name], table.columns[name])


class TestImpute:
    def test_median_midpoint(self):
        t = RawTable({"a": [1.0, np.nan, 3.0]})
        out = impute_missing(t, "median")
        np.testing.assert_array_equal(out.columns["a"], [1.0, 2.0, 3.0])

    def test_no_missing_unchanged(self):
        t = RawTable({"a": [1.0, 2.0, 3.0]})
        np.testing.assert_array_equal(
            impute_missing(t, "mean").columns["a"], t.columns["a"]
        )

    def test_mean_from_present_values_only(self):
        t = RawTable({"a": [1.0, 2.0, np.nan, 100.0]})
        out = impute_missing(t, "mean")
        np.testing.assert_allclose(out.columns["a"][2], 103.0 / 3.0)

    def test_all_missing_column_rejected(self):
        with pytest.raises(ValueError, match="no present values"):
            impute_missing(RawTable({"a": [np.nan, np.nan]}), "mean")

    def test_unknown_strategy(self):
        with pytest.raises(ValueError, match="strategy"):
            impute_missing(RawTable({"a": [1.0]}), "mode")


class TestRemoveOutliers:
    def test_constant_column_removes_nothing(self):
        t = RawTable({"a": [2.0] * 8})
        out, removed = remove_outliers(t)
        assert out.n_rows == 8
        assert removed.size == 0

    def test_boundary_value_kept(self):
        # mean 10, population std 30: the bound is exactly 100, so the
        # value 100 sits on the boundary and stays
        t = RawTable({"a": [0.0] * 9 + [100.0]})
        out, removed = remove_outliers(t)
        assert out.n_rows == 10
        assert removed.size == 0

    def test_value_past_boundary_removed(self):
        t = RawTable({"a": [0.0] * 99 + [100.0]})
        out, removed = remove_outliers(t)
        assert list(removed) == [99]
        assert out.n_rows == 99

    def test_gaussian_removal_rate(self):
        samples = SeededRng(11).normal(size=10_000)
        _, removed = remove_outliers(RawTable({"a": samples}))
        rate = removed.size / 10_000
        assert 0.0005 <= rate <= 0.01

    def test_no_survivor_outside_original_bounds(self):
        rng = SeededRng(12)
        col = rng.normal(size=500) * 3.0 + 1.0
        table = RawTable({"a": col})
        mu, sigma = col.mean(), col.std()
        out, _ = remove_outliers(table)
        assert np.all(out.columns["a"] >= mu - 3 * sigma)
        assert np.all(out.columns["a"] <= mu + 3 * sigma)

    def test_requires_imputed_input(self):
        with pytest.raises(ValueError, match="impute"):
            remove_outliers(RawTable({"a": [1.0, np.nan]}))


class TestStandardize:
    def test_hand_computed(self):
        out, stats = standardize(RawTable({"a": [1.0, 2.0, 3.0]}))
        np.testing.assert_allclose(
            out.columns["a"], [-1.224744871391589, 0.0, 1.224744871391589]
        )
        np.testing.assert_allclose(stats["a"], (2.0, np.sqrt(2.0 / 3.0)))

    def test_idempotent_on_standard_data(self):
        x = SeededRng(13).normal(size=200)
        x = (x - x.mean()) / x.std()
        out, _ = standardize(RawTable({"a": x}))
        np.testing.assert_allclose(out.columns["a"], x, atol=1e-12)

    def test_constant_column_rejected(self):
        with pytest.raises(ValueError, match="near-constant"):
            standardize(RawTable({"a": [4.0, 4.0, 4.0]}))

    def test_moments_after_standardize(self):
        rng = SeededRng(14)
        table = RawTable({"a": rng.uniform(-5, 9, 300), "b": rng.normal(2, 7, 300)})
        out, _ = standardize(table)
        for col in out.columns.values():
            assert abs(col.mean()) < 1e-9
            assert abs(col.std() - 1.0) < 1e-9

    def test_round_trip(self):
        rng = SeededRng(15)
        table = RawTable({"a": rng.uniform(10, 20, 100)})
        out, stats = standardize(table)
        back = invert_standardization(out.columns["a"], stats["a"])
        np.testing.assert_allclose(back, table.columns["a"], atol=1e-9)

    def test_apply_external_stats(self):
        table = RawTable({"a": np.arange(10.0)})
        stats = column_stats(table, rows=np.arange(5))
        out, _ = standardize(table, stats)
        np.testing.assert_allclose(out.columns["a"][:5].mean(), 0.0, atol=1e-12)


class TestMakeWindows:
    def _table(self, n):
        return RawTable({"x": np.arange(float(n)), "target": np.arange(float(n)) * 10})

    def test_window_count(self):
        ds = make_windows(self._table(26), "target", lookback=24)
        assert ds.n_windows == 2

    def test_too_few_rows(self):
        with pytest.raises(ValueError, match="too few"):
            make_windows(self._table(24), "target", lookback=24)

    def test_index_arithmetic(self):
        ds = make_windows(self._table(30), "target", lookback=24)
        np.testing.assert_array_equal(ds.features[0, :, 0], np.arange(24.0))
        assert ds.targets[0] == 240.0  # row 24 of the target column

    def test_temporal_causality(self):
        ds = make_windows(self._table(40), "target", lookback=24, horizon=1)
        for i in range(ds.n_windows):
            max_feature_row = ds.features[i, :, 0].max()
            target_row = ds.targets[i] / 10
            assert max_feature_row < target_row

    def test_feature_column_selection(self):
        ds = make_windows(self._table(30), "target", lookback=4, feature_columns=["x"])
        assert ds.n_features == 1
        assert ds.feature_names == ["x"]

    @pytest.mark.parametrize("lookback, horizon", [(0, 1), (24, 0), (-1, 1), (24, -2)])
    def test_lookback_and_horizon_below_one_rejected(self, lookback, horizon):
        # a horizon of 0 would make each target the last row of its own window
        with pytest.raises(ValueError, match="lookback and horizon"):
            make_windows(self._table(40), "target", lookback=lookback, horizon=horizon)

    @settings(max_examples=200)
    @given(
        n_rows=st.integers(2, 80), lookback=st.integers(1, 30),
        horizon=st.integers(1, 10), ratio=st.floats(0.01, 0.99),
    )
    def test_windows_precede_their_targets_and_the_split_partitions_them(
        self, n_rows, lookback, horizon, ratio
    ):
        assume(n_rows - lookback - horizon + 1 >= 2)
        rows = np.arange(float(n_rows))
        # both columns hold the row index, the target among the features
        ds = make_windows(RawTable({"x": rows, "target": rows}), "target", lookback, horizon)
        assert np.all(ds.features.max(axis=(1, 2)) < ds.targets)
        np.testing.assert_array_equal(ds.targets - ds.features[:, -1, 0], horizon)
        split = split_train_test(ds.n_windows, ratio)
        assert len(split.train) >= 1 and len(split.test) >= 1
        # disjoint, covering every window, and every train window before every test one
        np.testing.assert_array_equal(
            np.concatenate([split.train, split.test]), np.arange(ds.n_windows)
        )


class TestSplits:
    def test_seventy_thirty(self):
        split = split_train_test(10)
        assert len(split.train) == 7 and len(split.test) == 3

    def test_floor_rule(self):
        split = split_train_test(3)
        assert len(split.train) == 2 and len(split.test) == 1

    def test_boundary_two(self):
        split = split_train_test(2)
        assert len(split.train) == 1 and len(split.test) == 1

    def test_too_small(self):
        with pytest.raises(ValueError):
            split_train_test(1)

    def test_chronological(self):
        split = split_train_test(10)
        assert split.train.max() < split.test.min()

    def test_kfold_even(self):
        split = kfold_split(np.arange(10), k=5, rng=SeededRng(1))
        assert [len(f) for f in split.folds] == [2, 2, 2, 2, 2]

    def test_kfold_remainder(self):
        split = kfold_split(np.arange(11), k=5, rng=SeededRng(1))
        assert sorted(len(f) for f in split.folds) == [2, 2, 2, 2, 3]

    def test_kfold_deterministic(self):
        a = kfold_split(np.arange(13), k=5, rng=SeededRng(9))
        b = kfold_split(np.arange(13), k=5, rng=SeededRng(9))
        for fa, fb in zip(a.folds, b.folds):
            np.testing.assert_array_equal(fa, fb)

    def test_kfold_partition(self):
        split = kfold_split(np.arange(23), k=5, rng=SeededRng(3))
        merged = np.sort(np.concatenate(split.folds))
        np.testing.assert_array_equal(merged, np.arange(23))

    def test_kfold_too_few(self):
        with pytest.raises(ValueError):
            kfold_split(np.arange(3), k=5)


class TestSynthesize:
    def test_noiseless_flat_series_is_periodic(self):
        spec = SyntheticSpec(
            length=60, feature_count=1, seasonal_period=12, trend_slope=0.0,
            noise_std=0.0, seed=1,
        )
        target = synthesize_series(spec).columns["target"]
        np.testing.assert_allclose(target[:48], target[12:60], atol=1e-12)

    def test_deterministic_per_seed(self):
        spec = SyntheticSpec(length=100, feature_count=3, seed=42)
        a = synthesize_series(spec)
        b = synthesize_series(spec)
        for name in a.names:
            np.testing.assert_array_equal(a.columns[name], b.columns[name])

    def test_trend_recovered_by_least_squares(self):
        spec = SyntheticSpec(
            length=1000, feature_count=1, seasonal_period=12, trend_slope=0.01,
            noise_std=0.1, seed=7,
        )
        target = synthesize_series(spec).columns["target"]
        slope = np.polyfit(np.arange(1000.0), target, 1)[0]
        assert abs(slope - 0.01) < 0.005

    def test_bad_length(self):
        with pytest.raises(ValueError):
            synthesize_series(SyntheticSpec(length=0))


class TestPipeline:
    def test_deterministic_end_to_end(self):
        table = synthesize_series(SyntheticSpec(length=120, feature_count=2, seed=5))
        d1, s1, _ = build_dataset(table, lookback=12)
        d2, s2, _ = build_dataset(copy.deepcopy(table), lookback=12)
        np.testing.assert_array_equal(d1.features, d2.features)
        np.testing.assert_array_equal(d1.targets, d2.targets)
        np.testing.assert_array_equal(s1.train, s2.train)
        s1, s2 = kfold_split(s1, 5, SeededRng(2)), kfold_split(s2, 5, SeededRng(2))
        assert len(s1.folds) == 5
        for fa, fb in zip(s1.folds, s2.folds):
            np.testing.assert_array_equal(fa, fb)

    def test_stats_come_from_train_rows_only(self):
        table = synthesize_series(SyntheticSpec(length=120, feature_count=1, seed=6))
        dataset, split, report = build_dataset(table, lookback=12)
        # re-standardizing the training-era rows with the reported stats
        # leaves them centered; the test era is allowed to drift
        last_train_row = int(split.train[-1]) + dataset.lookback
        raw_target = impute_missing(table, "mean")
        cleaned, _ = remove_outliers(raw_target)
        mu, sigma = report.stats["target"]
        sliced = cleaned.columns["target"][: last_train_row + 1]
        np.testing.assert_allclose(sliced.mean(), mu, atol=1e-12)

    def test_missing_rates_logged(self):
        cols = {"a": [1.0, np.nan, 3.0, 4.0] * 10, "target": list(np.arange(40.0))}
        table = RawTable(cols)
        _, _, report = build_dataset(table, target_column="target", lookback=4)
        assert report.missing_rates["a"] == 0.25
