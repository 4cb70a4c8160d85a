import copy
import csv
import ctypes
import json
import math
import re
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from ltpnet import harness, metrics, training
from ltpnet.harness import (
    ABLATION_CSV_HEADER,
    ABLATION_ROWS,
    OPTIMIZER_CSV_HEADER,
    OPTIMIZER_ROWS,
    PSO_STUDY_CONFIGS,
    ExperimentSpec,
    build_configs,
    load_table,
    resolve_hyperparams,
    run_ablation_suite,
    run_experiment,
    run_optimizer_comparison,
    run_pso_distribution_study,
)
from ltpnet.preprocessing import build_dataset
from ltpnet.pso import HyperparamPoint, SwarmConfig


def tiny_spec(out_dir, **overrides):
    args = dict(
        dataset={
            "synthetic": {
                "length": 120, "feature_count": 1, "seasonal_period": 12,
                "trend_slope": 0.0, "noise_std": 0.05, "seed": 11,
            }
        },
        variant="full",
        optimizer="sgd",
        hyperparameter_source="fixed",
        hyperparams={
            "lstm_hidden": 4, "transformer_layers": 1,
            "attention_heads": 2, "d_model": 8,
        },
        train={"epochs": 1, "batch_size": 16, "lstm_layers": 1, "head_width": 4},
        swarm={"n_particles": 2, "iterations": 1},
        budget={"epochs": 1},
        search_space={
            "lstm_hidden": [4], "lstm_lr_bounds": [1e-3, 1e-2],
            "transformer_layers": [1], "attention_heads": [2], "d_model": [8],
            "transformer_lr_bounds": [1e-4, 1e-3],
        },
        lookback=12,
        output_dir=str(out_dir),
    )
    args.update(overrides)
    return ExperimentSpec(**args)


class TestSpecValidation:
    def test_exactly_one_dataset_source(self, tmp_path):
        with pytest.raises(ValueError, match="exactly one dataset source"):
            ExperimentSpec(dataset={})
        with pytest.raises(ValueError, match="exactly one dataset source"):
            ExperimentSpec(
                dataset={"synthetic": {}, "csv": {"path": "x.csv"}}
            )

    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="variant"):
            ExperimentSpec(dataset={"synthetic": {}}, variant="no-head")

    def test_lstm_layers_may_be_zero_only_without_the_lstm(self, tmp_path):
        train = {"epochs": 1, "lstm_layers": 0}
        build_configs(tiny_spec(tmp_path, variant="no-lstm", train=train))
        for variant in ("full", "no-transformer", "no-pso"):
            with pytest.raises(ValueError, match="lstm_layers"):
                build_configs(tiny_spec(tmp_path, variant=variant, train=train))

    # variant -> (lstm_enabled, transformer_enabled)
    FLAGS = {
        "full": (True, True), "no-lstm": (False, True),
        "no-transformer": (True, False), "no-pso": (True, True),
    }

    @pytest.mark.parametrize("variant", list(FLAGS))
    @pytest.mark.parametrize("source", ["fixed", "pso-search", "grid-search"])
    def test_configs_record_the_source_and_components_once(self, tmp_path, variant, source):
        configs = build_configs(tiny_spec(tmp_path, variant=variant, hyperparameter_source=source))
        lstm, transformer = self.FLAGS[variant]
        assert configs.flags == {"lstm_enabled": lstm, "transformer_enabled": transformer}
        if variant == "no-pso":  # the fixed defaults and no search, whatever the source
            assert configs.source == "fixed"
            assert configs.hyperparams == HyperparamPoint() and configs.space is None
        elif source == "pso-search":
            assert configs.source == "pso-search"
            assert configs.hyperparams is None and configs.space is not None
        else:
            assert configs.source == source and configs.space is None
            assert configs.hyperparams == HyperparamPoint(**tiny_spec(tmp_path).hyperparams)

    def test_json_round_trip(self, tmp_path):
        spec = tiny_spec(tmp_path)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec.as_dict()))
        back = ExperimentSpec.from_json_file(path)
        assert back.as_dict() == spec.as_dict()


class TestRunExperiment:
    def test_smoke_emits_all_files(self, tmp_path):
        report = run_experiment(tiny_spec(tmp_path / "run"))
        for rel in (
            "reports/run_report.json", "reports/timing.json",
            "checkpoints/model.ckpt",
        ):
            assert (tmp_path / "run" / rel).exists(), rel
        assert report.eval.n == len(report.split.test)

    # The sections of a run report and the keys each must hold, as README documents them.
    REPORT_KEYS = {
        "spec": (),
        "resolved_hyperparams": (
            "lstm_hidden", "lstm_lr", "transformer_layers", "attention_heads", "d_model", "transformer_lr",
        ),
        "train_config": ("optimizer", "batch_size", "epochs", "patience"),
        "swarm_config": ("n_particles", "iterations", "omega", "c1", "c2"),
        "eval": ("mae", "mape", "rmse", "mse", "n", "skipped_mape_points"),
        "efficiency": ("parameter_count", "flops_per_forward"),
        "training": ("stopped_epoch", "best_epoch", "diverged"),
        "audit": ("train_batch_index_count", "test_overlap_count"),
    }

    def test_report_validates_against_schema(self, tmp_path):
        report = run_experiment(tiny_spec(tmp_path / "run"))
        payload = json.loads((tmp_path / "run" / "reports" / "run_report.json").read_text())
        assert payload.keys() == {*self.REPORT_KEYS, "version"}
        for section, keys in self.REPORT_KEYS.items():
            assert isinstance(payload[section], dict), section
            assert set(keys) <= payload[section].keys(), section
        assert payload["version"] == report.version
        assert re.fullmatch("[0-9a-f]{12}", payload["version"])
        timing = json.loads((tmp_path / "run" / "reports" / "timing.json").read_text())
        assert timing.keys() == {"inference_ms_per_window", "training_time_s", "version"}

    def test_byte_identical_reruns(self, tmp_path):
        spec = tiny_spec(tmp_path / "run")
        run_experiment(spec)
        first = (tmp_path / "run" / "reports" / "run_report.json").read_bytes()
        run_experiment(tiny_spec(tmp_path / "run"))
        second = (tmp_path / "run" / "reports" / "run_report.json").read_bytes()
        assert first == second

    def test_no_pso_variant_reports_reference_defaults(self, tmp_path):
        spec = tiny_spec(
            tmp_path / "nopso", variant="no-pso",
            train={"epochs": 0, "batch_size": 64, "lstm_layers": 2, "head_width": 64},
            swarm={},
            lookback=24,
            dataset={
                "synthetic": {
                    "length": 200, "feature_count": 2, "seasonal_period": 12,
                    "trend_slope": 0.0, "noise_std": 0.05, "seed": 3,
                }
            },
        )
        report = run_experiment(spec)
        hp = report.resolved_hyperparams
        assert hp == {
            "lstm_hidden": 128, "lstm_lr": 0.001, "transformer_layers": 6,
            "attention_heads": 8, "d_model": 256, "transformer_lr": 0.0001,
        }
        sw = report.swarm_config
        assert (sw["n_particles"], sw["iterations"], sw["omega"]) == (50, 100, 0.5)
        assert (sw["c1"], sw["c2"]) == (1.0, 1.0)

    def test_audit_log_clean(self, tmp_path):
        report = run_experiment(tiny_spec(tmp_path / "run"))
        assert report.audit["test_overlap_count"] == 0
        overlap = np.intersect1d(
            report.train_report.used_train_indices, report.split.test
        )
        assert overlap.size == 0

    def test_emitted_checkpoint_reloads_and_predicts(self, tmp_path):
        from ltpnet.checkpoint import load_checkpoint
        from ltpnet.model import forward_batch

        report = run_experiment(tiny_spec(tmp_path / "run"))
        loaded = load_checkpoint(tmp_path / "run" / "checkpoints" / "model.ckpt")
        sample = report.dataset.features[report.split.test[:4]]
        a, _ = forward_batch(sample, report.train_report.params)
        b, _ = forward_batch(sample, loaded)
        np.testing.assert_array_equal(a, b)

    def test_csv_dataset_source(self, tmp_path):
        from ltpnet.preprocessing import SyntheticSpec, synthesize_series, write_csv

        table = synthesize_series(
            SyntheticSpec(length=120, feature_count=1, noise_std=0.05, seed=2)
        )
        csv_path = tmp_path / "series.csv"
        write_csv(table, csv_path)
        spec = tiny_spec(
            tmp_path / "csvrun",
            dataset={"csv": {"path": str(csv_path), "target_column": "target"}},
        )
        report = run_experiment(spec)
        assert report.eval.n > 0

    def test_pso_search_source_writes_history(self, tmp_path):
        spec = tiny_spec(tmp_path / "search", hyperparameter_source="pso-search")
        report = run_experiment(spec)
        assert (tmp_path / "search" / "histories" / "pso_history.csv").exists()
        assert report.resolved_hyperparams["lstm_hidden"] == 4

    def test_grid_search_source(self, tmp_path):
        spec = tiny_spec(tmp_path / "grid", hyperparameter_source="grid-search")
        report = run_experiment(spec)
        assert report.resolved_hyperparams["transformer_layers"] in (4, 6)

    def test_grid_search_resolve_leaves_the_configs_untouched(self, tmp_path):
        spec = tiny_spec(tmp_path / "grid", hyperparameter_source="grid-search")
        configs = build_configs(spec)
        before = copy.deepcopy(configs)
        dataset, split, _ = build_dataset(
            *load_table(configs.dataset), lookback=spec.lookback
        )
        _, cfg = resolve_hyperparams(dataset, split, configs, tmp_path)
        assert configs == before
        # the grid's batch sizes are 32 and 64; the spec asks for 16
        assert cfg.batch_size in (32, 64)
        assert cfg == replace(configs.train, batch_size=cfg.batch_size)



def _unloadable(name):
    raise OSError("no C library")


class TestRunCost:
    """A run does only the passes that give it results, and fixes glibc's
    allocator thresholds without ever raising."""

    @pytest.mark.parametrize("cdll", [lambda name: object(), _unloadable], ids=["no-mallopt", "no-libc"])
    def test_allocator_helper_is_quiet_without_glibc(self, monkeypatch, cdll):
        monkeypatch.setattr(ctypes, "CDLL", cdll)
        harness._fix_allocator_thresholds()

    @pytest.mark.parametrize("accepted, calls", [
        (1, [(-3, 2**30), (-1, 2**31 - 1)]),
        (0, [(-3, 2**30)]),  # a refused mmap threshold leaves the trim threshold alone
    ])
    def test_allocator_helper_sets_both_thresholds_or_neither(self, monkeypatch, accepted, calls):
        seen = []

        class Libc:
            @staticmethod
            def mallopt(param, value):
                seen.append((param, value))
                return accepted

        monkeypatch.setattr(ctypes, "CDLL", lambda name: Libc)
        harness._fix_allocator_thresholds()
        assert seen == calls

    def test_allocator_helper_may_run_again(self):
        harness._fix_allocator_thresholds()
        harness._fix_allocator_thresholds()

    def test_inference_time_is_the_test_evaluation_per_window(self, tmp_path):
        run_experiment(tiny_spec(tmp_path / "run"))
        timing = json.loads((tmp_path / "run" / "reports" / "timing.json").read_text())
        ms = timing["inference_ms_per_window"]
        assert math.isfinite(ms) and ms > 0

    def test_no_timing_only_passes(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("run_experiment called metrics.time_run")

        monkeypatch.setattr(metrics, "time_run", refuse)
        monkeypatch.setattr(harness, "time_run", refuse, raising=False)  # a direct import too
        run_experiment(tiny_spec(tmp_path / "run"))

    def test_forward_passes_are_training_and_one_test_evaluation(self, tmp_path, monkeypatch):
        calls = []
        forward = training.forward_batch

        def counting(windows, *args, **kwargs):
            calls.append(len(windows))
            return forward(windows, *args, **kwargs)

        monkeypatch.setattr(training, "forward_batch", counting)
        report = run_experiment(tiny_spec(tmp_path / "run"))
        inner, val = training.carve_validation(report.split.train, report.train_config["val_fraction"])
        epochs = report.training["stopped_epoch"]
        batch = report.train_config["batch_size"]
        expected = (
            [inner.size]  # the train-carve MSE before training
            + ([batch] * (inner.size // batch) + [inner.size % batch] * bool(inner.size % batch)
               + [val.size]) * epochs  # the steps and the validation pass of each epoch
            + [inner.size]  # the train-carve MSE after training
            + [report.split.test.size]  # the test evaluation
        )
        assert calls == expected


def test_table_headers():
    assert ABLATION_CSV_HEADER == ["model", "mae", "mape", "rmse", "mse"]
    assert OPTIMIZER_CSV_HEADER == [
        "optimizer", "parameter_count", "flops_per_forward",
        "inference_ms_per_window", "training_time_s", "mae", "mape", "rmse", "mse",
    ]


class TestAblationSuite:
    def test_table_layout_and_shared_split(self, tmp_path):
        result = run_ablation_suite(tiny_spec(tmp_path / "abl"))
        with open(result["summary"]["table"], newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ABLATION_CSV_HEADER
        assert [r[0] for r in rows[1:]] == [label for label, _ in ABLATION_ROWS]
        assert len(rows) == 5
        for row in rows[1:]:
            assert len(row) == 5
            for cell in row[1:]:
                float(cell)  # parseable metric
        assert result["summary"]["shared_test_indices"] is True
        mse = {label: r.eval.mse for label, r in result["reports"].items()}
        assert result["summary"]["full_model_mse"] == mse["ALL"]
        assert result["summary"]["full_model_best"] == all(mse["ALL"] <= v for v in mse.values())

    def test_rows_disagreeing_on_test_indices_are_refused_before_any_output(
        self, tmp_path, monkeypatch
    ):
        def fake_run(spec):
            test = np.arange(3) + (spec.variant == "full")
            return SimpleNamespace(split=SimpleNamespace(test=test), version=spec.variant)

        monkeypatch.setattr(harness, "run_experiment", fake_run)
        with pytest.raises(RuntimeError, match="ablation rows disagree on test indices"):
            run_ablation_suite(tiny_spec(tmp_path / "abl"))
        assert not (tmp_path / "abl" / "ablation_table.csv").exists()
        assert not (tmp_path / "abl" / "ablation_summary.json").exists()

    def test_all_variants_share_test_indices(self, tmp_path):
        result = run_ablation_suite(tiny_spec(tmp_path / "abl"))
        reference = None
        for label, report in result["reports"].items():
            ids = tuple(int(i) for i in report.split.test)
            reference = ids if reference is None else reference
            assert ids == reference

    def test_deterministic_versions(self, tmp_path):
        v1 = run_ablation_suite(tiny_spec(tmp_path / "a1"))["summary"]["versions"]
        v2 = run_ablation_suite(tiny_spec(tmp_path / "a1"))["summary"]["versions"]
        assert v1 == v2


class TestOptimizerComparison:
    def test_table_rows_and_configs(self, tmp_path):
        result = run_optimizer_comparison(tiny_spec(tmp_path / "opt"))
        with open(result["summary"]["table"], newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == OPTIMIZER_CSV_HEADER
        assert [r[0] for r in rows[1:]] == list(OPTIMIZER_ROWS)

        adam_spec = result["reports"]["adam"].spec
        assert adam_spec["optimizer"] == "adam"
        assert adam_spec["train"]["adam_lr"] == 0.001
        assert adam_spec["train"]["batch_size"] == 64
        am_spec = result["reports"]["adaptive-momentum"].spec
        assert am_spec["train"]["momentum_init"] == 0.9
        assert am_spec["train"]["momentum_update_rate"] == 0.1
        assert am_spec["train"]["momentum_lr"] == 0.001
        sgd_spec = result["reports"]["sgd+pso"].spec
        assert sgd_spec["hyperparameter_source"] == "pso-search"


class TestPsoStudy:
    def test_single_run_rows(self, tmp_path):
        summary = run_pso_distribution_study("sphere", run_count=1, out_dir=tmp_path)
        for config in ("static", "dynamic"):
            assert len(summary["configs"][config]["per_run_best"]) == 1

    def test_history_csv_schema(self, tmp_path):
        summary = run_pso_distribution_study("sphere", run_count=2, out_dir=tmp_path, dim=2)
        iterations = SwarmConfig().iterations  # the study runs the default swarm
        for config in PSO_STUDY_CONFIGS:
            with open(summary["configs"][config]["history_csv"], newline="") as fh:
                rows = list(csv.reader(fh))
            assert rows[0] == ["run_seed", "iteration", "global_best_value"]
            assert len(rows) == 1 + 2 * iterations

    def test_unknown_objective(self, tmp_path):
        with pytest.raises(ValueError, match="unknown objective"):
            run_pso_distribution_study("ackley", run_count=1, out_dir=tmp_path)
