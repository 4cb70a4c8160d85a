import contextlib
import io
import json
import tempfile
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltpnet.cli import cli
from ltpnet.gradcheck import GradCheckCase
from ltpnet.harness import HP_SOURCES, SHADOWED_KEYS, ExperimentSpec, Seeds
from ltpnet.preprocessing import SyntheticSpec
from ltpnet.pso import HyperparamPoint, SearchSpace, SwarmConfig
from ltpnet.training import SearchBudget, TrainConfig


def write_spec(tmp_path, out_dir):
    spec = {
        "dataset": {
            "synthetic": {
                "length": 120, "feature_count": 1, "seasonal_period": 12,
                "trend_slope": 0.0, "noise_std": 0.05, "seed": 11,
            }
        },
        "variant": "full",
        "hyperparams": {
            "lstm_hidden": 4, "transformer_layers": 1,
            "attention_heads": 2, "d_model": 8,
        },
        "train": {"epochs": 1, "batch_size": 16, "lstm_layers": 1, "head_width": 4},
        "swarm": {"n_particles": 2, "iterations": 1},
        "budget": {"epochs": 1},
        "search_space": {
            "lstm_hidden": [4], "lstm_lr_bounds": [1e-3, 1e-2],
            "transformer_layers": [1], "attention_heads": [2], "d_model": [8],
            "transformer_lr_bounds": [1e-4, 1e-3],
        },
        "lookback": 12,
        "output_dir": str(out_dir),
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return path


class TestUsage:
    def test_no_args_prints_usage_and_exits_one(self, capsys):
        assert cli([]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_command(self, capsys):
        assert cli(["frobnicate"]) == 1

    def test_missing_required_flag(self, capsys):
        assert cli(["run"]) == 1
        assert "config" in capsys.readouterr().err

    def _malformed(self, tmp_path, **change):
        """The test spec with ``change`` merged in; a None in a section drops its key."""
        spec_path = write_spec(tmp_path, tmp_path / "out")
        spec = json.loads(spec_path.read_text())
        for key, value in change.items():
            if isinstance(value, dict):
                merged = {**spec.get(key, {}), **value}
                spec[key] = {k: v for k, v in merged.items() if v is not None}
            else:
                spec[key] = value
        spec_path.write_text(json.dumps(spec))
        return spec_path

    def test_unknown_top_level_key_is_usage_error(self, tmp_path, capsys):
        spec_path = self._malformed(tmp_path, learning_rate=0.1)
        assert cli(["run", "--config", str(spec_path)]) == 1
        assert "learning_rate" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unknown_train_key_is_usage_error(self, tmp_path, capsys):
        spec_path = self._malformed(tmp_path, train={"epochz": 3})
        assert cli(["run", "--config", str(spec_path)]) == 1
        assert "epochz" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unknown_variant_is_usage_error(self, tmp_path, capsys):
        spec_path = self._malformed(tmp_path, variant="no-encoder")
        assert cli(["run", "--config", str(spec_path)]) == 1
        assert "no-encoder" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("change, key", [
        ({"horizon": 0}, "horizon"),
        ({"lookback": 0}, "lookback"),
        ({"train_ratio": 1.5}, "train_ratio"),
        ({"train_ratio": 0.0}, "train_ratio"),
        ({"train": {"val_fraction": 1.0}}, "val_fraction"),
        ({"train": {"val_fraction": 0.0}}, "val_fraction"),
        ({"train": {"lstm_layers": 0}}, "lstm_layers"),
        ({"hyperparameter_source": "pso-search", "swarm": {"n_particles": 0}}, "particle"),
        ({"hyperparameter_source": "pso-search", "budget": {"epochs": 0}}, "epochs"),
        ({"hyperparams": {"transformer_layers": -1}}, "transformer_layers"),
        ({"hyperparams": {"lstm_lr": -1}}, "lstm_lr"),
        ({"optimizer": "adam", "train": {"adam_lr": -1}}, "adam_lr"),
        ({"hyperparameter_source": "pso-search", "swarm": {"velocity_clamp_fraction": -1}},
         "velocity_clamp_fraction"),
        ({"hyperparameter_source": "pso-search",
          "swarm": {"inertia_schedule": "linear", "omega_start": 5}}, "omega_start"),
        ({"hyperparams": {"attention_heads": 0}}, "attention_heads"),
        ({"hyperparams": {"lstm_hidden": 0}}, "lstm_hidden"),
        ({"hyperparams": {"d_model": 0}}, "d_model"),
        ({"train": {"head_width": 0}}, "head_width"),
        ({"impute_strategy": "mode"}, "impute_strategy"),
        ({"seeds": {"init": -2}}, "init"),
        ({"hyperparameter_source": "pso-search", "search_space": {"lstm_hidden": []}},
         "lstm_hidden"),
        ({"dataset": {"synthetic": {"length": 0}}}, "length"),
        ({"dataset": {"synthetic": {"amplitude": 2.0}}}, "amplitude"),
        # a key that another key sets names the one that counts
        ({"swarm": {"seed": 7}}, "seeds.swarm"),
        ({"swarm": {"bounds": [[-1.0, 1.0]]}}, "search_space"),
        ({"train": {"optimizer": "adam"}}, "optimizer"),
        ({"train": {"lstm_lr": 0.01}}, "hyperparams.lstm_lr"),
        ({"train": {"transformer_lr": 0.01}}, "hyperparams.transformer_lr"),
        # the sinusoidal encoding needs an even width
        ({"hyperparams": {"d_model": 9, "attention_heads": 3}}, "d_model"),
        ({"hyperparameter_source": "pso-search",
          "search_space": {"d_model": [9], "attention_heads": [3]}}, "d_model"),
        ({"dataset": {"synthetic": None, "csv": {"target_column": "target"}}}, "path"),
        ({"dataset": {"synthetic": None, "csv": {"path": "series.csv",
                                                  "feature_column": ["feature_1"]}}},
         "feature_column"),
        ({"seeds": 5}, "seeds"),
        ({"seeds": {"init": 2.5}}, "init"),
        ({"seeds": {"init": True}}, "init"),
        ({"output_dir": 5}, "output_dir"),
        # an integer a run reads is an int, and a bool is not one
        ({"lookback": True}, "lookback"),
        ({"horizon": 1.5}, "horizon"),
        ({"train": {"epochs": True}}, "epochs"),
        ({"train": {"batch_size": 2.5}}, "batch_size"),
        ({"train": {"iterations_per_epoch": 2.5}}, "iterations_per_epoch"),
        ({"train": {"patience": 1.5}}, "patience"),
        ({"train": {"head_width": 4.5}}, "head_width"),
        ({"train": {"lstm_layers": True}}, "lstm_layers"),
        ({"train": {"seed": 1.5}}, "seed"),
        ({"hyperparams": {"lstm_hidden": 4.5}}, "lstm_hidden"),
        ({"hyperparams": {"transformer_layers": True}}, "transformer_layers"),
        ({"hyperparams": {"d_model": 8.0}}, "d_model"),
        ({"hyperparameter_source": "pso-search", "swarm": {"n_particles": 2.5}}, "n_particles"),
        ({"hyperparameter_source": "pso-search", "swarm": {"iterations": True}}, "iterations"),
        ({"hyperparameter_source": "pso-search", "budget": {"epochs": True}}, "epochs"),
        ({"hyperparameter_source": "pso-search", "budget": {"fitness_seed": 1.5}}, "fitness_seed"),
        ({"hyperparameter_source": "pso-search", "search_space": {"lstm_hidden": [4.5]}},
         "lstm_hidden"),
        ({"dataset": {"synthetic": {"length": 120.5}}}, "length"),
        ({"dataset": {"synthetic": {"feature_count": True}}}, "feature_count"),
        ({"dataset": {"synthetic": {"seed": 11.5}}}, "seed"),
        # values that failed late, ran silently or went unnamed before one checker held
        # every declared field
        ({"hyperparameter_source": "pso-search", "search_space": {"attention_heads": [3]}},
         "search_space.attention_heads"),
        ({"hyperparameter_source": "pso-search", "search_space": {"lstm_hidden": [0]}},
         "search_space.lstm_hidden"),
        ({"hyperparameter_source": "pso-search", "search_space": {"lstm_lr_bounds": [-1.0, 1e-3]}},
         "search_space.lstm_lr_bounds"),
        ({"hyperparameter_source": "pso-search",
          "search_space": {"lstm_lr_bounds": [1e-3, 1e-2, 1e-1]}}, "search_space.lstm_lr_bounds"),
        ({"hyperparameter_source": "pso-search", "search_space": {"lstm_lr_bounds": [1e-2, 1e-3]}},
         "search_space.lstm_lr_bounds"),
        ({"hyperparams": {"lstm_lr": float("nan")}}, "hyperparams.lstm_lr"),
        ({"hyperparams": {"lstm_lr": float("inf")}}, "hyperparams.lstm_lr"),
        ({"train": {"grad_clip_norm": float("nan")}}, "train.grad_clip_norm"),
        ({"train": {"grad_clip_norm": -1}}, "train.grad_clip_norm"),
        ({"train": {"min_delta": float("nan")}}, "train.min_delta"),
        ({"optimizer": "adam", "train": {"adam_beta1": 2.0}}, "train.adam_beta1"),
        ({"optimizer": "adaptive-momentum", "train": {"momentum_init": 5.0}}, "train.momentum_init"),
        ({"hyperparameter_source": "pso-search", "swarm": {"per_dimension_rand": "yes"}},
         "swarm.per_dimension_rand"),
        ({"dataset": {"synthetic": {"noise_std": -1}}}, "dataset.synthetic.noise_std"),
        ({"dataset": {"synthetic": {"seasonal_period": 0}}}, "dataset.synthetic.seasonal_period"),
        ({"train_ratio": "0.7"}, "train_ratio"),
        ({"swarm": {"c1": "1"}}, "swarm.c1"),
        ({"train": None}, "train"),
        # sections that the hyperparameter source does not read
        ({"budget": {"epochs": 0.5}}, "budget.epochs"),
        ({"hyperparameter_source": "grid-search", "search_space": {"lstm_hidden": [0]}},
         "search_space.lstm_hidden"),
        ({"hyperparameter_source": "pso-search", "hyperparams": {"lstm_lr": float("nan")}},
         "hyperparams.lstm_lr"),
        ({"variant": "no-pso", "hyperparams": {"d_model": 8.0}}, "hyperparams.d_model"),
        ({"variant": "no-pso", "budget": {"patience": 0}}, "budget.patience"),
        ({"optimizer": "x"}, "optimizer"),
    ])
    def test_out_of_range_values_are_usage_errors(self, tmp_path, capsys, change, key):
        spec_path = self._malformed(tmp_path, **change)
        assert cli(["run", "--config", str(spec_path)]) == 1
        err = capsys.readouterr().err
        assert key in err
        # a shadowed key is named only when the spec holds it
        held = {f"{s}.{k}" for s, section in change.items() if isinstance(section, dict)
                for k in section}
        assert not [f"{s}.{k}" for s, keys in SHADOWED_KEYS.items() for k in keys
                    if f"{s}.{k}" in err and f"{s}.{k}" not in held]
        assert not (tmp_path / "out").exists()

    def test_ablate_checks_the_spec_of_every_row(self, tmp_path, capsys):
        # a no-pso spec ignores its hyperparams, but the suite's other rows use them
        spec_path = self._malformed(tmp_path, variant="no-pso", hyperparams={"bogus": 1})
        assert cli(["ablate", "--config", str(spec_path)]) == 1
        assert "bogus" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, flag", [
        (["gradcheck", "--seeds", "0"], "--seeds"),
        (["gradcheck", "--seed", "-3"], "--seed"),
        (["pso-study", "--runs", "0"], "--runs"),
        (["pso-study", "--dim", "0"], "--dim"),
        (["pso-study", "--runs", "two"], "--runs"),
        (["synth", "--length", "0"], "--length"),
        (["synth", "--period", "0"], "--period"),
        (["synth", "--period", "nan"], "--period"),
        (["synth", "--slope", "inf"], "--slope"),
        (["synth", "--noise", "-1"], "--noise"),
        (["gradcheck", "--seeds", "1", "--tolerance", "nan"], "--tolerance"),
        (["gradcheck", "--seeds", "1", "--tolerance", "0"], "--tolerance"),
    ])
    def test_counts_below_one_and_negative_seeds_are_usage_errors(
        self, tmp_path, capsys, argv, flag
    ):
        out = tmp_path / "out"
        paths = {"synth": ["--out", str(out / "s.csv")], "gradcheck": []}
        assert cli(argv + paths.get(argv[0], ["--out-dir", str(out)])) == 1
        assert f"argument {flag}:" in capsys.readouterr().err
        assert not out.exists()

    # any value, whatever the key's type. An empty object is left out: it restores a
    # section's defaults, a valid paper-scale run (a 50 x 100 swarm) too slow for a unit test.
    VALUE_POOL = [
        0, -1, True, False, float("nan"), float("inf"), float("-inf"), 0.5,
        "", "yes", "1", [], [0.5], [1, 2, 3], {"x": 1}, None,
    ]
    HOLDERS = {
        "dataset.synthetic": SyntheticSpec, "hyperparams": HyperparamPoint, "train": TrainConfig,
        "swarm": SwarmConfig, "budget": SearchBudget, "search_space": SearchSpace, "seeds": Seeds,
    }
    # every key a spec may hold but output_dir, where the property looks for output
    KEYS = ["dataset.synthetic"] + [
        f.name for f in fields(ExperimentSpec) if f.name != "output_dir"
    ] + [
        f"{section}.{f.name}" for section, holder in HOLDERS.items() for f in fields(holder)
        if f.name not in SHADOWED_KEYS.get(section, {})
    ]
    # runtime failures of the data a valid spec builds: a near-constant series (no noise
    # and a period of 0.5 samples) and a series shorter than the lookback
    DATA_FAILURES = ("near-constant", "windows available after cleaning")

    @staticmethod
    def _set(spec, key, value) -> bool:
        """Set the dotted ``key`` of ``spec``; False when a value above it is not an object."""
        *sections, leaf = key.split(".")
        for section in sections:
            spec = spec.setdefault(section, {})
            if not isinstance(spec, dict):
                return False
        spec[leaf] = value
        return True

    @settings(max_examples=300)
    @given(
        source=st.sampled_from(HP_SOURCES),
        keys=st.lists(st.sampled_from(KEYS), min_size=1, max_size=2, unique=True),
        values=st.lists(st.sampled_from(VALUE_POOL), min_size=2, max_size=2),
    )
    def test_malformed_values_run_or_are_usage_errors_naming_the_key(self, source, keys, values):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            spec = json.loads(write_spec(tmp, tmp / "out").read_text())
            spec["hyperparameter_source"] = source
            keys = [key for key, value in zip(keys, values) if self._set(spec, key, value)]
            (tmp / "spec.json").write_text(json.dumps(spec))
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = cli(["run", "--config", str(tmp / "spec.json")])
            err = err.getvalue()
            if code == 0:
                return
            assert not (tmp / "out").exists(), err
            if code == 1:
                assert any(key in err for key in keys), err
            else:
                assert code == 2 and any(failure in err for failure in self.DATA_FAILURES), err

    def test_gradcheck_has_no_output_directory(self, capsys):
        assert cli(["gradcheck", "--seeds", "1", "--out-dir", "unused"]) == 1
        assert "--out-dir" in capsys.readouterr().err

    def test_unreadable_config_is_usage_error(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        assert cli(["run", "--config", str(missing), "--out-dir", str(tmp_path / "out")]) == 1
        assert str(missing) in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_negative_seed_for_a_run_is_usage_error(self, tmp_path, capsys):
        spec_path = write_spec(tmp_path, tmp_path / "out")
        assert cli(["run", "--config", str(spec_path), "--seed", "-1"]) == 1
        assert "--seed" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_runtime_failure_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"dataset": {"csv": {"path": "/nope.csv"}}}))
        assert cli(["run", "--config", str(bad)]) == 2

    @pytest.mark.parametrize("failure", ["missing-csv", "unknown-target", "lookback-too-long"])
    def test_data_failures_leave_no_output_directory(self, tmp_path, capsys, failure):
        # the spec is valid; the data fails it, so the exit code stays 2
        series = tmp_path / "series.csv"
        assert cli(["synth", "--out", str(series), "--length", "120", "--features", "1"]) == 0
        csv = {"missing-csv": {"path": str(tmp_path / "missing.csv")},
               "unknown-target": {"path": str(series), "target_column": "nope"}}
        change = ({"lookback": 1000} if failure == "lookback-too-long"
                  else {"dataset": {"synthetic": None, "csv": csv[failure]}})
        spec_path = self._malformed(tmp_path, **change)
        assert cli(["run", "--config", str(spec_path)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestCommands:
    def test_run_from_spec(self, tmp_path, capsys):
        spec_path = write_spec(tmp_path, tmp_path / "out")
        assert cli(["run", "--config", str(spec_path)]) == 0
        assert (tmp_path / "out" / "reports" / "run_report.json").exists()
        assert "report version" in capsys.readouterr().out

    def test_run_bundled_example_spec(self, tmp_path, capsys):
        from importlib import resources

        bundled = resources.files("ltpnet") / "configs" / "synthetic_smoke.json"
        assert cli(
            ["run", "--config", str(bundled), "--out-dir", str(tmp_path / "smoke")]
        ) == 0
        assert (tmp_path / "smoke" / "reports" / "run_report.json").exists()

    def test_out_dir_and_seed_overrides(self, tmp_path):
        spec_path = write_spec(tmp_path, tmp_path / "ignored")
        assert cli(
            ["run", "--config", str(spec_path), "--out-dir", str(tmp_path / "o2"),
             "--seed", "9"]
        ) == 0
        payload = json.loads((tmp_path / "o2" / "reports" / "run_report.json").read_text())
        assert payload["spec"]["seeds"] == {
            "data": 9, "init": 10, "shuffle": 11, "swarm": 12,
        }

    def test_ablate(self, tmp_path, capsys):
        spec_path = write_spec(tmp_path, tmp_path / "abl")
        assert cli(["ablate", "--config", str(spec_path)]) == 0
        assert (tmp_path / "abl" / "ablation_table.csv").exists()

    def test_compare_optimizers(self, tmp_path, capsys):
        spec_path = write_spec(tmp_path, tmp_path / "cmp")
        assert cli(["compare-optimizers", "--config", str(spec_path)]) == 0
        assert (tmp_path / "cmp" / "optimizer_table.csv").exists()

    def test_compare_optimizers_ignores_the_spec_optimizer(self, tmp_path, capsys):
        # every row sets its own optimizer, so the spec's is never used
        spec_path = write_spec(tmp_path, tmp_path / "cmp")
        spec = json.loads(spec_path.read_text())
        spec_path.write_text(json.dumps({**spec, "optimizer": "unused"}))
        assert cli(["compare-optimizers", "--config", str(spec_path)]) == 0
        assert (tmp_path / "cmp" / "optimizer_table.csv").exists()

    def test_pso_study(self, tmp_path, capsys):
        assert cli(
            ["pso-study", "--objective", "sphere", "--runs", "2",
             "--out-dir", str(tmp_path / "study")]
        ) == 0
        out = capsys.readouterr().out
        assert "sphere/static" in out and "sphere/dynamic" in out

    def test_gradcheck_small(self, capsys):
        assert cli(["gradcheck", "--seeds", "2"]) == 0
        out = capsys.readouterr().out
        assert "max relative error" in out
        assert "PASS" in out

    def test_gradcheck_fails_on_a_nan_error(self, capsys, monkeypatch):
        cases = [GradCheckCase(seed=0, error=1e-9), GradCheckCase(seed=1, error=float("nan"))]
        monkeypatch.setattr("ltpnet.cli.composed_gradcheck_suite", lambda **_: cases)
        assert cli(["gradcheck"]) == 2
        captured = capsys.readouterr()
        assert "FAIL" in captured.err and "PASS" not in captured.out

    @pytest.mark.parametrize("seed, cases, named", [
        (44, None, ["seed 44: error 8.836e-02; its worst element straddles a ReLU kink"]),
        (0, [GradCheckCase(seed=0, error=1e-9), GradCheckCase(seed=1, error=0.5, kink=True),
             GradCheckCase(seed=2, error=float("nan"))],
         ["seed 1: error 5.000e-01; its worst element straddles a ReLU kink",
          "seed 2: error nan; its worst element straddles no ReLU kink"]),
    ])
    def test_gradcheck_names_each_failing_seeds_kink(self, capsys, monkeypatch, seed, cases, named):
        if cases is not None:
            monkeypatch.setattr("ltpnet.cli.composed_gradcheck_suite", lambda **_: cases)
        assert cli(["gradcheck", "--seeds", "1", "--seed", str(seed)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [*named, "FAIL: exceeds tolerance 0.0001"]

    def test_synth_writes_csv(self, tmp_path):
        out = tmp_path / "series.csv"
        assert cli(
            ["synth", "--out", str(out), "--length", "50", "--features", "2",
             "--seed", "3"]
        ) == 0
        header = out.read_text().splitlines()[0]
        assert header == "feature_1,feature_2,target"
        assert len(out.read_text().splitlines()) == 51
