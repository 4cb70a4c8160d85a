import hashlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from ltpnet.gradcheck import staged_finite_difference_grads
from ltpnet.model import build_model
from ltpnet.rng import SeededRng
from ltpnet.training import loss_and_gradients

_ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "compare_outputs", _ROOT / "scripts" / "compare_outputs.py"
)
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)


def _smoke():
    return json.loads((_ROOT / compare_outputs.SMOKE_SPEC).read_text())


class TestVariantSpecs:
    def test_every_variant_writes_to_one_path(self):
        specs = compare_outputs.variant_specs(_smoke(), "shared/out")
        assert list(specs) == [
            "smoke", "adam", "adaptive-momentum", "no-lstm", "no-transformer",
            "clipped", "pso-search", "grid-search", "horizon-3",
        ]
        assert {s["output_dir"] for s in specs.values()} == {"shared/out"}

    def test_changes_merge_into_the_smoke_spec(self):
        smoke = _smoke()
        specs = compare_outputs.variant_specs(smoke, "out")
        assert specs["smoke"] == {**smoke, "output_dir": "out"}
        assert specs["clipped"]["train"] == {**smoke["train"], "grad_clip_norm": 0.05}
        assert specs["grid-search"]["train"] == {**smoke["train"], "epochs": 1}
        pso = specs["pso-search"]
        assert pso["swarm"] == {"n_particles": 3, "iterations": 2}
        assert pso["budget"] == {"epochs": 1}
        assert specs["no-lstm"]["variant"] == "no-lstm"
        assert specs["adam"]["optimizer"] == "adam"
        assert specs["horizon-3"]["horizon"] == 3
        # the smoke spec itself is left as it was
        assert smoke == _smoke()


class TestDigestsAndCompare:
    def test_digests_cover_the_outputs_present(self, tmp_path):
        (tmp_path / "reports").mkdir()
        (tmp_path / "reports" / "run_report.json").write_bytes(b"{}")
        (tmp_path / "reports" / "timing.json").write_bytes(b"{}")
        got = compare_outputs.digests(tmp_path)
        assert list(got) == [str(Path("reports") / "run_report.json")]
        assert got[str(Path("reports") / "run_report.json")] == (
            "44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a"
        )

    def test_differences_and_one_sided_files(self):
        base = {"a": {"r": "1", "c": "2"}, "b": {"r": "3"}}
        change = {"a": {"r": "1", "c": "9"}, "b": {"r": "3", "h": "4"}}
        rows = compare_outputs.compare(base, change)
        assert rows == [
            ("a", "c", "2", "9", False),
            ("a", "r", "1", "1", True),
            ("b", "h", None, "4", False),
            ("b", "r", "3", "3", True),
        ]


class TestSuiteTables:
    HEADER = "optimizer,parameter_count,inference_ms_per_window,training_time_s,mae\r\n"

    def test_timing_columns_are_dropped(self):
        table = (self.HEADER + "adam,10,0.25,1.5,0.1\r\n").encode()
        assert compare_outputs.without_timing(table) == (
            b"optimizer,parameter_count,mae\r\nadam,10,0.1\r\n"
        )

    def test_optimizer_table_digest_ignores_timings_only(self, tmp_path):
        rel = compare_outputs.SUITE_OUTPUTS["compare-optimizers"]
        got = []
        for row in ("adam,10,0.25,1.5,0.1", "adam,10,9.75,3.0,0.1", "adam,11,0.25,1.5,0.1"):
            (tmp_path / rel[0]).write_text(self.HEADER + row + "\r\n", newline="")
            (tmp_path / rel[1]).write_text("{}")
            got.append(compare_outputs.digests(tmp_path, rel))
        assert list(got[0]) == [str(r) for r in rel]
        assert got[0] == got[1]
        assert got[0][str(rel[0])] != got[2][str(rel[0])]

    def test_other_tables_are_hashed_whole(self, tmp_path):
        rel = compare_outputs.SUITE_OUTPUTS["ablate"]
        (tmp_path / rel[0]).write_bytes(b"model,training_time_s\r\nALL,1.0\r\n")
        (tmp_path / rel[1]).write_bytes(b"{}")
        got = compare_outputs.digests(tmp_path, rel)
        assert got[str(rel[1])] == (
            "44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a"
        )
        assert got[str(rel[0])] == hashlib.sha256(
            b"model,training_time_s\r\nALL,1.0\r\n"
        ).hexdigest()


class TestStudies:
    def test_both_objectives_are_studied(self):
        assert sorted(compare_outputs.STUDIES.values()) == ["rastrigin", "sphere"]

    def test_study_outputs_are_every_file_a_study_writes(self, tmp_path):
        from ltpnet.cli import cli

        argv = ["pso-study", "--objective", "rastrigin", "--runs", "1", "--dim", "1"]
        assert cli(argv + ["--out-dir", str(tmp_path)]) == 0
        written = sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*") if p.is_file())
        outputs = compare_outputs.study_outputs("rastrigin")
        assert written == sorted(str(rel) for rel in outputs)
        assert list(compare_outputs.digests(tmp_path, outputs)) == [str(rel) for rel in outputs]


class TestCsvRun:
    def test_synth_writes_the_smoke_series(self, tmp_path):
        from ltpnet.cli import cli
        from ltpnet.preprocessing import SyntheticSpec, load_csv, synthesize_series

        smoke = _smoke()
        assert cli(compare_outputs.synth_args(smoke, tmp_path / compare_outputs.SYNTH_CSV)) == 0
        written = sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*") if p.is_file())
        assert written == [str(compare_outputs.SYNTH_CSV)]
        table = load_csv(tmp_path / compare_outputs.SYNTH_CSV)
        expected = synthesize_series(SyntheticSpec(**smoke["dataset"]["synthetic"]))
        assert table.names == expected.names
        for name in table.names:
            np.testing.assert_array_equal(table.columns[name], expected.columns[name])

    def test_csv_spec_swaps_only_the_dataset(self):
        smoke = _smoke()
        spec = compare_outputs.csv_spec(smoke, "s/series.csv", "out")
        assert spec["dataset"] == {"csv": {"path": "s/series.csv"}}
        assert {k: v for k, v in spec.items() if k != "dataset"} == {
            **{k: v for k, v in smoke.items() if k != "dataset"}, "output_dir": "out",
        }
        assert smoke == _smoke()

    def test_csv_spec_applies_its_changes(self):
        spec = compare_outputs.csv_spec(_smoke(), "s/gappy.csv", "out", impute_strategy="median")
        assert spec["impute_strategy"] == "median"
        assert spec["dataset"] == {"csv": {"path": "s/gappy.csv"}}

    def test_blank_cells_blanks_every_nth_data_cell(self, tmp_path):
        from ltpnet.preprocessing import load_csv

        src, dst = tmp_path / "series.csv", tmp_path / "gappy.csv"
        src.write_text("a,b\n1,2\n3,4\n5,6\n7,8\n", newline="")
        compare_outputs.blank_cells(src, dst, every=3)
        table = load_csv(dst)
        assert table.missing_counts() == {"a": 1, "b": 1}  # data cells 3 (a at row 2) and 6 (b at row 3)
        assert np.isnan(table.columns["a"][1]) and np.isnan(table.columns["b"][2])
        assert load_csv(src).missing_counts() == {"a": 0, "b": 0}


class TestGradientVectors:
    def test_digests_hash_both_vectors_the_suite_compares(self, tmp_path):
        got = compare_outputs.gradient_digests(_ROOT, tmp_path, (3,))
        # composed_gradcheck_suite's model and data at seed 3
        rng = SeededRng(3)
        model = build_model(n_features=2, lstm_hidden=4, lstm_layers=2, transformer_layers=1,
                            attention_heads=2, d_model=8, head_width=4, rng=rng.split(0))
        data = rng.split(1)
        windows, targets = data.uniform(-1.0, 1.0, (2, 6, 2)), data.uniform(-1.0, 1.0, 2)
        sha = lambda v: hashlib.sha256(v.tobytes()).hexdigest()
        assert got == {
            "seed-3/analytic": sha(loss_and_gradients(windows, targets, model)[1].flat),
            "seed-3/numeric": sha(staged_finite_difference_grads(model, windows, targets)),
        }

    @pytest.mark.parametrize("name, flags, seed, data_seed, shape", [
        ("no-lstm", {"lstm_enabled": False}, 13, 12, (2, 6, 2)),  # TestComposedGradients' cases
        ("no-encoder", {"transformer_enabled": False}, 14, 15, (2, 6, 2)),
        ("one-window-one-step", {}, 16, 17, (1, 1, 2)),
        ("one-window", {}, 18, 19, (1, 6, 2)),
        ("no-lstm-one-window", {"lstm_enabled": False}, 20, 21, (1, 6, 2)),
        ("no-encoder-one-window", {"transformer_enabled": False}, 22, 23, (1, 6, 2)),
    ])
    def test_digests_hash_both_vectors_of_each_model(self, tmp_path, name, flags, seed, data_seed, shape):
        got = compare_outputs.gradient_digests(_ROOT, tmp_path, (), (name,))
        model = build_model(n_features=2, lstm_hidden=4, lstm_layers=2, transformer_layers=1,
                            attention_heads=2, d_model=8, head_width=4, rng=SeededRng(seed), **flags)
        data = SeededRng(data_seed)
        windows, targets = data.uniform(-1, 1, shape), data.uniform(-1, 1, shape[0])
        sha = lambda v: hashlib.sha256(v.tobytes()).hexdigest()
        assert got == {
            f"{name}/analytic": sha(loss_and_gradients(windows, targets, model)[1].flat),
            f"{name}/numeric": sha(staged_finite_difference_grads(model, windows, targets)),
        }
