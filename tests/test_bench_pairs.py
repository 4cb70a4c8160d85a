import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _runs(metric, base, change):
    runs = []
    for i, (b, c) in enumerate(zip(base, change)):
        runs.append({"pair": i, "side": "base", "metrics": {metric: b}})
        runs.append({"pair": i, "side": "change", "metrics": {metric: c}})
    return runs


class TestSummarize:
    def test_higher_is_better(self):
        runs = _runs("work_per_s", [10.0, 12.0, 11.0, 13.0, 9.0], [15.0, 11.0, 16.0, 14.0, 17.0])
        s = bench_pairs.summarize(runs, {"work_per_s": "higher"})["work_per_s"]
        assert s["base"]["values"] == [10.0, 12.0, 11.0, 13.0, 9.0]
        assert s["base"]["median"] == 11.0 and s["change"]["median"] == 15.0
        assert (s["base"]["q1"], s["base"]["q3"]) == (10.0, 12.0)
        assert (s["change"]["q1"], s["change"]["q3"]) == (14.0, 16.0)
        assert s["pairs"] == 5 and s["wins"] == 4
        assert s["median_ratio"] == pytest.approx(15.0 / 11.0)
        assert s["gap_exceeds_base_iqr"] is True

    def test_lower_is_better_and_ties_are_not_wins(self):
        runs = _runs("peak_rss_mb", [100.0, 100.0, 90.0, 110.0], [95.0, 100.0, 91.0, 105.0])
        s = bench_pairs.summarize(runs, {"peak_rss_mb": "lower"})["peak_rss_mb"]
        assert s["wins"] == 2
        assert s["base"]["median"] == 100.0 and s["change"]["median"] == 97.5
        assert (s["base"]["q1"], s["base"]["q3"]) == (97.5, 102.5)
        # better by 2.5, inside the base's quartile distance of 5
        assert s["gap_exceeds_base_iqr"] is False

    def test_a_worse_median_never_exceeds_the_spread(self):
        runs = _runs("work_per_s", [10.0, 10.0, 10.0], [5.0, 5.0, 5.0])
        s = bench_pairs.summarize(runs, {"work_per_s": "higher"})["work_per_s"]
        assert s["wins"] == 0 and s["gap_exceeds_base_iqr"] is False

    def test_incomplete_pairs_and_missing_metrics(self):
        runs = _runs("work_per_s", [10.0, 12.0], [11.0, 13.0])
        runs.append({"pair": 2, "side": "base", "metrics": {"work_per_s": 1.0}})
        out = bench_pairs.summarize(runs, {"work_per_s": "higher", "setup_s": "lower"})
        assert out["work_per_s"]["pairs"] == 2 and out["work_per_s"]["wins"] == 2
        assert out["work_per_s"]["base"]["values"] == [10.0, 12.0, 1.0]
        assert out["setup_s"]["pairs"] == 0 and out["setup_s"]["base"]["median"] is None
        assert "median_ratio" not in out["setup_s"]


@pytest.mark.skipif(not (_PATH.parent.parent / ".git").exists(), reason="needs a git checkout")
def test_export_tree_writes_the_committed_files(tmp_path):
    bench_pairs.export_tree("HEAD", tmp_path)
    assert (tmp_path / "BENCHMARK.json").read_bytes() == (
        _PATH.parent.parent / "BENCHMARK.json"
    ).read_bytes()
    assert (tmp_path / "perfbench" / "run.py").exists()
    assert not (tmp_path / ".git").exists()
