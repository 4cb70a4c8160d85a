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


class TestBounds:
    """The verdicts against a metric's relative bound, as BENCHMARK.json gives it."""

    def _summary(self, base, change, better="higher", bound=0.25):
        runs = _runs("m", base, change)
        return bench_pairs.summarize(runs, {"m": better}, {"m": bound})["m"]

    def test_within_the_bound(self):
        # 20% worse in the median, inside a 25% bound; the base spreads 2 of 100
        s = self._summary([99.0, 100.0, 101.0, 100.0, 100.0], [80.0, 80.0, 80.0, 80.0, 80.0])
        assert s["worse_past_bound"] is False and s["unresolved"] is False

    def test_worse_past_the_bound(self):
        # lower is better: a median of 115 against 100 is 15% worse, past a 10% bound
        s = self._summary([100.0, 100.0, 100.0], [115.0, 115.0, 115.0], better="lower", bound=0.1)
        assert s["worse_past_bound"] is True and s["unresolved"] is False

    def test_a_base_spreading_past_the_bound_is_unresolved(self):
        # the base's quartiles are 0.15 and 0.25 around a median of 0.2: 50%, past 25%
        base = [0.15, 0.15, 0.2, 0.25, 0.25]
        s = self._summary(base, [0.2, 0.16, 0.24, 0.2, 0.2], better="lower")
        assert s["worse_past_bound"] is False and s["unresolved"] is True

    def test_beating_every_base_run_resolves_a_wide_base(self):
        s = self._summary([0.15, 0.15, 0.2, 0.25, 0.25], [0.1] * 5, better="lower")
        assert s["unresolved"] is False

    def test_no_verdict_without_a_bound(self):
        s = bench_pairs.summarize(_runs("m", [1.0], [2.0]), {"m": "higher"})["m"]
        assert "worse_past_bound" not in s and "unresolved" not in s


@pytest.mark.skipif(not (_PATH.parent.parent / ".git").exists(), reason="needs a git checkout")
def test_export_tree_writes_the_committed_files(tmp_path):
    bench_pairs.export_tree("HEAD", tmp_path)
    assert (tmp_path / "BENCHMARK.json").read_bytes() == (
        _PATH.parent.parent / "BENCHMARK.json"
    ).read_bytes()
    assert (tmp_path / "perfbench" / "run.py").exists()
    assert not (tmp_path / ".git").exists()
