"""Interleaved benchmark pairs: a base commit against HEAD.

    python3 scripts/bench_pairs.py --base <sha> --workload reference --pairs 10 --label encoder_rows
    python3 scripts/bench_pairs.py --base <sha> --workload reference swarm-search --pairs 4 --label x

The trees of the base commit and of HEAD are exported with ``git archive``
into a temporary directory, which is removed afterwards, so edits made in
the checkout while the pairs run are not measured. Each pair then runs
``perfbench/run.py --trace 0`` once in each tree, both with seed 901 + i for
pair i, for ``run_seconds`` of ``BENCHMARK.json``. Even pairs run the base
first and odd pairs the change first, so a drift in machine speed falls on
both sides alike. Several workloads run one after the other.

Writes ``BENCH_<label>.json`` at the repository root: per workload, every
run's metrics, each side's median and quartiles per end-to-end metric of
``BENCHMARK.json``, how many pairs the change won per metric, and whether the
change is worse than the base past the metric's ``bound`` or the base spreads
too widely to tell; and the environment (Python, numpy, BLAS, CPU count,
thread variables) and both commits.
"""

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED_BASE = 901
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _git(*args) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def export_tree(sha: str, dest: Path) -> None:
    """Write the files of commit ``sha`` into ``dest``."""
    blob = subprocess.run(["git", "archive", sha], cwd=ROOT, check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(dest, filter="data")


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run in ``tree``: its result line, metrics flattened."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"perfbench failed in {tree} (exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
    }


def _quartiles(values):
    if len(values) < 2:
        return (values[0], values[0]) if values else (None, None)
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(runs: list, directions: dict, bounds: dict | None = None) -> dict:
    """Per metric: each side's values, median and quartiles, and pair wins.

    ``runs`` holds dicts with "pair", "side" ("base" or "change") and
    "metrics" ({name: value}); ``directions`` maps a metric name to "higher"
    or "lower", whichever is better. A pair counts as a win when the change
    is strictly better. ``gap_exceeds_base_iqr`` says whether the change's
    median is better than the base's by more than the base's quartile
    distance.

    ``bounds`` maps a metric name to its relative bound. For such a metric,
    ``worse_past_bound`` says whether the change's median is worse than the
    base's by more than ``bound`` times the base's median, and ``unresolved``
    whether the base's quartile distance exceeds ``bound`` times its median,
    unless every change run beats every base run.
    """
    summary = {}
    for name, better in directions.items():
        sides, by_pair = {}, {}
        for side in ("base", "change"):
            values = [
                r["metrics"][name]
                for r in sorted(runs, key=lambda r: r["pair"])
                if r["side"] == side and name in r["metrics"]
            ]
            q1, q3 = _quartiles(values)
            sides[side] = {
                "values": values,
                "median": statistics.median(values) if values else None,
                "q1": q1,
                "q3": q3,
            }
        for r in runs:
            if name in r["metrics"]:
                by_pair.setdefault(r["pair"], {})[r["side"]] = r["metrics"][name]
        complete = [p for p in by_pair.values() if len(p) == 2]
        sign = 1.0 if better == "higher" else -1.0
        wins = sum(1 for p in complete if sign * (p["change"] - p["base"]) > 0)
        base, change = sides["base"], sides["change"]
        entry = {"better": better, "base": base, "change": change,
                 "pairs": len(complete), "wins": wins}
        if base["median"] is not None and change["median"] is not None:
            gap = sign * (change["median"] - base["median"])
            entry["median_ratio"] = change["median"] / base["median"] if base["median"] else None
            entry["gap_exceeds_base_iqr"] = gap > base["q3"] - base["q1"]
            if name in (bounds or {}):
                scale = bounds[name] * abs(base["median"])
                entry["worse_past_bound"] = gap < -scale
                beats_all = min(sign * v for v in change["values"]) > max(sign * v for v in base["values"])
                entry["unresolved"] = base["q3"] - base["q1"] > scale and not beats_all
        summary[name] = entry
    return summary


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", required=True, help="commit to compare against")
    p.add_argument("--workload", required=True, nargs="+",
                   choices=["reference", "swarm-search", "gradcheck"])
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--label", required=True)
    args = p.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    directions = {m["name"]: m["better"] for m in bench["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    base_sha = _git("rev-parse", args.base)
    head_sha = _git("rev-parse", "HEAD")

    workloads = {}
    tmp = Path(tempfile.mkdtemp(prefix="bench_pairs_"))
    try:
        trees = {"base": tmp / "base", "change": tmp / "change"}
        export_tree(base_sha, trees["base"])
        export_tree(head_sha, trees["change"])
        for workload in args.workload:
            runs = []
            for i in range(args.pairs):
                seed = SEED_BASE + i
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                for position, side in enumerate(order):
                    run = run_once(trees[side], workload, seed, seconds)
                    runs.append({"pair": i, "side": side, "seed": seed, "position": position, **run})
                    print(f"{workload} pair {i} {side}: " + ", ".join(
                        f"{k} {v:.4g}" for k, v in run["metrics"].items()), file=sys.stderr)
            workloads[workload] = {
                "failed_operations": {
                    side: sum(r["failed"] for r in runs if r["side"] == side)
                    for side in ("base", "change")
                },
                "incorrect_runs": {
                    side: sum(not r["correct"] for r in runs if r["side"] == side)
                    for side in ("base", "change")
                },
                "summary": summarize(runs, directions, bounds),
                "runs": runs,
            }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    record = {
        "label": args.label,
        "seconds_per_run": seconds,
        "base": base_sha,
        "change": head_sha,
        "environment": environment(),
        "workloads": workloads,
    }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
