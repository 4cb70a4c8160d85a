"""Byte comparison of experiment outputs: a base commit against HEAD.

    python3 scripts/compare_outputs.py --base <sha>

The trees of the base commit and of HEAD are exported with
``bench_pairs.export_tree`` into a temporary directory, which is removed
afterwards. The bundled smoke spec of HEAD and eight variants of it (adam,
adaptive-momentum, no-lstm, no-transformer, clipped gradients, a small swarm
search, a one-epoch grid search and a three-step horizon) then run through
``ltpnet run`` in each tree, and the small-search variant through ``ltpnet
ablate``, ``ltpnet compare-optimizers`` and ``ltpnet run --seed``, all at one
output path, because the report echoes its spec. A small ``ltpnet pso-study``
on sphere and one on rastrigin write to the same path. ``ltpnet synth`` writes
the smoke spec's series as a CSV, and the smoke spec then runs again on that
CSV through ``dataset.csv``, and on a copy of it with every seventh cell blank
under ``impute_strategy: "median"``. The sha256 of every ``run_report.json``,
``model.ckpt`` and ``pso_history.csv`` written, of each suite's table and
summary, of each study's history CSVs and summary, and of the synthesized CSV
is printed; ``optimizer_table.csv`` is hashed without its two wall-clock
columns. So is the sha256 of the analytic and the staged numeric gradient
vector that ``gradcheck.check_model_gradients`` compares, each computed with
the sources of its tree: inside ``composed_gradcheck_suite`` for criterion
01's seeds 0-19 and the ReLU-kink seeds 44 and 111, and for the no-LSTM and
no-encoder models of the model tests, a one-window, one-step batch and a
one-window, six-step batch for each of the three variants
(``GRADCHECK_MODELS``). Exits 1 when a file or vector differs or is written
on one side only.
"""

import argparse
import copy
import csv
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import _git, export_tree  # noqa: E402

SMOKE_SPEC = Path("src") / "ltpnet" / "configs" / "synthetic_smoke.json"
OUTPUTS = (
    Path("reports") / "run_report.json",
    Path("checkpoints") / "model.ckpt",
    Path("histories") / "pso_history.csv",
)
SUITE_OUTPUTS = {
    "ablate": (Path("ablation_table.csv"), Path("ablation_summary.json")),
    "compare-optimizers": (Path("optimizer_table.csv"), Path("optimizer_summary.json")),
}
TIMING_COLUMNS = ("inference_ms_per_window", "training_time_s")
# ``ltpnet pso-study`` runs: name -> objective; each writes both inertia configurations
STUDIES = {"pso-study-sphere": "sphere", "pso-study-rastrigin": "rastrigin"}
STUDY_ARGS = ["--runs", "2", "--dim", "3"]
SYNTH_CSV = Path("series.csv")
GAPPY_CSV, GAP_EVERY = Path("gappy.csv"), 7
SEED_OVERRIDE = "7"  # ``--seed`` of the seed-override run
GRADCHECK_SEEDS = (*range(20), 44, 111)
_TINY = {"n_features": 2, "lstm_hidden": 4, "lstm_layers": 2, "transformer_layers": 1,
         "attention_heads": 2, "d_model": 8, "head_width": 4}
# Models checked outside the suite, by name: (``build_model`` arguments, its
# seed, the seed of the data, the windows' shape). Data are uniform in [-1, 1).
GRADCHECK_MODELS = {
    "no-lstm": ({**_TINY, "lstm_enabled": False}, 13, 12, (2, 6, 2)),
    "no-encoder": ({**_TINY, "transformer_enabled": False}, 14, 15, (2, 6, 2)),
    "one-window-one-step": (_TINY, 16, 17, (1, 1, 2)),
    "one-window": (_TINY, 18, 19, (1, 6, 2)),
    "no-lstm-one-window": ({**_TINY, "lstm_enabled": False}, 20, 21, (1, 6, 2)),
    "no-encoder-one-window": ({**_TINY, "transformer_enabled": False}, 22, 23, (1, 6, 2)),
}
# Run with a tree's sources and, as a JSON argument, seeds and models: prints,
# as JSON, the sha256 of both gradient vectors that ``check_model_gradients``
# compares, for each seed inside ``composed_gradcheck_suite`` and for each
# model, caught on their way in.
GRADIENT_SCRIPT = """
import hashlib, json, sys
from ltpnet import gradcheck as G
from ltpnet.model import build_model
from ltpnet.rng import SeededRng

vectors = {}
analytic, numeric = G.loss_and_gradients, G.staged_finite_difference_grads

def loss_and_gradients(*args):
    out = analytic(*args)
    vectors["analytic"] = out[1].flat
    return out

def staged_finite_difference_grads(*args):
    vectors["numeric"] = numeric(*args)
    return vectors["numeric"]

G.loss_and_gradients, G.staged_finite_difference_grads = loss_and_gradients, staged_finite_difference_grads
found = {}

def record(case):
    for name, vector in sorted(vectors.items()):
        found[f"{case}/{name}"] = hashlib.sha256(vector.tobytes()).hexdigest()
    vectors.clear()

cases = json.loads(sys.argv[1])
for seed in cases["seeds"]:
    G.composed_gradcheck_suite(1, seed)
    record(f"seed-{seed}")
for case, (arguments, seed, data_seed, shape) in cases["models"].items():
    model = build_model(**arguments, rng=SeededRng(seed))
    data = SeededRng(data_seed)
    windows = data.uniform(-1.0, 1.0, shape)
    G.check_model_gradients(model, windows, data.uniform(-1.0, 1.0, shape[0]))
    record(case)
print(json.dumps(found))
"""


def synth_args(smoke: dict, csv_path) -> list:
    """``ltpnet synth`` arguments that write the smoke spec's series to ``csv_path``."""
    s = smoke["dataset"]["synthetic"]
    return [
        "synth", "--out", str(csv_path), "--length", str(s["length"]),
        "--features", str(s["feature_count"]), "--period", str(s["seasonal_period"]),
        "--slope", str(s["trend_slope"]), "--noise", str(s["noise_std"]), "--seed", str(s["seed"]),
    ]


def csv_spec(smoke: dict, csv_path, out_dir: str, **changes) -> dict:
    """The smoke spec reading its series from ``csv_path``, writing to ``out_dir``, with ``changes``."""
    return {
        **copy.deepcopy(smoke), "dataset": {"csv": {"path": str(csv_path)}}, "output_dir": out_dir,
        **changes,
    }


def blank_cells(src: Path, dst: Path, every: int = GAP_EVERY) -> None:
    """Copy the CSV ``src`` to ``dst`` with every ``every``-th data cell, counted row by row, blank."""
    with open(src, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    width = len(rows[0])
    for k in range(every - 1, (len(rows) - 1) * width, every):
        rows[1 + k // width][k % width] = ""
    with open(dst, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


def study_outputs(objective: str) -> tuple:
    """What ``ltpnet pso-study --objective <objective>`` writes."""
    histories = (Path("histories") / f"pso_{objective}_{c}.csv" for c in ("static", "dynamic"))
    return (*histories, Path("pso_study_summary.json"))


def variant_specs(smoke: dict, out_dir: str) -> dict:
    """The smoke spec and its variants, by name, all writing to ``out_dir``."""
    changes = {
        "smoke": {},
        "adam": {"optimizer": "adam"},
        "adaptive-momentum": {"optimizer": "adaptive-momentum"},
        "no-lstm": {"variant": "no-lstm"},
        "no-transformer": {"variant": "no-transformer"},
        "clipped": {"train": {"grad_clip_norm": 0.05}},
        "pso-search": {
            "hyperparameter_source": "pso-search",
            "swarm": {"n_particles": 3, "iterations": 2},
            "budget": {"epochs": 1},
        },
        "grid-search": {"hyperparameter_source": "grid-search", "train": {"epochs": 1}},
        "horizon-3": {"horizon": 3},
    }
    specs = {}
    for name, change in changes.items():
        spec = copy.deepcopy(smoke)
        for key, value in change.items():
            if isinstance(value, dict):
                spec[key] = {**spec.get(key, {}), **value}
            else:
                spec[key] = value
        spec["output_dir"] = out_dir
        specs[name] = spec
    return specs


def without_timing(table: bytes) -> bytes:
    """The CSV ``table`` without its ``TIMING_COLUMNS``, written as the suites write it."""
    rows = list(csv.reader(io.StringIO(table.decode())))
    keep = [i for i, name in enumerate(rows[0]) if name not in TIMING_COLUMNS]
    out = io.StringIO()
    csv.writer(out).writerows([row[i] for i in keep] for row in rows)
    return out.getvalue().encode()


def digests(out_dir: Path, outputs=OUTPUTS) -> dict:
    """sha256 of each of ``outputs`` that exists under ``out_dir``; the
    optimizer table loses its wall-clock columns first."""
    found = {}
    for rel in outputs:
        if (out_dir / rel).exists():
            data = (out_dir / rel).read_bytes()
            if rel.name == "optimizer_table.csv":
                data = without_timing(data)
            found[str(rel)] = hashlib.sha256(data).hexdigest()
    return found


def compare(base: dict, change: dict) -> list:
    """One row per (run, file) on either side: (run, file, base sha, change sha, same).

    ``base`` and ``change`` map a run name to its ``digests``; a file written
    on one side only has None on the other and counts as different.
    """
    rows = []
    for run in sorted(set(base) | set(change)):
        b, c = base.get(run, {}), change.get(run, {})
        for rel in sorted(set(b) | set(c)):
            rows.append((run, rel, b.get(rel), c.get(rel), b.get(rel) == c.get(rel)))
    return rows


def run_cli(tree: Path, argv: list, out_dir: Path, work: Path, outputs) -> dict:
    """``ltpnet <argv>`` with the sources of ``tree`` on an emptied
    ``out_dir``; the digests of its ``outputs``."""
    shutil.rmtree(out_dir, ignore_errors=True)
    proc = subprocess.run(
        [sys.executable, "-m", "ltpnet.cli", *argv],
        cwd=work, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(tree / "src")},
    )
    if proc.returncode != 0:
        raise RuntimeError(f"ltpnet {argv[0]} failed in {tree} (exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    return digests(out_dir, outputs)


def gradient_digests(tree: Path, work: Path, seeds=GRADCHECK_SEEDS, models=()) -> dict:
    """The digests ``GRADIENT_SCRIPT`` prints with the sources of ``tree``
    for the suite's ``seeds`` and the ``GRADCHECK_MODELS`` named in ``models``."""
    cases = {"seeds": list(seeds), "models": {name: GRADCHECK_MODELS[name] for name in models}}
    proc = subprocess.run(
        [sys.executable, "-c", GRADIENT_SCRIPT, json.dumps(cases)],
        cwd=work, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(tree / "src")},
    )
    if proc.returncode != 0:
        raise RuntimeError(f"gradient vectors failed in {tree} (exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def run_spec(tree: Path, spec: dict, work: Path, command=("run",), outputs=OUTPUTS) -> dict:
    """``ltpnet <command...>`` on ``spec`` with the sources of ``tree``; the
    digests of its ``outputs``."""
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec))
    argv = [*command, "--config", str(spec_path)]
    return run_cli(tree, argv, Path(spec["output_dir"]), work, outputs)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", required=True, help="commit to compare against")
    args = p.parse_args(argv)

    shas = {"base": _git("rev-parse", args.base), "change": _git("rev-parse", "HEAD")}
    results = {"base": {}, "change": {}}
    work = Path(tempfile.mkdtemp(prefix="compare_outputs_"))
    try:
        for side, sha in shas.items():
            export_tree(sha, work / side)
        smoke = json.loads((work / "change" / SMOKE_SPEC).read_text())
        out_dir = work / "out"
        specs = variant_specs(smoke, str(out_dir))
        runs = {name: (spec, ("run",), OUTPUTS) for name, spec in specs.items()}
        runs["seed-override"] = (specs["pso-search"], ("run", "--seed", SEED_OVERRIDE), OUTPUTS)
        for command, outputs in SUITE_OUTPUTS.items():
            runs[command] = (specs["pso-search"], (command,), outputs)
        for name, (spec, command, outputs) in runs.items():
            for side in shas:
                results[side][name] = run_spec(work / side, spec, work, command, outputs)
        for name, objective in STUDIES.items():
            argv = ["pso-study", "--objective", objective, *STUDY_ARGS, "--out-dir", str(out_dir)]
            for side in shas:
                results[side][name] = run_cli(work / side, argv, out_dir, work, study_outputs(objective))
        synth_dir = work / "synth"  # one CSV path for both sides, as the CSV run's report echoes it
        for side in shas:
            argv = synth_args(smoke, synth_dir / SYNTH_CSV)
            results[side]["synth"] = run_cli(work / side, argv, synth_dir, work, (SYNTH_CSV,))
            spec = csv_spec(smoke, synth_dir / SYNTH_CSV, str(out_dir))
            results[side]["csv-run"] = run_spec(work / side, spec, work)
            blank_cells(synth_dir / SYNTH_CSV, synth_dir / GAPPY_CSV)
            spec = csv_spec(smoke, synth_dir / GAPPY_CSV, str(out_dir), impute_strategy="median")
            results[side]["csv-median"] = run_spec(work / side, spec, work)
            results[side]["gradcheck"] = gradient_digests(work / side, work, models=GRADCHECK_MODELS)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    rows = compare(results["base"], results["change"])
    print(f"base {shas['base']}  change {shas['change']}")
    for run, rel, b, c, same in rows:
        print(f"{'same' if same else 'DIFF'}  {run:<19} {rel:<35} {b}  {c}")
    differing = sum(not same for *_, same in rows)
    print(f"{len(rows) - differing} of {len(rows)} files byte-identical")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
