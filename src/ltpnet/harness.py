"""Experiment orchestration: specs in, reports out.

An experiment runs the full pipeline (ingest, preprocess, optional
hyperparameter search, train, evaluate on the held-out test windows) and
writes its results under the spec's output directory:

    reports/run_report.json   deterministic payload; byte-identical for
                              identical specs and seeds
    reports/timing.json       wall-clock measurements (volatile by nature)
    checkpoints/model.ckpt    final parameters
    histories/pso_history.csv swarm search trace, when a search ran

Suite runners (ablations, optimizer comparison, swarm study) run their
independent experiments one after another and emit comparison tables as CSV.
"""

import csv
import ctypes
import hashlib
import json
import time
from dataclasses import asdict, astuple, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import pso as P
from . import training as TR
from .checkpoint import save_checkpoint
from .metrics import EfficiencyReport, EvalReport, count_parameters, estimate_flops
from .ops import check_fields, check_value, declared, from_section
from .preprocessing import (
    IMPUTE_STRATEGIES,
    SplitSpec,
    SyntheticSpec,
    WindowedDataset,
    build_dataset,
    load_csv,
    synthesize_series,
)
from .rng import SeededRng

VARIANTS = ("full", "no-lstm", "no-transformer", "no-pso")
HP_SOURCES = ("fixed", "pso-search", "grid-search")
# spec keys that another key sets: section -> {key: the key that counts}
SHADOWED_KEYS = {
    "swarm": {"seed": "seeds.swarm", "bounds": "search_space"},
    "train": {"optimizer": "optimizer", "lstm_lr": "hyperparams.lstm_lr",
              "transformer_lr": "hyperparams.transformer_lr"},
}

ABLATION_ROWS = (
    ("Transformer+PSO", "no-lstm"),
    ("LSTM+PSO", "no-transformer"),
    ("LSTM+Transformer", "no-pso"),
    ("ALL", "full"),
)
METRIC_COLUMNS = ("mae", "mape", "rmse", "mse")  # the EvalReport fields a table shows
ABLATION_CSV_HEADER = ["model", *METRIC_COLUMNS]
OPTIMIZER_CSV_HEADER = ["optimizer", *(f.name for f in fields(EfficiencyReport)), *METRIC_COLUMNS]


@dataclass
class Seeds:
    data: int = declared(1, ge=0)
    init: int = declared(2, ge=0)
    shuffle: int = declared(3, ge=0)
    swarm: int = declared(4, ge=0)

    def __post_init__(self):
        check_fields(self, "seeds")


@dataclass
class CsvSource:
    """The ``dataset.csv`` section of a spec: a headered CSV file and its columns."""

    path: str
    target_column: str = "target"
    feature_columns: list[str] | None = None
    schema: list[str] | None = None  # the exact header, when given

    def __post_init__(self):
        check_fields(self, "dataset.csv")


@dataclass
class ExperimentSpec:
    """Everything needed to reproduce one experiment."""

    dataset: dict  # {"synthetic": {...}} or {"csv": {...}}, exactly one
    variant: str = declared("full", choices=VARIANTS)
    optimizer: str = "sgd"
    hyperparameter_source: str = declared("fixed", choices=HP_SOURCES)
    hyperparams: dict = field(default_factory=dict)
    train: dict = field(default_factory=dict)
    swarm: dict = field(default_factory=dict)
    budget: dict = field(default_factory=dict)
    search_space: dict = field(default_factory=dict)
    lookback: int = declared(24, ge=1)
    horizon: int = declared(1, ge=1)
    train_ratio: float = declared(0.7, gt=0, lt=1)
    impute_strategy: str = declared("mean", choices=IMPUTE_STRATEGIES)
    seeds: Seeds = field(default_factory=Seeds)
    output_dir: str = "out"

    def __post_init__(self):
        if isinstance(self.seeds, dict):
            self.seeds = from_section(Seeds, "seeds", self.seeds)
        check_fields(self, "")
        if list(self.dataset) not in (["synthetic"], ["csv"]):
            raise ValueError(f"dataset must hold exactly one dataset source (synthetic or csv),"
                             f" got {list(self.dataset)}")

    def as_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json_file(cls, path) -> "ExperimentSpec":
        with open(path, encoding="utf-8") as fh:
            return from_section(cls, "spec", json.load(fh))


@dataclass
class RunReport:
    spec: dict
    resolved_hyperparams: dict
    train_config: dict
    swarm_config: dict
    eval: EvalReport
    efficiency: EfficiencyReport
    training: dict
    audit: dict
    version: str
    train_report: TR.TrainReport
    split: SplitSpec
    dataset: WindowedDataset

    def deterministic_payload(self) -> dict:
        return {
            "spec": self.spec,
            "resolved_hyperparams": self.resolved_hyperparams,
            "train_config": self.train_config,
            "swarm_config": self.swarm_config,
            "eval": asdict(self.eval),
            "efficiency": {
                "parameter_count": self.efficiency.parameter_count,
                "flops_per_forward": self.efficiency.flops_per_forward,
            },
            "training": self.training,
            "audit": self.audit,
            "version": self.version,
        }

    def timing_payload(self) -> dict:
        return {
            "inference_ms_per_window": self.efficiency.inference_ms_per_window,
            "training_time_s": self.efficiency.training_time_s,
            "version": self.version,
        }


def canonical_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2)


def _version_string(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def dataset_source(spec: ExperimentSpec):
    """The spec's ``SyntheticSpec`` or ``CsvSource``."""
    ((kind, section),) = spec.dataset.items()
    cls = SyntheticSpec if kind == "synthetic" else CsvSource
    return from_section(cls, f"dataset.{kind}", section)


def load_table(source: SyntheticSpec | CsvSource) -> tuple:
    """The table of ``source``, its target column and its feature columns
    (None: every other column), in ``build_dataset``'s order."""
    if isinstance(source, SyntheticSpec):
        return synthesize_series(source), "target", None
    return load_csv(source.path, source.schema), source.target_column, source.feature_columns


@dataclass
class RunConfigs:
    """The configs one run builds from its spec, and the variant's decisions.

    ``dataset`` is the spec's dataset source, ``source`` the hyperparameter
    source that runs ("fixed" for no-pso), ``flags`` the model components the
    variant enables. ``hyperparams`` is the fixed point (the defaults for
    no-pso) or the grid search's base point; a swarm search uses ``space`` and
    ``budget`` instead, and the others are None.
    """

    train: TR.TrainConfig
    swarm: P.SwarmConfig
    dataset: SyntheticSpec | CsvSource
    source: str
    flags: dict
    hyperparams: P.HyperparamPoint | None = None
    space: P.SearchSpace | None = None
    budget: TR.SearchBudget | None = None


def build_configs(spec: ExperimentSpec) -> RunConfigs:
    """Build and validate the configs of ``spec``, its dataset source included.

    Every section is checked, also one that the hyperparameter source does
    not read (``hyperparams`` of a swarm search or a no-pso run,
    ``search_space`` and ``budget`` of any other run), so a value never
    waits to fail until the source changes. Raises TypeError or ValueError
    on an unknown key, a bad value or a
    ``SHADOWED_KEYS`` key, so a caller can reject a spec before any work starts.
    """
    for section, shadowed in SHADOWED_KEYS.items():
        for key in sorted(shadowed.keys() & set(getattr(spec, section))):
            raise ValueError(f"{section}.{key} is not accepted in a spec; {shadowed[key]} sets it")
    # checked under its own name: TrainConfig would name it train.optimizer, a shadowed key
    optimizer = next(f for f in fields(TR.TrainConfig) if f.name == "optimizer")
    check_value("optimizer", spec.optimizer, optimizer.type, optimizer.metadata)
    cfg = from_section(TR.TrainConfig, "train", spec.train, optimizer=spec.optimizer)
    flags = {
        "lstm_enabled": spec.variant != "no-lstm",
        "transformer_enabled": spec.variant != "no-transformer",
    }
    if flags["lstm_enabled"] and cfg.lstm_layers < 1:
        raise ValueError(
            f"variant {spec.variant} needs train.lstm_layers >= 1, got {cfg.lstm_layers}"
        )
    configs = RunConfigs(
        train=cfg, swarm=from_section(P.SwarmConfig, "swarm", spec.swarm, seed=spec.seeds.swarm),
        dataset=dataset_source(spec), flags=flags,
        source="fixed" if spec.variant == "no-pso" else spec.hyperparameter_source,
    )
    hyperparams = from_section(P.HyperparamPoint, "hyperparams", spec.hyperparams)
    space = from_section(P.SearchSpace, "search_space", spec.search_space)
    budget = from_section(TR.SearchBudget, "budget", spec.budget)
    if spec.variant == "no-pso":
        configs.hyperparams = P.HyperparamPoint()
    elif configs.source == "pso-search":
        configs.space, configs.budget = space, budget
    else:  # fixed or grid-search
        configs.hyperparams = hyperparams
    return configs


def resolve_hyperparams(dataset, split, configs: RunConfigs, out_dir):
    """Fixed defaults, a swarm search, or a grid search, per ``configs.source``.

    Returns (hyperparameter point, train config); a swarm search's history
    goes to ``pso_history.csv``. A grid search picks the batch size too, so
    the config it returns is a new one; ``configs`` is never modified.
    """
    cfg, swarm_cfg, hp = configs.train, configs.swarm, configs.hyperparams
    if configs.source == "pso-search":
        hp, _, search_history = TR.pso_hyperparameter_search(
            dataset, split, configs.space, swarm_cfg, configs.budget, cfg
        )
        P.write_history_csv(
            out_dir / "histories" / "pso_history.csv",
            {swarm_cfg.seed: search_history},
        )
    elif configs.source == "grid-search":
        best = TR.grid_search(dataset, split, hp, cfg)[0]
        hp = replace(hp, lstm_lr=best["lr"], transformer_layers=best["transformer_layers"])
        cfg = replace(cfg, batch_size=best["batch_size"])
    return hp, cfg


# glibc ``mallopt`` parameters, and the values a run fixes them at
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD, _TRIM_THRESHOLD = 2**30, 2**31 - 1  # mallopt takes a C int


def _fix_allocator_thresholds() -> None:
    """Keep freed arrays in the process's heap for the rest of its life.

    glibc serves large arrays by mmap and trims the heap top once it is free,
    so each training step faults its activation caches in again. With both
    thresholds fixed, freed memory is reused instead. A fixed threshold also
    switches off glibc's dynamic one, so setting either alone faults more:
    the trim threshold is set only once the mmap threshold is. A no-op where
    the C library has no ``mallopt``; never raises, and safe to call again.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    if mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD):
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


def run_experiment(spec: ExperimentSpec) -> RunReport:
    """Run ``spec`` end to end. Its output directory is created only once the
    dataset is built, so a spec or data failure leaves none behind.

    The test evaluation is timed for ``inference_ms_per_window``. The run
    first fixes glibc's allocator thresholds for the rest of the process
    (``_fix_allocator_thresholds``).
    """
    _fix_allocator_thresholds()
    configs = build_configs(spec)
    swarm_cfg = configs.swarm
    dataset, split, _prep = build_dataset(
        *load_table(configs.dataset),
        lookback=spec.lookback,
        horizon=spec.horizon,
        train_ratio=spec.train_ratio,
        impute_strategy=spec.impute_strategy,
    )
    out_dir = Path(spec.output_dir)
    for sub in ("reports", "checkpoints", "histories"):
        (out_dir / sub).mkdir(parents=True, exist_ok=True)

    hp, cfg = resolve_hyperparams(dataset, split, configs, out_dir)

    result = TR.train(
        dataset, split, hp, cfg,
        init_rng=SeededRng(spec.seeds.init),
        shuffle_rng=SeededRng(spec.seeds.shuffle),
        **configs.flags,
    )

    overlap = np.intersect1d(result.used_train_indices, split.test)
    if overlap.size:
        raise RuntimeError(
            f"training touched {overlap.size} test windows; split is corrupt"
        )
    audit = {
        "train_batch_index_count": int(result.used_train_indices.size),
        "test_overlap_count": int(overlap.size),
        "test_index_count": int(split.test.size),
    }

    started = time.perf_counter()
    eval_report = TR.evaluate_on_indices(dataset, split.test, result.params)
    eval_ms = (time.perf_counter() - started) * 1000.0
    efficiency = EfficiencyReport(
        parameter_count=count_parameters(result.params),
        flops_per_forward=estimate_flops(
            result.params, (dataset.lookback, dataset.n_features)
        ),
        inference_ms_per_window=eval_ms / max(1, split.test.size),
        training_time_s=result.wall_time_s,
    )

    report = RunReport(
        spec=spec.as_dict(),
        resolved_hyperparams=asdict(hp),
        train_config=asdict(cfg),
        swarm_config={
            "n_particles": swarm_cfg.n_particles,
            "iterations": swarm_cfg.iterations,
            "omega": swarm_cfg.omega,
            "c1": swarm_cfg.c1,
            "c2": swarm_cfg.c2,
            "inertia_schedule": swarm_cfg.inertia_schedule,
        },
        eval=eval_report,
        efficiency=efficiency,
        training=result.summary(),
        audit=audit,
        version="",
        train_report=result,
        split=split,
        dataset=dataset,
    )
    payload = report.deterministic_payload()
    del payload["version"]
    report.version = payload["version"] = _version_string(payload)
    (out_dir / "reports" / "run_report.json").write_text(canonical_json(payload))
    (out_dir / "reports" / "timing.json").write_text(canonical_json(report.timing_payload()))
    save_checkpoint(
        result.params,
        out_dir / "checkpoints" / "model.ckpt",
        metadata={"seeds": asdict(spec.seeds), "report_version": report.version},
    )
    return report


def _metric_cells(r: RunReport) -> list:
    """The ``METRIC_COLUMNS`` of a run's evaluation as table cells; a MAPE of None is empty."""
    return ["" if v is None else repr(float(v)) for v in (getattr(r.eval, m) for m in METRIC_COLUMNS)]


def _write_suite(base: ExperimentSpec, name: str, header, cells, reports: dict, **extra) -> dict:
    """Write ``<name>_table.csv`` and ``<name>_summary.json`` at ``base``'s output directory.

    The table holds ``header``, then one row per report: its label and
    ``cells(report)``. The summary holds the rows, the table's path, ``extra``
    and each run's report version. Returns the reports and the summary.
    """
    out_dir = Path(base.output_dir)
    table_path = out_dir / f"{name}_table.csv"
    with open(table_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([label, *cells(r)] for label, r in reports.items())
    summary = {
        "rows": list(reports),
        "table": str(table_path),
        **extra,
        "versions": {label: r.version for label, r in reports.items()},
    }
    (out_dir / f"{name}_summary.json").write_text(canonical_json(summary))
    return {"reports": reports, "summary": summary}


def _row_spec(base: ExperimentSpec, subdir: str, **changes) -> ExperimentSpec:
    """``base`` with ``changes``, writing to ``subdir`` of its output directory."""
    return replace(
        base, output_dir=str(Path(base.output_dir) / subdir), dataset=dict(base.dataset), **changes
    )


def ablation_specs(base: ExperimentSpec) -> dict:
    """The spec of each ablation row: ``base`` with the row's variant."""
    return {label: _row_spec(base, variant, variant=variant) for label, variant in ABLATION_ROWS}


def run_ablation_suite(base: ExperimentSpec) -> dict:
    """Run all four variants with shared data and seeds; emit the 4x4 table."""
    reports = {label: run_experiment(s) for label, s in ablation_specs(base).items()}
    test_sets = {label: tuple(int(i) for i in r.split.test) for label, r in reports.items()}
    if len(set(test_sets.values())) != 1:
        raise RuntimeError(f"ablation rows disagree on test indices: {test_sets}")
    full_mse = reports["ALL"].eval.mse
    return _write_suite(
        base, "ablation", ABLATION_CSV_HEADER, _metric_cells, reports,
        shared_test_indices=True, full_model_mse=full_mse,
        full_model_best=all(full_mse <= r.eval.mse for r in reports.values()),
    )


# row: (optimizer, hyperparameter source, train overrides)
OPTIMIZER_ROWS = {
    "adam": ("adam", "fixed", {"adam_lr": 1e-3, "batch_size": 64}),
    "adaptive-momentum": (
        "adaptive-momentum",
        "fixed",
        {"momentum_lr": 1e-3, "momentum_init": 0.9, "momentum_update_rate": 0.1, "batch_size": 64},
    ),
    "sgd+pso": ("sgd", "pso-search", {}),
}


def optimizer_specs(base: ExperimentSpec) -> dict:
    """The spec of each optimizer row: the full model with the row's update rule."""
    return {
        row: _row_spec(
            base, row.replace("+", "-"), variant="full", optimizer=optimizer,
            hyperparameter_source=source, train={**base.train, **overrides},
        )
        for row, (optimizer, source, overrides) in OPTIMIZER_ROWS.items()
    }


def run_optimizer_comparison(base: ExperimentSpec) -> dict:
    """Compare update rules on the full model; emit efficiency + accuracy."""
    reports = {row: run_experiment(s) for row, s in optimizer_specs(base).items()}
    return _write_suite(
        base, "optimizer", OPTIMIZER_CSV_HEADER,
        lambda r: [*astuple(r.efficiency), *_metric_cells(r)], reports,
    )


# inertia configuration of the swarm study -> its changes to the default swarm
PSO_STUDY_CONFIGS = {
    "static": {},
    "dynamic": {"inertia_schedule": "linear", "omega_start": 0.9, "omega_end": 0.4},
}


def run_pso_distribution_study(
    objective_name: str, run_count: int = 10, out_dir="out", dim: int = 5, base_seed: int = 0
) -> dict:
    """Repeated independent swarm runs per ``PSO_STUDY_CONFIGS`` entry.

    Writes one history CSV per configuration plus a summary with per-run
    bests and their mean/median/std.
    """
    objective = P.make_objective(objective_name, dim)
    out_dir = Path(out_dir)
    (out_dir / "histories").mkdir(parents=True, exist_ok=True)
    summary = {"objective": objective_name, "dim": dim, "configs": {}}
    for config, overrides in PSO_STUDY_CONFIGS.items():
        histories = {}
        bests = []
        for i in range(run_count):
            seed = base_seed + i
            cfg = P.SwarmConfig(bounds=[(-5.0, 5.0)] * dim, seed=seed, **overrides)
            _, best, history = P.run(cfg, objective)
            histories[seed] = history
            bests.append(best)
        path = out_dir / "histories" / f"pso_{objective_name}_{config}.csv"
        P.write_history_csv(path, histories)
        arr = np.array(bests)
        summary["configs"][config] = {
            "per_run_best": [float(b) for b in bests],
            "mean": float(arr.mean()),
            "median": float(np.median(arr)),
            "std": float(arr.std()),
            "history_csv": str(path),
        }
    (out_dir / "pso_study_summary.json").write_text(canonical_json(summary))
    return summary
