"""Dataset ingestion and preparation for windowed forecasting.

The pipeline order is: impute missing values, drop outlier rows by the
three-sigma rule, z-score standardize (statistics from training rows only),
slice into fixed-lookback windows, then split chronologically 7:3. Each stage
is also usable on its own.
"""

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .ops import check_fields, declared
from .rng import SeededRng

NEAR_CONSTANT_STD = 1e-12
IMPUTE_STRATEGIES = ("mean", "median")


@dataclass
class RawTable:
    """Column-oriented numeric table; NaN marks a missing entry."""

    columns: dict  # name -> float64 array, all equal length

    def __post_init__(self):
        lengths = {name: len(col) for name, col in self.columns.items()}
        if len(set(lengths.values())) > 1:
            raise ValueError(f"ragged columns: {lengths}")
        self.columns = {
            name: np.asarray(col, dtype=np.float64)
            for name, col in self.columns.items()
        }

    @property
    def names(self) -> list:
        return list(self.columns)

    @property
    def n_rows(self) -> int:
        return len(next(iter(self.columns.values()))) if self.columns else 0

    def missing_counts(self) -> dict:
        return {n: int(np.isnan(c).sum()) for n, c in self.columns.items()}


@dataclass
class WindowedDataset:
    """Supervised pairs: lookback windows of features and scalar targets."""

    features: np.ndarray  # (N, L, F)
    targets: np.ndarray  # (N,)
    lookback: int
    horizon: int
    feature_names: list
    target_name: str
    # per-column (mean, std) used to standardize; identity stats otherwise
    stats: dict = field(default_factory=dict)

    @property
    def n_windows(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[2]

    def target_stats(self) -> tuple:
        return self.stats.get(self.target_name, (0.0, 1.0))


@dataclass
class SplitSpec:
    """Train/test index partition with optional fold assignments."""

    train: np.ndarray
    test: np.ndarray
    folds: list | None = None

    def __post_init__(self):
        self.train = np.asarray(self.train, dtype=np.intp)
        self.test = np.asarray(self.test, dtype=np.intp)
        if np.intersect1d(self.train, self.test).size:
            raise ValueError("train and test indices overlap")


def load_csv(path, schema: list | None = None) -> RawTable:
    """Read a headered CSV into a RawTable.

    Blank cells and tokens that do not parse to a finite number become
    missing entries. With ``schema`` given, the header must match exactly.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file, expected a header row") from None
        header = [h.strip() for h in header]
        if schema is not None and header != list(schema):
            raise ValueError(
                f"{path}: header {header} does not match expected {list(schema)}"
            )
        if len(set(header)) != len(header):
            raise ValueError(f"{path}: duplicate column names in {header}")
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ValueError(
                    f"{path}:{lineno}: expected {len(header)} cells, got {len(row)}"
                )
            rows.append([_parse_cell(tok) for tok in row])
    data = np.array(rows, dtype=np.float64) if rows else np.empty((0, len(header)))
    return RawTable({name: data[:, j] for j, name in enumerate(header)})


def _parse_cell(token: str) -> float:
    token = token.strip()
    if not token:
        return math.nan
    try:
        value = float(token)
    except ValueError:
        return math.nan
    # infinities would poison downstream tensors; treat like unparseable
    return value if math.isfinite(value) else math.nan


def write_csv(table: RawTable, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(table.names)
        matrix = np.column_stack([table.columns[n] for n in table.names])
        for row in matrix:
            writer.writerow(["" if math.isnan(v) else repr(float(v)) for v in row])


def impute_missing(table: RawTable, strategy: str = "mean") -> RawTable:
    """Fill every missing entry with the column mean or median."""
    if strategy not in IMPUTE_STRATEGIES:
        raise ValueError(f"unknown imputation strategy {strategy!r}")
    out = {}
    for name, col in table.columns.items():
        present = col[~np.isnan(col)]
        if present.size == 0:
            raise ValueError(f"column {name!r} has no present values to impute from")
        fill = float(np.mean(present) if strategy == "mean" else np.median(present))
        out[name] = np.where(np.isnan(col), fill, col)
    return RawTable(out)


def remove_outliers(table: RawTable) -> tuple:
    """Drop rows holding any value beyond three standard deviations.

    Bounds use per-column population statistics of the input, computed once.
    Values exactly on a bound are kept; a zero-variance column excludes
    nothing. Returns (filtered table, removed row indices).
    """
    if any(np.isnan(col).any() for col in table.columns.values()):
        raise ValueError("impute missing values before outlier removal")
    keep = np.ones(table.n_rows, dtype=bool)
    for col in table.columns.values():
        mu = col.mean()
        sigma = col.std()  # population
        keep &= (col >= mu - 3.0 * sigma) & (col <= mu + 3.0 * sigma)
    removed = np.flatnonzero(~keep)
    filtered = RawTable({n: c[keep] for n, c in table.columns.items()})
    return filtered, removed


def column_stats(table: RawTable, rows: np.ndarray | None = None) -> dict:
    """Per-column (mean, population std), optionally over a row subset."""
    stats = {}
    for name, col in table.columns.items():
        values = col if rows is None else col[rows]
        stats[name] = (float(values.mean()), float(values.std()))
    return stats


def standardize(table: RawTable, stats: dict | None = None) -> tuple:
    """Z-score each column; returns (table, per-column (mean, std)).

    With ``stats`` given, applies those statistics instead of computing them
    (how test rows are transformed with training-row statistics).
    """
    if any(np.isnan(col).any() for col in table.columns.values()):
        raise ValueError("impute missing values before standardization")
    if stats is None:
        stats = column_stats(table)
    out = {}
    for name, col in table.columns.items():
        mu, sigma = stats[name]
        if sigma < NEAR_CONSTANT_STD:
            raise ValueError(
                f"column {name!r} is near-constant (std={sigma!r}); cannot standardize"
            )
        out[name] = (col - mu) / sigma
    return RawTable(out), stats


def invert_standardization(values: np.ndarray, stats_entry: tuple) -> np.ndarray:
    mu, sigma = stats_entry
    return np.asarray(values) * sigma + mu


def make_windows(
    table: RawTable,
    target_column: str,
    lookback: int = 24,
    horizon: int = 1,
    feature_columns: list | None = None,
    stats: dict | None = None,
) -> WindowedDataset:
    """Slice rows into (lookback x features) windows with scalar targets.

    Window i covers rows [i, i+lookback); its target is the target column at
    row i + lookback + horizon - 1, so every feature row strictly precedes
    the target row.
    """
    if lookback < 1 or horizon < 1:
        raise ValueError(f"lookback and horizon must be >= 1, got {lookback} and {horizon}")
    if target_column not in table.columns:
        raise ValueError(f"target column {target_column!r} not in table")
    if feature_columns is None:
        feature_columns = table.names
    missing = [c for c in feature_columns if c not in table.columns]
    if missing:
        raise ValueError(f"feature columns {missing} not in table")
    n = table.n_rows
    n_windows = n - lookback - horizon + 1
    if n_windows < 1:
        raise ValueError(
            f"{n} rows is too few for lookback={lookback}, horizon={horizon}"
        )
    matrix = np.column_stack([table.columns[c] for c in feature_columns])
    features = np.stack([matrix[i : i + lookback] for i in range(n_windows)])
    target_rows = np.arange(n_windows) + lookback + horizon - 1
    targets = table.columns[target_column][target_rows].copy()
    return WindowedDataset(
        features=features,
        targets=targets,
        lookback=lookback,
        horizon=horizon,
        feature_names=list(feature_columns),
        target_name=target_column,
        stats=dict(stats or {}),
    )


def split_train_test(n: int, ratio: float = 0.7) -> SplitSpec:
    """Chronological split: first floor(ratio*n) indices train, rest test."""
    if n < 2:
        raise ValueError(f"need at least 2 items to split, got {n}")
    n_train = int(math.floor(ratio * n))
    n_train = min(max(n_train, 1), n - 1)
    indices = np.arange(n)
    return SplitSpec(train=indices[:n_train], test=indices[n_train:])


def kfold_split(split, k: int = 5, rng: SeededRng | None = None) -> SplitSpec:
    """Assign train indices to k shuffled folds with sizes differing by <= 1."""
    if isinstance(split, SplitSpec):
        train, test = split.train, split.test
    else:
        train, test = np.asarray(split, dtype=np.intp), np.empty(0, dtype=np.intp)
    if len(train) < k:
        raise ValueError(f"cannot make {k} folds from {len(train)} train indices")
    if k < 2:
        raise ValueError(f"need k >= 2 folds, got {k}")
    rng = rng or SeededRng(0)
    order = train[rng.permutation(len(train))]
    folds = [np.sort(chunk) for chunk in np.array_split(order, k)]
    return SplitSpec(train=train, test=test, folds=folds)


@dataclass
class SyntheticSpec:
    """Recipe for a deterministic trend + seasonal + noise table."""

    length: int = declared(400, ge=1)
    feature_count: int = declared(2, ge=0)  # 0: the target alone
    seasonal_period: float = declared(12.0, gt=0)
    trend_slope: float = 0.0
    noise_std: float = declared(0.1, ge=0)
    seed: int = declared(0, ge=0)

    def __post_init__(self):
        check_fields(self, "dataset.synthetic")


def synthesize_series(spec: SyntheticSpec) -> RawTable:
    """Generate a target series plus lagged, independently-noised features.

    target[t] = slope*t + sin(2*pi*t/period) + gaussian noise.
    feature_j is the noiseless signal lagged by j+1 steps with its own noise.
    """
    rng = SeededRng(spec.seed)
    t = np.arange(spec.length, dtype=np.float64)

    def signal(steps):
        return spec.trend_slope * steps + np.sin(2.0 * np.pi * steps / spec.seasonal_period)

    columns = {}
    for j in range(spec.feature_count):
        lag = j + 1
        noise = rng.split(1 + j).normal(0.0, spec.noise_std, spec.length)
        columns[f"feature_{j + 1}"] = signal(t - lag) + noise
    target_noise = rng.split(0).normal(0.0, spec.noise_std, spec.length)
    columns["target"] = signal(t) + target_noise
    return RawTable(columns)


@dataclass
class PreprocessReport:
    """What the preparation pipeline did to the raw table."""

    missing_rates: dict
    rows_removed: list
    stats: dict
    train_stat_rows: int


def build_dataset(
    table: RawTable,
    target_column: str = "target",
    feature_columns: list | None = None,
    lookback: int = 24,
    horizon: int = 1,
    train_ratio: float = 0.7,
    impute_strategy: str = "mean",
) -> tuple:
    """Full preparation pipeline; returns (dataset, split, report).

    Standardization statistics come from the rows that feed training windows
    only, so test targets never leak into the transform.
    """
    n_rows = table.n_rows
    missing_rates = {
        n: (c / n_rows if n_rows else 0.0)
        for n, c in table.missing_counts().items()
    }
    imputed = impute_missing(table, impute_strategy)
    cleaned, removed = remove_outliers(imputed)

    n_windows = cleaned.n_rows - lookback - horizon + 1
    if n_windows < 2:
        raise ValueError(
            f"only {n_windows} windows available after cleaning; need at least 2"
        )
    split = split_train_test(n_windows, train_ratio)
    last_train_row = int(split.train[-1]) + lookback + horizon - 1
    train_rows = np.arange(last_train_row + 1)
    stats = column_stats(cleaned, train_rows)
    standardized, _ = standardize(cleaned, stats)
    dataset = make_windows(
        standardized, target_column, lookback, horizon, feature_columns, stats
    )
    report = PreprocessReport(
        missing_rates=missing_rates,
        rows_removed=[int(i) for i in removed],
        stats=stats,
        train_stat_rows=len(train_rows),
    )
    return dataset, split, report
