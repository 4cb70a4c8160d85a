"""Acceptance gate: one test per release criterion, tolerances pinned.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or on
failure) so the gate reads as a checklist. Runtime-limited criteria measure
wall-clock time around the exact workload they bound.
"""

import json
import time

import numpy as np
import pytest

from ltpnet import lstm as L
from ltpnet import pso as P
from ltpnet import transformer as T
from ltpnet.gradcheck import composed_gradcheck_suite
from ltpnet.harness import (
    ABLATION_CSV_HEADER,
    ABLATION_ROWS,
    ExperimentSpec,
    run_ablation_suite,
    run_experiment,
)
from ltpnet.metrics import count_parameters, evaluate
from ltpnet.model import ModelParams
from ltpnet.preprocessing import (
    RawTable,
    SyntheticSpec,
    build_dataset,
    invert_standardization,
    kfold_split,
    split_train_test,
    standardize,
    synthesize_series,
)
from ltpnet.rng import SeededRng
from ltpnet.training import EarlyStopping, TrainConfig, train


def _verdict(number: int, name: str, ok: bool):
    print(f"[ACCEPT] criterion {number:02d} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number:02d} ({name}) failed"


def test_criterion_01_gradient_correctness():
    started = time.perf_counter()
    cases = composed_gradcheck_suite(n_seeds=20, seed_base=0)
    elapsed = time.perf_counter() - started
    worst = max(c.error for c in cases)
    ok = worst < 1e-4 and len(cases) >= 20 and elapsed < 60.0
    print(f"    max relative error {worst:.3e} over {len(cases)} seeds in {elapsed:.1f}s")
    _verdict(1, "gradient correctness", ok)


def test_criterion_02_pso_sphere_convergence():
    started = time.perf_counter()
    hits = 0
    monotone = True
    for seed in range(10):
        cfg = P.SwarmConfig(
            n_particles=50, iterations=100, omega=0.5, c1=1.0, c2=1.0,
            bounds=[(-5.0, 5.0)] * 5, seed=seed,
        )
        _, best, history = P.run(cfg, P.make_objective("sphere", 5))
        hits += best <= 1e-3
        monotone &= all(b <= a for a, b in zip(history, history[1:]))
    elapsed = time.perf_counter() - started
    print(f"    {hits}/10 runs reached 1e-3; monotone={monotone}; {elapsed:.1f}s")
    _verdict(2, "sphere convergence", hits >= 9 and monotone and elapsed < 10.0)


def test_criterion_03_dynamic_inertia_study():
    started = time.perf_counter()
    obj = P.make_objective("rastrigin", 5)
    static, dynamic = [], []
    for seed in range(20):
        s = P.SwarmConfig(bounds=[(-5.0, 5.0)] * 5, seed=seed)
        d = P.SwarmConfig(
            bounds=[(-5.0, 5.0)] * 5, seed=seed,
            inertia_schedule="linear", omega_start=0.9, omega_end=0.4,
        )
        static.append(P.run(s, obj)[1])
        dynamic.append(P.run(d, obj)[1])
    elapsed = time.perf_counter() - started
    med_s, med_d = float(np.median(static)), float(np.median(dynamic))
    print(f"    medians: dynamic {med_d:.3f} vs static {med_s:.3f}; {elapsed:.1f}s")
    _verdict(3, "dynamic inertia", med_d <= med_s and elapsed < 30.0)


def test_criterion_04_metric_oracles():
    r = evaluate([1.0, 2.0, 3.0], [2.0, 2.0, 5.0])
    exact = (
        abs(r.mae - 1.0) < 1e-12
        and abs(r.mse - 5.0 / 3.0) < 1e-12
        and abs(r.rmse - np.sqrt(5.0 / 3.0)) < 1e-12
        and abs(r.mape - 30.0) < 1e-12
    )
    rng = SeededRng(90)
    identity = True
    jensen = True
    for _ in range(1000):
        n = int(rng.integers(1, 40))
        rep = evaluate(rng.uniform(-10, 10, n), rng.uniform(-10, 10, n))
        identity &= abs(rep.rmse**2 - rep.mse) <= 1e-9 * max(rep.mse, 1e-300)
        jensen &= rep.mae <= rep.rmse + 1e-12
    _verdict(4, "metric oracles", exact and identity and jensen)


def test_criterion_05_preprocessing_invariants():
    rng = SeededRng(91)
    table = RawTable({"a": rng.uniform(-3, 9, 400), "b": rng.normal(5, 2, 400)})
    out, stats = standardize(table)
    moments = all(
        abs(col.mean()) < 1e-9 and abs(col.std() - 1.0) < 1e-9
        for col in out.columns.values()
    )
    round_trip = all(
        np.max(np.abs(invert_standardization(out.columns[n], stats[n]) - table.columns[n]))
        < 1e-9
        for n in table.names
    )
    split = split_train_test(10)
    split_ok = (
        len(split.train) == 7
        and len(split.test) == 3
        and split.train.max() < split.test.min()
    )
    folds = kfold_split(np.arange(10), k=5, rng=SeededRng(4)).folds
    folds_ok = [len(f) for f in folds] == [2] * 5
    _verdict(5, "preprocessing invariants", moments and round_trip and split_ok and folds_ok)


def test_criterion_06_parameter_count_oracles():
    lstm_only = ModelParams(
        lstm_stack=[L.init_layer(1, 2, SeededRng(0))], encoder=None, head=None
    )
    layer = T.init_encoder_layer(4, 8, SeededRng(0))
    ff_count = sum(
        arr.size
        for name, arr in layer.named_arrays()
        if name.startswith(("W_ff", "b_ff"))
    )
    _verdict(6, "parameter counts", count_parameters(lstm_only) == 44 and ff_count == 76)


def test_criterion_07_learning_sanity():
    table = synthesize_series(
        SyntheticSpec(length=400, feature_count=1, seasonal_period=12.0,
                      trend_slope=0.0, noise_std=0.0, seed=7)
    )
    dataset, split, _ = build_dataset(table)
    hp = P.HyperparamPoint(
        lstm_hidden=8, lstm_lr=1e-3, transformer_layers=1,
        attention_heads=2, d_model=16, transformer_lr=1e-4,
    )
    # reference protocol constants for the gradient-normalized optimizer:
    # learning rate 0.001 with batch size 64
    cfg = TrainConfig(
        optimizer="adam", adam_lr=1e-3, batch_size=64, epochs=200,
        patience=200, lstm_layers=1, head_width=16, seed=0,
    )
    report = train(dataset, split, hp, cfg, rng=SeededRng(0))
    ratio = report.train_mse_initial / report.train_mse_final
    print(f"    train MSE {report.train_mse_initial:.4f} -> "
          f"{report.train_mse_final:.6f} (x{ratio:.0f})")

    stopper = EarlyStopping(patience=2)
    stops = [stopper.update(e, v) for e, v in enumerate([1.0, 0.9, 0.9, 0.9], 1)]
    stopping_ok = stops == [False, False, False, True] and stopper.best_epoch == 2
    _verdict(7, "learning sanity", ratio >= 10.0 and stopping_ok)


def _reference_default_spec(out_dir):
    return ExperimentSpec(
        dataset={
            "synthetic": {
                "length": 200, "feature_count": 2, "seasonal_period": 12,
                "trend_slope": 0.0, "noise_std": 0.05, "seed": 3,
            }
        },
        variant="no-pso",
        train={"epochs": 0},
        lookback=24,
        output_dir=str(out_dir),
    )


def test_criterion_08_reference_configuration_fidelity(tmp_path):
    report = run_experiment(_reference_default_spec(tmp_path / "ref"))
    payload = json.loads(
        (tmp_path / "ref" / "reports" / "run_report.json").read_text()
    )
    hp = payload["resolved_hyperparams"]
    hp_ok = hp == {
        "lstm_hidden": 128, "lstm_lr": 0.001, "transformer_layers": 6,
        "attention_heads": 8, "d_model": 256, "transformer_lr": 0.0001,
    }
    cfg = payload["train_config"]
    batch_ok = (
        cfg["batch_size"] == 64
        and cfg["lstm_lr"] == 0.001
        and cfg["transformer_lr"] == 0.0001
    )
    sw = payload["swarm_config"]
    swarm_ok = (
        sw["n_particles"] == 50 and sw["iterations"] == 100
        and sw["omega"] == 0.5 and sw["c1"] == 1.0 and sw["c2"] == 1.0
    )
    _verdict(8, "reference configuration fidelity", hp_ok and batch_ok and swarm_ok)


def _tiny_suite_spec(out_dir):
    return ExperimentSpec(
        dataset={
            "synthetic": {
                "length": 120, "feature_count": 1, "seasonal_period": 12,
                "trend_slope": 0.0, "noise_std": 0.05, "seed": 11,
            }
        },
        hyperparams={
            "lstm_hidden": 4, "transformer_layers": 1,
            "attention_heads": 2, "d_model": 8,
        },
        train={"epochs": 1, "batch_size": 16, "lstm_layers": 1, "head_width": 4},
        lookback=12,
        output_dir=str(out_dir),
    )


def test_criterion_09_harness_determinism_and_protocol(tmp_path):
    result = run_ablation_suite(_tiny_suite_spec(tmp_path / "suite"))
    with open(result["summary"]["table"], newline="") as fh:
        rows = [line.strip().split(",") for line in fh]
    table_ok = (
        rows[0] == ABLATION_CSV_HEADER
        and [r[0] for r in rows[1:]] == [label for label, _ in ABLATION_ROWS]
        and all(len(r) == 5 for r in rows[1:])
    )

    audits_ok = True
    for report in result["reports"].values():
        audits_ok &= report.audit["test_overlap_count"] == 0
        overlap = np.intersect1d(
            report.train_report.used_train_indices, report.split.test
        )
        audits_ok &= overlap.size == 0

    single = _tiny_suite_spec(tmp_path / "det")
    run_experiment(single)
    first = (tmp_path / "det" / "reports" / "run_report.json").read_bytes()
    run_experiment(_tiny_suite_spec(tmp_path / "det"))
    second = (tmp_path / "det" / "reports" / "run_report.json").read_bytes()
    _verdict(9, "harness determinism", table_ok and audits_ok and first == second)


def test_criterion_10_transformer_structure():
    rng = SeededRng(92)
    p = T.init_encoder_layer(8, 32, rng.split(0))
    rows_ok = True
    for trial in range(50):
        x = rng.split(trial + 1).uniform(-2, 2, (5, 8))
        _, cache = T.multi_head_attention(x, p, 2)
        rows_ok &= bool(
            np.all(np.abs(cache["weights"].sum(axis=-1) - 1.0) < 1e-12)
        )

    x = rng.split(99).uniform(-1, 1, (6, 8))
    perm = rng.split(100).permutation(6)
    out, _ = T.multi_head_attention(x, p, 2)
    out_perm, _ = T.multi_head_attention(x[perm], p, 2)
    equivariant = bool(np.max(np.abs(out_perm - out[perm])) < 1e-10)

    table = T.positional_encoding(8, 12)
    pe_ok = bool(
        np.all(table[0, 0::2] == 0.0) and np.all(table[0, 1::2] == 1.0)
    )
    _verdict(10, "transformer structure", rows_ok and equivariant and pe_ok)
