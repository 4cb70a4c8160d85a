"""Accuracy and efficiency metrics.

FLOPs are analytic estimates under a fixed convention so reported numbers are
reproducible: a (m x k) @ (k x n) matrix product costs 2*m*k*n, every
element-wise operation (add, multiply, activation) costs one per element,
softmax costs 5 per element, and layer norm costs 8 per element.
"""

import time
from dataclasses import dataclass

import numpy as np

from .model import ModelParams

MAPE_ACTUAL_FLOOR = 1e-8
SOFTMAX_OPS_PER_ELEMENT = 5
LAYER_NORM_OPS_PER_ELEMENT = 8


@dataclass
class EvalReport:
    mae: float
    mape: float | None  # percent; None when every actual is near zero
    rmse: float
    mse: float
    n: int
    skipped_mape_points: int
    units: str = ""


@dataclass
class EfficiencyReport:
    parameter_count: int
    flops_per_forward: int
    inference_ms_per_window: float
    training_time_s: float


def evaluate(pred, actual, units: str = "") -> EvalReport:
    """MAE, MAPE (percent), RMSE, MSE over prediction/actual pairs.

    MAPE skips points whose actuals sit below the magnitude floor; the skip
    count is reported, and MAPE is absent (None) when nothing remains.
    """
    pred = np.asarray(pred, dtype=np.float64)
    actual = np.asarray(actual, dtype=np.float64)
    if pred.shape != actual.shape or pred.ndim != 1:
        raise ValueError(f"shape mismatch: {pred.shape} vs {actual.shape}")
    if pred.size == 0:
        raise ValueError("cannot evaluate empty inputs")
    err = pred - actual
    mse = float(np.mean(err * err))
    usable = np.abs(actual) >= MAPE_ACTUAL_FLOOR
    skipped = int(np.sum(~usable))
    if skipped == actual.size:
        mape = None
    else:
        mape = float(100.0 * np.mean(np.abs(err[usable]) / np.abs(actual[usable])))
    return EvalReport(
        mae=float(np.mean(np.abs(err))),
        mape=mape,
        rmse=float(np.sqrt(mse)),
        mse=mse,
        n=int(pred.size),
        skipped_mape_points=skipped,
        units=units,
    )


def count_parameters(params) -> int:
    """Exact learnable count: weights, biases, peepholes, norm affines.

    Accepts a whole ModelParams or any component exposing ``named_arrays``;
    constants (the positional table) are never traversed.
    """
    return int(sum(arr.size for _, arr in params.named_arrays()))


def matmul_flops(m: int, k: int, n: int) -> int:
    """Multiply-add counted as two operations."""
    return 2 * m * k * n


def lstm_layer_flops(input_size: int, hidden_size: int, seq_len: int) -> int:
    """Per-layer cost; linear in sequence length."""
    f, h = input_size, hidden_size
    per_gate_matmul = matmul_flops(1, f, h) + 2 * matmul_flops(1, h, h)
    candidate_matmul = matmul_flops(1, f, h) + matmul_flops(1, h, h)
    matmuls = 3 * per_gate_matmul + candidate_matmul
    # gates: 3 adds + activation each; candidate: 2 adds + tanh;
    # cell: 2 mults + add; hidden: tanh + mult
    elementwise = 3 * (4 * h) + 3 * h + 3 * h + 2 * h
    return seq_len * (matmuls + elementwise)


def encoder_layer_flops(seq_len: int, d_model: int, n_heads: int, d_ff: int) -> int:
    s, d = seq_len, d_model
    d_head = d // n_heads
    qkv = 3 * matmul_flops(s, d, d)
    scores = n_heads * matmul_flops(s, d_head, s)
    scale = n_heads * s * s
    soft = SOFTMAX_OPS_PER_ELEMENT * n_heads * s * s
    context = n_heads * matmul_flops(s, s, d_head)
    out_proj = matmul_flops(s, d, d)
    attn = qkv + scores + scale + soft + context + out_proj
    ffn = (
        matmul_flops(s, d, d_ff) + s * d_ff  # W1 + bias
        + s * d_ff  # relu
        + matmul_flops(s, d_ff, d) + s * d  # W2 + bias
    )
    residual_and_norm = 2 * (s * d + LAYER_NORM_OPS_PER_ELEMENT * s * d)
    return attn + ffn + residual_and_norm


def estimate_flops(model: ModelParams, window_shape: tuple) -> int:
    """Analytic operation count for one forward pass over one window."""
    seq_len, n_features = window_shape
    total = 0
    in_size = n_features
    for layer in model.lstm_stack:
        total += lstm_layer_flops(in_size, layer.hidden_size, seq_len)
        in_size = layer.hidden_size

    if model.encoder is not None:
        enc = model.encoder
        d = enc.d_model
        total += matmul_flops(seq_len, enc.input_size, d) + seq_len * d  # projection + bias
        total += seq_len * d  # positional add
        for layer in enc.layers:
            total += encoder_layer_flops(seq_len, d, enc.n_heads, layer.W_ff1.shape[1])
        if model.head is not None:
            total += seq_len * d + d  # mean pooling: adds + divide
    elif model.bypass is not None:
        d = model.bypass.W.shape[1]
        total += matmul_flops(1, model.bypass.W.shape[0], d) + d

    if model.head is not None:
        width = model.head.W_a.shape[1]
        total += matmul_flops(1, model.head.W_a.shape[0], width) + width  # W_a + bias
        total += width  # relu
        total += matmul_flops(1, width, 1) + 1  # W_b + bias
    return int(total)


def time_run(thunk, repetitions: int, warmup: int = 0) -> tuple:
    """Monotonic-clock timing; returns (mean ms, population std ms)."""
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    for _ in range(warmup):
        thunk()
    samples = np.empty(repetitions)
    for r in range(repetitions):
        start = time.perf_counter()
        thunk()
        samples[r] = (time.perf_counter() - start) * 1000.0
    return float(samples.mean()), float(samples.std())
