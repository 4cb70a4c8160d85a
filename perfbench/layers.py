"""Which functions the traced run wraps, and the per-layer metrics it derives.

Durations are per call, averaged over every call in the traced rounds;
counts are per round. A layer that a workload never calls reads 0.
"""

import os

import numpy as np

from ltpnet import metrics as M

TARGETS = [
    "ltpnet.harness:run_experiment",
    "ltpnet.preprocessing:load_csv",
    "ltpnet.preprocessing:build_dataset",
    "ltpnet.training:train",
    "ltpnet.training:dataset_mse",
    "ltpnet.training:evaluate_on_indices",
    "ltpnet.training:clip_gradients",
    "ltpnet.training:SgdOptimizer.step",
    "ltpnet.model:build_model",
    "ltpnet.model:forward_batch",
    "ltpnet.model:backward_batch",
    "ltpnet.lstm:lstm_sequence_forward",
    "ltpnet.lstm:lstm_backward",
    "ltpnet.lstm:lstm_cell_forward",
    "ltpnet.ops:sigmoid",
    "ltpnet.ops:softmax",
    "ltpnet.transformer:encoder_stack_forward",
    "ltpnet.transformer:encoder_stack_backward",
    "ltpnet.transformer:encoder_layer_forward",
    "ltpnet.transformer:encoder_layer_backward",
    "ltpnet.transformer:multi_head_attention",
    "ltpnet.transformer:multi_head_attention_backward",
    "ltpnet.transformer:feed_forward",
    "ltpnet.transformer:feed_forward_backward",
    "ltpnet.transformer:predict",
    "ltpnet.transformer:predict_backward",
    "ltpnet.checkpoint:save_checkpoint",
    "ltpnet.checkpoint:load_checkpoint",
    "ltpnet.metrics:time_run",
    "ltpnet.pso:run",
    "ltpnet.gradcheck:composed_gradcheck_suite",
    "ltpnet.gradcheck:check_model_gradients",
    "ltpnet.gradcheck:finite_difference_grads",
]

# Top-level spans that make up each timed phase of a round.
PHASE_ROOTS = {
    "main": ("ltpnet.harness:run_experiment", "ltpnet.gradcheck:composed_gradcheck_suite"),
    "forecast": ("ltpnet.checkpoint:load_checkpoint", "ltpnet.training:evaluate_on_indices"),
}


def held_bytes(obj) -> int:
    """Bytes of the distinct array buffers reachable through dicts and lists."""
    seen, total, todo = set(), 0, [obj]
    while todo:
        item = todo.pop()
        if isinstance(item, np.ndarray):
            while isinstance(item.base, np.ndarray):
                item = item.base
            if id(item) not in seen:
                seen.add(id(item))
                total += item.nbytes
        elif isinstance(item, dict):
            todo.extend(item.values())
        elif isinstance(item, (list, tuple)):
            todo.extend(item)
    return total


def make_notes():
    """Per-call values some spans record from their arguments or result."""
    sampled = set()

    def forward_batch(args, result):
        windows, params = args[0], args[1]
        key = (len(windows), id(params))
        if key in sampled:
            return len(windows), None
        sampled.add(key)
        return len(windows), held_bytes(result[1])

    def lstm_flops(args, result):
        window, stack = args[0], args[1]
        batch, length = window.shape[0], window.shape[1]
        return batch * sum(M.lstm_layer_flops(p.input_size, p.hidden_size, length) for p in stack)

    def encoder_flops(args, result):
        seq, stack = args[0], args[1]
        batch, length = seq.shape[0], seq.shape[1]
        return batch * sum(
            M.encoder_layer_flops(length, stack.d_model, stack.n_heads, layer.W_ff1.shape[1])
            for layer in stack.layers
        )

    return {
        "ltpnet.model:forward_batch": forward_batch,
        "ltpnet.lstm:lstm_sequence_forward": lstm_flops,
        "ltpnet.transformer:encoder_stack_forward": encoder_flops,
        "ltpnet.training:train": lambda args, result: args[2],
        "ltpnet.checkpoint:save_checkpoint": lambda args, result: result,
        "ltpnet.checkpoint:load_checkpoint": lambda args, result: os.path.getsize(args[0]),
    }


class _Spans:
    def __init__(self, tracer, spans):
        self.t = tracer
        self.s = spans
        self.duration = spans["end"] - spans["start"]
        parent = spans["parent"]
        self.parent_name = np.where(parent >= 0, spans["name"][np.maximum(parent, 0)], -1)

    def id(self, target):
        return self.t.names.index(target) if target in self.t.names else -2

    def mask(self, target, parent=None):
        m = self.s["name"] == self.id(target)
        if parent is not None:
            m &= self.parent_name == self.id(parent)
        return m

    def mean(self, target, scale, field="duration"):
        m = self.mask(target)
        values = self.duration[m] if field == "duration" else self.s["self_ns"][m]
        return float(values.mean()) / scale if values.size else 0.0

    def total(self, mask, field="duration"):
        values = self.duration if field == "duration" else self.s["self_ns"]
        return float(values[mask].sum())

    def notes(self, mask):
        return [self.t.notes[e] for e in self.s["entry"][mask]]


MS, US = 1e6, 1e3


def layer_metrics(tracer, spans, round_starts) -> dict:
    """Per-layer metrics from the traced rounds' spans, as {name: (value, unit)}.

    ``round_starts`` holds the event index at which each traced round began.
    """
    S = _Spans(tracer, spans)
    per_round = 1.0 / len(round_starts)
    round_of = np.searchsorted(round_starts, spans["entry"], side="right") - 1
    out = {}

    def timed(metric, target, scale, unit, field="duration", calls=True):
        out[metric] = (S.mean(target, scale, field), unit)
        if calls:
            prefix = metric.rsplit("_", 1)[0].removesuffix("_self")
            out[prefix + "_calls"] = (int(S.mask(target).sum()) * per_round, "count")

    def rate(notes_mask, time_mask):
        ns = S.total(time_mask)
        return sum(S.notes(notes_mask)) / ns if ns else 0.0

    lstm_fwd = S.mask("ltpnet.lstm:lstm_sequence_forward")
    enc_fwd = S.mask("ltpnet.transformer:encoder_stack_forward")
    timed("lstm.forward_ms", "ltpnet.lstm:lstm_sequence_forward", MS, "ms")
    timed("lstm.backward_ms", "ltpnet.lstm:lstm_backward", MS, "ms")
    out["lstm.forward_gflops"] = (rate(lstm_fwd, lstm_fwd), "GFLOP/s")
    timed("lstm.cell_forward_us", "ltpnet.lstm:lstm_cell_forward", US, "us")
    timed("ops.sigmoid_us", "ltpnet.ops:sigmoid", US, "us")
    timed("ops.softmax_us", "ltpnet.ops:softmax", US, "us")
    timed("transformer.attention_forward_ms", "ltpnet.transformer:multi_head_attention", MS, "ms")
    timed("transformer.attention_backward_ms", "ltpnet.transformer:multi_head_attention_backward", MS, "ms")
    timed("transformer.ffn_forward_ms", "ltpnet.transformer:feed_forward", MS, "ms")
    timed("transformer.ffn_backward_ms", "ltpnet.transformer:feed_forward_backward", MS, "ms")
    timed("transformer.norm_residual_forward_ms", "ltpnet.transformer:encoder_layer_forward", MS, "ms", "self", False)
    timed("transformer.norm_residual_backward_ms", "ltpnet.transformer:encoder_layer_backward", MS, "ms", "self", False)
    timed("transformer.encoder_forward_ms", "ltpnet.transformer:encoder_stack_forward", MS, "ms")
    timed("transformer.encoder_backward_ms", "ltpnet.transformer:encoder_stack_backward", MS, "ms")
    head_calls = int(S.mask("ltpnet.transformer:predict").sum())
    head_ns = S.total(S.mask("ltpnet.transformer:predict") | S.mask("ltpnet.transformer:predict_backward"))
    out["transformer.head_ms"] = (head_ns / head_calls / MS if head_calls else 0.0, "ms")
    out["transformer.head_calls"] = (head_calls * per_round, "count")
    out["transformer.encoder_forward_gflops"] = (rate(enc_fwd, enc_fwd), "GFLOP/s")

    forward = S.mask("ltpnet.model:forward_batch")
    sampled = [(b, n) for b, n in S.notes(forward) if n is not None]
    cache_bytes = sum(n for _, n in sampled)
    cache_windows = sum(b for b, _ in sampled)
    out["model.forward_cache_mb_per_window"] = (cache_bytes / cache_windows / 1e6 if cache_windows else 0.0, "MB")
    out["model.forward_calls"] = (int(forward.sum()) * per_round, "count")
    timed("model.backward_self_ms", "ltpnet.model:backward_batch", MS, "ms", "self", False)
    out["model.backward_calls"] = (int(S.mask("ltpnet.model:backward_batch").sum()) * per_round, "count")
    timed("model.build_ms", "ltpnet.model:build_model", MS, "ms")

    timed("training.clip_ms", "ltpnet.training:clip_gradients", MS, "ms")
    timed("training.optimizer_step_ms", "ltpnet.training:SgdOptimizer.step", MS, "ms")
    timed("training.eval_pass_ms", "ltpnet.training:dataset_mse", MS, "ms")
    timed("training.evaluate_ms", "ltpnet.training:evaluate_on_indices", MS, "ms")
    # Forward-only windows of the training pipeline per window it trained on.
    in_run_eval = S.mask("ltpnet.training:evaluate_on_indices") & (S.s["parent"] >= 0)
    eval_fwd = S.mask("ltpnet.model:forward_batch", "ltpnet.training:dataset_mse") | (
        forward & np.isin(S.s["parent"], np.flatnonzero(in_run_eval))
    )
    trained = S.mask("ltpnet.model:forward_batch", "ltpnet.training:train")
    eval_windows = sum(b for b, _ in S.notes(eval_fwd))
    trained_windows = sum(b for b, _ in S.notes(trained))
    out["training.eval_windows_per_trained_window"] = (
        eval_windows / trained_windows if trained_windows else 0.0, "ratio")
    timed("training.train_self_ms", "ltpnet.training:train", MS, "ms", "self")

    proxy = S.mask("ltpnet.training:train", "ltpnet.pso:run")
    out["training.proxy_train_ms"] = (S.total(proxy) / proxy.sum() / MS if proxy.any() else 0.0, "ms")
    out["pso.fitness_evals"] = (int(proxy.sum()) * per_round, "count")
    candidates = list(zip(round_of[proxy], S.notes(proxy)))
    out["pso.distinct_candidate_ratio"] = (len(set(candidates)) / len(candidates) if candidates else 0.0, "ratio")
    timed("pso.swarm_self_ms", "ltpnet.pso:run", MS, "ms", "self", False)

    saves = S.mask("ltpnet.checkpoint:save_checkpoint")
    loads = S.mask("ltpnet.checkpoint:load_checkpoint")
    saved = S.notes(saves)
    out["checkpoint.bytes"] = (saved[-1] if saved else 0, "B")
    out["checkpoint.save_mb_per_s"] = (rate(saves, saves) * 1e3 if saved else 0.0, "MB/s")
    out["checkpoint.load_mb_per_s"] = (rate(loads, loads) * 1e3 if loads.any() else 0.0, "MB/s")
    timed("preprocessing.load_csv_ms", "ltpnet.preprocessing:load_csv", MS, "ms", calls=False)
    timed("preprocessing.build_dataset_ms", "ltpnet.preprocessing:build_dataset", MS, "ms", calls=False)
    timed("harness.run_self_ms", "ltpnet.harness:run_experiment", MS, "ms", "self", False)
    timed("metrics.time_run_ms", "ltpnet.metrics:time_run", MS, "ms", calls=False)

    fd = S.mask("ltpnet.gradcheck:finite_difference_grads")
    evals = int(S.mask("ltpnet.model:forward_batch", "ltpnet.gradcheck:finite_difference_grads").sum())
    out["gradcheck.loss_evals"] = (evals * per_round, "count")
    out["gradcheck.loss_eval_us"] = (S.total(fd) / evals / US if evals else 0.0, "us")
    return out


def phase_ns(tracer, spans, among, span_cost_ns) -> dict:
    """Each phase's time in layer spans among the masked ones: the duration
    of its top-level spans less the tracer's own cost for every span under
    them (spans are in start order, so a top-level span's subtree is the
    run of rows up to the next top-level span)."""
    S = _Spans(tracer, spans)
    top = np.flatnonzero(spans["parent"] < 0)
    subtree = np.diff(np.append(top, spans["parent"].size))
    duration = S.duration[top] - span_cost_ns * subtree
    chosen = among[top]
    return {
        phase: float(duration[chosen & np.isin(spans["name"][top], [S.id(r) for r in roots])].sum())
        for phase, roots in PHASE_ROOTS.items()
    }


def span_table(tracer, spans) -> dict:
    """Calls, total and self milliseconds per traced function."""
    S = _Spans(tracer, spans)
    table = {}
    for i, name in enumerate(tracer.names):
        m = spans["name"] == i
        if m.any():
            table[name] = {
                "calls": int(m.sum()),
                "total_ms": S.total(m) / MS,
                "self_ms": S.total(m, "self") / MS,
            }
    return table
