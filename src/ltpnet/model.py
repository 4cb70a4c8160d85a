"""Full forecasting model: LSTM stack -> encoder stack -> prediction head.

Ablation variants are functional bypasses, not zeroed weights. A model's
variant is the components it has, never a flag stored beside them:

- no LSTM layers (``build_model(lstm_enabled=False)``): window rows feed the
  encoder's input projection directly (the projection is built feature-sized
  instead of hidden-sized).
- no encoder (``build_model(transformer_enabled=False)``): the LSTM's final
  hidden state goes through a dedicated bypass projection into the
  prediction head; no pooling happens because there is a single vector per
  window.

Every ``ModelParams`` owns one contiguous float64 vector, ``flat``. Each array
that ``named_arrays`` yields is a view into it, at the offset where the
traversal reaches it: the LSTM layers first (each as its fused ``W_x``,
``W_h``, ``W_c`` and ``b``, the only copy of its weights), then the encoder,
the head and the bypass. Gradients from ``backward_batch`` are packed the
same way, so the optimizers, gradient clipping, best-epoch snapshots,
checkpoints and gradient checks all work on whole vectors. This module alone
knows the layout. The positional encoding is no parameter: the encoder builds
it from each input's sequence length, so no dimension of the model limits it.

The forward pass is a list of stages, ``ModelParams.stages``, built once per
model. Each stage has a name, the span of ``flat`` it owns (a view), a forward
from its input to its output and a backward, over the layer functions. In run
order, which is also ``flat`` order, so the spans tile ``flat`` end to end:

    lstm.<i>                         each LSTM layer, (B, L, F or H) -> (B, L, H)
    encoder.input                    input projection plus positional encoding -> (B, L, d)
    encoder.layers.<i>.attention     attention plus residual; owns W_qkv and W_o
    encoder.layers.<i>.feed_forward  LN1, feed-forward, residual, LN2; owns the
                                     rest of the layer; both (B, L, d) -> (B, L, d)
    pool+head                        mean-pool plus head, (B, L, d) -> (B,)
    bypass+head                      (no encoder) last hidden state, bypass, head -> (B,)

An encoder layer splits before LN1 because ``ln1_gain`` and ``ln1_bias``
follow the feed-forward weights in ``flat``. ``forward_batch`` and
``backward_batch`` loop over the list; gradcheck runs a nudged weight's
owner stage and the stages after it, the last one through
``forward_batch``'s ``start``. The forward keeps the caches by
default, as a training step needs them; predictions that never go backward
pass ``keep_cache=False`` and hold about one stage's activations at a time.
``backward_batch`` consumes the cache list: it pops each stage's cache before
running that stage's backward, so the caches are freed in reverse order as
the gradients build up, and the list is empty when it returns.

A (K, n) stack of flats is K models in one (``ModelParams.over``), for
forwards only: every array leads with K, a vector as (K, 1, d) so that it
broadcasts over an activation's rows. Every stage but the last maps a
shared (B, ...) input, or one input per model (K, B, ...), to a (K, B, ...)
output whose slice j has the bits that model j alone gives. The gradient
check runs each run of nudged copies of a stage's span so, from the owner
stage to the last. The last stage, ``forward_batch`` and every backward
take one model.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from . import lstm as L
from . import transformer as T
from .rng import SeededRng


@dataclass
class BypassProjection:
    """Maps the LSTM final state to head width when the encoder is bypassed."""

    W: np.ndarray
    b: np.ndarray

    def named_arrays(self):
        yield "W", self.W
        yield "b", self.b


@dataclass
class ModelParams:
    """The components of one model, with their arrays packed into ``flat``.

    Construction copies the given components' arrays into a new ``flat`` and
    rebuilds the components over views of it; the caller's components are
    left as they were. ``copy.deepcopy`` and pickle go through the same path.
    """

    lstm_stack: list = field(default_factory=list)
    encoder: T.EncoderStack | None = None
    head: T.PredictionHead | None = None
    bypass: BypassProjection | None = None
    flat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.flat = np.concatenate(
            [np.zeros(0)] + [np.ravel(arr) for _, arr in self.named_arrays()]
        )
        self.lstm_stack, self.encoder, self.head, self.bypass = _components(
            self.structure(), _slicer(self.flat)
        )

    def __reduce__(self):
        return ModelParams, (self.lstm_stack, self.encoder, self.head, self.bypass)

    @classmethod
    def over(cls, s: dict, flat: np.ndarray) -> "ModelParams":
        """The model of structure ``s`` whose arrays are views of ``flat`` (no copy).

        A (K, n) ``flat`` gives K models in one, for forwards only (module
        docstring).
        """
        model = cls.__new__(cls)
        model.flat = flat
        model.lstm_stack, model.encoder, model.head, model.bypass = _components(s, _slicer(flat))
        return model

    @cached_property
    def stages(self) -> list:
        """The forward pass as ``Stage``s in run order, built on first use."""
        return _stages(self)

    @property
    def lstm_size(self) -> int:
        """Length of the LSTM prefix of ``flat``."""
        return sum(arr.size for p in self.lstm_stack for _, arr in p.named_arrays())

    def structure(self) -> dict:
        """The dimensions that fix every array's shape, as plain JSON values."""
        enc = self.encoder
        return {
            "lstm": [[p.input_size, p.hidden_size] for p in self.lstm_stack],
            "encoder": None
            if enc is None
            else {
                "input_size": enc.input_size,
                "d_model": enc.d_model,
                "n_layers": len(enc.layers),
                "n_heads": enc.n_heads,
                "d_ff": enc.layers[0].W_ff1.shape[1] if enc.layers else 4 * enc.d_model,
            },
            "head": None
            if self.head is None
            else {"d_model": self.head.W_a.shape[0], "width": self.head.W_a.shape[1]},
            "bypass": None
            if self.bypass is None
            else {"in": self.bypass.W.shape[0], "out": self.bypass.W.shape[1]},
        }

    def named_arrays(self):
        for i, layer in enumerate(self.lstm_stack):
            for name, arr in layer.named_arrays():
                yield f"lstm.{i}.{name}", arr
        if self.encoder is not None:
            for name, arr in self.encoder.named_arrays():
                yield f"encoder.{name}", arr
        if self.head is not None:
            for name, arr in self.head.named_arrays():
                yield f"head.{name}", arr
        if self.bypass is not None:
            for name, arr in self.bypass.named_arrays():
                yield f"bypass.{name}", arr


def _slicer(flat: np.ndarray):
    """``take(*shape)``: the next view of ``flat``, in call order.

    Over a (K, n) stack of flats each view leads with K, and a vector's view
    is (K, 1, d), so that it broadcasts over an activation's rows.
    """
    offset, lead = 0, flat.shape[:-1]

    def take(*shape):
        nonlocal offset
        size = math.prod(shape)
        rows = (1,) if lead and len(shape) == 1 else ()
        view = flat[..., offset : offset + size].reshape(*lead, *rows, *shape)
        offset += size
        return view

    return take


def _components(s: dict, take):
    """(lstm_stack, encoder, head, bypass) of structure ``s``.

    ``take(*shape)`` supplies every array; it is called in ``named_arrays``
    order, which is what lets ``_slicer`` lay the arrays out in ``flat``.
    """
    stack = [
        L.LstmLayerParams(
            W_x=take(4 * h, f), W_h=take(4 * h, h), W_c=take(3 * h, h), b=take(4 * h)
        )
        for f, h in s["lstm"]
    ]
    encoder = None
    if s["encoder"] is not None:
        e = s["encoder"]
        d, d_ff = e["d_model"], e["d_ff"]
        W_in, b_in = take(e["input_size"], d), take(d)
        layers = [
            T.EncoderLayerParams(
                W_qkv=take(3, d, d), W_o=take(d, d),
                W_ff1=take(d, d_ff), b_ff1=take(d_ff), W_ff2=take(d_ff, d), b_ff2=take(d),
                ln1_gain=take(d), ln1_bias=take(d), ln2_gain=take(d), ln2_bias=take(d),
            )
            for _ in range(e["n_layers"])
        ]
        encoder = T.EncoderStack(layers=layers, n_heads=e["n_heads"], W_in=W_in, b_in=b_in)
    head = None
    if s["head"] is not None:
        h = s["head"]
        head = T.PredictionHead(
            W_a=take(h["d_model"], h["width"]), b_a=take(h["width"]),
            W_b=take(h["width"], 1), b_b=take(1),
        )
    bypass = None
    if s["bypass"] is not None:
        b = s["bypass"]
        bypass = BypassProjection(W=take(b["in"], b["out"]), b=take(b["out"]))
    return stack, encoder, head, bypass


class Stage(NamedTuple):
    """One step of the forward pass (module docstring)."""

    name: str
    flat: np.ndarray  # the view of the model's ``flat`` that the stage owns
    forward: Callable  # x -> (output, cache)
    backward: Callable  # (d_output, cache) -> (d_x, grads of a component, a list of them or a dict)


def _arrays(part) -> list:
    """The arrays of a component, or of a dict of gradients, in ``flat`` order."""
    return list(part.values()) if isinstance(part, dict) else [arr for _, arr in part.named_arrays()]


def _stages(m: ModelParams) -> list:
    """The stages of ``m``. Their closures hold components, never ``m``, so a
    model and its cached stages form no reference cycle."""
    enc, head, bypass, offset = m.encoder, m.head, m.bypass, 0
    models = math.prod(m.flat.shape[:-1])  # K of a (K, n) stack of flats, else 1

    def own(*arrays):  # the next span of ``flat``
        nonlocal offset
        start, offset = offset, offset + sum(arr.size for arr in arrays) // models
        return m.flat[..., start:offset]

    stages = [
        Stage(f"lstm.{i}", own(*_arrays(p)),
              lambda x, p=p: L.lstm_sequence_forward(x, [p]),
              lambda d, cache, p=p: L.lstm_backward(cache, d, [p])[::-1])  # (d_x, [grads])
        for i, p in enumerate(m.lstm_stack)
    ]
    if enc is not None:
        stages.append(Stage(
            "encoder.input", own(enc.W_in, enc.b_in),
            lambda x: T.encoder_input_forward(x, enc),
            lambda d, cache: T.encoder_input_backward(d, cache, enc),
        ))
        for i, layer in enumerate(enc.layers):
            arrays = _arrays(layer)  # W_q, W_k, W_v and W_o head the layer's arrays
            stages += [
                Stage(f"encoder.layers.{i}.attention", own(*arrays[:4]),
                      lambda x, layer=layer: T.attention_block_forward(x, layer, enc.n_heads),
                      lambda d, cache, layer=layer: T.attention_block_backward(d, cache, layer)),
                Stage(f"encoder.layers.{i}.feed_forward", own(*arrays[4:]),
                      lambda x, layer=layer: T.feed_forward_block_forward(x, layer),
                      lambda d, cache, layer=layer: T.feed_forward_block_backward(d, cache, layer)),
            ]
        return stages + [Stage(
            "pool+head", own(*_arrays(head)),
            lambda x: T.predict(x, head), lambda d, cache: T.predict_backward(d, cache, head),
        )]

    def bypass_forward(x):  # x is the top LSTM hidden sequence (B, L, H)
        preds, cache = T.head_forward(x[:, -1, :] @ bypass.W + bypass.b, head)
        return preds, (cache, x[:, -1, :], x.shape)

    def bypass_backward(d, cache):
        head_cache, last, shape = cache
        d_projected, g = T.head_backward(d, head_cache, head)
        d_hidden = np.zeros(shape)
        d_hidden[:, -1, :] = d_projected @ bypass.W.T
        return d_hidden, [g, BypassProjection(W=last.T @ d_projected, b=d_projected.sum(axis=0))]

    return stages + [Stage("bypass+head", own(*_arrays(head), bypass.W, bypass.b),
                           bypass_forward, bypass_backward)]


def build_model(
    n_features: int,
    lstm_hidden: int = 128,
    lstm_layers: int = 2,
    transformer_layers: int = 6,
    attention_heads: int = 8,
    d_model: int = 256,
    d_ff: int | None = None,
    head_width: int = 64,
    lstm_enabled: bool = True,
    transformer_enabled: bool = True,
    rng: SeededRng | None = None,
) -> ModelParams:
    """Construct and initialize all components for the chosen variant."""
    if not lstm_enabled and not transformer_enabled:
        raise ValueError("at least one of the LSTM and encoder must be enabled")
    if lstm_enabled and lstm_layers < 1:
        raise ValueError(f"an enabled LSTM needs at least one layer, got {lstm_layers}")
    rng = rng or SeededRng(0)
    stack = []
    if lstm_enabled:
        in_size = n_features
        for i in range(lstm_layers):
            stack.append(L.init_layer(in_size, lstm_hidden, rng.split(i)))
            in_size = lstm_hidden

    encoder = None
    head_input = d_model
    bypass = None
    if transformer_enabled:
        encoder_input = lstm_hidden if lstm_enabled else n_features
        encoder = T.init_encoder_stack(
            encoder_input,
            d_model=d_model,
            n_layers=transformer_layers,
            n_heads=attention_heads,
            d_ff=d_ff,
            rng=rng.split(100),
        )
    else:
        bound = 1.0 / np.sqrt(lstm_hidden)
        bypass = BypassProjection(
            W=rng.split(101).uniform(-bound, bound, (lstm_hidden, d_model)),
            b=np.zeros(d_model),
        )
    head = T.init_prediction_head(head_input, head_width, rng.split(102))
    return ModelParams(lstm_stack=stack, encoder=encoder, head=head, bypass=bypass)


def forward_batch(windows: np.ndarray, model: ModelParams, keep_cache: bool = True,
                  start: int = 0, stop: int | None = None):
    """Predict a batch of windows (B, L, F). Returns (preds (B,), caches).

    Runs ``model.stages`` in order, keeping one cache per stage. With
    ``start`` k, ``windows`` is stage k's input and only stages k onward run;
    with ``stop`` j, only stages before j run and the output is stage j - 1's
    (the slice ``stages[start:stop]``).
    With ``keep_cache=False`` the caches are None and each stage's cache is
    dropped as soon as the stage returns, so a prediction holds about one
    layer's activations instead of every backward cache; the predictions
    are the same bits. Every pass but a training step predicts this way.
    """
    x = np.asarray(windows, dtype=np.float64)
    if x.ndim != 3:
        raise ValueError(f"expected (batch, lookback, features), got {x.shape}")
    caches = []
    for stage in model.stages[start:stop]:
        x, cache = stage.forward(x)
        if keep_cache:
            caches.append(cache)
        del cache  # a forward-only pass must not hold it while the next stage runs
    return x, caches if keep_cache else None


def forward_full(window: np.ndarray, model: ModelParams):
    """Single-window convenience wrapper; returns (scalar, caches)."""
    window = np.asarray(window, dtype=np.float64)
    if window.ndim != 2:
        raise ValueError(f"expected (lookback, features), got {window.shape}")
    preds, caches = forward_batch(window[None], model)
    return float(preds[0]), caches


def backward_batch(d_preds: np.ndarray, caches: list, model: ModelParams) -> ModelParams:
    """Exact gradients of the batch predictions, packed like ``model.flat``.

    Runs the stages in reverse, then concatenates their gradients in run
    order, which is ``flat`` order, into one new vector. Consumes ``caches``:
    each stage's cache is popped off the list before its backward runs, so
    the list is empty on return and a cache is freed once its stage is done
    (unless the caller holds it elsewhere). The caches themselves are never
    written.
    """
    d = np.atleast_1d(np.asarray(d_preds, dtype=np.float64))
    parts = []
    for stage in reversed(model.stages):
        d, grads = stage.backward(d, caches.pop())
        parts[:0] = grads if isinstance(grads, list) else [grads]
    # Allocated last: allocated before the stages ran, it left the heap so
    # that glibc returned and re-faulted every step's buffers in some runs.
    flat = np.concatenate([arr.reshape(-1) for part in parts for arr in _arrays(part)])
    return ModelParams.over(model.structure(), flat)
