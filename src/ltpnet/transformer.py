"""Transformer encoder over LSTM features, plus the scalar prediction head.

Layout: input projection to d_model, additive sinusoidal positional encoding,
then a stack of post-norm encoder layers (multi-head self-attention and a
position-wise feed-forward block, each wrapped in residual + layer norm).
Predictions mean-pool the encoded sequence through a two-layer ReLU head.

Attention inside each layer is scaled dot-product: softmax(Q K^T / sqrt(d_head)) V.
The query, key and value projections are stacked in one (3, d_model, d_model)
``W_qkv``; in each, head h owns columns [h*d_head, (h+1)*d_head). Its
``named_arrays`` yields the three slices as ``W_q``, ``W_k`` and ``W_v``.

Row layout. Public functions take and return batches, (B, S, D) arrays.
Inside, an activation is a (B*S, D) row matrix, one row per window position,
taken from the batch as a free reshape. Every activation-by-weight product
(the stacked ``rows @ W_qkv``, the output projection, both feed-forward GEMMs,
the input projection and their ``@ W.T`` partners in backward) therefore runs
as 2-D GEMMs rather than B small ones. Only attention views the rows per head, as
(B, H, S, d_head); ``_merge_heads`` turns the context back into rows.

The forwards of the input stage and both sub-blocks also take the weights of
K models at once, each array led by K and each vector as (K, 1, D)
(model.py), and a shared (B, S, D) input or one per model, (K, B, S, D). The
rows are then (K, B*S, D), each activation leads with K, (K, B, H, S,
d_head) per head, and the output is (K, B, S, D); attention projects
``rows[..., None, :, :]`` so that Q, K and V stay apart from K. Indexing
from the end (``...``, ``swapaxes(-1, -2)``) makes this the same code as for
one model, and each slice of a stacked product has the bits of its 2-D
product.

Inputs are batch-only: a single (S, D) window raises ``ShapeMismatchError``
in the encoder layer and stack, forward and backward, in ``predict`` and in
``multi_head_attention_backward``. ``multi_head_attention`` alone also takes
one (S, D) window and returns one (acceptance criterion 10 calls it so);
its cache is then that of a batch of one. A leading K is for the forwards
before the head only: ``predict`` and every backward refuse a (K, B, S, D)
array.

Caches keep only what backward reads, as rows unless noted:

    attention     "x" the input, "Q"/"K"/"V" (B, H, S, d_head) views of the
                  projections, "weights" (B, H, S, S); no context: backward
                  rebuilds it as ``_merge_heads(weights @ V)``, the forward's
                  own product of the same operands, so the bits agree
    feed-forward  "x" the input and "act" = max(x W1 + b1, 0); the ReLU mask
                  is ``act > 0``, which equals ``x W1 + b1 > 0``
    layer norm    "xhat" the normalized input, "inv" = 1/sqrt(var + eps)
    input stage   "input" the (B, S, input_size) sequence; a stack adds "layers"
    head          "x" the pooled input and "act", as in the feed-forward (the
                  head is the same two-layer ReLU block), and "seq_len"

Each encoder layer is two sub-blocks: attention plus its residual
(``attention_block_forward``, owning ``W_qkv`` and ``W_o``), then LN1, the
feed-forward block, its residual and LN2 (``feed_forward_block_forward``,
owning every later array). The model runs the input projection
(``encoder_input_forward``) and each sub-block as stages of their own
(model.py), and a prediction that never goes backward drops each stage's
cache as soon as the stage returns. ``encoder_layer_forward`` and
``encoder_stack_forward`` (and their backwards) compose the same functions
over a layer and over a whole stack.

Bias adds, ReLUs, residual adds and the layer norm's scale and shift run in
place, but only on arrays the function computed itself. Nothing writes into
an input (the encoder's input is the LSTM's top h, which the LSTM caches for
its own backward) or into a cached array.

Backward passes are hand-derived and exact. The positional table is no
parameter: ``positional_encoding`` builds it from the sequence length and
width (cached, read-only), and nothing propagates into it.
"""

import functools
from dataclasses import dataclass, fields

import numpy as np

from .ops import ShapeMismatchError, mean, softmax
from .rng import SeededRng

LAYER_NORM_EPS = 1e-5


@dataclass
class EncoderLayerParams:
    W_qkv: np.ndarray  # (3, d_model, d_model): W_q, W_k, W_v, head-blocked columns
    W_o: np.ndarray  # (d_model, d_model)
    W_ff1: np.ndarray  # (d_model, d_ff)
    b_ff1: np.ndarray
    W_ff2: np.ndarray  # (d_ff, d_model)
    b_ff2: np.ndarray
    ln1_gain: np.ndarray
    ln1_bias: np.ndarray
    ln2_gain: np.ndarray
    ln2_bias: np.ndarray

    def named_arrays(self):
        yield from zip(("W_q", "W_k", "W_v"), np.moveaxis(self.W_qkv, -3, 0))
        for f in fields(self)[1:]:
            yield f.name, getattr(self, f.name)


@dataclass
class EncoderStack:
    layers: list
    n_heads: int
    W_in: np.ndarray  # (input_size, d_model)
    b_in: np.ndarray

    def __post_init__(self):
        if self.d_model % 2:  # the sinusoidal encoding pairs its columns
            raise ValueError(f"d_model must be even, got {self.d_model}")
        if self.n_heads < 1 or self.d_model % self.n_heads:
            raise ValueError(f"n_heads {self.n_heads} must be >= 1 and divide d_model {self.d_model}")

    @property
    def d_model(self) -> int:
        return self.W_in.shape[-1]

    @property
    def input_size(self) -> int:
        return self.W_in.shape[-2]

    def named_arrays(self):
        yield "W_in", self.W_in
        yield "b_in", self.b_in
        for i, layer in enumerate(self.layers):
            for name, arr in layer.named_arrays():
                yield f"layers.{i}.{name}", arr


@dataclass
class PredictionHead:
    W_a: np.ndarray  # (d_model, width)
    b_a: np.ndarray
    W_b: np.ndarray  # (width, 1)
    b_b: np.ndarray  # (1,)

    def named_arrays(self):
        yield "W_a", self.W_a
        yield "b_a", self.b_a
        yield "W_b", self.W_b
        yield "b_b", self.b_b


@functools.cache
def positional_encoding(seq_len: int, d_model: int) -> np.ndarray:
    """Sinusoidal (seq_len, d_model) table: sin at even columns, cos at odd.

    Row p depends only on p and d_model, so a table is the head of any longer
    one. Cached per shape; the array is read-only because callers share it.
    """
    if seq_len <= 0 or d_model <= 0:
        raise ValueError("seq_len and d_model must be positive")
    if d_model % 2:
        raise ValueError(f"d_model must be even, got {d_model}")
    pos = np.arange(seq_len, dtype=np.float64)[:, None]
    i = np.arange(d_model // 2, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, 2.0 * i / d_model)
    table = np.empty((seq_len, d_model))
    table[:, 0::2] = np.sin(angle)
    table[:, 1::2] = np.cos(angle)
    table.flags.writeable = False
    return table


def _uniform_fan_in(rows, cols, rng):
    bound = 1.0 / np.sqrt(rows)
    return rng.uniform(-bound, bound, (rows, cols))


def init_encoder_layer(d_model: int, d_ff: int, rng: SeededRng) -> EncoderLayerParams:
    return EncoderLayerParams(
        W_qkv=np.stack([_uniform_fan_in(d_model, d_model, rng) for _ in range(3)]),
        W_o=_uniform_fan_in(d_model, d_model, rng),
        W_ff1=_uniform_fan_in(d_model, d_ff, rng),
        b_ff1=np.zeros(d_ff),
        W_ff2=_uniform_fan_in(d_ff, d_model, rng),
        b_ff2=np.zeros(d_model),
        ln1_gain=np.ones(d_model),
        ln1_bias=np.zeros(d_model),
        ln2_gain=np.ones(d_model),
        ln2_bias=np.zeros(d_model),
    )


def init_encoder_stack(
    input_size: int,
    d_model: int = 256,
    n_layers: int = 6,
    n_heads: int = 8,
    d_ff: int | None = None,
    rng: SeededRng | None = None,
) -> EncoderStack:
    rng = rng or SeededRng(0)
    d_ff = 4 * d_model if d_ff is None else d_ff
    return EncoderStack(
        layers=[init_encoder_layer(d_model, d_ff, rng) for _ in range(n_layers)],
        n_heads=n_heads,
        W_in=_uniform_fan_in(input_size, d_model, rng),
        b_in=np.zeros(d_model),
    )


def init_prediction_head(d_model: int, width: int = 64, rng: SeededRng | None = None) -> PredictionHead:
    rng = rng or SeededRng(0)
    return PredictionHead(
        W_a=_uniform_fan_in(d_model, width, rng),
        b_a=np.zeros(width),
        W_b=_uniform_fan_in(width, 1, rng),
        b_b=np.zeros(1),
    )


# ---------------------------------------------------------------------------
# attention
# ---------------------------------------------------------------------------

def _batch(a, what):
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 3:
        raise ShapeMismatchError(f"{what} must be a batch (B, S, D), got shape {a.shape}")
    return a


def _batches(a, what):
    """``_batch``, or one batch per model of a stack of K, (K, B, S, D)."""
    return _batch(a, what) if np.ndim(a) != 4 else np.asarray(a, dtype=np.float64)


def scaled_attention(Q, K, V):
    """softmax(Q K^T / sqrt(d_head)) V, row-wise. Returns (output, weights)."""
    Q, K, V = (np.asarray(a, dtype=np.float64) for a in (Q, K, V))
    if Q.shape[-1] != K.shape[-1]:
        raise ShapeMismatchError(f"Q/K head sizes differ: {Q.shape} vs {K.shape}")
    if K.shape[-2] != V.shape[-2]:
        raise ShapeMismatchError(f"K/V sequence lengths differ: {K.shape} vs {V.shape}")
    scale = 1.0 / np.sqrt(Q.shape[-1])
    scores = Q @ np.swapaxes(K, -1, -2)
    scores *= scale
    weights = softmax(scores, axis=-1)
    return weights @ V, weights


def _split_heads(rows, batch, n_heads):
    # (..., B*S, D) rows -> (..., B, H, S, d_head) view
    *lead, n, d = rows.shape
    return rows.reshape(*lead, batch, n // batch, n_heads, d // n_heads).swapaxes(-3, -2)


def _merge_heads(x):
    # (..., B, H, S, d_head) -> (..., B*S, D) rows
    *lead, b, h, s, dh = x.shape
    return x.swapaxes(-3, -2).reshape(*lead, b * s, h * dh)


def multi_head_attention(x, p: EncoderLayerParams, n_heads: int):
    """Project, attend per head, concatenate, re-project.

    ``x`` is a batch (B, S, d_model), one per model (K, B, S, d_model) when
    the weights are a stack of K (model.py), or, for this function alone, one
    window (S, d_model). The output has the shape of ``x``, led by K when the
    weights are stacked. Returns (output, cache); the cache holds the
    per-head attention weights, (B, H, S, S), under "weights".
    """
    x = np.asarray(x, dtype=np.float64)
    d_model = p.W_o.shape[-1]
    if not 2 <= x.ndim <= 4 or x.shape[-1] != d_model:
        raise ShapeMismatchError(
            f"input of shape {x.shape} is not (S, {d_model}) or ([K,] B, S, {d_model})"
        )
    batch = 1 if x.ndim == 2 else x.shape[-3]
    rows = x.reshape(*x.shape[:-3], -1, d_model)
    qkv = rows[..., None, :, :] @ p.W_qkv
    Q, K, V = (_split_heads(a, batch, n_heads) for a in np.moveaxis(qkv, -3, 0))
    ctx, weights = scaled_attention(Q, K, V)
    out = _merge_heads(ctx) @ p.W_o
    cache = {"x": rows, "Q": Q, "K": K, "V": V, "weights": weights}
    return out.reshape(*out.shape[:-2], *x.shape[-3:]), cache


def multi_head_attention_backward(d_out, cache, p: EncoderLayerParams):
    """Returns (grad w.r.t. x (B, S, D), dict of grads for W_qkv and W_o)."""
    Q, K, V, weights = cache["Q"], cache["K"], cache["V"], cache["weights"]
    d_out = _batch(d_out, "attention output gradient")
    batch, n_heads = Q.shape[0], Q.shape[1]
    d_rows = d_out.reshape(-1, d_out.shape[-1])

    # the context is rebuilt, not cached: the same product of the same operands
    dW_o = _merge_heads(weights @ V).T @ d_rows
    d_ctx = _split_heads(d_rows @ p.W_o.T, batch, n_heads)

    # dQ, dK and dV go straight into the rows of one stacked buffer
    d_qkv = np.empty((3, *d_rows.shape))
    dQ, dK, dV = (_split_heads(a, batch, n_heads) for a in d_qkv)
    dS = d_ctx @ np.swapaxes(V, -1, -2)
    dV[...] = np.swapaxes(weights, -1, -2) @ d_ctx
    # softmax rows: dS = W * (dW - sum(dW * W))
    dS -= np.sum(dS * weights, axis=-1, keepdims=True)
    dS *= weights
    scale = 1.0 / np.sqrt(Q.shape[-1])
    np.multiply(dS @ K, scale, out=dQ)
    np.multiply(np.swapaxes(dS, -1, -2) @ Q, scale, out=dK)
    del dS, d_ctx
    dW_qkv = cache["x"].T @ d_qkv
    dx = d_qkv[0] @ p.W_qkv[0].T
    for d_proj, W in zip(d_qkv[1:], p.W_qkv[1:]):
        dx += d_proj @ W.T
    return dx.reshape(d_out.shape), {"W_qkv": dW_qkv, "W_o": dW_o}


# ---------------------------------------------------------------------------
# feed-forward and layer norm with caches
# ---------------------------------------------------------------------------

def _relu_block(x, W1, b1, W2, b2):
    """ReLU(x W1 + b1) W2 + b2 on rows. Returns (out, cache)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != W1.shape[-2]:
        raise ShapeMismatchError(
            f"input feature size {x.shape[-1]} does not match W1 {W1.shape}"
        )
    act = x @ W1
    act += b1
    np.maximum(act, 0.0, out=act)
    out = act @ W2
    out += b2
    return out, {"x": x, "act": act}


def _relu_block_backward(d_out, cache, W1, W2):
    """Returns (grad w.r.t. x, (dW1, db1, dW2, db2))."""
    flat = lambda a: a.reshape(-1, a.shape[-1])
    dW2 = flat(cache["act"]).T @ flat(d_out)
    db2 = flat(d_out).sum(axis=0)
    d_pre = d_out @ W2.T
    d_pre *= cache["act"] > 0
    dW1 = flat(cache["x"]).T @ flat(d_pre)
    db1 = flat(d_pre).sum(axis=0)
    dx = d_pre @ W1.T
    return dx, (dW1, db1, dW2, db2)


def feed_forward(x, p: EncoderLayerParams):
    """ReLU(x W1 + b1) W2 + b2 on rows (N, d_model). Returns (out, cache)."""
    return _relu_block(x, p.W_ff1, p.b_ff1, p.W_ff2, p.b_ff2)


def feed_forward_backward(d_out, cache, p: EncoderLayerParams):
    dx, grads = _relu_block_backward(d_out, cache, p.W_ff1, p.W_ff2)
    return dx, dict(zip(("W_ff1", "b_ff1", "W_ff2", "b_ff2"), grads))


def _layer_norm_fwd(x, gain, bias):
    mu = mean(x, -1, keepdims=True)
    xhat = x - mu
    var = mean(xhat * xhat, -1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat *= inv
    out = xhat * gain
    out += bias
    return out, {"xhat": xhat, "inv": inv}


def _layer_norm_bwd(d_out, cache, gain):
    xhat, inv = cache["xhat"], cache["inv"]
    axes = tuple(range(d_out.ndim - 1))
    d_gain = np.add.reduce(d_out * xhat, axis=axes)
    d_bias = np.add.reduce(d_out, axis=axes)
    d_xhat = d_out * gain
    dx = d_xhat - mean(d_xhat, -1, keepdims=True)
    d_xhat *= xhat
    dx -= xhat * mean(d_xhat, -1, keepdims=True)
    dx *= inv
    return dx, d_gain, d_bias


# ---------------------------------------------------------------------------
# encoder layer / stack / head
# ---------------------------------------------------------------------------

def attention_block_forward(x, p: EncoderLayerParams, n_heads: int):
    """The attention sub-block of an encoder layer: x + attention(x).

    ``x`` is (B, S, d_model); returns (output of the same shape, cache). The
    sub-block owns ``W_qkv`` and ``W_o``, the head of the layer's arrays.
    """
    x = _batches(x, "encoder layer input")
    s1, cache = multi_head_attention(x, p, n_heads)
    s1 += x
    return s1, cache


def attention_block_backward(d_out, cache, p: EncoderLayerParams):
    """Returns (grad w.r.t. x (B, S, D), dict of grads for W_qkv and W_o)."""
    d_x, grads = multi_head_attention_backward(d_out, cache, p)
    d_x += d_out
    return d_x, grads


def feed_forward_block_forward(s1, p: EncoderLayerParams):
    """The rest of an encoder layer: y = LN1(s1), then LN2(y + feed_forward(y)).

    ``s1`` is the attention sub-block's output (B, S, d_model); returns (output
    of the same shape, cache). The sub-block owns every array after ``W_o``.
    """
    s1 = _batches(s1, "feed-forward block input")
    rows = s1.reshape(*s1.shape[:-3], -1, s1.shape[-1])
    y1, ln1_cache = _layer_norm_fwd(rows, p.ln1_gain, p.ln1_bias)
    s2, ff_cache = feed_forward(y1, p)
    s2 += y1
    y2, ln2_cache = _layer_norm_fwd(s2, p.ln2_gain, p.ln2_bias)
    cache = {"ln1": ln1_cache, "ff": ff_cache, "ln2": ln2_cache}
    return y2.reshape(*y2.shape[:-2], *s1.shape[-3:]), cache


def feed_forward_block_backward(d_out, cache, p: EncoderLayerParams):
    """Returns (grad w.r.t. s1 (B, S, D), dict of grads for the arrays after W_o,
    in field order)."""
    d_out = _batch(d_out, "encoder layer output gradient")
    d_s2, ln2_gain, ln2_bias = _layer_norm_bwd(
        d_out.reshape(-1, d_out.shape[-1]), cache["ln2"], p.ln2_gain
    )
    d_y1, grads = feed_forward_backward(d_s2, cache["ff"], p)
    d_y1 += d_s2
    d_s1, ln1_gain, ln1_bias = _layer_norm_bwd(d_y1, cache["ln1"], p.ln1_gain)
    grads.update(ln1_gain=ln1_gain, ln1_bias=ln1_bias, ln2_gain=ln2_gain, ln2_bias=ln2_bias)
    return d_s1.reshape(d_out.shape), grads


def encoder_layer_forward(x, p: EncoderLayerParams, n_heads: int):
    """Post-norm block: the attention sub-block, then the feed-forward one.

    ``x`` is (B, S, d_model); returns (output of the same shape, cache).
    """
    s1, attn_cache = attention_block_forward(x, p, n_heads)
    y2, cache = feed_forward_block_forward(s1, p)
    return y2, {"attn": attn_cache, **cache}


def encoder_layer_backward(d_out, cache, p: EncoderLayerParams):
    """Returns (grad w.r.t. x (B, S, D), EncoderLayerParams-shaped grads)."""
    d_s1, ff_grads = feed_forward_block_backward(d_out, cache, p)
    d_x, attn_grads = attention_block_backward(d_s1, cache["attn"], p)
    return d_x, EncoderLayerParams(**attn_grads, **ff_grads)


def encoder_input_forward(hidden_seq, stack: EncoderStack):
    """Project (B, S, input_size) to d_model and add the positional encoding.

    Returns (out (B, S, d_model), cache).
    """
    xb = _batches(hidden_seq, "sequence")
    if xb.shape[-1] != stack.input_size:
        raise ShapeMismatchError(
            f"sequence feature size {xb.shape[-1]} does not match "
            f"stack input size {stack.input_size}"
        )
    batch, seq_len = xb.shape[-3], xb.shape[-2]
    z = xb.reshape(*xb.shape[:-3], -1, stack.input_size) @ stack.W_in
    z += stack.b_in
    z = z.reshape(*z.shape[:-2], batch, seq_len, stack.d_model)
    z += positional_encoding(seq_len, stack.d_model)
    return z, {"input": xb}


def encoder_input_backward(d_out, cache, stack: EncoderStack):
    """Returns (grad w.r.t. the input sequence, dict of grads for W_in and b_in).

    The positional table is constant, so the additive encoding passes the
    gradient through untouched.
    """
    xb = cache["input"]
    d_rows = d_out.reshape(-1, d_out.shape[-1])
    grads = {"W_in": xb.reshape(-1, xb.shape[-1]).T @ d_rows, "b_in": d_rows.sum(axis=0)}
    return (d_rows @ stack.W_in.T).reshape(xb.shape), grads


def encoder_stack_forward(hidden_seq, stack: EncoderStack):
    """The input stage, then every layer. Returns (out (B, S, d_model), caches)."""
    z, caches = encoder_input_forward(hidden_seq, stack)
    caches["layers"] = []
    for layer in stack.layers:
        z, cache = encoder_layer_forward(z, layer, stack.n_heads)
        caches["layers"].append(cache)
    return z, caches


def encoder_stack_backward(d_out, caches, stack: EncoderStack):
    """Returns (EncoderStack-shaped grads, grad w.r.t. the input sequence)."""
    d = _batch(d_out, "encoder output gradient")
    layer_grads = [None] * len(stack.layers)
    for idx in reversed(range(len(stack.layers))):
        d, layer_grads[idx] = encoder_layer_backward(
            d, caches["layers"][idx], stack.layers[idx]
        )
    d_input, grads = encoder_input_backward(d, caches, stack)
    return EncoderStack(layers=layer_grads, n_heads=stack.n_heads, **grads), d_input


def head_forward(pooled, head: PredictionHead):
    """Two-layer ReLU head on pooled features (B, d_model) -> (B,)."""
    out, cache = _relu_block(pooled, head.W_a, head.b_a, head.W_b, head.b_b)
    return out[:, 0], cache


def head_backward(d_out, cache, head: PredictionHead):
    d = np.asarray(d_out, dtype=np.float64)[:, None]
    d_pooled, grads = _relu_block_backward(d, cache, head.W_a, head.W_b)
    return d_pooled, PredictionHead(*grads)


def predict(encoded, head: PredictionHead):
    """Mean-pool sequence positions of (B, S, d_model), run the head; (B,)."""
    z = _batch(encoded, "encoded sequence")
    if z.shape[-1] != head.W_a.shape[0]:
        raise ShapeMismatchError(
            f"encoded feature size {z.shape[-1]} does not match "
            f"head input {head.W_a.shape[0]}"
        )
    out, cache = head_forward(mean(z, 1), head)
    cache["seq_len"] = z.shape[1]
    return out, cache


def predict_backward(d_out, cache, head: PredictionHead):
    """Returns (grad w.r.t. the encoded sequence (B, S, d_model), head grads)."""
    d = np.atleast_1d(np.asarray(d_out, dtype=np.float64))
    d_pooled, g = head_backward(d, cache, head)
    seq_len = cache["seq_len"]
    d_encoded = np.repeat(d_pooled[:, None, :], seq_len, axis=1)
    d_encoded /= seq_len
    return d_encoded, g
