"""Stacked peephole LSTM: forward pass and backpropagation through time.

Gate pre-activations here include a term from the previous cell state, with
full hidden-by-hidden peephole weight matrices (not the diagonal peepholes of
some LSTM variants), and the output gate also reads the *previous* cell
state:

    i_t = sigmoid(W_xi x_t + W_hi h_{t-1} + W_ci c_{t-1} + b_i)
    f_t = sigmoid(W_xf x_t + W_hf h_{t-1} + W_cf c_{t-1} + b_f)
    o_t = sigmoid(W_xo x_t + W_ho h_{t-1} + W_co c_{t-1} + b_o)
    g_t = tanh   (W_xc x_t + W_hc h_{t-1}              + b_c)
    c_t = f_t * c_{t-1} + i_t * g_t
    h_t = o_t * tanh(c_t)

The parameters stay per gate (``LstmLayerParams``, views into the model's
``flat`` vector). Every call concatenates them into fused matrices in gate
order i, f, o, g, so the three sigmoid gates sit side by side: ``W_x``
(4H, F), ``W_h`` (4H, H), ``b`` (4H), and ``W_c`` (3H, H), since the
candidate g has no peephole. The fused copies are never kept across calls,
because callers nudge the per-gate arrays in place between calls.

A layer projects its whole input for all four gates in one GEMM over the
B*L rows; each step then adds one ``h @ W_h.T`` and, on the sigmoid block,
one ``c @ W_c.T``, then the bias. Inputs are batch-only: windows are
(B, L, F) and upstream gradients (B, L, H). Internally time leads, and each
layer's cache is a dict of stacked arrays, each value stored once:

    "inputs"  (L, B, F)    the layer input (a view of the layer below's "h")
    "h", "c"  (L+1, B, H)  [:-1] are h_{t-1}, c_{t-1}; [1:] are h_t, c_t
    "gates"   (L, B, 3H)   i, f, o side by side  } views of one (L, B, 4H)
    "g"       (L, B, H)    the candidate          } buffer, [i, f, o | g]
    "tanh_c"  (L, B, H)

The (L, B, 4H) buffer first holds the input projection; each step overwrites
its slice with that step's activations, so the projection is not kept.

The backward pass writes each step's four gate pre-activation gradients into
one (L, B, 4H) buffer, carrying h and c gradients back with one GEMM each,
and forms the weight and input gradients from that buffer after the loop.
"""

from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .ops import ShapeMismatchError, sigmoid
from .rng import SeededRng


@dataclass
class LstmLayerParams:
    """Weights for one layer; W_x* are (H, F), W_h*/W_c* are (H, H)."""

    W_xi: np.ndarray
    W_hi: np.ndarray
    W_ci: np.ndarray
    b_i: np.ndarray
    W_xf: np.ndarray
    W_hf: np.ndarray
    W_cf: np.ndarray
    b_f: np.ndarray
    W_xc: np.ndarray
    W_hc: np.ndarray
    b_c: np.ndarray
    W_xo: np.ndarray
    W_ho: np.ndarray
    W_co: np.ndarray
    b_o: np.ndarray

    @property
    def hidden_size(self) -> int:
        return self.W_xi.shape[0]

    @property
    def input_size(self) -> int:
        return self.W_xi.shape[1]

    def named_arrays(self):
        for f in fields(self):
            yield f.name, getattr(self, f.name)


def init_layer(input_size: int, hidden_size: int, rng: SeededRng) -> LstmLayerParams:
    """Uniform [-1/sqrt(H), 1/sqrt(H)] weights, zero biases."""
    bound = 1.0 / np.sqrt(hidden_size)
    h, f = hidden_size, input_size

    def w(rows, cols):
        return rng.uniform(-bound, bound, (rows, cols))

    return LstmLayerParams(
        W_xi=w(h, f), W_hi=w(h, h), W_ci=w(h, h), b_i=np.zeros(h),
        W_xf=w(h, f), W_hf=w(h, h), W_cf=w(h, h), b_f=np.zeros(h),
        W_xc=w(h, f), W_hc=w(h, h), b_c=np.zeros(h),
        W_xo=w(h, f), W_ho=w(h, h), W_co=w(h, h), b_o=np.zeros(h),
    )


class FusedWeights(NamedTuple):
    """One layer's gate weights stacked in gate order i, f, o, g."""

    W_x: np.ndarray  # (4H, F)
    W_h: np.ndarray  # (4H, H)
    W_c: np.ndarray  # (3H, H); the candidate g has no peephole
    b: np.ndarray  # (4H,)


def fuse(p: LstmLayerParams) -> FusedWeights:
    """Fresh fused copies of ``p``'s per-gate arrays."""
    return FusedWeights(
        W_x=np.concatenate([p.W_xi, p.W_xf, p.W_xo, p.W_xc]),
        W_h=np.concatenate([p.W_hi, p.W_hf, p.W_ho, p.W_hc]),
        W_c=np.concatenate([p.W_ci, p.W_cf, p.W_co]),
        b=np.concatenate([p.b_i, p.b_f, p.b_o, p.b_c]),
    )


@dataclass
class LstmState:
    """Hidden and cell vectors carried between steps; shape (B, H)."""

    h: np.ndarray
    c: np.ndarray


def zero_state(batch: int, hidden_size: int) -> LstmState:
    return LstmState(h=np.zeros((batch, hidden_size)), c=np.zeros((batch, hidden_size)))


def lstm_cell_forward(act_t, state_prev: LstmState, w: FusedWeights):
    """One step, computed in place in ``act_t`` (B, 4H).

    ``act_t`` holds the step's input projection on entry and the step's gate
    activations, [i, f, o | g], on return. Returns (LstmState, tanh(c)).
    """
    hidden = state_prev.h.shape[1]
    s = 3 * hidden
    sig, g = act_t[:, :s], act_t[:, s:]
    act_t += state_prev.h @ w.W_h.T
    sig += state_prev.c @ w.W_c.T
    act_t += w.b
    sig[...] = sigmoid(sig)
    np.tanh(g, out=g)
    c = sig[:, hidden : 2 * hidden] * state_prev.c + sig[:, :hidden] * g
    tanh_c = np.tanh(c)
    h = sig[:, 2 * hidden :] * tanh_c
    return LstmState(h=h, c=c), tanh_c


def _check_shapes(window, stack, init_states):
    if window.ndim != 3:
        raise ShapeMismatchError(f"expected (batch, length, features), got {window.shape}")
    if window.shape[2] != stack[0].input_size:
        raise ShapeMismatchError(
            f"input size {window.shape[2]} does not match layer input {stack[0].input_size}"
        )
    for below, above in zip(stack, stack[1:]):
        if above.input_size != below.hidden_size:
            raise ShapeMismatchError(
                f"layer input {above.input_size} does not match "
                f"hidden size {below.hidden_size} of the layer below"
            )
    if init_states is None:
        return
    if len(init_states) != len(stack):
        raise ValueError(f"{len(init_states)} initial states do not match {len(stack)} layers")
    for state, p in zip(init_states, stack):
        want = (window.shape[0], p.hidden_size)
        if np.shape(state.h) != want or np.shape(state.c) != want:
            raise ShapeMismatchError(
                f"state shapes {np.shape(state.h)}/{np.shape(state.c)} do not match {want}"
            )


def lstm_sequence_forward(window, stack, init_states=None, keep_cache=True):
    """Run a stack of layers over a batch of windows (B, L, F).

    Layer l > 0 consumes the full hidden sequence of layer l-1. Returns
    (top hidden sequence (B, L, H), final states per layer, caches per layer).
    With ``keep_cache=False`` the caches are None and each layer's buffers
    are dropped once the layer above has read its hidden sequence.
    """
    window = np.asarray(window, dtype=np.float64)
    if not stack:
        raise ValueError("empty layer stack")
    _check_shapes(window, stack, init_states)
    batch, length = window.shape[0], window.shape[1]

    seq = np.ascontiguousarray(window.transpose(1, 0, 2))
    caches = []
    finals = []
    for idx, p in enumerate(stack):
        hidden = p.hidden_size
        w = fuse(p)
        # the input projection for all steps; each step turns its slice into
        # that step's activations
        act = (seq.reshape(length * batch, -1) @ w.W_x.T).reshape(length, batch, 4 * hidden)
        hs = np.empty((length + 1, batch, hidden))
        cs = np.empty((length + 1, batch, hidden))
        tanh_c = np.empty((length, batch, hidden))
        state = init_states[idx] if init_states is not None else zero_state(batch, hidden)
        hs[0], cs[0] = state.h, state.c
        for t in range(length):
            state, tanh_c[t] = lstm_cell_forward(act[t], state, w)
            hs[t + 1], cs[t + 1] = state.h, state.c
        if keep_cache:
            caches.append({
                "inputs": seq, "h": hs, "c": cs,
                "gates": act[:, :, : 3 * hidden], "g": act[:, :, 3 * hidden :], "tanh_c": tanh_c,
            })
        finals.append(state)
        seq = hs[1:]
    return seq.transpose(1, 0, 2), finals, caches if keep_cache else None


def lstm_layer_backward(cache, d_hidden, p: LstmLayerParams):
    """Reverse one layer. ``d_hidden`` is (L, B, H); returns (grads, dX (L, B, F))."""
    gates, g, tanh_c, cs = cache["gates"], cache["g"], cache["tanh_c"], cache["c"]
    length, batch, hidden = g.shape
    if d_hidden.shape != g.shape:
        raise ShapeMismatchError(
            f"upstream gradient shape {d_hidden.shape} does not match "
            f"cache length {length} / hidden size {hidden}"
        )
    w = fuse(p)
    s = 3 * hidden
    d_pre = np.empty((length, batch, 4 * hidden))
    dh_next = np.zeros((batch, hidden))
    dc_next = np.zeros((batch, hidden))

    for t in reversed(range(length)):
        sig = gates[t]
        i, f, o = sig[:, :hidden], sig[:, hidden : 2 * hidden], sig[:, 2 * hidden :]
        dh = d_hidden[t] + dh_next
        dc = dc_next + dh * o * (1.0 - tanh_c[t] ** 2)
        d_sig = d_pre[t, :, :s]
        d_sig[:, :hidden] = dc * g[t]
        d_sig[:, hidden : 2 * hidden] = dc * cs[t]
        d_sig[:, 2 * hidden :] = dh * tanh_c[t]
        d_sig *= sig
        d_sig *= 1.0 - sig
        d_pre[t, :, s:] = dc * i * (1.0 - g[t] ** 2)
        dh_next = d_pre[t] @ w.W_h
        dc_next = dc * f + d_sig @ w.W_c

    rows = d_pre.reshape(length * batch, 4 * hidden)
    x = cache["inputs"]
    dW_x = rows.T @ x.reshape(length * batch, -1)
    dW_h = rows.T @ cache["h"][:-1].reshape(length * batch, hidden)
    dW_c = rows[:, :s].T @ cs[:-1].reshape(length * batch, hidden)
    db = rows.sum(axis=0)
    dX = (rows @ w.W_x).reshape(x.shape)

    gi, gf, go, gg = (slice(k * hidden, (k + 1) * hidden) for k in range(4))
    grads = LstmLayerParams(
        W_xi=dW_x[gi], W_hi=dW_h[gi], W_ci=dW_c[gi], b_i=db[gi],
        W_xf=dW_x[gf], W_hf=dW_h[gf], W_cf=dW_c[gf], b_f=db[gf],
        W_xc=dW_x[gg], W_hc=dW_h[gg], b_c=db[gg],
        W_xo=dW_x[go], W_ho=dW_h[go], W_co=dW_c[go], b_o=db[go],
    )
    return grads, dX


def lstm_backward(caches, d_hidden_top, stack):
    """Reverse the whole stack.

    ``d_hidden_top`` is the loss gradient w.r.t. the top layer's hidden
    sequence, (B, L, H). Returns (per-layer grads, grad w.r.t. the input
    window (B, L, F)).
    """
    if len(caches) != len(stack):
        raise ValueError(
            f"{len(caches)} caches do not match {len(stack)} layers"
        )
    d = np.asarray(d_hidden_top, dtype=np.float64)
    if d.ndim != 3:
        raise ShapeMismatchError(f"expected (batch, length, hidden), got {d.shape}")
    d = d.transpose(1, 0, 2)
    grads = [None] * len(stack)
    for idx in reversed(range(len(stack))):
        grads[idx], d = lstm_layer_backward(caches[idx], d, stack[idx])
    return grads, d.transpose(1, 0, 2)
