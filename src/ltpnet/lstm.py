"""Stacked peephole LSTM: forward pass and backpropagation through time.

Gate pre-activations here include a term from the previous cell state, with
full hidden-by-hidden peephole weight matrices (not the diagonal peepholes of
some LSTM variants), and the output gate also reads the *previous* cell
state:

    i_t = sigmoid(W_xi x_t + W_hi h_{t-1} + W_ci c_{t-1} + b_i)
    f_t = sigmoid(W_xf x_t + W_hf h_{t-1} + W_cf c_{t-1} + b_f)
    g_t = tanh   (W_xc x_t + W_hc h_{t-1}              + b_c)
    c_t = f_t * c_{t-1} + i_t * g_t
    o_t = sigmoid(W_xo x_t + W_ho h_{t-1} + W_co c_{t-1} + b_o)
    h_t = o_t * tanh(c_t)

All operations carry a leading batch axis internally; single-window inputs
(without the batch axis) are accepted and returned in kind. The backward pass
accumulates gradients through time, including the cell-state paths into the
three peephole terms of the following step.
"""

from dataclasses import dataclass, fields

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


@dataclass
class LstmState:
    """Hidden and cell vectors carried between steps; shape (B, H)."""

    h: np.ndarray
    c: np.ndarray


def zero_state(batch: int, hidden_size: int) -> LstmState:
    return LstmState(h=np.zeros((batch, hidden_size)), c=np.zeros((batch, hidden_size)))


def _check_cell_shapes(x, state, p):
    if x.shape[-1] != p.input_size:
        raise ShapeMismatchError(
            f"input size {x.shape[-1]} does not match layer input {p.input_size}"
        )
    if state.h.shape[-1] != p.hidden_size or state.c.shape[-1] != p.hidden_size:
        raise ShapeMismatchError(
            f"state sizes {state.h.shape[-1]}/{state.c.shape[-1]} do not match "
            f"hidden size {p.hidden_size}"
        )


def lstm_cell_forward(x_t, state_prev: LstmState, p: LstmLayerParams):
    """One step. Returns (LstmState, cache entry for the backward pass)."""
    x_t = np.asarray(x_t, dtype=np.float64)
    single = x_t.ndim == 1
    x = x_t[None, :] if single else x_t
    h_prev = np.atleast_2d(state_prev.h)
    c_prev = np.atleast_2d(state_prev.c)
    _check_cell_shapes(x, LstmState(h_prev, c_prev), p)

    i = sigmoid(x @ p.W_xi.T + h_prev @ p.W_hi.T + c_prev @ p.W_ci.T + p.b_i)
    f = sigmoid(x @ p.W_xf.T + h_prev @ p.W_hf.T + c_prev @ p.W_cf.T + p.b_f)
    g = np.tanh(x @ p.W_xc.T + h_prev @ p.W_hc.T + p.b_c)
    c = f * c_prev + i * g
    o = sigmoid(x @ p.W_xo.T + h_prev @ p.W_ho.T + c_prev @ p.W_co.T + p.b_o)
    tanh_c = np.tanh(c)
    h = o * tanh_c

    cache = {
        "x": x, "h_prev": h_prev, "c_prev": c_prev,
        "i": i, "f": f, "g": g, "o": o, "c": c, "tanh_c": tanh_c,
    }
    if single:
        return LstmState(h=h[0], c=c[0]), cache
    return LstmState(h=h, c=c), cache


def lstm_sequence_forward(window, stack, init_states=None):
    """Run a stack of layers over a window.

    ``window`` is (L, F) or (B, L, F); layer l > 0 consumes the full hidden
    sequence of layer l-1. Returns (top hidden sequence, final states per
    layer, caches per layer).
    """
    window = np.asarray(window, dtype=np.float64)
    single = window.ndim == 2
    seq = window[None] if single else window
    if not stack:
        raise ValueError("empty layer stack")
    for below, above in zip(stack, stack[1:]):
        if above.input_size != below.hidden_size:
            raise ShapeMismatchError(
                f"layer input {above.input_size} does not match "
                f"hidden size {below.hidden_size} of the layer below"
            )
    batch, length = seq.shape[0], seq.shape[1]

    caches = []
    finals = []
    for idx, p in enumerate(stack):
        state = (
            init_states[idx]
            if init_states is not None
            else zero_state(batch, p.hidden_size)
        )
        steps = []
        hidden = np.empty((batch, length, p.hidden_size))
        for t in range(length):
            state, entry = lstm_cell_forward(seq[:, t], state, p)
            steps.append(entry)
            hidden[:, t] = state.h
        caches.append({"steps": steps, "inputs": seq})
        finals.append(state)
        seq = hidden
    if single:
        return seq[0], finals, caches
    return seq, finals, caches


def lstm_layer_backward(cache, d_hidden, p: LstmLayerParams):
    """Reverse one layer. ``d_hidden`` is (B, L, H); returns (grads, dX)."""
    steps = cache["steps"]
    length = len(steps)
    if d_hidden.shape[1] != length or d_hidden.shape[2] != p.hidden_size:
        raise ShapeMismatchError(
            f"upstream gradient shape {d_hidden.shape} does not match "
            f"cache length {length} / hidden size {p.hidden_size}"
        )
    # gradients accumulate over the time steps
    g = LstmLayerParams(*(np.zeros_like(a) for _, a in p.named_arrays()))
    dX = np.zeros_like(cache["inputs"])
    dh_next = np.zeros_like(d_hidden[:, 0])
    dc_next = np.zeros_like(d_hidden[:, 0])

    for t in reversed(range(length)):
        e = steps[t]
        dh = d_hidden[:, t] + dh_next
        do = dh * e["tanh_c"]
        da_o = do * e["o"] * (1.0 - e["o"])
        dc = dc_next + dh * e["o"] * (1.0 - e["tanh_c"] ** 2)
        di = dc * e["g"]
        da_i = di * e["i"] * (1.0 - e["i"])
        df = dc * e["c_prev"]
        da_f = df * e["f"] * (1.0 - e["f"])
        dg = dc * e["i"]
        da_g = dg * (1.0 - e["g"] ** 2)

        g.W_xi += da_i.T @ e["x"]
        g.W_hi += da_i.T @ e["h_prev"]
        g.W_ci += da_i.T @ e["c_prev"]
        g.b_i += da_i.sum(axis=0)
        g.W_xf += da_f.T @ e["x"]
        g.W_hf += da_f.T @ e["h_prev"]
        g.W_cf += da_f.T @ e["c_prev"]
        g.b_f += da_f.sum(axis=0)
        g.W_xc += da_g.T @ e["x"]
        g.W_hc += da_g.T @ e["h_prev"]
        g.b_c += da_g.sum(axis=0)
        g.W_xo += da_o.T @ e["x"]
        g.W_ho += da_o.T @ e["h_prev"]
        g.W_co += da_o.T @ e["c_prev"]
        g.b_o += da_o.sum(axis=0)

        dX[:, t] = da_i @ p.W_xi + da_f @ p.W_xf + da_g @ p.W_xc + da_o @ p.W_xo
        dh_next = da_i @ p.W_hi + da_f @ p.W_hf + da_g @ p.W_hc + da_o @ p.W_ho
        dc_next = dc * e["f"] + da_i @ p.W_ci + da_f @ p.W_cf + da_o @ p.W_co

    return g, dX


def lstm_backward(caches, d_hidden_top, stack):
    """Reverse the whole stack.

    ``d_hidden_top`` is the loss gradient w.r.t. the top layer's hidden
    sequence, (L, H) or (B, L, H). Returns (per-layer grads, grad w.r.t. the
    input window) with shapes mirroring the forward inputs.
    """
    if len(caches) != len(stack):
        raise ValueError(
            f"{len(caches)} caches do not match {len(stack)} layers"
        )
    d = np.asarray(d_hidden_top, dtype=np.float64)
    single = d.ndim == 2
    if single:
        d = d[None]
    grads = [None] * len(stack)
    for idx in reversed(range(len(stack))):
        grads[idx], d = lstm_layer_backward(caches[idx], d, stack[idx])
    return grads, (d[0] if single else d)
