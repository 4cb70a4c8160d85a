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

Each layer stores its weights fused (``LstmLayerParams``, views into the
model's ``flat`` vector), with the gates as row blocks in the order i, f, o,
g, so the three sigmoid gates sit side by side: ``W_x`` (4H, F) stacks
W_xi, W_xf, W_xo, W_xc; ``W_h`` (4H, H) and ``b`` (4H) stack the same way;
``W_c`` (3H, H) stacks W_ci, W_cf, W_co, since the candidate g has no
peephole. Every layer starts from zero hidden and cell states.

A layer casts nothing: it computes, and allocates its state and gradient
buffers, in its input's dtype, which the model's entry decides (model.py).
A layer projects its whole input for all four gates in one GEMM over the
B*L rows; each step then adds one ``h @ W_h.T`` and, on the sigmoid block,
one ``c @ W_c.T``, then the bias. Inputs are batch-only: windows are
(B, L, F), or (K, B, L, F) for the forward of K stacked layers, and upstream
gradients (B, L, H). Internally time leads, and each layer's cache is a dict
of stacked arrays, each value stored once:

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

import numpy as np

from .ops import ShapeMismatchError, sigmoid
from .rng import SeededRng


@dataclass
class LstmLayerParams:
    """One layer's fused weights, gate blocks in the order i, f, o, g (module docstring)."""

    W_x: np.ndarray
    W_h: np.ndarray
    W_c: np.ndarray
    b: np.ndarray

    @property
    def hidden_size(self) -> int:
        return self.W_h.shape[-1]

    @property
    def input_size(self) -> int:
        return self.W_x.shape[-1]

    def named_arrays(self):
        for f in fields(self):
            yield f.name, getattr(self, f.name)


def init_layer(input_size: int, hidden_size: int, rng: SeededRng) -> LstmLayerParams:
    """Uniform [-1/sqrt(H), 1/sqrt(H)] weights, zero biases.

    Drawn per gate in the order i, f, g, o (input, recurrent, peephole), then stacked.
    """
    bound = 1.0 / np.sqrt(hidden_size)
    h, f = hidden_size, input_size

    def w(rows, cols):
        return rng.uniform(-bound, bound, (rows, cols))

    drawn = {gate: [w(h, f), w(h, h)] + ([] if gate == "g" else [w(h, h)]) for gate in "ifgo"}
    return LstmLayerParams(
        W_x=np.concatenate([drawn[gate][0] for gate in "ifog"]),
        W_h=np.concatenate([drawn[gate][1] for gate in "ifog"]),
        W_c=np.concatenate([drawn[gate][2] for gate in "ifo"]),
        b=np.zeros(4 * h),
    )


def lstm_cell_forward(act_t, h_prev, c_prev, p: LstmLayerParams):
    """One step, computed in place in ``act_t`` (B, 4H), or (K, B, 4H) for K
    stacked layers.

    ``act_t`` holds the step's input projection on entry and the step's gate
    activations, [i, f, o | g], on return. Returns (h, c, tanh(c)).
    """
    hidden = h_prev.shape[-1]
    s = 3 * hidden
    sig, g = act_t[..., :s], act_t[..., s:]
    act_t += h_prev @ p.W_h.swapaxes(-1, -2)
    sig += c_prev @ p.W_c.swapaxes(-1, -2)
    act_t += p.b
    sig[...] = sigmoid(sig)
    np.tanh(g, out=g)
    c = sig[..., hidden : 2 * hidden] * c_prev + sig[..., :hidden] * g
    tanh_c = np.tanh(c)
    return sig[..., 2 * hidden :] * tanh_c, c, tanh_c


def _check_shapes(window, stack):
    if window.ndim not in (3, 4):
        raise ShapeMismatchError(f"expected ([K,] batch, length, features), got {window.shape}")
    if window.shape[-1] != stack[0].input_size:
        raise ShapeMismatchError(
            f"input size {window.shape[-1]} does not match layer input {stack[0].input_size}"
        )
    for below, above in zip(stack, stack[1:]):
        if above.input_size != below.hidden_size:
            raise ShapeMismatchError(
                f"layer input {above.input_size} does not match "
                f"hidden size {below.hidden_size} of the layer below"
            )


def lstm_sequence_forward(window, stack):
    """Run a stack of layers over a batch of windows (B, L, F) from zero states.

    Layer l > 0 consumes the full hidden sequence of layer l-1. Returns
    (top hidden sequence (B, L, H), caches per layer). The model runs each
    layer as a stage of its own, a one-layer stack; the top hidden sequence
    is a view of that layer's cached "h", so the layer above reads it
    without a copy. Layers whose weights lead with K (a stack of K models,
    model.py) take a shared (B, L, F) window or one window batch per model,
    (K, B, L, F), and run the K models at once: the hidden sequence is then
    (K, B, L, H), and so is every cached array led by K.
    """
    if not stack:
        raise ValueError("empty layer stack")
    _check_shapes(window, stack)
    batch, length = window.shape[-3], window.shape[-2]

    seq = np.ascontiguousarray(np.swapaxes(window, -3, -2))
    caches = []
    for p in stack:
        hidden = p.hidden_size
        # the input projection for all steps; each step turns its slice into
        # that step's activations
        act = seq.reshape(*seq.shape[:-3], length * batch, -1) @ p.W_x.swapaxes(-1, -2)
        act = act.reshape(*act.shape[:-2], length, batch, 4 * hidden)
        lead = act.shape[:-3]
        hs = np.zeros((*lead, length + 1, batch, hidden), act.dtype)
        cs = np.zeros_like(hs)
        tanh_c = np.empty((*lead, length, batch, hidden), act.dtype)
        for t in range(length):
            hs[..., t + 1, :, :], cs[..., t + 1, :, :], tanh_c[..., t, :, :] = lstm_cell_forward(
                act[..., t, :, :], hs[..., t, :, :], cs[..., t, :, :], p
            )
        caches.append({
            "inputs": seq, "h": hs, "c": cs,
            "gates": act[..., : 3 * hidden], "g": act[..., 3 * hidden :], "tanh_c": tanh_c,
        })
        seq = hs[..., 1:, :, :]
    return seq.swapaxes(-3, -2), caches


def lstm_layer_backward(cache, d_hidden, p: LstmLayerParams):
    """Reverse one layer. ``d_hidden`` is (L, B, H); returns (grads, dX (L, B, F))."""
    gates, g, tanh_c, cs = cache["gates"], cache["g"], cache["tanh_c"], cache["c"]
    length, batch, hidden = g.shape
    if d_hidden.shape != g.shape:
        raise ShapeMismatchError(
            f"upstream gradient shape {d_hidden.shape} does not match "
            f"cache length {length} / hidden size {hidden}"
        )
    s = 3 * hidden
    d_pre = np.empty((length, batch, 4 * hidden), d_hidden.dtype)
    dh_next = dc_next = np.zeros_like(d_hidden[0])

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
        dh_next = d_pre[t] @ p.W_h
        dc_next = dc * f + d_sig @ p.W_c

    rows = d_pre.reshape(length * batch, 4 * hidden)
    x = cache["inputs"]
    dW_x = rows.T @ x.reshape(length * batch, -1)
    dW_h = rows.T @ cache["h"][:-1].reshape(length * batch, hidden)
    dW_c = rows[:, :s].T @ cs[:-1].reshape(length * batch, hidden)
    db = rows.sum(axis=0)
    dX = (rows @ p.W_x).reshape(x.shape)

    return LstmLayerParams(W_x=dW_x, W_h=dW_h, W_c=dW_c, b=db), dX


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
    if d_hidden_top.ndim != 3:
        raise ShapeMismatchError(f"expected (batch, length, hidden), got {d_hidden_top.shape}")
    d = d_hidden_top.transpose(1, 0, 2)
    grads = [None] * len(stack)
    for idx in reversed(range(len(stack))):
        grads[idx], d = lstm_layer_backward(caches[idx], d, stack[idx])
    return grads, d.transpose(1, 0, 2)
