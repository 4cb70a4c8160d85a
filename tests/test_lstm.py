import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltpnet import lstm as L
from ltpnet.gradcheck import REL_ERR_FLOOR, DEFAULT_EPS
from ltpnet.model import ModelParams, build_model, forward_batch
from ltpnet.ops import ShapeMismatchError
from ltpnet.rng import SeededRng


def zero_layer(input_size, hidden_size):
    model = ModelParams(lstm_stack=[L.init_layer(input_size, hidden_size, SeededRng(0))])
    model.flat[...] = 0.0
    return model.lstm_stack[0]


def block(arr, gate, hidden):
    """The rows of a fused array that belong to ``gate`` (order i, f, o, g)."""
    k = "ifog".index(gate)
    return arr[k * hidden : (k + 1) * hidden]


def step(x, h, c, p):
    """One cell step for one window, through ``lstm_cell_forward``.

    ``x`` is (F,) or (1, F) and the state (H,) or (1, H). Returns the next
    h and c, shaped like the given ones, and the step's gate values.
    """
    one = lambda a: np.reshape(np.asarray(a, dtype=float), (1, -1))
    act = one(x) @ p.W_x.T
    h_next, c_next, _ = L.lstm_cell_forward(act, one(h), one(c), p)
    hidden = p.hidden_size
    gates = {gate: block(act[0], gate, hidden) for gate in "ifog"}
    shape = np.shape(h)
    return h_next.reshape(shape), c_next.reshape(shape), gates


class TestInitLayer:
    def test_fused_arrays_are_the_per_gate_draws_concatenated(self):
        f, h = 3, 2
        p = L.init_layer(f, h, SeededRng(60))
        rng, bound = SeededRng(60), 1.0 / np.sqrt(h)
        w = lambda rows, cols: rng.uniform(-bound, bound, (rows, cols))
        W_xi, W_hi, W_ci = w(h, f), w(h, h), w(h, h)
        W_xf, W_hf, W_cf = w(h, f), w(h, h), w(h, h)
        W_xc, W_hc = w(h, f), w(h, h)
        W_xo, W_ho, W_co = w(h, f), w(h, h), w(h, h)
        np.testing.assert_array_equal(p.W_x, np.concatenate([W_xi, W_xf, W_xo, W_xc]))
        np.testing.assert_array_equal(p.W_h, np.concatenate([W_hi, W_hf, W_ho, W_hc]))
        np.testing.assert_array_equal(p.W_c, np.concatenate([W_ci, W_cf, W_co]))
        np.testing.assert_array_equal(p.b, np.zeros(4 * h))


class TestCellForward:
    def test_zero_params_zero_state(self):
        p = zero_layer(3, 2)
        h, c, cache = step(np.array([1.0, -2.0, 0.5]), [0, 0], [0, 0], p)
        np.testing.assert_allclose(cache["i"], 0.5)
        np.testing.assert_allclose(cache["f"], 0.5)
        np.testing.assert_allclose(cache["o"], 0.5)
        np.testing.assert_allclose(c, 0.0)
        np.testing.assert_allclose(h, 0.0)

    def test_zero_params_carried_cell(self):
        p = zero_layer(1, 1)
        h, c, _ = step(np.array([0.3]), [0.0], [1.0], p)
        np.testing.assert_allclose(c, [0.5])
        np.testing.assert_allclose(h, [0.5 * np.tanh(0.5)], atol=1e-12)

    def test_saturated_forget_gate_preserves_cell(self):
        p = zero_layer(1, 1)
        block(p.b, "f", 1)[:] = 50.0
        _, c, _ = step(np.array([0.0]), [0.0], [3.0], p)
        np.testing.assert_allclose(c, [3.0], atol=1e-9)

    def test_shape_mismatch(self):
        p = zero_layer(2, 3)
        with pytest.raises(ShapeMismatchError):
            L.lstm_sequence_forward(np.zeros((1, 1, 4)), [p])

    def test_gates_strictly_inside_unit_interval(self):
        rng = SeededRng(21)
        for trial in range(30):
            p = L.init_layer(2, 3, rng.split(trial))
            h, c = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
            _, _, cache = step(rng.uniform(-2, 2, 2), h, c, p)
            for gate in ("i", "f", "o"):
                assert np.all(cache[gate] > 0.0) and np.all(cache[gate] < 1.0)

    def test_hidden_state_bounded_by_one(self):
        rng = SeededRng(22)
        p = L.init_layer(2, 4, rng)
        h, c = np.zeros((1, 4)), np.zeros((1, 4))
        for t in range(50):
            h, c, _ = step(rng.uniform(-3, 3, (1, 2)), h, c, p)
            assert np.all(np.abs(h) <= 1.0)


class TestSequenceForward:
    def test_single_step_equals_cell(self):
        rng = SeededRng(30)
        p = L.init_layer(2, 3, rng)
        x = rng.uniform(-1, 1, (1, 2))
        hidden, caches = L.lstm_sequence_forward(x[None], [p])
        h, c, _ = step(x[0], np.zeros(3), np.zeros(3), p)
        np.testing.assert_allclose(hidden[0, 0], h)
        np.testing.assert_allclose(caches[0]["c"][-1, 0], c)

    def test_two_zero_layers_output_zero(self):
        stack = [zero_layer(2, 3), zero_layer(3, 3)]
        hidden, _ = L.lstm_sequence_forward(SeededRng(1).uniform(-1, 1, (1, 4, 2)), stack)
        np.testing.assert_allclose(hidden, 0.0)

    def test_order_sensitivity(self):
        rng = SeededRng(31)
        p = L.init_layer(2, 3, rng)
        a = rng.uniform(-1, 1, 2)
        b = rng.uniform(-1, 1, 2)
        h_ab, _ = L.lstm_sequence_forward(np.stack([a, b])[None], [p])
        h_ba, _ = L.lstm_sequence_forward(np.stack([b, a])[None], [p])
        assert not np.allclose(h_ab[0, -1], h_ba[0, -1])

    def test_interlayer_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            L.lstm_sequence_forward(
                np.zeros((1, 2, 2)), [zero_layer(2, 3), zero_layer(4, 2)]
            )

    def test_batch_and_single_agree(self):
        rng = SeededRng(32)
        stack = [L.init_layer(2, 3, rng.split(0)), L.init_layer(3, 2, rng.split(1))]
        windows = rng.uniform(-1, 1, (4, 5, 2))
        batched, _ = L.lstm_sequence_forward(windows, stack)
        for b in range(4):
            single, _ = L.lstm_sequence_forward(windows[b : b + 1], stack)
            np.testing.assert_allclose(batched[b], single[0], atol=1e-14)

    def test_cell_conservation_under_forced_gates(self):
        # saturate the forget gate open and the input gate shut; the cell
        # state must then persist across steps
        rng = SeededRng(33)
        p = L.init_layer(2, 3, rng)
        block(p.b, "f", 3)[:] = 60.0
        block(p.b, "i", 3)[:] = -60.0
        h, c = np.zeros((1, 3)), np.full((1, 3), 0.7)
        for _ in range(10):
            before = c.copy()
            h, c, _ = step(rng.uniform(-1, 1, (1, 2)), h, c, p)
            np.testing.assert_allclose(c, before, atol=1e-8)

    def test_determinism(self):
        rng = SeededRng(34)
        stack = [L.init_layer(3, 4, rng)]
        w = rng.uniform(-1, 1, (2, 6, 3))
        h1, _ = L.lstm_sequence_forward(w, stack)
        h2, _ = L.lstm_sequence_forward(w, stack)
        np.testing.assert_array_equal(h1, h2)


def _central_differences(arr, loss, eps=DEFAULT_EPS):
    """Numeric gradient of ``loss()`` w.r.t. ``arr``, nudging it in place."""
    g = np.zeros_like(arr)
    flat, gflat = arr.reshape(-1), g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        up = loss()
        flat[i] = orig - eps
        down = loss()
        flat[i] = orig
        gflat[i] = (up - down) / (2 * eps)
    return g


def _fd_layer_grads(window, upstream, stack, eps=DEFAULT_EPS):
    """Finite differences of sum(upstream * hidden) w.r.t. every weight."""
    def loss():
        hidden, _ = L.lstm_sequence_forward(window, stack)
        return float(np.sum(upstream * hidden))

    return [
        {name: _central_differences(arr, loss, eps) for name, arr in layer.named_arrays()}
        for layer in stack
    ]


def _max_rel(analytic, numeric):
    worst = 0.0
    for a, n in zip(analytic, numeric):
        for name, g in a.named_arrays():
            denom = np.maximum(np.abs(g) + np.abs(n[name]), REL_ERR_FLOOR)
            worst = max(worst, float(np.max(np.abs(g - n[name]) / denom)))
    return worst


class TestBackward:
    def test_zero_upstream_zero_grads(self):
        rng = SeededRng(40)
        stack = [L.init_layer(2, 3, rng)]
        w = rng.uniform(-1, 1, (2, 4, 2))
        _, caches = L.lstm_sequence_forward(w, stack)
        grads, dX = L.lstm_backward(caches, np.zeros((2, 4, 3)), stack)
        for name, g in grads[0].named_arrays():
            np.testing.assert_array_equal(g, 0.0)
        np.testing.assert_array_equal(dX, 0.0)

    def test_gradients_match_finite_differences(self):
        rng = SeededRng(41)
        stack = [L.init_layer(1, 2, rng.split(0))]
        window = rng.split(1).uniform(-1, 1, (1, 3, 1))
        upstream = rng.split(2).uniform(-1, 1, (1, 3, 2))
        _, caches = L.lstm_sequence_forward(window, stack)
        grads, _ = L.lstm_backward(caches, upstream, stack)
        numeric = _fd_layer_grads(window, upstream, stack)
        assert _max_rel(grads, numeric) < 1e-4

    def test_output_gate_bias_gradient_closed_form(self):
        # scalar net, one step, loss = h1. With zero weights and c0 = 0 the
        # cell is 0, so dh1/db_o = tanh(c1) * o * (1 - o) = 0 exactly; with a
        # nonzero candidate bias the closed form is tanh(c1)*o*(1-o)
        p = zero_layer(1, 1)
        block(p.b, "g", 1)[:] = 0.8
        x = np.array([[0.0]])
        hidden, caches = L.lstm_sequence_forward(x[None], [p])
        grads, _ = L.lstm_backward(caches, np.ones((1, 1, 1)), [p])
        c1 = 0.5 * np.tanh(0.8)  # i=0.5 gate on tanh(b_c)
        expected = np.tanh(c1) * 0.5 * 0.5
        np.testing.assert_allclose(block(grads[0].b, "o", 1), [expected], atol=1e-10)

    def test_gradient_check_sweep(self):
        # 36 seeded configurations across widths, depths, sequence lengths
        rng = SeededRng(42)
        trial = 0
        for seed_round in range(2):
            for hidden in (1, 2, 4):
                for feat in (1, 3):
                    for length in (1, 2, 5):
                        r = rng.split(trial)
                        trial += 1
                        stack = [
                            L.init_layer(feat, hidden, r.split(0)),
                            L.init_layer(hidden, hidden, r.split(1)),
                        ]
                        window = r.split(2).uniform(-1, 1, (1, length, feat))
                        upstream = r.split(3).uniform(-1, 1, (1, length, hidden))
                        _, caches = L.lstm_sequence_forward(window, stack)
                        grads, _ = L.lstm_backward(caches, upstream, stack)
                        numeric = _fd_layer_grads(window, upstream, stack)
                        err = _max_rel(grads, numeric)
                        assert err < 1e-4, (seed_round, hidden, feat, length, err)

    def test_input_gradient_matches_finite_differences(self):
        rng = SeededRng(43)
        stack = [L.init_layer(2, 3, rng.split(0))]
        window = rng.split(1).uniform(-1, 1, (1, 4, 2))
        upstream = rng.split(2).uniform(-1, 1, (1, 4, 3))
        _, caches = L.lstm_sequence_forward(window, stack)
        _, dX = L.lstm_backward(caches, upstream, stack)

        eps = DEFAULT_EPS
        flat = window.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = float(np.sum(upstream * L.lstm_sequence_forward(window, stack)[0]))
            flat[i] = orig - eps
            down = float(np.sum(upstream * L.lstm_sequence_forward(window, stack)[0]))
            flat[i] = orig
            numeric = (up - down) / (2 * eps)
            analytic = dX.reshape(-1)[i]
            assert abs(analytic - numeric) / max(abs(analytic) + abs(numeric), 1e-6) < 1e-4

    def test_cache_layer_count_mismatch(self):
        rng = SeededRng(44)
        stack = [L.init_layer(2, 2, rng)]
        _, caches = L.lstm_sequence_forward(rng.uniform(-1, 1, (1, 3, 2)), stack)
        with pytest.raises(ValueError, match="caches"):
            L.lstm_backward(caches, np.zeros((1, 3, 2)), stack + stack)


def reference_forward(window, stack):
    """The recurrence one gate at a time, as the module docstring writes it.

    Every layer starts from zero states; each gate's weights are its row
    block of the fused arrays.
    """
    sigmoid = lambda a: 1.0 / (1.0 + np.exp(-a))
    seq = window
    finals = []
    for p in stack:
        H = p.hidden_size
        W_xi, W_xf, W_xo, W_xc = (block(p.W_x, k, H) for k in "ifog")
        W_hi, W_hf, W_ho, W_hc = (block(p.W_h, k, H) for k in "ifog")
        W_ci, W_cf, W_co = (block(p.W_c, k, H) for k in "ifo")
        b_i, b_f, b_o, b_c = (block(p.b, k, H) for k in "ifog")
        h = c = np.zeros((seq.shape[0], H))
        out = []
        for t in range(seq.shape[1]):
            x = seq[:, t]
            i = sigmoid(x @ W_xi.T + h @ W_hi.T + c @ W_ci.T + b_i)
            f = sigmoid(x @ W_xf.T + h @ W_hf.T + c @ W_cf.T + b_f)
            o = sigmoid(x @ W_xo.T + h @ W_ho.T + c @ W_co.T + b_o)
            g = np.tanh(x @ W_xc.T + h @ W_hc.T + b_c)
            c = f * c + i * g
            h = o * np.tanh(c)
            out.append(h)
        finals.append((h, c))
        seq = np.stack(out, axis=1)
    return seq, finals


@st.composite
def stacks(draw):
    """A random small stack with random biases, a batch of windows and upstream."""
    batch, length = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    feat, hidden = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    rng = SeededRng(draw(st.integers(0, 2**16)))
    sizes = [feat] + [hidden] * draw(st.integers(1, 2))
    stack = [L.init_layer(f, h, rng.split(k)) for k, (f, h) in enumerate(zip(sizes, sizes[1:]))]
    for k, p in enumerate(stack):
        p.b[:] = rng.split(40 + k).uniform(-1, 1, p.b.shape)
    window = rng.split(11).uniform(-1, 1, (batch, length, feat))
    upstream = rng.split(12).uniform(-1, 1, (batch, length, hidden))
    return stack, window, upstream


class TestFusedProperties:
    @settings(max_examples=30)
    @given(case=stacks())
    def test_forward_matches_per_gate_reference(self, case):
        stack, window, _ = case
        hidden, caches = L.lstm_sequence_forward(window, stack)
        ref_hidden, ref_finals = reference_forward(window, stack)
        np.testing.assert_allclose(hidden, ref_hidden, rtol=0, atol=1e-12)
        for cache, (h, c) in zip(caches, ref_finals):
            np.testing.assert_allclose(cache["h"][-1], h, rtol=0, atol=1e-12)
            np.testing.assert_allclose(cache["c"][-1], c, rtol=0, atol=1e-12)

    @settings(max_examples=15)
    @given(case=stacks())
    def test_backward_matches_finite_differences(self, case):
        stack, window, upstream = case

        def loss():
            return float(np.sum(upstream * L.lstm_sequence_forward(window, stack)[0]))

        _, caches = L.lstm_sequence_forward(window, stack)
        grads, dX = L.lstm_backward(caches, upstream, stack)
        numeric = _fd_layer_grads(window, upstream, stack)
        assert _max_rel(grads, numeric) < 1e-4

        numeric_dX = _central_differences(window, loss)
        denom = np.maximum(np.abs(dX) + np.abs(numeric_dX), REL_ERR_FLOOR)
        assert float(np.max(np.abs(dX - numeric_dX) / denom)) < 1e-4


class TestBatchOnlyInputs:
    def test_single_window_rank_rejected(self):
        with pytest.raises(ShapeMismatchError):
            L.lstm_sequence_forward(np.zeros((4, 2)), [zero_layer(2, 3)])

    def test_single_window_upstream_rejected(self):
        stack = [zero_layer(2, 3)]
        _, caches = L.lstm_sequence_forward(np.zeros((1, 4, 2)), stack)
        with pytest.raises(ShapeMismatchError):
            L.lstm_backward(caches, np.zeros((4, 3)), stack)

    def test_a_leading_k_upstream_rejected(self):
        # a stack of K models runs forwards only
        stack = [zero_layer(2, 3)]
        _, caches = L.lstm_sequence_forward(np.zeros((1, 4, 2)), stack)
        with pytest.raises(ShapeMismatchError):
            L.lstm_backward(caches, np.zeros((2, 1, 4, 3)), stack)


class TestFusedGuards:
    def test_nudging_any_gate_array_through_flat_changes_the_forecast(self):
        # every fused array is a view of flat, read afresh on every call
        model = build_model(n_features=2, lstm_hidden=3, lstm_layers=2,
                            transformer_layers=1, attention_heads=2, d_model=4,
                            head_width=3, rng=SeededRng(50))
        windows = SeededRng(51).uniform(-1, 1, (2, 4, 2))
        offset = 0
        for name, arr in model.named_arrays():
            if name.startswith("lstm."):
                before = forward_batch(windows, model)[0]
                model.flat[offset] += 0.1
                after = forward_batch(windows, model)[0]
                model.flat[offset] -= 0.1
                assert not np.array_equal(before, after), name
            offset += arr.size

    def test_one_cell_call_and_one_sigmoid_per_step(self, monkeypatch):
        counts = {"cell": 0, "sigmoid": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(L, "lstm_cell_forward", counted("cell", L.lstm_cell_forward))
        monkeypatch.setattr(L, "sigmoid", counted("sigmoid", L.sigmoid))
        rng = SeededRng(52)
        stack = [L.init_layer(2, 3, rng.split(0)), L.init_layer(3, 3, rng.split(1))]
        L.lstm_sequence_forward(rng.uniform(-1, 1, (4, 7, 2)), stack)
        assert counts == {"cell": 2 * 7, "sigmoid": 2 * 7}
