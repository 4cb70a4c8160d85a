import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ltpnet import transformer as T
from ltpnet.gradcheck import REL_ERR_FLOOR, DEFAULT_EPS
from ltpnet.ops import ShapeMismatchError
from ltpnet.rng import SeededRng


def zeroed(params):
    """``params`` with every learnable array set to zero in place."""
    for _, arr in params.named_arrays():
        arr[...] = 0.0
    return params


class TestPositionalEncoding:
    def test_row_zero(self):
        table = T.positional_encoding(4, 8)
        np.testing.assert_array_equal(table[0, 0::2], 0.0)
        np.testing.assert_array_equal(table[0, 1::2], 1.0)

    def test_first_position_first_dim(self):
        table = T.positional_encoding(3, 8)
        np.testing.assert_allclose(table[1, 0], np.sin(1.0), atol=1e-15)

    def test_odd_d_model_rejected(self):
        with pytest.raises(ValueError, match="even"):
            T.positional_encoding(4, 7)

    def test_entries_bounded(self):
        table = T.positional_encoding(64, 16)
        assert table.min() >= -1.0 and table.max() <= 1.0

    def test_positions_distinct(self):
        table = T.positional_encoding(32, 16)
        assert len({tuple(row) for row in np.round(table, 12)}) == 32

    def test_cached_table_is_read_only(self):
        table = T.positional_encoding(6, 8)
        assert T.positional_encoding(6, 8) is table
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 1.0

    @pytest.mark.parametrize("d_model", [8, 64, 256])
    def test_a_table_is_the_head_of_any_longer_one(self, d_model):
        longest = T.positional_encoding(97, d_model)
        for n in (1, 6, 24, 96):
            assert T.positional_encoding(n, d_model).tobytes() == longest[:n].tobytes()


class TestScaledAttention:
    def test_single_position_returns_value_row(self):
        out, weights = T.scaled_attention([[1.0, 2.0]], [[3.0, 4.0]], [[5.0, 6.0]])
        np.testing.assert_allclose(out, [[5.0, 6.0]])
        np.testing.assert_allclose(weights, [[1.0]])

    def test_orthogonal_query_gives_value_mean(self):
        K = np.array([[1.0, 0.0], [0.0, 1.0]])
        Q = np.array([[0.0, 0.0]])
        V = np.array([[2.0, 4.0], [6.0, 8.0]])
        out, _ = T.scaled_attention(Q, K, V)
        np.testing.assert_allclose(out, [[4.0, 6.0]])

    def test_hand_softmax_two_by_one(self):
        Q = K = np.array([[1.0], [0.0]])
        V = np.array([[10.0], [20.0]])
        out, weights = T.scaled_attention(Q, K, V)
        e = np.exp(1.0)
        np.testing.assert_allclose(weights[0], [e / (e + 1), 1 / (e + 1)], atol=1e-10)
        np.testing.assert_allclose(out[0, 0], 10 * e / (e + 1) + 20 / (e + 1), atol=1e-9)

    def test_weight_rows_sum_to_one(self):
        rng = SeededRng(50)
        for _ in range(25):
            Q = rng.uniform(-3, 3, (5, 4))
            K = rng.uniform(-3, 3, (6, 4))
            V = rng.uniform(-3, 3, (6, 4))
            _, weights = T.scaled_attention(Q, K, V)
            np.testing.assert_allclose(weights.sum(axis=-1), 1.0, atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            T.scaled_attention(np.zeros((2, 3)), np.zeros((2, 4)), np.zeros((2, 4)))


class TestMultiHeadAttention:
    def _params(self, d_model, rng):
        return T.init_encoder_layer(d_model, 2 * d_model, rng)

    def test_zero_projections_give_zero(self):
        p = zeroed(self._params(8, SeededRng(0)))
        out, _ = T.multi_head_attention(SeededRng(1).uniform(-1, 1, (5, 8)), p, 2)
        np.testing.assert_array_equal(out, 0.0)

    def test_single_identity_head_reduces_to_scaled_attention(self):
        d = 4
        p = self._params(d, SeededRng(2))
        p.W_qkv = np.stack([np.eye(d)] * 3)
        p.W_o = np.eye(d)
        x = SeededRng(3).uniform(-1, 1, (6, d))
        out, _ = T.multi_head_attention(x, p, 1)
        direct, _ = T.scaled_attention(x, x, x)
        np.testing.assert_allclose(out, direct, atol=1e-12)

    def test_permutation_equivariance(self):
        rng = SeededRng(4)
        p = self._params(8, rng)
        x = rng.uniform(-1, 1, (4, 8))
        perm = np.array([2, 0, 3, 1])
        out, _ = T.multi_head_attention(x, p, 2)
        out_perm, _ = T.multi_head_attention(x[perm], p, 2)
        np.testing.assert_allclose(out_perm, out[perm], atol=1e-10)

    def test_attention_rows_sum_to_one_in_cache(self):
        rng = SeededRng(5)
        p = self._params(8, rng)
        _, cache = T.multi_head_attention(rng.uniform(-1, 1, (2, 6, 8)), p, 4)
        np.testing.assert_allclose(cache["weights"].sum(axis=-1), 1.0, atol=1e-12)


class TestFeedForward:
    def test_zero_params(self):
        p = zeroed(T.init_encoder_layer(4, 8, SeededRng(0)))
        out, _ = T.feed_forward(np.ones((3, 4)), p)
        np.testing.assert_array_equal(out, 0.0)

    def test_identity_passthrough_on_nonnegative(self):
        p = T.init_encoder_layer(3, 3, SeededRng(1))
        p.W_ff1 = np.eye(3)
        p.W_ff2 = np.eye(3)
        p.b_ff1[:] = 0.0
        p.b_ff2[:] = 0.0
        x = np.abs(SeededRng(2).uniform(0, 2, (4, 3)))
        out, _ = T.feed_forward(x, p)
        np.testing.assert_allclose(out, x)

    def test_hand_substitution(self):
        p = T.init_encoder_layer(1, 1, SeededRng(3))
        p.W_ff1 = np.array([[1.0]])
        p.b_ff1 = np.array([0.0])
        p.W_ff2 = np.array([[5.0]])
        p.b_ff2 = np.array([1.0])
        out, _ = T.feed_forward(np.array([[-1.0]]), p)
        np.testing.assert_allclose(out, [[1.0]])  # relu(-1)*5 + 1


class TestEncoderLayer:
    def test_zero_sublayers_give_double_layer_norm(self):
        p = zeroed(T.init_encoder_layer(6, 12, SeededRng(0)))
        p.ln1_gain[:] = 1.0
        p.ln2_gain[:] = 1.0
        x = SeededRng(1).uniform(-2, 2, (1, 3, 6))
        out, _ = T.encoder_layer_forward(x, p, 2)
        ln = lambda v: T._layer_norm_fwd(v, np.ones(6), np.zeros(6))[0]
        np.testing.assert_allclose(out, ln(ln(x)), atol=1e-12)

    def test_shape_invariance(self):
        rng = SeededRng(2)
        p = T.init_encoder_layer(8, 32, rng)
        x = rng.uniform(-1, 1, (2, 5, 8))
        out, _ = T.encoder_layer_forward(x, p, 4)
        assert out.shape == x.shape

    def test_final_norm_gain_scales_output(self):
        rng = SeededRng(3)
        p = T.init_encoder_layer(8, 16, rng)
        x = rng.uniform(-1, 1, (1, 4, 8))
        base, _ = T.encoder_layer_forward(x, p, 2)
        p.ln2_gain *= 2.0
        doubled, _ = T.encoder_layer_forward(x, p, 2)
        np.testing.assert_allclose(doubled, 2.0 * base, atol=1e-12)


class TestEncoderStack:
    def test_zero_layers_project_and_encode_position(self):
        rng = SeededRng(4)
        stack = T.init_encoder_stack(3, d_model=8, n_layers=0, n_heads=2, rng=rng)
        x = rng.uniform(-1, 1, (1, 5, 3))
        out, _ = T.encoder_stack_forward(x, stack)
        expected = x @ stack.W_in + stack.b_in + T.positional_encoding(5, 8)
        np.testing.assert_allclose(out, expected, atol=1e-14)

    def test_finite_on_standard_window(self):
        rng = SeededRng(5)
        stack = T.init_encoder_stack(128, d_model=32, n_layers=2, n_heads=4, rng=rng)
        out, _ = T.encoder_stack_forward(rng.uniform(-1, 1, (1, 24, 128)), stack)
        assert np.all(np.isfinite(out))

    def test_positional_encoding_breaks_permutation_equivariance(self):
        rng = SeededRng(6)
        stack = T.init_encoder_stack(4, d_model=8, n_layers=1, n_heads=2, rng=rng)
        x = rng.uniform(-1, 1, (1, 6, 4))
        perm = rng.permutation(6)
        with_pe, _ = T.encoder_stack_forward(x, stack)
        with_pe_perm, _ = T.encoder_stack_forward(x[:, perm], stack)
        assert not np.allclose(with_pe_perm, with_pe[:, perm], atol=1e-6)
        # the same layer on the projected rows alone, without the encoding
        projected = x @ stack.W_in + stack.b_in
        without, _ = T.encoder_layer_forward(projected, stack.layers[0], stack.n_heads)
        without_perm, _ = T.encoder_layer_forward(
            projected[:, perm], stack.layers[0], stack.n_heads
        )
        np.testing.assert_allclose(without_perm, without[:, perm], atol=1e-10)

    def test_a_longer_sequence_than_any_before_gets_its_own_encoding(self):
        # no dimension of the stack bounds the sequence length
        rng = SeededRng(7)
        stack = T.init_encoder_stack(3, d_model=8, n_layers=0, n_heads=2, rng=rng)
        for seq_len in (4, 1031):
            x = rng.uniform(-1, 1, (2, seq_len, 3))
            out, _ = T.encoder_input_forward(x, stack)
            expected = x @ stack.W_in + stack.b_in
            expected += T.positional_encoding(seq_len, 8)
            assert out.tobytes() == expected.tobytes()

    def test_odd_d_model_rejected_when_built(self):
        with pytest.raises(ValueError, match="d_model must be even"):
            T.init_encoder_stack(3, d_model=9, n_layers=1, n_heads=3, rng=SeededRng(8))


class TestPredictionHead:
    def test_zero_head_outputs_zero(self):
        head = zeroed(T.init_prediction_head(8, 4, SeededRng(0)))
        out, _ = T.predict(np.ones((1, 3, 8)), head)
        assert out == 0.0

    def test_bias_only(self):
        head = zeroed(T.init_prediction_head(8, 4, SeededRng(0)))
        head.b_b[:] = 5.0
        out, _ = T.predict(SeededRng(1).uniform(-1, 1, (1, 3, 8)), head)
        np.testing.assert_allclose(out, 5.0)

    def test_constant_rows_pool_to_row(self):
        rng = SeededRng(2)
        head = T.init_prediction_head(4, 3, rng)
        row = rng.uniform(-1, 1, 4)
        encoded = np.tile(row, (1, 6, 1))
        out, _ = T.predict(encoded, head)
        hidden = np.maximum(row @ head.W_a + head.b_a, 0.0)
        expected = float((hidden @ head.W_b + head.b_b)[0])
        np.testing.assert_allclose(out, expected, atol=1e-12)


def _fd_grads(loss, params, eps=DEFAULT_EPS):
    numeric = {}
    for name, arr in params.named_arrays():
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
        numeric[name] = g
    return numeric


def _max_rel(analytic: dict, numeric: dict) -> float:
    worst = 0.0
    for name, a in analytic.items():
        n = numeric[name]
        denom = np.maximum(np.abs(a) + np.abs(n), REL_ERR_FLOOR)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


class TestBackward:
    def _setup(self, seed):
        rng = SeededRng(seed)
        stack = T.init_encoder_stack(3, d_model=4, n_layers=1, n_heads=2,
                                     rng=rng.split(0))
        head = T.init_prediction_head(4, 3, rng.split(1))
        x = rng.split(2).uniform(-1, 1, (2, 3, 3))
        return stack, head, x

    def test_zero_upstream_gives_zero_grads(self):
        stack, head, x = self._setup(60)
        encoded, caches = T.encoder_stack_forward(x, stack)
        _, head_cache = T.predict(encoded, head)
        d_encoded, head_grads = T.predict_backward(np.zeros(2), head_cache, head)
        stack_grads, d_input = T.encoder_stack_backward(d_encoded, caches, stack)
        for _, g in head_grads.named_arrays():
            np.testing.assert_array_equal(g, 0.0)
        for _, g in stack_grads.named_arrays():
            np.testing.assert_array_equal(g, 0.0)
        np.testing.assert_array_equal(d_input, 0.0)

    def test_gradients_match_finite_differences(self):
        stack, head, x = self._setup(61)

        def loss():
            encoded, _ = T.encoder_stack_forward(x, stack)
            preds, _ = T.predict(encoded, head)
            return float(np.sum(preds**2))

        encoded, caches = T.encoder_stack_forward(x, stack)
        preds, head_cache = T.predict(encoded, head)
        d_encoded, head_grads = T.predict_backward(2.0 * preds, head_cache, head)
        stack_grads, _ = T.encoder_stack_backward(d_encoded, caches, stack)

        assert _max_rel(dict(head_grads.named_arrays()), _fd_grads(loss, head)) < 1e-4
        assert _max_rel(dict(stack_grads.named_arrays()), _fd_grads(loss, stack)) < 1e-4

    def test_positional_table_untouched_by_backward(self):
        stack, head, x = self._setup(62)
        before = T.positional_encoding(x.shape[1], 4).copy()
        encoded, caches = T.encoder_stack_forward(x, stack)
        preds, head_cache = T.predict(encoded, head)
        d_encoded, _ = T.predict_backward(np.ones(2), head_cache, head)
        grads, _ = T.encoder_stack_backward(d_encoded, caches, stack)
        np.testing.assert_array_equal(T.positional_encoding(x.shape[1], 4), before)
        assert all(not name.startswith("pos") for name, _ in grads.named_arrays())


class TestBatchOnlyInputs:
    def _setup(self):
        rng = SeededRng(70)
        stack = T.init_encoder_stack(3, d_model=4, n_layers=1, n_heads=2,
                                     rng=rng.split(0))
        head = T.init_prediction_head(4, 3, rng.split(1))
        return stack, head, rng.split(2).uniform(-1, 1, (2, 5, 3))

    def test_single_window_forwards_rejected(self):
        stack, head, x = self._setup()
        with pytest.raises(ShapeMismatchError):
            T.encoder_stack_forward(x[0], stack)
        with pytest.raises(ShapeMismatchError):
            T.encoder_layer_forward(np.zeros((5, 4)), stack.layers[0], stack.n_heads)
        with pytest.raises(ShapeMismatchError):
            T.predict(np.zeros((5, 4)), head)

    def test_single_window_gradients_rejected(self):
        stack, head, x = self._setup()
        encoded, caches = T.encoder_stack_forward(x, stack)
        layer_cache = caches["layers"][0]
        with pytest.raises(ShapeMismatchError):
            T.encoder_stack_backward(encoded[0], caches, stack)
        with pytest.raises(ShapeMismatchError):
            T.encoder_layer_backward(encoded[0], layer_cache, stack.layers[0])
        with pytest.raises(ShapeMismatchError):
            T.multi_head_attention_backward(encoded[0], layer_cache["attn"], stack.layers[0])

    def test_a_leading_k_is_refused_past_the_forwards_before_the_head(self):
        # a stack of K models runs only the forwards before the head
        stack, head, x = self._setup()
        encoded, caches = T.encoder_stack_forward(x, stack)
        layer_cache = caches["layers"][0]
        stacked = np.stack([encoded, encoded])
        with pytest.raises(ShapeMismatchError):
            T.predict(stacked, head)
        with pytest.raises(ShapeMismatchError):
            T.encoder_layer_backward(stacked, layer_cache, stack.layers[0])
        with pytest.raises(ShapeMismatchError):
            T.multi_head_attention_backward(stacked, layer_cache["attn"], stack.layers[0])

    def test_attention_alone_still_takes_one_window(self):
        stack, _, _ = self._setup()
        x = SeededRng(71).uniform(-1, 1, (5, 4))
        single, cache = T.multi_head_attention(x, stack.layers[0], 2)
        batched, _ = T.multi_head_attention(x[None], stack.layers[0], 2)
        assert single.shape == (5, 4) and cache["weights"].shape == (1, 2, 5, 5)
        np.testing.assert_array_equal(single, batched[0])


@st.composite
def encoders(draw):
    """A small random encoder stack and head, a batch and an upstream gradient."""
    batch, seq = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    d_model = draw(st.sampled_from([2, 4, 8]))
    n_heads = draw(st.sampled_from([h for h in (1, 2, 4, 8) if d_model % h == 0]))
    d_ff, n_layers = draw(st.integers(1, 8)), draw(st.integers(0, 2))
    input_size, width = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    # the LSTM hands the encoder a transposed view of its (S, B, H) buffer
    time_major = draw(st.booleans())
    rng = SeededRng(draw(st.integers(0, 2**16)))
    stack = T.init_encoder_stack(input_size, d_model, n_layers, n_heads, d_ff, rng=rng.split(0))
    head = T.init_prediction_head(d_model, width, rng.split(1))
    noise = rng.split(2)
    for params in (stack, head):
        for _, arr in params.named_arrays():
            arr += noise.uniform(-0.3, 0.3, arr.shape)
    x = rng.split(3).uniform(-1, 1, (seq, batch, input_size) if time_major
                             else (batch, seq, input_size))
    x = x.transpose(1, 0, 2) if time_major else x
    upstream = rng.split(4).uniform(-1, 1, batch)
    return stack, head, x, upstream


def _relu_inputs(caches, head_cache, stack, head):
    """Every ReLU pre-activation of one forward, recomputed from its caches."""
    pre = [c["ff"]["x"] @ p.W_ff1 + p.b_ff1 for c, p in zip(caches["layers"], stack.layers)]
    pre.append(head_cache["x"] @ head.W_a + head.b_a)
    return np.concatenate([a.ravel() for a in pre])


def _snapshot(obj):
    if isinstance(obj, np.ndarray):
        return obj.copy()
    if isinstance(obj, dict):
        return {k: _snapshot(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_snapshot(v) for v in obj]
    return obj


def _assert_unchanged(live, snap, where):
    if isinstance(live, np.ndarray):
        np.testing.assert_array_equal(live, snap, err_msg=where)
    elif isinstance(live, dict):
        for k in snap:
            _assert_unchanged(live[k], snap[k], f"{where}.{k}")
    elif isinstance(live, (list, tuple)):
        for i, (a, b) in enumerate(zip(live, snap)):
            _assert_unchanged(a, b, f"{where}[{i}]")


class TestEncoderProperties:
    @settings(max_examples=25)
    @given(case=encoders())
    def test_backward_matches_finite_differences(self, case):
        stack, head, x, upstream = case

        def forward(inputs):
            encoded, caches = T.encoder_stack_forward(inputs, stack)
            preds, head_cache = T.predict(encoded, head)
            return preds, caches, head_cache

        preds, caches, head_cache = forward(x)
        # central differences are meaningless across a ReLU kink
        assume(np.min(np.abs(_relu_inputs(caches, head_cache, stack, head))) > 1e-3)
        d_encoded, head_grads = T.predict_backward(upstream, head_cache, head)
        stack_grads, d_x = T.encoder_stack_backward(d_encoded, caches, stack)

        def loss():
            return float(np.sum(upstream * forward(x)[0]))

        assert _max_rel(dict(head_grads.named_arrays()), _fd_grads(loss, head)) < 1e-4
        assert _max_rel(dict(stack_grads.named_arrays()), _fd_grads(loss, stack)) < 1e-4
        x = np.array(x)
        numeric_dx = np.zeros_like(x)
        for idx in np.ndindex(*x.shape):
            orig = x[idx]
            x[idx] = orig + DEFAULT_EPS
            up = loss()
            x[idx] = orig - DEFAULT_EPS
            down = loss()
            x[idx] = orig
            numeric_dx[idx] = (up - down) / (2 * DEFAULT_EPS)
        assert _max_rel({"x": d_x}, {"x": numeric_dx}) < 1e-4

    @settings(max_examples=30)
    @given(case=encoders())
    def test_each_window_alone_predicts_its_batched_row(self, case):
        stack, head, x, _ = case
        batched, _ = T.predict(T.encoder_stack_forward(x, stack)[0], head)
        for b in range(x.shape[0]):
            alone, _ = T.predict(T.encoder_stack_forward(x[b : b + 1], stack)[0], head)
            np.testing.assert_allclose(alone, batched[b : b + 1], rtol=1e-12, atol=1e-14)

    @settings(max_examples=30)
    @given(case=encoders())
    def test_inputs_and_caches_stay_bit_unchanged(self, case):
        stack, head, x, upstream = case
        forwards = [
            "encoder_stack_forward", "encoder_layer_forward", "multi_head_attention",
            "feed_forward", "_layer_norm_fwd", "predict", "head_forward",
        ]
        backwards = [
            "encoder_stack_backward", "encoder_layer_backward", "multi_head_attention_backward",
            "feed_forward_backward", "_layer_norm_bwd", "predict_backward", "head_backward",
        ]
        caches_returned = []

        def spy(name, fn):
            def wrapped(*args):
                before = _snapshot(args)
                result = fn(*args)
                _assert_unchanged(args, before, f"{name} argument")
                if name in forwards:
                    caches_returned.append((name, result[1], _snapshot(result[1])))
                return result
            return wrapped

        params_before = {
            n: a.copy() for p in (stack, head) for n, a in p.named_arrays()
        }
        x_before = x.copy()
        with pytest.MonkeyPatch.context() as mp:
            for name in forwards + backwards:
                mp.setattr(T, name, spy(name, getattr(T, name)))
            encoded, caches = T.encoder_stack_forward(x, stack)
            _, head_cache = T.predict(encoded, head)
            d_encoded, _ = T.predict_backward(upstream, head_cache, head)
            T.encoder_stack_backward(d_encoded, caches, stack)

        np.testing.assert_array_equal(x, x_before)
        for p in (stack, head):
            for n, a in p.named_arrays():
                np.testing.assert_array_equal(a, params_before[n], err_msg=n)
        # caches, as each function returned them, after the whole forward and backward
        for name, cache, snap in caches_returned:
            _assert_unchanged(cache, snap, f"{name} cache")
