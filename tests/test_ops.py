import warnings

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ltpnet.ops import mean, sigmoid, softmax
from ltpnet.rng import SeededRng
from ltpnet.transformer import _layer_norm_fwd


def layer_norm(x, gain, bias):
    return _layer_norm_fwd(np.asarray(x, dtype=np.float64), gain, bias)[0]


class TestActivations:
    def test_sigmoid_at_zero(self):
        assert sigmoid([0.0])[0] == 0.5

    def test_sigmoid_of_one(self):
        # 1 / (1 + exp(-1)) evaluated to high precision
        np.testing.assert_allclose(
            sigmoid([1.0])[0], 0.7310585786300049, atol=1e-12
        )

    def test_sigmoid_symmetry(self):
        v = SeededRng(2).uniform(-30, 30, 1000)
        np.testing.assert_allclose(sigmoid(v) + sigmoid(-v), 1.0, atol=1e-12)

    def test_sigmoid_extreme_inputs_stay_finite(self):
        out = sigmoid(np.array([-1e4, 1e4]))
        assert np.all(np.isfinite(out))

    def test_shape_preserved(self):
        x = SeededRng(3).uniform(-1, 1, (2, 3, 4))
        assert sigmoid(x).shape == (2, 3, 4)

    @settings(max_examples=200)
    @given(values=st.lists(st.floats(-745.0, 745.0), min_size=1, max_size=20))
    @example(values=[-745.0, 745.0, -700.0, 700.0, -40.0, 0.0, -0.0, 5e-324, -5e-324])
    def test_sigmoid_bits_match_the_two_branch_formula(self, values):
        x = np.array(values)
        pos = x >= 0
        expected = np.empty_like(x)
        expected[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        expected[~pos] = ex / (1.0 + ex)
        with warnings.catch_warnings(), np.errstate(over="raise", divide="raise", invalid="raise"):
            warnings.simplefilter("error")
            out = sigmoid(x)
        assert out.tobytes() == expected.tobytes()


class TestSoftmax:
    def test_uniform_input(self):
        np.testing.assert_allclose(softmax([0.0, 0.0, 0.0]), [1 / 3] * 3, atol=1e-15)

    def test_single_element(self):
        np.testing.assert_allclose(softmax([4.2]), [1.0])

    def test_large_symmetric_inputs_no_overflow(self):
        np.testing.assert_allclose(softmax([1000.0, 1000.0]), [0.5, 0.5])

    def test_sums_to_one_across_magnitudes(self):
        rng = SeededRng(4)
        for _ in range(1000):
            scale = 10 ** rng.uniform(-2, 4)
            x = rng.uniform(-1, 1, 7) * scale
            out = softmax(x)
            assert abs(out.sum() - 1.0) < 1e-12

    def test_strictly_positive_on_representable_spreads(self):
        # float64 exp underflows to exactly 0 for arguments below ~-745,
        # so strict positivity is tested within that spread
        rng = SeededRng(8)
        for _ in range(200):
            x = rng.uniform(-350, 350, 9)
            assert np.all(softmax(x) > 0)

    def test_axis_argument(self):
        x = SeededRng(5).uniform(-3, 3, (4, 6))
        np.testing.assert_allclose(softmax(x, axis=0).sum(axis=0), 1.0, atol=1e-12)


def _arrays_with_rows_of_nan_and_inf():
    """float64 arrays of 1-3 dimensions holding any values, NaN and ±inf included."""
    values = st.floats(allow_nan=True, allow_infinity=True)
    return hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=3, max_side=7), elements=values)


_SPECIAL_ROWS = np.array([
    [1.0, np.nan, 2.0, 0.5], [np.inf, 1.0, -np.inf, 0.0], [np.inf, np.inf, 0.5, -1.0],
    [-np.inf, 3.0, 4.0, 1e308], [1e308, 1e308, -0.0, 0.0],
])


def _bits(a):
    a = np.asarray(a)
    return a.dtype, a.shape, a.tobytes()


class TestLeanReductions:
    """The wrapper-free reductions give numpy's own bits."""

    @settings(max_examples=300)
    @given(x=_arrays_with_rows_of_nan_and_inf(), data=st.data())
    @example(x=_SPECIAL_ROWS, data=None)
    def test_mean_is_np_mean_bit_for_bit(self, x, data):
        cases = [(None, False), (None, True), (-1, True), (0, False)]
        if data is not None:
            cases.append((data.draw(st.none() | st.integers(-x.ndim, x.ndim - 1)), data.draw(st.booleans())))
        with np.errstate(all="ignore"):
            for axis, keepdims in cases:
                assert _bits(mean(x, axis, keepdims=keepdims)) == (
                    _bits(np.mean(x, axis=axis, keepdims=keepdims))
                ), (axis, keepdims)

    @settings(max_examples=300)
    @given(x=_arrays_with_rows_of_nan_and_inf(), data=st.data())
    @example(x=_SPECIAL_ROWS, data=None)
    def test_softmax_is_the_three_line_formula_bit_for_bit(self, x, data):
        axes = [-1, 0] if data is None else [data.draw(st.integers(-x.ndim, x.ndim - 1))]
        with np.errstate(all="ignore"):
            for axis in axes:
                shifted = x - np.max(x, axis=axis, keepdims=True)
                ex = np.exp(shifted)
                assert _bits(softmax(x, axis=axis)) == _bits(ex / np.sum(ex, axis=axis, keepdims=True))


class TestLayerNorm:
    def test_constant_vector_maps_to_zeros(self):
        out = layer_norm([5.0, 5.0, 5.0], np.ones(3), np.zeros(3))
        np.testing.assert_allclose(out, 0.0, atol=1e-12)

    def test_normalized_input_is_near_fixed_point(self):
        out = layer_norm([-1.0, 1.0], np.ones(2), np.zeros(2))
        np.testing.assert_allclose(out, [-1.0, 1.0], atol=1e-4)

    def test_hand_computed(self):
        out = layer_norm([1.0, 2.0, 3.0], np.ones(3), np.zeros(3))
        np.testing.assert_allclose(out, [-1.2247, 0.0, 1.2247], atol=1e-3)

    def test_gain_and_bias_apply(self):
        out = layer_norm([1.0, 2.0, 3.0], 2.0 * np.ones(3), 7.0 * np.ones(3))
        base = layer_norm([1.0, 2.0, 3.0], np.ones(3), np.zeros(3))
        np.testing.assert_allclose(out, 2.0 * base + 7.0, atol=1e-12)

    def test_moments_with_unit_gain(self):
        # output mean is exactly centered; output std approaches 1 as the
        # input variance dwarfs the epsilon guard inside the square root
        rng = SeededRng(6)
        for _ in range(50):
            x = rng.uniform(-1, 1, 16) * 10.0  # variance well above 10
            out = layer_norm(x, np.ones(16), np.zeros(16))
            assert abs(out.mean()) < 1e-9
            assert abs(out.std() - 1.0) < 1e-6

    def test_epsilon_effect_on_small_variance(self):
        # with variance near 1e-3 the epsilon guard shrinks the output std
        # by the predicted factor sqrt(var / (var + eps))
        rng = SeededRng(7)
        x = rng.uniform(-1, 1, 32) * 0.05
        out = layer_norm(x, np.ones(32), np.zeros(32))
        var = x.var()
        expected = np.sqrt(var / (var + 1e-5))
        np.testing.assert_allclose(out.std(), expected, rtol=1e-9)


class TestSeededRng:
    def test_equal_seeds_equal_streams(self):
        a = SeededRng(123).uniform(size=1_000_000)
        b = SeededRng(123).uniform(size=1_000_000)
        np.testing.assert_array_equal(a, b)

    def test_draws_in_unit_interval(self):
        x = SeededRng(9).uniform(size=100_000)
        assert x.min() >= 0.0 and x.max() < 1.0

    def test_different_seeds_differ(self):
        assert not np.array_equal(
            SeededRng(1).uniform(size=100), SeededRng(2).uniform(size=100)
        )

    def test_split_streams_are_independent_and_reproducible(self):
        base = SeededRng(7)
        c1 = base.split(1).uniform(size=100)
        c2 = base.split(2).uniform(size=100)
        assert not np.array_equal(c1, c2)
        np.testing.assert_array_equal(c1, SeededRng(7).split(1).uniform(size=100))

    def test_nested_splits_distinct(self):
        a = SeededRng(7).split(1).split(2).uniform(size=50)
        b = SeededRng(7).split(2).split(1).uniform(size=50)
        assert not np.array_equal(a, b)

    def test_permutation_reproducible(self):
        np.testing.assert_array_equal(
            SeededRng(5).permutation(20), SeededRng(5).permutation(20)
        )
