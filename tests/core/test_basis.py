"""Unit tests for the 1D cubic B-spline basis (paper Eq. 5, Fig. 2a)."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.basis import (
    BSPLINE_A,
    BSPLINE_D2A,
    BSPLINE_DA,
    bspline_all_weights,
    bspline_d2weights,
    bspline_dweights,
    bspline_fused_weights,
    bspline_weights,
    bspline_weights_batch,
)


class TestWeightValues:
    def test_partition_of_unity_at_zero(self):
        w = bspline_weights(0.0)
        assert w.shape == (4,)
        assert np.isclose(w.sum(), 1.0)

    def test_weights_at_zero_are_basis_knot_values(self):
        # At a grid point the stencil weights are exactly (1/6, 4/6, 1/6, 0).
        w = bspline_weights(0.0)
        np.testing.assert_allclose(w, [1 / 6, 4 / 6, 1 / 6, 0.0], atol=1e-15)

    def test_weights_at_t_close_to_one(self):
        # Approaching the next knot the stencil shifts by one.
        w = bspline_weights(1.0 - 1e-12)
        np.testing.assert_allclose(w, [0.0, 1 / 6, 4 / 6, 1 / 6], atol=1e-9)

    def test_all_weights_nonnegative(self):
        t = np.linspace(0.0, 1.0, 101)
        w = bspline_weights(t)
        assert (w >= -1e-15).all()

    def test_matches_closed_forms(self):
        t = 0.37
        w = bspline_weights(t)
        assert np.isclose(w[0], (1 - t) ** 3 / 6)
        assert np.isclose(w[1], (3 * t**3 - 6 * t**2 + 4) / 6)
        assert np.isclose(w[2], (-3 * t**3 + 3 * t**2 + 3 * t + 1) / 6)
        assert np.isclose(w[3], t**3 / 6)

    def test_symmetry(self):
        # b(t) reversed equals b(1-t): the basis is symmetric.
        t = 0.23
        np.testing.assert_allclose(
            bspline_weights(t), bspline_weights(1.0 - t)[::-1], atol=1e-15
        )


class TestDerivatives:
    def test_derivative_weights_sum_to_zero(self):
        t = np.linspace(0.0, 1.0, 51)
        np.testing.assert_allclose(bspline_dweights(t).sum(axis=-1), 0.0, atol=1e-13)

    def test_second_derivative_weights_sum_to_zero(self):
        t = np.linspace(0.0, 1.0, 51)
        np.testing.assert_allclose(bspline_d2weights(t).sum(axis=-1), 0.0, atol=1e-12)

    def test_first_derivative_matches_finite_difference(self):
        t, eps = 0.4321, 1e-6
        fd = (bspline_weights(t + eps) - bspline_weights(t - eps)) / (2 * eps)
        np.testing.assert_allclose(bspline_dweights(t), fd, atol=1e-8)

    def test_second_derivative_matches_finite_difference(self):
        t, eps = 0.61, 1e-5
        fd = (
            bspline_weights(t + eps) - 2 * bspline_weights(t) + bspline_weights(t - eps)
        ) / eps**2
        np.testing.assert_allclose(bspline_d2weights(t), fd, atol=1e-5)

    def test_linear_reproduction(self):
        # Cubic B-splines reproduce linears: sum of (i-1..i+2)*w = t + 1
        # for coefficients p_j = j at stencil offsets (-1, 0, 1, 2).
        t = 0.77
        w = bspline_weights(t)
        offsets = np.array([-1.0, 0.0, 1.0, 2.0])
        assert np.isclose((w * offsets).sum(), t)

    def test_derivative_of_linear_is_one(self):
        t = 0.13
        dw = bspline_dweights(t)
        offsets = np.array([-1.0, 0.0, 1.0, 2.0])
        assert np.isclose((dw * offsets).sum(), 1.0)

    def test_second_derivative_of_quadratic(self):
        # p_j = j^2 => f(t) = t^2 + t + c'' contributions; f'' = 2 exactly.
        t = 0.5
        d2w = bspline_d2weights(t)
        offsets = np.array([-1.0, 0.0, 1.0, 2.0])
        assert np.isclose((d2w * offsets**2).sum(), 2.0)


class TestMatricesAndBatch:
    def test_matrix_rows_sum_to_unity_polynomial(self):
        # Column sums of A give the coefficients of the constant 1.
        np.testing.assert_allclose(BSPLINE_A.sum(axis=0), [0, 0, 0, 1], atol=1e-15)

    def test_da_is_derivative_of_a(self):
        # dA columns should be the polynomial derivative of A's columns.
        # d/dt [t^3, t^2, t, 1] -> [3t^2, 2t, 1, 0].
        deriv = np.zeros_like(BSPLINE_A)
        deriv[:, 1] = 3 * BSPLINE_A[:, 0]
        deriv[:, 2] = 2 * BSPLINE_A[:, 1]
        deriv[:, 3] = BSPLINE_A[:, 2]
        np.testing.assert_allclose(BSPLINE_DA, deriv, atol=1e-15)

    def test_d2a_is_derivative_of_da(self):
        deriv = np.zeros_like(BSPLINE_DA)
        deriv[:, 2] = 2 * BSPLINE_DA[:, 1]
        deriv[:, 3] = BSPLINE_DA[:, 2]
        np.testing.assert_allclose(BSPLINE_D2A, deriv, atol=1e-15)

    def test_all_weights_consistent_with_individual(self):
        t = 0.3
        a, da, d2a = bspline_all_weights(t)
        np.testing.assert_allclose(a, bspline_weights(t))
        np.testing.assert_allclose(da, bspline_dweights(t))
        np.testing.assert_allclose(d2a, bspline_d2weights(t))

    def test_batch_shapes(self):
        t = np.zeros((5, 7))
        assert bspline_weights_batch(t, 0).shape == (5, 7, 4)

    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_batch_matches_scalar(self, order):
        t = np.array([0.1, 0.5, 0.9])
        batch = bspline_weights_batch(t, order)
        scalar_fn = [bspline_weights, bspline_dweights, bspline_d2weights][order]
        for i, ti in enumerate(t):
            np.testing.assert_allclose(batch[i], scalar_fn(ti))

    def test_batch_rejects_bad_order(self):
        with pytest.raises(ValueError, match="order"):
            bspline_weights_batch(np.array([0.5]), 3)


_FRACTIONS = st.floats(0.0, 1.0, exclude_max=True)
_BATCHES = st.one_of(
    hnp.arrays(np.float64, st.integers(1, 40), elements=_FRACTIONS),
    hnp.arrays(
        np.float64,
        st.tuples(st.integers(1, 6), st.integers(1, 9)),
        elements=_FRACTIONS,
    ),
)


class TestFusedWeights:
    """One call for all three orders, bit for bit the per-order form."""

    @settings(max_examples=60, deadline=None)
    @given(t=_BATCHES)
    @example(t=np.array([0.0]))
    @example(t=np.array([np.nextafter(1.0, 0.0)]))
    @example(t=np.array([[0.0, np.nextafter(1.0, 0.0)], [0.5, 0.25]]))
    def test_equals_per_order_reference_bitwise(self, t):
        fused = bspline_fused_weights(t)
        assert fused.shape == (3, 4) + t.shape
        for order in range(3):
            ref = np.moveaxis(bspline_weights_batch(t, order), -1, 0)
            # Integer views compare the sign of zero too.
            np.testing.assert_array_equal(
                fused[order].view(np.int64), ref.view(np.int64)
            )
