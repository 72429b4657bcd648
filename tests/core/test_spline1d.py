"""Unit tests for the bounded 1D cubic B-spline (Jastrow radials)."""

import numpy as np
import pytest

from repro.core import CubicBspline1D
from repro.core.basis import bspline_weights_batch


class TestInterpolation:
    def test_reproduces_samples_at_knots(self):
        rng = np.random.default_rng(8)
        samples = rng.standard_normal(10)
        sp = CubicBspline1D(samples, rcut=2.0)
        r = np.linspace(0.0, 2.0, 10)[:-1]  # last knot is the cutoff => 0
        np.testing.assert_allclose(sp.evaluate(r), samples[:-1], atol=1e-10)

    def test_scalar_and_array_apis_agree(self):
        sp = CubicBspline1D(np.arange(6.0), rcut=1.0)
        assert np.isclose(sp.evaluate(0.3), sp.evaluate(np.array([0.3]))[0])

    def test_zero_beyond_cutoff(self):
        sp = CubicBspline1D(np.ones(6), rcut=1.0)
        v, dv, d2v = sp.evaluate_vgl(np.array([1.0, 1.5, 100.0]))
        assert not v.any() and not dv.any() and not d2v.any()

    def test_negative_radius_is_zero(self):
        sp = CubicBspline1D(np.ones(6), rcut=1.0)
        assert sp.evaluate(-0.1) == 0.0

    def test_rejects_too_few_samples(self):
        with pytest.raises(ValueError):
            CubicBspline1D(np.ones(3), 1.0)

    def test_rejects_bad_bc(self):
        with pytest.raises(ValueError, match="bc"):
            CubicBspline1D(np.ones(6), 1.0, bc="periodic")

    def test_rejects_nonpositive_rcut(self):
        with pytest.raises(ValueError):
            CubicBspline1D(np.ones(6), 0.0)


class TestDerivatives:
    def test_vgl_matches_finite_differences(self):
        sp = CubicBspline1D.fit_function(
            lambda r: np.exp(-r), rcut=3.0, n_knots=20
        )
        r = np.array([0.5, 1.0, 2.2])
        v, dv, d2v = sp.evaluate_vgl(r)
        eps = 1e-6
        fd1 = (sp.evaluate(r + eps) - sp.evaluate(r - eps)) / (2 * eps)
        fd2 = (sp.evaluate(r + eps) - 2 * v + sp.evaluate(r - eps)) / eps**2
        np.testing.assert_allclose(dv, fd1, atol=1e-7)
        np.testing.assert_allclose(d2v, fd2, atol=2e-3)

    def test_natural_bc_second_derivative_zero_at_origin(self):
        sp = CubicBspline1D(np.random.default_rng(9).standard_normal(12), 2.0)
        _, _, d2v = sp.evaluate_vgl(1e-12)
        assert abs(d2v) < 1e-6

    def test_clamped_bc_first_derivative(self):
        sp = CubicBspline1D(
            np.linspace(1.0, 0.0, 8), 2.0, bc="clamped", deriv0=-3.0, deriv1=0.0
        )
        _, dv0, _ = sp.evaluate_vgl(1e-12)
        assert np.isclose(dv0, -3.0, atol=1e-8)

    def test_fit_function_accuracy(self):
        sp = CubicBspline1D.fit_function(
            lambda r: np.cos(r), rcut=1.5, n_knots=24
        )
        r = np.linspace(0.05, 1.4, 20)
        np.testing.assert_allclose(sp.evaluate(r), np.cos(r), atol=5e-4)


class TestFusedVgl:
    """``evaluate_vgl`` gathers once and combines all orders in one
    broadcast, with the bits of three per-order ``_combine`` calls."""

    @pytest.mark.parametrize("shape", [(40,), (4, 10)])
    def test_equals_three_call_form_bitwise(self, shape):
        sp = CubicBspline1D.fit_function(
            lambda r: np.exp(-r) * (1.0 - r / 2.0) ** 2,
            2.0, n_knots=10, bc="clamped", deriv0=-0.5,
        )
        r = np.random.default_rng(3).random(shape) * 3.0  # a third beyond rcut
        r.flat[:4] = [0.0, 2.0, np.nextafter(2.0, 0.0), 2.5]
        i, t, inside = sp._locate(r)
        ref = [
            sp._combine(i, bspline_weights_batch(t, 0)),
            sp._combine(i, bspline_weights_batch(t, 1)) * sp.inv_delta,
            sp._combine(i, bspline_weights_batch(t, 2)) * sp.inv_delta**2,
        ]
        assert (~inside).any() and inside.any()
        for got, want in zip(sp.evaluate_vgl(r), ref):
            np.testing.assert_array_equal(got, np.where(inside, want, 0.0))

    def test_scalar_matches_array(self):
        sp = CubicBspline1D(np.arange(6.0), rcut=1.0)
        for r in (0.3, 1.5):
            scalar = sp.evaluate_vgl(r)
            batch = sp.evaluate_vgl(np.array([r]))
            for a, b in zip(scalar, batch):
                assert np.ndim(a) == 0 and a == b[0]
