"""Tests for the nonlocal pseudopotential (the V-kernel consumer)."""

import numpy as np
import pytest

from repro.core import CubicBspline1D
from repro.qmc import (
    NonlocalPseudopotential,
    icosahedron_quadrature,
    legendre,
    octahedron_quadrature,
)
from tests.qmc.test_wavefunction import build_wf


class TestQuadrature:
    @pytest.mark.parametrize(
        "rule", [octahedron_quadrature, icosahedron_quadrature]
    )
    def test_unit_vectors_and_weights(self, rule):
        pts, w = rule()
        np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)
        assert np.isclose(w.sum(), 1.0)

    @pytest.mark.parametrize(
        "rule,degree", [(octahedron_quadrature, 3), (icosahedron_quadrature, 5)]
    )
    def test_integrates_odd_harmonics_to_zero(self, rule, degree):
        # All odd monomials integrate to zero on the sphere; the rules
        # must reproduce that exactly up to their degree.
        pts, w = rule()
        for mono in (pts[:, 0], pts[:, 1] * pts[:, 2] * pts[:, 0]):
            assert abs(float(w @ mono)) < 1e-12

    def test_integrates_x2_exactly(self):
        # Integral of x^2 over the unit sphere (normalized) is 1/3.
        for rule in (octahedron_quadrature, icosahedron_quadrature):
            pts, w = rule()
            assert np.isclose(float(w @ pts[:, 0] ** 2), 1.0 / 3.0, atol=1e-12)


class TestLegendre:
    def test_values(self):
        x = np.array([-1.0, 0.0, 0.5, 1.0])
        np.testing.assert_allclose(legendre(0, x), 1.0)
        np.testing.assert_allclose(legendre(1, x), x)
        np.testing.assert_allclose(legendre(2, x), 1.5 * x**2 - 0.5)

    def test_rejects_high_l(self):
        with pytest.raises(ValueError):
            legendre(3, np.zeros(1))


def make_pp(l=0, strength=0.5, rcut=1.5, seed=5):
    v = CubicBspline1D.fit_function(
        lambda r: strength * (1 - r / rcut) ** 3, rcut, bc="clamped",
        deriv0=-3 * strength / rcut,
    )
    return NonlocalPseudopotential(
        v, l=l, rng=np.random.default_rng(seed)
    )


class TestEvaluator:
    def test_energy_finite(self, rng):
        wf = build_wf(rng)
        pp = make_pp()
        e = pp.energy(wf)
        assert np.isfinite(e)
        assert pp.n_v_evals > 0  # the V kernel actually ran

    def test_l0_identity_ratio_reduces_to_local(self, rng):
        # For l=0 and a wavefunction ratio identically 1, the quadrature
        # sum collapses to v(r) per in-range pair.  Engineer that by
        # zero-strength Jastrow + constant orbital? Simpler invariance:
        # the energy must be *exactly* zero when the channel radial
        # function is zero.
        wf = build_wf(rng)
        v = CubicBspline1D(np.zeros(6), 1.5)
        pp = NonlocalPseudopotential(v, l=0, rng=np.random.default_rng(1))
        assert pp.energy(wf) == 0.0

    def test_energy_does_not_disturb_wavefunction(self, rng):
        wf = build_wf(rng)
        lv0 = wf.log_value
        pos0 = wf.electrons.positions
        make_pp().energy(wf)
        assert wf.log_value == lv0
        np.testing.assert_array_equal(wf.electrons.positions, pos0)
        # A staged move must still be possible (no dangling stage).
        wf.ratio_grad(0, wf.electrons[0] + 0.1)
        wf.reject_move(0)

    def test_random_rotation_changes_result_slightly(self, rng):
        wf = build_wf(rng)
        e1 = make_pp(seed=1).energy(wf)
        e2 = make_pp(seed=2).energy(wf)
        assert e1 != e2  # rotated grids differ...
        assert abs(e1 - e2) < 0.5 * max(abs(e1), abs(e2), 1.0)  # ...mildly

    def test_cutoff_limits_pairs(self, rng):
        wf = build_wf(rng)
        tiny = make_pp(rcut=1e-3)
        assert tiny.energy(wf) == 0.0
        assert tiny.n_v_evals == 0

    @pytest.mark.parametrize("l", [0, 1, 2])
    def test_all_channels_run(self, rng, l):
        wf = build_wf(rng)
        assert np.isfinite(make_pp(l=l).energy(wf))

    def test_rejects_unknown_quadrature(self):
        v = CubicBspline1D(np.ones(6), 1.0)
        with pytest.raises(ValueError):
            NonlocalPseudopotential(v, quadrature="lebedev99")


class TestLocalEnergyIntegration:
    def test_local_energy_includes_pp_term(self, rng):
        from repro.qmc import LocalEnergy

        wf = build_wf(rng)
        pp = make_pp()
        base = LocalEnergy(wf).total()
        with_pp = LocalEnergy(wf, pseudopotential=pp).total()
        e_pp = pp.energy(wf)
        # Same configuration, same RNG-free estimators: totals differ by
        # (a fresh rotation of) the PP term; compare magnitudes loosely.
        assert with_pp != base
        assert abs((with_pp - base)) < 10 * max(abs(e_pp), 1.0)

    def test_batched_and_scalar_ratio_paths_agree(self, rng):
        wf = build_wf(rng)
        pp = make_pp()
        e = 2
        pos = wf.electrons[e] + np.array([0.2, -0.1, 0.15])
        scalar = pp._ratio_at(wf, e, pos)
        batch = pp._ratios_batch(wf, e, np.stack([pos, pos]))
        np.testing.assert_allclose(batch, [scalar, scalar], atol=1e-10)


class TestAppIntegration:
    def test_app_with_pseudopotential_profiles_v_kernel(self):
        from repro.miniqmc.app import build_app, run_profiled

        app = build_app(
            n_orbitals=6, grid_shape=(10, 10, 10), with_pseudopotential=True
        )
        run_profiled(app, n_sweeps=1, measure=True)
        assert app.pseudopotential.n_v_evals > 0
        # The batched V evaluations were attributed to the bspline section.
        assert app.timers.elapsed["bspline"] > 0
