"""Unit tests for SplineOrbitalSet (coordinate chain rule) and SlaterDet."""

import numpy as np
import pytest

from repro.lattice import Cell, PlaneWaveOrbitalSet, graphite_unit_cell
from repro.qmc import ParticleSet, SlaterDet, SplineOrbitalSet


@pytest.fixture(
    params=[Cell.cubic(5.0), graphite_unit_cell()], ids=["cubic", "graphite"]
)
def spos(request):
    cell = request.param
    pw = PlaneWaveOrbitalSet(cell, 6)
    return SplineOrbitalSet.from_orbital_functions(
        cell, pw, (16, 16, 16), engine="fused", dtype=np.float64
    ), pw, cell


class TestSplineOrbitalSet:
    def test_values_match_analytic(self, spos, rng):
        s, pw, cell = spos
        pts = cell.frac_to_cart(rng.random((5, 3)))
        exact = pw.evaluate(pts)
        for i, p in enumerate(pts):
            np.testing.assert_allclose(s.values(p), exact[i], atol=2e-2)

    def test_vgl_gradients_match_analytic(self, spos, rng):
        s, pw, cell = spos
        p = cell.frac_to_cart(rng.random(3))
        v, g, lap = s.vgl(p)
        ev, eg, elap = pw.evaluate_vgl(p[np.newaxis])
        np.testing.assert_allclose(v, ev[0], atol=2e-2)
        np.testing.assert_allclose(g, eg[0], atol=5e-2)
        np.testing.assert_allclose(lap, elap[0], atol=0.5)

    def test_vgl_lap_equals_vgh_trace(self, spos, rng):
        s, _, cell = spos
        p = cell.frac_to_cart(rng.random(3))
        _, _, lap = s.vgl(p)
        _, _, h = s.vgh(p)
        np.testing.assert_allclose(lap, h[0, 0] + h[1, 1] + h[2, 2], atol=1e-8)

    def test_vgh_hessian_symmetric(self, spos, rng):
        s, _, cell = spos
        p = cell.frac_to_cart(rng.random(3))
        _, _, h = s.vgh(p)
        np.testing.assert_allclose(h, h.transpose(1, 0, 2), atol=1e-10)

    def test_gradient_finite_difference(self, spos, rng):
        # The decisive chain-rule test: Cartesian FD of the spline itself.
        s, _, cell = spos
        p = cell.frac_to_cart(rng.random(3))
        _, g, _ = s.vgl(p)
        eps = 1e-5
        for d in range(3):
            dp = np.zeros(3)
            dp[d] = eps
            fd = (s.values(p + dp) - s.values(p - dp)) / (2 * eps)
            np.testing.assert_allclose(g[d], fd, atol=1e-4)

    def test_requires_fractional_grid(self):
        from repro.core import Grid3D, BsplineFused

        cell = Cell.cubic(2.0)
        grid = Grid3D(8, 8, 8, (2.0, 2.0, 2.0))
        eng = BsplineFused(grid, np.zeros((8, 8, 8, 2), dtype=np.float32))
        with pytest.raises(ValueError, match="fractional"):
            SplineOrbitalSet(cell, grid, eng)

    def test_rejects_aosoa_engine(self):
        cell = Cell.cubic(2.0)
        pw = PlaneWaveOrbitalSet(cell, 2)
        with pytest.raises(ValueError, match="aosoa"):
            SplineOrbitalSet.from_orbital_functions(cell, pw, (8, 8, 8), engine="aosoa")

    def test_rejects_unknown_engine(self):
        cell = Cell.cubic(2.0)
        pw = PlaneWaveOrbitalSet(cell, 2)
        with pytest.raises(ValueError, match="unknown engine"):
            SplineOrbitalSet.from_orbital_functions(cell, pw, (8, 8, 8), engine="simd")


class TestSlaterDet:
    @pytest.fixture
    def slater(self, rng):
        cell = Cell.cubic(5.0)
        pw = PlaneWaveOrbitalSet(cell, 4)
        spos = SplineOrbitalSet.from_orbital_functions(
            cell, pw, (12, 12, 12), engine="fused", dtype=np.float64
        )
        electrons = ParticleSet.random("e", cell, 8, rng)
        return SlaterDet(spos, electrons), electrons, cell

    def test_requires_2n_electrons(self, rng):
        cell = Cell.cubic(5.0)
        pw = PlaneWaveOrbitalSet(cell, 4)
        spos = SplineOrbitalSet.from_orbital_functions(
            cell, pw, (12, 12, 12), engine="fused", dtype=np.float64
        )
        electrons = ParticleSet.random("e", cell, 6, rng)
        with pytest.raises(ValueError, match="2N"):
            SlaterDet(spos, electrons)

    def test_ratio_matches_log_value_change(self, slater, rng):
        det, electrons, cell = slater
        lv0 = det.log_value
        e = 5  # a spin-down electron
        new_pos = electrons[e] + rng.standard_normal(3) * 0.2
        r, _ = det.ratio_grad(e, new_pos)
        det.accept_move(e)
        electrons.propose(e, new_pos)
        electrons.accept()
        assert np.isclose(np.log(abs(r)), det.log_value - lv0, atol=1e-10)

    def test_up_move_leaves_down_det(self, slater, rng):
        det, electrons, _ = slater
        down_logdet = det.dets[1].log_det
        r, _ = det.ratio_grad(0, electrons[0] + 0.1)
        det.accept_move(0)
        assert det.dets[1].log_det == down_logdet

    def test_reject_restores(self, slater, rng):
        det, electrons, _ = slater
        lv0 = det.log_value
        det.ratio_grad(2, electrons[2] + 0.3)
        det.reject_move(2)
        assert det.log_value == lv0

    def test_recompute_consistent_after_updates(self, slater, rng):
        det, electrons, _ = slater
        for e in (0, 3, 6):
            new_pos = electrons[e] + rng.standard_normal(3) * 0.1
            r, _ = det.ratio_grad(e, new_pos)
            if abs(r) > 1e-3:
                det.accept_move(e)
                electrons.propose(e, new_pos)
                electrons.accept()
            else:
                det.reject_move(e)
        lv_updates = det.log_value
        det.recompute()
        assert np.isclose(det.log_value, lv_updates, atol=1e-8)

    def test_grad_lap_finite_difference(self, slater, rng):
        det, electrons, _ = slater
        e = 1
        g, _ = det.grad_lap(e)
        eps = 1e-5
        fd = np.zeros(3)
        for d in range(3):
            vals = []
            for s in (+1, -1):
                p = electrons[e].copy()
                p[d] += s * eps
                r, _ = det.ratio_grad(e, p)
                det.reject_move(e)
                vals.append(np.log(abs(r)))
            fd[d] = (vals[0] - vals[1]) / (2 * eps)
        # grad log det == (grad D)/D at the committed position.
        np.testing.assert_allclose(g, fd, atol=1e-5)

    def test_accept_without_stage_rejected(self, slater):
        det, _, _ = slater
        with pytest.raises(RuntimeError):
            det.accept_move(0)
