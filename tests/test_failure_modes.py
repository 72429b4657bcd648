"""Failure-injection tests: the library must fail loudly and recover cleanly.

A production library's error paths are part of its contract: corrupted
tables must not silently produce numbers, protocol misuse must raise, and
recovery paths (recompute, reject, population rescue) must restore a
consistent state.
"""

import numpy as np
import pytest

from repro.core import (
    BsplineAoSoA,
    BsplineSoA,
    Grid3D,
    Kind,
    NestedEvaluator,
    solve_coefficients_3d,
)
from repro.qmc import DiracDeterminant, DmcWalker, WalkerRngPool, run_dmc
from tests.qmc.test_wavefunction import build_wf


class TestCorruptedData:
    def test_nan_coefficients_propagate_not_crash(self, small_grid, small_table):
        bad = small_table.copy()
        bad[3, 4, 5, :] = np.nan
        eng = BsplineSoA(small_grid, bad)
        out = eng.new_output(Kind.VGH)
        # Position whose stencil covers the poisoned point.
        dx, dy, dz = small_grid.deltas
        eng.vgh(3.2 * dx, 4.1 * dy, 5.3 * dz, out)
        assert np.isnan(out.v).any()  # visible, not masked

    def test_inf_positions_raise_or_wrap(self, small_grid, small_table):
        eng = BsplineSoA(small_grid, small_table)
        out = eng.new_output(Kind.V)
        with pytest.raises((ValueError, OverflowError)):
            eng.v(np.inf, 0.0, 0.0, out)

    def test_nan_slater_matrix_rejected(self):
        A = np.eye(4)
        A[0, 0] = np.nan
        with pytest.raises((ValueError, np.linalg.LinAlgError)):
            DiracDeterminant(A)


class TestProtocolMisuse:
    def test_move_protocol_sequencing_enforced(self, rng):
        wf = build_wf(rng)
        with pytest.raises(RuntimeError):
            wf.accept_move(0)
        with pytest.raises(RuntimeError):
            wf.reject_move(0)
        wf.ratio_grad(0, wf.electrons[0] + 0.1)
        with pytest.raises(RuntimeError):
            wf.accept_move(1)  # wrong electron
        wf.reject_move(0)

    def test_state_recoverable_after_failed_accept(self, rng):
        wf = build_wf(rng)
        lv0 = wf.log_value
        wf.ratio_grad(2, wf.electrons[2] + 0.1)
        with pytest.raises(RuntimeError):
            wf.accept_move(3)
        # The staged move for electron 2 is still pending and rejectable.
        wf.reject_move(2)
        assert wf.log_value == lv0

    def test_nested_evaluator_unusable_after_close(self, small_grid, small_table):
        tiled = BsplineAoSoA(small_grid, small_table, 8)
        nested = NestedEvaluator(tiled, 2)
        nested.close()
        with pytest.raises(RuntimeError):
            nested.evaluate(
                Kind.V,
                small_grid.random_positions(1, np.random.default_rng(0)),
                tiled.new_output(Kind.V),
            )


class TestRecovery:
    def test_dmc_population_rescue_from_extinction(self):
        """A trial energy far below every local energy kills all walkers;
        the rescue path must keep exactly one alive."""
        pool = WalkerRngPool(2)
        walkers = [
            DmcWalker(wf=build_wf(pool.next_rng()), rng=pool.next_rng())
            for _ in range(2)
        ]
        # Huge tau + absurdly low feedback target drives weights to ~0.
        res = run_dmc(
            walkers, pool, n_generations=3, tau=5.0, feedback=0.0,
            target_population=2,
        )
        assert (res.population_trace >= 1).all()

    def test_dmc_population_cap_prevents_explosion(self):
        pool = WalkerRngPool(3)
        walkers = [DmcWalker(wf=build_wf(pool.next_rng()), rng=pool.next_rng())]
        res = run_dmc(
            walkers, pool, n_generations=3, tau=5.0, feedback=0.0,
            target_population=1, max_population_factor=3,
        )
        assert (res.population_trace <= 3).all()

    def test_determinant_recovers_via_recompute_after_near_singular(self, rng):
        A = rng.standard_normal((6, 6)) + 3 * np.eye(6)
        det = DiracDeterminant(A)
        # Drive the matrix toward singular with a nearly-dependent row.
        u = det.A[0] + 1e-13 * rng.standard_normal(6)
        r = det.ratio(1, u)
        det.accept_move(1)  # inverse now ill-conditioned
        # Recompute from the (still formally nonsingular) matrix restores
        # the A @ Ainv identity to the achievable precision.
        det.recompute()
        assert det.update_error < 1e-2  # limited by cond(A) ~ 1e13

    def test_wavefunction_recompute_heals_drift(self, rng):
        wf = build_wf(rng)
        # Hundreds of accepted moves accumulate rank-1 rounding.
        for i in range(100):
            e = int(rng.integers(0, len(wf.electrons)))
            r, _ = wf.ratio_grad(e, wf.electrons[e] + rng.standard_normal(3) * 0.1)
            if abs(r) > 1e-3:
                wf.accept_move(e)
            else:
                wf.reject_move(e)
        err_before = max(d.update_error for d in wf.slater.dets)
        wf.recompute()
        err_after = max(d.update_error for d in wf.slater.dets)
        assert err_after <= err_before
        assert err_after < 1e-10
