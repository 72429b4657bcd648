"""Unit tests for local-energy estimators."""

import numpy as np
import pytest

from repro.lattice import Cell, minimal_image_distances
from repro.qmc import (
    CrowdLocalEnergy,
    CrowdState,
    DistanceTableAA,
    DistanceTableAB,
    LocalEnergy,
    ParticleSet,
    WalkerRngPool,
    batched_sweep,
    coulomb_ee,
    coulomb_ei,
    coulomb_ii,
    kinetic_energy,
)
from repro.qmc.dmc import build_dmc_ensemble
from tests.qmc.test_batched_step import build_population
from tests.qmc.test_wavefunction import build_wf


class TestCoulomb:
    def test_ee_two_particles(self):
        cell = Cell.cubic(10.0)
        pset = ParticleSet("e", cell, np.array([[0.0, 0, 0], [2.0, 0, 0]]))
        table = DistanceTableAA(pset)
        assert np.isclose(coulomb_ee(table), 0.5)

    def test_ee_matches_brute_force(self, rng):
        cell = Cell.cubic(8.0)
        pset = ParticleSet.random("e", cell, 6, rng)
        table = DistanceTableAA(pset)
        d = minimal_image_distances(cell, pset.positions, pset.positions)
        iu = np.triu_indices(6, k=1)
        assert np.isclose(coulomb_ee(table), np.sum(1.0 / d[iu]))

    def test_ei_sign_and_charge(self, rng):
        cell = Cell.cubic(8.0)
        ions = ParticleSet("ion", cell, cell.frac_to_cart(rng.random((2, 3))))
        els = ParticleSet.random("e", cell, 4, rng)
        table = DistanceTableAB(ions, els)
        v1 = coulomb_ei(table, ion_charge=1.0)
        v4 = coulomb_ei(table, ion_charge=4.0)
        assert v1 < 0
        assert np.isclose(v4, 4 * v1)

    def test_ii_constant(self):
        cell = Cell.cubic(10.0)
        ions = np.array([[0.0, 0, 0], [5.0, 0, 0]])
        assert np.isclose(coulomb_ii(ions, cell, ion_charge=2.0), 4.0 / 5.0)


class TestKinetic:
    def test_kinetic_of_smooth_wavefunction_is_finite(self, rng):
        wf = build_wf(rng)
        ke = kinetic_energy(wf)
        assert np.isfinite(ke)

    def test_kinetic_invariant_under_rigid_translation(self, rng):
        # Translating all electrons by a lattice vector leaves E_kin.
        wf = build_wf(rng)
        ke0 = kinetic_energy(wf)
        shift = wf.electrons.cell.lattice[0]
        wf.electrons.load_positions(wf.electrons.positions + shift)
        wf.recompute()
        ke1 = kinetic_energy(wf)
        assert np.isclose(ke0, ke1, atol=1e-6)

    def test_local_energy_total(self, rng):
        wf = build_wf(rng)
        est = LocalEnergy(wf, ion_charge=4.0)
        assert np.isclose(est.total(), est.kinetic() + est.potential())

    def test_ii_constant_cached(self, rng):
        wf = build_wf(rng)
        est = LocalEnergy(wf)
        assert np.isclose(
            est.e_ii, coulomb_ii(wf.ions.positions, wf.ions.cell, 4.0)
        )


def swept_crowd(n_walkers, **kwargs):
    """A crowd on one orbital set after two batched sweeps.

    Eight electrons: from eight terms on, a vectorised sum over
    electrons rounds differently from the oracle's running sum, so the
    tests can see one.
    """
    wfs, rngs = build_population(n_walkers, n_orb=4, **kwargs)
    state = CrowdState(wfs, rngs)
    for _ in range(2):
        batched_sweep(state, 0.2)
    return state


class TestCrowdLocalEnergy:
    """The crowd estimator is bitwise the per-walker oracle."""

    @staticmethod
    def assert_matches_oracle(state, ion_charge=4.0):
        got = CrowdLocalEnergy(state, ion_charge).total()
        want = [LocalEnergy(wf, ion_charge).total() for wf in state.wfs]
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(state.e_local, want)

    def test_dmc_ensemble_after_sweeps(self):
        pool = WalkerRngPool(5)
        walkers = build_dmc_ensemble(pool, 4, n_orbitals=4, grid_shape=(8, 8, 8))
        state = CrowdState([w.wf for w in walkers], [w.rng for w in walkers])
        assert state._share_j1 and state._share_j2
        for _ in range(3):
            batched_sweep(state, 0.1)
        self.assert_matches_oracle(state)

    def test_unshared_radials(self):
        state = swept_crowd(3, vary_radials=True)
        assert not state._share_j1 and not state._share_j2
        self.assert_matches_oracle(state, ion_charge=2.0)

    def test_aos_layout(self):
        self.assert_matches_oracle(swept_crowd(3, layout="aos"))

    def test_no_jastrow(self):
        self.assert_matches_oracle(swept_crowd(3, with_jastrow=False))

    def test_crowd_of_one(self):
        self.assert_matches_oracle(swept_crowd(1))

    def test_next_sweep_reuses_the_measured_block(self):
        state = swept_crowd(2)
        CrowdLocalEnergy(state).total()
        g, lap = state.committed_vgl()
        _, g_ref, lap_ref = state.spos.vgl_batch(state.positions.reshape(-1, 3))
        np.testing.assert_array_equal(g, g_ref.reshape(g.shape))
        np.testing.assert_array_equal(lap, lap_ref.reshape(lap.shape))
        calls = state.n_batched_calls
        batched_sweep(state, 0.2)
        # One trial-position call per electron; no drift-cache call.
        assert state.n_batched_calls - calls == state.n_electrons
