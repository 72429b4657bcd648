"""Bitwise identity of the batched population step vs the per-walker oracle.

The contract: the production step (:class:`CrowdState` +
:func:`batched_sweep`) must reproduce the sequential per-walker
:func:`repro.qmc.drift_diffusion.sweep` *bit for bit* — same positions,
same energy traces, same acceptance counts.  Everything here uses
``assert_array_equal`` / ``==``, never tolerances.
"""

import numpy as np
import pytest

from repro.lattice import (
    Cell,
    PlaneWaveOrbitalSet,
    graphite_basis_frac,
    graphite_unit_cell,
    wigner_seitz_radius,
)
from repro.qmc import (
    LocalEnergy,
    ParticleSet,
    SlaterJastrow,
    SplineOrbitalSet,
    WalkerRngPool,
    make_polynomial_radial,
    run_vmc,
    sweep,
)
from repro.qmc.batched_step import CrowdState, _ufunc_equal, batched_sweep
from repro.qmc.dmc import _crowd_groups, build_dmc_ensemble
from tests.qmc.test_wavefunction import build_wf


def build_population(
    n_walkers=3, n_orb=2, seed=7, layout="soa", with_jastrow=True,
    vary_radials=False, graphite=False,
):
    """Walkers sharing one orbital set, plus matched private streams.

    ``vary_radials`` gives every walker its own Jastrow strengths, so no
    radial can be evaluated stacked.  ``graphite`` puts the walkers in
    the hexagonal graphite cell with its four carbon ions, where the
    crowd computes every trial distance row through the tables'
    non-orthorhombic minimal-image search.
    """
    cell = graphite_unit_cell() if graphite else Cell.cubic(6.0)
    pw = PlaneWaveOrbitalSet(cell, n_orb)
    spos = SplineOrbitalSet.from_orbital_functions(
        cell, pw, (8, 8, 8), engine="fused", dtype=np.float64
    )
    rcut = 0.9 * wigner_seitz_radius(cell)
    wfs, rngs = [], []
    for w in range(n_walkers):
        wrng = np.random.default_rng(seed + 100 * w)
        frac = graphite_basis_frac() if graphite else wrng.random((2, 3))
        ions = ParticleSet("ion", cell, cell.frac_to_cart(frac))
        electrons = ParticleSet.random("e", cell, 2 * n_orb, wrng)
        scale = 1.0 + 0.25 * w if vary_radials else 1.0
        j1 = make_polynomial_radial(0.4 * scale, rcut) if with_jastrow else None
        j2 = make_polynomial_radial(0.6 * scale, rcut) if with_jastrow else None
        wfs.append(SlaterJastrow(electrons, ions, spos, j1, j2, layout=layout))
        rngs.append(np.random.default_rng(5000 + w))
    return wfs, rngs


def stored_arrays(wf):
    """Every array of derived state a walker stores, by name."""
    arrays = {"positions": wf.electrons.positions}
    for spin, det in enumerate(wf.slater.dets):
        arrays[f"A{spin}"] = det.A
        arrays[f"Ainv{spin}"] = det.Ainv
        arrays[f"log_det{spin}"] = det.log_det
        arrays[f"sign{spin}"] = det.sign
    for name in ("ee_table", "ei_table"):
        table = getattr(wf, name)
        arrays[f"{name}.distances"] = table.distances
        arrays[f"{name}.displacements"] = table.displacements
    for name in ("j1", "j2"):
        jastrow = getattr(wf, name)
        if jastrow is not None:
            arrays[f"{name}.usum"] = jastrow._usum
            arrays[f"{name}.radials"] = jastrow.radials
    return arrays


def assert_walkers_bitwise_equal(wfs_a, wfs_b):
    """Walker by walker, every stored array and log_value are equal."""
    for wa, wb in zip(wfs_a, wfs_b):
        got, want = stored_arrays(wa), stored_arrays(wb)
        assert got.keys() == want.keys()
        for name in want:
            np.testing.assert_array_equal(got[name], want[name], err_msg=name)
        assert wa.log_value == wb.log_value


class TestBatchedSweepIdentity:
    @pytest.mark.parametrize(
        "layout, case",
        [
            pytest.param("soa", {}, id="soa"),
            pytest.param("aos", {}, id="aos"),
            pytest.param("soa", {"graphite": True, "n_orb": 4}, id="soa-graphite"),
            pytest.param("aos", {"graphite": True, "n_orb": 4}, id="aos-graphite"),
            pytest.param("soa", {"vary_radials": True}, id="soa-unshared"),
        ],
    )
    def test_sweeps_match_per_walker_bitwise(self, layout, case):
        wfs_b, rngs_b = build_population(3, layout=layout, **case)
        wfs_s, rngs_s = build_population(3, layout=layout, **case)
        state = CrowdState(wfs_b, rngs_b)
        acc_total = 0
        for _ in range(3):
            acc, _ = batched_sweep(state, 0.25)
            acc_total += acc
        acc_seq = 0
        for wf, rng in zip(wfs_s, rngs_s):
            for _ in range(3):
                a, _ = sweep(wf, 0.25, rng)
                acc_seq += a
        assert acc_total == acc_seq
        assert_walkers_bitwise_equal(wfs_b, wfs_s)

    def test_every_stored_array_matches_at_blas_size(self):
        """4 walkers x 32 electrons (N=16), where the contractions go
        through BLAS: after two sweeps every array a walker stores —
        both spins' A, Ainv, log_det and sign, both tables, the Jastrow
        u-sums and radial rows — is bitwise the per-walker oracle's."""
        wfs_b, rngs_b = build_population(4, n_orb=16)
        wfs_s, rngs_s = build_population(4, n_orb=16)
        state = CrowdState(wfs_b, rngs_b)
        for _ in range(2):
            batched_sweep(state, 0.25)
        for wf, rng in zip(wfs_s, rngs_s):
            for _ in range(2):
                sweep(wf, 0.25, rng)
        assert_walkers_bitwise_equal(wfs_b, wfs_s)

    @pytest.mark.parametrize("rows", ["cc", "numpy"])
    @pytest.mark.parametrize(
        "case, use_drift",
        [
            pytest.param({"n_orb": 16}, True, id="blas-size"),
            pytest.param({}, False, id="no-drift"),
            pytest.param({"with_jastrow": False}, True, id="bare-slater"),
        ],
    )
    def test_soa_matches_on_either_row_path(self, rows, case, use_drift):
        """The soa crowd on each row path: the compiled rows, radials and
        commit (the default where the orbitals run ``cc``), and the
        NumPy methods every other crowd runs."""
        wfs_b, rngs_b = build_population(4, **case)
        wfs_s, rngs_s = build_population(4, **case)
        state = CrowdState(wfs_b, rngs_b)
        if rows == "numpy":
            state._cc = None
        elif state._cc is None:
            pytest.skip("the compiled row path needs the cc backend")
        for _ in range(3):
            batched_sweep(state, 0.25, use_drift=use_drift)
        for wf, rng in zip(wfs_s, rngs_s):
            for _ in range(3):
                sweep(wf, 0.25, rng, use_drift=use_drift)
        assert_walkers_bitwise_equal(wfs_b, wfs_s)
        for rb, rs in zip(rngs_b, rngs_s):
            assert rb.random() == rs.random()

    def test_no_drift_mode_matches(self):
        wfs_b, rngs_b = build_population(2)
        wfs_s, rngs_s = build_population(2)
        state = CrowdState(wfs_b, rngs_b)
        acc_b, _ = batched_sweep(state, 0.3, use_drift=False)
        acc_s = sum(
            sweep(wf, 0.3, rng, use_drift=False)[0]
            for wf, rng in zip(wfs_s, rngs_s)
        )
        assert acc_b == acc_s
        assert_walkers_bitwise_equal(wfs_b, wfs_s)

    def test_bare_slater_matches(self):
        wfs_b, rngs_b = build_population(2, with_jastrow=False)
        wfs_s, rngs_s = build_population(2, with_jastrow=False)
        state = CrowdState(wfs_b, rngs_b)
        batched_sweep(state, 0.2)
        for wf, rng in zip(wfs_s, rngs_s):
            sweep(wf, 0.2, rng)
        assert_walkers_bitwise_equal(wfs_b, wfs_s)

    def test_rng_streams_consumed_identically(self):
        wfs_b, rngs_b = build_population(2)
        wfs_s, rngs_s = build_population(2)
        batched_sweep(CrowdState(wfs_b, rngs_b), 0.25)
        for wf, rng in zip(wfs_s, rngs_s):
            sweep(wf, 0.25, rng)
        # Post-sweep draws must agree too: same number of variates used.
        for rb, rs in zip(rngs_b, rngs_s):
            assert rb.random() == rs.random()

    def test_state_positions_track_walkers(self):
        wfs, rngs = build_population(2)
        state = CrowdState(wfs, rngs)
        batched_sweep(state, 0.25)
        for w, wf in enumerate(wfs):
            np.testing.assert_array_equal(
                state.positions[w], wf.electrons.positions
            )

    def test_batched_call_count(self):
        wfs, rngs = build_population(2)
        state = CrowdState(wfs, rngs)
        batched_sweep(state, 0.1)
        # One batched call per electron index per sweep, plus one drift
        # cache over all committed positions at the sweep start.
        assert state.n_batched_calls == state.n_electrons + 1


class TestResidentState:
    """Walkers hold views of their crowd rows: one copy of walker state."""

    def test_out_of_band_writes_land_in_the_crowd(self):
        wfs, rngs = build_population(2)
        state = CrowdState(wfs, rngs)
        wf = wfs[1]
        cell = wf.electrons.cell
        moved = cell.wrap_cart(wf.electrons.positions + 0.3)
        wf.electrons.load_positions(moved, wrap=False)
        wf.recompute()
        np.testing.assert_array_equal(state.positions[1], moved)
        fresh = build_population(2)[0][1]
        fresh.electrons.load_positions(moved, wrap=False)
        fresh.recompute()
        crowd_rows = {
            "A0": state.A[1, 0], "Ainv0": state.Ainv[1, 0],
            "log_det0": state.log_det[1, 0], "sign0": state.sign[1, 0],
            "ee_table.distances": state.ee_dist[1],
            "ee_table.displacements": state.ee_disp[1],
            "ei_table.distances": state.ei_dist[1],
            "j2.radials": state._jastrows[1].radials[1],
        }
        want = stored_arrays(fresh)
        for name, row in crowd_rows.items():
            np.testing.assert_array_equal(row, want[name], err_msg=name)

    def test_clone_owns_its_arrays(self):
        pool = WalkerRngPool(3)
        walkers = build_dmc_ensemble(pool, 2, n_orbitals=2, grid_shape=(8, 8, 8))
        state = CrowdState([w.wf for w in walkers], [w.rng for w in walkers])
        clone = walkers[0].clone(pool.next_rng())
        wf = clone.wf
        owned = [wf.electrons.R.data]
        for det in wf.slater.dets:
            owned += [det.A, det.Ainv, det._log_det, det._sign]
        for table in (wf.ee_table, wf.ei_table):
            owned += [table.distances, table.displacements]
        for jastrow in (wf.j1, wf.j2):
            owned += [jastrow._usum, jastrow.radials]
        blocks = [state._R, state.A, state.Ainv, state.log_det, state.sign]
        blocks += [state.ee_dist, state.ee_disp, state.ei_dist, state.ei_disp]
        blocks += [b for f in state._jastrows for b in (f.usum, f.radials)]
        for array in owned:
            assert not any(np.shares_memory(array, block) for block in blocks)
        batched_sweep(state, 0.1)
        # The crowd moved walker 0; its clone kept the old configuration.
        assert not np.array_equal(
            clone.wf.electrons.positions, walkers[0].wf.electrons.positions
        )


class TestVmcStepModes:
    def test_vmc_traces_bitwise_identical(self):
        """run_vmc (the batched step, a crowd of one) replays the
        per-walker sweep oracle: same energies, same acceptance."""
        n_warmup, n_steps, tau, every = 2, 8, 0.3, 4
        rng = np.random.default_rng(20170401)
        wf = build_wf(rng, n_orb=2)
        result = run_vmc(
            wf, rng, n_steps=n_steps, n_warmup=n_warmup, tau=tau,
            recompute_every=every,
        )

        rng = np.random.default_rng(20170401)
        wf = build_wf(rng, n_orb=2)
        estimator = LocalEnergy(wf, 4.0)
        energies, accepted, attempted = [], 0, 0
        for step in range(n_warmup + n_steps):
            acc, att = sweep(wf, tau, rng)
            accepted += acc
            attempted += att
            if (step + 1) % every == 0:
                wf.recompute()
            if step >= n_warmup:
                energies.append(estimator.total())
        np.testing.assert_array_equal(result.energies, energies)
        assert result.acceptance == accepted / attempted


class TestDmcStepModes:
    def test_branching_clones_stay_in_one_crowd(self):
        pool = WalkerRngPool(11)
        walkers = build_dmc_ensemble(pool, 2, n_orbitals=2, grid_shape=(8, 8, 8))
        clone = walkers[0].clone(pool.next_rng())
        assert clone.wf.slater.spos is walkers[0].wf.slater.spos
        groups = _crowd_groups(walkers + [clone])
        assert len(groups) == 1
        assert len(groups[0]) == 3


class TestCrowdStateValidation:
    def test_requires_shared_spos(self):
        wfs, rngs = build_population(2)
        # A walker on its own (equal-valued) orbital set cannot join.
        stranger = build_population(1)[0][0]
        with pytest.raises(ValueError, match="share one orbital set"):
            CrowdState([wfs[0], stranger], rngs)

    def test_requires_one_rng_per_walker(self):
        wfs, rngs = build_population(2)
        with pytest.raises(ValueError, match="one rng"):
            CrowdState(wfs, rngs[:1])

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one walker"):
            CrowdState([], [])

    def test_rejects_mixed_jastrow_structure(self):
        wfs, rngs = build_population(2)
        bare = build_population(1, with_jastrow=False)[0][0]
        # Rebuild the bare walker on the shared orbital set.
        cell = wfs[0].electrons.cell
        rng = np.random.default_rng(0)
        ions = ParticleSet("ion", cell, cell.frac_to_cart(rng.random((2, 3))))
        electrons = ParticleSet.random("e", cell, len(wfs[0].electrons), rng)
        bare = SlaterJastrow(electrons, ions, wfs[0].slater.spos)
        with pytest.raises(ValueError, match="Jastrow structure"):
            CrowdState([wfs[0], bare], rngs)

    def test_rejects_mixed_layouts(self):
        wfs, rngs = build_population(2)
        wf = wfs[1]
        aos = SlaterJastrow(
            wf.electrons, wf.ions, wf.slater.spos, wf.j1.u, wf.j2.u, layout="aos"
        )
        with pytest.raises(ValueError, match="table layout"):
            CrowdState([wfs[0], aos], rngs)

    def test_equal_radials_are_shared(self):
        # build_population gives each walker its own (identical) radials;
        # the crowd must still detect value equality and batch them.
        wfs, rngs = build_population(2)
        state = CrowdState(wfs, rngs)
        assert state._share_j1 and state._share_j2

    def test_ufunc_equal_semantics(self):
        rcut = 2.0
        a = make_polynomial_radial(0.4, rcut)
        b = make_polynomial_radial(0.4, rcut)
        c = make_polynomial_radial(0.5, rcut)
        assert _ufunc_equal(a, a)
        assert _ufunc_equal(a, b)
        assert not _ufunc_equal(a, c)
        assert not _ufunc_equal(a, object())
