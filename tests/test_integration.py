"""End-to-end integration tests across all subsystems.

Each test exercises a full pipeline rather than one module:
orbitals -> coefficient solve -> engines -> QMC -> estimators,
and the model/trace consistency of the hardware substrate.
"""

import numpy as np
import pytest

from repro.core import (
    BsplineAoSoA,
    BsplineBatched,
    Grid3D,
    Kind,
    NestedEvaluator,
    solve_coefficients_3d,
)
from repro.hwsim import (
    KNL,
    BsplinePerfModel,
    SetAssociativeCache,
    TraceBuilder,
    working_set_report,
)
from repro.lattice import Cell, PlaneWaveOrbitalSet, graphite_unit_cell
from repro.miniqmc.app import build_app, run_profiled
from repro.qmc import LocalEnergy, WalkerRngPool, run_vmc
from tests.qmc.test_wavefunction import build_wf


class TestOrbitalPipeline:
    def test_spline_qmc_energy_close_to_analytic_orbital_energy(self, rng):
        """The decisive cross-subsystem test: a QMC local energy computed
        through the *spline* pipeline must agree with the same quantity
        computed from the analytic orbitals the spline was fitted to.
        """
        cell = Cell.cubic(6.0)
        n_orb = 4
        pw = PlaneWaveOrbitalSet(cell, n_orb)

        # Independent analytic evaluation of grad/lap log det at the
        # current configuration via the exact orbitals.
        from repro.qmc import ParticleSet, SplineOrbitalSet, SlaterDet

        spos = SplineOrbitalSet.from_orbital_functions(
            cell, pw, (20, 20, 20), engine="fused", dtype=np.float64
        )
        electrons = ParticleSet.random("e", cell, 2 * n_orb, rng)
        det = SlaterDet(spos, electrons)

        # Analytic Slater matrix for the same electrons.
        A_up = pw.evaluate(electrons.positions[:n_orb])
        sign, logdet = np.linalg.slogdet(A_up)
        assert np.isclose(det.dets[0].log_det, logdet, atol=5e-3)

        # Per-electron gradient of log det via both routes.
        g_spline, _ = det.grad_lap(0)
        v, g, lap = pw.evaluate_vgl(electrons.positions[:1])
        ainv = np.linalg.inv(A_up)
        g_analytic = g[0] @ ainv[:, 0]
        np.testing.assert_allclose(g_spline, g_analytic, atol=5e-2)

    def test_vmc_energy_insensitive_to_engine(self):
        """Same seed, same physics: the local energy after a fixed VMC
        trajectory must be engine-independent (fused vs soa)."""
        energies = {}
        for engine in ("soa", "fused"):
            rng = np.random.default_rng(123)
            wf = build_wf(rng)  # always fused internally; rebuild manually
            # build_wf fixes engine; instead compare trajectories of the
            # same wavefunction class with different engines:
            from repro.lattice import PlaneWaveOrbitalSet, wigner_seitz_radius
            from repro.qmc import (
                ParticleSet,
                SlaterJastrow,
                SplineOrbitalSet,
                make_polynomial_radial,
            )

            rng = np.random.default_rng(123)
            cell = Cell.cubic(6.0)
            pw = PlaneWaveOrbitalSet(cell, 4)
            spos = SplineOrbitalSet.from_orbital_functions(
                cell, pw, (14, 14, 14), engine=engine, dtype=np.float64
            )
            ions = ParticleSet("ion", cell, cell.frac_to_cart(rng.random((2, 3))))
            els = ParticleSet.random("e", cell, 8, rng)
            rcut = 0.9 * 3.0
            wf = SlaterJastrow(
                els, ions, spos,
                make_polynomial_radial(0.4, rcut),
                make_polynomial_radial(0.6, rcut),
            )
            res = run_vmc(wf, np.random.default_rng(7), n_steps=3, n_warmup=1, tau=0.2)
            energies[engine] = res.energies
        np.testing.assert_allclose(energies["soa"], energies["fused"], atol=1e-6)


class TestEngineInteroperability:
    def test_nested_tiled_batched_all_agree(self, rng):
        grid = Grid3D(10, 10, 10)
        samples = rng.standard_normal((10, 10, 10, 32))
        P = solve_coefficients_3d(samples, dtype=np.float64)
        positions = grid.random_positions(5, rng)

        batched = BsplineBatched(grid, P)
        b_out = batched.new_output(Kind.VGH, n=5)
        batched.vgh_batch(positions, b_out)

        tiled = BsplineAoSoA(grid, P, 8)
        t_out = tiled.new_output(Kind.VGH)
        with NestedEvaluator(tiled, 3) as nested:
            nested.evaluate(Kind.VGH, positions, t_out)
        # Nested leaves the last position's results in the tiles.
        np.testing.assert_allclose(
            t_out.as_canonical()["v"], b_out.v[-1], atol=1e-9
        )
        np.testing.assert_allclose(
            t_out.as_canonical()["h"][0, 1], b_out.h[-1, 1], atol=1e-8
        )


class TestModelTraceConsistency:
    def test_model_llc_claim_verified_by_simulation(self, rng):
        """The model says a BDW Nb=64 slab fits the LLC while Nb=128 does
        not; scale the claim down 64x and verify with the real LRU cache."""
        # Scaled problem: grid 12^3, LLC-analog of 45MB/64 ~ 720KB.
        cache_bytes = 1 << 20  # 1 MB, power-of-two for the simulator
        grid = (12, 12, 12)
        fits, thrashes = {}, {}
        for nb, store in ((32, fits), (512, thrashes)):
            slab = 12**3 * nb * 4
            tb = TraceBuilder(grid, nb)
            cache = SetAssociativeCache(cache_bytes, assoc=16)
            idx = tb.random_position_indices(60, rng)
            cache.access_lines(tb.walker_trace(idx, "vgh", "soa"))
            store["slab"] = slab
            store["rate"] = cache.stats.hit_rate
        assert fits["slab"] < cache_bytes < thrashes["slab"]
        assert fits["rate"] > thrashes["rate"] + 0.15

    def test_working_set_report_matches_model_fit_decision(self):
        model = BsplinePerfModel(KNL)
        rep = working_set_report(KNL, "vgh", 2048, 512)
        # KNL has no LLC: the report and the model must agree on that.
        assert not rep.fits_llc
        assert not model.slab_fits_llc(512, 256, "vgh", "soa", 1)


class TestFullApplication:
    def test_profiled_app_runs_and_energy_is_finite(self):
        app = build_app(n_orbitals=6, grid_shape=(10, 10, 10))
        run_profiled(app, n_sweeps=2)
        est = LocalEnergy(app.wf)
        assert np.isfinite(est.total())

    def test_walker_pool_feeds_independent_apps(self):
        pool = WalkerRngPool(9)
        apps = [build_app(n_orbitals=4, grid_shape=(8, 8, 8), seed=s)
                for s in (1, 2)]
        e = []
        for app in apps:
            run_profiled(app, n_sweeps=1)
            e.append(app.wf.log_value)
        assert e[0] != e[1]
