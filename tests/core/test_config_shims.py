"""Deprecation shims: every old kwarg spelling still works, and warns once.

The PR9 contract for the old per-call knobs (``tile_size=``,
``chunk_size=``, ``backend=``) is *kept one release*: behaviour is
unchanged, a single :class:`DeprecationWarning` fires per call, and the
new ``config=RunConfig(...)`` spelling is silent.  Each surface gets the
same three checks so nothing half-migrates.
"""

import subprocess
import sys

import numpy as np
import pytest

from repro.config import RunConfig
from repro.qmc.dmc import build_dmc_ensemble
from repro.qmc.rng import WalkerRngPool


@pytest.fixture(scope="module")
def ensemble():
    pool = WalkerRngPool(11)
    walkers = build_dmc_ensemble(pool, 2, n_orbitals=2, grid_shape=(8, 8, 8))
    return walkers


def _spos(ensemble):
    return ensemble[0].wf.slater.spos


class TestQmcSurfaces:
    def test_build_dmc_ensemble_old_kwargs_warn_once(self):
        pool = WalkerRngPool(11)
        with pytest.warns(DeprecationWarning, match="SplineOrbitalSet") as rec:
            build_dmc_ensemble(
                pool, 1, n_orbitals=2, grid_shape=(8, 8, 8),
                tile_size=2, chunk_size=4,
            )
        assert len(rec) == 1

    def test_build_dmc_ensemble_config_is_silent(self, recwarn):
        pool = WalkerRngPool(11)
        build_dmc_ensemble(
            pool, 1, n_orbitals=2, grid_shape=(8, 8, 8),
            config=RunConfig(tile_size=2, chunk_size=4),
        )
        assert not [w for w in recwarn.list if w.category is DeprecationWarning]

    def test_old_and_new_spellings_agree_bitwise(self):
        def values(**kwargs):
            pool = WalkerRngPool(11)
            walkers = build_dmc_ensemble(
                pool, 1, n_orbitals=2, grid_shape=(8, 8, 8), **kwargs
            )
            spos = walkers[0].wf.slater.spos
            rng = np.random.default_rng(3)
            return spos.values_batch(rng.random((5, 3)) * 2.0)

        with pytest.warns(DeprecationWarning):
            old = values(tile_size=2, chunk_size=4)
        new = values(config=RunConfig(tile_size=2, chunk_size=4))
        np.testing.assert_array_equal(old, new)

    def test_configure_batched_old_kwargs_warn_once(self, ensemble):
        spos = _spos(ensemble)
        with pytest.warns(DeprecationWarning, match="configure_batched") as rec:
            spos.configure_batched(tile_size=2, chunk_size=4)
        assert len(rec) == 1
        spos.configure_batched(config=None)  # reset, silently

    def test_crowd_state_old_kwargs_warn_once(self, ensemble):
        from repro.qmc.batched_step import CrowdState

        wfs = [w.wf for w in ensemble]
        rngs = [w.rng for w in ensemble]
        with pytest.warns(DeprecationWarning, match="CrowdState") as rec:
            CrowdState(wfs, rngs, tile_size=2, chunk_size=4)
        assert len(rec) == 1
        CrowdState(wfs, rngs, config=RunConfig(tile_size=2, chunk_size=4))


class TestParallelSurfaces:
    def test_crowd_spec_old_kwargs_warn_once(self):
        from repro.parallel import CrowdSpec

        with pytest.warns(DeprecationWarning, match="CrowdSpec") as rec:
            spec = CrowdSpec(
                n_walkers=2, n_orbitals=2, seed=1,
                tile_size=2, chunk_size=4, backend="numpy",
            )
        assert len(rec) == 1
        # The shim folds the old fields into the resolved RunConfig.
        cfg = spec.run_config()
        assert (cfg.tile_size, cfg.chunk_size, cfg.backend) == (2, 4, "numpy")

    def test_crowd_spec_config_is_silent(self, recwarn):
        from repro.parallel import CrowdSpec

        CrowdSpec(
            n_walkers=2, n_orbitals=2, seed=1,
            config=RunConfig(tile_size=2, chunk_size=4),
        )
        assert not [w for w in recwarn.list if w.category is DeprecationWarning]


class TestMiniQmcSurfaces:
    def test_miniqmc_config_old_kwargs_warn_once(self):
        from repro.miniqmc.config import MiniQmcConfig

        with pytest.warns(DeprecationWarning, match="MiniQmcConfig") as rec:
            cfg = MiniQmcConfig(8, (8, 8, 8), chunk_size=8, backend="numpy")
        assert len(rec) == 1
        run = cfg.run_config()
        assert (run.chunk_size, run.backend) == (8, "numpy")

    def test_miniqmc_tile_size_is_not_deprecated(self, recwarn):
        # tile_size is the physical AoSoA block width (the paper's Nb),
        # not a tuning knob — it stays a first-class field.
        from repro.miniqmc.config import MiniQmcConfig

        MiniQmcConfig(8, (8, 8, 8), tile_size=8)
        assert not [w for w in recwarn.list if w.category is DeprecationWarning]

    def test_build_app_old_kwargs_warn_once(self):
        from repro.miniqmc.app import build_app

        with pytest.warns(DeprecationWarning, match="build_app") as rec:
            build_app(
                n_orbitals=4, grid_shape=(8, 8, 8), profile=False,
                chunk_size=4,
            )
        assert len(rec) == 1


class TestModuleShim:
    def test_supported_spellings_stay_silent(self):
        code = (
            "import warnings\n"
            "with warnings.catch_warnings(record=True) as rec:\n"
            "    warnings.simplefilter('always')\n"
            "    from repro.tune import plan_tiles\n"
            "    from repro.core import plan_tiles as core_plan\n"
            "assert not [w for w in rec\n"
            "            if issubclass(w.category, DeprecationWarning)], rec\n"
            "assert plan_tiles is core_plan\n"
        )
        subprocess.run([sys.executable, "-c", code], check=True)
