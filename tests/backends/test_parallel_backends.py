"""Parallel bit-identity, per backend: sharding must never change a bit.

The fleet contract extends to pluggable backends: every worker resolves
the spec's backend *name* independently (instances never cross a
process boundary), so a sharded run must be ``assert_array_equal``-
identical to the sequential run **with the same backend** — for any
worker count, under ``fork`` and ``spawn`` alike.

Cross-backend, every backend is exact tier, so each one's trajectory is
also the NumPy floor's, bit for bit.

Parametrized over the live registry — a new backend is covered with
zero edits here.
"""

import multiprocessing as mp
from pathlib import Path

import numpy as np
import pytest

from repro.backends import get_backend, registered_backends
from repro.config import RunConfig
from repro.parallel import (
    CrowdSpec,
    run_crowd_parallel,
    run_crowd_sequential,
    run_dmc_sharded,
)

GENS, TAU_DMC = 3, 0.04
N_SWEEPS, TAU_CROWD = 2, 0.1

BACKENDS = registered_backends()
START_METHODS = [m for m in ("fork", "spawn") if m in mp.get_all_start_methods()]

_SHM_DIR = Path("/dev/shm")


def _shm_segments() -> set[str]:
    if not _SHM_DIR.is_dir():
        return set()
    return {p.name for p in _SHM_DIR.iterdir()}


@pytest.fixture
def shm_sentinel():
    """No test may leak a shared-memory segment, whatever the backend."""
    before = _shm_segments()
    yield
    leaked = _shm_segments() - before
    assert not leaked, f"leaked shared-memory segments: {sorted(leaked)}"


def _require(name):
    backend = get_backend(name)
    if not backend.is_available():
        pytest.skip(backend.availability_error())
    return backend


def _dmc_spec(backend_name):
    return CrowdSpec(
        n_walkers=3, n_orbitals=2, seed=29, config=RunConfig(backend=backend_name)
    )


# Sequential references are deterministic in the spec, so compute each
# backend's once and share it across the worker-count/start-method grid.
_DMC_REFERENCE = {}


def _dmc_reference(backend_name):
    if backend_name not in _DMC_REFERENCE:
        _DMC_REFERENCE[backend_name] = run_dmc_sharded(
            _dmc_spec(backend_name),
            n_workers=1,
            n_generations=GENS,
            tau=TAU_DMC,
        )
    return _DMC_REFERENCE[backend_name]


def _assert_traces_equal(a, b):
    np.testing.assert_array_equal(a.energy_trace, b.energy_trace)
    np.testing.assert_array_equal(a.population_trace, b.population_trace)
    np.testing.assert_array_equal(a.e_trial_trace, b.e_trial_trace)
    assert a.acceptance == b.acceptance


@pytest.mark.parametrize("backend_name", BACKENDS)
class TestDmcSharded:
    @pytest.mark.parametrize("start_method", START_METHODS)
    @pytest.mark.parametrize("n_workers", [2, 3])
    def test_sharded_matches_sequential_same_backend(
        self, backend_name, n_workers, start_method, shm_sentinel
    ):
        _require(backend_name)
        sharded = run_dmc_sharded(
            _dmc_spec(backend_name),
            n_workers=n_workers,
            n_generations=GENS,
            tau=TAU_DMC,
            start_method=start_method,
        )
        _assert_traces_equal(sharded, _dmc_reference(backend_name))

    def test_exact_tier_matches_numpy_trajectory(self, backend_name):
        """Exact-tier backends reproduce the NumPy floor's trajectory."""
        _require(backend_name)
        baseline = run_dmc_sharded(
            _dmc_spec("numpy"),  # not None: the default may itself be cc
            n_workers=1,
            n_generations=GENS,
            tau=TAU_DMC,
        )
        _assert_traces_equal(_dmc_reference(backend_name), baseline)


@pytest.mark.parametrize("backend_name", BACKENDS)
class TestCrowdParallel:
    def test_parallel_matches_sequential_same_backend(
        self, backend_name, shm_sentinel
    ):
        _require(backend_name)
        spec = CrowdSpec(
            n_walkers=4, n_orbitals=2, seed=31, config=RunConfig(backend=backend_name)
        )
        sequential = run_crowd_sequential(spec, n_sweeps=N_SWEEPS, tau=TAU_CROWD)
        parallel = run_crowd_parallel(
            spec, n_workers=2, n_sweeps=N_SWEEPS, tau=TAU_CROWD
        )
        np.testing.assert_array_equal(parallel.positions, sequential.positions)
        np.testing.assert_array_equal(parallel.log_values, sequential.log_values)
        assert parallel.accepted == sequential.accepted
        assert parallel.attempted == sequential.attempted
