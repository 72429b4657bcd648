"""The measurement's per-geometry constants are computed once.

A DMC run builds a :class:`~repro.qmc.estimators.CrowdLocalEnergy` every
generation and measures every walker's Coulomb sums.  The upper-triangle
pair indices depend only on the particle count and the ion-ion energy
only on the ion geometry and charge, so both are memoised; the sums see
the same operands in the same order, so every energy keeps its bits.
"""

import numpy as np
import pytest

from repro.lattice.pbc import minimal_image_distances
from repro.qmc import estimators
from repro.qmc.estimators import CrowdLocalEnergy, LocalEnergy, coulomb_ii
from repro.qmc.batched_step import CrowdState
from tests.qmc.test_batched_step import build_population


@pytest.fixture
def ion_ion_calls(monkeypatch):
    """A fresh memo, and the number of ion-ion sums computed into it."""
    estimators._ion_ion_of.cache_clear()
    calls = []
    original = estimators.coulomb_ii

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(estimators, "coulomb_ii", counted)
    yield calls
    estimators._ion_ion_of.cache_clear()


class TestUpperTriangle:
    @pytest.mark.parametrize("n", [1, 2, 7, 64])
    def test_is_triu_indices_built_once_and_read_only(self, n):
        iu = estimators._upper_triangle(n)
        for got, want in zip(iu, np.triu_indices(n, k=1)):
            np.testing.assert_array_equal(got, want)
            assert not got.flags.writeable
        assert estimators._upper_triangle(n) is iu


class TestIonIon:
    def test_one_sum_per_geometry(self, ion_ion_calls):
        """Graphite walkers share their four ions: one sum serves all."""
        wfs, _ = build_population(3, graphite=True, n_orb=4)
        first = [estimators._ion_ion(wf, 4.0) for wf in wfs]
        again = [estimators._ion_ion(wf, 4.0) for wf in wfs]
        assert len(ion_ion_calls) == 1
        want = coulomb_ii(wfs[0].ions.positions, wfs[0].ions.cell, 4.0)
        assert first == again == [want] * 3
        # Another charge is another constant.
        estimators._ion_ion(wfs[0], 3.0)
        assert len(ion_ion_calls) == 2

    def test_walkers_with_their_own_ions_get_their_own_sums(self, ion_ion_calls):
        wfs, _ = build_population(3)
        values = [estimators._ion_ion(wf, 4.0) for wf in wfs]
        assert len(ion_ion_calls) == 3
        for wf, value in zip(wfs, values):
            d = minimal_image_distances(wf.ions.cell, wf.ions.positions, wf.ions.positions)
            assert value == 16.0 * float(np.sum(1.0 / d[np.triu_indices(2, k=1)]))

    def test_the_memo_keeps_a_bounded_number_of_geometries(self, ion_ion_calls):
        """The oldest geometry past the bound is recomputed, with its bits."""
        wfs, _ = build_population(1)
        first = estimators._ion_ion(wfs[0], 4.0)
        maxsize = estimators._ion_ion_of.cache_info().maxsize
        lattice = wfs[0].ions.cell.lattice.tobytes()
        for k in range(maxsize):
            ions = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0 + k / maxsize]])
            estimators._ion_ion_of(ions.shape, ions.tobytes(), lattice, 4.0)
        assert estimators._ion_ion_of.cache_info().currsize == maxsize
        assert estimators._ion_ion(wfs[0], 4.0) == first
        assert len(ion_ion_calls) == maxsize + 2

    def test_every_generations_estimator_reuses_it(self, ion_ion_calls):
        wfs, rngs = build_population(3, graphite=True, n_orb=4)
        state = CrowdState(wfs, rngs)
        energies = [CrowdLocalEnergy(state).total() for _ in range(3)]
        assert len(ion_ion_calls) == 1
        want = [LocalEnergy(wf, 4.0).total() for wf in wfs]
        for got in energies:
            np.testing.assert_array_equal(got, want)
