"""Local-energy estimators: kinetic, Coulomb, and their aggregate.

Paper Sec. III: after each drift-diffusion step "the physical quantities
(observables) such as the kinetic energy and Coulomb potential energies
are computed for each walker" — the measurement stage.  The V kernel is
"used with pseudopotentials for the local energy computation"; our
synthetic substitute uses bare minimal-image Coulomb sums (no Ewald),
which preserves the *computational* pattern (pair sums over distance
tables, orbital evaluations per electron) that the profile tables
measure, while keeping the physics self-consistent for the toy systems
the tests validate against.

Two estimators compute the same numbers.  :class:`LocalEnergy` measures
one walker, one electron at a time; it is the per-walker oracle, and the
only one that carries a nonlocal pseudopotential (the profiled miniQMC
app measures through it).  :class:`CrowdLocalEnergy` measures a whole
:class:`~repro.qmc.batched_step.CrowdState` in one batched pass from the
crowd's resident state — the orbital block of every committed position
the sweeps keep current, the cached Jastrow radial rows — and is what
the production drivers use.  Its result is bitwise equal to
``LocalEnergy(wf, ion_charge).total()`` per walker.
"""

from __future__ import annotations

import functools
import time

import numpy as np

from repro.obs import OBS
from repro.qmc.batched_step import CrowdState
from repro.qmc.distance_tables import DistanceTableAA, DistanceTableAB
from repro.qmc.jastrow import pair_grad, pair_lap, pair_weights
from repro.qmc.wavefunction import SlaterJastrow

__all__ = [
    "kinetic_energy",
    "coulomb_ee",
    "coulomb_ei",
    "coulomb_ii",
    "LocalEnergy",
    "CrowdLocalEnergy",
]


def kinetic_energy(wf: SlaterJastrow) -> float:
    """-(1/2) sum_e [lap log Psi + |grad log Psi|^2] at the current R.

    The standard local kinetic energy written in log-derivative form,
    which is exactly what :meth:`SlaterJastrow.grad_lap_logpsi` provides
    per electron.
    """
    total = 0.0
    for e in range(len(wf.electrons)):
        g, lap_log = wf.grad_lap_logpsi(e)
        total += lap_log + float(g @ g)
    return -0.5 * total


@functools.lru_cache(maxsize=None)
def _upper_triangle(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(n, k=1)``, built once per size and read-only."""
    iu = np.triu_indices(n, k=1)
    for index in iu:
        index.flags.writeable = False
    return iu


def coulomb_ee(table: DistanceTableAA) -> float:
    """Electron-electron repulsion sum_{i<j} 1 / r_ij (minimal image)."""
    d = table.distances
    r = d[_upper_triangle(d.shape[0])]
    return float(np.sum(1.0 / r))


def coulomb_ei(table: DistanceTableAB, ion_charge: float = 4.0) -> float:
    """Electron-ion attraction -Z sum_{i,I} 1 / r_iI (minimal image).

    The default charge matches the paper's carbon pseudopotential (4
    valence electrons per atom).
    """
    r = table.distances
    return -ion_charge * float(np.sum(1.0 / r))


def coulomb_ii(
    ion_positions: np.ndarray, cell, ion_charge: float = 4.0
) -> float:
    """Ion-ion repulsion Z^2 sum_{I<J} 1 / r_IJ — constant per geometry."""
    from repro.lattice.pbc import minimal_image_distances

    d = minimal_image_distances(cell, ion_positions, ion_positions)
    iu = _upper_triangle(d.shape[0])
    return ion_charge * ion_charge * float(np.sum(1.0 / d[iu]))


def _ion_ion(wf: SlaterJastrow, ion_charge: float) -> float:
    """The walker's ion-ion constant (zero for a single ion)."""
    if len(wf.ions) < 2:
        return 0.0
    positions = wf.ions.positions
    return _ion_ion_of(
        positions.shape,
        positions.tobytes(),
        wf.ions.cell.lattice.tobytes(),
        ion_charge,
    )


@functools.lru_cache(maxsize=1024, typed=True)
def _ion_ion_of(shape, positions: bytes, lattice: bytes, ion_charge) -> float:
    """:func:`coulomb_ii` per ion geometry and charge, from the bytes of
    the float64 positions and lattice: every walker on one geometry, and
    every generation's estimator, reads one sum.

    Bounded because a long-lived process (a server worker runs a fresh
    population, each walker with ions of its own, per request) would
    otherwise keep every geometry it ever measured.  A run has as many
    geometries as starting walkers (clones copy their parent's ions);
    past 1024 the sum is recomputed, with the same bits.
    """
    from repro.lattice.cell import Cell

    ions = np.frombuffer(positions).reshape(shape).copy()
    cell = Cell(np.frombuffer(lattice).reshape(3, 3))
    return coulomb_ii(ions, cell, ion_charge)


def _dot3(g: np.ndarray) -> np.ndarray:
    """``g @ g`` for each trailing 3-vector, through ``np.matmul``."""
    return np.matmul(g[..., np.newaxis, :], g[..., np.newaxis])[..., 0, 0]


class LocalEnergy:
    """Aggregate local-energy evaluator bound to one wavefunction.

    Parameters
    ----------
    wf:
        The wavefunction (provides tables and derivatives).
    ion_charge:
        Valence charge per ion.
    pseudopotential:
        Optional :class:`~repro.qmc.pseudopotential.NonlocalPseudopotential`
        whose quadrature term is added to the potential — the
        configuration in which the V kernel enters the QMC profile
        (paper Sec. IV).

    Notes
    -----
    The ion-ion constant is computed once at construction.
    """

    def __init__(
        self,
        wf: SlaterJastrow,
        ion_charge: float = 4.0,
        pseudopotential=None,
    ):
        self.wf = wf
        self.ion_charge = float(ion_charge)
        self.pseudopotential = pseudopotential
        self.e_ii = _ion_ion(wf, ion_charge)

    def kinetic(self) -> float:
        """Local kinetic energy at the walker's current configuration."""
        return kinetic_energy(self.wf)

    def potential(self) -> float:
        """Total potential: Coulomb (ee + ei + ii) + nonlocal PP term."""
        total = (
            coulomb_ee(self.wf.ee_table)
            + coulomb_ei(self.wf.ei_table, self.ion_charge)
            + self.e_ii
        )
        if self.pseudopotential is not None:
            total += self.pseudopotential.energy(self.wf)
        return total

    def total(self) -> float:
        """E_L = kinetic + potential."""
        return self.kinetic() + self.potential()


class CrowdLocalEnergy:
    """Local energies of a whole crowd, measured in one batched pass.

    The measurement stage of production VMC/DMC, read from the crowd's
    resident state.  Per-position set-up is paid once for the crowd
    instead of once per electron per walker: the orbital ``(g, lap)`` of
    every committed position (:meth:`CrowdState.committed_vgl`, the
    sweep's resident drift cache, so a measurement after a sweep makes
    no kernel call; ONE ``vgl_batch`` when the crowd has not swept yet),
    one stacked ``np.matmul``
    per spin against the inverses' columns, and the Jastrow terms from
    the resident radial rows over the whole ``(nw, ne, m)`` tables — no
    radial is evaluated.

    :meth:`total` is ``assert_array_equal`` to
    ``[LocalEnergy(wf, ion_charge).total() for wf in state.wfs]``: every
    contraction the oracle does with ``@`` is a stacked ``np.matmul``
    (the same BLAS call per walker), the rest replays
    :meth:`SlaterJastrow.grad_lap_logpsi` and :func:`kinetic_energy`
    elementwise, and each walker sums its electrons in order (a
    vectorised sum over electrons would change the last bit).  No
    nonlocal pseudopotential term: use :class:`LocalEnergy` for that.

    Parameters
    ----------
    state:
        The crowd; its ions must stay put while the estimator is in use
        (the ion-ion constants are computed once, here).
    ion_charge:
        Valence charge per ion.
    """

    def __init__(self, state: CrowdState, ion_charge: float = 4.0):
        self.state = state
        self.ion_charge = float(ion_charge)
        self.e_ii = [_ion_ion(wf, ion_charge) for wf in state.wfs]

    def _kinetic(self) -> np.ndarray:
        """Local kinetic energy of every walker, ``(nw,)``."""
        state = self.state
        n = state.spos.n_orbitals
        g_orb, lap_orb = state.committed_vgl()
        terms = np.empty(lap_orb.shape[:2])
        # One spin's electrons at a time, which halves the temporaries.
        for spin in (0, 1):
            el = slice(spin * n, (spin + 1) * n)
            # cols[w, r] is walker w's inverse column Ainv[:, r], (N, 1).
            cols = state.Ainv[:, spin].transpose(0, 2, 1)[..., np.newaxis]
            g = np.matmul(g_orb[:, el], cols)[..., 0]
            l_det = np.matmul(lap_orb[:, el, np.newaxis, :], cols)[..., 0, 0]
            lap_log = l_det - _dot3(g)
            for factor in state._jastrows:
                w = pair_weights(factor.dist[:, el], factor.radials[:, 1, el])
                g = g + pair_grad(factor.layout, w, factor.disp[:, el])
                lap_log = lap_log + pair_lap(w, factor.radials[:, 2, el])
            terms[:, el] = lap_log + _dot3(g)
        totals = np.zeros(state.n_walkers)
        for e in range(state.n_electrons):
            totals += terms[:, e]
        return -0.5 * totals

    def _potential(self) -> np.ndarray:
        """Coulomb potential (ee + ei + ii) of every walker, ``(nw,)``."""
        return np.array(
            [
                coulomb_ee(wf.ee_table)
                + coulomb_ei(wf.ei_table, self.ion_charge)
                + e_ii
                for wf, e_ii in zip(self.state.wfs, self.e_ii)
            ]
        )

    def total(self) -> np.ndarray:
        """E_L of every walker, ``(nw,)``; also stored in ``state.e_local``."""
        t0 = time.perf_counter() if OBS.enabled else 0.0
        energies = self._kinetic() + self._potential()
        self.state.e_local[...] = energies
        if OBS.enabled:
            n = self.state.n_walkers
            OBS.count("qmc_measured_walkers_total", n)
            OBS.complete(
                "qmc:measure", t0, time.perf_counter() - t0, cat="qmc", walkers=n
            )
        return energies
