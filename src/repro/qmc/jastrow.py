"""One- and two-body Jastrow factors on B-spline radial functions.

The Jastrow factor is the third major profile component (paper Table II:
13-21%).  Its radial functions u(r) are short-ranged 1D cubic B-splines
(:class:`repro.core.spline1d.CubicBspline1D`), evaluated over distance-
table rows — contiguous streams in the SoA layout, strided in AoS, which
is exactly where the paper's container transformation pays off.

Conventions
-----------
log Psi contributions (so *larger* J means larger amplitude):

* two-body:  J2 = - sum_{i<j} u2(r_ij)
* one-body:  J1 = - sum_{i,I} u1(r_iI)

Per-electron derivatives (for drift and kinetic energy):

* grad_i J  = - sum_j u'(r_ij) * (r_i - r_j) / r_ij
* lap_i J   = - sum_j [ u''(r_ij) + 2 u'(r_ij) / r_ij ]

Both factors implement the same staged-move protocol as the distance
tables: ``ratio(i)`` evaluates against the table's *temp* row, and
``accept_move(i)`` commits cached per-particle state.

Each factor also keeps its committed radial rows, ``radials[:, i, j]`` =
(u, u', u'') of pair (i, j) as :meth:`_JastrowBase._row_terms` gives them
for the committed table row ``i``.  The evaluation is elementwise, so an
accepted move writes the trial row's values into row ``i`` (and, for the
two-body factor, mirrors them into column ``i``) and the cache stays
bitwise equal to a fresh evaluation.  The crowd step
(:mod:`repro.qmc.batched_step`) and estimator read these rows instead of
re-evaluating the radials; the per-walker methods here evaluate afresh,
so they remain the oracle the cache is checked against.
"""

from __future__ import annotations

import numpy as np

from repro.core.spline1d import CubicBspline1D
from repro.qmc.distance_tables import DistanceTableAA, DistanceTableAB

__all__ = ["make_polynomial_radial", "TwoBodyJastrow", "OneBodyJastrow"]


def make_polynomial_radial(
    strength: float, rcut: float, n_knots: int = 12, power: int = 3
) -> CubicBspline1D:
    """A smooth short-ranged radial function u(r) = a (1 - r/rc)^p.

    Vanishes with zero slope at the cutoff (for p >= 2), the smoothness
    condition QMC Jastrows need so energies are continuous as particles
    cross the cutoff sphere.

    Parameters
    ----------
    strength:
        Prefactor ``a``; positive values make same-charge particles avoid
        each other (since J contributes ``-u``).
    rcut:
        Cutoff radius; must not exceed the cell's Wigner-Seitz radius
        (callers check).
    n_knots:
        Spline resolution.
    power:
        Polynomial power ``p``.
    """
    if rcut <= 0:
        raise ValueError(f"rcut must be positive, got {rcut}")
    return CubicBspline1D.fit_function(
        lambda r: strength * (1.0 - r / rcut) ** power,
        rcut,
        n_knots=n_knots,
        bc="clamped",
        deriv0=-strength * power / rcut,
        deriv1=0.0,
    )


class _JastrowBase:
    """Shared math for summing u over a distance-table row."""

    def __init__(self, ufunc: CubicBspline1D, layout: str):
        self.u = ufunc
        self.layout = layout

    def _row_terms(
        self, dist_row: np.ndarray, exclude: int | None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """u, u', u'' over distance rows plus the valid-pair mask.

        ``exclude`` masks the self entry of AA rows; zero-distance entries
        are masked as well (they can only be the self entry anyway).

        ``dist_row`` may be one row ``(n,)`` or a stack ``(nw, n)`` of
        same-index rows from a whole crowd — every operation is
        elementwise or last-axis, so stacked rows produce the same bits
        as one-at-a-time rows.
        """
        mask = dist_row > 0.0
        if exclude is not None:
            mask = mask.copy()
            mask[..., exclude] = False
        v, dv, d2v = self.u.evaluate_vgl(dist_row)
        v = np.where(mask, v, 0.0)
        dv = np.where(mask, dv, 0.0)
        d2v = np.where(mask, d2v, 0.0)
        return v, dv, d2v, mask

    def _grad_lap_from_row(
        self,
        dist_row: np.ndarray,
        disp_row: np.ndarray,
        exclude: int | None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """(grad_i J, lap_i J) from rows; handles both layouts.

        Accepts one row (``dist (n,)``, ``disp (n, 3)`` aos / ``(3, n)``
        soa) or a crowd stack with a leading walker axis; gradients come
        back ``(..., 3)`` and Laplacians ``(...)`` (0-d for one row —
        the public per-electron methods convert to float).
        """
        _, dv, d2v, _ = self._row_terms(dist_row, exclude)
        w = pair_weights(dist_row, dv)
        return pair_grad(self.layout, w, disp_row), pair_lap(w, d2v)


def pair_weights(dist: np.ndarray, dv: np.ndarray) -> np.ndarray:
    """u'(r)/r per pair from masked ``dv`` rows (:meth:`_row_terms`).

    A masked pair has ``dv == 0``, so its weight is zero whatever its
    distance; ``r == 0`` pairs divide by one instead.
    """
    return dv / np.where(dist > 0.0, dist, 1.0)


def pair_grad(layout: str, w: np.ndarray, disp: np.ndarray) -> np.ndarray:
    """grad_i J = -sum_j w_ij (r_i - r_j), summed over the pair axis."""
    if layout == "aos":
        return -(w[..., :, np.newaxis] * disp).sum(axis=-2)
    return -(w[..., np.newaxis, :] * disp).sum(axis=-1)


def pair_lap(w: np.ndarray, d2v: np.ndarray) -> np.ndarray:
    """lap_i J = -sum_j [u''(r_ij) + 2 u'(r_ij) / r_ij]."""
    return -(d2v + 2.0 * w).sum(axis=-1)


class TwoBodyJastrow(_JastrowBase):
    """Electron-electron Jastrow J2 = -sum_{i<j} u(r_ij).

    Parameters
    ----------
    table:
        The electron-electron :class:`DistanceTableAA`; the Jastrow reads
        rows from it and inherits its layout.
    ufunc:
        The radial function.
    """

    def __init__(self, table: DistanceTableAA, ufunc: CubicBspline1D):
        super().__init__(ufunc, table.layout)
        self.table = table
        self.n = len(table.pset)
        # Per-particle sums U[i] = sum_{j != i} u(r_ij); J2 = -sum(U)/2.
        self._usum = np.zeros(self.n)
        self._usum_temp = 0.0
        #: Committed (u, u', u'') of every pair, ``(3, n, n)``.
        self.radials = np.zeros((3, self.n, self.n))
        self._rad_temp = np.zeros((3, self.n))
        self._urow_old = np.zeros(self.n)
        self.recompute()

    def recompute(self) -> None:
        """Rebuild per-particle u-sums and radial rows from the committed table.

        The whole table is evaluated at once: every operation is
        elementwise, and the self entries are masked because the table
        keeps its diagonal at distance zero.
        """
        v, dv, d2v, _ = self._row_terms(self.table.distances, None)
        self.radials[0], self.radials[1], self.radials[2] = v, dv, d2v
        self._usum[...] = v.sum(axis=-1)

    def log_value(self) -> float:
        """J2 contribution to log Psi."""
        return -0.5 * float(self._usum.sum())

    def ratio(self, i: int) -> float:
        """exp(J2_new - J2_old) for the staged move of particle ``i``.

        Requires ``table.propose_row(i, ...)`` to have been called.
        """
        v_new, dv, d2v, _ = self._row_terms(self.table.temp_dist, i)
        v_old, _, _, _ = self._row_terms(self.table.row(i), i)
        self._rad_temp[0], self._rad_temp[1], self._rad_temp[2] = v_new, dv, d2v
        self._urow_old[...] = v_old
        self._usum_temp = float(v_new.sum())
        return float(np.exp(-(self._usum_temp - self._usum[i])))

    def accept_move(self, i: int) -> None:
        """Commit the staged move's u-sums and radial row (table committed
        separately); the row is mirrored into column ``i``."""
        delta = self._rad_temp[0] - self._urow_old
        self._usum += delta
        self._usum[i] = self._usum_temp
        self.radials[:, i, :] = self._rad_temp
        self.radials[:, :, i] = self._rad_temp

    def grad(self, i: int) -> np.ndarray:
        """grad_i J2 from the committed table."""
        g, _ = self._grad_lap_from_row(self.table.row(i), self.table.disp_row(i), i)
        return g

    def grad_temp(self, i: int) -> np.ndarray:
        """grad_i J2 at the staged position (for drift in proposals)."""
        g, _ = self._grad_lap_from_row(self.table.temp_dist, self.table.temp_disp, i)
        return g

    def grad_lap(self, i: int) -> tuple[np.ndarray, float]:
        """(grad_i J2, lap_i J2) from the committed table."""
        g, lap = self._grad_lap_from_row(
            self.table.row(i), self.table.disp_row(i), i
        )
        return g, float(lap)


class OneBodyJastrow(_JastrowBase):
    """Electron-ion Jastrow J1 = -sum_{i,I} u(r_iI).

    Parameters
    ----------
    table:
        The ion->electron :class:`DistanceTableAB` (row per electron).
    ufunc:
        The radial function.
    """

    def __init__(self, table: DistanceTableAB, ufunc: CubicBspline1D):
        super().__init__(ufunc, table.layout)
        self.table = table
        self.n = len(table.targets)
        m = len(table.sources)
        self._usum = np.zeros(self.n)
        self._usum_temp = 0.0
        #: Committed (u, u', u'') of every electron-ion pair, ``(3, n, m)``.
        self.radials = np.zeros((3, self.n, m))
        self._rad_temp = np.zeros((3, m))
        self.recompute()

    def recompute(self) -> None:
        """Rebuild per-electron u-sums and radial rows from the committed table."""
        v, dv, d2v, _ = self._row_terms(self.table.distances, None)
        self.radials[0], self.radials[1], self.radials[2] = v, dv, d2v
        self._usum[...] = v.sum(axis=-1)

    def log_value(self) -> float:
        """J1 contribution to log Psi."""
        return -float(self._usum.sum())

    def ratio(self, i: int) -> float:
        """exp(J1_new - J1_old) for the staged move of electron ``i``."""
        v_new, dv, d2v, _ = self._row_terms(self.table.temp_dist, None)
        self._rad_temp[0], self._rad_temp[1], self._rad_temp[2] = v_new, dv, d2v
        self._usum_temp = float(v_new.sum())
        return float(np.exp(-(self._usum_temp - self._usum[i])))

    def accept_move(self, i: int) -> None:
        """Commit the staged move's cached u-sum and radial row."""
        self._usum[i] = self._usum_temp
        self.radials[:, i] = self._rad_temp

    def grad(self, i: int) -> np.ndarray:
        """grad_i J1 from the committed table."""
        g, _ = self._grad_lap_from_row(self.table.row(i), self.table.disp_row(i), None)
        return g

    def grad_temp(self, i: int) -> np.ndarray:
        """grad_i J1 at the staged position."""
        g, _ = self._grad_lap_from_row(
            self.table.temp_dist, self.table.temp_disp, None
        )
        return g

    def grad_lap(self, i: int) -> tuple[np.ndarray, float]:
        """(grad_i J1, lap_i J1) from the committed table."""
        g, lap = self._grad_lap_from_row(
            self.table.row(i), self.table.disp_row(i), None
        )
        return g, float(lap)
