"""The Slater-Jastrow trial wavefunction and its move protocol.

Paper Eq. 1: ``Psi_T = exp(J) * D(up) * D(down)``.  This class wires the
components — electron set, distance tables, Jastrows, Slater
determinant — into the particle-by-particle move protocol every QMC
driver uses:

1. ``ratio_grad(e, new_pos)`` stages the move everywhere and returns the
   total ratio ``Psi_T(R') / Psi_T(R)`` plus ``grad log Psi_T`` at the
   trial position (needed for the reverse drift in Metropolis-Hastings);
2. ``accept_move(e)`` commits all staged state (Sherman-Morrison update,
   distance-table rows, Jastrow sums, particle position);
3. ``reject_move(e)`` drops it.

The staged evaluations are shared: one VGH B-spline call serves the
determinant ratio, the trial gradient, and (on acceptance) the inverse
update — the reuse pattern that makes B-splines ~O(N) per attempted move.

A walker in a crowd (:class:`repro.qmc.batched_step.CrowdState`) keeps
this protocol: its components' committed arrays are views of its row of
the crowd's stacked state, so this per-walker path and the batched step
read and write the same storage.
"""

from __future__ import annotations

import numpy as np

from repro.qmc.distance_tables import DistanceTableAA, DistanceTableAB
from repro.qmc.jastrow import OneBodyJastrow, TwoBodyJastrow
from repro.qmc.particleset import ParticleSet
from repro.qmc.slater import SlaterDet, SplineOrbitalSet

__all__ = ["SlaterJastrow"]


class SlaterJastrow:
    """Full trial wavefunction with staged single-electron moves.

    Parameters
    ----------
    electrons:
        The electron particle set (size 2N).
    ions:
        The ion particle set (fixed).
    spos:
        Shared B-spline orbital set (N orbitals).
    j1_radial, j2_radial:
        Radial functions for the one- and two-body Jastrows; pass None to
        omit a factor (a bare Slater wavefunction is valid for tests).
    layout:
        Distance-table / Jastrow memory layout, ``"soa"`` (optimized) or
        ``"aos"`` (baseline).
    """

    def __init__(
        self,
        electrons: ParticleSet,
        ions: ParticleSet,
        spos: SplineOrbitalSet,
        j1_radial=None,
        j2_radial=None,
        layout: str = "soa",
    ):
        self.electrons = electrons
        self.ions = ions
        self.layout = layout
        self.slater = SlaterDet(spos, electrons)
        self.ee_table = DistanceTableAA(electrons, layout=layout)
        self.ei_table = DistanceTableAB(ions, electrons, layout=layout)
        self.j1 = OneBodyJastrow(self.ei_table, j1_radial) if j1_radial else None
        self.j2 = TwoBodyJastrow(self.ee_table, j2_radial) if j2_radial else None
        self._staged_for: int | None = None

    # -- scalar state -------------------------------------------------------

    @property
    def log_value(self) -> float:
        """log |Psi_T| = log|D_up D_dn| + J1 + J2."""
        total = self.slater.log_value
        if self.j1 is not None:
            total += self.j1.log_value()
        if self.j2 is not None:
            total += self.j2.log_value()
        return total

    @property
    def sign(self) -> float:
        """Sign of the determinant product (Jastrow is positive)."""
        return self.slater.sign

    # -- move protocol --------------------------------------------------------

    def ratio_grad(self, e: int, new_pos: np.ndarray) -> tuple[float, np.ndarray]:
        """Stage a move of electron ``e``; return (ratio, grad at trial pos).

        The ratio is signed (determinant crossing a node flips it); the
        gradient is ``grad log Psi_T`` at the *trial* position, combining
        the Eq.-4 determinant term with the Jastrow gradients evaluated on
        the staged distance rows.
        """
        if self._staged_for is not None:
            raise RuntimeError(
                f"move already staged for electron {self._staged_for}"
            )
        staged = self.electrons.propose(e, new_pos)
        self.ee_table.propose_row(e, staged)
        self.ei_table.propose_row(e, staged)
        ratio, grad = self.slater.ratio_grad(e, staged)
        if self.j1 is not None:
            ratio *= self.j1.ratio(e)
            grad = grad + self.j1.grad_temp(e)
        if self.j2 is not None:
            ratio *= self.j2.ratio(e)
            grad = grad + self.j2.grad_temp(e)
        self._staged_for = e
        return ratio, grad

    def ratio(self, e: int, new_pos: np.ndarray) -> float:
        """Stage a move and return just the total ratio."""
        r, _ = self.ratio_grad(e, new_pos)
        return r

    def accept_move(self, e: int) -> None:
        """Commit every component's staged state for electron ``e``."""
        if self._staged_for != e:
            raise RuntimeError(f"no staged move for electron {e}")
        self.slater.accept_move(e)
        if self.j1 is not None:
            self.j1.accept_move(e)
        if self.j2 is not None:
            self.j2.accept_move(e)
        self.ee_table.accept_move(e)
        self.ei_table.accept_move(e)
        self.electrons.accept()
        self._staged_for = None

    def reject_move(self, e: int) -> None:
        """Drop every component's staged state for electron ``e``."""
        if self._staged_for != e:
            raise RuntimeError(f"no staged move for electron {e}")
        self.slater.reject_move(e)
        self.ee_table.reject_move(e)
        self.ei_table.reject_move(e)
        self.electrons.reject()
        self._staged_for = None

    # -- committed-state derivatives --------------------------------------------

    def grad(self, e: int) -> np.ndarray:
        """grad log Psi_T at electron ``e``'s committed position (drift)."""
        g, _ = self.slater.grad_lap(e)
        if self.j1 is not None:
            g = g + self.j1.grad(e)
        if self.j2 is not None:
            g = g + self.j2.grad(e)
        return g

    def grad_lap_logpsi(self, e: int) -> tuple[np.ndarray, float]:
        """(grad log Psi, lap log Psi) for electron ``e``.

        ``lap log Psi = (lap D / D) - |grad D / D|^2 + lap J`` — the form
        the kinetic-energy estimator consumes.
        """
        g_det, l_det = self.slater.grad_lap(e)
        lap_log = l_det - float(g_det @ g_det)
        g = g_det
        if self.j1 is not None:
            g1, l1 = self.j1.grad_lap(e)
            g = g + g1
            lap_log += l1
        if self.j2 is not None:
            g2, l2 = self.j2.grad_lap(e)
            g = g + g2
            lap_log += l2
        return g, lap_log

    def recompute(self) -> None:
        """Rebuild all derived state from particle positions (drift control)."""
        self.ee_table.rebuild()
        self.ei_table.rebuild()
        self.slater.recompute()
        if self.j1 is not None:
            self.j1.recompute()
        if self.j2 is not None:
            self.j2.recompute()
