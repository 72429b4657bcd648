"""Dirac determinants with O(N^2) Sherman-Morrison rank-1 updates.

Paper Sec. III: particle-by-particle moves "change only one column of the
A matrices at a time and the ratio can be computed as
det[A']/det[A] = sum_n phi_n(r_e) * Ainv(n, e)" (Eq. 3), with the inverse
refreshed by a rank-1 Sherman-Morrison update in O(N^2) when a move is
accepted, and many-body gradients via the same contraction with the
orbital gradients (Eq. 4).

We store the Slater matrix electron-major, ``A[e, n] = phi_n(r_e)``, so a
single-electron move replaces *row* ``e``; the inverse column
``Ainv[:, e]`` is then the contraction partner in Eqs. 3-4.  The rank-1
update for a row replacement ``A' = A + e_e (u - A[e,:])^T`` is

    Ainv' = Ainv - outer(Ainv[:, e], u @ Ainv - I[e, :]) / R,

where ``R = u @ Ainv[:, e]`` is the Eq.-3 ratio — derived directly from
Sherman-Morrison with the denominator simplifying to R because
``A[e,:] @ Ainv = I[e,:]``.

Accumulated rounding from thousands of rank-1 updates is controlled the
QMCPACK way: :meth:`DiracDeterminant.recompute` rebuilds the inverse from
scratch, and :attr:`update_error` measures the drift for tests.

Every update writes in place — ``A``, ``Ainv`` and the ``log_det`` /
``sign`` scalars (0-d arrays behind the float properties) — so a crowd
(:class:`repro.qmc.batched_step.CrowdState`) can hand the determinant
views of its stacked rows and see every per-walker write.
"""

from __future__ import annotations

import numpy as np

__all__ = ["DiracDeterminant"]


class DiracDeterminant:
    """One spin determinant over an ``(n, n)`` Slater matrix.

    Parameters
    ----------
    phi_matrix:
        Initial Slater matrix ``A[e, n] = phi_n(r_e)``; must be square
        and non-singular.
    """

    def __init__(self, phi_matrix: np.ndarray):
        A = np.array(phi_matrix, dtype=np.float64)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError(f"Slater matrix must be square, got {A.shape}")
        if not np.isfinite(A).all():
            raise ValueError("Slater matrix contains non-finite entries")
        self.n = A.shape[0]
        self.A = A
        sign, logdet = np.linalg.slogdet(A)
        if sign == 0:
            raise ValueError("Slater matrix is singular")
        self._sign = np.array(float(sign))
        self._log_det = np.array(float(logdet))
        self.Ainv = np.linalg.inv(A)
        self._staged_row: np.ndarray | None = None
        self._staged_ratio = 0.0
        self._staged_for: int | None = None

    @property
    def log_det(self) -> float:
        """log |det A|."""
        return float(self._log_det)

    @log_det.setter
    def log_det(self, value: float) -> None:
        self._log_det[...] = value

    @property
    def sign(self) -> float:
        """Sign of det A."""
        return float(self._sign)

    @sign.setter
    def sign(self, value: float) -> None:
        self._sign[...] = value

    # -- ratios (Eq. 3 / Eq. 4) ---------------------------------------------

    def ratio(self, e: int, phi_row: np.ndarray) -> float:
        """det ratio for replacing row ``e`` with new orbital values.

        Stages the row so a subsequent :meth:`accept_move` can apply the
        Sherman-Morrison update without re-evaluating orbitals.
        """
        phi_row = np.asarray(phi_row, dtype=np.float64)
        if phi_row.shape != (self.n,):
            raise ValueError(f"expected ({self.n},) orbital row, got {phi_row.shape}")
        r = float(phi_row @ self.Ainv[:, e])
        self._staged_row = phi_row
        self._staged_ratio = r
        self._staged_for = e
        return r

    def ratio_grad(
        self, e: int, phi_row: np.ndarray, dphi_rows: np.ndarray
    ) -> tuple[float, np.ndarray]:
        """Ratio plus the gradient of log(det) *at the trial position*.

        Parameters
        ----------
        e:
            Electron (row) index.
        phi_row:
            ``(n,)`` orbital values at the trial position.
        dphi_rows:
            ``(3, n)`` orbital gradients at the trial position.

        Returns
        -------
        (ratio, grad):
            ``grad`` is ``grad log det`` evaluated as if the move were
            accepted: ``(dphi @ Ainv[:, e]) / ratio`` (Eq. 4 normalized).
        """
        r = self.ratio(e, phi_row)
        col = self.Ainv[:, e]
        grad = np.asarray(dphi_rows, dtype=np.float64) @ col
        if r != 0.0:
            grad = grad / r
        return r, grad

    # -- committed-state derivatives -----------------------------------------

    def grad_lap(
        self, e: int, dphi_rows: np.ndarray, d2phi_row: np.ndarray
    ) -> tuple[np.ndarray, float]:
        """(grad D / D, lap D / D) for electron ``e`` at its committed position.

        Parameters
        ----------
        dphi_rows:
            ``(3, n)`` orbital gradients at the committed position of ``e``.
        d2phi_row:
            ``(n,)`` orbital Laplacians there.
        """
        col = self.Ainv[:, e]
        g = np.asarray(dphi_rows, dtype=np.float64) @ col
        l = float(np.asarray(d2phi_row, dtype=np.float64) @ col)
        return g, l

    # -- move protocol ---------------------------------------------------------

    def accept_move(self, e: int) -> None:
        """Sherman-Morrison update of ``Ainv`` for the staged row of ``e``.

        O(N^2): one matvec, one outer-product subtraction.
        """
        if self._staged_for != e or self._staged_row is None:
            raise RuntimeError(f"no staged ratio for electron {e}")
        r = self._staged_ratio
        if r == 0.0:
            raise ZeroDivisionError("cannot accept a move with zero det ratio")
        u = self._staged_row
        u_ainv = u @ self.Ainv  # (n,)
        u_ainv[e] -= 1.0  # subtract the unit row I[e, :]
        self.Ainv -= np.outer(self.Ainv[:, e], u_ainv / r)
        self.A[e, :] = u
        self.log_det += float(np.log(abs(r)))
        if r < 0.0:
            self.sign = -self.sign
        self._staged_for = None
        self._staged_row = None

    def reject_move(self, e: int) -> None:
        """Drop the staged row."""
        if self._staged_for != e:
            raise RuntimeError(f"no staged ratio for electron {e}")
        self._staged_for = None
        self._staged_row = None

    # -- maintenance -------------------------------------------------------------

    def recompute(self, phi_matrix: np.ndarray | None = None) -> None:
        """Rebuild the inverse (and optionally the matrix) from scratch.

        QMCPACK refreshes the inverse periodically to bound the rounding
        drift of accumulated rank-1 updates; so do the drivers here.
        Writes in place, into the crowd's rows when the arrays are views.
        """
        if phi_matrix is not None:
            A = np.array(phi_matrix, dtype=np.float64)
            if A.shape != (self.n, self.n):
                raise ValueError(f"expected {(self.n, self.n)}, got {A.shape}")
            if not np.isfinite(A).all():
                raise ValueError("Slater matrix contains non-finite entries")
            self.A[...] = A
        sign, logdet = np.linalg.slogdet(self.A)
        if sign == 0:
            raise ValueError("Slater matrix is singular")
        self.sign = float(sign)
        self.log_det = float(logdet)
        self.Ainv[...] = np.linalg.inv(self.A)

    @property
    def update_error(self) -> float:
        """Max-abs deviation of ``A @ Ainv`` from identity (drift monitor)."""
        return float(np.abs(self.A @ self.Ainv - np.eye(self.n)).max())
