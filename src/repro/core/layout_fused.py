"""Fused tensor-contraction B-spline engine (beyond-paper ablation).

The paper's kernels walk the 4x4x4 stencil point by point because the C++
compiler vectorizes the innermost N loop.  In NumPy the same math can be
restructured as three successive tensor contractions over the separable
weights — contract z, then y, then x — which cuts both the FLOP count
(~300N multiplies for VGH instead of ~1280N) and, far more importantly in
Python, the interpreter-dispatch count (≈20 array operations instead of
≈640 slice updates per evaluation).

This engine is the *production* evaluation path for the QMC substrate
(:mod:`repro.qmc`), where wall-clock matters; the loop-structured
AoS/SoA engines remain the faithful ports used to measure layout effects.
It produces bit-for-bit the same contraction tree for every layout, and
its outputs are validated against :mod:`repro.core.refimpl` like all the
others.
"""

from __future__ import annotations

import numpy as np

from repro.core.engine import SinglePositionEngineMixin
from repro.core.grid import Grid3D
from repro.core.kinds import Kind
from repro.core.stencil import gather_block, locate_and_weights
from repro.core.walker import WalkerSoA
from repro.obs import OBS

__all__ = ["BsplineFused"]


class BsplineFused(SinglePositionEngineMixin):
    """Fused-contraction tricubic B-spline SPO evaluator (SoA outputs).

    API-compatible with :class:`~repro.core.layout_soa.BsplineSoA`; only
    the evaluation schedule differs.

    Parameters
    ----------
    grid:
        Interpolation grid.
    coefficients:
        ``(nx, ny, nz, N)`` table ``P``, read-only and shared.
    first_spline:
        Global index of this object's first spline (tile offset).
    """

    layout = "fused"

    def __init__(
        self,
        grid: Grid3D,
        coefficients: np.ndarray,
        first_spline: int = 0,
    ):
        if coefficients.ndim != 4:
            raise ValueError(
                f"coefficients must be (nx, ny, nz, N), got {coefficients.shape}"
            )
        if coefficients.shape[:3] != grid.shape:
            raise ValueError(
                f"grid {grid.shape} does not match table {coefficients.shape[:3]}"
            )
        self.grid = grid
        self.P = coefficients
        self.first_spline = int(first_spline)
        self.n_splines = coefficients.shape[3]
        self.dtype = coefficients.dtype

    def new_output(self, kind: Kind = Kind.VGH, n: int = 1) -> WalkerSoA:
        """Allocate a matching SoA output buffer."""
        self._check_new_output(kind, n)
        return WalkerSoA(self.n_splines, self.dtype)

    def _setup(self, x: float, y: float, z: float):
        """Common: stencil weights (cast to table dtype) and the 4x4x4 block."""
        pt = locate_and_weights(self.grid, x, y, z)
        block = gather_block(self.grid, self.P, pt)
        cast = lambda w: w.astype(self.dtype)  # noqa: E731 - tiny local
        return (
            tuple(map(cast, pt.wx)),
            tuple(map(cast, pt.wy)),
            tuple(map(cast, pt.wz)),
            block,
        )

    def v(self, x: float, y: float, z: float, out: WalkerSoA) -> None:
        """Kernel ``V`` via z->y->x contraction (3 matmuls total)."""
        if OBS.enabled:
            OBS.count("kernel_calls_total", engine=self.layout, kernel="v")
        (ax, _, _), (ay, _, _), (az, _, _), block = self._setup(x, y, z)
        # (4,4,4,N) . (4,) over z -> (4,4,N); then y; then x.
        tz = np.tensordot(block, az, axes=([2], [0]))
        ty = np.tensordot(tz, ay, axes=([1], [0]))
        out.v[...] = ax @ ty

    def vgl(self, x: float, y: float, z: float, out: WalkerSoA) -> None:
        """Kernel ``VGL`` via shared partial contractions."""
        if OBS.enabled:
            OBS.count("kernel_calls_total", engine=self.layout, kernel="vgl")
        (ax, dax, d2ax), (ay, day, d2ay), (az, daz, d2az), block = self._setup(
            x, y, z
        )
        tz0 = np.tensordot(block, az, axes=([2], [0]))  # value weights in z
        tz1 = np.tensordot(block, daz, axes=([2], [0]))
        tz2 = np.tensordot(block, d2az, axes=([2], [0]))
        u00 = np.tensordot(tz0, ay, axes=([1], [0]))  # (4, N)
        u10 = np.tensordot(tz0, day, axes=([1], [0]))
        u20 = np.tensordot(tz0, d2ay, axes=([1], [0]))
        u01 = np.tensordot(tz1, ay, axes=([1], [0]))
        u02 = np.tensordot(tz2, ay, axes=([1], [0]))
        out.v[...] = ax @ u00
        out.g[0][...] = dax @ u00
        out.g[1][...] = ax @ u10
        out.g[2][...] = ax @ u01
        out.l[...] = (d2ax @ u00) + (ax @ u20) + (ax @ u02)

    def vgh(self, x: float, y: float, z: float, out: WalkerSoA) -> None:
        """Kernel ``VGH`` via shared partial contractions (10 streams)."""
        if OBS.enabled:
            OBS.count("kernel_calls_total", engine=self.layout, kernel="vgh")
        (ax, dax, d2ax), (ay, day, d2ay), (az, daz, d2az), block = self._setup(
            x, y, z
        )
        tz0 = np.tensordot(block, az, axes=([2], [0]))
        tz1 = np.tensordot(block, daz, axes=([2], [0]))
        tz2 = np.tensordot(block, d2az, axes=([2], [0]))
        u00 = np.tensordot(tz0, ay, axes=([1], [0]))
        u10 = np.tensordot(tz0, day, axes=([1], [0]))
        u20 = np.tensordot(tz0, d2ay, axes=([1], [0]))
        u01 = np.tensordot(tz1, ay, axes=([1], [0]))
        u11 = np.tensordot(tz1, day, axes=([1], [0]))
        u02 = np.tensordot(tz2, ay, axes=([1], [0]))
        out.v[...] = ax @ u00
        out.g[0][...] = dax @ u00
        out.g[1][...] = ax @ u10
        out.g[2][...] = ax @ u01
        out.h[0][...] = d2ax @ u00  # xx
        out.h[1][...] = dax @ u10  # xy
        out.h[2][...] = dax @ u01  # xz
        out.h[3][...] = ax @ u20  # yy
        out.h[4][...] = ax @ u11  # yz
        out.h[5][...] = ax @ u02  # zz
