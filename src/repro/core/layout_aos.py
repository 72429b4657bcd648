"""Baseline AoS B-spline engine (paper Fig. 4a).

``BsplineAoS`` reproduces the structure of the einspline-derived baseline
in the public QMCPACK distribution: a triple loop over the 4x4x4 stencil
with an inner loop over the N splines, accumulating into interleaved
(array-of-structures) output arrays:

* gradients  ``g[3n + c]``  — 3-strided stores per component,
* Hessians   ``h[9n + rc]`` — 9-strided stores, all nine tensor entries
  (the baseline does not exploit symmetry, hence 13 output streams for
  VGH: 1 value + 3 gradient + 9 Hessian; paper Sec. IV).

In this NumPy port the inner loop over N is a vectorized slice operation;
the AoS stores become genuinely strided NumPy views (``g[c::3]``), which
cost more than contiguous stores for real — the Python analogue of the
gather/scatter instructions the paper eliminates with Opt A.

The engine evaluates one position per call, exactly like the C++ kernel:
QMC's particle-by-particle moves make positions arrive one at a time.
"""

from __future__ import annotations

import numpy as np

from repro.core.engine import SinglePositionEngineMixin
from repro.core.grid import Grid3D
from repro.core.kinds import Kind
from repro.core.stencil import gather_block, locate_and_weights
from repro.core.walker import WalkerAoS
from repro.obs import OBS

__all__ = ["BsplineAoS"]


class BsplineAoS(SinglePositionEngineMixin):
    """AoS-layout tricubic B-spline SPO evaluator (the paper's baseline).

    Parameters
    ----------
    grid:
        Interpolation grid (read-only, shared).
    coefficients:
        ``(nx, ny, nz, N)`` table ``P``; read-only and shared among all
        walkers/threads (paper Fig. 3 L8-9).
    first_spline:
        Global index of this object's first spline; nonzero only when the
        engine serves as a tile of a larger set.
    """

    layout = "aos"

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

    def new_output(self, kind: Kind = Kind.VGH, n: int = 1) -> WalkerAoS:
        """Allocate a matching output buffer (``kind`` kept for API parity)."""
        self._check_new_output(kind, n)
        return WalkerAoS(self.n_splines, self.dtype)

    # -- kernels ---------------------------------------------------------

    def v(self, x: float, y: float, z: float, out: WalkerAoS) -> None:
        """Kernel ``V``: N orbital values at ``(x, y, z)`` into ``out.v``.

        A single contiguous output stream — which is why the paper notes V
        "does not need SoA data layout and only benefits with the AoSoA
        transformation" (Sec. VI).
        """
        if OBS.enabled:
            OBS.count("kernel_calls_total", engine=self.layout, kernel="v")
        pt = locate_and_weights(self.grid, x, y, z)
        block = gather_block(self.grid, self.P, pt)
        ax, ay, az = pt.wx[0], pt.wy[0], pt.wz[0]
        v = out.v
        v.fill(0)
        for a in range(4):
            for b in range(4):
                wab = ax[a] * ay[b]
                for c in range(4):
                    v += float(wab * az[c]) * block[a, b, c]

    def vgl(self, x: float, y: float, z: float, out: WalkerAoS) -> None:
        """Kernel ``VGL``: values, gradients and Laplacians.

        Outputs 5 components per spline: ``v`` contiguous, ``g`` 3-strided
        (AoS), ``l`` contiguous.  Mirrors the baseline's structure,
        including recomputing the three second-derivative weight products
        inside the loop (the temporaries the paper hoists in Opt A's
        "other optimizations").
        """
        if OBS.enabled:
            OBS.count("kernel_calls_total", engine=self.layout, kernel="vgl")
        pt = locate_and_weights(self.grid, x, y, z)
        block = gather_block(self.grid, self.P, pt)
        (ax, dax, d2ax), (ay, day, d2ay), (az, daz, d2az) = pt.wx, pt.wy, pt.wz
        v, g, l = out.v, out.g, out.l
        v.fill(0)
        g.fill(0)
        l.fill(0)
        gx, gy, gz = g[0::3], g[1::3], g[2::3]  # strided AoS views
        for a in range(4):
            for b in range(4):
                for c in range(4):
                    p = block[a, b, c]
                    v += float(ax[a] * ay[b] * az[c]) * p
                    gx += float(dax[a] * ay[b] * az[c]) * p
                    gy += float(ax[a] * day[b] * az[c]) * p
                    gz += float(ax[a] * ay[b] * daz[c]) * p
                    l += float(
                        d2ax[a] * ay[b] * az[c]
                        + ax[a] * d2ay[b] * az[c]
                        + ax[a] * ay[b] * d2az[c]
                    ) * p

    def vgh(self, x: float, y: float, z: float, out: WalkerAoS) -> None:
        """Kernel ``VGH``: values, gradients and full 3x3 Hessians.

        13 output streams (paper Sec. IV): the value plus 3-strided
        gradient components and 9-strided Hessian components, including
        the redundant symmetric entries the baseline stores.
        """
        if OBS.enabled:
            OBS.count("kernel_calls_total", engine=self.layout, kernel="vgh")
        pt = locate_and_weights(self.grid, x, y, z)
        block = gather_block(self.grid, self.P, pt)
        (ax, dax, d2ax), (ay, day, d2ay), (az, daz, d2az) = pt.wx, pt.wy, pt.wz
        v, g, h = out.v, out.g, out.h
        v.fill(0)
        g.fill(0)
        h.fill(0)
        gx, gy, gz = g[0::3], g[1::3], g[2::3]
        # Nine 9-strided Hessian views, row-major (xx, xy, xz, yx, ...).
        hv = [h[r::9] for r in range(9)]
        for a in range(4):
            for b in range(4):
                for c in range(4):
                    p = block[a, b, c]
                    wv = float(ax[a] * ay[b] * az[c])
                    wgx = float(dax[a] * ay[b] * az[c])
                    wgy = float(ax[a] * day[b] * az[c])
                    wgz = float(ax[a] * ay[b] * daz[c])
                    wxx = float(d2ax[a] * ay[b] * az[c])
                    wxy = float(dax[a] * day[b] * az[c])
                    wxz = float(dax[a] * ay[b] * daz[c])
                    wyy = float(ax[a] * d2ay[b] * az[c])
                    wyz = float(ax[a] * day[b] * daz[c])
                    wzz = float(ax[a] * ay[b] * d2az[c])
                    v += wv * p
                    gx += wgx * p
                    gy += wgy * p
                    gz += wgz * p
                    hv[0] += wxx * p
                    hv[1] += wxy * p
                    hv[2] += wxz * p
                    hv[3] += wxy * p  # yx, stored redundantly by the baseline
                    hv[4] += wyy * p
                    hv[5] += wyz * p
                    hv[6] += wxz * p  # zx
                    hv[7] += wyz * p  # zy
                    hv[8] += wzz * p
