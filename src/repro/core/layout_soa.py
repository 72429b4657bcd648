"""SoA B-spline engine — Opt A of the paper (Fig. 4b).

``BsplineSoA`` keeps the same 4x4x4-stencil / vectorized-over-N structure
as the baseline, but every output component is a separate contiguous
stream: ``gx[N], gy[N], gz[N]`` instead of a 3-strided ``g[3N]``, and six
independent Hessian streams instead of nine strided ones (exploiting
tensor symmetry cuts VGH from 13 to 10 output streams, paper Sec. V-A).

In the paper this turns gather/scatter instructions into aligned unit-
stride vector stores; in this NumPy port it turns strided-view updates
into contiguous-array updates, which is the same memory-system effect at
Python scale.

The VGL kernel additionally carries the baseline-to-SoA "basic
optimizations" the paper mentions: the combined Laplacian weight is
computed once per stencil point (not three separate accumulations), and
the innermost ``z`` pass reuses one gathered row.
"""

from __future__ import annotations

import numpy as np

from repro.core.engine import SinglePositionEngineMixin
from repro.core.grid import Grid3D
from repro.core.kinds import Kind
from repro.core.stencil import gather_block, locate_and_weights
from repro.core.walker import WalkerSoA
from repro.obs import OBS

__all__ = ["BsplineSoA"]


class BsplineSoA(SinglePositionEngineMixin):
    """SoA-layout tricubic B-spline SPO evaluator (Opt A).

    Parameters
    ----------
    grid:
        Interpolation grid (read-only, shared).
    coefficients:
        ``(nx, ny, nz, N)`` table ``P``; read-only, shared among threads.
    first_spline:
        Global index of the first spline served by this object; used when
        the engine is one tile of a :class:`~repro.core.layout_aosoa.BsplineAoSoA`.
    report_obs:
        When False, kernel calls are not counted into :data:`repro.obs.OBS`
        — set by :class:`~repro.core.layout_aosoa.BsplineAoSoA` on its
        tiles so a tiled evaluation is counted once (by the owner), not
        once per tile.
    """

    layout = "soa"

    def __init__(
        self,
        grid: Grid3D,
        coefficients: np.ndarray,
        first_spline: int = 0,
        report_obs: bool = True,
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
        self._report_obs = bool(report_obs)

    def new_output(self, kind: Kind = Kind.VGH, n: int = 1) -> WalkerSoA:
        """Allocate a matching SoA output buffer."""
        self._check_new_output(kind, n)
        return WalkerSoA(self.n_splines, self.dtype)

    # -- kernels ---------------------------------------------------------

    def v(self, x: float, y: float, z: float, out: WalkerSoA) -> None:
        """Kernel ``V``: identical access pattern to the AoS version.

        V has a single output stream, so Opt A is a no-op for it (paper
        Sec. VI: "AoS-to-SoA transformation does not apply to V").
        """
        if OBS.enabled and self._report_obs:
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

    def vgl(self, x: float, y: float, z: float, out: WalkerSoA) -> None:
        """Kernel ``VGL`` with contiguous per-component output streams.

        5 output streams: value, three gradient components, Laplacian.
        The Laplacian weight ``(d2x + d2y + d2z)`` is folded into a single
        accumulation per stencil point.
        """
        if OBS.enabled and self._report_obs:
            OBS.count("kernel_calls_total", engine=self.layout, kernel="vgl")
        pt = locate_and_weights(self.grid, x, y, z)
        block = gather_block(self.grid, self.P, pt)
        (ax, dax, d2ax), (ay, day, d2ay), (az, daz, d2az) = pt.wx, pt.wy, pt.wz
        v, l = out.v, out.l
        gx, gy, gz = out.g[0], out.g[1], out.g[2]
        v.fill(0)
        out.g.fill(0)
        l.fill(0)
        for a in range(4):
            for b in range(4):
                # Hoisted per-(a,b) products (the paper's loop-invariant
                # motion + z-unrolling of the VGL baseline).
                w_ab = ax[a] * ay[b]
                w_dab = dax[a] * ay[b]
                w_adb = ax[a] * day[b]
                w_lab = d2ax[a] * ay[b] + ax[a] * d2ay[b]
                for c in range(4):
                    p = block[a, b, c]
                    v += float(w_ab * az[c]) * p
                    gx += float(w_dab * az[c]) * p
                    gy += float(w_adb * az[c]) * p
                    gz += float(w_ab * daz[c]) * p
                    l += float(w_lab * az[c] + w_ab * d2az[c]) * p

    def vgh(self, x: float, y: float, z: float, out: WalkerSoA) -> None:
        """Kernel ``VGH`` with 10 contiguous output streams (Fig. 4b).

        1 value + 3 gradient + 6 independent Hessian components; the
        symmetric entries are never computed twice.
        """
        if OBS.enabled and self._report_obs:
            OBS.count("kernel_calls_total", engine=self.layout, kernel="vgh")
        pt = locate_and_weights(self.grid, x, y, z)
        block = gather_block(self.grid, self.P, pt)
        (ax, dax, d2ax), (ay, day, d2ay), (az, daz, d2az) = pt.wx, pt.wy, pt.wz
        v = out.v
        gx, gy, gz = out.g[0], out.g[1], out.g[2]
        hxx, hxy, hxz, hyy, hyz, hzz = (out.h[i] for i in range(6))
        v.fill(0)
        out.g.fill(0)
        out.h.fill(0)
        for a in range(4):
            for b in range(4):
                w_ab = ax[a] * ay[b]
                w_dab = dax[a] * ay[b]
                w_adb = ax[a] * day[b]
                w_d2ab = d2ax[a] * ay[b]
                w_ddab = dax[a] * day[b]
                w_ad2b = ax[a] * d2ay[b]
                for c in range(4):
                    p = block[a, b, c]
                    v += float(w_ab * az[c]) * p
                    gx += float(w_dab * az[c]) * p
                    gy += float(w_adb * az[c]) * p
                    gz += float(w_ab * daz[c]) * p
                    hxx += float(w_d2ab * az[c]) * p
                    hxy += float(w_ddab * az[c]) * p
                    hxz += float(w_dab * daz[c]) * p
                    hyy += float(w_ad2b * az[c]) * p
                    hyz += float(w_adb * daz[c]) * p
                    hzz += float(w_ab * d2az[c]) * p
