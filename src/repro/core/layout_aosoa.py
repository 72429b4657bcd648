"""AoSoA ("tiled") B-spline engine — Opt B of the paper (Sec. V-B, Fig. 5b/6).

``BsplineAoSoA`` splits the spline dimension N into ``M = N / Nb`` tiles
and owns an array of :class:`~repro.core.layout_soa.BsplineSoA` objects,
each with its *own contiguous* ``(nx, ny, nz, Nb)`` coefficient table —
this is the actual memory-layout change, not just an index partition: the
4D table is physically re-blocked so that one tile's 64 input streams and
its output streams form a working set of ``4*Ng*Nb`` + ``40*Nw*Nb`` bytes
that can fit in cache (paper's working-set arithmetic, Sec. V-B).

Tiles share nothing and synchronize nothing; evaluating a position is a
plain loop over tiles (Fig. 6 L11-13), which is exactly the parallelism
Opt C (nested threading, :mod:`repro.core.nested`) exploits.
"""

from __future__ import annotations

import numpy as np

from repro.core.engine import SinglePositionEngineMixin
from repro.core.grid import Grid3D
from repro.core.kinds import Kind
from repro.core.layout_soa import BsplineSoA
from repro.core.tiling import split_table
from repro.core.walker import WalkerTiled
from repro.obs import OBS

__all__ = ["BsplineAoSoA"]


class BsplineAoSoA(SinglePositionEngineMixin):
    """Tiled (array-of-SoA) tricubic B-spline SPO evaluator (Opt B).

    Parameters
    ----------
    grid:
        Interpolation grid shared by all tiles.
    coefficients:
        Full ``(nx, ny, nz, N)`` table; it is *copied* tile-by-tile into M
        contiguous blocks (the re-blocking is the optimization).
    tile_size:
        Nb, the number of splines per tile; must divide N.  The optimal
        value is architecture-dependent (paper Fig. 7c: 64 on BDW/BG/Q,
        512 on KNC/KNL); see :mod:`repro.core.tiling` for selection.
    """

    layout = "aosoa"

    def __init__(self, grid: Grid3D, coefficients: np.ndarray, tile_size: int):
        if coefficients.ndim != 4:
            raise ValueError(
                f"coefficients must be (nx, ny, nz, N), got {coefficients.shape}"
            )
        n_splines = coefficients.shape[3]
        if tile_size <= 0 or n_splines % tile_size != 0:
            raise ValueError(
                f"tile_size must divide N: N={n_splines}, Nb={tile_size}"
            )
        self.grid = grid
        self.n_splines = n_splines
        self.tile_size = int(tile_size)
        self.n_tiles = n_splines // tile_size
        self.dtype = coefficients.dtype
        # Tiles report nothing to OBS themselves: a tiled evaluation is
        # one logical kernel call, counted once by this engine.
        self.tiles = [
            BsplineSoA(grid, tile, first_spline=t * tile_size, report_obs=False)
            for t, tile in enumerate(split_table(coefficients, tile_size))
        ]

    def __len__(self) -> int:
        return self.n_tiles

    def __getitem__(self, t: int) -> BsplineSoA:
        return self.tiles[t]

    def new_output(self, kind: Kind = Kind.VGH, n: int = 1) -> WalkerTiled:
        """Allocate a tiled output buffer matching this engine's blocking."""
        self._check_new_output(kind, n)
        return WalkerTiled(self.n_splines, self.tile_size, self.dtype)

    # -- kernels ---------------------------------------------------------

    def v(self, x: float, y: float, z: float, out: WalkerTiled) -> None:
        """Kernel ``V`` over all tiles (paper Fig. 6 inner loop)."""
        self._check(out)
        if OBS.enabled:
            OBS.count("kernel_calls_total", engine=self.layout, kernel="v")
        for eng, buf in zip(self.tiles, out.tiles):
            eng.v(x, y, z, buf)

    def vgl(self, x: float, y: float, z: float, out: WalkerTiled) -> None:
        """Kernel ``VGL`` over all tiles."""
        self._check(out)
        if OBS.enabled:
            OBS.count("kernel_calls_total", engine=self.layout, kernel="vgl")
        for eng, buf in zip(self.tiles, out.tiles):
            eng.vgl(x, y, z, buf)

    def vgh(self, x: float, y: float, z: float, out: WalkerTiled) -> None:
        """Kernel ``VGH`` over all tiles."""
        self._check(out)
        if OBS.enabled:
            OBS.count("kernel_calls_total", engine=self.layout, kernel="vgh")
        for eng, buf in zip(self.tiles, out.tiles):
            eng.vgh(x, y, z, buf)

    def eval_tiles(
        self,
        kind: Kind,
        tile_ids: range | list[int],
        positions: np.ndarray,
        out: WalkerTiled,
    ) -> None:
        """Evaluate a *subset* of tiles for a batch of positions.

        This is the unit of work handed to one nested thread (Opt C): one
        thread owns a contiguous range of tiles and runs every position
        through them with no synchronization.

        Parameters
        ----------
        kind:
            A :class:`~repro.core.kinds.Kind` member.
        tile_ids:
            Tile indices this call is responsible for.
        positions:
            ``(ns, 3)`` evaluation positions.
        out:
            The walker's tiled output buffer; only tiles in ``tile_ids``
            are written.
        """
        kind = Kind.check(kind)
        self._check(out)
        positions = np.asarray(positions, dtype=np.float64)
        if OBS.enabled:
            OBS.count(
                "tile_evals_total",
                len(tile_ids) * len(positions),
                engine=self.layout,
                kernel=kind.value,
            )
        for t in tile_ids:
            eng = self.tiles[t]
            buf = out.tiles[t]
            kern = getattr(eng, kind.value)
            for x, y, z in positions:
                kern(x, y, z, buf)

    def _check(self, out: WalkerTiled) -> None:
        if out.n_tiles != self.n_tiles or out.tile_size != self.tile_size:
            raise ValueError(
                f"output blocking ({out.n_tiles} x {out.tile_size}) does not "
                f"match engine ({self.n_tiles} x {self.tile_size})"
            )
