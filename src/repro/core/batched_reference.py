"""The pre-padding batched evaluation path, frozen as a bit-identity oracle.

This module is a faithful copy of the PR4 ``BsplineBatched`` memory path:
one modulo-wrapped broadcast triple-index gather of the whole batch into
a ``(ns, 4, 4, 4, N)`` temporary, then the z->y->x einsum contractions.
The production engine (:mod:`repro.core.batched`) replaced that gather
with a ghost-padded flat-index gather plus cache-sized position chunks
and spline tiles; **every** optimized configuration must reproduce this
path bit for bit (``np.testing.assert_array_equal``), which is what the
hypothesis suite (``tests/core/test_padded_gather.py``) and the
benchmark's kernel-vgh gate (``perfbench/workloads.py``) check against
this class.

Not part of the public API — an oracle and benchmark baseline only; it
is deliberately untuned and allocates the full-batch temporary.
"""

from __future__ import annotations

import numpy as np

from repro.core.basis import bspline_weights_batch
from repro.core.batched import _KERNEL_STREAMS, BatchedOutput
from repro.core.grid import Grid3D
from repro.core.kinds import Kind

__all__ = ["ReferenceBatched"]


class ReferenceBatched:
    """Modulo-wrap gather + monolithic contraction (the PR4 hot path)."""

    layout = "batched-reference"

    def __init__(self, grid: Grid3D, coefficients: np.ndarray):
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
        self.n_splines = coefficients.shape[3]
        self.dtype = coefficients.dtype

    def new_output(self, kind: Kind = Kind.VGH, n: int = 1) -> BatchedOutput:
        Kind.check(kind)
        n = int(n)
        if n <= 0:
            raise ValueError(f"n_positions must be positive, got {n}")
        return BatchedOutput(n, self.n_splines, self.dtype)

    def evaluate_batch(self, kind: Kind, positions, out: BatchedOutput) -> BatchedOutput:
        kind = Kind.check(kind)
        getattr(self, f"{kind.value}_batch")(positions, out)
        return out

    def _check(self, positions: np.ndarray, out: BatchedOutput) -> np.ndarray:
        positions = np.asarray(positions, dtype=np.float64)
        if positions.ndim != 2 or positions.shape[1] != 3:
            raise ValueError(f"expected (ns, 3) positions, got {positions.shape}")
        if out.v.shape != (len(positions), self.n_splines):
            raise ValueError(
                f"output holds ({out.n_positions}, {out.n_splines}), "
                f"batch needs ({len(positions)}, {self.n_splines})"
            )
        return positions

    def _gather(self, positions: np.ndarray):
        """Blocks ``(ns, 4, 4, 4, N)`` + per-axis weight triples."""
        idx, frac = self.grid.locate_batch(positions)
        offsets = np.arange(-1, 3)
        nx, ny, nz = self.grid.shape
        ix = (idx[:, 0:1] + offsets) % nx  # (ns, 4)
        jy = (idx[:, 1:2] + offsets) % ny
        kz = (idx[:, 2:3] + offsets) % nz
        blocks = self.P[
            ix[:, :, None, None], jy[:, None, :, None], kz[:, None, None, :]
        ]  # (ns, 4, 4, 4, N)
        weights = []
        for axis in range(3):
            a = bspline_weights_batch(frac[:, axis], 0).astype(self.dtype)
            da = bspline_weights_batch(frac[:, axis], 1).astype(self.dtype)
            d2a = bspline_weights_batch(frac[:, axis], 2).astype(self.dtype)
            inv = self.grid.inv_deltas[axis]
            weights.append(
                (a, da * self.dtype.type(inv), d2a * self.dtype.type(inv * inv))
            )
        return blocks, weights

    def v_batch(self, positions: np.ndarray, out: BatchedOutput) -> None:
        positions = self._check(positions, out)
        blocks, ((ax, _, _), (ay, _, _), (az, _, _)) = self._gather(positions)
        tz = np.einsum("sabcn,sc->sabn", blocks, az)
        ty = np.einsum("sabn,sb->san", tz, ay)
        np.einsum("san,sa->sn", ty, ax, out=out.v)
        out.valid = frozenset(_KERNEL_STREAMS["v"])

    def vgl_batch(self, positions: np.ndarray, out: BatchedOutput) -> None:
        positions = self._check(positions, out)
        self._vgh_core(positions, out.v, out.g, out.l, None)
        out.valid = frozenset(_KERNEL_STREAMS["vgl"])

    def vgh_batch(self, positions: np.ndarray, out: BatchedOutput) -> None:
        positions = self._check(positions, out)
        self._vgh_core(positions, out.v, out.g, out.l, out.h)
        out.valid = frozenset(_KERNEL_STREAMS["vgh"])

    def _vgh_core(self, positions, v, g, l, h) -> None:
        blocks, ((ax, dax, d2ax), (ay, day, d2ay), (az, daz, d2az)) = self._gather(
            positions
        )
        tz0 = np.einsum("sabcn,sc->sabn", blocks, az)
        tz1 = np.einsum("sabcn,sc->sabn", blocks, daz)
        tz2 = np.einsum("sabcn,sc->sabn", blocks, d2az)
        u00 = np.einsum("sabn,sb->san", tz0, ay)
        u10 = np.einsum("sabn,sb->san", tz0, day)
        u20 = np.einsum("sabn,sb->san", tz0, d2ay)
        u01 = np.einsum("sabn,sb->san", tz1, ay)
        u11 = np.einsum("sabn,sb->san", tz1, day)
        u02 = np.einsum("sabn,sb->san", tz2, ay)
        v[...] = np.einsum("san,sa->sn", u00, ax)
        g[:, 0] = np.einsum("san,sa->sn", u00, dax)
        g[:, 1] = np.einsum("san,sa->sn", u10, ax)
        g[:, 2] = np.einsum("san,sa->sn", u01, ax)
        hxx = np.einsum("san,sa->sn", u00, d2ax)
        hyy = np.einsum("san,sa->sn", u20, ax)
        hzz = np.einsum("san,sa->sn", u02, ax)
        l[...] = hxx + hyy + hzz
        if h is not None:
            h[:, 0] = hxx
            h[:, 1] = np.einsum("san,sa->sn", u10, dax)
            h[:, 2] = np.einsum("san,sa->sn", u01, dax)
            h[:, 3] = hyy
            h[:, 4] = np.einsum("san,sa->sn", u11, ax)
            h[:, 5] = hzz
