"""Distance tables in AoS and SoA layouts, with incremental move updates.

Distance tables are the second-largest consumer in the QMC profile (paper
Table II: 23-39% of run time) and the first target of the SoA container
work ("The same transformation boosts performance of the other critical
computational steps involving distance tables and Jastrow", Sec. V-A).

Both table classes support the particle-by-particle move protocol: a
*temporary* row is computed for a staged move (``propose_row``), and an
accepted move writes that row back into the committed table without any
O(N^2) recomputation.

Layouts
-------
* ``layout="aos"`` — positions and displacement rows are ``(n, 3)``
  arrays; component access is strided (the baseline R[N][3] abstraction).
* ``layout="soa"`` — positions and displacement rows are ``(3, n)``
  arrays; each Cartesian component is a contiguous stream.

Both compute identical values; the difference is pure memory layout,
mirroring the paper's optimization surface.

The committed ``distances`` / ``displacements`` are only ever written in
place (row updates, :meth:`rebuild`), so they may be views of a crowd's
stacked rows (:class:`repro.qmc.batched_step.CrowdState`).
"""

from __future__ import annotations

import numpy as np

from repro.lattice.cell import Cell
from repro.qmc.particleset import ParticleSet

__all__ = ["DistanceTableAB", "DistanceTableAA"]

_LAYOUTS = ("aos", "soa")


def _row_displacements_aos(
    cell: Cell, src_frac: np.ndarray, tgt_cart: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Minimal-image displacements src -> tgt for one target, AoS math.

    ``src_frac`` is ``(n, 3)``; returns ``(disp (n, 3), dist (n,))``.
    """
    tgt_frac = cell.cart_to_frac(tgt_cart)
    dfrac = tgt_frac[np.newaxis, :] - src_frac
    dfrac -= np.round(dfrac)
    if cell.is_orthorhombic:
        disp = dfrac * np.diag(cell.lattice)[np.newaxis, :]
    else:
        from repro.lattice.pbc import _IMAGE_SHIFTS

        cand = dfrac[:, np.newaxis, :] + _IMAGE_SHIFTS  # (n, 27, 3)
        cart = cand @ cell.lattice
        r2 = np.einsum("nij,nij->ni", cart, cart)
        disp = cart[np.arange(len(cart)), np.argmin(r2, axis=1)]
    return disp, np.sqrt(np.einsum("ni,ni->n", disp, disp))


def _row_displacements_soa(
    cell: Cell, src_frac_soa: np.ndarray, tgt_cart: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Same computation with component-major ``(3, n)`` streams."""
    tgt_frac = cell.cart_to_frac(tgt_cart)
    dfrac = tgt_frac[:, np.newaxis] - src_frac_soa  # (3, n)
    dfrac -= np.round(dfrac)
    if cell.is_orthorhombic:
        diag = np.diag(cell.lattice)
        disp = dfrac * diag[:, np.newaxis]
    else:
        from repro.lattice.pbc import _IMAGE_SHIFTS

        cand = dfrac.T[:, np.newaxis, :] + _IMAGE_SHIFTS
        cart = cand @ cell.lattice
        r2 = np.einsum("nij,nij->ni", cart, cart)
        disp = cart[np.arange(len(cart)), np.argmin(r2, axis=1)].T
    dist = np.sqrt(disp[0] ** 2 + disp[1] ** 2 + disp[2] ** 2)
    return disp, dist


class DistanceTableAB:
    """Asymmetric table: distances from fixed sources to mobile targets.

    The canonical instance is ion->electron (sources never move).  Row
    ``i`` holds the data for target particle ``i`` against *all* sources.

    Parameters
    ----------
    sources:
        The fixed particle set (e.g. ions).
    targets:
        The mobile particle set (e.g. electrons); its moves drive updates.
    layout:
        ``"aos"`` or ``"soa"``.
    """

    def __init__(self, sources: ParticleSet, targets: ParticleSet, layout: str = "soa"):
        if layout not in _LAYOUTS:
            raise ValueError(f"layout must be one of {_LAYOUTS}, got {layout!r}")
        if sources.cell is not targets.cell:
            raise ValueError("source and target sets must share a cell")
        self.layout = layout
        self.cell = sources.cell
        self.sources = sources
        self.targets = targets
        ns, nt = len(sources), len(targets)
        if layout == "aos":
            self.displacements = np.zeros((nt, ns, 3))
            self._temp_disp = np.zeros((ns, 3))
        else:
            self.displacements = np.zeros((nt, 3, ns))
            self._temp_disp = np.zeros((3, ns))
        self.distances = np.zeros((nt, ns))
        self._temp_dist = np.zeros(ns)
        self._temp_for: int | None = None
        self.rebuild()

    def _compute_row(self, tgt_cart: np.ndarray):
        if self.layout == "aos":
            return _row_displacements_aos(self.cell, self._src_frac, tgt_cart)
        return _row_displacements_soa(self.cell, self._src_frac, tgt_cart)

    def rebuild(self) -> None:
        """Recompute the full table from committed positions (O(ns*nt)).

        Re-snapshots the *source* positions too: sources are fixed between
        single-particle moves, but a full rebuild must honour bulk source
        updates (e.g. checkpoint restore loading ion positions into an
        already-constructed wavefunction).
        """
        src_frac = self.cell.cart_to_frac(self.sources.positions)
        if self.layout == "aos":
            self._src_frac = np.ascontiguousarray(src_frac)
        else:
            self._src_frac = np.ascontiguousarray(src_frac.T)
        for i in range(len(self.targets)):
            disp, dist = self._compute_row(self.targets[i])
            self.displacements[i] = disp
            self.distances[i] = dist
        self._temp_for = None

    def row(self, i: int) -> np.ndarray:
        """Committed distances from target ``i`` to every source (view)."""
        return self.distances[i]

    def disp_row(self, i: int) -> np.ndarray:
        """Committed displacement row for target ``i`` (view; layout-shaped)."""
        return self.displacements[i]

    def propose_row(self, i: int, new_pos: np.ndarray) -> np.ndarray:
        """Distances of target ``i``'s *trial* position to all sources.

        The result is staged; :meth:`accept_move` writes it back.
        """
        disp, dist = self._compute_row(np.asarray(new_pos, dtype=np.float64))
        self._temp_disp[...] = disp
        self._temp_dist[...] = dist
        self._temp_for = i
        return self._temp_dist

    @property
    def temp_dist(self) -> np.ndarray:
        """The staged trial-distance row (view)."""
        return self._temp_dist

    @property
    def temp_disp(self) -> np.ndarray:
        """The staged trial-displacement row (view; layout-shaped)."""
        return self._temp_disp

    def accept_move(self, i: int) -> None:
        """Commit the staged row for target ``i``."""
        if self._temp_for != i:
            raise RuntimeError(f"no staged row for target {i}")
        self.distances[i] = self._temp_dist
        self.displacements[i] = self._temp_disp
        self._temp_for = None

    def reject_move(self, i: int) -> None:
        """Drop the staged row."""
        if self._temp_for != i:
            raise RuntimeError(f"no staged row for target {i}")
        self._temp_for = None


class DistanceTableAA:
    """Symmetric table among one mobile set (electron-electron).

    Row ``i`` holds distances from particle ``i`` to every particle of the
    same set (diagonal entries are zero and must be masked by consumers).
    An accepted move of particle ``i`` updates row ``i`` *and* column ``i``
    to keep the table symmetric.

    Parameters
    ----------
    pset:
        The mobile particle set.
    layout:
        ``"aos"`` or ``"soa"``.
    """

    def __init__(self, pset: ParticleSet, layout: str = "soa"):
        if layout not in _LAYOUTS:
            raise ValueError(f"layout must be one of {_LAYOUTS}, got {layout!r}")
        self.layout = layout
        self.cell = pset.cell
        self.pset = pset
        n = len(pset)
        if layout == "aos":
            self.displacements = np.zeros((n, n, 3))
            self._temp_disp = np.zeros((n, 3))
        else:
            self.displacements = np.zeros((n, 3, n))
            self._temp_disp = np.zeros((3, n))
        self.distances = np.zeros((n, n))
        self._temp_dist = np.zeros(n)
        self._temp_for: int | None = None
        self.rebuild()

    def _frac_all(self) -> np.ndarray:
        frac = self.cell.cart_to_frac(self.pset.positions)
        return frac if self.layout == "aos" else np.ascontiguousarray(frac.T)

    def _compute_row(self, cart: np.ndarray, frac: np.ndarray | None = None):
        if frac is None:
            frac = self._frac_all()
        if self.layout == "aos":
            return _row_displacements_aos(self.cell, frac, cart)
        return _row_displacements_soa(self.cell, frac, cart)

    def rebuild(self) -> None:
        """Recompute the full symmetric table (O(n^2))."""
        frac = self._frac_all()  # hoisted: one conversion for all rows
        for i in range(len(self.pset)):
            disp, dist = self._compute_row(self.pset[i], frac)
            self.displacements[i] = disp
            self.distances[i] = dist
            self.distances[i, i] = 0.0
        self._temp_for = None

    def row(self, i: int) -> np.ndarray:
        """Committed distances from particle ``i`` (view; entry i is 0)."""
        return self.distances[i]

    def disp_row(self, i: int) -> np.ndarray:
        """Committed displacement row for particle ``i`` (view)."""
        return self.displacements[i]

    def propose_row(self, i: int, new_pos: np.ndarray) -> np.ndarray:
        """Trial distances from a staged move of particle ``i``.

        The self entry ``i`` (distance *and* displacement) is forced to
        zero — the raw computation would yield the old-to-new step there,
        which no consumer wants.
        """
        disp, dist = self._compute_row(np.asarray(new_pos, dtype=np.float64))
        dist[i] = 0.0
        self._temp_disp[...] = disp
        if self.layout == "aos":
            self._temp_disp[i, :] = 0.0
        else:
            self._temp_disp[:, i] = 0.0
        self._temp_dist[...] = dist
        self._temp_for = i
        return self._temp_dist

    @property
    def temp_dist(self) -> np.ndarray:
        """The staged trial-distance row (view)."""
        return self._temp_dist

    @property
    def temp_disp(self) -> np.ndarray:
        """The staged trial-displacement row (view)."""
        return self._temp_disp

    def accept_move(self, i: int) -> None:
        """Commit the staged row; mirrors it into column ``i``.

        Displacements in the mirrored column flip sign (r_ji = -r_ij).
        """
        if self._temp_for != i:
            raise RuntimeError(f"no staged row for particle {i}")
        self.distances[i] = self._temp_dist
        self.distances[:, i] = self._temp_dist
        self.displacements[i] = self._temp_disp
        if self.layout == "aos":
            self.displacements[:, i, :] = -self._temp_disp
        else:
            self.displacements[:, :, i] = -self._temp_disp.T
        self._temp_for = None

    def reject_move(self, i: int) -> None:
        """Drop the staged row."""
        if self._temp_for != i:
            raise RuntimeError(f"no staged row for particle {i}")
        self._temp_for = None
