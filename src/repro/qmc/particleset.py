"""Particle sets with SoA position storage and single-particle move staging.

QMC moves particles one at a time (paper Sec. III: "particle-by-particle
moves ... change only one column of the A matrices at a time"), so a
particle set must support a three-phase protocol per move:

1. ``propose(i, new_pos)`` — stage a trial position for particle ``i``
   without touching the committed state;
2. ``accept()`` — commit the staged position;
3. ``reject()`` — drop it.

Positions are stored SoA (:class:`repro.core.containers.VectorSoA3D`),
the layout the optimized distance-table and Jastrow kernels consume,
while ``pset[i]`` still yields an (x, y, z) triple for application code —
the operator-overloading bridge of paper Sec. V-A.  Every write lands in
place, so the ``(3, n)`` storage may be a walker's row of a crowd
(:class:`repro.qmc.batched_step.CrowdState`).
"""

from __future__ import annotations

import numpy as np

from repro.core.containers import VectorSoA3D
from repro.lattice.cell import Cell

__all__ = ["ParticleSet"]


class ParticleSet:
    """N particles in a periodic cell with staged single-particle moves.

    Parameters
    ----------
    name:
        Identifier ("e" for electrons, "ion" for ions by convention).
    cell:
        The periodic simulation cell.
    positions:
        Initial ``(n, 3)`` Cartesian positions.
    """

    def __init__(self, name: str, cell: Cell, positions: np.ndarray):
        positions = np.atleast_2d(np.asarray(positions, dtype=np.float64))
        if positions.ndim != 2 or positions.shape[1] != 3:
            raise ValueError(f"positions must be (n, 3), got {positions.shape}")
        self.name = name
        self.cell = cell
        self.R = VectorSoA3D.from_aos(cell.wrap_cart(positions))
        self._active: int | None = None
        self._staged: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.R)

    def __getitem__(self, i: int) -> np.ndarray:
        """Committed position of particle ``i`` as an (x, y, z) triple."""
        return self.R[i]

    @property
    def n_particles(self) -> int:
        """Number of particles in the set."""
        return len(self.R)

    @property
    def positions(self) -> np.ndarray:
        """All committed positions as an ``(n, 3)`` AoS copy."""
        return self.R.to_aos()

    @property
    def active_particle(self) -> int | None:
        """Index of the particle with a staged move, or None."""
        return self._active

    @property
    def staged_position(self) -> np.ndarray | None:
        """The staged trial position (wrapped), or None."""
        return None if self._staged is None else self._staged.copy()

    def propose(self, i: int, new_pos: np.ndarray) -> np.ndarray:
        """Stage a trial position for particle ``i``; returns it wrapped.

        Raises if another move is already staged — the particle-by-particle
        protocol never has two in flight.
        """
        if self._active is not None:
            raise RuntimeError(
                f"move already staged for particle {self._active}; "
                "accept() or reject() first"
            )
        if not 0 <= i < len(self):
            raise IndexError(f"particle index {i} out of range [0, {len(self)})")
        pos = self.cell.wrap_cart(np.asarray(new_pos, dtype=np.float64))
        self._active = i
        self._staged = pos.reshape(3)
        return self._staged.copy()

    def accept(self) -> None:
        """Commit the staged move."""
        if self._active is None:
            raise RuntimeError("no move staged")
        self.R[self._active] = self._staged
        self._active = None
        self._staged = None

    def reject(self) -> None:
        """Drop the staged move."""
        if self._active is None:
            raise RuntimeError("no move staged")
        self._active = None
        self._staged = None

    def load_positions(self, positions: np.ndarray, wrap: bool = True) -> None:
        """Bulk-replace all positions (DMC branching clones, checkpoint restore).

        ``wrap=False`` stores the positions verbatim: already-committed
        positions are not floating-point fixed points of ``wrap_cart``
        (the cart->frac->cart round trip moves them by ULPs), so
        checkpoint restores must skip the re-wrap to stay bit-for-bit.
        """
        positions = np.asarray(positions, dtype=np.float64)
        if positions.shape != (len(self), 3):
            raise ValueError(
                f"expected {(len(self), 3)} positions, got {positions.shape}"
            )
        if self._active is not None:
            raise RuntimeError("cannot bulk-load with a staged move in flight")
        if wrap:
            positions = self.cell.wrap_cart(positions)
        self.R.data[...] = positions.T

    @classmethod
    def random(
        cls,
        name: str,
        cell: Cell,
        count: int,
        rng: np.random.Generator,
    ) -> "ParticleSet":
        """Uniformly random particles in the cell (initial walker state)."""
        frac = rng.random((count, 3))
        return cls(name, cell, cell.frac_to_cart(frac))
