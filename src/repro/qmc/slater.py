"""Spline-backed orbital sets and the spin-factorized Slater determinant.

:class:`SplineOrbitalSet` is the bridge between the B-spline kernels of
:mod:`repro.core` (which live in the grid's fractional coordinate frame)
and the QMC layer (which works in Cartesian coordinates): it wraps any
engine layout, converts positions to fractional coordinates, and applies
the lattice chain rule to gradients and Laplacians.  For non-orthorhombic
cells the Cartesian Laplacian mixes all six Hessian components — the
paper's note that "for the graphite systems, VGH is used during the
drift-diffusion phase" (Sec. IV) — so :meth:`SplineOrbitalSet.vgl_batch`
asks the batched engine for the VGL kernel in Cartesian form: one call
with the cell's :class:`~repro.core.batched.ChainRule`, which on ``cc``
runs the compiled VGH kernel, then the chain rule per position, in C
and returns the paper's five streams (v, three gradients, Laplacian) in
float64, and on NumPy runs the VGH kernel and the chain rule in NumPy,
with the same bits.

:class:`SlaterDet` stacks the two spin determinants D(up), D(down) of the
Slater-Jastrow form (paper Eq. 1) over one shared orbital set, assuming
the paper's convention ``Nel = 2N`` with equal spin populations.
"""

from __future__ import annotations

import numpy as np

from repro.core.batched import ChainRule
from repro.core.coeffs import solve_coefficients_3d
from repro.core.grid import Grid3D
from repro.core.kinds import Kind
from repro.core.layout_fused import BsplineFused
from repro.core.layout_soa import BsplineSoA
from repro.core.layout_aos import BsplineAoS
from repro.lattice.cell import Cell
from repro.qmc.determinant import DiracDeterminant
from repro.qmc.particleset import ParticleSet

__all__ = ["SplineOrbitalSet", "SlaterDet"]

_ENGINES = {
    "aos": BsplineAoS,
    "soa": BsplineSoA,
    "fused": BsplineFused,
}


class SplineOrbitalSet:
    """N B-spline orbitals evaluated at Cartesian positions.

    Parameters
    ----------
    cell:
        The periodic cell the orbitals are defined on.
    grid:
        Fractional-coordinate grid (its ``lengths`` must be the unit box).
    engine:
        Any :class:`repro.core.Engine` exposing a coefficient table
        ``P``; all evaluations run through a
        :class:`~repro.core.batched.BsplineBatched` built over that
        table (single positions are batches of one).
    config:
        A :class:`repro.config.RunConfig` carrying the execution knobs
        (chunk, tile, backend, tune mode).  ``None`` builds one from
        the environment (rung 2 of the documented resolution order);
        unresolved blocking fields are concretized lazily — tuned-DB
        winner if one is tier-eligible, cache-budget heuristic
        otherwise.
    padded_table:
        Optional ghost-padded ``(nx+3, ny+3, nz+3, N)`` table from
        :func:`repro.core.coeffs.pad_table_3d`; when given, the batched
        engine adopts it zero-copy instead of re-padding ``engine.P`` —
        the shared-memory path, where the parent process pads once and
        workers attach.

    Notes
    -----
    Chain rule used throughout, with ``B = inv(lattice)`` (so that
    ``frac = cart @ B``), held as a :class:`~repro.core.batched.ChainRule`:

    * ``grad_cart = B @ grad_frac``
    * ``H_cart = B @ H_frac @ B.T``
    * ``lap_cart = sum_{fg} M[f,g] H_frac[f,g]`` with ``M = B @ B.T``,
      contracted against the symmetric fractional Hessian's six
      components (see :meth:`vgl_batch`).
    """

    def __init__(
        self,
        cell: Cell,
        grid: Grid3D,
        engine,
        padded_table: np.ndarray | None = None,
        config=None,
    ):
        from repro.config import RunConfig

        if config is None:
            config = RunConfig.from_env()
        if tuple(grid.lengths) != (1.0, 1.0, 1.0):
            raise ValueError(
                "SplineOrbitalSet grids live in fractional coordinates; "
                f"grid lengths must be (1,1,1), got {grid.lengths}"
            )
        if padded_table is not None:
            expected = grid.padded_shape + (engine.n_splines,)
            if padded_table.shape != expected:
                raise ValueError(
                    f"padded table shape {padded_table.shape} does not "
                    f"match expected {expected}"
                )
        self.cell = cell
        self.grid = grid
        self.engine = engine
        self.n_orbitals = engine.n_splines
        #: The resolved-or-resolving :class:`repro.config.RunConfig`.
        self.config = config
        self._padded_table = padded_table
        self._chain = ChainRule(np.linalg.inv(cell.lattice))

    def _get_batched(self):
        """The lazily-built batched engine over the same table.

        Every evaluation — single-position and batched alike — routes
        through this one engine, so the per-walker and crowd step paths
        produce bit-identical orbitals by construction (NumPy reductions
        along the last axes are row-wise batch-invariant; see
        :mod:`repro.core.batched`).
        """
        from repro.core.batched import BsplineBatched

        if not hasattr(self, "_batched"):
            table = (
                self._padded_table
                if self._padded_table is not None
                else self.engine.P
            )
            if not self.config.is_resolved:
                # Rungs 3-4, parent-side, at the natural batch of the
                # QMC adapter: one sweep over all 2N electrons.
                self.config = self.config.resolved_for(
                    self.n_orbitals,
                    batch=2 * self.n_orbitals,
                    dtype=table.dtype,
                )
            self._batched = BsplineBatched(self.grid, table, config=self.config)
        return self._batched

    @classmethod
    def from_orbital_functions(
        cls,
        cell: Cell,
        orbitals,
        grid_shape: tuple[int, int, int],
        engine: str = "fused",
        dtype: np.dtype | type = np.float32,
        config=None,
    ) -> "SplineOrbitalSet":
        """Sample analytic orbitals on the grid, solve, and wrap an engine.

        Parameters
        ----------
        cell:
            The periodic cell.
        orbitals:
            An object with ``values_on_grid(nx, ny, nz)`` and
            ``n_orbitals`` (e.g. :class:`repro.lattice.PlaneWaveOrbitalSet`).
        grid_shape:
            Spline grid dimensions.
        engine:
            ``"aos"``, ``"soa"``, ``"fused"`` or ``"aosoa"``.
        dtype:
            Coefficient-table dtype (paper default: single precision).
        config:
            :class:`repro.config.RunConfig` for the batched engine.
        """
        if engine == "aosoa":
            raise ValueError(
                "the QMC adapter needs single-block outputs; tiled (aosoa) "
                "engines are exercised by the miniQMC drivers instead — "
                "use engine='soa' or 'fused' here"
            )
        nx, ny, nz = grid_shape
        samples = orbitals.values_on_grid(nx, ny, nz)
        P = solve_coefficients_3d(samples, dtype=dtype)
        grid = Grid3D(nx, ny, nz, (1.0, 1.0, 1.0))
        try:
            eng = _ENGINES[engine](grid, P)
        except KeyError:
            raise ValueError(f"unknown engine {engine!r}") from None
        return cls(cell, grid, eng, config=config)

    def _frac(self, cart_pos: np.ndarray) -> np.ndarray:
        return self.cell.wrap_frac(self.cell.cart_to_frac(cart_pos))

    def values(self, cart_pos: np.ndarray) -> np.ndarray:
        """Orbital values at one Cartesian position; ``(N,)`` float64."""
        return self.values_batch(cart_pos)[0]

    def values_batch(self, cart_positions: np.ndarray) -> np.ndarray:
        """Orbital values at many positions at once; ``(ns, N)`` float64.

        Uses the batched engine (:mod:`repro.core.batched`) built lazily
        over the same coefficient table — the evaluation path behind the
        pseudopotential quadrature, where one electron needs orbital
        values at 6-12 sphere points simultaneously.
        """
        batched = self._get_batched()
        cart_positions = np.atleast_2d(np.asarray(cart_positions, dtype=np.float64))
        frac = self.cell.wrap_frac(self.cell.cart_to_frac(cart_positions))
        out = batched.new_output(Kind.V, n=len(frac))
        batched.v_batch(frac, out)
        return out.v.astype(np.float64)

    def vgl_batch(
        self, cart_positions: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Batched :meth:`vgl`: many positions in one engine call.

        Returns ``(v (ns, N), g (ns, 3, N), lap (ns, N))`` — float64,
        Cartesian derivatives via the lattice chain rule, in three fresh
        arrays per call.  One VGL kernel call with the cell's
        :class:`~repro.core.batched.ChainRule` computes them: on ``cc``
        the compiled kernel writes them directly, elsewhere the VGH
        kernel and the NumPy chain rule do, with the same bits.  This is
        the evaluation path of the batched population step
        (:mod:`repro.qmc.batched_step`), which advances many walkers'
        same-index electrons through one batched kernel call.
        """
        batched = self._get_batched()
        cart_positions = np.atleast_2d(np.asarray(cart_positions, dtype=np.float64))
        frac = self.cell.wrap_frac(self.cell.cart_to_frac(cart_positions))
        ns, n = len(frac), self.n_orbitals
        out = (np.empty((ns, n)), np.empty((ns, 3, n)), np.empty((ns, n)))
        batched.vgl_batch(frac, out, chain=self._chain)
        return out

    def vgl(
        self, cart_pos: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Values, Cartesian gradients and Laplacians at one position.

        A batch-of-one through :meth:`vgl_batch`, so per-walker and crowd
        drivers see the same bits.

        Returns
        -------
        (v, g, lap):
            ``v`` ``(N,)``, ``g`` ``(3, N)``, ``lap`` ``(N,)`` — float64.
        """
        v, g, lap = self.vgl_batch(cart_pos)
        return v[0], g[0], lap[0]

    def vgh(
        self, cart_pos: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Values, Cartesian gradients and full Cartesian Hessians.

        Returns ``(v (N,), g (3, N), h (3, 3, N))``.
        """
        batched = self._get_batched()
        cart = np.atleast_2d(np.asarray(cart_pos, dtype=np.float64))
        frac = self.cell.wrap_frac(self.cell.cart_to_frac(cart))
        out = batched.new_output(Kind.VGH, n=len(frac))
        batched.vgh_batch(frac, out)
        c = out.as_canonical(0)
        B = self._chain.B
        g_cart = B @ c["g"]
        h_cart = np.einsum("af,fgn,bg->abn", B, c["h"], B)
        return c["v"], g_cart, h_cart


class SlaterDet:
    """Product of two spin determinants sharing one orbital set.

    Electrons ``0 .. N-1`` are spin-up, ``N .. 2N-1`` spin-down, with
    ``N = spos.n_orbitals`` (paper convention below Eq. 1).

    Parameters
    ----------
    spos:
        The shared orbital set.
    electrons:
        The electron :class:`~repro.qmc.particleset.ParticleSet`; its
        size must be exactly ``2 * spos.n_orbitals``.

    Each spin keeps the paper's per-move Sherman-Morrison
    :class:`~repro.qmc.determinant.DiracDeterminant`.
    """

    def __init__(self, spos: SplineOrbitalSet, electrons: ParticleSet):
        n = spos.n_orbitals
        if len(electrons) != 2 * n:
            raise ValueError(
                f"need 2N = {2 * n} electrons for N = {n} orbitals, "
                f"got {len(electrons)}"
            )
        self.spos = spos
        self.electrons = electrons
        self.n_orbitals = n
        self.dets = [
            DiracDeterminant(self._build_matrix(0)),
            DiracDeterminant(self._build_matrix(1)),
        ]
        self._staged_for: int | None = None

    def _build_matrix(self, spin: int) -> np.ndarray:
        n = self.n_orbitals
        offset = spin * n
        A = np.empty((n, n))
        for e in range(n):
            A[e, :] = self.spos.values(self.electrons[offset + e])
        return A

    def _locate(self, e: int) -> tuple[DiracDeterminant, int]:
        """The determinant owning electron ``e`` and its local row index."""
        n = self.n_orbitals
        if not 0 <= e < 2 * n:
            raise IndexError(f"electron {e} out of range [0, {2 * n})")
        return (self.dets[0], e) if e < n else (self.dets[1], e - n)

    @property
    def log_value(self) -> float:
        """log |D(up) * D(down)|."""
        return self.dets[0].log_det + self.dets[1].log_det

    @property
    def sign(self) -> float:
        """Sign of the determinant product."""
        return self.dets[0].sign * self.dets[1].sign

    def ratio(self, e: int, new_pos: np.ndarray) -> float:
        """Eq.-3 ratio for moving electron ``e`` to ``new_pos``.

        Evaluates the B-spline kernel once; the determinant stages the
        orbital row, so :meth:`accept_move` reuses it.
        """
        r, _ = self.ratio_grad(e, new_pos)
        return r

    def ratio_grad(self, e: int, new_pos: np.ndarray) -> tuple[float, np.ndarray]:
        """(ratio, grad log D at the trial position) — Eqs. 3-4."""
        v, g, lap = self.spos.vgl(new_pos)
        det, row = self._locate(e)
        self._staged_for = e
        return det.ratio_grad(row, v, g)

    def accept_move(self, e: int) -> None:
        """Sherman-Morrison update for the staged move of ``e``."""
        det, row = self._locate(e)
        if self._staged_for != e:
            raise RuntimeError(f"no staged evaluation for electron {e}")
        det.accept_move(row)
        self._staged_for = None

    def reject_move(self, e: int) -> None:
        """Drop the staged move of ``e``."""
        det, row = self._locate(e)
        if self._staged_for != e:
            raise RuntimeError(f"no staged evaluation for electron {e}")
        det.reject_move(row)
        self._staged_for = None

    def grad_lap(self, e: int) -> tuple[np.ndarray, float]:
        """(grad D / D, lap D / D) at electron ``e``'s committed position."""
        _, g, lap = self.spos.vgl(self.electrons[e])
        det, row = self._locate(e)
        return det.grad_lap(row, g, lap)

    def recompute(self) -> None:
        """Rebuild both Slater matrices and inverses from scratch."""
        for spin in (0, 1):
            self.dets[spin].recompute(self._build_matrix(spin))
