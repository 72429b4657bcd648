"""Batched multi-position B-spline evaluation (beyond-paper extension).

The paper evaluates one position at a time because QMC's particle-by-
particle moves arrive serially *within* a walker — but across walkers
(and in later QMCPACK's "crowd" drivers, across the pseudopotential
quadrature points of one walker) many positions are available at once.
Batching amortizes per-call overhead and turns the evaluation into a few
large tensor contractions; it is the evolution of this paper's work that
QMCPACK eventually shipped as multi-walker APIs.

The memory path applies the paper's Opt A/Opt B ideas to the batch axis:

* **Ghost-padded table.**  The coefficient table is extended with a
  3-point periodic halo per grid axis (:func:`repro.core.coeffs.pad_table_3d`),
  so the 4x4x4 stencil needs no modulo arithmetic and no broadcast
  triple-index gather — one flat fancy-index against a precomputed
  64-entry offset cube pulls each position's neighbourhood.  The
  constructor accepts either the raw ``(nx, ny, nz, N)`` table (padded
  internally, once) or a pre-padded ``(nx+3, ny+3, nz+3, N)`` one —
  the zero-copy path for tables attached through
  :class:`repro.parallel.SharedTable`.
* **Cache-sized chunks and spline tiles.**  Positions stream through
  ``chunk``-sized gathers and the contraction cores walk the spline
  axis in ``tile``-wide views (the paper's Nb), both picked by the
  cache-aware auto-tuner (:mod:`repro.tune.planner`) unless overridden via
  ``chunk_size``/``tile_size``.  Ghost values are exact copies and the
  z->y->x einsum order is untouched, so results are **bitwise
  identical** to the unpadded, untiled PR4 path
  (:mod:`repro.core.batched_reference`) for every (chunk, tile).

Two output-correctness contracts:

* **Stream validity.**  Each kernel records which output streams it
  wrote in :attr:`BatchedOutput.valid` and poisons (fills with NaN) any
  stream a *previous* kernel call left behind that this call does not
  refresh — reusing one output buffer across ``vgh_batch`` →
  ``vgl_batch`` → ``v_batch`` can therefore never silently serve stale
  numbers.  Poisoning happens exactly **once per kernel call**, before
  the chunk loop — a chunked call fills a stale stream with NaN a
  single time, never per chunk, and the streams it does write are only
  ever written (per-chunk, disjoint slices), never re-poisoned.
* **Chunking.**  Every position's contraction is independent, so any
  chunk size is bitwise-identical to the unchunked path.  The legacy
  ``max_batch_bytes`` cap keeps its exact semantics: ``chunk =
  max_batch_bytes // (64 * N * itemsize)`` positions per gather.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from repro.core.basis import bspline_fused_weights
from repro.core.coeffs import pad_table_3d
from repro.core.grid import Grid3D
from repro.core.kinds import Kind
from repro.tune.planner import TilePlan, plan_tiles
from repro.core.walker import HESS_COMPONENTS
from repro.obs import OBS

__all__ = ["BatchedOutput", "BsplineBatched", "ChainRule"]

#: Output streams written by each batched kernel.
_KERNEL_STREAMS = {
    "v": ("v",),
    "vgl": ("v", "g", "l"),
    "vgh": ("v", "g", "l", "h"),
}


class BatchedOutput:
    """Outputs for a batch of ``ns`` positions over ``N`` splines.

    Attributes
    ----------
    v:
        ``(ns, N)`` values.
    g:
        ``(ns, 3, N)`` gradients.
    l:
        ``(ns, N)`` Laplacians.
    h:
        ``(ns, 6, N)`` symmetric Hessian components (xx, xy, xz, yy,
        yz, zz).
    valid:
        Frozen set naming the streams written by the most recent kernel
        call (``{"v"}`` after ``v_batch``, ``{"v", "g", "l"}`` after
        ``vgl_batch``, all four after ``vgh_batch``; empty on a fresh
        buffer).  Streams that fall *out* of this set on reuse are
        filled with NaN, so reading one is loud rather than silently
        stale.

    Notes
    -----
    The default dtype is ``float64`` — the dtype NumPy itself defaults
    to — so a directly-constructed output never silently downcasts a
    double-precision table.  :meth:`BsplineBatched.new_output` always
    passes the engine's table dtype and is the preferred constructor.
    """

    def __init__(self, n_positions: int, n_splines: int, dtype=np.float64):
        self.n_positions = int(n_positions)
        self.n_splines = int(n_splines)
        self.v = np.zeros((n_positions, n_splines), dtype=dtype)
        self.g = np.zeros((n_positions, 3, n_splines), dtype=dtype)
        self.l = np.zeros((n_positions, n_splines), dtype=dtype)
        self.h = np.zeros((n_positions, 6, n_splines), dtype=dtype)
        self.valid: frozenset[str] = frozenset()

    def as_canonical(self, i: int | None = None) -> dict[str, np.ndarray]:
        """Float64 views in the canonical layout the walker buffers use.

        With ``i`` given, returns the single-position dict produced by
        ``WalkerSoA.as_canonical`` for position ``i`` — ``v: (N,)``,
        ``g: (3, N)``, ``l: (N,)``, ``h: (3, 3, N)`` — so conformance
        tests compare batched against single-position outputs without
        ad-hoc slicing.  Without ``i``, the same dict with a leading
        batch axis on every stream.

        Streams the last kernel call did not write (see :attr:`valid`)
        come back NaN-poisoned, exactly as stored.
        """
        v = np.asarray(self.v, dtype=np.float64)
        g = np.asarray(self.g, dtype=np.float64)
        lap = np.asarray(self.l, dtype=np.float64)
        h6 = np.asarray(self.h, dtype=np.float64)
        hfull = np.empty(
            (self.n_positions, 3, 3, self.n_splines), dtype=np.float64
        )
        axes = {"x": 0, "y": 1, "z": 2}
        for k, name in enumerate(HESS_COMPONENTS):
            a, b = axes[name[0]], axes[name[1]]
            hfull[:, a, b] = h6[:, k]
            hfull[:, b, a] = h6[:, k]
        full = {"v": v, "g": g, "l": lap, "h": hfull}
        if i is None:
            return full
        return {key: val[i] for key, val in full.items()}


class ChainRule:
    """A cell's chain rule from fractional to Cartesian derivatives.

    ``B`` is the cart -> frac Jacobian (``frac = cart @ B``, so ``B =
    inv(lattice)``) and ``M = B @ B.T`` the Laplacian metric:
    ``g_cart = B @ g_frac`` and ``lap_cart = sum_fg M[f, g] H_frac[f, g]``
    over the symmetric fractional Hessian.  :meth:`apply` is the NumPy
    form; :attr:`packed` is what a compiled Cartesian core reads.
    """

    def __init__(self, B: np.ndarray):
        self.B = np.array(B, dtype=np.float64)
        self.M = self.B @ self.B.T
        M = self.M
        #: ``B`` row-major, then ``M00 M11 M22 M01 M02 M12``.
        self.packed = np.concatenate(
            [self.B.ravel(), M[(0, 1, 2, 0, 0, 1), (0, 1, 2, 1, 2, 2)]]
        )

    def apply(self, out: BatchedOutput, v, g, l) -> None:
        """A VGH ``out`` in any table dtype into float64 values ``v``,
        Cartesian gradients ``g`` and Laplacians ``l``: every stream cast
        to float64, then an einsum for ``g`` and six Hessian rows for
        ``l`` (the zero terms of a diagonal ``M`` kept, since they decide
        the sign of a zero)."""
        v[...] = out.v
        g[...] = np.einsum("af,sfn->san", self.B, out.g.astype(np.float64))
        h = out.h.astype(np.float64)  # (ns, 6, N): xx, xy, xz, yy, yz, zz
        M = self.M
        l[...] = (
            M[0, 0] * h[:, 0]
            + M[1, 1] * h[:, 3]
            + M[2, 2] * h[:, 5]
            + 2.0 * (M[0, 1] * h[:, 1] + M[0, 2] * h[:, 2] + M[1, 2] * h[:, 4])
        )


class BsplineBatched:
    """Evaluate all three kernels for many positions in one call.

    Parameters
    ----------
    grid:
        The interpolation grid.
    coefficients:
        ``(nx, ny, nz, N)`` table, shared and read-only — ghost-padded
        internally (one copy at construction) — **or** an already
        padded ``(nx+3, ny+3, nz+3, N)`` table from
        :func:`repro.core.coeffs.pad_table_3d`, adopted zero-copy (the
        shared-memory path: the parent pads once, workers attach).
    max_batch_bytes:
        Legacy cap on the gather temporary of one kernel call: positions
        stream through chunks of ``max_batch_bytes // (64 * N *
        itemsize)`` (>= 1).  Mutually exclusive with ``chunk_size``.
    chunk_size:
        Positions per gather pass.  ``None`` lets the cache-aware
        auto-tuner (:mod:`repro.tune.planner`) pick.
    tile_size:
        Splines per contraction-core pass (the paper's Nb), applied as
        views of the chunk's gathered blocks.  ``None`` auto-tunes
        (full ``N`` unless the table is very wide); values above ``N``
        are clamped.
    backend:
        Which compiled implementation serves the chunk-level cores: a
        registered name (``"numpy"``, ``"numba"``, ``"cc"``), ``"auto"``
        (best available compiled backend, degrading to NumPy with a
        warning), a :class:`repro.backends.KernelBackend` instance
        (used as-is — the conformance harness's hook), or ``None`` —
        the ``REPRO_BACKEND`` environment variable if set, else the
        compiled exact-tier ``cc`` cores when a C compiler is present
        and their once-per-process bit-identity gate passes, else the
        NumPy cores.  Both are exact tier, so ``None`` yields the same
        bits on every host.  See :func:`repro.backends.resolve_backend`.
    config:
        A :class:`repro.config.RunConfig` supplying defaults for
        ``chunk_size``/``tile_size``/``backend``; an explicit kwarg
        still wins.  Pass a config resolved via
        :meth:`~repro.config.RunConfig.resolved_for` to get tuned-DB
        blocking; an unresolved config behaves like its raw fields.

    Notes
    -----
    The 4x4x4 neighbourhoods of each chunk are gathered with one flat
    fancy-index into the padded table (``(chunk, 64, N)`` reshaped to
    ``(chunk, 4, 4, 4, N)``), then contracted axis by axis with the
    per-position weight matrices — every (chunk, tile) produces the
    same bits (see the module docstring).  The resolved decision is
    exposed as :attr:`plan` and reported through the obs layer.
    """

    layout = "batched"

    def __init__(
        self,
        grid: Grid3D,
        coefficients: np.ndarray,
        max_batch_bytes: int | None = None,
        chunk_size: int | None = None,
        tile_size: int | None = None,
        backend=None,
        config=None,
    ):
        # ``config`` (a repro.config.RunConfig) supplies defaults for the
        # low-level knobs; an explicit kwarg still wins (rung 1 of the
        # documented resolution order).  The kwargs themselves are NOT
        # deprecated here — BsplineBatched is the primitive the resolved
        # config is ultimately spelled in.
        if config is not None:
            if chunk_size is None:
                chunk_size = config.chunk_size
            if tile_size is None:
                tile_size = config.tile_size
            if backend is None:
                backend = config.backend
        if coefficients.ndim != 4:
            raise ValueError(
                f"coefficients must be (nx, ny, nz, N), got {coefficients.shape}"
            )
        if coefficients.shape[:3] == grid.shape:
            padded = pad_table_3d(coefficients)
            unpadded = coefficients
        elif coefficients.shape[:3] == grid.padded_shape:
            padded = coefficients
            nx, ny, nz = grid.shape
            unpadded = padded[1 : nx + 1, 1 : ny + 1, 1 : nz + 1]
        else:
            raise ValueError(
                f"grid {grid.shape} (padded {grid.padded_shape}) does not "
                f"match table {coefficients.shape[:3]}"
            )
        self.grid = grid
        #: The unpadded table view — the engine-protocol ``P`` attribute.
        self.P = unpadded
        self._padded = padded
        self.n_splines = coefficients.shape[3]
        self.dtype = coefficients.dtype
        # Flat (nxp*nyp*nzp, N) alias of the padded table plus the 64
        # stencil offsets: lower-bound index i0 maps to padded rows
        # i0..i0+3 (halo of 1 before), so base + cube covers the stencil
        # with plain addition — no modulo.
        nxp, nyp, nzp = padded.shape[:3]
        self._row_strides = (nyp * nzp, nzp)
        self._flat = padded.reshape(nxp * nyp * nzp, self.n_splines)
        # Per-axis (1, 1/delta, 1/delta^2) in the table dtype: the chain
        # rule factors of the (value, first, second) derivative weights.
        self._weight_scale = np.array(
            [[1.0, inv, inv * inv] for inv in grid.inv_deltas], dtype=self.dtype
        )[:, :, np.newaxis, np.newaxis]
        off = np.arange(4, dtype=np.int64)
        self._cube = (
            (off[:, None] * nyp + off[None, :])[:, :, None] * nzp
            + off[None, None, :]
        ).ravel()

        if max_batch_bytes is not None:
            if chunk_size is not None:
                raise ValueError(
                    "pass either max_batch_bytes or chunk_size, not both"
                )
            if max_batch_bytes <= 0:
                raise ValueError(
                    f"max_batch_bytes must be positive, got {max_batch_bytes}"
                )
            per_position = 64 * self.n_splines * self.dtype.itemsize
            chunk = max(1, int(max_batch_bytes) // per_position)
            plan = dataclasses.replace(
                plan_tiles(
                    self.n_splines, self.dtype.itemsize,
                    chunk=chunk, tile=tile_size,
                ),
                source="max_batch_bytes",
            )
        else:
            plan = plan_tiles(
                self.n_splines,
                self.dtype.itemsize,
                chunk=chunk_size,
                tile=tile_size,
            )
        self.max_batch_bytes = max_batch_bytes
        #: The resolved :class:`repro.tune.planner.TilePlan`.
        self.plan: TilePlan = plan
        self._chunk = plan.chunk
        self._tile = plan.tile
        # The satellite fix: kernel methods resolved once per Kind, and
        # a reusable (1, 3) staging row, instead of a fresh allocation
        # plus getattr-string dispatch on every single-position call.
        self._kernels = {
            Kind.V: self.v_batch,
            Kind.VGL: self.vgl_batch,
            Kind.VGH: self.vgh_batch,
        }
        self._pos1 = np.empty((1, 3), dtype=np.float64)
        # Backend dispatch: names/None resolve through the registry
        # (activation runs the conformance gate once per process); an
        # already-constructed KernelBackend instance is used as-is —
        # that is how the conformance harness itself drives a candidate
        # backend without requiring it to be registered first.
        from repro.backends import KernelBackend, resolve_backend

        if not isinstance(backend, KernelBackend):
            backend = resolve_backend(backend)
        #: The active :class:`repro.backends.KernelBackend`.
        self.backend = backend
        self._cores = backend.make_cores(self)
        #: The Cartesian VGL core: the backend's own, else its VGH core
        #: and the NumPy chain rule, chunk by chunk.
        self._cart = self._cores.cart or self._chain_rule_core(self._cores.vgh)
        if OBS.enabled:
            OBS.count("batched_engine_builds_total", backend=backend.name)
            OBS.gauge(
                "batched_chunk_positions", plan.chunk, source=plan.source
            )
            OBS.gauge("batched_tile_splines", plan.tile, source=plan.source)
            OBS.gauge(
                "batched_working_set_bytes",
                plan.working_set_bytes,
                source=plan.source,
            )

    def new_output(self, kind: Kind = Kind.VGH, n: int = 1) -> BatchedOutput:
        """Allocate outputs for a batch of ``n`` positions.

        The buffer always carries all four streams; ``kind`` is validated
        for API parity with the single-position engines.
        """
        Kind.check(kind)
        n = int(n)
        if n <= 0:
            raise ValueError(f"n_positions must be positive, got {n}")
        return BatchedOutput(n, self.n_splines, self.dtype)

    # -- unified Engine protocol ---------------------------------------------

    def evaluate(self, kind: Kind, pos, out: BatchedOutput) -> BatchedOutput:
        """Evaluate one position through the batched kernels (batch of 1)."""
        kernel = self._kernels[Kind.check(kind)]
        self._pos1[0] = pos
        kernel(self._pos1, out)
        return out

    def evaluate_batch(
        self, kind: Kind, positions, out: BatchedOutput
    ) -> BatchedOutput:
        """Evaluate ``(ns, 3)`` positions, retaining every position's result."""
        self._kernels[Kind.check(kind)](positions, out)
        return out

    # -- shared plumbing -----------------------------------------------------

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

    @staticmethod
    def _begin(out: BatchedOutput, written: tuple[str, ...]) -> None:
        """Poison previously-valid streams this kernel will not refresh.

        A reused output whose ``.h`` (say) still holds an earlier
        ``vgh_batch`` result must not let a caller read it after a
        ``vgl_batch`` — the untouched stream is filled with NaN and
        dropped from :attr:`BatchedOutput.valid`.  Fresh (all-zero)
        buffers pay nothing: only streams marked valid are rewritten.

        Called exactly once per kernel call, *before* the chunk loop —
        chunked calls poison a stale stream one single time, not once
        per chunk (the fill count is part of the tested contract).
        """
        for name in out.valid:
            if name not in written:
                getattr(out, name).fill(np.nan)
        out.valid = frozenset()

    def _chunks(self, n_positions: int):
        step = self._chunk if self._chunk is not None else n_positions
        for lo in range(0, n_positions, step):
            yield slice(lo, min(lo + step, n_positions))

    def _tiles(self):
        """Spline-axis slices of width ``tile`` (one full slice if untiled).

        Never yields a width-1 slice: numpy's einsum dispatches a length-1
        axis to a different inner loop whose accumulation order differs by
        an ulp, which would break the bitwise-identity contract.  A tile of
        1 is widened to 2 and a trailing orphan column is absorbed into the
        final tile instead of getting its own.
        """
        n = self.n_splines
        if self._tile >= n:
            yield slice(None)
            return
        t = max(self._tile, 2)
        lo = 0
        while lo < n:
            hi = lo + t
            if n - hi == 1:
                hi = n
            yield slice(lo, min(hi, n))
            lo = hi

    def _locate_weights(self, positions: np.ndarray):
        """Flat stencil base rows + per-axis ``(w, dw, d2w)`` weight triples.

        ``base`` is each position's lower-bound row in the flattened
        padded table (int64, contiguous); a backend reads the 4x4x4
        neighbourhood as rows ``base + a*sy + b*sz .. +3`` with plain
        addition — no modulo wrap.  The weight matrices are ``(ns, 4)``
        contiguous arrays in the table dtype, derivative weights
        pre-scaled by the grid's inverse deltas — the front half of the
        NumPy and numba chunk kernels (``cc`` repeats these operations
        in C, per position).  All nine come from one
        :func:`~repro.core.basis.bspline_fused_weights` call as views of
        one ``(axis, order, ns, 4)`` block, bitwise equal to the
        per-order :func:`~repro.core.basis.bspline_weights_batch` form.
        """
        idx, frac = self.grid.locate_batch(positions)
        sy, sz = self._row_strides
        base = np.ascontiguousarray(
            idx[:, 0] * sy + idx[:, 1] * sz + idx[:, 2], dtype=np.int64
        )
        # One (axis, order, ns, 4) block: every weight cast to the table
        # dtype first, then scaled in that dtype (order 0 by exactly 1).
        w = bspline_fused_weights(frac.T)  # (order, tap, axis, ns)
        block = np.empty((3, 3, len(frac), 4), dtype=self.dtype)
        np.multiply(
            w.transpose(2, 0, 3, 1), self._weight_scale,
            out=block, dtype=self.dtype, casting="same_kind",
        )
        return base, tuple((b[0], b[1], b[2]) for b in block)

    def _gather(self, positions: np.ndarray):
        """Blocks ``(ns, 4, 4, 4, N)`` + per-axis weight triples.

        One flat fancy-index against the ghost-padded table: ``base``
        plus the 64-entry ``_cube`` offset pulls each position's whole
        neighbourhood — no modulo wrap, no broadcast triple-index.
        Ghost rows are exact copies, so the gathered bits equal the
        modulo path's.  (The NumPy cores' front end; the compiled
        backends skip the gather temporary and read the stencil in-loop
        from the base rows.)
        """
        base, weights = self._locate_weights(positions)
        blocks = self._flat[base[:, None] + self._cube[None, :]].reshape(
            len(positions), 4, 4, 4, self.n_splines
        )
        return blocks, weights

    # -- kernels -------------------------------------------------------------

    def _run(
        self, kern: str, positions: np.ndarray, out, chain: ChainRule | None = None
    ) -> None:
        """Shared kernel loop: poison once, then stream cache-sized chunks.

        The chunk-level arithmetic is served by the active backend's
        cores (:class:`repro.backends.BackendCores`): ``v`` for the V
        kernel, ``vgh`` for both VGL (``h=None``) and VGH, ``cart`` (or
        ``vgh`` and the chain rule, :meth:`_chain_rule_core`) for the
        Cartesian VGL (``chain`` given, ``out`` a float64 ``(v, g, l)``
        triple, nothing to poison).  A backend whose capability
        record omits the requested kind is refused here with an
        actionable error rather than producing NaNs.
        """
        kind = Kind(kern)
        if kind not in self.backend.capability.kinds:
            from repro.backends import BackendUnavailable

            raise BackendUnavailable(
                f"backend {self.backend.name!r} does not serve kernel "
                f"{kind.value!r}; it declares "
                f"{tuple(k.value for k in self.backend.capability.kinds)}"
            )
        if chain is None:
            self._begin(out, _KERNEL_STREAMS[kern])
        observe = OBS.enabled
        for sl in self._chunks(len(positions)):
            t0 = time.perf_counter() if observe else 0.0
            if chain is not None:
                v, g, l = out
                self._cart(positions[sl], chain, v[sl], g[sl], l[sl])
            elif kern == "v":
                self._cores.v(positions[sl], out.v[sl])
            elif kern == "vgl":
                self._cores.vgh(
                    positions[sl], out.v[sl], out.g[sl], out.l[sl], None
                )
            else:
                self._cores.vgh(
                    positions[sl], out.v[sl], out.g[sl], out.l[sl], out.h[sl]
                )
            if observe:
                OBS.observe(
                    "batched_chunk_seconds",
                    time.perf_counter() - t0,
                    kernel=kern,
                    backend=self.backend.name,
                )
        if chain is None:
            out.valid = frozenset(_KERNEL_STREAMS[kern])

    def v_batch(self, positions: np.ndarray, out: BatchedOutput) -> None:
        """Kernel ``V`` for the whole batch into ``out.v``."""
        self._run("v", self._check(positions, out), out)

    def vgl_batch(
        self, positions: np.ndarray, out, chain: ChainRule | None = None
    ) -> None:
        """Kernel ``VGL`` for the whole batch.

        With ``chain``, ``positions`` are a cell's fractional coordinates
        and ``out`` is a ``(v, g, l)`` triple of C-contiguous float64
        blocks ``(ns, N)``, ``(ns, 3, N)``, ``(ns, N)``, which receive the
        values, the Cartesian gradients and the Cartesian Laplacians (the
        QMC adapter's call, :meth:`repro.qmc.SplineOrbitalSet.vgl_batch`).
        A backend with a ``cart`` core (``cc``) writes each chunk in one
        pass; any other runs its VGH core into a table-dtype buffer and
        :meth:`ChainRule.apply`, chunk by chunk.
        """
        if chain is None:
            self._run("vgl", self._check(positions, out), out)
            return
        positions = np.asarray(positions, dtype=np.float64)
        ns, n = len(positions), self.n_splines
        shapes = ((ns, n), (ns, 3, n), (ns, n))
        if positions.ndim != 2 or positions.shape[1] != 3 or any(
            a.shape != shape or a.dtype != np.float64 or not a.flags.c_contiguous
            for a, shape in zip(out, shapes)
        ):
            raise ValueError(
                f"expected (ns, 3) positions and C-contiguous float64 "
                f"outputs {shapes}"
            )
        self._run("vgl", positions, out, chain)

    def vgh_batch(self, positions: np.ndarray, out: BatchedOutput) -> None:
        """Kernel ``VGH`` for the whole batch (fills ``l`` too, for free)."""
        self._run("vgh", self._check(positions, out), out)

    # -- NumPy contraction cores (one chunk; outputs are array views) --------
    # Served to the engine by repro.backends.NumpyBackend; kept on the
    # engine so the exact-tier arithmetic has a single home.

    def _numpy_v_core(self, positions: np.ndarray, v: np.ndarray) -> None:
        blocks, ((ax, _, _), (ay, _, _), (az, _, _)) = self._gather(positions)
        for ts in self._tiles():
            b = blocks[..., ts]
            tz = np.einsum("sabcn,sc->sabn", b, az)
            ty = np.einsum("sabn,sb->san", tz, ay)
            np.einsum("san,sa->sn", ty, ax, out=v[:, ts])

    def _chain_rule_core(self, vgh_core):
        """A Cartesian VGL core made of a VGH core: one chunk's VGH into
        a table-dtype buffer, then :meth:`ChainRule.apply`."""

        def cart(positions, chain: ChainRule, v, g, l) -> None:
            buf = BatchedOutput(len(positions), self.n_splines, self.dtype)
            vgh_core(positions, buf.v, buf.g, buf.l, buf.h)
            chain.apply(buf, v, g, l)

        return cart

    def _numpy_vgh_core(
        self,
        positions: np.ndarray,
        v: np.ndarray,
        g: np.ndarray,
        l: np.ndarray,
        h: np.ndarray | None,
    ) -> None:
        blocks, ((ax, dax, d2ax), (ay, day, d2ay), (az, daz, d2az)) = self._gather(
            positions
        )
        for ts in self._tiles():
            b = blocks[..., ts]
            tz0 = np.einsum("sabcn,sc->sabn", b, az)
            tz1 = np.einsum("sabcn,sc->sabn", b, daz)
            tz2 = np.einsum("sabcn,sc->sabn", b, d2az)
            u00 = np.einsum("sabn,sb->san", tz0, ay)
            u10 = np.einsum("sabn,sb->san", tz0, day)
            u20 = np.einsum("sabn,sb->san", tz0, d2ay)
            u01 = np.einsum("sabn,sb->san", tz1, ay)
            u11 = np.einsum("sabn,sb->san", tz1, day)
            u02 = np.einsum("sabn,sb->san", tz2, ay)
            v[:, ts] = np.einsum("san,sa->sn", u00, ax)
            g[:, 0, ts] = np.einsum("san,sa->sn", u00, dax)
            g[:, 1, ts] = np.einsum("san,sa->sn", u10, ax)
            g[:, 2, ts] = np.einsum("san,sa->sn", u01, ax)
            hxx = np.einsum("san,sa->sn", u00, d2ax)
            hyy = np.einsum("san,sa->sn", u20, ax)
            hzz = np.einsum("san,sa->sn", u02, ax)
            l[:, ts] = hxx + hyy + hzz
            if h is not None:
                h[:, 0, ts] = hxx
                h[:, 1, ts] = np.einsum("san,sa->sn", u10, dax)
                h[:, 2, ts] = np.einsum("san,sa->sn", u01, dax)
                h[:, 3, ts] = hyy
                h[:, 4, ts] = np.einsum("san,sa->sn", u11, ax)
                h[:, 5, ts] = hzz
