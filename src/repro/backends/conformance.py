"""Differential conformance: every backend proven against the frozen oracle.

The harness drives a backend through :class:`repro.core.BsplineBatched`
and compares every output stream of every kernel kind against the
frozen PR4 oracle (:class:`repro.core.batched_reference
.ReferenceBatched`) — across both table dtypes, several (chunk, tile)
configurations (including the width-1-adjacent tile the engine's tiler
must absorb), and positions that cross every periodic seam.  A backend
is held to its **declared** tier:

* ``exact`` — every stream must be bit-for-bit equal
  (``np.testing.assert_array_equal`` semantics, and the same sign on
  every zero); the check's reported ``max_error`` is the worst absolute
  deviation (``inf`` when only a zero's sign differs) and its
  tolerance 0.0.
* ``allclose`` — every element must satisfy
  ``|new - ref| <= atol + rtol * |ref|`` at the capability's declared
  per-dtype ``(rtol, atol)``; the reported ``max_error`` is the worst
  *normalized* error (1.0 = exactly at the declared bound).

A backend with a Cartesian VGL core (``cc``) is also held, inside its
``vgl`` check, to the oracle's VGH put through the NumPy chain rule
(:meth:`~repro.core.batched.ChainRule.apply`) for a diagonal and two
full lattice Jacobians (:func:`conformance_chains`); the default table
has one identically zero interior spline (the last, orphan-column one
stays random), so the chain rule's products of exact zeros, and the
signs of their sums, are covered too.  Every output a backend fills
starts as NaN, so an element it never writes cannot match the
reference.

:func:`verify_backend` returns the same :class:`~repro.core.verify
.VerifyReport` the engine-family self-check uses, so one summary table
covers both; :func:`check_backend` raises
:class:`~repro.backends.base.BackendConformanceError` on any failure
and is what the registry runs before a backend may serve kernels
(:func:`repro.backends.registry.resolve_backend`).
"""

from __future__ import annotations

import numpy as np

from repro.backends.base import BackendConformanceError, KernelBackend, TIER_EXACT
from repro.core.batched import _KERNEL_STREAMS, BsplineBatched, ChainRule
from repro.core.batched_reference import ReferenceBatched
from repro.core.grid import Grid3D
from repro.core.kinds import Kind
from repro.core.verify import EngineCheck, VerifyReport

__all__ = [
    "check_backend",
    "conformance_chains",
    "conformance_configs",
    "conformance_positions",
    "verify_backend",
]

#: Default differential problem: deliberately unequal, coprime-ish grid
#: dimensions so an axis-ordering bug cannot cancel out.
DEFAULT_GRID_SHAPE = (6, 7, 5)
DEFAULT_N_SPLINES = 6
DEFAULT_LENGTHS = (1.7, 2.3, 1.1)


def conformance_configs(n_splines: int) -> tuple[tuple[int | None, int | None], ...]:
    """(chunk, tile) pairs covering the engine's streaming edge cases.

    Includes the auto-tuned default, a chunk smaller than the batch
    (multi-chunk streaming), and the width-1-adjacent tile
    ``n_splines - 1`` whose orphan column the tiler must absorb into
    the final tile (see :meth:`BsplineBatched._tiles`).
    """
    return (
        (None, None),
        (2, None),
        (3, max(n_splines - 1, 2)),
        (2, 2),
    )


def conformance_chains() -> tuple[ChainRule, ...]:
    """Chain rules the Cartesian VGL is checked with: an orthorhombic
    cell's diagonal ``B`` (its zero entries make signed-zero products),
    the graphite cell's full one, and a full ``B`` with a negative row,
    whose products with an exact-zero gradient are all -0.0 (the sum
    from 0.0 makes them +0.0)."""
    from repro.lattice.graphite import graphite_unit_cell

    return (
        ChainRule(np.linalg.inv(np.diag([12.0, 7.0, 3.0]))),
        ChainRule(np.linalg.inv(graphite_unit_cell().lattice)),
        ChainRule(np.array([[-0.2, -0.05, -0.01], [0.0, -0.2, 0.0], [0.0, 0.1, 0.3]])),
    )


def conformance_positions(
    grid: Grid3D, rng: np.random.Generator, n_random: int = 8
) -> np.ndarray:
    """Random positions plus every periodic-seam corner case.

    The seam set pins the ghost-halo reads: positions whose stencil
    wraps below 0 on each axis, above the top grid point, exact zeros,
    exact box lengths (which must wrap to 0), and out-of-box values on
    both sides.
    """
    lx, ly, lz = grid.lengths
    eps = 1e-9
    seams = [
        (0.0, 0.0, 0.0),
        (eps, eps, eps),
        (lx - eps, ly - eps, lz - eps),
        (lx, ly, lz),
        (-0.25 * lx, 1.6 * ly, 0.5 * lz),
        (0.5 * lx, -eps, lz + eps),
    ]
    pos = np.asarray(list(grid.random_positions(n_random, rng)) + seams)
    return np.asarray(pos, dtype=np.float64)


def _stream_error(
    new: np.ndarray, ref: np.ndarray, tier: str, rtol: float, atol: float
) -> float:
    """Normalized deviation of one output stream (see module docstring)."""
    if tier == TIER_EXACT:
        if np.array_equal(new, ref):
            # Equal values; a zero of the other sign is still a miss.
            same_signs = np.array_equal(np.signbit(new), np.signbit(ref))
            return 0.0 if same_signs else np.inf
        if (np.isnan(new) != np.isnan(ref)).any():
            return np.inf  # a NaN against a number, e.g. an unwritten element
        diff = np.abs(new - ref)
        return float(np.nanmax(diff)) if np.isfinite(diff).any() else np.inf
    denom = atol + rtol * np.abs(ref)
    err = np.abs(new - ref) / denom
    return float(err.max()) if err.size else 0.0


def verify_backend(
    backend: KernelBackend,
    grid: Grid3D | None = None,
    coefficients: np.ndarray | None = None,
    *,
    dtypes=None,
    n_positions: int = 8,
    seed: int = 7,
    configs=None,
) -> VerifyReport:
    """Run the differential harness for one backend; never raises on failure.

    Parameters
    ----------
    backend:
        The backend under test (an instance, not a registry name — the
        registry calls this *before* admitting a name, so resolution
        cannot be a prerequisite).
    grid, coefficients:
        An explicit problem; defaults to the built-in coprime-grid
        problem.  When ``coefficients`` is given its dtype is the only
        one tested.
    dtypes:
        Restrict the default problem to these dtype names.
    n_positions:
        Random positions on top of the always-included seam set.
    configs:
        Explicit ``(chunk, tile)`` pairs; defaults to
        :func:`conformance_configs`.

    Returns
    -------
    VerifyReport
        One :class:`~repro.core.verify.EngineCheck` per (dtype, kind),
        labelled ``"<name>[<dtype>:<tier>]"``, carrying the worst
        normalized error over all configurations and seam positions.
    """
    cap = backend.capability
    if coefficients is not None:
        if grid is None:
            raise ValueError("passing coefficients requires the matching grid")
        problems = [(grid, coefficients)]
    else:
        rng = np.random.default_rng(seed)
        grid = grid or Grid3D(*DEFAULT_GRID_SHAPE, lengths=DEFAULT_LENGTHS)
        wanted = tuple(dtypes) if dtypes is not None else cap.dtypes
        base_table = rng.standard_normal(grid.shape + (DEFAULT_N_SPLINES,))
        base_table[..., 1] = 0.0  # exact zeros in every stream
        problems = [
            (grid, base_table.astype(dtype))
            for dtype in wanted
            if dtype in cap.dtypes
        ]

    report = VerifyReport()
    for grid_, table in problems:
        dtype = table.dtype
        rtol, atol = cap.tolerance_for(dtype)
        n_splines = table.shape[3]
        pos_rng = np.random.default_rng(seed + n_splines)
        positions = conformance_positions(grid_, pos_rng, n_positions)
        oracle = ReferenceBatched(grid_, table)
        pair_configs = configs if configs is not None else conformance_configs(
            n_splines
        )
        reference = {}
        for kind in cap.kinds:
            reference[kind] = oracle.new_output(kind, n=len(positions))
            oracle.evaluate_batch(kind, positions, reference[kind])
        worst = dict.fromkeys(cap.kinds, 0.0)
        cartesian = None  # the oracle's Cartesian VGL, once it is needed
        # One engine per configuration serves every kind (a fresh output
        # each, so no kind reads another's streams).
        for config, (chunk, tile) in enumerate(pair_configs):
            eng = BsplineBatched(
                grid_,
                table,
                chunk_size=chunk,
                tile_size=tile,
                backend=backend,
            )
            for kind in cap.kinds:
                out = eng.new_output(kind, n=len(positions))
                # NaN first: an element the backend never writes cannot
                # match the reference.
                for stream in _KERNEL_STREAMS[kind.value]:
                    getattr(out, stream).fill(np.nan)
                eng.evaluate_batch(kind, positions, out)
                for stream in _KERNEL_STREAMS[kind.value]:
                    worst[kind] = max(
                        worst[kind],
                        _stream_error(
                            getattr(out, stream),
                            getattr(reference[kind], stream),
                            cap.tier,
                            rtol,
                            atol,
                        ),
                    )
            if Kind.VGL in cap.kinds and eng._cores.cart is not None:
                if cartesian is None:
                    cartesian = _oracle_cartesian(
                        oracle, positions, reference.get(Kind.VGH)
                    )
                # The chains take turns over the configurations.
                chain, want = cartesian[config % len(cartesian)]
                got = tuple(np.full_like(a, np.nan) for a in want)
                eng.vgl_batch(positions, got, chain=chain)
                for new, ref in zip(got, want):
                    worst[Kind.VGL] = max(
                        worst[Kind.VGL],
                        _stream_error(new, ref, cap.tier, rtol, atol),
                    )
        for kind in cap.kinds:
            report.checks.append(
                EngineCheck(
                    engine=f"{cap.name}[{dtype.name}:{cap.tier}]",
                    kernel=kind.value,
                    max_error=worst[kind],
                    tolerance=0.0 if cap.tier == TIER_EXACT else 1.0,
                )
            )
    return report


def _oracle_cartesian(oracle: ReferenceBatched, positions: np.ndarray, vgh=None):
    """``(chain, (v, g, l))`` per :func:`conformance_chains`: the oracle's
    VGH (``vgh`` when already evaluated) through :meth:`ChainRule.apply`."""
    if vgh is None:
        vgh = oracle.new_output(Kind.VGH, n=len(positions))
        oracle.evaluate_batch(Kind.VGH, positions, vgh)
    ns, n = vgh.v.shape
    out = []
    for chain in conformance_chains():
        want = (np.empty((ns, n)), np.empty((ns, 3, n)), np.empty((ns, n)))
        chain.apply(vgh, *want)
        out.append((chain, want))
    return out


def check_backend(backend: KernelBackend, **kwargs) -> VerifyReport:
    """:func:`verify_backend`, escalated: raise on any failed check."""
    report = verify_backend(backend, **kwargs)
    if not report.all_passed:
        raise BackendConformanceError(
            f"backend {backend.name!r} failed its declared "
            f"{backend.capability.tier!r} conformance tier against the "
            f"reference oracle:\n{report.summary()}"
        )
    return report
