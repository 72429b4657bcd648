"""Tiling arithmetic: working sets, tile-size candidates, and auto-tuning.

This module holds the pure arithmetic side of Opt B.  The paper's own
analysis (Sec. V-B and VII) is entirely working-set accounting:

* input working set per active tile:  ``itemsize * Ng * Nb`` bytes
  (the re-blocked coefficient slab; 4 bytes/value in single precision
  gives the paper's ``4 Ng Nb``),
* output working set per walker:      ``streams * itemsize * Nw * Nb``
  bytes, with ``streams`` = 1 (V), 5 (VGL), 10 (VGH SoA) or 13 (VGH AoS),
* with nested threading both scale by ``nth`` — unless the walker count
  is reduced by the same factor, which keeps the output set constant
  (the strong-scaling trick of Sec. V-C).

The machine-aware *model-based* tile selection lives in
:mod:`repro.hwsim.wsmodel` (it needs cache descriptions); here we provide
the arithmetic, the candidate enumeration, and a *measurement-based*
auto-tuner in the spirit of the paper's planned "auto-tuning capability
using miniQMC ... similar to FFTW's solution using wisdom files"
(Sec. VI).  Persisted tuning lives in :class:`repro.tune.db.TuneDB`.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.kinds import Kind

__all__ = [
    "OUTPUT_STREAMS",
    "split_table",
    "input_working_set_bytes",
    "output_working_set_bytes",
    "candidate_tile_sizes",
    "autotune_tile_size",
]

#: Output streams per kernel and layout, from paper Secs. IV & V-A.
OUTPUT_STREAMS = {
    ("v", "aos"): 1,
    ("v", "soa"): 1,
    ("vgl", "aos"): 5,
    ("vgl", "soa"): 5,
    ("vgh", "aos"): 13,
    ("vgh", "soa"): 10,
}


def split_table(coefficients: np.ndarray, tile_size: int) -> list[np.ndarray]:
    """Physically re-block a coefficient table along the spline dimension.

    Returns M contiguous ``(nx, ny, nz, Nb)`` arrays.  The copies are the
    point: after re-blocking, one tile's 64 input streams touch a compact
    ``4*Ng*Nb``-byte slab instead of strided slices of the full table
    (paper Fig. 5b).
    """
    if coefficients.ndim != 4:
        raise ValueError(
            f"coefficients must be (nx, ny, nz, N), got {coefficients.shape}"
        )
    n_splines = coefficients.shape[3]
    if tile_size <= 0 or n_splines % tile_size != 0:
        raise ValueError(f"tile_size must divide N: N={n_splines}, Nb={tile_size}")
    return [
        np.ascontiguousarray(coefficients[..., t : t + tile_size])
        for t in range(0, n_splines, tile_size)
    ]


def input_working_set_bytes(
    n_grid_points: int, tile_size: int, itemsize: int = 4, nth: int = 1
) -> int:
    """Input (coefficient-slab) working set in bytes: ``itemsize*Ng*Nb*nth``.

    Parameters
    ----------
    n_grid_points:
        ``Ng = nx*ny*nz``.
    tile_size:
        Nb.
    itemsize:
        Bytes per coefficient (4 in the paper's single precision).
    nth:
        Number of nested threads concurrently holding distinct tiles.
    """
    return itemsize * n_grid_points * tile_size * nth


def output_working_set_bytes(
    kernel: str,
    layout: str,
    n_walkers: int,
    tile_size: int,
    itemsize: int = 4,
    nth: int = 1,
) -> int:
    """Output working set in bytes: ``streams*itemsize*Nw*Nb*nth``.

    For VGH/SoA this is the paper's ``40 Nw Nb`` (10 streams x 4 bytes).
    Note the strong-scaling configuration divides ``n_walkers`` by the
    thread count, which exactly cancels ``nth`` here (Sec. V-C).
    """
    try:
        streams = OUTPUT_STREAMS[(kernel, layout)]
    except KeyError:
        raise ValueError(f"unknown kernel/layout {(kernel, layout)!r}") from None
    return streams * itemsize * n_walkers * tile_size * nth


def candidate_tile_sizes(n_splines: int, minimum: int = 16) -> list[int]:
    """Power-of-two tile sizes from ``minimum`` up to N, as in Fig. 7(c).

    "Starting at Nb = 16, we explore tile sizes in the multiple of two
    till Nb = N" (Sec. VI-B).  Only divisors of N are returned so every
    candidate yields an exact blocking.
    """
    if n_splines <= 0:
        raise ValueError(f"n_splines must be positive, got {n_splines}")
    sizes = []
    nb = minimum
    while nb <= n_splines:
        if n_splines % nb == 0:
            sizes.append(nb)
        nb *= 2
    if not sizes:
        sizes = [n_splines]
    return sizes


def autotune_tile_size(
    grid,
    coefficients: np.ndarray,
    kernel: str = "vgh",
    candidates: list[int] | None = None,
    n_samples: int = 8,
    rng: np.random.Generator | None = None,
    repeats: int = 2,
) -> tuple[int, dict[int, float]]:
    """Measure-and-pick the fastest tile size on the *current* host.

    This is the FFTW-wisdom-style tuner the paper plans for production
    runs: run the real tiled kernel at each candidate Nb on a handful of
    random positions and keep the one with the best time.  The result is
    host-specific.

    Returns
    -------
    (best_nb, timings):
        The winning tile size and the per-candidate best-of-``repeats``
        seconds for the whole sample batch.
    """
    from repro.core.layout_aosoa import BsplineAoSoA  # local: avoid cycle

    if rng is None:
        rng = np.random.default_rng(2017)
    n_splines = coefficients.shape[3]
    if candidates is None:
        candidates = candidate_tile_sizes(n_splines)
    positions = grid.random_positions(n_samples, rng)
    timings: dict[int, float] = {}
    kind = kernel if isinstance(kernel, Kind) else Kind(kernel)
    for nb in candidates:
        eng = BsplineAoSoA(grid, coefficients, nb)
        out = eng.new_output(kind)
        kern = getattr(eng, kind.value)
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            for x, y, z in positions:
                kern(x, y, z, out)
            best = min(best, time.perf_counter() - t0)
        timings[nb] = best
    best_nb = min(timings, key=timings.get)
    return best_nb, timings

