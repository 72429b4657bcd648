"""repro.core — B-spline orbital evaluation kernels, the paper's contribution.

Public surface:

* Grids and tables: :class:`Grid3D`, :func:`solve_coefficients_3d`,
  :func:`solve_coefficients_1d`, :func:`pad_spline_count`.
* Engines (one per data layout):

  ========================  =========================================
  :class:`BsplineAoS`       baseline, interleaved outputs (paper Fig 4a)
  :class:`BsplineSoA`       Opt A, contiguous streams (paper Fig 4b)
  :class:`BsplineAoSoA`     Opt B, tiled / cache-blocked (paper Fig 6)
  :class:`BsplineFused`     tensor-contraction schedule (Python-fast path)
  ========================  =========================================

* Output buffers: :class:`WalkerAoS`, :class:`WalkerSoA`,
  :class:`WalkerTiled`.
* Unified evaluation API: :class:`Kind` (V/VGL/VGH selector) and the
  :class:`Engine` protocol every engine implements —
  ``evaluate(kind, pos, out)`` / ``evaluate_batch(kind, positions, out)``
  / ``new_output(kind, n=1)``.
* Nested threading (Opt C): :class:`NestedEvaluator`, over the static
  split of :func:`repro.core.partition.partition`.
* Tiling arithmetic and auto-tuning: :mod:`repro.core.tiling`.
* Batched-path cache planning: :func:`pad_table_3d` (ghost-padded
  tables), :func:`detect_caches` / :func:`plan_tiles` and their result
  types :class:`CacheInfo` / :class:`TilePlan` (:mod:`repro.tune.planner`).
* Reference oracles: :mod:`repro.core.refimpl` (single-position),
  :mod:`repro.core.batched_reference` (pre-padding batched path).
"""

from repro.core.alloc import aligned_empty, aligned_zeros, is_aligned
from repro.core.batched import BatchedOutput, BsplineBatched
from repro.core.basis import (
    bspline_all_weights,
    bspline_d2weights,
    bspline_dweights,
    bspline_weights,
    bspline_weights_batch,
)
from repro.core.coeffs import (
    pad_spline_count,
    pad_table_3d,
    solve_coefficients_1d,
    solve_coefficients_3d,
)
from repro.core.containers import VectorSoA3D
from repro.core.engine import Engine, SinglePositionEngineMixin
from repro.core.grid import Grid3D
from repro.core.kinds import Kind
from repro.core.layout_aos import BsplineAoS
from repro.core.layout_aosoa import BsplineAoSoA
from repro.core.layout_fused import BsplineFused
from repro.core.layout_soa import BsplineSoA
from repro.core.nested import NestedEvaluator
from repro.core.spline1d import CubicBspline1D
from repro.tune.planner import CacheInfo, TilePlan, detect_caches, plan_tiles
from repro.core.tiling import (
    autotune_tile_size,
    candidate_tile_sizes,
    input_working_set_bytes,
    output_working_set_bytes,
    split_table,
    Wisdom,
)
from repro.core.verify import (
    EngineCheck,
    VerifyReport,
    verify_backend,
    verify_engines,
)
from repro.core.walker import WalkerAoS, WalkerSoA, WalkerTiled

__all__ = [
    "Grid3D",
    "Kind",
    "Engine",
    "SinglePositionEngineMixin",
    "solve_coefficients_1d",
    "solve_coefficients_3d",
    "pad_spline_count",
    "pad_table_3d",
    "CacheInfo",
    "TilePlan",
    "detect_caches",
    "plan_tiles",
    "BsplineAoS",
    "BsplineSoA",
    "BsplineAoSoA",
    "BsplineFused",
    "BsplineBatched",
    "BatchedOutput",
    "WalkerAoS",
    "WalkerSoA",
    "WalkerTiled",
    "NestedEvaluator",
    "VectorSoA3D",
    "CubicBspline1D",
    "aligned_empty",
    "aligned_zeros",
    "is_aligned",
    "bspline_weights",
    "bspline_dweights",
    "bspline_d2weights",
    "bspline_all_weights",
    "bspline_weights_batch",
    "split_table",
    "candidate_tile_sizes",
    "autotune_tile_size",
    "input_working_set_bytes",
    "output_working_set_bytes",
    "Wisdom",
    "verify_backend",
    "verify_engines",
    "VerifyReport",
    "EngineCheck",
]
