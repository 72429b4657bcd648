"""Nested threading over AoSoA tiles — Opt C of the paper (Sec. V-C).

The common QMC parallelization gives each OpenMP thread one walker; Opt C
instead assigns ``nth`` threads *per walker* and distributes the M tiles
of the AoSoA engine among them.  miniQMC uses "an explicit data partition
scheme ... distributing M objects among nth threads.  This avoids any
potential overhead from OpenMP nested run time environment" — we mirror
that exactly: a static contiguous partition computed once, then each
thread runs its tile range for every sample with no locks, no shared
mutable state, and no synchronization until the final join.

Python-specific note: NumPy array arithmetic releases the GIL, so tile
work genuinely overlaps on multi-core hosts.  On a single-core host the
code path is identical but wall-clock speedup is impossible; the
hardware-model results for paper Fig. 9 come from
:mod:`repro.hwsim.perfmodel`, with this module providing the functional
(correctness) side of Opt C.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.core.kinds import Kind
from repro.core.layout_aosoa import BsplineAoSoA
from repro.core.partition import partition
from repro.core.walker import WalkerTiled
from repro.obs import OBS

__all__ = ["NestedEvaluator"]


class NestedEvaluator:
    """Evaluate one walker's B-spline kernels with ``nth`` worker threads.

    Parameters
    ----------
    engine:
        A tiled :class:`~repro.core.layout_aosoa.BsplineAoSoA` engine.
    n_threads:
        Threads cooperating on each walker (the paper's nth).  The pool
        is created once and reused across evaluations, matching the
        persistent OpenMP team of the C++ implementation.

    Notes
    -----
    The partition is computed in the constructor; each ``evaluate_*``
    call submits one task per worker covering that worker's tile range
    for *all* positions, then joins.  Tiles never migrate between
    threads, so each thread's input slab and output blocks stay in that
    thread's (modelled) cache — the locality property Sec. V-C relies on.
    """

    def __init__(self, engine: BsplineAoSoA, n_threads: int):
        if n_threads <= 0:
            raise ValueError(f"n_threads must be positive, got {n_threads}")
        self.engine = engine
        self.n_threads = int(n_threads)
        self.partition = partition(engine.n_tiles, n_threads)
        self._pool = ThreadPoolExecutor(
            max_workers=n_threads, thread_name_prefix="walker-nested"
        )
        self._closed = False

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has run; a closed evaluator never revives."""
        return self._closed

    def close(self) -> None:
        """Shut the worker pool down; the evaluator is unusable afterwards."""
        self._closed = True
        self._pool.shutdown(wait=True)

    def __enter__(self) -> "NestedEvaluator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def evaluate(
        self, kind: "Kind | str", positions: np.ndarray, out: WalkerTiled
    ) -> None:
        """Run kernel ``kind`` at every position, tiles split across threads.

        Parameters
        ----------
        kind:
            :class:`~repro.core.kinds.Kind` (legacy strings accepted with
            a deprecation warning).
        positions:
            ``(ns, 3)`` batch of evaluation positions (one walker's random
            sample set, paper Fig. 3 L18).
        out:
            The walker's tiled output buffer; after return it holds the
            results *of the last position* in every tile, matching the
            sequential driver's semantics.
        """
        kind = Kind.coerce(kind)
        if self._closed:
            raise RuntimeError(
                "NestedEvaluator is closed; create a new evaluator "
                "(worker pools do not restart after close())"
            )
        positions = np.asarray(positions, dtype=np.float64)
        if OBS.enabled:
            # Occupancy: threads with a non-empty tile range actually work;
            # the rest idle (the paper's nth <= N/Nb scaling limit).
            active = sum(1 for rng in self.partition if len(rng))
            OBS.gauge("nested_threads", self.n_threads)
            OBS.gauge("nested_active_workers", active)
            OBS.gauge("nested_occupancy", active / self.n_threads)
            OBS.count(
                "nested_evaluations_total", engine="aosoa", kernel=kind.value
            )
        with OBS.span(
            f"nested:{kind.value}",
            cat="nested",
            n_positions=len(positions),
            n_threads=self.n_threads,
        ):
            futures = [
                self._pool.submit(
                    self.engine.eval_tiles, kind, rng, positions, out
                )
                for rng in self.partition
                if len(rng)
            ]
            for fut in futures:
                fut.result()  # re-raises worker exceptions

    def evaluate_v(self, positions: np.ndarray, out: WalkerTiled) -> None:
        """Convenience wrapper for :meth:`evaluate` with ``Kind.V``."""
        self.evaluate(Kind.V, positions, out)

    def evaluate_vgl(self, positions: np.ndarray, out: WalkerTiled) -> None:
        """Convenience wrapper for :meth:`evaluate` with ``Kind.VGL``."""
        self.evaluate(Kind.VGL, positions, out)

    def evaluate_vgh(self, positions: np.ndarray, out: WalkerTiled) -> None:
        """Convenience wrapper for :meth:`evaluate` with ``Kind.VGH``."""
        self.evaluate(Kind.VGH, positions, out)
