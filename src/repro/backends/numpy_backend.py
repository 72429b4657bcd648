"""The NumPy backend: today's einsum path, always available, exact tier.

This backend *is* the PR5 memory path — the ghost-padded flat-index
gather plus spline-tiled z→y→x einsum contraction cores that
``tests/core/test_padded_gather.py`` proves bitwise-identical to the
frozen PR4 oracle for every (chunk, tile, dtype, seam position).  It
claims the ``exact`` tier on that evidence, and the backend conformance
suite re-proves it through the same harness every other backend is held
to.

It is the fallback target of every resolution path: the default (and
``"auto"``) lands here when ``cc`` cannot activate, and fleet workers
that cannot honour an explicit compiled-backend request degrade here
rather than kill the run (recorded on the ``backend_fallback_total``
counter).
"""

from __future__ import annotations

from repro.backends.base import BackendCapability, BackendCores, KernelBackend

__all__ = ["NumpyBackend"]


class NumpyBackend(KernelBackend):
    """Serve the engine's own einsum contraction cores (the PR5 path)."""

    capability = BackendCapability(
        name="numpy",
        description=(
            "ghost-padded gather + tiled einsum contractions (always "
            "available; bit-identical to the reference oracle)"
        ),
    )

    def make_cores(self, engine) -> BackendCores:
        self._check_engine(engine)
        # The engine's private cores already implement chunk-view
        # semantics; handing them back keeps a single source of truth
        # for the exact-tier arithmetic.
        return BackendCores(v=engine._numpy_v_core, vgh=engine._numpy_vgh_core)
