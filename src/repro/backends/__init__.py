"""Pluggable compiled kernel backends for the batched B-spline engine.

The batched engine (:class:`repro.core.BsplineBatched`) dispatches its
chunk-level V/VGL/VGH cores through this package: a registry of
:class:`KernelBackend` implementations, each carrying a
:class:`BackendCapability` record (served kinds, dtypes, and a
conformance **tier** — ``exact`` or ``allclose`` with labelled
tolerances) and each gated by the differential-conformance harness
(:mod:`repro.backends.conformance`) against the frozen PR4 oracle
before it may serve kernels.

Built-in backends:

* ``numpy`` — the PR5 padded-gather + tiled-einsum path; always
  available, exact tier, the floor every fallback lands on.
* ``numba`` — Numba-JIT fused gather+contraction; optional dependency,
  allclose tier.
* ``cc`` — C kernels compiled on demand with the system C compiler and
  loaded through :mod:`ctypes`; available wherever ``cc`` is on PATH,
  allclose tier.

Selection: ``BsplineBatched(..., backend=...)`` /
``RunConfig(backend=...)`` (passed as ``config=`` to the QMC and
miniQMC entry points) / ``--backend {auto,numpy,numba,cc}`` on both
CLIs, with the ``REPRO_BACKEND`` environment variable as the default
override.  See
:func:`resolve_backend` for the exact policy and ``docs/API.md``
("Choose a kernel backend") for the user-facing story.
"""

from __future__ import annotations

from repro.backends.base import (
    BackendCapability,
    BackendConformanceError,
    BackendCores,
    BackendUnavailable,
    KernelBackend,
    TIER_ALLCLOSE,
    TIER_EXACT,
)
from repro.backends.cc_backend import CcBackend
from repro.backends.conformance import check_backend, verify_backend
from repro.backends.numba_backend import NumbaBackend
from repro.backends.numpy_backend import NumpyBackend
from repro.backends.registry import (
    AUTO_ORDER,
    ENV_VAR,
    available_backends,
    get_backend,
    register_backend,
    registered_backends,
    resolve_backend,
    unregister_backend,
)

__all__ = [
    "AUTO_ORDER",
    "BackendCapability",
    "BackendConformanceError",
    "BackendCores",
    "BackendUnavailable",
    "CcBackend",
    "ENV_VAR",
    "KernelBackend",
    "NumbaBackend",
    "NumpyBackend",
    "TIER_ALLCLOSE",
    "TIER_EXACT",
    "available_backends",
    "check_backend",
    "get_backend",
    "register_backend",
    "registered_backends",
    "resolve_backend",
    "unregister_backend",
    "verify_backend",
]

# Builtin registration.  NumPy registers trusted ("skip"): its bitwise
# identity to the oracle is pinned by tests/core/test_padded_gather.py
# and re-proven by tests/backends/.  The compiled builtins register
# lazily so importing this package never pays a JIT or C-compiler
# warm-up (and never constructs engines mid-import); each is
# harness-verified once per process on first activation.
register_backend(NumpyBackend(), verify="skip")
register_backend(NumbaBackend(), verify="lazy")
register_backend(CcBackend(), verify="lazy")
