"""Backend registry: registration, conformance gating, and resolution.

The registry maps backend names to :class:`~repro.backends.base
.KernelBackend` instances and enforces the conformance contract: **no
backend serves kernels before it has passed the differential harness**
(:mod:`repro.backends.conformance`) at its declared tier.  Verification
policy is chosen at registration time:

* ``"eager"`` — verified inside :func:`register_backend` (the default
  for user-registered backends: a broken backend is rejected before it
  can be named anywhere).
* ``"lazy"`` — verified on first *activation* (first time an engine or
  resolver actually asks for it), once per process.  The compiled
  builtins register lazily so that ``import repro.backends`` never pays
  a JIT/compiler warm-up — and never constructs engines mid-import.
  The verdict, pass or fail (a failed build included), is kept for the
  process, and the harness's throwaway engines record nothing into
  :data:`repro.obs.OBS`.
* ``"skip"`` — trusted, never harness-verified at activation.  Reserved
  for the NumPy builtin, whose bitwise identity to the oracle is
  already pinned by ``tests/core/test_padded_gather.py`` and re-proven
  by the backend conformance suite.

Resolution (:func:`resolve_backend`) implements the selection policy
shared by :class:`~repro.core.batched.BsplineBatched`, the CLIs, and
fleet workers:

* ``None`` — the :data:`REPRO_BACKEND <ENV_VAR>` environment variable
  if set, else ``"cc"`` when it activates here, else ``"numpy"``.  The
  default path never silently changes numerics: both candidates are
  exact tier, and the compiled one serves only after the
  once-per-process gate has found every output stream bit for bit
  equal to the oracle's.  A default that falls back to NumPy
  is counted as ``backend_fallback_total{requested="default"}``; it
  warns too, unless the reason is only that no C compiler is on
  ``PATH``.
* ``"auto"`` — the first *available and conforming* backend in
  :data:`AUTO_ORDER` (compiled backends first).  Skipped candidates are
  reported with a warning and a ``backend_fallback_total`` count.
* an explicit name — that backend or :class:`BackendUnavailable` with
  an actionable message.  With ``fallback=True`` (fleet workers), an
  unavailable explicit backend degrades to NumPy instead of killing the
  worker — warned and counted, never silent.
"""

from __future__ import annotations

import os
import warnings

from repro.backends.base import (
    BackendConformanceError,
    BackendUnavailable,
    KernelBackend,
)
from repro.obs import OBS

__all__ = [
    "AUTO_ORDER",
    "ENV_VAR",
    "available_backends",
    "get_backend",
    "register_backend",
    "registered_backends",
    "resolve_backend",
    "unregister_backend",
]

#: Preference order for ``--backend auto``: compiled backends first,
#: the always-available exact-tier NumPy path as the guaranteed floor.
AUTO_ORDER = ("numba", "cc", "numpy")

#: Environment override consulted when no backend is specified at all.
ENV_VAR = "REPRO_BACKEND"

# The exact-tier compiled backend an unspecified request prefers; NumPy
# serves when it cannot activate.
_DEFAULT = "cc"

_VERIFY_POLICIES = ("eager", "lazy", "skip")

_REGISTRY: dict[str, KernelBackend] = {}
#: Per-process activation gate: name -> None (passed) or the failure.
_VERIFIED: dict[str, BackendConformanceError | None] = {}
_VERIFY_POLICY: dict[str, str] = {}


def register_backend(
    backend: KernelBackend, *, verify: str = "eager"
) -> KernelBackend:
    """Admit a backend to the registry under its capability name.

    ``verify`` selects the conformance policy (module docstring).  With
    the default ``"eager"`` policy the differential harness runs here —
    if the backend's dependencies are missing it is still registered
    (verification defers to activation, where availability is checked
    first), but a backend that *runs* and fails its tier is rejected
    outright.
    """
    if verify not in _VERIFY_POLICIES:
        raise ValueError(
            f"verify must be one of {_VERIFY_POLICIES}, got {verify!r}"
        )
    name = backend.name
    if name in _REGISTRY:
        raise ValueError(f"backend {name!r} is already registered")
    if verify == "eager" and backend.is_available():
        from repro.backends.conformance import check_backend

        check_backend(backend)  # raises BackendConformanceError
        _VERIFIED[name] = None
        _VERIFY_POLICY[name] = "skip"
    else:
        _VERIFY_POLICY[name] = "lazy" if verify == "eager" else verify
    _REGISTRY[name] = backend
    return backend


def unregister_backend(name: str) -> None:
    """Remove a backend (test hook; unknown names are ignored)."""
    _REGISTRY.pop(name, None)
    _VERIFIED.pop(name, None)
    _VERIFY_POLICY.pop(name, None)


def registered_backends() -> tuple[str, ...]:
    """All registered names, builtins first in :data:`AUTO_ORDER` order."""
    builtin = [n for n in AUTO_ORDER if n in _REGISTRY]
    extra = sorted(n for n in _REGISTRY if n not in AUTO_ORDER)
    return tuple(builtin + extra)


def available_backends() -> tuple[str, ...]:
    """Registered names whose dependencies import in this process."""
    return tuple(
        n for n in registered_backends() if _REGISTRY[n].is_available()
    )


def get_backend(name: str) -> KernelBackend:
    """Look up a registered backend by name (no availability check)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise BackendUnavailable(
            f"no backend named {name!r} is registered; known backends: "
            f"{', '.join(registered_backends()) or '(none)'}"
        ) from None


def _activate(backend: KernelBackend) -> KernelBackend:
    """Availability + once-per-process conformance gate before serving."""
    err = backend.availability_error()
    if err is not None:
        raise BackendUnavailable(err)
    name = backend.name
    if _VERIFY_POLICY.get(name) == "skip":
        return backend
    if name not in _VERIFIED:
        from repro.backends.conformance import check_backend

        try:
            with OBS.paused():
                check_backend(backend)
        except (BackendConformanceError, BackendUnavailable) as exc:
            _VERIFIED[name] = exc
            raise
        _VERIFIED[name] = None
    elif _VERIFIED[name] is not None:
        raise _VERIFIED[name]
    return backend


def _note_fallback(
    requested: str, skipped: str, reason: str, *, warn: bool = True
) -> None:
    """Record one degradation: a warning plus an OBS counter sample."""
    if warn:
        warnings.warn(
            f"backend {skipped!r} unavailable for request {requested!r}: "
            f"{reason}",
            RuntimeWarning,
            stacklevel=3,
        )
    if OBS.enabled:
        OBS.count(
            "backend_fallback_total",
            requested=requested,
            skipped=skipped,
        )


def resolve_backend(
    spec: str | KernelBackend | None = None, *, fallback: bool = False
) -> KernelBackend:
    """Resolve a backend spec to an activated (conforming) instance.

    Parameters
    ----------
    spec:
        ``None`` (env var, else ``"cc"`` when it activates, else
        NumPy), ``"auto"`` (best available in
        :data:`AUTO_ORDER`), a registered name, or an already-constructed
        :class:`KernelBackend` (activated as-is, useful in tests).
    fallback:
        When true, an explicit name that cannot be served degrades to
        the NumPy backend with a warning and a ``backend_fallback_total``
        count instead of raising — the fleet-worker policy, where one
        heterogeneous node must not kill a parallel run.

    Raises
    ------
    BackendUnavailable
        Unknown name, or explicit backend unavailable with
        ``fallback=False``.
    BackendConformanceError
        The backend runs but fails its declared tier.
    """
    if isinstance(spec, KernelBackend):
        return _activate(spec)
    if spec is None:
        spec = os.environ.get(ENV_VAR)
        if not spec:
            return _resolve_default()
    if spec == "auto":
        last_error = "no backends registered"
        for name in AUTO_ORDER:
            if name not in _REGISTRY:
                continue
            try:
                return _activate(_REGISTRY[name])
            except (BackendUnavailable, BackendConformanceError) as exc:
                last_error = str(exc)
                _note_fallback("auto", name, str(exc))
        raise BackendUnavailable(
            f"no backend in auto order {AUTO_ORDER} could be activated; "
            f"last error: {last_error}"
        )
    backend = get_backend(spec)
    try:
        return _activate(backend)
    except (BackendUnavailable, BackendConformanceError) as exc:
        if not fallback or spec == "numpy":
            raise
        _note_fallback(spec, spec, str(exc))
        return _activate(get_backend("numpy"))


def _resolve_default() -> KernelBackend:
    """``cc`` if it activates, else NumPy (counted)."""
    preferred = _REGISTRY.get(_DEFAULT)
    if preferred is not None:
        try:
            return _activate(preferred)
        except (BackendUnavailable, BackendConformanceError) as exc:
            # No compiler is an ordinary host, not a fault worth a warning.
            _note_fallback(
                "default", _DEFAULT, str(exc),
                warn=preferred.is_available(),
            )
    return _activate(get_backend("numpy"))


def _reset_for_tests() -> None:
    """Forget activation results so a test can re-run the lazy gate."""
    _VERIFIED.clear()
