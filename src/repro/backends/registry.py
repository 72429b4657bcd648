"""Backend registry: registration, conformance gating, and resolution.

The registry maps backend names to :class:`~repro.backends.base
.KernelBackend` instances and enforces the conformance contract: **no
backend serves kernels before it has passed the differential harness**
(:mod:`repro.backends.conformance`) at the exact tier.  Verification
policy is chosen at registration time:

* ``"eager"`` — verified inside :func:`register_backend` (the default
  for user-registered backends: a broken backend is rejected before it
  can be named anywhere).
* ``"lazy"`` — verified on first *activation* (first time an engine or
  resolver actually asks for it), once per process.  The compiled
  builtin registers lazily so that ``import repro.backends`` never pays
  a compiler warm-up — and never constructs engines mid-import.
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
  default path never changes numerics: the compiled backend serves only
  after the once-per-process gate has found every output stream bit for
  bit equal to the oracle's.  A default that falls back to NumPy
  is counted as ``backend_fallback_total{requested="default"}``; it
  warns too, unless the reason is only that no C compiler is on
  ``PATH``.
* ``"auto"`` — exactly what ``None`` means with the environment
  variable unset.  The spelling stays valid because config files,
  tuning-DB entries and served requests carry it.
* an explicit name — that backend or :class:`BackendUnavailable` with
  an actionable message.  With ``fallback=True`` (fleet workers), an
  unavailable explicit backend degrades to NumPy instead of killing the
  worker — warned and counted, never silent.
"""

from __future__ import annotations

import os
import warnings
from typing import Callable, NoReturn

from repro.backends.base import (
    BackendConformanceError,
    BackendUnavailable,
    KernelBackend,
)
from repro.obs import OBS

__all__ = [
    "ENV_VAR",
    "available_backends",
    "get_backend",
    "register_backend",
    "registered_backends",
    "resolve_backend",
    "resolve_backend_name",
    "unregister_backend",
]

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
    if the backend cannot run here it is still registered (verification
    defers to activation, where availability is checked first), but a
    backend that *runs* and fails the exact tier is rejected outright.
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
    """All registered names, in registration order: the builtins first,
    in the order the default (and ``"auto"``) tries them."""
    return tuple(_REGISTRY)


def available_backends() -> tuple[str, ...]:
    """Registered names that can run in this process right now."""
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
        NumPy), ``"auto"`` (``None`` with the env var unset), a
        registered name, or an already-constructed
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
        The backend runs but some output bit differs from the oracle's.
    """
    if isinstance(spec, KernelBackend):
        return _activate(spec)
    if spec is None:
        spec = os.environ.get(ENV_VAR) or "auto"
    if spec == "auto":
        return _resolve_default()
    backend = get_backend(spec)
    try:
        return _activate(backend)
    except (BackendUnavailable, BackendConformanceError) as exc:
        if not fallback or spec == "numpy":
            raise
        _note_fallback(spec, spec, str(exc))
        return _activate(get_backend("numpy"))


def resolve_backend_name(
    spec: str | None, error: Callable[[str], NoReturn]
) -> str:
    """Strict, parent-side resolution for a CLI: the concrete name.

    Every worker then gets the same backend (and resolves that name with
    ``fallback=True`` itself).  An unknown name, a missing toolchain or
    a failed gate goes to ``error`` — the CLIs pass ``parser.error`` —
    as one actionable line, before any worker starts.
    """
    try:
        return resolve_backend(spec).name
    except (BackendUnavailable, BackendConformanceError) as exc:
        error(str(exc))


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
