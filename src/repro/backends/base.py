"""Backend contracts: capability records and the kernel-backend interface.

A *kernel backend* supplies the contraction cores of the batched
B-spline engine (:class:`repro.core.BsplineBatched`) — the fused
gather + z→y→x stencil contraction that turns a chunk of positions into
V/VGL/VGH output slabs.  The engine owns everything around the cores
(ghost-padded table, chunking, stream-validity poisoning, obs); a
backend only replaces the arithmetic inner loop, which is exactly the
part an accelerator or JIT can win on.

Every backend declares a :class:`BackendCapability` — which kernel
:class:`~repro.core.kinds.Kind`\\ s and dtypes it serves — and is held
to one **conformance tier**, ``"exact"``: every output stream equals
the frozen oracle's (:class:`repro.core.batched_reference
.ReferenceBatched`) under ``np.testing.assert_array_equal``, with the
same sign on every zero.  Only a backend that keeps NumPy's operations
in NumPy's order can pass.  The differential-conformance harness
(:mod:`repro.backends.conformance`) enforces it before a backend may
serve kernels — see :func:`repro.backends.registry.resolve_backend`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro.core.kinds import Kind

__all__ = [
    "BackendCapability",
    "BackendConformanceError",
    "BackendUnavailable",
    "KernelBackend",
    "TIER_EXACT",
]

#: The one conformance tier: bit for bit equal to the oracle.
TIER_EXACT = "exact"


class BackendUnavailable(RuntimeError):
    """The requested backend cannot run here (unknown name, no toolchain).

    The message always names what is missing and how to get it (the
    capability's ``install_hint``), so a CLI can surface it verbatim as
    an actionable error instead of a traceback.
    """


class BackendConformanceError(RuntimeError):
    """A backend's output differs from the oracle's in some bit."""


@dataclass(frozen=True)
class BackendCapability:
    """What a backend can do.

    Attributes
    ----------
    name:
        Registry key (``"numpy"``, ``"cc"``, ...).
    kinds:
        Kernel kinds the backend serves.  All current backends serve all
        three; a partial backend (e.g. V-only on a device) is legal —
        the engine refuses unsupported kinds at construction.
    dtypes:
        Supported coefficient-table dtype names (``"float32"``,
        ``"float64"``).
    install_hint:
        One actionable sentence for the unavailable-backend error.
    description:
        One line for ``--backend`` help and the docs table.
    """

    name: str
    kinds: tuple[Kind, ...] = (Kind.V, Kind.VGL, Kind.VGH)
    dtypes: tuple[str, ...] = ("float32", "float64")
    install_hint: str = ""
    description: str = ""

    #: The tier the conformance gate holds every backend to (a class
    #: constant, not a field).
    tier = TIER_EXACT

    def supports(self, kind: Kind, dtype) -> bool:
        """Whether (kind, dtype) is inside this backend's envelope."""
        return kind in self.kinds and np.dtype(dtype).name in self.dtypes


@dataclass
class BackendCores:
    """The chunk-level kernels a backend hands the engine.

    ``v(positions, v)`` fills one chunk's value slab; ``vgh(positions,
    v, g, l, h)`` fills value/gradient/Laplacian and — when ``h`` is not
    ``None`` — the six Hessian components.  ``positions`` is the
    chunk's ``(ns, 3)`` float64 slice; the output arguments are
    C-contiguous row views of the :class:`~repro.core.batched
    .BatchedOutput` streams in the engine's dtype.  The engine drives
    VGL through ``vgh`` with ``h=None``.

    ``cart(positions, chain, v, g, l)``, optional, is the Cartesian VGL
    kernel: float64 values, Cartesian gradients and Laplacians through
    a :class:`~repro.core.batched.ChainRule`, bit for bit what ``vgh``
    and :meth:`~repro.core.batched.ChainRule.apply` write.  Without it
    the engine runs exactly that, chunk by chunk
    (:meth:`~repro.core.batched.BsplineBatched._chain_rule_core`).
    """

    v: "object"
    vgh: "object"
    cart: "object" = None


class KernelBackend(abc.ABC):
    """One pluggable implementation of the batched kernel cores.

    Subclasses set :attr:`capability` and implement :meth:`make_cores`.
    Backends are stateless between engines: all per-table state (JIT
    specializations, device buffers, scratch) belongs to the closure
    returned by :meth:`make_cores`, so one registered backend instance
    can serve any number of engines and processes.
    """

    capability: BackendCapability

    @property
    def name(self) -> str:
        return self.capability.name

    def availability_error(self) -> str | None:
        """Why this backend cannot run here, or ``None`` if it can.

        Checked live (never cached), so a fleet worker whose environment
        differs from the parent's reaches its own honest answer.
        Backends with a toolchain to find (``cc``) override it.
        """
        return None

    def is_available(self) -> bool:
        """Whether the backend can run in this process right now."""
        return self.availability_error() is None

    @abc.abstractmethod
    def make_cores(self, engine) -> BackendCores:
        """Build the chunk kernels for one engine (table, dtype, plan).

        Called once per :class:`~repro.core.batched.BsplineBatched`
        construction; compilation and scratch allocation happen here,
        never per call.  Must raise :class:`BackendUnavailable` if the
        engine's dtype falls outside :attr:`capability`.
        """

    def _check_engine(self, engine) -> None:
        """Shared envelope check for :meth:`make_cores` implementations."""
        err = self.availability_error()
        if err is not None:
            raise BackendUnavailable(err)
        if np.dtype(engine.dtype).name not in self.capability.dtypes:
            raise BackendUnavailable(
                f"backend {self.name!r} supports dtypes "
                f"{self.capability.dtypes}, engine table is "
                f"{np.dtype(engine.dtype).name}"
            )

    def __repr__(self) -> str:
        cap = self.capability
        return (
            f"<{type(self).__name__} {cap.name!r} tier={cap.tier} "
            f"dtypes={','.join(cap.dtypes)}>"
        )
