"""The unified engine protocol: one evaluation spelling for every layout.

:class:`Engine` is the structural type drivers program against —
``evaluate(kind, pos, out)`` / ``evaluate_batch(kind, positions, out)`` /
``new_output(kind, n=1)`` — so nothing downstream special-cases the
per-layout method names (``v``/``vgl``/``vgh`` vs ``v_batch``/...).
Those historical names remain the implementation and stay public as thin
aliases; the protocol methods add only kind dispatch.

:class:`SinglePositionEngineMixin` adapts the one-position kernel
signature shared by the AoS/SoA/AoSoA/fused layouts.  ``BsplineBatched``
implements the protocol directly over its ``*_batch`` kernels.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np

from .kinds import Kind

__all__ = ["Engine", "SinglePositionEngineMixin"]


@runtime_checkable
class Engine(Protocol):
    """Structural protocol implemented by every orbital-evaluation engine."""

    n_splines: int

    def new_output(self, kind=Kind.VGH, n: int = 1):
        """Allocate an output buffer for ``n`` positions of ``kind``."""
        ...

    def evaluate(self, kind, pos, out):
        """Evaluate one position ``pos`` (length-3) into ``out``."""
        ...

    def evaluate_batch(self, kind, positions, out):
        """Evaluate ``(n, 3)`` positions into ``out``."""
        ...


class SinglePositionEngineMixin:
    """Protocol adapter for engines whose kernels take one ``(x, y, z)``.

    ``evaluate_batch`` keeps the kernel-driver semantics of the existing
    single-position engines: positions are evaluated in order into the
    same one-walker buffer, which afterwards holds the last position's
    result.  Use ``BsplineBatched`` when every position's output must be
    retained.
    """

    def evaluate(self, kind, pos, out):
        kind = Kind.check(kind)
        x, y, z = np.asarray(pos, dtype=np.float64).reshape(3)
        getattr(self, kind.value)(float(x), float(y), float(z), out)
        return out

    def evaluate_batch(self, kind, positions, out):
        kind = Kind.check(kind)
        kernel = getattr(self, kind.value)
        for x, y, z in np.asarray(positions, dtype=np.float64).reshape(-1, 3):
            kernel(float(x), float(y), float(z), out)
        return out

    def _check_new_output(self, kind, n: int) -> Kind:
        """Shared argument validation for single-position ``new_output``."""
        kind = Kind.check(kind)
        if n != 1:
            raise ValueError(
                f"{type(self).__name__} allocates one-walker buffers "
                f"(n=1); use BsplineBatched for n={n} positions"
            )
        return kind
