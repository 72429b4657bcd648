"""Evaluation kinds: the paper's V/VGL/VGH kernel selector as an enum.

Every engine entry point — ``new_output``, ``evaluate``, ``evaluate_batch``,
:meth:`NestedEvaluator.evaluate` and the evaluators that wrap them — takes
a :class:`Kind` member and raises :class:`TypeError` for anything else
(:meth:`Kind.check`), before doing any work.  ``Kind("vgh")`` (lookup by
value) is how configuration strings — CLI flags, JSON configs, wire
requests, driver ``kernels=`` tuples — become members.
"""

from __future__ import annotations

import enum

__all__ = ["Kind"]


class Kind(enum.Enum):
    """Which derivative streams an orbital evaluation produces."""

    V = "v"
    VGL = "vgl"
    VGH = "vgh"

    @classmethod
    def check(cls, kind) -> "Kind":
        """Return ``kind`` if it is a member; raise :class:`TypeError` if not."""
        if not isinstance(kind, cls):
            raise TypeError(
                f"kind must be a Kind member (Kind.V, Kind.VGL or Kind.VGH), "
                f"got {kind!r}"
            )
        return kind

    @property
    def streams(self) -> tuple[str, ...]:
        """Output streams this kind fills (matches the batched engine)."""
        return _STREAMS[self]


_STREAMS = {
    Kind.V: ("v",),
    Kind.VGL: ("v", "g", "l"),
    Kind.VGH: ("v", "g", "l", "h"),
}
