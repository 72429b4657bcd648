"""Numerical guardrails: NaN/Inf detection, repair, and population control.

The failure modes these guard against are silent by default: a poisoned
coefficient read propagates NaN through V/VGL/VGH into ratios and local
energies, and a DMC population that collapses or explodes wastes the run
long before anything crashes.  Each guard turns the silent failure into a
configurable policy:

* :func:`check_finite` / :func:`nonfinite_counts` — the primitive scan;
* :class:`GuardedEngine` — wraps any B-spline engine and validates every
  kernel output, with policy ``"raise"`` (loud :class:`GuardViolation`),
  ``"recompute"`` (repair the output through the
  :mod:`repro.core.refimpl` reference path against a pristine table), or
  ``"count"`` (record and continue — for monitoring);
* :class:`PopulationGuard` — DMC collapse/explosion control that rescues
  toward the target population instead of crashing: explosion is
  truncated to the cap, extinction is rebuilt by cloning the
  best surviving finite-energy walkers.

Walker-energy policy (NaN local energy → raise / recompute / drop-and-
rebranch) is applied inside :func:`repro.qmc.dmc.run_dmc` and
:func:`repro.qmc.vmc.run_vmc` via :class:`GuardConfig`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from repro.core import refimpl
from repro.obs import OBS

__all__ = [
    "GuardViolation",
    "GuardConfig",
    "nonfinite_counts",
    "check_finite",
    "GuardedEngine",
    "PopulationGuard",
]

_ENERGY_POLICIES = ("raise", "drop", "recompute", "ignore")
_OUTPUT_POLICIES = ("raise", "recompute", "count")


class GuardViolation(RuntimeError):
    """A numerical guardrail tripped (NaN/Inf where none is allowed)."""


@dataclass
class GuardConfig:
    """Guardrail policy knobs consumed by the QMC drivers.

    Attributes
    ----------
    on_nonfinite_energy:
        What a driver does with a walker whose local energy is NaN/Inf:
        ``"raise"`` (default — fail loudly), ``"recompute"`` (rebuild the
        wavefunction's derived state and re-measure once, then drop if
        still bad), ``"drop"`` (give the walker branching weight zero so
        the ensemble rebranches over healthy walkers), or ``"ignore"``
        (legacy pass-through).
    on_nonfinite_output:
        Kernel-output policy for :class:`GuardedEngine` construction by
        drivers: ``"raise"``, ``"recompute"``, or ``"count"``.
    max_population_factor:
        DMC explosion cap as a multiple of the target population.
    """

    on_nonfinite_energy: str = "raise"
    on_nonfinite_output: str = "raise"
    max_population_factor: int = 4

    def __post_init__(self) -> None:
        if self.on_nonfinite_energy not in _ENERGY_POLICIES:
            raise ValueError(
                f"on_nonfinite_energy must be one of {_ENERGY_POLICIES}, "
                f"got {self.on_nonfinite_energy!r}"
            )
        if self.on_nonfinite_output not in _OUTPUT_POLICIES:
            raise ValueError(
                f"on_nonfinite_output must be one of {_OUTPUT_POLICIES}, "
                f"got {self.on_nonfinite_output!r}"
            )


def nonfinite_counts(**arrays: np.ndarray) -> dict[str, int]:
    """Count of non-finite entries per named array (empty dict = clean)."""
    bad = {}
    for name, arr in arrays.items():
        n = int(np.size(arr) - np.count_nonzero(np.isfinite(arr)))
        if n:
            bad[name] = n
    return bad


def check_finite(context: str, **arrays: np.ndarray) -> None:
    """Raise :class:`GuardViolation` naming every non-finite output stream."""
    bad = nonfinite_counts(**arrays)
    if bad:
        detail = ", ".join(f"{k}: {v} bad values" for k, v in sorted(bad.items()))
        raise GuardViolation(f"non-finite values in {context} ({detail})")


# -- guarded kernel engine ---------------------------------------------------


def _output_arrays(kind: str, out) -> dict[str, np.ndarray]:
    """The streams kernel ``kind`` writes into ``out``, by layout."""
    if getattr(out, "layout", None) == "aosoa":
        arrays = {}
        for t, tile in enumerate(out.tiles):
            for name, arr in _output_arrays(kind, tile).items():
                arrays[f"tile{t}.{name}"] = arr
        return arrays
    arrays = {"v": out.v}
    if kind in ("vgl", "vgh"):
        arrays["g"] = out.g
    if kind == "vgl":
        arrays["l"] = out.l
    if kind == "vgh":
        arrays["h"] = out.h
    return arrays


def _write_reference(kind: str, out, v, g, lh) -> None:
    """Write reference-path results into an output buffer of any layout."""
    layout = getattr(out, "layout", None)
    if layout == "aosoa":
        nb = out.tile_size
        for t, tile in enumerate(out.tiles):
            sl = slice(t * nb, (t + 1) * nb)
            _write_reference(
                kind,
                tile,
                v[sl],
                None if g is None else g[:, sl],
                None if lh is None else lh[..., sl],
            )
        return
    dtype = out.dtype
    out.v[:] = v.astype(dtype)
    if kind == "v":
        return
    if layout == "aos":
        out.g[:] = g.T.reshape(-1).astype(dtype)
        if kind == "vgl":
            out.l[:] = lh.astype(dtype)
        else:
            out.h[:] = np.moveaxis(lh, 2, 0).reshape(-1).astype(dtype)
    else:  # soa
        out.g[:] = g.astype(dtype)
        if kind == "vgl":
            out.l[:] = lh.astype(dtype)
        else:
            h = lh
            out.h[0] = h[0, 0].astype(dtype)
            out.h[1] = h[0, 1].astype(dtype)
            out.h[2] = h[0, 2].astype(dtype)
            out.h[3] = h[1, 1].astype(dtype)
            out.h[4] = h[1, 2].astype(dtype)
            out.h[5] = h[2, 2].astype(dtype)


class GuardedEngine:
    """Drop-in engine wrapper validating every V/VGL/VGH output.

    Parameters
    ----------
    engine:
        Any single-position engine (``BsplineAoS``/``SoA``/``AoSoA``/
        ``Fused``) exposing ``v/vgl/vgh(x, y, z, out)`` and
        ``new_output``.
    policy:
        ``"raise"`` — raise :class:`GuardViolation` on any NaN/Inf
        output; ``"recompute"`` — re-evaluate the position through the
        :mod:`repro.core.refimpl` reference path against
        ``reference_table`` and overwrite the bad output (counted in
        :attr:`repairs`; raises only if the reference is bad too);
        ``"count"`` — record in :attr:`violations` and pass through.
    reference_table:
        Pristine coefficient table for the repair path.  Defaults to the
        wrapped engine's own table — sufficient when the *kernel* (not
        the table) misbehaves; pass an independent copy to survive
        in-memory table corruption.

    Attributes
    ----------
    violations:
        Kernel calls that produced at least one non-finite value.
    repairs:
        Violations successfully repaired via the reference path.

    Notes
    -----
    The counters are updated under an internal lock, so one engine can
    safely be shared by concurrent walker threads — each walker still
    needs its *own* output buffer, as with any engine.  The
    recompute repair path only writes into the caller's private output,
    so the lock covers exactly the shared mutable state.
    """

    def __init__(self, engine, policy: str = "raise", reference_table=None):
        if policy not in _OUTPUT_POLICIES:
            raise ValueError(
                f"policy must be one of {_OUTPUT_POLICIES}, got {policy!r}"
            )
        self.engine = engine
        self.policy = policy
        self.grid = engine.grid
        self.reference_table = (
            reference_table if reference_table is not None else getattr(engine, "P", None)
        )
        if policy == "recompute" and self.reference_table is None:
            raise ValueError("recompute policy needs a reference_table")
        self.violations = 0
        self.repairs = 0
        self._lock = threading.Lock()

    def __getattr__(self, name):
        # Everything not guarded (new_output, n_splines, dtype, ...) passes
        # through to the wrapped engine.
        return getattr(self.engine, name)

    def _guarded(self, kind: str, x: float, y: float, z: float, out) -> None:
        getattr(self.engine, kind)(x, y, z, out)
        arrays = _output_arrays(kind, out)
        bad = nonfinite_counts(**arrays)
        if not bad:
            return
        with self._lock:
            self.violations += 1
        OBS.count(
            "guard_trips_total",
            kind="nonfinite_output",
            policy=self.policy,
            kernel=kind,
        )
        OBS.event(
            "guard:nonfinite_output", cat="guard", kernel=kind, policy=self.policy
        )
        if self.policy == "count":
            return
        if self.policy == "raise":
            detail = ", ".join(f"{k}: {v}" for k, v in sorted(bad.items()))
            raise GuardViolation(
                f"non-finite {kind.upper()} output at "
                f"({x:.6g}, {y:.6g}, {z:.6g}) ({detail})"
            )
        # policy == "recompute": repair through the reference oracle.
        if kind == "v":
            v = refimpl.reference_v(self.grid, self.reference_table, x, y, z)
            g = lh = None
        elif kind == "vgl":
            v, g, lh = refimpl.reference_vgl(self.grid, self.reference_table, x, y, z)
        else:
            v, g, lh = refimpl.reference_vgh(self.grid, self.reference_table, x, y, z)
        ref_arrays = {"v": v}
        if g is not None:
            ref_arrays["g"] = g
        if lh is not None:
            ref_arrays["lh"] = lh
        check_finite(f"reference {kind.upper()} repair", **ref_arrays)
        _write_reference(kind, out, v, g, lh)
        with self._lock:
            self.repairs += 1
        OBS.count("guard_repairs_total", kernel=kind)

    def v(self, x: float, y: float, z: float, out) -> None:
        """Guarded value kernel."""
        self._guarded("v", x, y, z, out)

    def vgl(self, x: float, y: float, z: float, out) -> None:
        """Guarded value+gradient+Laplacian kernel."""
        self._guarded("vgl", x, y, z, out)

    def vgh(self, x: float, y: float, z: float, out) -> None:
        """Guarded value+gradient+Hessian kernel."""
        self._guarded("vgh", x, y, z, out)


# -- DMC population control --------------------------------------------------


@dataclass
class PopulationGuard:
    """Collapse/explosion control that steers toward the target population.

    Parameters
    ----------
    target:
        The intended ensemble size.
    max_factor:
        Explosion cap = ``max_factor * target``.

    Attributes
    ----------
    rescues / truncations:
        How many generations needed a collapse rescue / explosion
        truncation — nonzero values are the run's health report.
    """

    target: int
    max_factor: int = 4
    rescues: int = field(default=0)
    truncations: int = field(default=0)

    def __post_init__(self) -> None:
        if self.target <= 0:
            raise ValueError(f"target must be positive, got {self.target}")
        if self.max_factor < 1:
            raise ValueError(f"max_factor must be >= 1, got {self.max_factor}")

    @property
    def cap(self) -> int:
        """Hard population ceiling."""
        return self.max_factor * self.target

    def enforce(self, new_walkers: list, previous: list, pool) -> list:
        """Apply both guards to a post-branching ensemble.

        Explosion: truncate to :attr:`cap` (branching already caps while
        copying; this is the backstop).  Extinction: rebuild the ensemble
        up to ``target`` by cloning the best (lowest, finite local
        energy) walkers of the previous generation — each clone drawing a
        fresh stream from ``pool``, never a copied one.

        Raises
        ------
        GuardViolation:
            Total extinction with no finite-energy walker left to rescue
            from (nothing sane remains to continue with).
        """
        if len(new_walkers) > self.cap:
            del new_walkers[self.cap:]
            self.truncations += 1
            OBS.count("population_truncations_total")
            OBS.event("guard:population_truncated", cat="guard", cap=self.cap)
        if not new_walkers:
            finite = [w for w in previous if np.isfinite(w.e_local)]
            if not finite:
                raise GuardViolation(
                    "population extinct and no finite-energy walker to rescue"
                )
            finite.sort(key=lambda w: w.e_local)
            self.rescues += 1
            OBS.count("population_rescues_total")
            OBS.event(
                "guard:population_rescued", cat="guard", survivors=len(finite)
            )
            rescued = [finite[0]]
            while len(rescued) < min(self.target, self.cap):
                parent = finite[(len(rescued) - 1) % len(finite)]
                rescued.append(parent.clone(pool.next_rng()))
            return rescued
        return new_walkers
