"""repro.config — one RunConfig, one documented resolution order.

Every tunable the execution paths grew — chunk and tile blocking, the
kernel backend — used to travel as per-call kwargs with per-module env
fallbacks.  :class:`RunConfig` replaces that with a
single frozen dataclass and **one** resolution order, applied per
field:

1. **explicit kwarg** — a value passed by the caller;
2. **environment** — ``REPRO_CHUNK_SIZE``, ``REPRO_TILE_SIZE``,
   ``REPRO_BACKEND``, ``REPRO_TUNE``;
3. **tuned database entry** — a measured, exact-tier winner from the
   per-host :class:`repro.tune.db.TuneDB`;
4. **heuristic default** — the PR5 cache-budget planner
   (:func:`repro.tune.planner.plan_tiles`).

Each resolved field remembers which rung it came from
(:meth:`RunConfig.source_of`), so ``python -m repro tune show`` and the
benches can print not just *what* ran but *why*.

Construction never touches the environment — ``RunConfig(...)`` is
plain data.  :meth:`RunConfig.from_env` applies rungs 1-2;
:meth:`RunConfig.resolved_for` applies rungs 3-4 against a concrete
problem shape, returning a config whose ``chunk_size``/``tile_size``
are **concrete ints**.  Entry points resolve once, parent-side, and
hand the resolved config to workers, so a process pool inherits the
parent's decisions bit-identically regardless of worker-side env.

The ``tune`` field selects how rung 3 behaves: ``"off"`` skips the DB
entirely, ``"lookup"`` (the default) serves stored winners but never
measures, ``"search"`` micro-benchmarks on a DB miss and persists the
winner (a few ms per candidate, once per host x shape).
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RunConfig",
    "TUNE_OFF",
    "TUNE_LOOKUP",
    "TUNE_SEARCH",
    "load_run_config",
]

TUNE_OFF = "off"
TUNE_LOOKUP = "lookup"
TUNE_SEARCH = "search"
_TUNE_MODES = (TUNE_OFF, TUNE_LOOKUP, TUNE_SEARCH)

#: Env var per field (rung 2 of the resolution order).
_ENV_VARS = {
    "chunk_size": "REPRO_CHUNK_SIZE",
    "tile_size": "REPRO_TILE_SIZE",
    "backend": "REPRO_BACKEND",
    "tune": "REPRO_TUNE",
}

_INT_FIELDS = ("chunk_size", "tile_size")

#: Provenance labels, in resolution order.
SOURCE_KWARG = "kwarg"
SOURCE_ENV = "env"
SOURCE_TUNED = "tuned"
SOURCE_HEURISTIC = "heuristic"
SOURCE_DEFAULT = "default"

_UNSET = object()


def _normalize_tune(value) -> str:
    """Coerce the tune knob to one of the three mode strings."""
    if value is None:
        return TUNE_LOOKUP
    if isinstance(value, str):
        low = value.strip().lower()
        if low in _TUNE_MODES:
            return low
        if low in ("0", "false", "no"):
            return TUNE_OFF
        if low in ("1", "true", "yes", "on"):
            return TUNE_LOOKUP
        raise ValueError(
            f"tune must be one of {_TUNE_MODES} (or a boolean), got {value!r}"
        )
    return TUNE_LOOKUP if value else TUNE_OFF


def _parse_env(field: str, raw: str):
    if field in _INT_FIELDS:
        try:
            value = int(raw)
        except ValueError:
            raise ValueError(
                f"{_ENV_VARS[field]} must be an integer, got {raw!r}"
            ) from None
        return value
    if field == "tune":
        return _normalize_tune(raw)
    return raw


@dataclass(frozen=True)
class RunConfig:
    """The one bag of execution knobs every entry point accepts.

    ``None`` in any field means "not decided yet" — for the blocking
    parameters, :meth:`resolved_for` walks rungs 3-4 of the resolution
    order.

    Attributes
    ----------
    chunk_size, tile_size:
        Batched-path blocking (positions per gather, splines per
        contraction pass — the paper's Nb).
    backend:
        Kernel-backend spec for :func:`repro.backends.resolve_backend`
        (name, or None / ``"auto"`` for the default).
    tune:
        Rung-3 behaviour: ``"off"`` / ``"lookup"`` / ``"search"``
        (booleans coerce: False → off, True → lookup).
    provenance:
        Sorted tuple of ``(field, source)`` pairs recording which rung
        decided each field so far.  Maintained by :meth:`from_env` /
        :meth:`resolved_for`; empty on a hand-built config.
    """

    chunk_size: int | None = None
    tile_size: int | None = None
    backend: str | None = None
    tune: bool | str = TUNE_LOOKUP
    provenance: tuple = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "tune", _normalize_tune(self.tune))
        for field in _INT_FIELDS:
            value = getattr(self, field)
            if value is not None and int(value) <= 0:
                raise ValueError(f"{field} must be positive, got {value}")

    # -- construction --------------------------------------------------------

    @classmethod
    def from_env(cls, **explicit) -> "RunConfig":
        """Rungs 1-2: explicit kwargs, then ``REPRO_*`` env vars.

        ``None`` (or omitting a kwarg) means *unset* and falls through
        to the environment — matching every pre-PR9 call signature,
        where ``None`` meant "decide for me".
        """
        values: dict = {}
        prov: dict[str, str] = {}
        for field in _ENV_VARS:
            value = explicit.pop(field, None)
            if value is not None:
                values[field] = value
                prov[field] = SOURCE_KWARG
                continue
            raw = os.environ.get(_ENV_VARS[field])
            if raw is not None and raw != "":
                values[field] = _parse_env(field, raw)
                prov[field] = SOURCE_ENV
            else:
                prov[field] = SOURCE_DEFAULT
        if explicit:
            raise TypeError(
                f"unknown RunConfig fields: {sorted(explicit)}"
            )
        return cls(provenance=tuple(sorted(prov.items())), **values)

    def replace(self, **changes) -> "RunConfig":
        """A copy with ``changes`` applied, marked kwarg-provenance."""
        prov = dict(self.provenance)
        for field in changes:
            if field not in _ENV_VARS:
                raise TypeError(f"unknown RunConfig field: {field!r}")
            prov[field] = SOURCE_KWARG
        return dataclasses.replace(
            self, provenance=tuple(sorted(prov.items())), **changes
        )

    # -- provenance ----------------------------------------------------------

    def source_of(self, field: str) -> str:
        """Which resolution rung decided ``field`` (``"default"`` if none)."""
        return dict(self.provenance).get(field, SOURCE_DEFAULT)

    @property
    def is_resolved(self) -> bool:
        """True once chunk and tile are concrete ints."""
        return self.chunk_size is not None and self.tile_size is not None

    # -- resolution (rungs 3-4) ----------------------------------------------

    def resolved_for(
        self,
        n_splines: int,
        batch: int,
        dtype,
        kind: str = "vgh",
        db=None,
    ) -> "RunConfig":
        """Concretize ``chunk_size``/``tile_size`` for one problem shape.

        Fields already set (rungs 1-2) pass through untouched, the
        backend always.  For the rest: a tuned-DB winner (rung 3,
        honouring the :attr:`tune` mode — ``"search"`` micro-benchmarks
        on a miss and persists), else the cache-budget heuristic
        (rung 4).

        Resolution happens **parent-side**: the returned config carries
        concrete ints, so shipping it to a worker process reproduces
        the parent's decision bit for bit even if the worker's env or
        tuning DB differs.
        """
        dtype = np.dtype(dtype)
        chunk, tile = self.chunk_size, self.tile_size
        prov = dict(self.provenance)
        tune_mode = _normalize_tune(self.tune)
        if (chunk is None or tile is None) and tune_mode != TUNE_OFF:
            from repro.tune.db import TuneDB, TuneShape

            if db is None:
                db = TuneDB()
            hit = db.lookup(int(n_splines), dtype.name, kind=kind, batch=int(batch))
            if hit is None and tune_mode == TUNE_SEARCH:
                from repro.tune.search import autotune_shape

                shape = TuneShape(int(n_splines), int(batch), dtype.name, kind)
                outcome = autotune_shape(shape, db=db, backend=self.backend)
                hit = (shape, outcome.config)
            if hit is not None:
                _, cfg = hit
                if chunk is None:
                    chunk, prov["chunk_size"] = cfg.chunk, SOURCE_TUNED
                if tile is None:
                    tile = min(cfg.tile, int(n_splines))
                    prov["tile_size"] = SOURCE_TUNED
        if chunk is None or tile is None:
            from repro.tune.planner import plan_tiles

            plan = plan_tiles(int(n_splines), dtype.itemsize)
            if chunk is None:
                chunk, prov["chunk_size"] = plan.chunk, SOURCE_HEURISTIC
            if tile is None:
                tile, prov["tile_size"] = plan.tile, SOURCE_HEURISTIC
        return dataclasses.replace(
            self,
            chunk_size=int(chunk),
            tile_size=int(tile),
            provenance=tuple(sorted(prov.items())),
        )

    # -- serialization -------------------------------------------------------

    def as_dict(self) -> dict:
        """JSON-ready dict (provenance included)."""
        data = dataclasses.asdict(self)
        data["provenance"] = dict(self.provenance)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        data = dict(data)
        prov = data.pop("provenance", ())
        if isinstance(prov, dict):
            prov = tuple(sorted(prov.items()))
        fields = {k: data[k] for k in _ENV_VARS if k in data}
        return cls(provenance=tuple(prov), **fields)


def load_run_config(path) -> RunConfig:
    """Read a :class:`RunConfig` from a JSON file (``--config FILE``).

    Accepts the :meth:`RunConfig.as_dict` layout; unknown keys are
    ignored so config files survive field additions and retirements
    (``step_mode``, ``delay``, ``processes``, ``orbital_shards``).
    Loaded fields are marked kwarg-provenance — a file is an explicit
    user choice (rung 1).
    """
    import json

    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: RunConfig JSON must be an object")
    data.pop("provenance", None)
    cfg = RunConfig.from_dict(data)
    prov = tuple(
        sorted((f, SOURCE_KWARG) for f in _ENV_VARS if data.get(f) is not None)
    )
    return dataclasses.replace(cfg, provenance=prov)
