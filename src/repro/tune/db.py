"""The per-host tuning database: measured winners, persisted as JSON.

One file (``REPRO_TUNE_DB`` or ``~/.cache/repro/tunedb.json``) holds
every tuned configuration this machine has ever measured, keyed two
levels deep:

* by **host fingerprint** (:class:`repro.tune.hostspec.HostSpec`) — a
  DB copied between machines never serves a foreign winner;
* by **problem shape** (:class:`TuneShape`): ``(n_splines, batch,
  dtype, kind)`` — the paper's finding that the right blocking depends
  on N (Sec. VI-B) applied literally.

Every stored entry is a :class:`TunedConfig` carrying its conformance
**tier**: ``"exact"`` means the configuration reproduced the frozen
:class:`~repro.core.batched_reference.ReferenceBatched` oracle bit for
bit during the search, the only verdict the search writes.  Files
written when the search could also record ``"allclose"`` winners still
load and list, but :meth:`TuneDB.get` and :meth:`TuneDB.lookup` serve
exact entries only.

Writes are atomic (temp file + ``os.replace``) and last-writer-wins:
concurrent tuners may race, but the file is never torn, and a lost
entry merely costs one re-measurement.  A corrupt or foreign-schema
file is treated as empty rather than fatal.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.tune.hostspec import HostSpec, current_host

__all__ = [
    "TuneShape",
    "TunedConfig",
    "TuneDB",
    "default_db_path",
    "TIER_EXACT",
]

TIER_EXACT = "exact"

#: Schema version of the on-disk file; bump on incompatible change.
#: v2 entries once carried measured ``processes``/``orbital_shards``
#: axes.  Entries are now written without them, and code that still
#: reads those keys falls back to their defaults of 1, so the version
#: stays 2.
SCHEMA_VERSION = 2

#: Versions :meth:`TuneDB._load` accepts.  v1 entries lack the retired
#: keys and older v2 entries carry them; :meth:`TunedConfig.from_dict`
#: drops unknown keys, so both read as is and are written back as v2.
_READ_VERSIONS = (1, SCHEMA_VERSION)


def default_db_path() -> Path:
    """``REPRO_TUNE_DB`` if set, else ``~/.cache/repro/tunedb.json``.

    Honours ``XDG_CACHE_HOME`` like every other well-behaved cache.
    """
    env = os.environ.get("REPRO_TUNE_DB")
    if env:
        return Path(env)
    cache_root = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return Path(cache_root) / "repro" / "tunedb.json"


@dataclass(frozen=True)
class TuneShape:
    """The problem shape a tuned config applies to.

    ``batch`` is the number of positions per kernel call (walkers in the
    crowd drivers, ``n_samples`` in the miniQMC drivers, the fused batch
    in the serving layer); ``kind`` is the kernel (``"v"``/``"vgl"``/
    ``"vgh"``); ``dtype`` the coefficient-table dtype name.
    """

    n_splines: int
    batch: int
    dtype: str
    kind: str = "vgh"

    def __post_init__(self) -> None:
        if self.n_splines <= 0:
            raise ValueError(f"n_splines must be positive, got {self.n_splines}")
        if self.batch <= 0:
            raise ValueError(f"batch must be positive, got {self.batch}")

    @property
    def key(self) -> str:
        return f"{self.n_splines}x{self.batch}:{self.dtype}:{self.kind}"

    @classmethod
    def from_key(cls, key: str) -> "TuneShape":
        dims, dtype, kind = key.split(":")
        n, batch = dims.split("x")
        return cls(int(n), int(batch), dtype, kind)


@dataclass(frozen=True)
class TunedConfig:
    """One measured winner plus the evidence behind it.

    Attributes
    ----------
    chunk, tile:
        The winning blocking parameters.
    backend:
        The kernel-backend name the measurement ran under.
    tier:
        ``"exact"`` (bitwise vs the frozen oracle); an entry read from
        an older file may carry ``"allclose"``, and is never served.
    seconds:
        Best measured seconds for one kernel call at the shape.
    baseline_seconds:
        Same measurement under the static heuristic plan — the honest
        denominator of :attr:`speedup`.
    speedup:
        ``baseline_seconds / seconds``.
    candidates:
        How many configurations the search actually timed.
    tuned_at:
        Unix timestamp of the measurement.
    """

    chunk: int
    tile: int
    backend: str = "numpy"
    tier: str = TIER_EXACT
    seconds: float = 0.0
    baseline_seconds: float = 0.0
    speedup: float = 1.0
    candidates: int = 0
    tuned_at: float = field(default_factory=time.time)

    def __post_init__(self) -> None:
        if self.chunk <= 0 or self.tile <= 0:
            raise ValueError(
                f"chunk/tile must be positive, got ({self.chunk}, {self.tile})"
            )

    def as_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "TunedConfig":
        return cls(**{k: data[k] for k in cls.__dataclass_fields__ if k in data})


class TuneDB:
    """Load/store tuned configs; one instance per path, reloaded lazily.

    Parameters
    ----------
    path:
        The JSON file; defaults to :func:`default_db_path` (so the
        ``REPRO_TUNE_DB`` override is read at construction time).
    host:
        The :class:`HostSpec` entries are read and written under;
        defaults to :func:`~repro.tune.hostspec.current_host`.
    """

    def __init__(self, path: os.PathLike | str | None = None, host: HostSpec | None = None):
        self.path = Path(path) if path is not None else default_db_path()
        self.host = host if host is not None else current_host()
        self._data: dict | None = None
        self._mtime: float | None = None

    # -- persistence ---------------------------------------------------------

    def _load(self) -> dict:
        """The parsed file, re-read when it changed on disk."""
        try:
            mtime = self.path.stat().st_mtime_ns
        except OSError:
            self._data = {"version": SCHEMA_VERSION, "hosts": {}}
            self._mtime = None
            return self._data
        if self._data is not None and mtime == self._mtime:
            return self._data
        try:
            with open(self.path) as f:
                data = json.load(f)
            if not isinstance(data, dict) or data.get("version") not in _READ_VERSIONS:
                raise ValueError("unknown schema")
            data["version"] = SCHEMA_VERSION
            data.setdefault("hosts", {})
        except (OSError, ValueError):
            # A torn write cannot happen (os.replace), but a foreign or
            # hand-edited file can; treat it as empty, never as fatal.
            data = {"version": SCHEMA_VERSION, "hosts": {}}
        self._data = data
        self._mtime = mtime
        return data

    def _save(self, data: dict) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=str(self.path.parent), prefix=self.path.name, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as f:
                json.dump(data, f, indent=1, sort_keys=True)
            os.replace(tmp, self.path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self._data = data
        try:
            self._mtime = self.path.stat().st_mtime_ns
        except OSError:
            self._mtime = None

    def _host_entries(self, data: dict) -> dict:
        return data["hosts"].get(self.host.fingerprint, {}).get("entries", {})

    # -- API -----------------------------------------------------------------

    def get(self, shape: TuneShape) -> TunedConfig | None:
        """The stored exact-tier winner for exactly this shape, or None."""
        raw = self._host_entries(self._load()).get(shape.key)
        cfg = TunedConfig.from_dict(raw) if raw else None
        return cfg if cfg is not None and cfg.tier == TIER_EXACT else None

    def lookup(
        self,
        n_splines: int,
        dtype: str,
        kind: str = "vgh",
        batch: int | None = None,
    ) -> tuple[TuneShape, TunedConfig] | None:
        """Best exact-tier entry for the shape, batch-nearest.

        An exact ``(n_splines, batch, dtype, kind)`` hit wins; otherwise
        the entry whose batch is nearest on a log scale (blocking
        behaviour shifts with the *magnitude* of the batch, not its
        exact value).  ``batch=None`` accepts any batch, largest first.
        """
        entries = self._host_entries(self._load())
        matches: list[tuple[float, TuneShape, TunedConfig]] = []
        for key, raw in entries.items():
            try:
                shape = TuneShape.from_key(key)
                cfg = TunedConfig.from_dict(raw)
            except (ValueError, TypeError, KeyError):
                continue
            if (shape.n_splines, shape.dtype, shape.kind) != (
                int(n_splines),
                str(dtype),
                str(kind),
            ):
                continue
            if cfg.tier != TIER_EXACT:
                continue
            if batch is None:
                rank = -float(shape.batch)
            else:
                import math

                rank = abs(math.log(shape.batch / batch))
            matches.append((rank, shape, cfg))
        if not matches:
            return None
        rank, shape, cfg = min(matches, key=lambda m: (m[0], m[1].key))
        if batch is not None and rank > 0.0 and shape.batch != batch:
            # Only serve a neighbour within ~4x; a 64-position winner
            # says nothing about a 100k-position call.
            import math

            if rank > math.log(4.0):
                return None
        return shape, cfg

    def put(self, shape: TuneShape, config: TunedConfig) -> None:
        """Store (replace) the winner for ``shape`` under this host."""
        data = self._load()
        # Re-read under no lock: last writer wins, file never torn.
        host = data["hosts"].setdefault(
            self.host.fingerprint, {"spec": self.host.as_dict(), "entries": {}}
        )
        host["entries"][shape.key] = config.as_dict()
        self._save(data)

    def entries(self, all_hosts: bool = False) -> list[tuple[str, TuneShape, TunedConfig]]:
        """Stored ``(host_fingerprint, shape, config)`` rows."""
        data = self._load()
        rows = []
        for fp, host in sorted(data["hosts"].items()):
            if not all_hosts and fp != self.host.fingerprint:
                continue
            for key, raw in sorted(host.get("entries", {}).items()):
                try:
                    rows.append(
                        (fp, TuneShape.from_key(key), TunedConfig.from_dict(raw))
                    )
                except (ValueError, TypeError, KeyError):
                    continue
        return rows

    def clear(self, all_hosts: bool = False) -> int:
        """Drop this host's entries (or every host's); returns how many."""
        data = self._load()
        if all_hosts:
            dropped = sum(
                len(h.get("entries", {})) for h in data["hosts"].values()
            )
            data["hosts"] = {}
        else:
            host = data["hosts"].pop(self.host.fingerprint, None)
            dropped = len(host.get("entries", {})) if host else 0
        self._save(data)
        return dropped
