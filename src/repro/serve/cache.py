"""Server-side coefficient-table cache over shared memory.

The expensive part of admitting a new tenant system is solving its
B-spline coefficient table and padding the ghost halo.  The server does
both exactly once per distinct ``(n_orbitals, box, grid_shape, dtype)``
system and parks the padded table in a
:class:`~repro.parallel.shared_table.SharedTable` segment; every serving
worker attaches the segment zero-copy, so the node holds one physical
copy of each live table no matter how many tenants share it (the
paper's one-table-many-readers memory model, promoted to service
scope).

The cache is a plain LRU: when a ``capacity+1``-th distinct system
arrives, the least-recently-served table leaves it.  A request pins the
table it reads (``pin(name)`` ... ``unpin(name)``) until it is
answered; an evicted table nobody pins is unlinked at once, a pinned
one when its last pin goes, so a worker never has to attach a segment
that is already gone.  Unlinked names are queued for workers to detach
lazily (workers drop their mapping at the next request they serve).
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

from repro.core.coeffs import pad_table_3d, solve_coefficients_3d
from repro.lattice.cell import Cell
from repro.lattice.orbitals import PlaneWaveOrbitalSet
from repro.obs import OBS

from repro.parallel.shared_table import SharedTable

__all__ = ["SystemKey", "solve_system_table", "TableCache"]


class SystemKey(tuple):
    """Normalized identity of a tenant system: what must match for two
    requests to share one coefficient table (and hence one batch)."""

    __slots__ = ()

    def __new__(cls, n_orbitals: int, box: float, grid_shape, dtype):
        return super().__new__(
            cls,
            (
                int(n_orbitals),
                float(box),
                tuple(int(g) for g in grid_shape),
                np.dtype(dtype).name,
            ),
        )

    @property
    def n_orbitals(self) -> int:
        return self[0]

    @property
    def box(self) -> float:
        return self[1]

    @property
    def grid_shape(self) -> tuple[int, int, int]:
        return self[2]

    @property
    def dtype(self) -> str:
        return self[3]


def solve_system_table(key: SystemKey) -> np.ndarray:
    """Solve and ghost-pad the coefficient table for one system key.

    Same construction as :func:`repro.parallel.crowd.solve_spec_table`
    plus the parent-side pad — workers attach the halo zero-copy and
    never re-solve or re-pad.
    """
    cell = Cell.cubic(key.box)
    orbitals = PlaneWaveOrbitalSet(cell, key.n_orbitals)
    nx, ny, nz = key.grid_shape
    samples = orbitals.values_on_grid(nx, ny, nz)
    table = solve_coefficients_3d(samples, dtype=np.dtype(key.dtype))
    return pad_table_3d(table)


class TableCache:
    """LRU of owned :class:`SharedTable` segments, keyed by system.

    ``get`` returns the picklable segment spec workers attach by; a miss
    solves the table (the only expensive step) and may evict the
    least-recently-used entry.  An evicted table that is still pinned
    stays *retired* (linked, out of the LRU) until its last ``unpin``,
    and a request for its system takes it back without a solve.  Every
    unlinked segment's *name* is returned via ``drain_evicted`` so
    workers can be told to detach.

    ``get`` may run in an executor thread while ``unpin`` runs on the
    event loop, so the bookkeeping is under a lock (the solve is not).
    Misses are not deduplicated: callers serialize them, as the
    server's cache lock does.
    """

    def __init__(self, capacity: int = 8):
        if capacity < 1:
            raise ValueError(f"table cache capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._tables: OrderedDict[SystemKey, SharedTable] = OrderedDict()
        self._retired: dict[SystemKey, SharedTable] = {}
        self._pins: dict[str, int] = {}
        self._evicted: list[str] = []
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._tables)

    def __contains__(self, key: SystemKey) -> bool:
        return key in self._tables

    def get(self, key: SystemKey) -> dict:
        """The segment spec for ``key``, solving + caching on first use."""
        with self._lock:
            table = self._tables.get(key)
            if table is None:
                table = self._retired.pop(key, None)
        if table is None:
            table = SharedTable.create(solve_system_table(key))
            if OBS.enabled:
                OBS.count("serve_table_builds_total")
        with self._lock:
            self._tables[key] = table
            self._tables.move_to_end(key)
            while len(self._tables) > self.capacity:
                lru_key, lru = self._tables.popitem(last=False)
                if lru.name in self._pins:
                    self._retired[lru_key] = lru
                else:
                    self._unlink(lru)
                if OBS.enabled:
                    OBS.count("serve_table_evictions_total")
            if OBS.enabled:
                OBS.gauge("serve_tables_cached", len(self._tables))
            return table.spec

    def pin(self, name: str) -> None:
        """Keep segment ``name`` (a spec :meth:`get` just returned)
        linked until a matching :meth:`unpin`, even if evicted."""
        with self._lock:
            self._pins[name] = self._pins.get(name, 0) + 1

    def unpin(self, name: str) -> None:
        """Drop one pin of segment ``name``; a retired table whose last
        pin this was is unlinked now."""
        with self._lock:
            left = self._pins[name] - 1
            if left:
                self._pins[name] = left
                return
            del self._pins[name]
            for key, table in self._retired.items():
                if table.name == name:
                    del self._retired[key]
                    self._unlink(table)
                    return

    def _unlink(self, table: SharedTable) -> None:
        self._evicted.append(table.name)
        table.close()
        try:
            table.unlink()
        except FileNotFoundError:
            pass  # already gone; removal was the goal

    def drain_evicted(self) -> list[str]:
        """Segment names unlinked since the last drain (for worker
        detach broadcasts); clears the pending list."""
        with self._lock:
            evicted, self._evicted = self._evicted, []
        return evicted

    def close(self) -> None:
        """Unlink every owned segment, retired ones too (server shutdown)."""
        with self._lock:
            tables = [*self._tables.values(), *self._retired.values()]
            self._tables.clear()
            self._retired.clear()
            self._pins.clear()
            for table in tables:
                self._unlink(table)
