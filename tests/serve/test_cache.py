"""The table cache: system identity, LRU lifetime, segment hygiene."""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.core.coeffs import pad_table_3d
from repro.parallel.crowd import CrowdSpec, solve_spec_table
from repro.parallel.shared_table import SharedTable
from repro.serve.cache import SystemKey, TableCache, solve_system_table


class TestSystemKey:
    def test_normalizes_representations(self):
        a = SystemKey(4, 6, [12, 12, 12], "float64")
        b = SystemKey(np.int64(4), 6.0, (12, 12, 12), np.float64)
        assert a == b and hash(a) == hash(b)

    def test_distinguishes_every_field(self):
        base = SystemKey(4, 6.0, (12, 12, 12), "float64")
        assert SystemKey(2, 6.0, (12, 12, 12), "float64") != base
        assert SystemKey(4, 7.0, (12, 12, 12), "float64") != base
        assert SystemKey(4, 6.0, (12, 12, 8), "float64") != base
        assert SystemKey(4, 6.0, (12, 12, 12), "float32") != base

    def test_accessors(self):
        key = SystemKey(4, 6.0, (12, 10, 8), "float32")
        assert key.n_orbitals == 4
        assert key.box == 6.0
        assert key.grid_shape == (12, 10, 8)
        assert key.dtype == "float32"


class TestSolveSystemTable:
    def test_matches_crowd_solver_bitwise(self):
        """The served table is exactly the crowd path's padded table."""
        key = SystemKey(2, 6.0, (8, 8, 8), "float64")
        spec = CrowdSpec(n_walkers=1, n_orbitals=2, box=6.0, grid_shape=(8, 8, 8))
        np.testing.assert_array_equal(
            solve_system_table(key), pad_table_3d(solve_spec_table(spec))
        )

    def test_is_ghost_padded(self):
        key = SystemKey(2, 6.0, (8, 10, 12), "float64")
        assert solve_system_table(key).shape == (11, 13, 15, 2)

    def test_dtype_follows_key(self):
        key = SystemKey(2, 6.0, (8, 8, 8), "float32")
        assert solve_system_table(key).dtype == np.float32


class TestTableCache:
    KEY_A = SystemKey(2, 6.0, (8, 8, 8), "float64")
    KEY_B = SystemKey(2, 6.0, (10, 10, 10), "float64")
    KEY_C = SystemKey(2, 6.0, (12, 12, 12), "float64")

    def test_get_returns_attachable_spec(self, shm_sentinel):
        cache = TableCache(capacity=2)
        try:
            spec = cache.get(self.KEY_A)
            with SharedTable.attach(spec) as view:
                np.testing.assert_array_equal(
                    view.array, solve_system_table(self.KEY_A)
                )
        finally:
            cache.close()

    def test_hit_does_not_resolve(self, shm_sentinel):
        cache = TableCache(capacity=2)
        try:
            assert cache.get(self.KEY_A) == cache.get(self.KEY_A)
            assert len(cache) == 1
        finally:
            cache.close()

    def test_lru_evicts_least_recently_served(self, shm_sentinel):
        cache = TableCache(capacity=2)
        try:
            name_a = cache.get(self.KEY_A)["name"]
            cache.get(self.KEY_B)
            cache.get(self.KEY_A)  # refresh A; B is now LRU
            name_b = cache.get(self.KEY_B)["name"]  # hit, refreshes B
            name_c = cache.get(self.KEY_C)["name"]  # evicts A, not B
            assert self.KEY_A not in cache
            assert self.KEY_B in cache and self.KEY_C in cache
            assert cache.drain_evicted() == [name_a]
            assert cache.drain_evicted() == []  # drained exactly once
            # The evicted segment really is gone.
            with pytest.raises(FileNotFoundError):
                SharedTable.attach(
                    {"name": name_a, "shape": [11, 11, 11, 2], "dtype": "<f8"}
                )
            assert name_b != name_c
        finally:
            cache.close()

    def test_close_unlinks_every_segment(self, shm_sentinel):
        cache = TableCache(capacity=4)
        spec_a = cache.get(self.KEY_A)
        spec_b = cache.get(self.KEY_B)
        cache.close()
        for spec in (spec_a, spec_b):
            with pytest.raises(FileNotFoundError):
                SharedTable.attach(spec)
        assert len(cache) == 0

    def test_pinned_eviction_stays_linked_until_unpinned(self, shm_sentinel):
        cache = TableCache(capacity=1)
        try:
            spec_a = cache.get(self.KEY_A)
            cache.pin(spec_a["name"])
            cache.get(self.KEY_B)  # evicts A, which a request still pins
            assert self.KEY_A not in cache
            assert cache.drain_evicted() == []
            with SharedTable.attach(spec_a) as view:  # still linked
                np.testing.assert_array_equal(
                    view.array, solve_system_table(self.KEY_A)
                )
            cache.unpin(spec_a["name"])
            assert cache.drain_evicted() == [spec_a["name"]]
            with pytest.raises(FileNotFoundError):
                SharedTable.attach(spec_a)
        finally:
            cache.close()

    def test_retired_table_is_taken_back_without_a_solve(self, shm_sentinel):
        cache = TableCache(capacity=1)
        try:
            name_a = cache.get(self.KEY_A)["name"]
            cache.pin(name_a)
            name_b = cache.get(self.KEY_B)["name"]  # retires A
            cache.pin(name_b)
            assert cache.get(self.KEY_A)["name"] == name_a  # retires B
            cache.unpin(name_a)
            assert cache.drain_evicted() == []  # A is cached again
            cache.unpin(name_b)
            assert cache.drain_evicted() == [name_b]
        finally:
            cache.close()

    def test_close_unlinks_retired_tables(self, shm_sentinel):
        cache = TableCache(capacity=1)
        spec_a = cache.get(self.KEY_A)
        cache.pin(spec_a["name"])
        cache.get(self.KEY_B)
        cache.close()
        with pytest.raises(FileNotFoundError):
            SharedTable.attach(spec_a)

    def test_pins_hold_under_concurrent_unpins(self, shm_sentinel):
        """Four threads pin and unpin three tables while the main thread
        keeps evicting and taking them back: no pin count may lose an
        update, and once the last pins go, every table but the cached
        one is unlinked exactly once."""
        cache = TableCache(capacity=1)
        keys = (self.KEY_A, self.KEY_B, self.KEY_C)
        names = []
        for key in keys:  # a held pin each: evicted tables stay retired
            names.append(cache.get(key)["name"])
            cache.pin(names[-1])
        errors: list[BaseException] = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def hammer(i: int) -> None:
                try:
                    for j in range(i, i + 20000):
                        cache.pin(names[j % 3])
                        cache.unpin(names[j % 3])
                except BaseException as exc:  # reported below
                    errors.append(exc)

            threads = [
                threading.Thread(target=hammer, args=(i,)) for i in range(4)
            ]
            for thread in threads:
                thread.start()
            i = 0
            while any(thread.is_alive() for thread in threads):
                assert cache.get(keys[i % 3])["name"] == names[i % 3]
                i += 1
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        try:
            assert not errors, errors[:1]
            assert cache._pins == dict.fromkeys(names, 1)
            for name in names:
                cache.unpin(name)
            cached = cache._tables[keys[(i - 1) % 3]].name
            assert sorted(cache.drain_evicted()) == sorted(set(names) - {cached})
            assert not cache._pins and not cache._retired
        finally:
            cache.close()

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError, match="capacity"):
            TableCache(capacity=0)
