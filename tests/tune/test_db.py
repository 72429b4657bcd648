"""The persistent per-host TuneDB: winners survive processes, not hosts.

The DB is the third rung of the resolution order, so its failure modes
matter as much as its hits: a corrupt file, a foreign host's entries, or
an ``allclose``-tier winner left by an older search must all degrade to
"no entry", never to a crash or a wrong config.
"""

import json
import subprocess
import sys

import pytest

from repro.tune.db import (
    TIER_EXACT,
    TuneDB,
    TunedConfig,
    TuneShape,
    default_db_path,
)
from repro.tune.hostspec import HostSpec


def _host(name: str) -> HostSpec:
    """A synthetic host identity with a name-derived fingerprint."""
    return HostSpec(
        l2_bytes=1 << 20,
        llc_bytes=8 << 20,
        cache_source="env",
        cpu_count=4,
        machine=name,
        system="Linux",
    )

SHAPE = TuneShape(64, 32, "float64", "vgh")
WINNER = TunedConfig(chunk=16, tile=8, speedup=1.4, candidates=6)


class TestRoundTrip:
    def test_put_get(self, tmp_path):
        db = TuneDB(path=tmp_path / "db.json")
        assert db.get(SHAPE) is None
        db.put(SHAPE, WINNER)
        got = db.get(SHAPE)
        assert (got.chunk, got.tile, got.tier) == (16, 8, TIER_EXACT)

    def test_persists_across_instances(self, tmp_path):
        path = tmp_path / "db.json"
        TuneDB(path=path).put(SHAPE, WINNER)
        got = TuneDB(path=path).get(SHAPE)
        assert (got.chunk, got.tile) == (16, 8)

    def test_persists_across_processes(self, tmp_path):
        """The acceptance criterion verbatim: a winner written by one
        process is served to a fresh interpreter."""
        path = tmp_path / "db.json"
        TuneDB(path=path).put(SHAPE, WINNER)
        out = subprocess.run(
            [
                sys.executable,
                "-c",
                "from repro.tune.db import TuneDB, TuneShape\n"
                f"cfg = TuneDB(path={str(path)!r}).get(TuneShape(64, 32, 'float64'))\n"
                "print(cfg.chunk, cfg.tile)",
            ],
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.split() == ["16", "8"]

    def test_config_dict_round_trip(self):
        cfg = TunedConfig(
            chunk=4, tile=2, backend="cc", tier=TIER_EXACT, seconds=0.25,
            baseline_seconds=0.5, speedup=2.0, candidates=9,
        )
        clone = TunedConfig.from_dict(cfg.as_dict())
        assert clone.as_dict() == cfg.as_dict()

    def test_shape_key_distinguishes_every_field(self):
        base = TuneShape(64, 32, "float64", "vgh")
        keys = {
            base.key,
            TuneShape(65, 32, "float64", "vgh").key,
            TuneShape(64, 33, "float64", "vgh").key,
            TuneShape(64, 32, "float32", "vgh").key,
            TuneShape(64, 32, "float64", "vgl").key,
        }
        assert len(keys) == 5


class TestPathResolution:
    def test_env_override_wins(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_TUNE_DB", str(tmp_path / "mine.json"))
        assert default_db_path() == tmp_path / "mine.json"
        TuneDB().put(SHAPE, WINNER)
        assert (tmp_path / "mine.json").exists()

    def test_xdg_cache_home_fallback(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_TUNE_DB", raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        assert default_db_path() == tmp_path / "repro" / "tunedb.json"


class TestDurability:
    def test_corrupt_file_reads_as_empty(self, tmp_path):
        path = tmp_path / "db.json"
        path.write_text("{ not json")
        db = TuneDB(path=path)
        assert db.get(SHAPE) is None
        db.put(SHAPE, WINNER)  # and writes still go through
        assert TuneDB(path=path).get(SHAPE) is not None

    def test_wrong_schema_version_reads_as_empty(self, tmp_path):
        path = tmp_path / "db.json"
        path.write_text(json.dumps({"version": 999, "hosts": {"x": {}}}))
        assert TuneDB(path=path).get(SHAPE) is None

    def test_v1_file_reads_forward_as_sequential(self, tmp_path):
        # v1 entries lack the retired process-split axes; v2 entries
        # written before the split was deleted carry them.  Both load
        # and serve their blocking, under either file version.
        path = tmp_path / "db.json"
        v1_shape, v2_shape = SHAPE, TuneShape(64, 8, "float64", "vgh")
        db = TuneDB(path=path)
        db.put(v1_shape, WINNER)
        db.put(v2_shape, TunedConfig(chunk=4, tile=2))
        doc = json.loads(path.read_text())
        entries = next(iter(doc["hosts"].values()))["entries"]
        entries[v2_shape.key].update(processes=4, orbital_shards=2)
        for version in (1, 2):
            doc["version"] = version
            path.write_text(json.dumps(doc))
            fresh = TuneDB(path=path)
            v1, v2 = fresh.get(v1_shape), fresh.get(v2_shape)
            assert (v1.chunk, v1.tile) == (16, 8)
            assert (v2.chunk, v2.tile) == (4, 2)

    def test_put_is_atomic_no_stray_tempfiles(self, tmp_path):
        db = TuneDB(path=tmp_path / "db.json")
        for batch in (8, 16, 32):
            db.put(TuneShape(64, batch, "float64"), WINNER)
        leftovers = [p.name for p in tmp_path.iterdir() if p.name != "db.json"]
        assert not leftovers

    def test_reload_sees_external_writes(self, tmp_path):
        path = tmp_path / "db.json"
        reader = TuneDB(path=path)
        assert reader.get(SHAPE) is None
        TuneDB(path=path).put(SHAPE, WINNER)  # another process, effectively
        assert reader.get(SHAPE) is not None


class TestHostScoping:
    def test_other_hosts_entries_invisible(self, tmp_path):
        path = tmp_path / "db.json"
        TuneDB(path=path, host=_host("node-a")).put(SHAPE, WINNER)
        assert TuneDB(path=path, host=_host("node-b")).get(SHAPE) is None
        assert TuneDB(path=path, host=_host("node-a")).get(SHAPE) is not None

    def test_clear_scopes_to_host(self, tmp_path):
        path = tmp_path / "db.json"
        TuneDB(path=path, host=_host("node-a")).put(SHAPE, WINNER)
        TuneDB(path=path, host=_host("node-b")).put(SHAPE, WINNER)
        assert TuneDB(path=path, host=_host("node-a")).clear() == 1
        assert TuneDB(path=path, host=_host("node-a")).get(SHAPE) is None
        assert TuneDB(path=path, host=_host("node-b")).get(SHAPE) is not None

    def test_clear_all_hosts(self, tmp_path):
        path = tmp_path / "db.json"
        TuneDB(path=path, host=_host("node-a")).put(SHAPE, WINNER)
        TuneDB(path=path, host=_host("node-b")).put(SHAPE, WINNER)
        assert TuneDB(path=path, host=_host("node-a")).clear(all_hosts=True) == 2

    def test_entries_listing(self, tmp_path):
        path = tmp_path / "db.json"
        db = TuneDB(path=path, host=_host("node-a"))
        db.put(SHAPE, WINNER)
        rows = db.entries()
        assert len(rows) == 1
        fp, shape, cfg = rows[0]
        assert fp == _host("node-a").fingerprint
        assert (shape.n_splines, shape.batch) == (64, 32)
        assert cfg.chunk == 16


class TestLookup:
    def test_exact_batch_hit(self, tmp_path):
        db = TuneDB(path=tmp_path / "db.json")
        db.put(SHAPE, WINNER)
        _, cfg = db.lookup(64, "float64", batch=32)
        assert cfg.chunk == 16

    def test_nearest_batch_within_4x(self, tmp_path):
        db = TuneDB(path=tmp_path / "db.json")
        db.put(TuneShape(64, 32, "float64"), TunedConfig(chunk=16, tile=8))
        db.put(TuneShape(64, 512, "float64"), TunedConfig(chunk=64, tile=8))
        near_shape, near = db.lookup(64, "float64", batch=48)
        assert (near_shape.batch, near.chunk) == (32, 16)
        far_shape, far = db.lookup(64, "float64", batch=300)
        assert (far_shape.batch, far.chunk) == (512, 64)

    def test_batch_beyond_4x_misses(self, tmp_path):
        db = TuneDB(path=tmp_path / "db.json")
        db.put(TuneShape(64, 8, "float64"), TunedConfig(chunk=16, tile=8))
        assert db.lookup(64, "float64", batch=64) is None
        assert db.lookup(64, "float64", batch=32) is not None  # exactly 4x

    def test_no_batch_prefers_any_entry(self, tmp_path):
        db = TuneDB(path=tmp_path / "db.json")
        db.put(SHAPE, WINNER)
        assert db.lookup(64, "float64") is not None

    def test_min_tier_filters(self, tmp_path):
        """Lookups filter on the tier, and exact is the one served: an
        allclose entry an older search stored stays listed, unserved."""
        db = TuneDB(path=tmp_path / "db.json")
        db.put(SHAPE, TunedConfig(chunk=16, tile=8, tier="allclose"))
        assert db.lookup(64, "float64", batch=32) is None
        assert db.lookup(64, "float64") is None
        assert db.get(SHAPE) is None
        (_, _, listed), = db.entries()  # still stored and listed
        assert listed.tier == "allclose"

    @pytest.mark.parametrize("field", ["dtype", "kind"])
    def test_dtype_and_kind_are_exact_match(self, tmp_path, field):
        db = TuneDB(path=tmp_path / "db.json")
        db.put(SHAPE, WINNER)
        other = {"dtype": "float32", "kind": "vgl"}[field]
        kwargs = {"dtype": "float64", "kind": "vgh", field: other}
        assert db.lookup(64, kwargs["dtype"], kind=kwargs["kind"], batch=32) is None
