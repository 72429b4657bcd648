"""Files written while a backend could be allclose tier keep working.

Until the ``numba`` backend and its allclose tier were deleted, the
tuner could store an ``allclose`` winner with its ``rtol``/``atol``,
and a ``RunConfig`` file could name ``"backend": "auto"``.  Both kinds
of file still load.  A stored allclose entry is listed but never
served, to any backend spec, and a forced search at its shape replaces
it with an exact entry; ``"auto"`` runs on the default backend.
"""

import json

import numpy as np
import pytest

from repro.backends import ENV_VAR, get_backend, resolve_backend
from repro.config import RunConfig, load_run_config
from repro.tune.cli import main as tune_main
from repro.tune.db import TIER_EXACT, TuneDB, TuneShape
from repro.tune.hostspec import current_host

SHAPE = TuneShape(16, 8, "float64", "vgh")

#: One entry as the tuner wrote it for a numba winner: the allclose
#: tier and the tolerances it was verified at.
OLD_ENTRY = {
    "atol": 1e-12,
    "backend": "numba",
    "baseline_seconds": 0.0002,
    "candidates": 4,
    "chunk": 8,
    "rtol": 1e-12,
    "seconds": 0.0001,
    "speedup": 2.0,
    "tier": "allclose",
    "tile": 16,
    "tuned_at": 1700000000.0,
}


@pytest.fixture
def old_db(tmp_path, monkeypatch):
    """A schema-2 DB holding one numba/allclose entry for this host,
    also the default DB of the test (``REPRO_TUNE_DB``)."""
    host = current_host()
    path = tmp_path / "tunedb.json"
    path.write_text(
        json.dumps(
            {
                "hosts": {
                    host.fingerprint: {
                        "entries": {SHAPE.key: OLD_ENTRY},
                        "spec": host.as_dict(),
                    }
                },
                "version": 2,
            },
            indent=1,
            sort_keys=True,
        )
    )
    monkeypatch.setenv("REPRO_TUNE_DB", str(path))
    return path


def test_the_entry_loads_and_is_listed(old_db, capsys):
    ((_, shape, cfg),) = TuneDB(path=old_db).entries()
    assert shape == SHAPE
    assert (cfg.chunk, cfg.tile, cfg.backend, cfg.tier) == (8, 16, "numba", "allclose")
    assert tune_main(["show", "--db", str(old_db)]) == 0
    out = capsys.readouterr().out
    assert SHAPE.key in out and "backend=numba tier=allclose" in out
    assert tune_main(["show", "--db", str(old_db), "--json"]) == 0
    (listed,) = json.loads(capsys.readouterr().out)["entries"]
    assert (listed["backend"], listed["tier"]) == ("numba", "allclose")


def test_the_entry_is_never_served(old_db):
    db = TuneDB(path=old_db)
    assert db.get(SHAPE) is None
    assert db.lookup(16, "float64", batch=8) is None
    assert db.lookup(16, "float64") is None
    for backend in (None, "auto", "cc", "numpy"):
        cfg = RunConfig(backend=backend).resolved_for(
            16, batch=8, dtype=np.float64, db=db
        )
        assert cfg.source_of("chunk_size") == "heuristic", backend
        assert cfg.source_of("tile_size") == "heuristic", backend
        assert cfg.backend == backend
        # The same through the default DB path (REPRO_TUNE_DB).
        cfg = RunConfig(backend=backend).resolved_for(16, batch=8, dtype=np.float64)
        assert cfg.source_of("chunk_size") == "heuristic", backend


def test_a_forced_run_replaces_it_with_an_exact_entry(old_db, capsys):
    argv = ["run", "--db", str(old_db), "--shape", "16x8", "--dtype", "float64",
            "--repeats", "1", "--json"]
    # Not served, so an unforced run measures rather than reporting a
    # warm hit ...
    assert tune_main(argv) == 0
    (row,) = json.loads(capsys.readouterr().out)["shapes"]
    assert not row["from_db"] and row["measured"] > 0
    # ... and a forced one measures too; either way the entry is exact.
    assert tune_main([*argv, "--force"]) == 0
    (row,) = json.loads(capsys.readouterr().out)["shapes"]
    assert not row["from_db"] and row["measured"] > 0
    assert row["tier"] == TIER_EXACT and "rtol" not in row
    stored = TuneDB(path=old_db).get(SHAPE)
    assert stored.tier == TIER_EXACT
    assert stored.backend == resolve_backend(None).name
    assert TuneDB(path=old_db).lookup(16, "float64", batch=8)[1] == stored


def test_an_auto_run_config_file_runs_on_the_default_backend(
    tmp_path, monkeypatch, capsys
):
    from repro.__main__ import main

    monkeypatch.delenv(ENV_VAR, raising=False)
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"backend": "auto", "tile_size": 2}))
    cfg = load_run_config(path)
    assert cfg.backend == "auto"
    assert cfg.source_of("backend") == "kwarg"
    metrics = tmp_path / "metrics.json"
    argv = ["dmc", "--walkers", "2", "--generations", "1", "--n-orbitals", "2",
            "--config", str(path), "--metrics-out", str(metrics)]
    assert main(argv) == 0
    capsys.readouterr()
    builds = {
        c["labels"]["backend"]
        for c in json.loads(metrics.read_text())["counters"]
        if c["name"] == "batched_engine_builds_total"
    }
    expected = "cc" if get_backend("cc").is_available() else "numpy"
    assert builds == {expected}
