"""``run_dmc_sharded`` rejects bad run arguments before it launches.

A library caller with a bad generation count or checkpoint setting must
get its ``ValueError`` before any coefficient table is solved or worker
process started — supervised or not.
"""

import pytest

from repro.fleet import FleetConfig
from repro.parallel import CrowdSpec, ProcessCrowdPool, run_dmc_sharded
from repro.parallel import crowd


@pytest.mark.parametrize("fleet", [None, FleetConfig()], ids=["pool", "fleet"])
@pytest.mark.parametrize(
    "kwargs, match",
    [
        ({"n_generations": 0}, "n_generations"),
        ({"n_generations": -3}, "n_generations"),
        ({"checkpoint_every": 0, "checkpoint_path": "ck"}, "checkpoint_every"),
        ({"checkpoint_every": -1, "checkpoint_path": "ck"}, "checkpoint_every"),
        ({"checkpoint_every": 2}, "checkpoint_path"),
        ({"resume": "auto"}, "checkpoint_path"),
    ],
    ids=[
        "zero-generations",
        "negative-generations",
        "zero-cadence",
        "negative-cadence",
        "cadence-without-path",
        "auto-resume-without-path",
    ],
)
def test_bad_run_arguments_raise_before_launch(monkeypatch, kwargs, match, fleet):
    def reached(*args, **kw):
        raise AssertionError("a table was solved or a worker pool started")

    monkeypatch.setattr(ProcessCrowdPool, "__init__", reached)
    monkeypatch.setattr(crowd, "solve_spec_table", reached)
    spec = CrowdSpec(n_walkers=2, n_orbitals=2)
    with pytest.raises(ValueError, match=match):
        run_dmc_sharded(spec, n_workers=2, fleet=fleet, **kwargs)
