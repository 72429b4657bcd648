"""Chaos: a missing compiler degrades loudly, never silently.

The fallback contract (see ``repro.backends.registry``): with the C
compiler hidden (``REPRO_CC=/nonexistent/compiler``),

* an explicit ``backend="cc"`` request **raises**
  :class:`BackendUnavailable` with the install hint (CLIs surface it as
  one clean actionable line, not a traceback);
* fleet-worker resolution (``fallback=True``, what
  :func:`build_walker_range` uses) degrades the explicit request to
  NumPy instead — warned and counted — and the run's numbers equal the
  NumPy run's bit for bit, because the fallback *is* the NumPy backend;
* ``"auto"`` resolves exactly as ``None`` does with ``REPRO_BACKEND``
  unset, with a compiler and without one.

Each CLI resolves its backend once, after the ``--backend`` flag, the
``--config`` file and ``REPRO_BACKEND`` are merged, so a bad name from
any of the three is one ``parser.error`` line.
"""

import json
import warnings

import numpy as np
import pytest

from repro.backends import (
    BackendUnavailable,
    ENV_VAR,
    get_backend,
    resolve_backend,
)
from repro.backends import cc_backend
from repro.backends.registry import _reset_for_tests
from repro.config import RunConfig
from repro.obs import OBS
from repro.parallel.crowd import CrowdSpec, run_crowd_sequential

#: The cc capability's install hint, which every refusal must carry.
INSTALL_HINT = "Install a C toolchain"


@pytest.fixture
def fresh_gate(monkeypatch):
    """Forget this process's activation verdicts for one test."""
    monkeypatch.delenv(ENV_VAR, raising=False)
    _reset_for_tests()
    yield
    _reset_for_tests()


@pytest.fixture
def no_compiler(fresh_gate, monkeypatch):
    """Hide the C compiler from the cc backend's toolchain discovery."""
    monkeypatch.setenv("REPRO_CC", "/nonexistent/compiler")
    yield


@pytest.fixture
def obs():
    OBS.reset()
    OBS.enable()
    try:
        yield OBS
    finally:
        OBS.disable()
        OBS.reset()


def test_missing_compiler_reports_unavailable(no_compiler):
    backend = get_backend("cc")
    assert not backend.is_available()
    err = backend.availability_error()
    assert "/nonexistent/compiler" in err and INSTALL_HINT in err


def test_explicit_cc_raises_actionable_error(no_compiler):
    with pytest.raises(BackendUnavailable, match=INSTALL_HINT):
        resolve_backend("cc")


def test_auto_is_the_default_without_a_compiler(no_compiler, obs):
    """No compiler: ``"auto"`` lands on NumPy exactly as ``None`` does —
    silently, since a host without a compiler is no fault, but
    counted."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert resolve_backend("auto").name == "numpy"
        assert resolve_backend(None).name == "numpy"
    counter = obs.registry.counter(
        "backend_fallback_total", requested="default", skipped="cc"
    )
    assert counter.value == 2


def test_auto_is_the_default_with_a_compiler(fresh_gate):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert resolve_backend("auto") is resolve_backend(None)
    expected = "cc" if get_backend("cc").is_available() else "numpy"
    assert resolve_backend("auto").name == expected


def test_auto_degrades_with_warning_and_metric(fresh_gate, monkeypatch, obs):
    """A compiler whose kernels fail the exact gate: ``"auto"`` degrades
    to NumPy like the default, with a warning and a counter sample."""
    if not get_backend("cc").is_available():
        pytest.skip(get_backend("cc").availability_error())
    real = cc_backend.CcBackend.make_cores

    def off_by_one(self, engine):
        cores = real(self, engine)
        inner = cores.v

        def v(positions, out):
            inner(positions, out)
            out += 1e-3

        cores.v = v
        return cores

    monkeypatch.setattr(cc_backend.CcBackend, "make_cores", off_by_one)
    with pytest.warns(RuntimeWarning, match="cc"):
        assert resolve_backend("auto").name == "numpy"
    counter = obs.registry.counter(
        "backend_fallback_total", requested="default", skipped="cc"
    )
    assert counter.value == 1


def test_worker_fallback_matches_numpy_bitwise(no_compiler, obs):
    """A worker that degrades serves the exact-tier path — same bits."""
    with pytest.warns(RuntimeWarning, match="cc"):
        degraded = run_crowd_sequential(
            CrowdSpec(
                n_walkers=2,
                n_orbitals=2,
                grid_shape=(8, 8, 8),
                seed=5,
                config=RunConfig(backend="cc"),
            ),
            n_sweeps=2,
            tau=0.1,
        )
    counter = obs.registry.counter(
        "backend_fallback_total", requested="cc", skipped="cc"
    )
    assert counter.value >= 1
    reference = run_crowd_sequential(
        CrowdSpec(
            n_walkers=2,
            n_orbitals=2,
            grid_shape=(8, 8, 8),
            seed=5,
            config=RunConfig(backend="numpy"),
        ),
        n_sweeps=2,
        tau=0.1,
    )
    np.testing.assert_array_equal(degraded.positions, reference.positions)
    np.testing.assert_array_equal(degraded.log_values, reference.log_values)


def test_dmc_cli_rejects_unavailable_backend_cleanly(no_compiler, capsys):
    """`python -m repro dmc --backend cc` without a compiler = one
    actionable line, exit 2."""
    from repro.__main__ import _dmc_main

    with pytest.raises(SystemExit) as excinfo:
        _dmc_main(["--walkers", "2", "--generations", "1", "--backend", "cc"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert INSTALL_HINT in err
    assert "Traceback" not in err


def test_miniqmc_cli_rejects_unknown_backend_cleanly(capsys):
    from repro.miniqmc.app import main

    with pytest.raises(SystemExit) as excinfo:
        main(["--sweeps", "1", "--backend", "no-such-backend"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "no-such-backend" in err and "known backends" in err


def _dmc(argv):
    from repro.__main__ import _dmc_main

    return _dmc_main(["--walkers", "2", "--generations", "1",
                      "--n-orbitals", "2", *argv])


def _dmc_processes(argv):
    return _dmc(["--processes", "2", *argv])


def _miniqmc(argv):
    from repro.miniqmc.app import main

    return main(["--sweeps", "1", "--n-orbitals", "2", *argv])


def _miniqmc_population(argv):
    return _miniqmc(["--walkers", "2", *argv])


def _tune(argv):
    from repro.tune.cli import main

    return main(["run", "--shape", "8x8", "--repeats", "1", *argv])


CLIS = {
    "dmc": _dmc,
    "dmc-processes": _dmc_processes,
    "miniqmc": _miniqmc,
    "miniqmc-population": _miniqmc_population,
    "tune": _tune,
}


@pytest.mark.parametrize(
    "cli, source",
    [
        (cli, source)
        for cli in CLIS
        for source in ("flag", "config", "env")
        if not (cli == "tune" and source == "config")  # tune has no --config
    ],
)
def test_cli_rejects_a_bad_backend_from_any_source(
    cli, source, monkeypatch, tmp_path, capsys
):
    """A stale or misspelt backend in the flag, the ``--config`` file or
    ``REPRO_BACKEND`` is one ``parser.error`` line, exit 2, before any
    worker starts or any candidate is timed."""
    argv = []
    if source == "flag":
        argv = ["--backend", "numbaX"]
    elif source == "config":
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"backend": "numbaX"}))
        argv = ["--config", str(path)]
    else:
        monkeypatch.setenv(ENV_VAR, "numbaX")
    with pytest.raises(SystemExit) as excinfo:
        CLIS[cli](argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "no backend named 'numbaX'" in err
    assert "Traceback" not in err
    assert len([line for line in err.splitlines() if "error:" in line]) == 1
