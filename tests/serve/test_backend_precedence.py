"""Backend selection in the serving path: precedence and failure modes.

The contracts, mirroring the CLI rules (``tests/backends/test_fallback.py``
pins the library side):

* an explicit ``--backend`` / ``ServeConfig.backend`` **beats** the
  ``REPRO_BACKEND`` environment variable — ``resolve_backend`` only
  consults the env var when no explicit spec is given, so a server
  started with ``backend="numpy"`` serves NumPy even when the
  environment names a backend this host cannot run;
* with no explicit backend, an unusable ``REPRO_BACKEND`` fails the
  server at **startup** (strict parent-side validation), never as a
  mid-request worker crash;
* a *tenant* naming an unavailable backend gets a clean
  ``backend_unavailable`` protocol error carrying the install hint, and
  the same connection keeps serving other requests — one tenant's bad
  backend never reaches (let alone kills) a worker.

An unavailable backend is ``cc`` with the C compiler hidden
(``REPRO_CC=/nonexistent/compiler``, the pattern from
``tests/backends/test_fallback.py``), so these tests pass on hosts with
and without a compiler.  ``"auto"`` is served exactly as the default
backend.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import BackendUnavailable
from repro.backends.registry import _reset_for_tests
from repro.core.kinds import Kind
from repro.serve import ServeClient, ServeError

from .conftest import TINY_SYSTEM
from .test_server import direct_eval


#: The cc capability's install hint, which every refusal must carry.
INSTALL_HINT = "Install a C toolchain"


@pytest.fixture
def no_compiler(monkeypatch):
    """Hide the C compiler from the cc backend's toolchain discovery."""
    monkeypatch.setenv("REPRO_CC", "/nonexistent/compiler")
    _reset_for_tests()
    yield
    _reset_for_tests()


class TestStartupPrecedence:
    def test_explicit_backend_beats_env_var(
        self, no_compiler, monkeypatch, make_server
    ):
        """REPRO_BACKEND names an unusable backend; the explicit config
        wins, so the server starts and serves NumPy bits."""
        positions = np.random.default_rng(2).random((3, 3))
        # Reference computed before the env poisoning (it resolves the
        # default backend too, and must not see the bad REPRO_BACKEND).
        reference = direct_eval(TINY_SYSTEM, Kind.V, positions)
        monkeypatch.setenv("REPRO_BACKEND", "cc")
        server = make_server(backend="numpy", workers=1)
        assert server.server.default_backend == "numpy"
        with ServeClient(server.address) as client:
            streams, _ = client.evaluate(
                positions, kind="v", system=TINY_SYSTEM
            )
        np.testing.assert_array_equal(streams["v"], reference["v"])

    def test_env_backend_applies_when_no_explicit_choice(
        self, monkeypatch, make_server
    ):
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        server = make_server(backend=None, workers=1)
        assert server.server.default_backend == "numpy"

    def test_unusable_env_backend_fails_startup_cleanly(
        self, no_compiler, monkeypatch
    ):
        """No explicit backend + poisoned REPRO_BACKEND: the server
        refuses to start with the actionable library error — strict
        validation happens in the parent, before any worker exists."""
        from repro.serve import ServeConfig, ServerThread

        monkeypatch.setenv("REPRO_BACKEND", "cc")
        with pytest.raises(BackendUnavailable, match=INSTALL_HINT):
            ServerThread(ServeConfig(workers=1))

    def test_unknown_explicit_backend_fails_startup(self):
        from repro.serve import ServeConfig, ServerThread

        with pytest.raises(BackendUnavailable, match="no-such-backend"):
            ServerThread(ServeConfig(workers=1, backend="no-such-backend"))


class TestPerRequestBackends:
    def test_unavailable_tenant_backend_is_a_protocol_error(
        self, no_compiler, make_server
    ):
        """The rejection is parent-side: the error carries the install
        hint, the worker never sees the request, and the very next
        request on the same connection is served bit-exactly."""
        server = make_server(workers=1)
        positions = np.random.default_rng(5).random((4, 3))
        with ServeClient(server.address, tenant="hopeful") as client:
            with pytest.raises(ServeError, match=INSTALL_HINT) as excinfo:
                client.evaluate(
                    positions, kind="vgh", system=TINY_SYSTEM, backend="cc"
                )
            assert excinfo.value.code == "backend_unavailable"
            # No worker crashed: the pool still serves, same connection.
            streams, _ = client.evaluate(
                positions, kind="vgh", system=TINY_SYSTEM
            )
            stats = client.stats()
        reference = direct_eval(TINY_SYSTEM, Kind.VGH, positions)
        for name in Kind.VGH.streams:
            np.testing.assert_array_equal(streams[name], reference[name])
        rejections = [
            entry["value"]
            for name, entry in stats["metrics"].items()
            if "serve_rejected_total" in name
            and "reason=backend_unavailable" in name
            and "tenant=hopeful" in name
        ]
        assert rejections and rejections[0] >= 1

    def test_explicit_numpy_request_matches_default_bitwise(self, make_server):
        """Naming the default backend explicitly changes nothing."""
        server = make_server(workers=1)
        positions = np.random.default_rng(13).random((3, 3))
        with ServeClient(server.address) as client:
            by_default, _ = client.evaluate(
                positions, kind="vgl", system=TINY_SYSTEM
            )
            by_name, _ = client.evaluate(
                positions, kind="vgl", system=TINY_SYSTEM, backend="numpy"
            )
        for name in Kind.VGL.streams:
            np.testing.assert_array_equal(by_default[name], by_name[name])

    def test_auto_resolves_to_a_concrete_backend(self, monkeypatch, make_server):
        """``backend="auto"`` is resolved parent-side to the backend the
        server resolves with ``REPRO_BACKEND`` unset, and served with
        its bits (without a warning: the suite errors on any
        ``RuntimeWarning``)."""
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        server = make_server(workers=1)
        positions = np.random.default_rng(17).random((3, 3))
        with ServeClient(server.address) as client:
            by_auto, _ = client.evaluate(
                positions, kind="v", system=TINY_SYSTEM, backend="auto"
            )
            by_default, _ = client.evaluate(positions, kind="v", system=TINY_SYSTEM)
        assert server.server._backend_names["auto"] == server.server.default_backend
        np.testing.assert_array_equal(by_auto["v"], by_default["v"])
