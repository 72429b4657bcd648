"""Registry semantics: capability validation, gating, resolution.

The registry's core promise: **no backend serves kernels before passing
the differential harness at its declared tier.**  These tests register
deliberately broken backends and watch the gate reject them — eagerly
at registration, or lazily at first resolution — plus the selection
policy details (env override, instance pass-through, kind envelope).
"""

import numpy as np
import pytest

from repro.backends import (
    AUTO_ORDER,
    BackendCapability,
    BackendConformanceError,
    BackendCores,
    BackendUnavailable,
    ENV_VAR,
    KernelBackend,
    NumpyBackend,
    available_backends,
    get_backend,
    register_backend,
    registered_backends,
    resolve_backend,
    unregister_backend,
    verify_backend,
)
from repro.core.batched import BsplineBatched
from repro.core.grid import Grid3D
from repro.core.kinds import Kind


class _OffByOneBackend(KernelBackend):
    """Claims the exact tier but perturbs every value — must be rejected."""

    capability = BackendCapability(
        name="off-by-one",
        tier="exact",
        description="deliberately wrong (test double)",
    )

    def make_cores(self, engine) -> BackendCores:
        self._check_engine(engine)

        def v_core(positions, v):
            engine._numpy_v_core(positions, v)
            v += 1e-3

        def vgh_core(positions, v, g, l, h):
            engine._numpy_vgh_core(positions, v, g, l, h)
            v += 1e-3

        return BackendCores(v=v_core, vgh=vgh_core)


class _NegativeZeroBackend(KernelBackend):
    """Equal values to NumPy's, but every zero of V negative: an exact
    claim that ``assert_array_equal`` alone would let through."""

    capability = BackendCapability(
        name="negative-zero",
        tier="exact",
        description="flips the sign of zeros (test double)",
    )

    def make_cores(self, engine) -> BackendCores:
        self._check_engine(engine)

        def v_core(positions, v):
            engine._numpy_v_core(positions, v)
            v[v == 0] = -0.0

        def vgh_core(positions, v, g, l, h):
            engine._numpy_vgh_core(positions, v, g, l, h)
            v[v == 0] = -0.0

        return BackendCores(v=v_core, vgh=vgh_core)


class _UnwrittenLastSplineBackend(KernelBackend):
    """NumPy's bits everywhere but the last spline, which it never
    writes: the gate must see that whatever the output held before."""

    capability = BackendCapability(
        name="unwritten-last-spline",
        tier="exact",
        description="leaves the last spline unwritten (test double)",
    )

    def make_cores(self, engine) -> BackendCores:
        self._check_engine(engine)

        def v_core(positions, v):
            full = np.empty_like(v)
            engine._numpy_v_core(positions, full)
            v[:, :-1] = full[:, :-1]

        def vgh_core(positions, v, g, l, h):
            outs = (v, g, l, h)
            full = [None if a is None else np.empty_like(a) for a in outs]
            engine._numpy_vgh_core(positions, *full)
            for a, b in zip(outs, full):
                if a is not None:
                    a[..., :-1] = b[..., :-1]

        return BackendCores(v=v_core, vgh=vgh_core)


class _VOnlyBackend(KernelBackend):
    """A legal partial backend: serves V, refuses VGL/VGH."""

    capability = BackendCapability(
        name="v-only",
        kinds=(Kind.V,),
        tier="exact",
        description="V-kernel-only (test double)",
    )

    def make_cores(self, engine) -> BackendCores:
        self._check_engine(engine)

        def refuse(*args):  # pragma: no cover - guarded upstream by _run
            raise AssertionError("vgh must never be dispatched to a V-only backend")

        return BackendCores(v=engine._numpy_v_core, vgh=refuse)


@pytest.fixture
def scratch_registry():
    """Track names registered in a test and drop them afterwards."""
    added = []
    yield added
    for name in added:
        unregister_backend(name)


class TestCapabilityValidation:
    def test_allclose_requires_tolerance_per_dtype(self):
        with pytest.raises(ValueError, match="must declare"):
            BackendCapability(
                name="x",
                tier="allclose",
                tolerances=(("float64", 1e-12, 1e-12),),  # float32 missing
            )

    def test_exact_forbids_tolerances(self):
        with pytest.raises(ValueError, match="must not declare"):
            BackendCapability(
                name="x", tier="exact", tolerances=(("float64", 1e-9, 0.0),)
            )

    def test_unknown_tier_rejected(self):
        with pytest.raises(ValueError, match="tier"):
            BackendCapability(name="x", tier="bitwise-ish")

    def test_tolerance_lookup(self):
        cap = BackendCapability(
            name="x",
            tier="allclose",
            tolerances=(("float64", 1e-12, 1e-13), ("float32", 1e-4, 1e-5)),
        )
        assert cap.tolerance_for(np.float32) == (1e-4, 1e-5)
        exact = BackendCapability(name="y", tier="exact")
        assert exact.tolerance_for(np.float64) == (0.0, 0.0)

    def test_supports_envelope(self):
        cap = BackendCapability(name="x", kinds=(Kind.V,), dtypes=("float64",))
        assert cap.supports(Kind.V, np.float64)
        assert not cap.supports(Kind.VGH, np.float64)
        assert not cap.supports(Kind.V, np.float32)


class TestRegistration:
    def test_builtins_registered_in_auto_order(self):
        names = registered_backends()
        assert names[: len(AUTO_ORDER)] == AUTO_ORDER
        assert "numpy" in available_backends()

    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_backend(NumpyBackend())

    def test_exact_gate_counts_the_sign_of_zero(self):
        grid = Grid3D(5, 5, 5, lengths=(1.0, 1.0, 1.0))
        zeros = np.zeros((5, 5, 5, 3))
        assert verify_backend(get_backend("numpy"), grid, zeros).all_passed
        report = verify_backend(_NegativeZeroBackend(), grid, zeros)
        assert not report.all_passed

    def test_exact_gate_sees_an_unwritten_spline(self):
        """Outputs start as NaN in the gate, so a spline no core writes
        fails every kernel's check, zero or not in the reference."""
        report = verify_backend(_UnwrittenLastSplineBackend())
        assert {c.kernel for c in report.checks if not c.passed} == {
            "v", "vgl", "vgh"
        }
        grid = Grid3D(5, 5, 5, lengths=(1.0, 1.0, 1.0))
        zeros = np.zeros((5, 5, 5, 3))
        assert not verify_backend(_UnwrittenLastSplineBackend(), grid, zeros).all_passed

    def test_eager_registration_rejects_broken_backend(self):
        with pytest.raises(BackendConformanceError, match="off-by-one"):
            register_backend(_OffByOneBackend())
        assert "off-by-one" not in registered_backends()

    def test_lazy_gate_rejects_broken_backend_at_resolution(
        self, scratch_registry
    ):
        register_backend(_OffByOneBackend(), verify="lazy")
        scratch_registry.append("off-by-one")
        assert "off-by-one" in registered_backends()  # named, but gated
        with pytest.raises(BackendConformanceError):
            resolve_backend("off-by-one")
        # The verdict is cached: the second resolution fails identically
        # without re-running the harness.
        with pytest.raises(BackendConformanceError):
            resolve_backend("off-by-one")

    def test_conforming_backend_admitted_eagerly(self, scratch_registry):
        register_backend(_VOnlyBackend())
        scratch_registry.append("v-only")
        assert resolve_backend("v-only").name == "v-only"


class TestResolution:
    def test_default_is_cc_when_a_compiler_is_present(self, monkeypatch):
        """No spec, no env var: the exact-tier compiled backend wherever a
        compiler is on PATH (its gate must pass there), else NumPy."""
        monkeypatch.delenv(ENV_VAR, raising=False)
        expected = "cc" if get_backend("cc").is_available() else "numpy"
        assert resolve_backend(None).name == expected

    def test_env_var_override(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "numpy")
        assert resolve_backend(None).name == "numpy"
        if get_backend("cc").is_available():
            monkeypatch.setenv(ENV_VAR, "cc")
            assert resolve_backend(None).name == "cc"

    def test_unknown_name_lists_known_backends(self):
        with pytest.raises(BackendUnavailable, match="known backends"):
            get_backend("tpu")

    def test_instance_passthrough(self):
        backend = get_backend("numpy")
        assert resolve_backend(backend) is backend

    def test_fallback_never_applies_to_numpy_itself(self, monkeypatch):
        # If even the floor is broken, fallback must raise, not loop.
        backend = get_backend("numpy")
        monkeypatch.setattr(
            type(backend), "availability_error", lambda self: "broken floor"
        )
        with pytest.raises(BackendUnavailable, match="broken floor"):
            resolve_backend("numpy", fallback=True)


class TestKindEnvelope:
    def test_engine_refuses_undeclared_kind(self, scratch_registry):
        register_backend(_VOnlyBackend())
        scratch_registry.append("v-only")
        rng = np.random.default_rng(0)
        grid = Grid3D(5, 5, 5, lengths=(1.0, 1.0, 1.0))
        table = rng.standard_normal((5, 5, 5, 4))
        eng = BsplineBatched(grid, table, backend="v-only")
        positions = np.asarray(list(grid.random_positions(3, rng)))
        out = eng.new_output(Kind.VGH, n=3)
        eng.v_batch(positions, out)  # declared kind works
        with pytest.raises(BackendUnavailable, match="does not serve"):
            eng.vgh_batch(positions, out)
