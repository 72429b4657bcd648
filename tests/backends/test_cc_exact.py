"""The ``cc`` backend at the exact tier, and the default path it serves.

``cc`` repeats the NumPy cores' arithmetic in C, operation for
operation, so every stream must equal the frozen oracle's bit for bit,
sign of zero included, at the shapes the production paths run.  Since
it is also what ``resolve_backend(None)`` serves wherever a compiler is
present, the ways that can fail are pinned here too: each one lands the
default on NumPy (counted), while an explicit ``"cc"`` request raises.
"""

import json
import re
import warnings

import numpy as np
import pytest

from repro.backends import (
    BackendUnavailable,
    ENV_VAR,
    get_backend,
    registry,
    resolve_backend,
)
from repro.backends import cc_backend
from repro.backends.conformance import conformance_positions
from repro.backends.registry import _reset_for_tests
from repro.core.batched import BsplineBatched
from repro.core.batched_reference import ReferenceBatched
from repro.core.grid import Grid3D
from repro.core.kinds import Kind
from repro.obs import OBS


@pytest.fixture
def cc():
    backend = get_backend("cc")
    if not backend.is_available():
        pytest.skip(backend.availability_error())
    return backend


@pytest.fixture
def fresh_gate(monkeypatch):
    """Forget this process's cc build and gate verdict for one test."""
    monkeypatch.setattr(cc_backend, "_LIB", None)
    monkeypatch.delenv(ENV_VAR, raising=False)
    _reset_for_tests()
    yield
    _reset_for_tests()


@pytest.fixture
def obs():
    OBS.reset()
    OBS.enable()
    try:
        yield OBS
    finally:
        OBS.disable()
        OBS.reset()


def _assert_bits(got: np.ndarray, want: np.ndarray, label: str) -> None:
    np.testing.assert_array_equal(got, want, err_msg=label)
    np.testing.assert_array_equal(
        np.signbit(got), np.signbit(want), err_msg=f"{label} (sign bits)"
    )


def _against_oracle(grid, table, positions, kinds, **engine_kwargs):
    engine = BsplineBatched(grid, table, backend="cc", **engine_kwargs)
    assert engine.backend.name == "cc"
    oracle = ReferenceBatched(grid, table)
    for kind in kinds:
        out = engine.new_output(kind, n=len(positions))
        ref = oracle.new_output(kind, n=len(positions))
        engine.evaluate_batch(kind, positions, out)
        oracle.evaluate_batch(kind, positions, ref)
        for stream in kind.streams:
            _assert_bits(
                getattr(out, stream), getattr(ref, stream),
                f"{kind.value}:{stream}",
            )


class TestBitIdentity:
    @pytest.mark.parametrize(
        "n_splines, dtype, n_positions, kind, grid_shape",
        [
            # kernel-vgh's N, dtype, batch and kind; a smaller grid than
            # its 48x48x60 changes only the table's size.
            pytest.param(128, "float32", 256, Kind.VGH, (16, 16, 20), id="kernel-vgh"),
            # The crowd's trial move, the served batch, and the crowd's
            # committed (drift-cache) call on the 24^3 QMC system.
            pytest.param(32, "float64", 16, Kind.VGL, (24, 24, 24), id="crowd-move"),
            pytest.param(32, "float64", 16, Kind.VGH, (24, 24, 24), id="serve-batch"),
            pytest.param(32, "float64", 1024, Kind.VGL, (24, 24, 24), id="crowd-committed"),
        ],
    )
    def test_workload_shapes(
        self, cc, n_splines, dtype, n_positions, kind, grid_shape
    ):
        rng = np.random.default_rng(n_splines + n_positions)
        grid = Grid3D(*grid_shape, lengths=(12.0, 12.0, 12.0))
        table = rng.standard_normal(grid_shape + (n_splines,)).astype(dtype)
        positions = conformance_positions(grid, rng, n_positions - 6)
        assert len(positions) == n_positions
        _against_oracle(grid, table, positions, (kind,))

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("n_splines", [1, 2])
    @pytest.mark.parametrize("chunk", [None, 1, 5])
    def test_narrow_tables_with_seams(self, cc, n_splines, dtype, chunk):
        """N=1 is handed to NumPy's cores (einsum sums a length-1 spline
        axis in another order); N=2 is the narrowest C-served table."""
        rng = np.random.default_rng(n_splines)
        grid = Grid3D(7, 5, 6, lengths=(1.9, 1.3, 2.4))
        table = rng.standard_normal((7, 5, 6, n_splines)).astype(dtype)
        positions = conformance_positions(grid, rng, 11)
        _against_oracle(grid, table, positions, tuple(Kind), chunk_size=chunk)


class TestLocateInC:
    """The C routines locate each position themselves (NumPy's float
    ``%``, the ``u >= n`` guard, the truncating cast) and build its
    weights: every stream matches the NumPy backend's, sign bits
    included, on the coordinates where ``%`` and the cast have edges."""

    @pytest.mark.parametrize(
        "grid_shape, lengths, n_random",
        [
            pytest.param((24, 24, 24), (1.0, 1.0, 1.0), 2000, id="24^3"),
            pytest.param((6, 7, 5), (1.7, 2.3, 1.1), 2000, id="6x7x5"),
            pytest.param((48, 48, 60), (1.0, 1.0, 1.0), 10000, id="48x48x60"),
        ],
    )
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_matches_numpy(self, cc, grid_shape, lengths, n_random, dtype):
        rng = np.random.default_rng(5)
        grid = Grid3D(*grid_shape, lengths=lengths)
        table = rng.standard_normal(grid_shape + (2,)).astype(dtype)
        box = np.array([lengths])
        edges = np.array([[-0.0, 1e-17, -1e-17], [-5e-324, 5e-324, -0.0]])
        positions = np.concatenate([
            conformance_positions(grid, rng, n_random),
            edges, -edges, 3.0 * box, -3.0 * box,
            (rng.random((64, 3)) - 0.5) * 6.0 * box,
        ])
        engines = [BsplineBatched(grid, table, backend=b) for b in ("numpy", "cc")]
        want, got = (_outcome(e, Kind.VGH, positions) for e in engines)
        for stream in Kind.VGH.streams:
            _assert_bits(got[stream], want[stream], stream)


def _outcome(engine, kind, positions):
    out = engine.new_output(kind, n=len(positions))
    try:
        with np.errstate(invalid="ignore"):
            engine.evaluate_batch(kind, positions, out)
    except Exception as exc:  # noqa: BLE001 - the type is the result
        return type(exc)
    return {s: getattr(out, s).copy() for s in kind.streams}


class TestNonFinitePositions:
    """A NaN or infinite coordinate fails as it does on NumPy: the same
    exception type, or the same bits where NumPy returns.  At 24^3 the
    stencil base lands far outside the table, which the C code must
    never read; on the 6x5x7 grid (even padded strides) some land
    inside it, and NumPy returns NaNs."""

    @pytest.mark.parametrize("grid_shape", [(24, 24, 24), (6, 5, 7)])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_matches_numpy(self, cc, grid_shape, axis, bad):
        rng = np.random.default_rng(axis)
        grid = Grid3D(*grid_shape, lengths=(12.0, 12.0, 12.0))
        table = rng.standard_normal(grid_shape + (4,))
        positions = rng.random((5, 3)) * 12.0
        positions[2, axis] = bad
        engines = [BsplineBatched(grid, table, backend=b) for b in ("numpy", "cc")]
        for kind in Kind:
            want, got = (_outcome(e, kind, positions) for e in engines)
            if isinstance(want, type) or isinstance(got, type):
                assert got is want, (kind, got, want)
                continue
            for stream in kind.streams:
                np.testing.assert_array_equal(
                    got[stream].view(np.uint64), want[stream].view(np.uint64),
                    err_msg=f"{kind.value}:{stream}",
                )

    def test_the_cube_shape_raises_index_error(self, cc):
        grid = Grid3D(24, 24, 24, lengths=(12.0, 12.0, 12.0))
        table = np.ones((24, 24, 24, 4))
        engine = BsplineBatched(grid, table, backend="cc")
        assert _outcome(engine, Kind.VGH, np.array([[1.0, np.nan, 2.0]])) is IndexError


def _fallbacks(obs) -> float:
    return obs.registry.counter(
        "backend_fallback_total", requested="default", skipped="cc"
    ).value


class TestDefaultResolution:
    def test_no_compiler_falls_back_silently_and_counts(
        self, fresh_gate, monkeypatch, obs
    ):
        monkeypatch.setenv("REPRO_CC", "/nonexistent/compiler")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_backend(None).name == "numpy"
            assert resolve_backend(None).name == "numpy"
        assert _fallbacks(obs) == 2
        with pytest.raises(BackendUnavailable, match="/nonexistent/compiler"):
            resolve_backend("cc")

    def test_env_var_still_forces_numpy(self, fresh_gate, cc, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "numpy")
        assert resolve_backend(None).name == "numpy"
        assert BsplineBatched(Grid3D(4, 4, 4), np.ones((4, 4, 4, 2))).backend.name == "numpy"
        assert "cc" not in registry._VERIFIED  # never even gated

    def test_gate_engines_record_nothing(self, fresh_gate, cc, obs):
        """The once-per-process gate builds 8 throwaway engines; only
        the caller's own engine may be counted."""
        BsplineBatched(Grid3D(5, 5, 5), np.ones((5, 5, 5, 3)))
        assert registry._VERIFIED == {"cc": None}  # the gate ran here
        builds = [
            (labels, metric.value)
            for name, labels, metric in obs.registry.items()
            if name == "batched_engine_builds_total"
        ]
        assert builds == [({"backend": "cc"}, 1)]

    def test_metrics_dump_counts_only_the_runs_engines(
        self, fresh_gate, cc, monkeypatch, tmp_path, capsys
    ):
        from repro.__main__ import main

        builds = {}
        for spec in ("numpy", None):
            _reset_for_tests()
            if spec is None:
                monkeypatch.delenv(ENV_VAR, raising=False)
            else:
                monkeypatch.setenv(ENV_VAR, spec)
            path = tmp_path / f"metrics-{spec}.json"
            argv = ["dmc", "--walkers", "2", "--generations", "2",
                    "--n-orbitals", "2", "--metrics-out", str(path)]
            assert main(argv) == 0
            counters = json.loads(path.read_text())["counters"]
            builds[spec] = {
                c["labels"]["backend"]: c["value"]
                for c in counters
                if c["name"] == "batched_engine_builds_total"
            }
        capsys.readouterr()
        (n_builds,) = builds["numpy"].values()
        assert builds[None] == {"cc": n_builds}


def _fake_compiler(path, body: str) -> str:
    path.write_text("#!/bin/sh\n" + body)
    path.chmod(0o755)
    return str(path)


def _cache_under_a_file(tmp_path, monkeypatch):
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    monkeypatch.setenv("REPRO_CC_CACHE_DIR", str(blocker / "ccbackend"))
    return str(blocker)


def _compile_error(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    monkeypatch.setenv("REPRO_CC_CACHE_DIR", str(cache))
    monkeypatch.setenv("REPRO_CC", _fake_compiler(
        tmp_path / "cc-fails", 'echo "fake: error" >&2\nexit 1\n'
    ))
    return str(cache)


def _load_error(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    monkeypatch.setenv("REPRO_CC_CACHE_DIR", str(cache))
    # Exits 0 having written something that is no shared object.
    monkeypatch.setenv("REPRO_CC", _fake_compiler(
        tmp_path / "cc-garbage",
        'while [ $# -gt 0 ]; do\n'
        '  if [ "$1" = "-o" ]; then echo garbage > "$2"; fi\n'
        '  shift\n'
        'done\n',
    ))
    return str(cache)


@pytest.mark.parametrize(
    "break_build", [_cache_under_a_file, _compile_error, _load_error],
    ids=["cache-under-a-file", "compile-error", "load-error"],
)
class TestFailedBuild:
    def test_default_falls_back_warned_and_counted(
        self, fresh_gate, cc, break_build, tmp_path, monkeypatch, obs
    ):
        where = break_build(tmp_path, monkeypatch)
        with pytest.warns(RuntimeWarning, match=re.escape(where)):
            assert resolve_backend(None).name == "numpy"
        assert _fallbacks(obs) == 1

    def test_explicit_cc_raises_naming_the_path(
        self, fresh_gate, cc, break_build, tmp_path, monkeypatch
    ):
        where = break_build(tmp_path, monkeypatch)
        with pytest.raises(BackendUnavailable, match=re.escape(where)):
            resolve_backend("cc")
        with pytest.warns(RuntimeWarning, match=re.escape(where)):
            assert resolve_backend("cc", fallback=True).name == "numpy"


_X86_CPUINFO = """\
processor\t: 0
vendor_id\t: GenuineIntel
cpu family\t: 6
model\t\t: 106
model name\t: Intel(R) Xeon(R) Processor
stepping\t: 0
flags\t\t: fpu vme sse2 avx2 avx512f
vmx flags\t: vnmi
bugs\t\t: spectre_v1

processor\t: 1
model name\t: Intel(R) Xeon(R) Processor
flags\t\t: fpu vme sse2 avx2 avx512f
"""


class TestCacheKey:
    """The build cache is keyed on the CPU's instruction-set flags, so a
    cache shared between hosts never loads another CPU's
    ``-march=native`` build."""

    def test_x86_keys_on_the_flags_line_after_the_model_name(self):
        assert cc_backend._cpu_tag(_X86_CPUINFO) == (
            "flags\t\t: fpu vme sse2 avx2 avx512f"
        )

    def test_one_model_name_with_other_flags_gets_another_key(self):
        masked = _X86_CPUINFO.replace(" avx512f", "")
        assert cc_backend._cpu_tag(masked) != cc_backend._cpu_tag(_X86_CPUINFO)

    def test_arm_keys_on_the_features_line(self):
        info = "processor\t: 0\nBogoMIPS\t: 50.00\nFeatures\t: fp asimd sve\n"
        assert cc_backend._cpu_tag(info) == "Features\t: fp asimd sve"

    def test_model_name_then_platform_stand_in(self):
        assert cc_backend._cpu_tag("model name\t: Some CPU\n") == (
            "model name\t: Some CPU"
        )
        assert cc_backend._cpu_tag("") == cc_backend._cpu_tag("processor\t: 0\n")
