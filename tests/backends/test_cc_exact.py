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
from repro.core.batched import BsplineBatched, ChainRule
from repro.core.batched_reference import ReferenceBatched
from repro.core.grid import Grid3D
from repro.core.kinds import Kind
from repro.lattice.cell import Cell
from repro.lattice.graphite import graphite_unit_cell
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


def _numpy_chain_rule(engine, frac, B):
    """The Cartesian VGL as the QMC adapter computed it before the
    kernel applied the chain rule: a VGH call, every stream cast to
    float64, an einsum for g and six Hessian rows for the Laplacian."""
    out = engine.new_output(Kind.VGH, n=len(frac))
    engine.vgh_batch(frac, out)
    v = out.v.astype(np.float64)
    g = np.einsum("af,sfn->san", B, out.g.astype(np.float64))
    h = out.h.astype(np.float64)
    M = B @ B.T
    lap = (
        M[0, 0] * h[:, 0]
        + M[1, 1] * h[:, 3]
        + M[2, 2] * h[:, 5]
        + 2.0 * (M[0, 1] * h[:, 1] + M[0, 2] * h[:, 2] + M[1, 2] * h[:, 4])
    )
    return v, g, lap


def _cartesian(engine, frac, chain):
    ns, n = len(frac), engine.n_splines
    out = (np.empty((ns, n)), np.empty((ns, 3, n)), np.empty((ns, n)))
    engine.vgl_batch(frac, out, chain=chain)
    return out


_CELLS = {
    "cubic": Cell.cubic(6.0),
    "orthorhombic": Cell.orthorhombic(5.0, 7.5, 3.25),
    "graphite": graphite_unit_cell(),
    # Negative entries in B and M, which graphite's do not have.
    "triclinic": Cell(np.array([[5.0, 0.0, 0.0], [1.5, 6.0, 0.0], [0.5, -0.7, 4.0]])),
    # A B row of negatives: its products with a zero gradient are -0.0.
    "negative-row": Cell(np.linalg.inv(
        np.array([[-0.2, -0.05, -0.01], [0.0, -0.2, 0.0], [0.0, 0.1, 0.3]])
    )),
}


class TestCartesianVGL:
    """``vgl_batch`` with a :class:`ChainRule` on ``cc`` writes, in one
    kernel call, the bytes the NumPy chain rule made of a VGH call."""

    @pytest.mark.parametrize("n_positions", [1, 16, 1024])
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("cell", sorted(_CELLS))
    def test_matches_the_numpy_chain_rule(self, cc, cell, dtype, n_positions):
        rng = np.random.default_rng(n_positions)
        grid = Grid3D(12, 12, 12, (1.0, 1.0, 1.0))
        table = rng.standard_normal((12, 12, 12, 8)).astype(dtype)
        table[..., 3] = 0.0  # exact +0.0 gradient and Hessian rows
        B = np.linalg.inv(_CELLS[cell].lattice)
        frac = rng.random((n_positions, 3))
        frac[0] = 0.0
        engine = BsplineBatched(grid, table, backend="cc")
        assert engine._cores.cart is not None
        got = _cartesian(engine, frac, ChainRule(B))
        want = _numpy_chain_rule(BsplineBatched(grid, table, backend="numpy"), frac, B)
        for name, a, b in zip("vgl", got, want):
            assert a.tobytes() == b.tobytes(), name
        # The zero spline's products of zeros, of either sign, sum to +0.0.
        assert not got[1][:, :, 3].any() and not np.signbit(got[1][:, :, 3]).any()

    def test_signed_zero_streams_through_the_epilogue(self, cc):
        """Zero rows of both signs reach the chain rule: every B and M
        term is kept, so each output zero has NumPy's sign."""
        rng = np.random.default_rng(3)
        grid = Grid3D(6, 6, 6, (1.0, 1.0, 1.0))
        table = np.zeros((6, 6, 6, 4))
        table[..., 1] = -0.0
        table[..., 2] = rng.standard_normal((6, 6, 6))
        frac = rng.random((16, 3))
        for cell in _CELLS.values():
            B = np.linalg.inv(cell.lattice)
            got = _cartesian(BsplineBatched(grid, table, backend="cc"), frac, ChainRule(B))
            want = _numpy_chain_rule(BsplineBatched(grid, table, backend="numpy"), frac, B)
            for a, b in zip(got, want):
                assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("chunk", [None, 3])
    def test_every_chunk_and_the_numpy_backend_agree(self, cc, chunk):
        rng = np.random.default_rng(chunk or 0)
        grid = Grid3D(8, 9, 7, (1.0, 1.0, 1.0))
        table = rng.standard_normal((8, 9, 7, 5))
        chain = ChainRule(np.linalg.inv(graphite_unit_cell().lattice))
        frac = rng.random((20, 3))
        got, want = (
            _cartesian(BsplineBatched(grid, table, backend=b, chunk_size=chunk), frac, chain)
            for b in ("cc", "numpy")
        )
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()

    def test_a_single_spline_table_takes_the_numpy_chain_rule(self, cc):
        """einsum sums a length-1 spline axis in another order, so N=1
        runs the NumPy VGH core and the chain rule, chunk by chunk."""
        rng = np.random.default_rng(1)
        grid = Grid3D(6, 6, 6, (1.0, 1.0, 1.0))
        table = rng.standard_normal((6, 6, 6, 1))
        engine = BsplineBatched(grid, table, backend="cc", chunk_size=2)
        assert engine._cores.cart is None
        B = np.linalg.inv(graphite_unit_cell().lattice)
        frac = rng.random((7, 3))
        got = _cartesian(engine, frac, ChainRule(B))
        want = _numpy_chain_rule(BsplineBatched(grid, table, backend="numpy"), frac, B)
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("row", [2, 25])
    @pytest.mark.parametrize("grid_shape", [(24, 24, 24), (6, 5, 7)])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_positions_behave_as_on_numpy(self, cc, grid_shape, bad, row):
        """A chunk the C code skips runs the NumPy core and chain rule:
        the same exception, or the same bits (NaNs included), also when
        the bad position sits past the kernel's first block of 16."""
        rng = np.random.default_rng(2)
        grid = Grid3D(*grid_shape, lengths=(1.0, 1.0, 1.0))
        table = rng.standard_normal(grid_shape + (4,))
        frac = rng.random((40, 3))
        frac[row, 1] = bad
        chain = ChainRule(np.linalg.inv(graphite_unit_cell().lattice))
        outcomes = []
        for backend in ("numpy", "cc"):
            engine = BsplineBatched(grid, table, backend=backend)
            try:
                with np.errstate(invalid="ignore"):
                    outcomes.append(_cartesian(engine, frac, chain))
            except Exception as exc:  # noqa: BLE001 - the type is the result
                outcomes.append(type(exc))
        want, got = outcomes
        if isinstance(want, type) or isinstance(got, type):
            assert got is want
        else:
            for a, b in zip(got, want):
                assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("fault", ["sign", "unwritten last spline"])
    def test_a_mismatching_cartesian_core_is_refused(
        self, fresh_gate, monkeypatch, fault
    ):
        """The registry's conformance gate checks the Cartesian core in
        its ``vgl`` check: a core that drops a sign fails it, and so does
        one that never writes the last spline's gradients."""
        backend = get_backend("cc")
        if not backend.is_available():
            pytest.skip(backend.availability_error())
        real = cc_backend.CcBackend.make_cores

        def broken(self, engine):
            cores = real(self, engine)
            inner = cores.cart

            def cart(positions, chain, v, g, l):
                if fault == "sign":
                    inner(positions, chain, v, g, l)
                    np.abs(g, out=g)
                else:
                    full = np.empty_like(g)
                    inner(positions, chain, v, full, l)
                    g[..., :-1] = full[..., :-1]

            cores.cart = cart
            return cores

        monkeypatch.setattr(cc_backend.CcBackend, "make_cores", broken)
        from repro.backends.conformance import verify_backend

        report = verify_backend(backend)
        failed = {c.kernel for c in report.checks if not c.passed}
        assert failed == {"vgl"}
        with pytest.warns(RuntimeWarning, match="cc"):
            assert resolve_backend(None).name == "numpy"


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
