"""Registry-parametrized differential conformance: every backend vs the oracle.

The suite parametrizes over :func:`repro.backends.registered_backends`
at collection time, so registering a new backend adds it to every test
here with **zero edits** — the promise the stub template relies on.
Unavailable backends (no C compiler, for ``cc``) skip with the
backend's own availability message.

Every backend is held to the exact tier: each stream is compared with
``assert_array_equal``.  The hypothesis property sweeps grid shapes,
both dtypes, chunk/tile configurations (including the width-1-adjacent
tile the engine's tiler must absorb), and positions biased onto the
periodic seams.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import get_backend, registered_backends
from repro.backends.conformance import conformance_positions, verify_backend
from repro.core.batched import BsplineBatched
from repro.core.batched_reference import ReferenceBatched
from repro.core.grid import Grid3D
from repro.core.kinds import Kind

BACKENDS = registered_backends()
DTYPES = ("float32", "float64")


def _require(name):
    backend = get_backend(name)
    if not backend.is_available():
        pytest.skip(backend.availability_error())
    return backend


def _assert_exact(backend, out, ref_out, kind):
    for stream in kind.streams:
        np.testing.assert_array_equal(
            getattr(out, stream),
            getattr(ref_out, stream),
            err_msg=f"{backend.name}:{kind.value}:{stream}",
        )


@pytest.mark.parametrize("backend_name", BACKENDS)
class TestHarness:
    def test_full_harness_passes(self, backend_name):
        """The registration-time gate itself: all (dtype, kind) checks pass."""
        backend = _require(backend_name)
        report = verify_backend(backend)
        assert report.all_passed, report.summary()

    def test_harness_covers_every_declared_cell(self, backend_name):
        """One check per (dtype, kind) of the capability — nothing skipped."""
        backend = _require(backend_name)
        report = verify_backend(backend)
        cap = backend.capability
        assert len(report.checks) == len(cap.dtypes) * len(cap.kinds)
        labelled = {c.engine.split("[")[1].split(":")[0] for c in report.checks}
        assert labelled == set(cap.dtypes)


@pytest.mark.parametrize("dtype_name", DTYPES)
@pytest.mark.parametrize("backend_name", BACKENDS)
class TestDifferentialProperty:
    @given(data=st.data())
    @settings(max_examples=8, deadline=None)
    def test_matches_oracle_at_declared_tier(
        self, backend_name, dtype_name, data
    ):
        backend = _require(backend_name)
        cap = backend.capability
        if dtype_name not in cap.dtypes:
            pytest.skip(f"{backend_name} does not serve {dtype_name}")
        nx = data.draw(st.integers(4, 7), label="nx")
        ny = data.draw(st.integers(4, 7), label="ny")
        nz = data.draw(st.integers(4, 7), label="nz")
        n_splines = data.draw(st.integers(4, 9), label="n_splines")
        seed = data.draw(st.integers(0, 2**16), label="seed")
        chunk = data.draw(
            st.sampled_from([None, 1, 2, 5]), label="chunk_size"
        )
        # n_splines - 1 is the width-1-adjacent tile: its trailing
        # orphan column must be absorbed, not given a length-1 einsum.
        tile = data.draw(
            st.sampled_from([None, 2, n_splines - 1]), label="tile_size"
        )
        kind = data.draw(st.sampled_from(list(cap.kinds)), label="kind")

        rng = np.random.default_rng(seed)
        grid = Grid3D(nx, ny, nz, lengths=(1.9, 1.3, 2.4))
        table = rng.standard_normal((nx, ny, nz, n_splines)).astype(dtype_name)
        positions = conformance_positions(grid, rng, n_random=5)

        eng = BsplineBatched(
            grid, table, chunk_size=chunk, tile_size=tile, backend=backend
        )
        oracle = ReferenceBatched(grid, table)
        out = eng.new_output(kind, n=len(positions))
        ref_out = oracle.new_output(kind, n=len(positions))
        eng.evaluate_batch(kind, positions, out)
        oracle.evaluate_batch(kind, positions, ref_out)
        _assert_exact(backend, out, ref_out, kind)


@pytest.mark.parametrize("backend_name", BACKENDS)
class TestEngineContracts:
    """Engine-level invariants must hold whichever backend serves the cores."""

    def _engine(self, backend_name, dtype="float64", **kwargs):
        backend = _require(backend_name)
        rng = np.random.default_rng(3)
        grid = Grid3D(5, 6, 4, lengths=(1.1, 1.7, 0.9))
        table = rng.standard_normal((5, 6, 4, 6)).astype(dtype)
        eng = BsplineBatched(grid, table, backend=backend, **kwargs)
        positions = conformance_positions(grid, rng, n_random=4)
        return eng, positions

    def test_stale_stream_poisoning(self, backend_name):
        """vgh then v on one buffer: unwritten streams go NaN, not stale."""
        eng, positions = self._engine(backend_name)
        out = eng.new_output(Kind.VGH, n=len(positions))
        eng.vgh_batch(positions, out)
        assert out.valid == {"v", "g", "l", "h"}
        eng.v_batch(positions, out)
        assert out.valid == {"v"}
        assert np.isnan(out.g).all() and np.isnan(out.h).all()
        assert np.isfinite(out.v).all()

    def test_output_dtype_follows_table(self, backend_name):
        eng, positions = self._engine(backend_name, dtype="float32")
        out = eng.new_output(Kind.VGH, n=len(positions))
        eng.vgh_batch(positions, out)
        assert out.v.dtype == np.float32

    def test_chunked_equals_unchunked_bitwise(self, backend_name):
        """Within one backend, chunking must never change a bit."""
        eng_whole, positions = self._engine(backend_name)
        eng_chunked, _ = self._engine(backend_name, chunk_size=2)
        a = eng_whole.new_output(Kind.VGH, n=len(positions))
        b = eng_chunked.new_output(Kind.VGH, n=len(positions))
        eng_whole.vgh_batch(positions, a)
        eng_chunked.vgh_batch(positions, b)
        for stream in ("v", "g", "l", "h"):
            np.testing.assert_array_equal(
                getattr(a, stream), getattr(b, stream)
            )

    def test_engine_records_active_backend(self, backend_name):
        eng, _ = self._engine(backend_name)
        assert eng.backend.name == backend_name
