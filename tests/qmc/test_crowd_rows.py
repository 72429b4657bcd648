"""The crowd's compiled row path against its NumPy methods, byte for byte.

Where the orbital engine runs ``cc``, a fast-path crowd (soa tables,
orthorhombic cell, shared Jastrow radials) computes its proposals, trial
distance rows, Jastrow radials, trial glue and masked commit in the
``cc`` library instead of :func:`_numpy_propose`,
:meth:`CrowdState._rows_ee` / ``_rows_ei``,
:meth:`_JastrowFactor.evaluate`, :func:`_numpy_trial` and
:meth:`CrowdState._commit`.  Every byte must match, sign of zero
included; every other crowd keeps NumPy.
"""

import ctypes
import gc
import warnings
import weakref

import numpy as np
import pytest

from repro.backends import ENV_VAR, get_backend, resolve_backend
from repro.backends import cc_backend
from repro.obs import OBS
from repro.qmc import WalkerRngPool
from repro.qmc import batched_step
from repro.qmc.batched_step import (
    CrowdState,
    _SEAM_DISTANCES,
    _CompiledRows,
    _compare_paths,
    _resident_arrays,
    _row_sum_lengths,
    _synthetic_crowd,
    batched_sweep,
)
from repro.qmc.dmc import build_dmc_ensemble
from tests.qmc.test_batched_step import (
    assert_walkers_bitwise_equal,
    build_population,
)


@pytest.fixture
def lib():
    backend = get_backend("cc")
    if not backend.is_available():
        pytest.skip(backend.availability_error())
    return cc_backend._load_library()


@pytest.fixture
def cc_crowds(lib):
    """The library, where unspecified engines (so crowds) run ``cc``."""
    if resolve_backend(None).name != "cc":
        pytest.skip("the default backend here is not cc")
    return lib


@pytest.fixture
def obs():
    OBS.reset()
    OBS.enable()
    try:
        yield OBS
    finally:
        OBS.disable()
        OBS.reset()


def _crowd(**case) -> CrowdState:
    wfs, rngs = build_population(3, **case)
    return CrowdState(wfs, rngs)


class TestAgainstNumpy:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize(
        "sizes",
        [
            pytest.param({}, id="gate-size"),
            pytest.param({"nw": 16, "n": 32, "ni": 2}, id="benchmark-size"),
            pytest.param({"nw": 1, "n": 1, "ni": 1}, id="one-walker"),
        ],
    )
    def test_rows_radials_and_commits(self, lib, seed, sizes):
        """Random rows with exact-half separations, the radial seams,
        and commits of one, some and all walkers on both spins with
        negative ratios: no array differs by a byte."""
        assert _compare_paths(lib, np.random.default_rng(seed), **sizes) == []

    def test_seam_radials_keep_their_zero_signs(self, lib):
        crowd = _synthetic_crowd(np.random.default_rng(0), nw=2, n=6, ni=12)
        cc = _CompiledRows(crowd, lib)
        e = 3
        for dist in (cc.ee_rows[0], cc.ei_rows[0]):
            dist[...] = np.resize(_SEAM_DISTANCES, dist.shape)
        assert cc.rows(None, e)
        for factor, got in zip(crowd._jastrows, cc.terms):
            dist = (cc.ee_rows if factor.two_body else cc.ei_rows)[0].copy()
            want = factor.evaluate(dist, e)
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(np.signbit(got), np.signbit(want))
        # Zero, the self entry and everything from the cutoff on are +0.0.
        dist = cc.ee_rows[0]
        masked = (dist <= 0.0) | (dist >= 1.5)
        masked[:, e] = True
        zeros = cc.terms[1].transpose(1, 0, 2)[:, masked]
        assert zeros.size and np.all(zeros == 0.0)
        assert not np.signbit(zeros).any()

    @pytest.mark.parametrize("rows", ["cc", "numpy"])
    def test_a_nan_distance_raises_index_error(self, rows):
        state = _crowd()
        if rows == "numpy":
            state._cc = None
        elif state._cc is None:
            pytest.skip("the compiled row path needs the cc backend")
        state._R[0, :, 1] = np.nan  # a committed electron of walker 0
        with np.errstate(invalid="ignore"), pytest.raises(IndexError) as raised:
            batched_sweep(state, 0.1, use_drift=False)
        # Raised by the radial at electron 0's NaN distance, as NumPy
        # always did, not later by the kernel at electron 1's position.
        assert any(entry.name == "evaluate_vgl" for entry in raised.traceback)


def _doubles(address: int, size: int) -> np.ndarray:
    return np.ctypeslib.as_array((ctypes.c_double * size).from_address(address))


def _sequential_row_sums(a, rows, stride, n, out):
    """``repro_row_sums`` as a left-to-right running sum would do it."""
    data = _doubles(a, rows * stride).reshape(rows, stride)[:, :n]
    _doubles(out, rows * n).reshape(n, rows)[...] = (0.0 + np.cumsum(data, axis=1)).T
    return 0


class TestPairwiseSum:
    """The glue's sums repeat ``np.add.reduce`` along a contiguous last
    axis: NumPy's pairwise summation, then ``0.0 +``."""

    @pytest.mark.parametrize("seed", range(3))
    def test_every_length_to_300_matches_add_reduce(self, lib, seed):
        assert _row_sum_lengths(lib, np.random.default_rng(seed)) == []

    def test_rows_of_negative_zero_sum_to_positive_zero(self, lib):
        rows = np.full((2, 300), -0.0)
        rows[1, ::7] = 0.0
        out = np.empty((300, 2))
        lib.repro_row_sums(rows.ctypes.data, 2, 300, 300, out.ctypes.data)
        want = np.array([np.add.reduce(rows[:, :m], axis=-1) for m in range(1, 301)])
        assert out.tobytes() == want.tobytes()
        assert not np.signbit(out).any()

    def test_a_sequential_sum_fails_the_gate(self, cc_crowds, monkeypatch, obs):
        """A running sum agrees below eight terms and nowhere the
        pairwise blocks begin: the gate refuses it."""
        monkeypatch.setattr(cc_crowds, "repro_row_sums", _sequential_row_sums)
        lengths = [
            int(k.split(":")[1]) for k in _row_sum_lengths(cc_crowds, np.random.default_rng(0))
        ]
        assert lengths and min(lengths) >= 8 and len(lengths) > 100
        monkeypatch.setattr(batched_step, "_GATE", None)
        with pytest.warns(RuntimeWarning, match="row_sum:"):
            assert _crowd()._cc is None


def _twins(**case):
    """Two equal crowds with equal streams: the first on the compiled
    path, the second held to the NumPy methods and glue."""
    compiled, plain = _crowd(**case), _crowd(**case)
    plain._cc = None
    return compiled, plain


def _assert_crowds_equal(a: CrowdState, b: CrowdState) -> None:
    want = _resident_arrays(b)
    for name, got in _resident_arrays(a).items():
        assert got.tobytes() == want[name].tobytes(), name
    assert a.ratios.tobytes() == b.ratios.tobytes()
    for rng_a, rng_b in zip(a.rngs, b.rngs):
        assert rng_a.bit_generator.state == rng_b.bit_generator.state


def _zero_ratio(state):
    """Walker 0's last move sees a zero determinant ratio (so a zero
    total ratio): its inverse column for the last electron is zero."""
    n = state.spos.n_orbitals
    state.Ainv[0, 1, :, n - 1] = 0.0


def _zero_drift(state):
    """Walker 0's first electron has a zero committed gradient: v2 = 0."""
    state.committed_vgl()[0][0, 0] = -0.0
    for factor in state._jastrows:
        factor.radials[0, 1, 0] = 0.0


class TestGlueEdgeCases:
    @pytest.mark.parametrize(
        "edit, use_drift",
        [
            pytest.param(None, True, id="drift"),
            pytest.param(None, False, id="no-drift"),
            pytest.param(_zero_ratio, True, id="zero-ratio"),
            pytest.param(_zero_drift, True, id="v2-zero"),
        ],
    )
    def test_sweeps_match_the_numpy_glue(self, cc_crowds, edit, use_drift):
        compiled, plain = _twins()
        assert compiled._cc is not None
        for state in (compiled, plain):
            if edit is not None:
                edit(state)
            for tau in (0.3, 0.02):
                batched_sweep(state, tau, use_drift=use_drift)
        _assert_crowds_equal(compiled, plain)
        if edit is _zero_ratio:
            assert compiled.ratios[0] == 0.0


class TestWhichPathRuns:
    def test_a_dmc_ensemble_crowd_runs_cc(self, cc_crowds):
        walkers = build_dmc_ensemble(
            WalkerRngPool(3), 2, n_orbitals=2, grid_shape=(8, 8, 8)
        )
        state = CrowdState([w.wf for w in walkers], [w.rng for w in walkers])
        assert state._cc is not None

    @pytest.mark.parametrize(
        "case",
        [
            pytest.param({"layout": "aos"}, id="aos"),
            pytest.param({"graphite": True, "n_orb": 4}, id="graphite"),
            pytest.param({"vary_radials": True}, id="vary-radials"),
        ],
    )
    def test_other_crowds_run_numpy(self, case):
        assert _crowd(**case)._cc is None

    def test_the_compiled_glue_runs_with_the_compiled_rows(
        self, cc_crowds, monkeypatch
    ):
        walkers = build_dmc_ensemble(
            WalkerRngPool(3), 2, n_orbitals=2, grid_shape=(8, 8, 8)
        )
        state = CrowdState([w.wf for w in walkers], [w.rng for w in walkers])
        calls = _spy_glue(monkeypatch, state._cc)
        batched_sweep(state, 0.1)
        ne = state.n_electrons
        assert calls == {"propose": ne, "trial": ne}

    @pytest.mark.parametrize(
        "case, env",
        [
            pytest.param({"layout": "aos"}, None, id="aos"),
            pytest.param({"graphite": True, "n_orb": 4}, None, id="graphite"),
            pytest.param({"vary_radials": True}, None, id="vary-radials"),
            pytest.param({}, (ENV_VAR, "numpy"), id="numpy-backend"),
            pytest.param({}, ("REPRO_CC", "/nonexistent"), id="no-compiler"),
        ],
    )
    def test_every_other_crowd_runs_the_numpy_glue(self, case, env, monkeypatch):
        if env is not None:
            monkeypatch.setenv(*env)
        state = _crowd(**case)
        assert state._cc is None
        calls = _spy_glue(monkeypatch, None)
        batched_sweep(state, 0.1)
        ne = state.n_electrons
        assert calls == {"propose": ne, "trial": ne}

    @pytest.mark.parametrize(
        "env", [(ENV_VAR, "numpy"), ("REPRO_CC", "/nonexistent")]
    )
    def test_a_numpy_engine_keeps_the_crowd_on_numpy(self, monkeypatch, env):
        monkeypatch.setenv(*env)
        state = _crowd()
        assert state.spos._get_batched().backend.name == "numpy"
        assert state._cc is None

    def test_the_sweep_counter_names_the_row_path(self, cc_crowds, obs):
        compiled, plain = _crowd(), _crowd(layout="aos")
        batched_sweep(compiled, 0.1)
        batched_sweep(compiled, 0.1)
        batched_sweep(plain, 0.1)
        counter = obs.registry.counter
        assert counter("crowd_batched_sweeps_total", rows="cc").value == 2
        assert counter("crowd_batched_sweeps_total", rows="numpy").value == 1


def _spy_glue(monkeypatch, cc) -> dict:
    """Count the glue calls of a sweep: the compiled routines of ``cc``,
    or (``cc`` None) the NumPy functions; the other kind raises."""
    calls = {"propose": 0, "trial": 0}

    def counted(fn, name):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return call

    def refused(*args, **kwargs):
        raise AssertionError("the other glue ran")

    numpy_glue = {"propose": "_numpy_propose", "trial": "_numpy_trial"}
    for name, attr in numpy_glue.items():
        fn = getattr(batched_step, attr)
        monkeypatch.setattr(
            batched_step, attr, refused if cc is not None else counted(fn, name)
        )
    if cc is not None:
        for name in calls:
            attr = f"_{name}_fn"
            monkeypatch.setattr(cc, attr, counted(getattr(cc, attr), name))
    return calls


class TestDriftCacheHandover:
    def test_a_strided_cache_sweeps_on_numpy_with_the_same_bits(
        self, cc_crowds, obs
    ):
        """A handed-over drift cache the C code cannot address as one
        block sends the sweep to the NumPy methods, which write into
        it as they always did."""
        wfs, rngs = build_population(3)
        reference = CrowdState(wfs, rngs)
        g, lap = reference.committed_vgl()
        wfs_f, rngs_f = build_population(3)
        strided = (np.asfortranarray(g), np.asfortranarray(lap))
        state = CrowdState(wfs_f, rngs_f, committed_vgl=strided)
        assert state._cc is not None
        batched_sweep(reference, 0.1)
        batched_sweep(state, 0.1)
        counter = obs.registry.counter
        assert counter("crowd_batched_sweeps_total", rows="numpy").value == 1
        assert_walkers_bitwise_equal(wfs_f, wfs)
        np.testing.assert_array_equal(strided[0], reference.committed_vgl()[0])


class TestLifetime:
    def test_a_compiled_crowd_is_freed_without_the_cyclic_collector(
        self, cc_crowds
    ):
        """DMC builds a crowd every generation: its blocks must go when
        the crowd does, not when the cyclic collector next runs."""
        state = _crowd()
        assert state._cc is not None
        batched_sweep(state, 0.1)
        gone = weakref.ref(state)
        gc.disable()
        try:
            del state
            assert gone() is None
        finally:
            gc.enable()


class TestGate:
    def test_a_mismatch_falls_back_counts_and_warns(
        self, cc_crowds, monkeypatch, obs
    ):
        monkeypatch.setattr(batched_step, "_GATE", None)
        # A commit that writes nothing: every resident array differs.
        monkeypatch.setattr(cc_crowds, "repro_crowd_commit", lambda *args: 0)
        with pytest.warns(RuntimeWarning, match="crowd row math differs"):
            state = _crowd()
        assert state._cc is None
        assert state.spos._get_batched().backend.name == "cc"
        fallbacks = obs.registry.counter(
            "backend_fallback_total", requested="crowd", skipped="cc"
        )
        assert fallbacks.value == 1
        # The verdict holds for the process: no second gate, no warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _crowd()._cc is None
        assert fallbacks.value == 1

    @pytest.mark.parametrize("routine", ["repro_crowd_propose", "repro_crowd_trial"])
    def test_a_glue_mismatch_falls_back_counts_and_warns_once(
        self, cc_crowds, monkeypatch, obs, routine
    ):
        monkeypatch.setattr(batched_step, "_GATE", None)
        # Glue that writes nothing: its outputs keep stale scratch.
        monkeypatch.setattr(cc_crowds, routine, lambda *args: 0)
        with pytest.warns(RuntimeWarning, match="crowd row math differs"):
            state = _crowd()
        assert state._cc is None
        fallbacks = obs.registry.counter(
            "backend_fallback_total", requested="crowd", skipped="cc"
        )
        assert fallbacks.value == 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _crowd()._cc is None
        assert fallbacks.value == 1

    def test_the_gate_records_nothing(self, lib, monkeypatch, obs):
        monkeypatch.setattr(batched_step, "_GATE", None)
        assert batched_step._gate(lib)
        assert list(obs.registry.items()) == []
