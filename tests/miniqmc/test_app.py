"""Tests for the full profiled miniQMC application."""

import subprocess
import sys

import numpy as np
import pytest

from repro.miniqmc.app import TimedProxy, build_app, profile_shares, run_profiled
from repro.perf import SectionTimers


class TestTimedProxy:
    def test_times_listed_methods(self):
        timers = SectionTimers()

        class Obj:
            def work(self):
                return 42

            def other(self):
                return 7

        p = TimedProxy(Obj(), timers, "sec", ("work",))
        assert p.work() == 42
        assert p.other() == 7
        assert "sec" in timers.elapsed
        # `other` did not add a second entry.
        assert len(timers.elapsed) == 1

    def test_attribute_passthrough(self):
        timers = SectionTimers()

        class Obj:
            value = 13

        assert TimedProxy(Obj(), timers, "s", ()).value == 13

    def test_setattr_forwards(self):
        timers = SectionTimers()

        class Obj:
            pass

        o = Obj()
        p = TimedProxy(o, timers, "s", ())
        p.x = 5
        assert o.x == 5

    def test_len_and_getitem_forward(self):
        timers = SectionTimers()
        p = TimedProxy([1, 2, 3], timers, "s", ())
        assert len(p) == 3
        assert p[1] == 2

    def test_times_even_on_exception(self):
        timers = SectionTimers()

        class Obj:
            def boom(self):
                raise RuntimeError

        p = TimedProxy(Obj(), timers, "s", ("boom",))
        with pytest.raises(RuntimeError):
            p.boom()
        assert timers.elapsed["s"] > 0


class TestApp:
    @pytest.fixture(scope="class")
    def app(self):
        return build_app(n_orbitals=6, grid_shape=(10, 10, 10))

    def test_build_sizes(self, app):
        assert len(app.wf.electrons) == 12
        assert app.wf.slater.spos.n_orbitals == 6

    def test_run_profiled_sections(self, app):
        total, timers = run_profiled(app, n_sweeps=1)
        shares = timers.shares()
        assert total > 0
        for section in ("bspline", "distance_tables", "jastrow", "other"):
            assert section in shares
        assert np.isclose(sum(shares.values()), 100.0)

    def test_bspline_share_exceeds_distance_tables(self):
        # The QMC adapter drives the batched B-spline path for every
        # engine now, so the kernel share has dropped from the dominant
        # Table III row toward the optimized profile — but orbital
        # evaluation must still cost far more than the (SoA) distance
        # tables.
        app = build_app(
            n_orbitals=6, grid_shape=(10, 10, 10), layout="soa", engine="aos"
        )
        _, timers = run_profiled(app, n_sweeps=1)
        shares = timers.shares()
        assert shares["bspline"] > shares["distance_tables"]

    def test_wavefunction_consistency_with_proxies(self, app):
        # The timing proxies must not perturb the math: recompute agrees.
        lv = app.wf.log_value
        app.wf.recompute()
        assert np.isclose(app.wf.log_value, lv, atol=1e-6)


class TestProfileShares:
    def test_shares_shape(self):
        shares = profile_shares(
            n_orbitals=4, layout="aos", engine="aos", n_sweeps=1, grid_shape=(8, 8, 8)
        )
        assert np.isclose(sum(shares.values()), 100.0)

    def test_engine_knob_shares_one_batched_path(self):
        # After the Engine/Kind redesign every engine drives the same
        # batched B-spline kernels in the QMC layer (that is what makes
        # the walker and crowd step modes bit-identical), so the profile
        # no longer depends on the engine knob; the per-layout kernels
        # are compared by the miniqmc drivers instead.
        baseline = profile_shares(
            n_orbitals=6, layout="soa", engine="aos", n_sweeps=1, grid_shape=(8, 8, 8)
        )
        optimized = profile_shares(
            n_orbitals=6, layout="soa", engine="fused", n_sweeps=1, grid_shape=(8, 8, 8)
        )
        assert abs(optimized["bspline"] - baseline["bspline"]) < 20.0


class TestCli:
    def test_module_run_prints_no_runtime_warning(self):
        """runpy warns when a package ``__init__`` has already imported
        the module it is about to run as ``__main__``."""
        out = subprocess.run(
            [
                sys.executable, "-m", "repro.miniqmc.app",
                "--n-orbitals", "2", "--sweeps", "1", "--no-tune",
            ],
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        assert "RuntimeWarning" not in out.stderr
        assert "ran 1 sweeps" in out.stdout

    def test_max_workers_flag_is_gone(self, capsys):
        # Crowd shards never resize, so the flag bounded nothing.
        from repro.miniqmc.app import main

        with pytest.raises(SystemExit) as exit_info:
            main(["--walkers", "2", "--processes", "2", "--max-workers", "2"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --max-workers" in capsys.readouterr().err
