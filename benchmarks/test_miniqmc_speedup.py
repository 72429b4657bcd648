"""Paper Sec. VII headline — ">4.5x speedup of full miniQMC" on KNL/BDW.

The paper combines the B-spline work with SoA distance tables and
Jastrow to speed the whole miniapp up by more than 4.5x.  The live
reproduction runs the full application twice on this host — everything
baseline vs everything optimized — and reports the wall-clock ratio.
The Python analogue of the optimized B-spline engine is the fused
tensor-contraction schedule (interpreter-dispatch is Python's "SIMD").
"""

import time

from benchmarks.conftest import emit
from repro.miniqmc.app import build_app, run_profiled
from repro.perf import format_table


def run_app_seconds(layout: str, engine: str, n_sweeps: int = 2) -> float:
    app = build_app(
        n_orbitals=16,
        grid_shape=(12, 12, 12),
        layout=layout,
        engine=engine,
        profile=False,
    )
    from repro.qmc import sweep

    sweep(app.wf, 0.15, app.rng)  # warm-up sweep (JIT-less but caches warm)
    t0 = time.perf_counter()
    for _ in range(n_sweeps):
        sweep(app.wf, 0.15, app.rng)
    return time.perf_counter() - t0


def test_full_miniqmc_speedup(benchmark):
    t_base = run_app_seconds("aos", "aos")
    t_opt = run_app_seconds("soa", "fused")
    speedup = t_base / t_opt
    emit(
        format_table(
            ["configuration", "seconds", "speedup"],
            [
                ["baseline (AoS everything)", t_base, 1.0],
                ["optimized (SoA + fused B-spline)", t_opt, speedup],
            ],
            title="Full miniQMC speedup [live:host] "
            "(paper: >4.5x on KNL and BDW)",
        )
    )
    # The Python port reproduces the headline direction with margin: the
    # optimized configuration must win clearly end to end.
    assert speedup > 1.5

    app = build_app(
        n_orbitals=8, grid_shape=(10, 10, 10), layout="soa", engine="fused",
        profile=False,
    )
    from repro.qmc import sweep

    benchmark(lambda: sweep(app.wf, 0.15, app.rng))
