"""Paper Table II — single-node run-time profile of the QMCPACK baseline.

Paper values (% of run time):

              BDW   KNC   KNL   BG/Q
  B-splines    18    28    21    22
  DistTables   30    23    34    39
  Jastrow      13    19    19    21

Reproduction: the full miniQMC app with *everything* in the baseline AoS
layout, profiled live on this host.  Python cost ratios differ from C++
(the AoS B-spline engine is relatively slower here), so the live shares
are reported next to the paper's; the asserted shape is that the three
groups together dominate the run time (paper: "Their total amounts to
60%-80% across the platforms").
"""

from benchmarks.conftest import emit
from repro.miniqmc.app import build_app, run_profiled
from repro.perf import format_table

PAPER = {
    "BDW": (18, 30, 13),
    "KNC": (28, 23, 19),
    "KNL": (21, 34, 19),
    "BGQ": (22, 39, 21),
}


def test_table2_baseline_profile(benchmark):
    from repro.hwsim import MACHINES, MiniQmcProfileModel

    app = build_app(
        n_orbitals=16, grid_shape=(12, 12, 12), layout="aos", engine="aos"
    )
    run_profiled(app, n_sweeps=2)  # warm + measure
    shares = app.timers.shares()

    rows = []
    for m in ("BDW", "KNC", "KNL", "BGQ"):
        rows.append([m, *PAPER[m], "paper"])
        s = MiniQmcProfileModel(MACHINES[m]).table2_profile()
        rows.append(
            [
                m,
                round(s["bspline"], 1),
                round(s["distance_tables"], 1),
                round(s["jastrow"], 1),
                "model",
            ]
        )
    rows.append(
        [
            "host",
            round(shares.get("bspline", 0.0), 1),
            round(shares.get("distance_tables", 0.0), 1),
            round(shares.get("jastrow", 0.0), 1),
            "live",
        ]
    )
    emit(
        format_table(
            ["node", "B-splines%", "DistTables%", "Jastrow%", "source"],
            rows,
            title="Table II — baseline (all-AoS) run-time profile",
        )
    )

    total_known = (
        shares.get("bspline", 0.0)
        + shares.get("distance_tables", 0.0)
        + shares.get("jastrow", 0.0)
    )
    # The paper's qualitative claim: the three groups dominate.
    assert total_known > 60.0

    # Benchmark one profiled sweep of the baseline app.
    from repro.qmc import sweep

    benchmark(lambda: sweep(app.wf, 0.15, app.rng))
