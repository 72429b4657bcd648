"""Paper Table III — miniQMC profile with optimized DT + Jastrow.

Paper values (% of run time):

                          B-splines  DistTables  Jastrow
  KNL                        68.5       20.3       11.2
  Xeon E5-2698v4             55.3       22.6       22.1

Reproduction: the same app as Table II but with SoA distance tables and
Jastrow while the B-spline engine stays at the AoS baseline — exactly the
paper's configuration ("B-spline routines consume more than 55% of run
time for miniQMC" once the other groups are optimized).  The asserted
shape: the B-spline share *rises* versus the Table II configuration and
becomes the dominant group.
"""

from benchmarks.conftest import emit
from repro.miniqmc.app import build_app, run_profiled
from repro.perf import format_table

PAPER = {
    "KNL": (68.5, 20.3, 11.2),
    "BDW(E5-2698v4)": (55.3, 22.6, 22.1),
}


def run_shares(layout: str, engine: str) -> dict:
    app = build_app(
        n_orbitals=16, grid_shape=(12, 12, 12), layout=layout, engine=engine
    )
    run_profiled(app, n_sweeps=2)
    return app.timers.shares()


def test_table3_optimized_dt_jastrow_profile(benchmark):
    from repro.hwsim import MACHINES, MiniQmcProfileModel

    baseline = run_shares("aos", "aos")
    optimized = run_shares("soa", "aos")

    rows = [[m, *PAPER[m], "paper"] for m in PAPER]
    for name in ("KNL", "BDW"):
        s = MiniQmcProfileModel(MACHINES[name]).table3_profile()
        rows.append(
            [
                name,
                round(s["bspline"], 1),
                round(s["distance_tables"], 1),
                round(s["jastrow"], 1),
                "model",
            ]
        )
    rows.append(
        [
            "host",
            round(optimized.get("bspline", 0.0), 1),
            round(optimized.get("distance_tables", 0.0), 1),
            round(optimized.get("jastrow", 0.0), 1),
            "live",
        ]
    )
    emit(
        format_table(
            ["node", "B-splines%", "DistTables%", "Jastrow%", "source"],
            rows,
            title="Table III — profile with optimized DT+Jastrow (AoS B-spline)",
        )
    )

    # Shape: optimizing the other groups raises the B-spline share and
    # makes it the largest attributed group.  (Generous slack: live
    # shares jitter by a few percent under system noise.)
    assert optimized["bspline"] >= baseline["bspline"] - 6.0
    known = {
        k: optimized.get(k, 0.0)
        for k in ("bspline", "distance_tables", "jastrow")
    }
    assert max(known, key=known.get) == "bspline"

    app = build_app(
        n_orbitals=16, grid_shape=(12, 12, 12), layout="soa", engine="aos"
    )
    from repro.qmc import sweep

    benchmark(lambda: sweep(app.wf, 0.15, app.rng))
