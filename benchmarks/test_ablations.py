"""Ablation benches for the design choices DESIGN.md calls out.

Six ablations:

1. **threading over N without tiling** — the alternative the paper
   evaluated and rejected in Sec. V-C ("does not reap the benefits of
   smaller working sets ... performs worse than the approach chosen
   here"); modelled on KNL.
2. **single vs double precision** — the paper computes in SP ("All the
   computations in miniQMC are performed in single precision"); live
   measurement of the speed/accuracy trade on this host.
3. **batched vs per-position evaluation** — the beyond-paper extension
   (later QMCPACK's multi-walker API); live dispatch-amortization factor.
4. **DDR vs MCDRAM on KNL** — Fig. 10's X marker as a full N sweep.
5. **crowd vs sequential walkers** — lock-step batched propagation, the
   paper's stated forward direction for the AoSoA design.
6. **delayed determinant updates** — rank-k Woodbury batching of the
   Eq.-3 Sherman-Morrison machinery (the group's follow-up work).
"""

import time
from dataclasses import replace

import numpy as np

from benchmarks.conftest import emit
from repro.core import BsplineBatched, BsplineFused, Grid3D, solve_coefficients_3d
from repro.core.refimpl import reference_vgh
from repro.hwsim import KNL, BsplinePerfModel
from repro.perf import format_series, format_table


def test_ablation_threading_over_n(models, benchmark):
    """Tiled nested threading must beat inner-loop threading (Sec. V-C)."""
    model = models["KNL"]
    rows = []
    for nth in (2, 4, 8, 16):
        nb, _ = model.best_tile_size("vgh", 2048, nth=nth)
        tiled = model.evaluate("vgh", "aosoa", 2048, nb, nth=nth)
        flat = model.evaluate_threaded_over_n("vgh", 2048, nth)
        rows.append(
            [nth, tiled.throughput, flat.throughput, tiled.throughput / flat.throughput]
        )
    emit(
        format_table(
            ["nth", "T(tiled nested)", "T(threaded over N)", "tiled advantage"],
            rows,
            title="Ablation 1 — nested threading WITH vs WITHOUT tiling "
            "[model:KNL, VGH, N=2048]",
        )
    )
    for _, t_tiled, t_flat, _ in rows:
        assert t_tiled > t_flat

    benchmark(lambda: model.evaluate_threaded_over_n("vgh", 2048, 16))


def test_ablation_precision(benchmark):
    """SP vs DP tables: live speed and accuracy on this host."""
    rng = np.random.default_rng(12)
    grid = Grid3D(14, 14, 14)
    samples = rng.standard_normal((14, 14, 14, 128))
    results = {}
    for dtype in (np.float32, np.float64):
        P = solve_coefficients_3d(samples, dtype=dtype)
        eng = BsplineFused(grid, P)
        out = eng.new_output("vgh")
        positions = grid.random_positions(32, rng)
        secs = float("inf")
        for _repeat in range(3):  # best-of-3: timing noise robustness
            t0 = time.perf_counter()
            for x, y, z in positions:
                eng.vgh(x, y, z, out)
            secs = min(secs, time.perf_counter() - t0)
        # Accuracy vs the float64 reference oracle at the last position.
        ref_v, _, _ = reference_vgh(grid, P.astype(np.float64), *positions[-1])
        err = float(np.abs(out.as_canonical()["v"] - ref_v).max())
        results[np.dtype(dtype).name] = (secs, P.nbytes, err)
    rows = [
        [name, secs * 1e3, nbytes / 1e6, err]
        for name, (secs, nbytes, err) in results.items()
    ]
    emit(
        format_table(
            ["dtype", "ms/32 evals", "table MB", "max err vs f64 oracle"],
            rows,
            title="Ablation 2 — precision [live:host, N=128] "
            "(paper: SP halves memory at acceptable accuracy)",
        )
    )
    f32 = results["float32"]
    f64 = results["float64"]
    assert f32[1] == f64[1] / 2  # half the memory
    assert f32[2] < 1e-3  # SP accuracy fine for QMC purposes
    assert f32[0] < f64[0] * 2.0  # and never dramatically slower

    eng = BsplineFused(grid, solve_coefficients_3d(samples))
    out = eng.new_output("vgh")
    benchmark(lambda: eng.vgh(0.3, 0.5, 0.7, out))


def test_ablation_batched_evaluation(benchmark):
    """Batched multi-position evaluation vs per-position calls (live)."""
    rng = np.random.default_rng(13)
    grid = Grid3D(14, 14, 14)
    P = rng.standard_normal((14, 14, 14, 256)).astype(np.float32)
    positions = grid.random_positions(64, rng)

    fused = BsplineFused(grid, P)
    single_out = fused.new_output("vgh")
    t0 = time.perf_counter()
    for x, y, z in positions:
        fused.vgh(x, y, z, single_out)
    t_single = time.perf_counter() - t0

    batched = BsplineBatched(grid, P)
    batch_out = batched.new_output(len(positions))
    t0 = time.perf_counter()
    batched.vgh_batch(positions, batch_out)
    t_batch = time.perf_counter() - t0

    emit(
        format_table(
            ["schedule", "ms/64 positions", "speedup"],
            [
                ["per-position (fused)", t_single * 1e3, 1.0],
                ["batched", t_batch * 1e3, t_single / t_batch],
            ],
            title="Ablation 3 — batched vs per-position VGH "
            "[live:host, N=256, 64 positions]",
        )
    )
    # Batching amortizes dispatch: it must win, and agree numerically.
    assert t_batch < t_single
    np.testing.assert_allclose(
        batch_out.v[-1], single_out.v, atol=1e-4
    )

    benchmark(lambda: batched.vgh_batch(positions, batch_out))


def test_ablation_ddr_vs_mcdram(models, benchmark):
    """KNL flat-mode memory choice across the N sweep (Fig. 10's X)."""
    from dataclasses import replace as dc_replace

    sweep = (128, 512, 2048, 4096)
    mcdram = models["KNL"]
    ddr_machine = dc_replace(KNL, stream_bw=KNL.ddr_bw)
    ddr = BsplinePerfModel(ddr_machine)
    t_mc, t_ddr = [], []
    for n in sweep:
        nb, _ = mcdram.best_tile_size("vgh", n)
        t_mc.append(mcdram.evaluate("vgh", "aosoa", n, nb).throughput)
        t_ddr.append(ddr.evaluate("vgh", "aosoa", n, nb).throughput)
    emit(
        format_series(
            "N",
            list(sweep),
            {
                "T(MCDRAM)": t_mc,
                "T(DDR)": t_ddr,
                "MCDRAM advantage": list(np.array(t_mc) / t_ddr),
            },
            title="Ablation 4 — KNL MCDRAM vs DDR [model:KNL] "
            "(paper: 'Higher bandwidth available with MCDRAM ... is critical')",
        )
    )
    ratios = np.array(t_mc) / np.array(t_ddr)
    assert (ratios > 2.0).all()  # bandwidth-bound kernel: big gap everywhere

    benchmark(lambda: ddr.evaluate("vgh", "aosoa", 2048, 512))


def test_ablation_crowd_vs_sequential(benchmark):
    """Crowd (lock-step batched walkers) vs sequential walker sweeps.

    The paper's forward direction ("We plan to extend this AoSoA design
    to parallelize other parts of QMCPACK"): batching the same-electron
    orbital evaluations of many walkers into one kernel call.  Live
    measurement; trajectories are verified identical in
    tests/qmc/test_batched_step.py.
    """
    from tests.qmc.test_batched_step import build_population
    from repro.qmc import sweep
    from repro.qmc.batched_step import CrowdState, batched_sweep

    n_walkers = 6
    wfs_c, rngs_c = build_population(n_walkers, n_orb=8, seed=77)
    wfs_s, rngs_s = build_population(n_walkers, n_orb=8, seed=77)

    t0 = time.perf_counter()
    batched_sweep(CrowdState(wfs_c, rngs_c), 0.2)
    t_crowd = time.perf_counter() - t0

    t0 = time.perf_counter()
    for wf, rng in zip(wfs_s, rngs_s):
        sweep(wf, 0.2, rng)
    t_seq = time.perf_counter() - t0

    emit(
        format_table(
            ["driver", "seconds/sweep", "speedup"],
            [
                ["sequential walkers", t_seq, 1.0],
                ["crowd (batched)", t_crowd, t_seq / t_crowd],
            ],
            title=f"Ablation 5 — crowd vs sequential [live:host, "
            f"{n_walkers} walkers, N=8]",
        )
    )
    # On tiny problems Python overhead dominates either way; assert the
    # crowd is at least competitive (it wins decisively as N grows).
    assert t_crowd < 2.0 * t_seq

    wfs_b, rngs_b = build_population(2, n_orb=8, seed=5)
    state = CrowdState(wfs_b, rngs_b)
    benchmark(lambda: batched_sweep(state, 0.2))


def test_ablation_delayed_updates(benchmark):
    """Rank-k delayed (Woodbury) updates vs per-move Sherman-Morrison.

    The follow-up optimization of the QMCPACK effort this paper belongs
    to: batch k accepted rows into one GEMM instead of k O(N^2) inverse
    rewrites.  Live measurement of accepted-move cost at N=256.
    """
    from repro.qmc import DiracDeterminant
    from repro.qmc.delayed import DelayedDeterminant

    n = 256
    rng = np.random.default_rng(21)
    A = rng.standard_normal((n, n)) + 3.0 * np.eye(n)

    def drive(det, moves=64):
        local = np.random.default_rng(3)
        t0 = time.perf_counter()
        for _ in range(moves):
            e = int(local.integers(0, n))
            u = local.standard_normal(n) + 3.0 * np.eye(n)[e]
            det.ratio(e, u)
            det.accept_move(e)
        if hasattr(det, "flush"):
            det.flush()
        return time.perf_counter() - t0

    t_sm = min(drive(DiracDeterminant(A.copy())) for _ in range(3))
    t_delayed = min(
        drive(DelayedDeterminant(A.copy(), delay=16)) for _ in range(3)
    )
    emit(
        format_table(
            ["scheme", "s/64 accepts", "speedup"],
            [
                ["Sherman-Morrison (rank-1)", t_sm, 1.0],
                ["delayed rank-16 Woodbury", t_delayed, t_sm / t_delayed],
            ],
            title="Ablation 6 — delayed determinant updates "
            f"[live:host, N={n}]",
        )
    )
    # Equivalence is asserted in tests/qmc/test_delayed.py; here assert
    # the delayed scheme is at least competitive at this size.
    assert t_delayed < 2.5 * t_sm

    det = DelayedDeterminant(A.copy(), delay=16)
    u = rng.standard_normal(n) + 3.0 * np.eye(n)[5]
    benchmark(lambda: det.ratio(5, u))
