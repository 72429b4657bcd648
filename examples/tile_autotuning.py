#!/usr/bin/env python
"""Tile-size selection: measured on this host, modelled on paper HW.

The paper (Sec. VI) plans "an auto-tuning capability using miniQMC to
guide the production runs similar to FFTW's solution using wisdom files".
This example does both halves:

1. **live** — run the measurement-based auto-tuner on this host (the
   batched engine's persisted tuning lives in ``repro.tune``'s TuneDB,
   driven by ``python -m repro tune run``);
2. **model** — ask the calibrated hardware model for the optimal Nb on
   each of the paper's four machines, reproducing Fig. 7(c)'s peaks
   (BDW 64, KNC/KNL 512, BG/Q ~64) and the working-set reasons for them.

Run:  python examples/tile_autotuning.py
"""

import numpy as np

from repro.core import Grid3D, autotune_tile_size
from repro.hwsim import (
    MACHINES,
    BsplinePerfModel,
    max_accum_fitting_tile,
    max_llc_fitting_tile,
)


def live_half() -> None:
    print("== live: auto-tuning Nb on this host ==")
    grid = Grid3D(16, 16, 16)
    rng = np.random.default_rng(3)
    P = rng.standard_normal((16, 16, 16, 128)).astype(np.float32)
    best, timings = autotune_tile_size(
        grid, P, kernel="vgh", candidates=[16, 32, 64, 128], n_samples=6
    )
    for nb, secs in sorted(timings.items()):
        marker = "  <-- winner" if nb == best else ""
        print(f"  Nb={nb:4d}: {secs * 1e3:8.2f} ms/batch{marker}")
    print("  (host optimum reflects Python per-tile dispatch, not caches)\n")


def model_half() -> None:
    print("== model: optimal Nb on the paper's machines (N=2048, VGH) ==")
    print(f"  {'machine':8s} {'model Nb':>8s} {'paper Nb':>8s} "
          f"{'LLC-fit Nb':>11s} {'accum-fit Nb':>13s}")
    paper = {"BDW": 64, "KNC": 512, "KNL": 512, "BGQ": 64}
    for name, machine in MACHINES.items():
        model = BsplinePerfModel(machine)
        best, _ = model.best_tile_size("vgh", 2048)
        llc = max_llc_fitting_tile(machine, "vgh", 2048)
        accum = max_accum_fitting_tile(machine, "vgh", 2048)
        print(
            f"  {name:8s} {best:8d} {paper[name]:8d} "
            f"{str(llc):>11s} {accum:13d}"
        )
    print(
        "\n  Mechanisms (paper Sec. VI-B): shared-LLC machines peak where\n"
        "  the 4*Ng*Nb slab fits the LLC; KNC/KNL peak where the per-thread\n"
        "  output set (40*Nb bytes for VGH) still fits the accumulation\n"
        "  budget while the prefactor cost is amortized."
    )


if __name__ == "__main__":
    live_half()
    model_half()
