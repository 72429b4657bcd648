"""The full miniQMC application: profiled Slater-Jastrow propagation.

This is the measurement vehicle for the paper's Tables II and III and the
">4.5x full miniQMC" claim of Sec. VII: a real drift-diffusion QMC run
whose component groups — B-splines, distance tables, Jastrow, and the
rest (determinant updates, estimator assembly) — are timed separately via
transparent proxies, so the profile is *measured*, not asserted.

Layouts are configurable independently, matching the paper's sequence:

* Table II  = everything AoS (the public QMCPACK baseline);
* Table III = SoA distance tables + Jastrow, B-spline still baseline;
* the 4.5x configuration = SoA containers + optimized B-spline engine.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass

import numpy as np

from repro.lattice.cell import Cell
from repro.lattice.orbitals import PlaneWaveOrbitalSet
from repro.lattice.pbc import wigner_seitz_radius
from repro.obs import OBS
from repro.perf.timer import SectionTimers
from repro.qmc.drift_diffusion import sweep
from repro.qmc.estimators import LocalEnergy
from repro.qmc.jastrow import make_polynomial_radial
from repro.qmc.pseudopotential import NonlocalPseudopotential
from repro.qmc.particleset import ParticleSet
from repro.qmc.rng import WalkerRngPool
from repro.qmc.slater import SplineOrbitalSet
from repro.qmc.wavefunction import SlaterJastrow
from repro.resilience.checkpoint import (
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
    set_rng_state,
    rng_state,
)

__all__ = [
    "TimedProxy",
    "AppInstance",
    "build_app",
    "run_profiled",
    "profile_shares",
    "main",
]


class TimedProxy:
    """Transparent proxy that times selected methods into a section.

    Everything not listed in ``methods`` passes straight through, so the
    proxied object remains a drop-in replacement (attributes, properties,
    untimed methods).
    """

    def __init__(self, target, timers: SectionTimers, section: str, methods: tuple[str, ...]):
        object.__setattr__(self, "_target", target)
        object.__setattr__(self, "_timers", timers)
        object.__setattr__(self, "_section", section)
        object.__setattr__(self, "_methods", frozenset(methods))

    def __getattr__(self, name):
        attr = getattr(self._target, name)
        if name in self._methods and callable(attr):
            timers, section = self._timers, self._section

            def timed(*args, **kwargs):
                t0 = time.perf_counter()
                try:
                    return attr(*args, **kwargs)
                finally:
                    dt = time.perf_counter() - t0
                    timers.add(section, dt)
                    if OBS.enabled:
                        OBS.observe("section_seconds", dt, section=section)

            return timed
        return attr

    def __setattr__(self, name, value):
        setattr(self._target, name, value)

    def __len__(self):
        return len(self._target)

    def __getitem__(self, i):
        return self._target[i]


@dataclass
class AppInstance:
    """A runnable miniQMC problem: wavefunction + stream + timers."""

    wf: SlaterJastrow
    rng: np.random.Generator
    timers: SectionTimers
    n_orbitals: int
    pseudopotential: NonlocalPseudopotential | None = None


def build_app(
    n_orbitals: int = 16,
    grid_shape: tuple[int, int, int] = (14, 14, 14),
    layout: str = "soa",
    engine: str = "fused",
    box: float = 8.0,
    seed: int = 2017,
    profile: bool = True,
    with_pseudopotential: bool = False,
    config=None,
) -> AppInstance:
    """Assemble a miniQMC problem on a cubic cell.

    Parameters
    ----------
    n_orbitals:
        N; electron count is 2N, ion count N/2 (the carbon 4:1 ratio).
    grid_shape:
        B-spline grid.
    layout:
        Distance-table / Jastrow layout ("aos" baseline or "soa").
    engine:
        B-spline engine ("aos" baseline, "soa", or "fused").
    box:
        Cubic cell edge (bohr).
    profile:
        Wrap components in :class:`TimedProxy` sections.
    with_pseudopotential:
        Attach a nonlocal pseudopotential channel, whose quadrature is
        the application's consumer of the V kernel (paper Sec. IV).
    config:
        :class:`repro.config.RunConfig` for the batched B-spline cores
        (chunk/tile blocking, kernel backend, tune mode).  ``None``
        consults the ``REPRO_*`` environment, then the tuned DB, then
        the cache heuristic.  Exact-tier backends keep trajectories
        bitwise invariant; allclose-tier backends shift them within the
        declared tolerance.
    """
    pool = WalkerRngPool(seed)
    rng = pool.next_rng()
    cell = Cell.cubic(box)
    orbitals = PlaneWaveOrbitalSet(cell, n_orbitals)
    spos = SplineOrbitalSet.from_orbital_functions(
        cell,
        orbitals,
        grid_shape,
        engine=engine,
        config=config,
    )
    n_ions = max(n_orbitals // 2, 2)
    ions = ParticleSet("ion", cell, cell.frac_to_cart(rng.random((n_ions, 3))))
    electrons = ParticleSet.random("e", cell, 2 * n_orbitals, rng)
    rcut = 0.9 * wigner_seitz_radius(cell)
    j1 = make_polynomial_radial(0.4, rcut)
    j2 = make_polynomial_radial(0.6, rcut)

    timers = SectionTimers()
    if profile:
        spos_proxy = TimedProxy(
            spos,
            timers,
            "bspline",
            ("vgl", "vgh", "values", "values_batch", "vgl_batch"),
        )
    else:
        spos_proxy = spos
    wf = SlaterJastrow(electrons, ions, spos_proxy, j1, j2, layout=layout)
    if profile:
        ee_proxy = TimedProxy(
            wf.ee_table,
            timers,
            "distance_tables",
            ("propose_row", "rebuild", "accept_move"),
        )
        ei_proxy = TimedProxy(
            wf.ei_table,
            timers,
            "distance_tables",
            ("propose_row", "rebuild", "accept_move"),
        )
        wf.ee_table = ee_proxy
        wf.ei_table = ei_proxy
        if wf.j2 is not None:
            wf.j2.table = ee_proxy
            wf.j2 = TimedProxy(
                wf.j2,
                timers,
                "jastrow",
                ("ratio", "grad", "grad_temp", "grad_lap", "accept_move", "recompute"),
            )
        if wf.j1 is not None:
            wf.j1.table = ei_proxy
            wf.j1 = TimedProxy(
                wf.j1,
                timers,
                "jastrow",
                ("ratio", "grad", "grad_temp", "grad_lap", "accept_move", "recompute"),
            )
    pp = None
    if with_pseudopotential:
        pp = NonlocalPseudopotential(
            make_polynomial_radial(0.3, 0.6 * rcut),
            l=0,
            rng=pool.next_rng(),
        )
    return AppInstance(
        wf=wf, rng=rng, timers=timers, n_orbitals=n_orbitals,
        pseudopotential=pp,
    )


def run_profiled(
    app: AppInstance,
    n_sweeps: int = 5,
    tau: float = 0.15,
    measure: bool = False,
    checkpoint_every: int | None = None,
    checkpoint_path=None,
    resume=None,
) -> tuple[float, SectionTimers]:
    """Run drift-diffusion sweeps; returns (total wall seconds, timers).

    With ``measure=True`` each sweep is followed by a local-energy
    evaluation (the paper's "measurement stage"), which — when the app
    carries a pseudopotential — drives the V kernel through the
    quadrature spheres.

    The walker advances through the per-walker
    :func:`repro.qmc.drift_diffusion.sweep`, which calls every component
    (distance tables, Jastrow, orbitals) separately, so each proxied
    section sees its own calls — the attribution that reproduces the
    paper's Tables II/III.  The trajectory is bit-identical to the
    batched population step the production drivers run, whose fused
    stages would bypass the proxies.

    The untimed remainder (determinant algebra, particle bookkeeping) is
    recorded as the ``other`` section, matching the paper's "Rest of the
    time is mostly spent on the assembly of SPOs ... determinant updates
    and inverses" (Sec. IV).

    ``checkpoint_every`` sweeps, the walker state (positions + exact RNG
    state) and the profile accumulated so far are snapshotted to
    ``checkpoint_path``; ``resume`` continues a killed run on an app
    rebuilt with the same :func:`build_app` arguments — the propagation
    trajectory continues exactly (timings, being wall clock, simply
    accumulate).
    """
    if checkpoint_every is not None:
        if checkpoint_every <= 0:
            raise ValueError(
                f"checkpoint_every must be positive, got {checkpoint_every}"
            )
        if checkpoint_path is None:
            raise ValueError("checkpoint_every requires checkpoint_path")
    estimator = (
        LocalEnergy(app.wf, pseudopotential=app.pseudopotential)
        if measure
        else None
    )
    start_sweep = 0
    prior_seconds = 0.0
    if resume is not None:
        ckpt = load_checkpoint(resume, expect_kind="miniqmc_app")
        if ckpt.manifest["params"] != {"tau": tau, "measure": measure}:
            raise CheckpointError(
                f"checkpoint parameters {ckpt.manifest['params']!r} do not "
                f"match this run (tau={tau!r}, measure={measure!r})"
            )
        try:
            app.wf.electrons.load_positions(ckpt.arrays["positions"], wrap=False)
            app.wf.ions.load_positions(ckpt.arrays["ion_positions"], wrap=False)
        except ValueError as exc:
            raise CheckpointError(
                f"app does not match checkpoint shape: {exc}"
            ) from exc
        app.wf.recompute()
        set_rng_state(app.rng, ckpt.manifest["rng_state"])
        start_sweep = int(ckpt.manifest["sweep"])
        prior_seconds = float(ckpt.manifest["seconds"])
        for section, secs in ckpt.manifest["timers"].items():
            app.timers.add(section, secs)
        if estimator is not None:
            estimator = LocalEnergy(app.wf, pseudopotential=app.pseudopotential)
    t0 = time.perf_counter()
    for sweep_idx in range(start_sweep, n_sweeps):
        with OBS.span("miniqmc:sweep", cat="miniqmc", sweep=sweep_idx):
            sweep(app.wf, tau, app.rng)
            if estimator is not None:
                estimator.total()
        OBS.count("miniqmc_sweeps_total")
        if checkpoint_every is not None and (sweep_idx + 1) % checkpoint_every == 0:
            app.wf.recompute()
            save_checkpoint(
                checkpoint_path,
                {
                    "kind": "miniqmc_app",
                    "sweep": sweep_idx + 1,
                    "seconds": prior_seconds + time.perf_counter() - t0,
                    "rng_state": rng_state(app.rng),
                    "timers": app.timers.elapsed,
                    "params": {"tau": tau, "measure": measure},
                },
                {
                    "positions": app.wf.electrons.positions,
                    "ion_positions": app.wf.ions.positions,
                },
            )
    total = prior_seconds + time.perf_counter() - t0
    known = app.timers.total
    # B-spline time is nested inside jastrow/distance sections never (the
    # proxies are disjoint), but proxied calls do nest inside the sweep
    # total, so "other" is the remainder.
    app.timers.add("other", max(total - known, 0.0))
    return total, app.timers


def main(argv: list[str] | None = None) -> int:
    """CLI: ``python -m repro.miniqmc.app`` — a profiled, restartable run.

    Builds the app deterministically from ``--seed`` and friends, runs
    ``--sweeps`` drift-diffusion sweeps, and prints the profile shares.
    ``--checkpoint-every N --checkpoint-path DIR`` makes the run
    restartable; after a kill, the same command plus ``--resume DIR``
    continues where the last checkpoint left off.  ``--metrics-out`` /
    ``--trace-out`` turn observability on: the run dumps a metrics JSON
    and/or a Chrome ``trace_event`` JSON and prints the metrics summary
    table after the profile shares.

    ``--walkers W [--processes K]`` switches to population mode: W
    lock-step crowd walkers sharded over K worker processes attaching
    one shared-memory coefficient table (:mod:`repro.parallel`).  The
    propagated population is bit-identical for every K.
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro.miniqmc.app",
        description="Profiled miniQMC run with checkpoint/resume support.",
    )
    parser.add_argument("--n-orbitals", type=int, default=8)
    parser.add_argument("--sweeps", type=int, default=5)
    parser.add_argument("--tau", type=float, default=0.15)
    parser.add_argument("--seed", type=int, default=2017)
    parser.add_argument("--layout", default="soa", choices=("aos", "soa"))
    parser.add_argument("--engine", default="fused", choices=("aos", "soa", "fused"))
    parser.add_argument("--measure", action="store_true")
    parser.add_argument(
        "--tile-size",
        type=int,
        default=None,
        metavar="NB",
        help="splines per batched contraction tile (default: auto-tuned "
        "from detected cache sizes; results are bit-identical either way)",
    )
    parser.add_argument(
        "--chunk",
        type=int,
        default=None,
        metavar="NS",
        help="positions per batched gather chunk (default: auto-tuned)",
    )
    parser.add_argument(
        "--walkers",
        type=int,
        default=None,
        metavar="W",
        help="population mode: propagate W crowd walkers instead of "
        "profiling one",
    )
    parser.add_argument(
        "--processes",
        type=int,
        default=None,
        metavar="K",
        help="shard the population over K worker processes sharing one "
        "coefficient table (implies --walkers; default K=1)",
    )
    parser.add_argument(
        "--elastic",
        action="store_true",
        help="supervise the population workers (crash/hang recovery); "
        "elastic *resizing* applies to the sharded DMC driver "
        "(python -m repro dmc --processes K --elastic) — crowd shards "
        "are fixed at start",
    )
    parser.add_argument(
        "--worker-timeout",
        type=float,
        default=None,
        metavar="SEC",
        help="per-call reply deadline for population workers; a worker "
        "that misses it is restarted and its shard re-run "
        "(bit-identical)",
    )
    parser.add_argument(
        "--backend",
        default=None,
        metavar="NAME",
        help="kernel backend for the batched B-spline cores: 'auto', a "
        "registered name (numpy, numba, cc), or unset for the "
        "REPRO_BACKEND env var / exact-tier numpy default",
    )
    parser.add_argument(
        "--config",
        default=None,
        metavar="FILE",
        help="JSON RunConfig file (repro.config.RunConfig.as_dict layout); "
        "explicit flags like --tile-size/--chunk/--backend still win",
    )
    parser.add_argument(
        "--no-tune",
        action="store_true",
        help="skip the per-host tuned-config DB (rung 3 of the resolution "
        "order); blocking falls back to the cache heuristic",
    )
    parser.add_argument("--checkpoint-every", type=int, default=None, metavar="N")
    parser.add_argument("--checkpoint-path", default=None, metavar="DIR")
    parser.add_argument("--resume", default=None, metavar="DIR")
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help="enable observability and dump the metrics registry as JSON",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help="enable observability and dump a Chrome trace_event JSON",
    )
    args = parser.parse_args(argv)
    if args.checkpoint_every is not None and args.checkpoint_path is None:
        parser.error("--checkpoint-every requires --checkpoint-path")
    if args.backend is not None:
        # Validate up front (and pin 'auto' to a concrete name so every
        # population worker lands on the same backend); workers still
        # re-resolve with the degrade-to-numpy fallback policy.
        from repro.backends import BackendConformanceError, BackendUnavailable
        from repro.backends import resolve_backend

        try:
            args.backend = resolve_backend(args.backend).name
        except (BackendUnavailable, BackendConformanceError) as exc:
            parser.error(str(exc))
    fleet_flags = args.elastic or args.worker_timeout is not None
    if fleet_flags and args.walkers is None and args.processes is None:
        parser.error(
            "--elastic/--worker-timeout require population mode "
            "(--walkers/--processes)"
        )
    counts = ("n_orbitals", "sweeps", "walkers", "processes", "tile_size",
              "chunk", "checkpoint_every")
    for flag in counts:
        value = getattr(args, flag)
        if value is not None and value < 1:
            parser.error(
                f"--{flag.replace('_', '-')} must be at least 1, got {value}"
            )
    observe = args.metrics_out is not None or args.trace_out is not None
    try:
        cfg = _cli_run_config(args)
    except (OSError, ValueError) as exc:
        parser.error(str(exc))
    if args.walkers is not None or args.processes is not None:
        if args.checkpoint_every is not None or args.resume is not None:
            parser.error(
                "population mode (--walkers/--processes) does not support "
                "checkpointing; use the single-walker profiled mode"
            )
        return _population_main(args, observe, cfg)
    if observe:
        OBS.reset()
        OBS.enable()
    app = build_app(
        n_orbitals=args.n_orbitals,
        layout=args.layout,
        engine=args.engine,
        seed=args.seed,
        config=cfg,
    )
    try:
        total, timers = run_profiled(
            app,
            n_sweeps=args.sweeps,
            tau=args.tau,
            measure=args.measure,
            checkpoint_every=args.checkpoint_every,
            checkpoint_path=args.checkpoint_path,
            resume=args.resume,
        )
    except CheckpointError as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 1
    finally:
        if observe:
            OBS.disable()
    print(f"ran {args.sweeps} sweeps in {total:.3f} s (N={args.n_orbitals})")
    for section, share in sorted(timers.shares().items()):
        print(f"  {section:16s} {share:6.2f} %")
    if observe:
        OBS.write(metrics_out=args.metrics_out, trace_out=args.trace_out)
        print()
        print(OBS.summary_table())
    return 0


def _cli_run_config(args):
    """Build the CLI's :class:`~repro.config.RunConfig` from its flags.

    ``--config FILE`` seeds the config; individual flags
    (``--tile-size``/``--chunk``/``--backend``) override it; ``--no-tune``
    forces rung 3 off.  With no flags at all this is just
    ``RunConfig.from_env()``.
    """
    from repro.config import TUNE_OFF, RunConfig, load_run_config

    cfg = load_run_config(args.config) if args.config else RunConfig.from_env()
    overrides = {
        k: v
        for k, v in (
            ("tile_size", getattr(args, "tile_size", None)),
            ("chunk_size", getattr(args, "chunk", None)),
            ("backend", getattr(args, "backend", None)),
        )
        if v is not None
    }
    if args.no_tune:
        overrides["tune"] = TUNE_OFF
    return cfg.replace(**overrides) if overrides else cfg


def _population_main(args, observe: bool, cfg) -> int:
    """The ``--walkers/--processes`` population mode of :func:`main`."""
    from repro.parallel import CrowdSpec, run_crowd_parallel

    n_walkers = args.walkers if args.walkers is not None else 8
    n_workers = args.processes if args.processes is not None else 1
    fleet = None
    if args.elastic or args.worker_timeout is not None:
        from repro.fleet import FleetConfig

        # Crowd shards are stateful (walkers live worker-side), so the
        # supervisor provides recovery only — never elastic resizing.
        try:
            fleet = FleetConfig(worker_timeout=args.worker_timeout)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    if observe:
        OBS.reset()
        OBS.enable()
    try:
        spec = CrowdSpec(
            n_walkers=n_walkers,
            n_orbitals=args.n_orbitals,
            engine=args.engine,
            seed=args.seed,
            config=cfg,
        )
        result = run_crowd_parallel(
            spec,
            n_workers=n_workers,
            n_sweeps=args.sweeps,
            tau=args.tau,
            fleet=fleet,
        )
    finally:
        if observe:
            OBS.disable()
    print(
        f"propagated {n_walkers} walkers x {args.sweeps} sweeps over "
        f"{n_workers} process(es) in {result.seconds:.3f} s"
    )
    print(f"  acceptance      {result.acceptance:.4f}")
    print(f"  walker-sweeps/s {result.walkers_per_second:.3f}")
    if observe:
        OBS.write(metrics_out=args.metrics_out, trace_out=args.trace_out)
        print()
        print(OBS.summary_table())
    return 0


def profile_shares(
    n_orbitals: int = 16,
    layout: str = "aos",
    engine: str = "aos",
    n_sweeps: int = 4,
    grid_shape: tuple[int, int, int] = (14, 14, 14),
    seed: int = 2017,
) -> dict[str, float]:
    """Percent run-time shares per component group (Table II/III rows)."""
    app = build_app(
        n_orbitals=n_orbitals,
        grid_shape=grid_shape,
        layout=layout,
        engine=engine,
        seed=seed,
    )
    run_profiled(app, n_sweeps=n_sweeps)
    return app.timers.shares()


if __name__ == "__main__":
    raise SystemExit(main())
