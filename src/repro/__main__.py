"""Command-line entry point: ``python -m repro <target>``.

Targets are the paper's tables and figures (see ``python -m repro list``);
``all`` prints everything.  Live measurements and shape assertions live in
the pytest benchmark suite; this CLI is the quick model-only view.

``python -m repro dmc`` runs a small live DMC ensemble with the
fault-tolerant driver: ``--checkpoint-every N --checkpoint-path DIR``
makes the run restartable, and after a kill the same command plus
``--resume DIR`` continues from the last checkpoint — the combined
energy/population trace is bit-identical to the uninterrupted run.
With ``--processes K``, ``--elastic``/``--worker-timeout`` put the
worker fleet under a supervisor (:mod:`repro.fleet`): crashed or hung
workers are restarted and replayed, and the pool may grow/shrink
between generations — all without disturbing the trace.
"""

from __future__ import annotations

import argparse
import sys

from repro.reproduce import ALL_TARGETS


def _dmc_main(argv: list[str]) -> int:
    """The ``dmc`` subcommand: a restartable, observable live DMC run."""
    from repro.obs import OBS
    from repro.qmc.dmc import build_dmc_ensemble, run_dmc
    from repro.qmc.rng import WalkerRngPool
    from repro.resilience.checkpoint import CheckpointError
    from repro.resilience.guards import GuardConfig

    parser = argparse.ArgumentParser(
        prog="python -m repro dmc",
        description="Run a small live DMC ensemble with checkpoint/resume.",
    )
    parser.add_argument("--walkers", type=int, default=4)
    parser.add_argument("--generations", type=int, default=10)
    parser.add_argument("--tau", type=float, default=0.02)
    parser.add_argument("--seed", type=int, default=2017)
    parser.add_argument("--n-orbitals", type=int, default=4)
    parser.add_argument(
        "--tile-size",
        type=int,
        default=None,
        metavar="NB",
        help="splines per batched contraction tile (default: auto-tuned "
        "from detected cache sizes; traces are bit-identical either way)",
    )
    parser.add_argument(
        "--chunk",
        type=int,
        default=None,
        metavar="NS",
        help="positions per batched gather chunk (default: auto-tuned)",
    )
    parser.add_argument(
        "--backend",
        default=None,
        metavar="NAME",
        help="kernel backend for the batched B-spline cores: 'auto' "
        "(best available compiled backend, falling back to numpy), a "
        "registered name (numpy, numba, cc), or unset for the "
        "REPRO_BACKEND env var / exact-tier numpy default; validated "
        "up front — an unavailable explicit backend is a clean error, "
        "not a mid-run crash",
    )
    parser.add_argument(
        "--processes",
        type=int,
        default=None,
        metavar="K",
        help="run the sharded multiprocess driver "
        "(repro.parallel.run_dmc_sharded) over K workers; traces are "
        "bit-identical for any K, and checkpoints resume under any K",
    )
    parser.add_argument(
        "--config",
        default=None,
        metavar="FILE",
        help="JSON RunConfig file (repro.config.RunConfig.as_dict "
        "layout); explicit flags like --tile-size/--chunk/--backend "
        "still win",
    )
    parser.add_argument(
        "--no-tune",
        action="store_true",
        help="skip the per-host tuned-config DB (rung 3 of the "
        "resolution order); blocking falls back to the cache heuristic",
    )
    parser.add_argument(
        "--elastic",
        action="store_true",
        help="supervise the worker fleet and let it grow/shrink between "
        "generations under the latency budget (requires --processes; "
        "traces stay bit-identical at any size)",
    )
    parser.add_argument(
        "--max-workers",
        type=int,
        default=None,
        metavar="K",
        help="upper bound for --elastic growth (default: the host's CPU "
        "count)",
    )
    parser.add_argument(
        "--worker-timeout",
        type=float,
        default=None,
        metavar="SEC",
        help="per-call reply deadline; a worker that misses it is treated "
        "as hung, restarted, and its generation replayed (requires "
        "--processes)",
    )
    parser.add_argument(
        "--latency-budget",
        type=float,
        default=None,
        metavar="SEC",
        help="target seconds per generation for --elastic scaling",
    )
    parser.add_argument("--checkpoint-every", type=int, default=None, metavar="N")
    parser.add_argument("--checkpoint-path", default=None, metavar="DIR")
    parser.add_argument(
        "--resume",
        default=None,
        metavar="DIR",
        help="resume from a checkpoint directory; 'auto' resumes from "
        "--checkpoint-path when a checkpoint exists and starts fresh "
        "otherwise",
    )
    parser.add_argument(
        "--on-bad-energy",
        default="raise",
        choices=("raise", "recompute", "drop", "ignore"),
        help="policy for walkers with NaN/Inf local energy",
    )
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
    fleet_flags = (
        args.elastic
        or args.max_workers is not None
        or args.worker_timeout is not None
        or args.latency_budget is not None
    )
    if fleet_flags and args.processes is None:
        parser.error(
            "--elastic/--max-workers/--worker-timeout/--latency-budget "
            "require --processes"
        )
    if args.resume == "auto" and args.checkpoint_path is None:
        parser.error("--resume auto requires --checkpoint-path")
    counts = ("walkers", "generations", "n_orbitals", "processes", "tile_size",
              "chunk", "checkpoint_every")
    for flag in counts:
        value = getattr(args, flag)
        if value is not None and value < 1:
            parser.error(
                f"--{flag.replace('_', '-')} must be at least 1, got {value}"
            )
    backend = args.backend
    if backend is not None:
        # Strict parent-side validation: resolve (and conformance-gate)
        # the request here so a typo or missing toolchain surfaces as
        # one actionable line.  'auto' resolves to a concrete name so
        # every worker lands on the same backend instead of each
        # re-running auto selection.  Workers still resolve the name
        # themselves with the degrade-to-numpy fallback policy.
        from repro.backends import BackendConformanceError, BackendUnavailable
        from repro.backends import resolve_backend

        try:
            backend = resolve_backend(backend).name
        except (BackendUnavailable, BackendConformanceError) as exc:
            parser.error(str(exc))
    from repro.config import TUNE_OFF, RunConfig, load_run_config

    try:
        run_config = (
            load_run_config(args.config) if args.config else RunConfig.from_env()
        )
    except (OSError, ValueError) as exc:
        parser.error(str(exc))
    overrides = {
        k: v
        for k, v in (
            ("tile_size", args.tile_size),
            ("chunk_size", args.chunk),
            ("backend", backend),
        )
        if v is not None
    }
    if args.no_tune:
        overrides["tune"] = TUNE_OFF
    if overrides:
        run_config = run_config.replace(**overrides)
    observe = args.metrics_out is not None or args.trace_out is not None
    if observe:
        OBS.reset()
        OBS.enable()

    try:
        if args.processes is not None:
            from repro.parallel import CrowdSpec, run_dmc_sharded

            fleet = None
            if fleet_flags:
                from repro.fleet import FleetConfig

                try:
                    fleet = FleetConfig(
                        elastic=args.elastic,
                        max_workers=args.max_workers,
                        worker_timeout=args.worker_timeout,
                        latency_budget=args.latency_budget,
                    )
                except ValueError as exc:
                    parser.error(str(exc))
            spec = CrowdSpec(
                n_walkers=args.walkers,
                n_orbitals=args.n_orbitals,
                seed=args.seed,
                config=run_config,
            )
            result = run_dmc_sharded(
                spec,
                n_workers=args.processes,
                n_generations=args.generations,
                tau=args.tau,
                checkpoint_every=args.checkpoint_every,
                checkpoint_path=args.checkpoint_path,
                resume=args.resume,
                guard=GuardConfig(on_nonfinite_energy=args.on_bad_energy),
                fleet=fleet,
            )
        else:
            # The ensemble is rebuilt deterministically from the seed; on
            # resume it serves as the structural template the checkpoint
            # loads into.
            pool = WalkerRngPool(args.seed)
            walkers = build_dmc_ensemble(
                pool,
                args.walkers,
                n_orbitals=args.n_orbitals,
                config=run_config,
            )
            result = run_dmc(
                walkers,
                pool,
                n_generations=args.generations,
                tau=args.tau,
                checkpoint_every=args.checkpoint_every,
                checkpoint_path=args.checkpoint_path,
                resume=args.resume,
                guard=GuardConfig(on_nonfinite_energy=args.on_bad_energy),
            )
    except CheckpointError as exc:
        print(f"python -m repro dmc: error: {exc}", file=sys.stderr)
        return 1
    finally:
        if observe:
            OBS.disable()
    print(f"generations: {len(result.energy_trace)}")
    print(f"acceptance:  {result.acceptance:.4f}")
    print(f"energy mean: {result.energy_mean:.10f}")
    for g, (e, p) in enumerate(zip(result.energy_trace, result.population_trace)):
        print(f"  gen {g:3d}  E = {e:+.12f}  pop = {p}")
    if result.rescues or result.truncations or result.dropped_walkers:
        print(
            f"guard interventions: {result.rescues} rescues, "
            f"{result.truncations} truncations, "
            f"{result.dropped_walkers} dropped walkers"
        )
    if result.fleet is not None:
        report = result.fleet
        mttr = report["mttr_seconds"]
        mttr_txt = f", mean MTTR {sum(mttr) / len(mttr):.3f} s" if mttr else ""
        print(
            f"fleet: {report['restarts']} restarts, "
            f"{report['scale_events']} scale events, "
            f"{report['final_workers']} final workers{mttr_txt}"
        )
    if observe:
        OBS.write(metrics_out=args.metrics_out, trace_out=args.trace_out)
        print()
        print(OBS.summary_table())
    return 0


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "dmc":
        return _dmc_main(argv[1:])
    if argv and argv[0] == "tune":
        from repro.tune.cli import main as tune_main

        return tune_main(argv[1:])
    if argv and argv[0] == "serve":
        from repro.serve.server import main as serve_main

        return serve_main(argv[1:])
    if argv and argv[0] == "serve-client":
        from repro.serve.client import main as serve_client_main

        return serve_client_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduce the tables/figures of Mathuriya et al. "
        "(IPDPS 2017) from the calibrated hardware model.",
    )
    parser.add_argument(
        "target",
        help="one of: " + ", ".join(ALL_TARGETS) + ", all, list, "
        "dmc (restartable live DMC run; see 'dmc --help'), "
        "tune (the per-host auto-tuner DB; see 'tune --help'), "
        "serve / serve-client (the QMC service; see 'serve --help')",
    )
    args = parser.parse_args(argv)

    if args.target == "list":
        for name, (_, desc) in ALL_TARGETS.items():
            print(f"  {name:10s} {desc}")
        print("  dmc        restartable live DMC run (--checkpoint-every/--resume)")
        print("  tune       measure/show/clear the per-host tuned-config DB")
        print("  serve      multi-tenant QMC service with cross-request batching")
        print("  serve-client  talk to a running serve instance")
        return 0
    if args.target == "all":
        for name, (func, _) in ALL_TARGETS.items():
            print(func())
            print()
        return 0
    if args.target not in ALL_TARGETS:
        print(f"unknown target {args.target!r}; try 'list'", file=sys.stderr)
        return 2
    print(ALL_TARGETS[args.target][0]())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
