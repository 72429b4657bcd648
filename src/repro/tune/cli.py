"""``python -m repro tune`` — run, inspect, and clear the tuning DB.

Three subcommands:

* ``run``   — micro-benchmark one or more shapes and persist winners
  (``--force`` re-measures a warm entry; the exit report says how many
  candidates were actually timed, so scripts can assert a warm second
  run measured zero);
* ``show``  — print the stored entries for this host (``--all-hosts``
  for everything in the file);
* ``clear`` — drop this host's entries (or the whole file).

All three honour ``--db`` / ``REPRO_TUNE_DB`` so CI can tune into a
workspace-local file without touching ``~/.cache``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.tune.db import TuneDB, TuneShape

__all__ = ["main"]

#: ``--tiny`` run defaults: seconds-scale on any host, still large
#: enough that chunk/tile choices move the needle.
_TINY_SHAPES = ((128, 128), (256, 512))
_DEFAULT_SHAPES = ((512, 512), (1024, 512), (2048, 512))


def _add_db_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--db",
        default=None,
        help="tuning-database path (default: REPRO_TUNE_DB or "
        "~/.cache/repro/tunedb.json)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro tune",
        description="Measured, persistent auto-tuning of the batched "
        "B-spline kernels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="measure shapes and persist winners")
    _add_db_arg(run)
    run.add_argument(
        "--shape",
        action="append",
        metavar="NxBATCH",
        help="problem shape n_splines x batch (repeatable); default is a "
        "small sweep of production shapes",
    )
    run.add_argument("--dtype", default="float32", help="table dtype name")
    run.add_argument(
        "--kind", default="vgh", choices=("v", "vgl", "vgh"), help="kernel"
    )
    run.add_argument(
        "--backend",
        default=None,
        help="kernel backend to tune: cc or numpy; unset or 'auto' for "
        "REPRO_BACKEND, else cc when a C compiler is present, else numpy",
    )
    run.add_argument(
        "--repeats", type=int, default=None, help="timing repeats per candidate"
    )
    run.add_argument(
        "--force", action="store_true", help="re-measure warm entries"
    )
    run.add_argument(
        "--tiny", action="store_true", help="CI-sized shapes (seconds, not minutes)"
    )
    run.add_argument("--json", action="store_true", help="machine-readable report")

    show = sub.add_parser("show", help="print stored entries")
    _add_db_arg(show)
    show.add_argument(
        "--all-hosts", action="store_true", help="include foreign-host entries"
    )
    show.add_argument("--json", action="store_true", help="machine-readable report")

    clear = sub.add_parser("clear", help="drop stored entries")
    _add_db_arg(clear)
    clear.add_argument(
        "--all-hosts", action="store_true", help="drop every host, not just this one"
    )
    return parser


def _parse_shape(text: str) -> tuple[int, int]:
    try:
        n, batch = text.lower().split("x")
        return int(n), int(batch)
    except ValueError:
        raise SystemExit(f"--shape must look like 512x512, got {text!r}")


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.tune.search import DEFAULT_REPEATS, autotune_shape

    db = TuneDB(path=args.db)
    if args.shape:
        shapes = [_parse_shape(s) for s in args.shape]
    else:
        shapes = list(_TINY_SHAPES if args.tiny else _DEFAULT_SHAPES)
    repeats = args.repeats if args.repeats is not None else DEFAULT_REPEATS
    rows = []
    total_measured = 0
    for n_splines, batch in shapes:
        shape = TuneShape(n_splines, batch, args.dtype, args.kind)
        outcome = autotune_shape(
            shape, db=db, backend=args.backend, repeats=repeats, force=args.force
        )
        total_measured += outcome.measured
        rows.append(outcome)
    report = {
        "db": str(db.path),
        "host": db.host.fingerprint,
        "measured": total_measured,
        "shapes": [
            {
                "shape": o.shape.key,
                "from_db": o.from_db,
                "measured": o.measured,
                **o.config.as_dict(),
            }
            for o in rows
        ],
    }
    if args.json:
        json.dump(report, sys.stdout, indent=1)
        print()
        return 0
    print(f"tuning DB: {db.path} (host {db.host.fingerprint})")
    for o in rows:
        c = o.config
        origin = "db" if o.from_db else f"measured {o.measured} candidates"
        print(
            f"  {o.shape.key:>28}  chunk={c.chunk:<6} tile={c.tile:<5} "
            f"backend={c.backend} tier={c.tier} "
            f"speedup={c.speedup:.2f}x  [{origin}]"
        )
    print(f"measured {total_measured} candidate configurations in total")
    return 0


def _cmd_show(args: argparse.Namespace) -> int:
    db = TuneDB(path=args.db)
    rows = db.entries(all_hosts=args.all_hosts)
    if args.json:
        json.dump(
            {
                "db": str(db.path),
                "host": db.host.fingerprint,
                "entries": [
                    {"host": fp, "shape": shape.key, **cfg.as_dict()}
                    for fp, shape, cfg in rows
                ],
            },
            sys.stdout,
            indent=1,
        )
        print()
        return 0
    print(f"tuning DB: {db.path} (host {db.host.fingerprint})")
    if not rows:
        print("  (no entries)")
        return 0
    for fp, shape, cfg in rows:
        marker = "*" if fp == db.host.fingerprint else " "
        print(
            f" {marker}{fp}  {shape.key:>28}  chunk={cfg.chunk:<6} "
            f"tile={cfg.tile:<5} backend={cfg.backend} tier={cfg.tier} "
            f"speedup={cfg.speedup:.2f}x"
        )
    return 0


def _cmd_clear(args: argparse.Namespace) -> int:
    db = TuneDB(path=args.db)
    dropped = db.clear(all_hosts=args.all_hosts)
    scope = "all hosts" if args.all_hosts else f"host {db.host.fingerprint}"
    print(f"dropped {dropped} entries ({scope}) from {db.path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "run":
        # Resolve the flag or REPRO_BACKEND once: every candidate runs
        # on this name.
        from repro.backends import resolve_backend_name

        args.backend = resolve_backend_name(args.backend, parser.error)
    handler = {"run": _cmd_run, "show": _cmd_show, "clear": _cmd_clear}[args.command]
    try:
        return handler(args)
    except BrokenPipeError:
        # Downstream closed the pipe (`tune show | head`): point stdout
        # at devnull so the interpreter's exit flush doesn't raise too.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
