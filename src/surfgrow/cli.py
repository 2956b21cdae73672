"""Command-line front end.

Subcommands::

    surfgrow run <config> [--out DIR]       march a configured scenario
    surfgrow verify <scenario> [--out DIR]  run the built-in check table
    surfgrow converge <config> --levels N   refinement study with orders

``--out`` defaults to the SURFGROW_OUT environment variable, else
``./surfgrow-out``.  Exit status: 0 success, 1 scenario/parse/verification
failure (with a machine-parsable ``error: <Kind>: ...`` line on stderr),
2 usage error.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from .config import parse_config
from .errors import SurfgrowError, UsageError
from .output import write_fields
from .scenarios import KINDS, convergence_study, run_scenario
from .verify import format_table, verify_scenario


def _default_out() -> str:
    return os.environ.get("SURFGROW_OUT", "surfgrow-out")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="surfgrow",
                                     description="Eulerian surface-growth simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a configured scenario")
    p_run.add_argument("config", help="path to a key = value config file")
    p_run.add_argument("--out", default=None, help="output directory")

    p_ver = sub.add_parser("verify", help="run the built-in oracle checks")
    p_ver.add_argument("scenario", help=" | ".join(KINDS))
    p_ver.add_argument("--out", default=None, help="also write the run outputs")

    p_conv = sub.add_parser("converge", help="refinement study")
    p_conv.add_argument("config", help="path to a key = value config file")
    p_conv.add_argument("--levels", type=int, default=4,
                        help="number of refinement levels (n doubles per level)")
    return parser


def _cmd_run(args) -> int:
    cfg = parse_config(args.config)
    start = time.perf_counter()
    result = run_scenario(cfg)
    elapsed = time.perf_counter() - start
    out = args.out or _default_out()
    manifest = write_fields(result, out, duration_seconds=elapsed)
    _, n_steps = cfg.resolve_dt()
    # levels before the first cell is active are not stored, and a body
    # present at t = 0 stores one level more than its steps
    print(f"{cfg.kind}: {n_steps} steps, {len(result.history)} stored levels, "
          f"H(t_end) = {result.final.grid.height:.6g}, wrote "
          f"{len(manifest.files)} files to {out}")
    return 0


def _cmd_verify(args) -> int:
    rows, result = verify_scenario(args.scenario)
    print(format_table(rows))
    if args.out is not None:
        # duration omitted so repeated verification is byte-identical
        write_fields(result, args.out, duration_seconds=None)
        print(f"wrote run outputs to {args.out}")
    failed = [r for r in rows if not r.ok]
    if failed:
        print(f"{len(failed)} of {len(rows)} checks failed", file=sys.stderr)
        return 1
    return 0


def _cmd_converge(args) -> int:
    cfg = parse_config(args.config)
    if args.levels < 1:
        raise UsageError("--levels must be at least 1")
    resolutions = [cfg.n_cells * 2 ** i for i in range(args.levels)]
    rows = convergence_study(cfg, resolutions)
    print(f"{'n_cells':>8} {'dt':>12} {'Linf':>14} {'L2':>14} {'order':>7}")
    for r in rows:
        order = f"{r.order:7.3f}" if r.order is not None else "      -"
        print(f"{r.n_cells:>8} {r.dt:>12.5e} {r.linf:>14.6e} {r.l2:>14.6e} {order}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_converge(args)
    except UsageError as exc:
        print(f"error: UsageError: {exc}", file=sys.stderr)
        return 2
    except SurfgrowError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
