"""Command-line entry point for batch studies and one-shot utilities.

Commands:
  lecam-equiv run <config-file> [--out DIR] [--jobs N] [--seed S]
      Execute a study config; exit 0 iff all configured verdicts pass.
  lecam-equiv check-family <name>
      Run the regularity audit for one observation family.
  lecam-equiv gaussianize <draw-file>
      Push a serialized original-model draw through the kernel and
      write the synthetic Gaussian data in the same columnar format.

Exit codes: 0 success / verdicts pass, 1 verdicts fail, 2 unusable
arguments or config, 3 numeric failure.  The environment variable
LECAM_EQUIV_OUT supplies the default output directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from .errors import ArgumentError, NumericError
from .experiments import read_draw, write_draw
from .families import check_regularity, get_family
from .globalization import gaussianize
from .harness import MIN_GRID_POINTS, OUTPUT_DIR_ENV, parse_config, run_study, stream_rng


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lecam-equiv",
        description=(
            "Batch studies of Gaussian approximations to nonparametric "
            "regression experiments"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a study configuration file")
    run_p.add_argument("config", help="path to a [study] key=value file")
    run_p.add_argument("--out", default=None, help="output directory override")
    run_p.add_argument("--jobs", type=int, default=1, help="worker process count")
    run_p.add_argument("--seed", type=int, default=None, help="master seed override")

    check_p = sub.add_parser("check-family", help="audit one family's regularity")
    check_p.add_argument("name", help="family name, e.g. bernoulli")
    check_p.add_argument("--beta", type=float, default=1.0)
    check_p.add_argument("--epsilon", type=float, default=0.05)
    check_p.add_argument("--grid-points", type=int, default=12)
    check_p.add_argument("--table", default="", help="table path for location_custom")

    g_p = sub.add_parser("gaussianize", help="apply the kernel to a saved draw")
    g_p.add_argument("draw_file", help="columnar draw file (original model)")
    g_p.add_argument("--out", default=None, help="output file path")
    g_p.add_argument("--beta", type=float, default=1.0)
    g_p.add_argument("--q", type=float, default=0.25)
    g_p.add_argument("--seed", type=int, default=0, help="kernel noise seed")
    return parser


def _cmd_run(args) -> int:
    config = parse_config(args.config)
    if args.out is not None:
        config = dataclasses.replace(config, out_dir=args.out)
    if args.seed is not None:
        config = dataclasses.replace(config, master_seed=args.seed)
    result = run_study(config, jobs=args.jobs)
    for name, ok in result.verdicts.items():
        print(f"{name}: {'pass' if ok else 'fail'}")
    print(f"rows: {result.csv_path}")
    print(f"summary: {result.summary_path}")
    print(f"overall: {'pass' if result.passed else 'fail'}")
    return 0 if result.passed else 1


def _cmd_check_family(args) -> int:
    family = get_family(args.name, table_path=args.table)
    if args.grid_points < MIN_GRID_POINTS:
        raise ArgumentError(f"--grid-points must be at least {MIN_GRID_POINTS}")
    lo, hi = family.working_interval
    grid = np.linspace(lo, hi, args.grid_points)
    report = check_regularity(family, grid, args.epsilon, args.beta)
    print("condition, value, pass")
    print(f"r1_sup, {report.r1_sup_estimate!r}, {int(report.pass_flags['r1'])}")
    print(f"r2_sup, {report.r2_sup_estimate!r}, {int(report.pass_flags['r2'])}")
    print(
        f"r3_range, {report.r3_bounds[0]!r}..{report.r3_bounds[1]!r}, "
        f"{int(report.pass_flags['r3'])}"
    )
    print(f"all_pass, , {int(report.all_pass())}")
    return 0 if report.all_pass() else 1


def _cmd_gaussianize(args) -> int:
    draw = read_draw(args.draw_file)
    family = get_family(draw.family)
    if not family.in_support(draw.observations):
        raise ArgumentError(f"draw file holds observations outside the {family.name} support")
    noise = stream_rng(args.seed).standard_normal(draw.n)
    out = gaussianize(family, draw, args.beta, noise, q=args.q)
    if args.out is not None:
        path = args.out
    else:
        root, ext = os.path.splitext(args.draw_file)
        default_dir = os.environ.get(OUTPUT_DIR_ENV)
        base = f"{root}.gaussianized{ext or '.csv'}"
        path = (
            os.path.join(default_dir, os.path.basename(base))
            if default_dir
            else base
        )
    write_draw(out.draw, path)
    print(f"kernel: {out.kernel_descriptor}")
    print(f"wrote: {path}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "check-family":
            return _cmd_check_family(args)
        return _cmd_gaussianize(args)
    except (ArgumentError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
