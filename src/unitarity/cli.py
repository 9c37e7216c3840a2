"""Command-line interface.

Exit codes: 0 success, 1 validation failure, 2 I/O or format error
(argparse usage errors also exit 2).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .channels import (TRACE_PRESERVATION_TOL, ChannelValidationError, canonicalize,
                       require_trace_preserving, validate)
from .du import DEFAULT_RESTARTS, du, du_bounds
from .harness import (
    run_distribution,
    run_table1,
    run_tightness,
    run_witness,
)
from .io import (
    FormatError,
    load_channel,
    load_trajectory,
    matrix_to_obj,
    write_distribution_csv,
    write_table1_csv,
    write_tightness_csv,
)


def _cmd_validate(args) -> int:
    ch = load_channel(args.channel)
    report = validate(ch, tol=args.tol)
    status = "PASS" if report.passed else "FAIL"
    print(f"trace preservation: {status} residual={report.residual:.3e} tol={report.tol:.1e}")
    return 0 if report.passed else 1


def _cmd_du(args) -> int:
    result, bounds = du(load_channel(args.channel), restarts=args.restarts)
    if args.json:
        payload = {
            "value": result.value,
            "method": result.method,
            "iterations": result.iterations,
            "converged": result.converged,
            "sweeps_total": result.sweeps_total,
            "witness": matrix_to_obj(result.witness),
            "lb1": bounds.lb1,
            "lb1_simplified": bounds.lb1_simplified,
            "lb2": bounds.lb2,
            "ub": bounds.ub,
        }
        print(json.dumps(payload))
    else:
        print(f"du={result.value:.12g} method={result.method} "
              f"iterations={result.iterations} converged={result.converged}")
        print(f"lb1={bounds.lb1:.12g} lb2={bounds.lb2:.12g} "
              f"lb1_simplified={bounds.lb1_simplified:.12g} ub={bounds.ub:.12g}")
    return 0


def _cmd_bounds(args) -> int:
    ch = load_channel(args.channel)
    require_trace_preserving(ch)
    report = du_bounds(canonicalize(ch))
    print(f"lb1={report.lb1:.12g} lb2={report.lb2:.12g} "
          f"lb1_simplified={report.lb1_simplified:.12g} ub={report.ub:.12g}")
    for i, sv in enumerate(report.singular_values):
        print(f"operator {i}: singular values {np.array2string(sv, precision=12)}")
    return 0


def _cmd_table1(args) -> int:
    report = run_table1(grid=args.grid)
    for family in sorted({r.family for r in report.rows}):
        print(f"{family}: max |du - closed_form| = {report.family_max_error(family):.3e}")
    print(f"overall max deviation: {report.max_abs_error:.3e}")
    if args.out:
        write_table1_csv(report, args.out)
        print(f"wrote {args.out}")
    return 0


def _cmd_tightness(args) -> int:
    result = run_tightness(
        samples=args.samples,
        env_dim=args.env_dim,
        seed=args.seed,
        stratified=args.stratified,
        attempt_cap=args.attempt_cap,
    )
    print(f"# tightness seed={args.seed} samples={args.samples} "
          f"stratified={args.stratified} attempts={result.attempts} "
          f"records={len(result.records)} nonconverged={result.nonconverged} "
          f"exact={result.exact}")
    if result.underfilled:
        for b, count in sorted(result.underfilled.items()):
            lo = result.bin_edges[b]
            hi = result.bin_edges[b + 1]
            print(f"# under-filled bin [{lo:.2f}, {hi:.2f}): "
                  f"{count}/{result.target_per_bin} records")
    if args.out:
        root, ext = os.path.splitext(args.out)
        by_ub = f"{root}_by_ub{ext or '.csv'}"
        write_tightness_csv(result.records, args.out, by_ub)
        print(f"wrote {args.out} (sorted by du) and {by_ub} (sorted by ub)")
    else:
        for r in sorted(result.records, key=lambda r: r.du_value):
            print(f"du={r.du_value:.6f} lb1_err={r.lb1_err:.3e} "
                  f"lb2_err={r.lb2_err:.3e} ub={r.ub:.6f} seed={r.seed}")
    return 0


def _cmd_distribution(args) -> int:
    hists = run_distribution(
        samples=args.samples,
        env_dims=args.env_dims,
        seed=args.seed,
        num_bins=args.bins,
        du_column=args.du_column,
    )
    print(f"# distribution seed={args.seed} samples={args.samples} "
          f"env_dims={','.join(str(d) for d in args.env_dims)} du_column={args.du_column}")
    for hist in hists:
        print(f"env_dim={hist.env_dim}: mean={hist.mean:.6f} "
              f"mean_lb1={hist.mean_lb1:.6f} samples={hist.sample_count} "
              f"nonconverged={hist.nonconverged} exact={hist.exact}")
        if args.out:
            root, ext = os.path.splitext(args.out)
            path = f"{root}_d{hist.env_dim}{ext or '.csv'}"
            write_distribution_csv(hist, path)
            print(f"wrote {path}")
    return 0


def _cmd_witness(args) -> int:
    report = run_witness(load_trajectory(args.trajectory), threshold=args.threshold)
    for t, v in zip(report.times, report.du_values):
        print(f"t={t:g} du={v:.12g}")
    print(report.verdict)
    return 0


def _int_at_least(low: int):
    """argparse type: an integer no smaller than ``low``."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _finite_float(low: float, strict: bool):
    """argparse type: a finite float above ``low`` (``strict``) or at least ``low``."""
    relation = ">" if strict else ">="
    def parse(text: str) -> float:
        value = float(text)
        if not math.isfinite(value) or value < low or (strict and value == low):
            raise argparse.ArgumentTypeError(
                f"must be a finite number {relation} {low:g}, got {text}")
        return value
    parse.__name__ = "float"  # argparse names the type in "invalid float value"
    return parse


def _dim_list(text: str) -> list[int]:
    """argparse type: a nonempty comma-separated list of distinct integers (``--out``
    writes one file per dimension), each at least 1."""
    tokens = text.split(",")
    if not any(tokens):
        raise argparse.ArgumentTypeError("expected at least one dimension")
    if not all(tokens):
        raise argparse.ArgumentTypeError(f"expected no empty entries, got {text}")
    dims = [_int_at_least(1)(tok) for tok in tokens]
    if len(set(dims)) < len(dims):
        raise argparse.ArgumentTypeError(f"expected distinct dimensions, got {text}")
    return dims


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unitarity",
        description="Degree of unitarity of quantum channels: exact values, "
        "certified bounds, and reproducible random-channel studies.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check trace preservation of a channel file")
    p.add_argument("channel", help="channel JSON file")
    p.add_argument("--tol", type=_finite_float(0.0, strict=True), default=TRACE_PRESERVATION_TOL)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("du", help="degree of unitarity of a channel file")
    p.add_argument("channel", help="channel JSON file")
    p.add_argument("--restarts", type=_int_at_least(0), default=DEFAULT_RESTARTS)
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=_cmd_du)

    p = sub.add_parser("bounds", help="lower/upper DU bounds of a channel file")
    p.add_argument("channel", help="channel JSON file")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("table1", help="closed-form benchmark over parameter grids")
    p.add_argument("--grid", type=_int_at_least(1), default=51)
    p.add_argument("--out", help="CSV output path")
    p.set_defaults(func=_cmd_table1)

    p = sub.add_parser("tightness", help="bound-tightness study on random channels")
    p.add_argument("--samples", type=_int_at_least(1), required=True)
    p.add_argument("--seed", type=_int_at_least(0), required=True)
    p.add_argument("--stratified", action="store_true")
    p.add_argument("--env-dim", type=_int_at_least(1), default=2)
    p.add_argument("--attempt-cap", type=_int_at_least(1), default=1_000_000,
                   help="attempt budget of --stratified; without it every attempt is recorded")
    p.add_argument("--out", help="CSV output path")
    p.set_defaults(func=_cmd_tightness)

    p = sub.add_parser("distribution", help="DU distribution of random channels")
    p.add_argument("--samples", type=_int_at_least(1), required=True)
    p.add_argument("--seed", type=_int_at_least(0), required=True)
    p.add_argument("--env-dims", type=_dim_list, default="2,4")
    p.add_argument("--bins", type=_int_at_least(1), default=30)
    p.add_argument("--du-column", choices=("dispatcher", "lb1"), default="dispatcher",
                   help="bin the DU value (dispatcher) or the first lower bound (lb1)")
    p.add_argument("--out", help="CSV output base path (one file per env dim)")
    p.set_defaults(func=_cmd_distribution)

    p = sub.add_parser("witness", help="non-Markovianity witness along a trajectory")
    p.add_argument("trajectory", help="trajectory JSON file")
    p.add_argument("--threshold", type=_finite_float(0.0, strict=False), default=1e-6)
    p.set_defaults(func=_cmd_witness)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ChannelValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
