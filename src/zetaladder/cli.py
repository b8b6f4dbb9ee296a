"""Command-line front end: build the cumulative table, verify identities, scan.

Subcommands
-----------

``ladder-build``
    Extend (or create) the cumulative-mass knot table and persist it as CSV.
    Rebuilding under the same configuration is idempotent; a cache file
    written under a different configuration is refused (exit 2).

``verify FORMULA``
    Solve the chains a formula needs, evaluate both sides, and emit a JSON
    report to stdout.  Exit 0 when the relative residual is within
    ``--tol`` (default 1e-6), 1 on a tolerance breach, 2 on usage errors,
    3 on numerical failures.  Delta flags take exact fractions ("1/3").

``scan invariance | gaps | asymptotic``
    Seeded random sampling of the parameter-free combination, tower-gap
    diagnostics against (1-gamma) pi(pi L), or the raw-moment drift across a
    height grid.  Fixed seeds give byte-identical output.

Exit codes: 0 pass, 1 tolerance failure, 2 usage/config error, 3 numerical
failure.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction
from typing import Any

from .config import DEFAULT_CONFIG, RunConfig
from .errors import NumericalError, UsageError, ZetaLadderError
from .gaps import gap_csv_rows, gap_rho
from .hybrid import (
    DeltaPair,
    HybridReport,
    asymptotic_secondary,
    beta_product_elim,
    echf1,
    echf2,
    invariance_scan,
    mixed_product,
    secondary_v1,
    secondary_v2,
    ternary,
)
from .ladder import LadderModel
from .tower import ChainFactory

__all__ = ["main"]

_SCAN_TOL_DEFAULT = 1e-5
_VERIFY_TOL_DEFAULT = 1e-6


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _positive(text: str) -> float:
    """A tolerance or a height: a finite float > 0."""
    try:
        val = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not (math.isfinite(val) and val > 0.0):
        kind = "non-finite" if not math.isfinite(val) else "non-positive"
        raise argparse.ArgumentTypeError(f"{kind} {text!r}: must be finite and > 0")
    return val


def _int_list(text: str) -> list[int]:
    try:
        vals = [int(part) for part in text.split(",") if part]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma list of ints: {text!r}") from exc
    if not vals:
        raise argparse.ArgumentTypeError(f"empty comma list: {text!r}")
    return vals


#: RunConfig fields settable from the command line: name -> (type, help)
_CONFIG_FLAGS: dict[str, tuple[Any, str]] = {
    "quad_tol": (float, "absolute tolerance per unit length for the mass quadrature"),
    "root_tol": (float, "abscissa tolerance for root and crossing solves"),
    "rs_terms": (int, "number of correction terms in the high-range Z evaluation (1-4)"),
    "cache_dir": (str, "directory for the knot-table cache (default ./.zl-cache)"),
    "l_floor": (int, "smallest admissible window index L"),
    "k_max": (int, "deepest admissible tower"),
}
#: what a chain-solving command reads; only ladder-build touches a table file
_SOLVE_FLAGS = ("quad_tol", "root_tol", "rs_terms", "l_floor", "k_max")


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    return DEFAULT_CONFIG.with_overrides(**{
        name: getattr(args, name) for name in _CONFIG_FLAGS
        if getattr(args, name, None) is not None})


def _add_config_flags(p: argparse.ArgumentParser, names: tuple[str, ...]) -> None:
    for name in names:
        kind, text = _CONFIG_FLAGS[name]
        p.add_argument("--" + name.replace("_", "-"), dest=name, type=kind,
                       default=None, help=text)


def _emit(payload: dict[str, Any], path: str | None) -> None:
    # write the file first, so a bad path fails before anything is printed
    text = json.dumps(payload, indent=2, sort_keys=True)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    print(text)


# -- verify -----------------------------------------------------------------


def _report_passes(report: HybridReport, tol: float) -> bool:
    if report.formula_id == "ASYMPTOTIC_17":
        # the raw drift carries no hard tolerance; gate on the exact-form
        # anchor and on the drift agreeing with its slope-mixture prediction,
        # unless both are within the anchor's own residual: noise
        anchor = report.extras["anchor_residual"]
        if anchor > tol:
            return False
        dev = report.extras["deviation"]
        pred = report.extras["predicted_deviation"]
        if max(abs(dev), abs(pred)) <= max(1e-12, anchor):
            return True
        if pred == 0.0:
            return False
        return 1.0 / 3.0 <= dev / pred <= 3.0
    return report.rel_residual <= tol


#: verify's formulas: CLI names (canonical first) -> (function, depth flags,
#: whether it takes a delta pair)
_FORMULAS = {
    ("echf1", "2.9"): (echf1, ("k1", "k2"), False),
    ("echf2", "3.7"): (echf2, ("k3", "k4"), True),
    ("beta-elim", "beta-elim-42", "4.2"): (beta_product_elim, ("k",), True),
    ("secondary1", "secondary1-44", "secondary1-11", "4.4", "1.1"):
        (secondary_v1, ("k1", "k2"), True),
    ("mixed", "mixed-52", "5.2"): (mixed_product, ("k",), False),
    ("secondary2", "secondary2-54", "5.4"): (secondary_v2, ("k3", "k4"), True),
    ("ternary", "ternary-61", "6.1"): (ternary, ("k1", "k2", "k3", "k4"), True),
    ("asymptotic", "asymptotic-17", "1.7"): (asymptotic_secondary, ("k1", "k2"), True),
}


def _run_formula(args: argparse.Namespace, factory: ChainFactory) -> HybridReport:
    name = args.formula.lower().replace("_", "-")
    spec = next((v for names, v in _FORMULAS.items() if name in names), None)
    if spec is None:
        raise UsageError(f"unknown formula {args.formula!r}")
    fn, depth_flags, paired = spec
    pair_flags = ("delta3", "delta4") if paired else ()
    missing = [f for f in pair_flags + depth_flags if getattr(args, f) is None]
    if missing:
        listed = ", ".join("--" + f for f in missing)
        raise UsageError(f"formula {args.formula!r} requires {listed}")
    head = [DeltaPair(args.delta3, args.delta4)] if paired else []
    return fn(factory, *head, args.L, args.U, *(getattr(args, f) for f in depth_flags))


def _cmd_verify(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    factory = ChainFactory(LadderModel(config))
    report = _run_formula(args, factory)
    ok = _report_passes(report, args.tol)
    _emit({"pass": ok, "tolerance": args.tol, "report": report.to_dict()},
          args.output)
    print(f"{report.formula_id}: {'PASS' if ok else 'FAIL'} "
          f"(rel_residual={report.rel_residual:.3e}, tol={args.tol:g})",
          file=sys.stderr)
    return 0 if ok else 1


# -- ladder-build -------------------------------------------------------------


def _cmd_ladder_build(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    model = LadderModel(config)
    path = args.cache_file or model.default_cache_path()
    if os.path.exists(path):
        model = LadderModel.load_table(path, config)
    model.extend_to(args.tmax)
    saved = model.save_table(path)
    _emit(
        {
            "cache_file": saved,
            "config_hash": model.table.config_hash,
            "knots": len(model.table.values),
            "spacing": model.table.spacing,
            "t_covered": model.table.t_covered,
        },
        args.output,
    )
    return 0


# -- scans ---------------------------------------------------------------------


def _cmd_scan_invariance(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    pair = DeltaPair(args.delta3, args.delta4)
    scan = invariance_scan(
        pair,
        n_samples=args.samples,
        seed=args.seed,
        config=config,
        u_range=(args.u_min, args.u_max),
        l_range=(args.l_min, args.l_max),
        k_range=(args.k_min, args.k_max_scan),
        workers=args.workers,
    )
    ok = scan.max_rel_dev <= args.scan_tol and not scan.failures
    _emit({"pass": ok, "tolerance": args.scan_tol, "scan": scan.to_dict()},
          args.output)
    print(
        f"invariance: {'PASS' if ok else 'FAIL'} "
        f"(max_rel_dev={scan.max_rel_dev:.3e}, tol={args.scan_tol:g}, "
        f"{len(scan.samples)} ok / {len(scan.failures)} failed)",
        file=sys.stderr,
    )
    return 0 if ok else 1


def _cmd_scan_gaps(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    factory = ChainFactory(LadderModel(config))
    reports = []
    for l in args.L:
        tower = factory.tower(l, args.U, max(args.r) + 1)
        for r in args.r:
            reports.append(gap_rho(tower, r))
    csv_text = gap_csv_rows(reports)
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(csv_text)
    sys.stdout.write(csv_text)
    worst = max(abs(math.log(rep.ratio)) for rep in reports)
    hard_breach = any(not 0.5 <= rep.ratio <= 1.5 for rep in reports)
    soft_breach = any(not 0.7 <= rep.ratio <= 1.3 for rep in reports)
    if soft_breach and not hard_breach:
        print("warning: gap ratio outside the soft [0.7, 1.3] band",
              file=sys.stderr)
    print(f"gaps: {'FAIL' if hard_breach else 'PASS'} "
          f"(worst |log ratio| = {worst:.3f})", file=sys.stderr)
    return 1 if hard_breach else 0


def _cmd_scan_asymptotic(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    factory = ChainFactory(LadderModel(config))
    pair = DeltaPair(args.delta3, args.delta4)
    rows = []
    ok = True
    for l in args.L:
        rep = asymptotic_secondary(factory, pair, l, args.U, args.k1, args.k2)
        ok = ok and _report_passes(rep, args.tol)
        rows.append({
            "L": l,
            "raw_lhs": rep.lhs,
            "constant": rep.rhs,
            "deviation": rep.extras["deviation"],
            "predicted_deviation": rep.extras["predicted_deviation"],
            "anchor_residual": rep.extras["anchor_residual"],
        })
    _emit({"pass": ok, "tolerance": args.tol, "rows": rows}, args.output)
    print(f"asymptotic: {'PASS' if ok else 'FAIL'}", file=sys.stderr)
    return 0 if ok else 1


# -- parser ---------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zetaladder",
        description="Mean-value chains over the cumulative Hardy Z^2 mass: "
                    "build the ladder table, verify the combined identities, "
                    "and run diagnostic scans.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pb = sub.add_parser("ladder-build", help="build/extend the knot-table cache")
    pb.add_argument("--tmax", type=_positive, required=True,
                    help="height to cover with knots")
    pb.add_argument("--cache-file", default=None,
                    help="explicit cache path (default: hash-named file in cache dir)")
    pb.add_argument("--output", default=None, help="also write the JSON summary here")
    _add_config_flags(pb, ("quad_tol", "rs_terms", "cache_dir"))
    pb.set_defaults(fn=_cmd_ladder_build)

    pv = sub.add_parser("verify", help="evaluate one identity and report")
    pv.add_argument("formula", help=" | ".join(names[0] for names in _FORMULAS))
    pv.add_argument("--L", type=int, required=True, help="base window index")
    pv.add_argument("--U", type=float, required=True, help="base window width")
    for k in ("k1", "k2", "k3", "k4", "k"):
        pv.add_argument(f"--{k}", type=int, default=None)
    pv.add_argument("--delta3", type=_fraction, default=None,
                    help="first power exponent, exact fraction like 1/3")
    pv.add_argument("--delta4", type=_fraction, default=None,
                    help="second power exponent, exact fraction like 1/5")
    pv.add_argument("--tol", type=_positive, default=_VERIFY_TOL_DEFAULT)
    pv.add_argument("--output", default=None, help="also write the JSON report here")
    _add_config_flags(pv, _SOLVE_FLAGS)
    pv.set_defaults(fn=_cmd_verify)

    ps = sub.add_parser("scan", help="seeded sampling and diagnostics")
    scan_sub = ps.add_subparsers(dest="scan_kind", required=True)

    pi = scan_sub.add_parser("invariance", help="random (U, L, k) sampling of "
                                               "the parameter-free combination")
    pi.add_argument("--delta3", type=_fraction, required=True)
    pi.add_argument("--delta4", type=_fraction, required=True)
    pi.add_argument("--samples", type=int, default=20)
    pi.add_argument("--seed", type=int, default=20260819)
    pi.add_argument("--workers", type=int, default=1)
    pi.add_argument("--u-min", dest="u_min", type=float, default=0.3)
    pi.add_argument("--u-max", dest="u_max", type=float, default=1.45)
    pi.add_argument("--l-min", dest="l_min", type=int, default=100)
    pi.add_argument("--l-max", dest="l_max", type=int, default=260)
    pi.add_argument("--k-min", dest="k_min", type=int, default=1)
    pi.add_argument("--k-max-scan", dest="k_max_scan", type=int, default=3)
    pi.add_argument("--scan-tol", dest="scan_tol", type=_positive,
                    default=_SCAN_TOL_DEFAULT)
    pi.add_argument("--output", default=None)
    _add_config_flags(pi, _SOLVE_FLAGS)
    pi.set_defaults(fn=_cmd_scan_invariance)

    pg = scan_sub.add_parser("gaps", help="segment spacing vs (1-gamma) pi(pi L)")
    pg.add_argument("--L", type=_int_list, default=[300, 500, 1000],
                    help="comma list of window indices")
    pg.add_argument("--U", type=float, default=1.0)
    pg.add_argument("--r", type=_int_list, default=[0],
                    help="comma list of gap indices")
    pg.add_argument("--csv", default=None, help="also write the CSV here")
    _add_config_flags(pg, _SOLVE_FLAGS)
    pg.set_defaults(fn=_cmd_scan_gaps)

    pa = scan_sub.add_parser("asymptotic", help="raw-moment drift across heights")
    pa.add_argument("--delta3", type=_fraction, required=True)
    pa.add_argument("--delta4", type=_fraction, required=True)
    pa.add_argument("--L", type=_int_list, default=[150, 300, 500])
    pa.add_argument("--U", type=float, default=1.0)
    pa.add_argument("--k1", type=int, default=1)
    pa.add_argument("--k2", type=int, default=2)
    pa.add_argument("--tol", type=_positive, default=_VERIFY_TOL_DEFAULT)
    pa.add_argument("--output", default=None)
    _add_config_flags(pa, _SOLVE_FLAGS)
    pa.set_defaults(fn=_cmd_scan_asymptotic)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; keep its code
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ZetaLadderError, OSError) as exc:  # other domain errors, bad paths
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
