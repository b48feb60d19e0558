"""Command-line workbench: order, compress, eval, bounds, gen.

Exit codes: 0 success, 2 schema error, 3 enumeration budget exceeded,
4 bound violation (which indicates an implementation bug, never expected
behaviour), 1 any other package error.
"""

from __future__ import annotations

import argparse
import csv
import io as _io
import math
import sys
from pathlib import Path

from .bounds import (
    bound_chain,
    cd_interval,
    dcd_bound_sharp,
    dcd_bounds_loose,
    eps_for_target,
    pmax_bound,
)
from .colour import hacp_compress
from .errors import FgliftError, SchemaError, StateSpaceTooLarge
from .generate import PlantedSpec, planted_model
from .hierarchy import build_hierarchy, level_for_epsilon
from .inference import DEFAULT_ENUM_BUDGET, max_query_deviation
from .io import (
    distance_matrix_to_csv,
    dumps,
    fmt9,
    hierarchy_report_rows,
    read_compressed,
    read_hierarchy,
    read_model,
    write_compressed,
    write_hierarchy,
    write_model,
    write_report,
)
from .metric import distance_matrix

#: Tolerance absorbing float rounding in measured-vs-bound comparisons.
BOUND_SLACK = 1e-12


class _BoundViolation(FgliftError):
    pass


def _cmd_order(args: argparse.Namespace) -> int:
    g = read_model(args.model, clamp_zeros=args.clamp_zeros)
    dm = distance_matrix(g, threads=args.threads)
    tree, ladder = build_hierarchy(dm)
    write_hierarchy(tree, args.out)
    if args.report:
        write_report(hierarchy_report_rows(tree), args.report)
    if args.matrix_csv:
        Path(args.matrix_csv).write_text(distance_matrix_to_csv(dm))
    print(f"m={g.m} levels={tree.num_levels}")
    for level, eps in enumerate((0.0, *ladder)):
        print(f"level {level}: eps={fmt9(eps)} groups={g.m - level}")
    return 0


def _select_level(args: argparse.Namespace, tree, m: int) -> int:
    if args.level is not None:
        return args.level
    if args.eps is not None:
        return level_for_epsilon(tree, args.eps)
    cap = min(eps_for_target(args.target_pdelta, m), 1.0 - 1e-9)
    return level_for_epsilon(tree, cap)


def _cmd_compress(args: argparse.Namespace) -> int:
    g = read_model(args.model, clamp_zeros=args.clamp_zeros)
    tree = read_hierarchy(args.hierarchy)
    level = _select_level(args, tree, g.m)
    cm = hacp_compress(g, tree, level)
    write_compressed(cm, args.out)
    print(
        f"level={cm.level} eps={fmt9(cm.eps)} "
        f"groups={len(cm.hierarchy_blocks)} "
        f"blocks_after_refinement={cm.grouping.num_blocks}"
    )
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    g = read_model(args.model, clamp_zeros=args.clamp_zeros)
    cm = read_compressed(args.compressed)
    report = max_query_deviation(
        g, cm.base, args.evidence_budget, enum_budget=args.enum_budget
    )
    measured = report.dcd

    out = _io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(
        ["query_var", "evidence", "p_original", "p_compressed", "abs_dev"]
    )
    for dev in report.deviations:
        evidence = ",".join(f"{k}={v}" for k, v in dev.evidence.items())
        writer.writerow(
            [
                f"{dev.variable}={dev.value}",
                evidence,
                fmt9(dev.p),
                fmt9(dev.p_compressed),
                fmt9(dev.abs_dev),
            ]
        )
    writer.writerow(["measured_dcd", fmt9(measured)])
    writer.writerow(["measured_pmax", fmt9(report.pmax)])

    d2 = dcd_bound_sharp(cm.eps, g.m)
    writer.writerow(["bound_d2", fmt9(d2)])
    if cm.eps < 1.0:
        chain = bound_chain(cm.eps, g.m)
        writer.writerow(["bound_d3", fmt9(chain.d3)])
        writer.writerow(["bound_d4", fmt9(chain.d4)])
        writer.writerow(["bound_pmax_d2", fmt9(chain.pmax_d2)])
    else:
        writer.writerow(["bound_d3", fmt9(2 * g.m * math.log1p(cm.eps))])
        writer.writerow(["bound_d4", ""])
        writer.writerow(["bound_pmax_d2", fmt9(pmax_bound(d2))])
    writer.writerow(["eps", fmt9(cm.eps)])
    writer.writerow(["m", g.m])

    text = out.getvalue()
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)

    if not (measured <= d2 + BOUND_SLACK):
        raise _BoundViolation(
            f"measured distance {measured!r} exceeds sharp bound {d2!r}"
        )
    if not (report.pmax <= pmax_bound(measured) + BOUND_SLACK):
        raise _BoundViolation(
            f"measured deviation {report.pmax!r} exceeds "
            f"{pmax_bound(measured)!r}"
        )
    for dev in report.deviations:
        low, high = cd_interval(dev.p, measured)
        if not (low - BOUND_SLACK <= dev.p_compressed <= high + BOUND_SLACK):
            raise _BoundViolation(
                f"query {dev.variable}={dev.value} left its interval"
            )
    print(
        f"measured_dcd={fmt9(measured)} measured_pmax={fmt9(report.pmax)} "
        f"(measured over scanned queries) bound_d2={fmt9(d2)}: ok"
    )
    return 0


def _parse_grid(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _cmd_bounds(args: argparse.Namespace) -> int:
    ms = [int(tok) for tok in args.m_list.split(",") if tok.strip()]
    if not ms:
        raise SchemaError("--m-list must not be empty")
    out = _io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    if args.eps_grid is not None:
        writer.writerow(
            ["eps", "m", "d2", "d3", "d4", "pmax_d2", "pmax_d3", "pmax_d4"]
        )
        for eps in _parse_grid(args.eps_grid):
            for m in ms:
                d2 = dcd_bound_sharp(eps, m)
                d3 = 2 * m * math.log1p(eps)
                d4 = None if eps >= 1.0 else dcd_bounds_loose(eps, m)[1]
                writer.writerow(
                    [
                        fmt9(eps),
                        m,
                        fmt9(d2),
                        fmt9(d3),
                        "" if d4 is None else fmt9(d4),
                        fmt9(pmax_bound(d2)),
                        fmt9(pmax_bound(d3)),
                        "" if d4 is None else fmt9(pmax_bound(d4)),
                    ]
                )
    else:
        writer.writerow(["pdelta", "m", "eps1"])
        for p_star in _parse_grid(args.pdelta_grid):
            for m in ms:
                writer.writerow([fmt9(p_star), m, fmt9(eps_for_target(p_star, m))])
    if args.out:
        Path(args.out).write_text(out.getvalue())
    else:
        sys.stdout.write(out.getvalue())
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    lo, hi = (float(tok) for tok in args.base_range.split(","))
    spec = PlantedSpec(
        seed=args.seed,
        num_groups=args.groups,
        factors_per_group=args.per_group,
        table_dim=args.dim,
        base_range=(lo, hi),
        noise=args.noise,
        topology=args.topology,
        group_gap=args.gap,
        num_variables=args.num_variables,
    )
    g, truth = planted_model(spec)
    write_model(g, args.out)
    sidecar = Path(str(args.out) + ".groups.json")
    sidecar.write_text(dumps({"blocks": [list(grp) for grp in truth]}))
    print(f"wrote {args.out} (m={g.m}, n={g.n}) and {sidecar}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fglift",
        description="Hierarchical factor-graph compression workbench",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    order = sub.add_parser("order", help="build the merge hierarchy of a model")
    order.add_argument("--model", required=True)
    order.add_argument("--out", required=True)
    order.add_argument("--report", help="also write the per-level report CSV")
    order.add_argument("--matrix-csv", help="also dump the distance matrix")
    order.add_argument("--threads", type=int, default=1)
    order.add_argument("--clamp-zeros", action="store_true")
    order.set_defaults(func=_cmd_order)

    compress = sub.add_parser("compress", help="compress a model at one level")
    compress.add_argument("--model", required=True)
    compress.add_argument("--hierarchy", required=True)
    compress.add_argument("--out", required=True)
    compress.add_argument("--clamp-zeros", action="store_true")
    pick = compress.add_mutually_exclusive_group(required=True)
    pick.add_argument("--level", type=int)
    pick.add_argument("--eps", type=float)
    pick.add_argument("--target-pdelta", type=float)
    compress.set_defaults(func=_cmd_compress)

    evaluate = sub.add_parser(
        "eval", help="measure deviations of a compressed model"
    )
    evaluate.add_argument("--model", required=True)
    evaluate.add_argument("--compressed", required=True)
    evaluate.add_argument("--out")
    evaluate.add_argument("--evidence-budget", type=int, default=0)
    evaluate.add_argument("--enum-budget", type=int, default=DEFAULT_ENUM_BUDGET)
    evaluate.add_argument("--clamp-zeros", action="store_true")
    evaluate.set_defaults(func=_cmd_eval)

    bounds = sub.add_parser("bounds", help="emit bound surfaces as CSV")
    grid = bounds.add_mutually_exclusive_group(required=True)
    grid.add_argument("--eps-grid")
    grid.add_argument("--pdelta-grid")
    bounds.add_argument("--m-list", required=True)
    bounds.add_argument("--out")
    bounds.set_defaults(func=_cmd_bounds)

    gen = sub.add_parser("gen", help="generate a planted model")
    gen.add_argument("--out", required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--groups", type=int, default=3)
    gen.add_argument("--per-group", type=int, default=4)
    gen.add_argument("--dim", type=int, default=4)
    gen.add_argument("--base-range", default="1.0,1.2")
    gen.add_argument("--noise", type=float, default=0.01)
    gen.add_argument("--topology", default="star")
    gen.add_argument("--gap", type=float, default=0.5)
    gen.add_argument("--num-variables", type=int)
    gen.set_defaults(func=_cmd_gen)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return 2
    except StateSpaceTooLarge as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except _BoundViolation as exc:
        print(f"bound violation (internal error): {exc}", file=sys.stderr)
        return 4
    except FgliftError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
