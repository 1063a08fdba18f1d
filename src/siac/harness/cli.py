"""Command-line interface.

Subcommands: build-filter, run-dg, filter, convergence, pointwise, verify.
Numeric CSV output uses shortest round-trip float formatting.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

from .. import basisfn, dgsolver, filtercore, postproc
from ..filtercore import DEGREES, FilterConfig
from ..jsonvalues import rational
from . import tables, verify
from .config import ConfigError, FilterVariant, RunConfig, _field, load_config, preset_names
from .runner import ConvergenceReport, filter_config, pointwise_data, run_convergence


# the --basis spelling of each basis kind
BASIS_FLAGS = tuple(kind.replace("_", "-") for kind in basisfn.BASIS_KINDS)


def _add_filter_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=int, choices=DEGREES, default=2, help=f"polynomial degree ({DEGREES[0]}..{DEGREES[-1]})")
    p.add_argument("--basis", choices=BASIS_FLAGS, default="box")
    p.add_argument("--nodes", choices=filtercore.NODE_KINDS, default="standard")
    p.add_argument("--epsilon", default=None, help="compression parameter (fraction like 1/4)")


def _basis_name(flag: str) -> str:
    return flag.replace("-", "_")


def _epsilon_value(text, nodes: str):
    eps = None if text is None else _field("--epsilon", rational, text)
    fault = filtercore.epsilon_fault(nodes, eps)
    if fault:
        raise ConfigError(f"--epsilon: {fault}")
    return eps


def _out_dir(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


def cmd_build_filter(args) -> int:
    cfg = FilterConfig(
        k=args.k,
        basis=_basis_name(args.basis),
        nodes=args.nodes,
        epsilon=_epsilon_value(args.epsilon, args.nodes),
        shift=_field("--shift", rational, args.shift),
    )
    kernel = filtercore.build_filter(cfg)
    kernel.save(args.out)
    print(f"wrote {args.out}")
    print(f"support width: {kernel.support_width_exact}")
    print("nodes:", " ".join(str(p) for p in kernel.nodes.positions))
    print("coefficients:", " ".join(repr(float(c)) for c in kernel.coefficients))
    if kernel.coefficients_exact is not None:
        print("coefficients (exact):", " ".join(str(c) for c in kernel.coefficients_exact))
    return 0


def _config_from_args(args) -> RunConfig:
    cfg = load_config(args.config)
    overrides = {}
    if args.N:
        overrides["elements"] = tuple(sorted(args.N))
    if args.k:
        overrides["degrees"] = tuple(sorted(set(args.k)))
    if args.policy:
        overrides["policy"] = {"periodic": "periodic_wrap", "boundary": "position_dependent"}[args.policy]
    if args.out:
        overrides["output_dir"] = args.out
    if args.basis or args.nodes or args.epsilon is not None:
        basis = _basis_name(args.basis) if args.basis else "box"
        nodes = args.nodes or "standard"
        eps = args.epsilon
        overrides["filters"] = (
            FilterVariant(name=f"{basis}_{nodes}", basis=basis, nodes=nodes, epsilon=eps),
        )
    if overrides:
        cfg = replace(cfg, **overrides)
    return cfg


def _config_with_filters(args, command: str) -> RunConfig:
    """`_config_from_args`, refused unless it names a filter variant for `command` to apply."""
    cfg = _config_from_args(args)
    if not cfg.filters:
        raise ConfigError(f"filters: the {command} subcommand needs at least one filter variant, got none")
    return cfg


def cmd_convergence(args) -> int:
    cfg = _config_from_args(args)
    out_dir = _out_dir(cfg.output_dir)
    report = ConvergenceReport(cfg)
    try:
        run_convergence(cfg, progress=lambda m: print(f"  {m}", file=sys.stderr), report=report)
    except Exception:
        # flush whatever was produced before failing
        if report.errors:
            partial = os.path.join(out_dir, f"{cfg.name}.partial.csv")
            with open(partial, "w") as f:
                f.write(tables.report_csv(report))
            print(f"wrote partial results to {partial}", file=sys.stderr)
        raise
    csv_path = os.path.join(out_dir, f"{cfg.name}.csv")
    with open(csv_path, "w") as f:
        f.write(tables.report_csv(report))
    txt = tables.report_text(report)
    txt_path = os.path.join(out_dir, f"{cfg.name}.txt")
    with open(txt_path, "w") as f:
        f.write(txt)
    print(txt)
    cmp_txt = tables.comparison_text(report)
    if cmp_txt:
        print("comparison against reference values:")
        print(cmp_txt)
    print(f"wrote {csv_path} and {txt_path}")
    return 0


def cmd_run_dg(args) -> int:
    cfg = _config_from_args(args)
    k = cfg.degrees[0]
    n = cfg.elements[0]
    problem = cfg.problem.build()
    mesh = cfg.problem.mesh(n)
    field = dgsolver.solve(problem, mesh, k, cfl=cfg.cfl_for(k))
    exact = problem.exact(cfg.problem.final_time)
    err = dgsolver.l2_error(field, exact, normalized=True)
    field.save(args.field_out)
    print(f"wrote {args.field_out}")
    print(f"degree {k}, {n} elements, T={cfg.problem.final_time}: L2 error {err:.6e}")
    return 0


def cmd_filter(args) -> int:
    cfg = _config_with_filters(args, "filter")
    try:
        field = dgsolver.DGField.load(args.field)
        postproc.check_policy(field.mesh, cfg.policy)
    except (OSError, ValueError) as e:
        raise ConfigError(f"--field: {e}") from None
    if field.dim != 1:
        raise ConfigError("--field: the filter subcommand handles 1D fields")
    if field.degree not in DEGREES:
        raise ConfigError(
            f"--field: filtering needs a field of degree in [{DEGREES[0]}, {DEGREES[-1]}], got {field.degree}"
        )
    problem = cfg.problem.build()
    exact = problem.exact(field.time)
    variant = cfg.filters[0]
    fcfg = filter_config(variant, field.degree)
    ff = postproc.filter_field(field, fcfg, cfg.policy)
    xs = ff.points(0).ravel()
    u_ex = exact(xs)
    u_h = dgsolver.sample(field, xs)
    u_star = ff.values.ravel()
    columns = {
        "x": xs, "u_exact": u_ex, "u_h": u_h, "u_star": u_star,
        "abs_err_h": abs(u_ex - u_h), "abs_err_star": abs(u_ex - u_star),
        "policy": ["symmetric" if s == 0.0 else f"shifted({tables.fmt_float(s)})" for s in ff.shifts[0].ravel()],
    }
    path = os.path.join(_out_dir(cfg.output_dir), args.csv_name)
    with open(path, "w") as f:
        f.write(tables.columns_csv(columns))
    print(f"wrote {path}")
    print(f"filtered L2 error: {ff.l2_error(exact, normalized=True):.6e}")
    return 0


def cmd_pointwise(args) -> int:
    if args.points < 1:
        raise ConfigError(f"--points: must be at least 1, got {args.points}")
    cfg = _config_with_filters(args, "pointwise")
    k = cfg.degrees[0]
    n = args.N[0] if args.N else cfg.elements[0]
    data = pointwise_data(cfg, k, n, pts_per_element=args.points)
    out_dir = _out_dir(cfg.output_dir)
    csv_name = f"{cfg.name}_pointwise_k{k}_N{n}.csv"
    path = os.path.join(out_dir, csv_name)
    with open(path, "w") as f:
        f.write(tables.pointwise_csv(data))
    plot_path = os.path.join(out_dir, f"{cfg.name}_pointwise_k{k}_N{n}.plt")
    with open(plot_path, "w") as f:
        f.write(tables.pointwise_plot_script(csv_name, data))
    print(f"wrote {path} and {plot_path}")
    for name, (left, right) in data.get("markers", {}).items():
        print(f"{name}: position-dependent zone up to x={left:.6g} and from x={right:.6g}")
    return 0


def cmd_verify(args) -> int:
    summary = verify.run_all(progress=lambda m: print(f"  {m}", file=sys.stderr))
    for c in summary["criteria"]:
        print(f"{'PASS' if c['passed'] else 'FAIL'}  criterion {c['criterion']}: {c['label']} ({c['checks']} checks)")
    failures = [c for c in summary["checks"] if not c["passed"]]
    for f in failures:
        print(f"FAIL  {f['name']}: {f['detail']}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1)
        print(f"wrote {args.out}")
    print("all criteria passed" if summary["passed"] else f"{len(failures)} checks failed")
    return 0 if summary["passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="siac",
        description="Accuracy-enhancing convolution filtering for DG advection solutions",
    )
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build-filter", help="construct a kernel and write it as JSON")
    _add_filter_flags(b)
    b.add_argument("--shift", default="0", help="uniform node shift (fraction)")
    b.add_argument("--out", default="kernel.json")
    b.set_defaults(fn=cmd_build_filter)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default="table1_general",
                        help=f"preset name or JSON path (presets: {', '.join(preset_names())})")
    common.add_argument("--k", type=int, action="append", help="degree override (repeatable)")
    common.add_argument("--N", type=int, action="append", help="element count override (repeatable)")
    common.add_argument("--policy", choices=["periodic", "boundary"], default=None)
    common.add_argument("--basis", choices=BASIS_FLAGS, default=None)
    common.add_argument("--nodes", choices=filtercore.NODE_KINDS, default=None)
    common.add_argument("--epsilon", default=None)
    common.add_argument("--out", default=None, help="output directory")

    c = sub.add_parser("convergence", parents=[common], help="error/order table over a resolution sweep")
    c.set_defaults(fn=cmd_convergence)

    r = sub.add_parser("run-dg", parents=[common], help="solve and store a DG field")
    r.add_argument("--field-out", default="field.json")
    r.set_defaults(fn=cmd_run_dg)

    f = sub.add_parser("filter", parents=[common], help="filter a stored DG field to CSV")
    f.add_argument("--field", required=True, help="DG field JSON produced by run-dg")
    f.add_argument("--csv-name", default="filtered.csv")
    f.set_defaults(fn=cmd_filter)

    w = sub.add_parser("pointwise", parents=[common], help="dense point-wise error CSV + plot script")
    w.add_argument("--points", type=int, default=20, help="points per element")
    w.set_defaults(fn=cmd_pointwise)

    v = sub.add_parser("verify", help="run the acceptance checks")
    v.add_argument("--out", default=None, help="write JSON summary here")
    v.set_defaults(fn=cmd_verify)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 2
    except (filtercore.FilterConditioningError, filtercore.DomainTooShortError, dgsolver.UnstableRunError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
