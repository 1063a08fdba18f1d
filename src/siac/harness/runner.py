"""Run configs: solve, filter, and collect convergence rows."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .. import dgsolver, filtercore, postproc
from .config import FilterVariant, RunConfig


def observed_order(e_coarse: float, e_fine: float, n_coarse: int, n_fine: int) -> float:
    return math.log(e_coarse / e_fine) / math.log(n_fine / n_coarse)


def filter_config(variant: FilterVariant, degree: int) -> filtercore.FilterConfig:
    return filtercore.FilterConfig(
        k=degree,
        basis=variant.basis,
        nodes=variant.nodes,
        epsilon=variant.epsilon_fraction(),
    )


def filtered_error(
    config: RunConfig,
    variant: FilterVariant,
    field_: dgsolver.DGField,
    exact: Callable,
) -> float:
    ff = postproc.filter_field(field_, filter_config(variant, field_.degree), config.policy)
    return ff.l2_error(exact, normalized=True)


@dataclass
class ConvergenceReport:
    """Per-resolution errors and observed orders, one row per (degree, N)."""

    config: RunConfig
    rows: list = field(default_factory=list)

    @property
    def filter_names(self) -> list[str]:
        return [f.name for f in self.config.filters]

    def add_row(self, degree: int, elements: int, dg_error: float, filtered: dict) -> None:
        self.rows.append(
            {
                "degree": degree,
                "elements": elements,
                "dg_error": dg_error,
                **{f"{name}_error": err for name, err in filtered.items()},
            }
        )

    def finalize_orders(self) -> None:
        cols = ["dg"] + self.filter_names
        by_degree: dict[int, list] = {}
        for row in self.rows:
            by_degree.setdefault(row["degree"], []).append(row)
        for rows in by_degree.values():
            rows.sort(key=lambda r: r["elements"])
            for prev, cur in zip([None] + rows[:-1], rows):
                for col in cols:
                    ekey, okey = f"{col}_error", f"{col}_order"
                    if prev is None or prev.get(ekey) is None or cur.get(ekey) is None:
                        cur.setdefault(okey, None)
                    else:
                        cur[okey] = observed_order(
                            prev[ekey], cur[ekey], prev["elements"], cur["elements"]
                        )
        self.rows.sort(key=lambda r: (r["degree"], r["elements"]))

    def cell(self, column: str, degree: int, elements: int, what: str = "error"):
        for row in self.rows:
            if row["degree"] == degree and row["elements"] == elements:
                return row.get(f"{column}_{what}")
        return None


def run_convergence(
    config: RunConfig,
    degrees=None,
    elements=None,
    progress: Optional[Callable[[str], None]] = None,
    report: Optional[ConvergenceReport] = None,
) -> ConvergenceReport:
    """Solve + filter every (degree, N) cell of the sweep and tabulate.

    A caller-supplied report is filled row by row, so partial results
    survive a failure mid-sweep.
    """
    problem = config.problem.build()
    exact = problem.exact(config.problem.final_time)
    if report is None:
        report = ConvergenceReport(config)
    degs = degrees if degrees is not None else config.degrees
    elts = elements if elements is not None else config.elements
    for k in degs:
        for n in elts:
            if progress:
                progress(f"degree {k}, {n} elements")
            f = dgsolver.solve(problem, config.problem.mesh(n), k, cfl=config.cfl_for(k))
            dg_err = dgsolver.l2_error(f, exact, normalized=True)
            filtered = {v.name: filtered_error(config, v, f, exact) for v in config.filters}
            report.add_row(k, n, dg_err, filtered)
    report.finalize_orders()
    return report


def pointwise_data(
    config: RunConfig,
    degree: int,
    n: int,
    pts_per_element: int = 20,
) -> dict:
    """Dense per-element samples of exact, DG, and filtered values (1D)."""
    if config.problem.dim != 1:
        raise ValueError("pointwise output is one-dimensional")
    problem = config.problem.build()
    exact = problem.exact(config.problem.final_time)
    f = dgsolver.solve(problem, config.problem.mesh(n), degree, cfl=config.cfl_for(degree))
    # cell-midpoint reference grid avoids double-valued interface points
    ref = -1.0 + (2.0 * np.arange(pts_per_element) + 1.0) / pts_per_element
    xs = None
    columns: dict[str, np.ndarray] = {}
    shift_cols: dict[str, np.ndarray] = {}
    markers: dict[str, tuple] = {}
    for v in config.filters:
        cfg = filter_config(v, degree)
        ff = postproc.filter_field(f, cfg, config.policy, ref_points=ref)
        if xs is None:
            xs = ff.points(0).ravel()
        columns[v.name] = ff.values.ravel()
        shift_cols[v.name] = ff.shifts[0].ravel()
        if config.policy == postproc.POLICY_BOUNDARY:
            markers[v.name] = postproc.boundary_zone_edges(
                ff.kernels[0].support_width, config.problem.domain[0], f.mesh.h[0]
            )
    u_ex = exact(xs)
    u_h = dgsolver.sample(f, xs)
    return {
        "x": xs,
        "u_exact": u_ex,
        "u_h": u_h,
        "dg_error": np.abs(u_ex - u_h),
        "filtered": columns,
        "filtered_error": {name: np.abs(u_ex - vals) for name, vals in columns.items()},
        "shifts": shift_cols,
        "markers": markers,
    }
