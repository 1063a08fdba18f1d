"""Run configs: solve, filter, and collect the errors of each convergence cell."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .. import dgsolver, filtercore, postproc
from .config import ConfigError, FilterVariant, RunConfig


def observed_order(e_coarse: float, e_fine: float, n_coarse: int, n_fine: int) -> float:
    return math.log(e_coarse / e_fine) / math.log(n_fine / n_coarse)


@lru_cache(maxsize=64)
def filter_config(variant: FilterVariant, degree: int) -> filtercore.FilterConfig:
    return filtercore.FilterConfig(
        k=degree,
        basis=variant.basis,
        nodes=variant.nodes,
        epsilon=variant.epsilon,
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
    """The sweep's table: errors[(degree, N)] = {column: error}, orders on demand.

    The columns are "dg" and then each filter variant's name.  A cell's
    order comes from the next coarser N of the same degree in the report,
    and is None at the coarsest N or where either error is missing.
    """

    config: RunConfig
    errors: dict[tuple[int, int], dict[str, Optional[float]]] = field(default_factory=dict)

    @property
    def columns(self) -> list[str]:
        return ["dg"] + [f.name for f in self.config.filters]

    def cells(self) -> list[tuple[int, int]]:
        """The (degree, N) cells, sorted."""
        return sorted(self.errors)

    def cell(self, column: str, degree: int, elements: int, what: str = "error") -> Optional[float]:
        error = self.errors.get((degree, elements), {}).get(column)
        if what == "error" or error is None:
            return error
        n0 = max((n for k, n in self.errors if k == degree and n < elements), default=None)
        e0 = None if n0 is None else self.errors[degree, n0].get(column)
        return None if e0 is None else observed_order(e0, error, n0, elements)


def check_cells_fit(config: RunConfig, cells) -> None:
    """Refuse, as a ConfigError, every cell whose mesh is shorter than a filter's scaled support.

    The rule is the filter's own (`filtercore.check_support_fits`), applied
    to each axis of the cell's mesh before any DG solve.  The kernel comes
    from the stencil `postproc.filter_field` builds on its default grid
    (`dgsolver.element_rule`), so a sweep's filtering reuses it.
    """
    for k, n in sorted(cells):
        ref = dgsolver.element_rule(k)[0]
        mesh = config.problem.mesh(n)
        for v in config.filters:
            width = postproc.axis_stencil(filter_config(v, k), ref, k).kernel.support_width
            for (a, b), h in zip(mesh.bounds, mesh.h):
                try:
                    filtercore.check_support_fits(b - a, width, h)
                except filtercore.DomainTooShortError:
                    raise ConfigError(
                        f"elements: k={k}, N={n}: filter {v.name!r} has a scaled support of length "
                        f"{width * h}, longer than the domain length {b - a}"
                    ) from None


def run_convergence(
    config: RunConfig,
    cells=None,
    progress: Optional[Callable[[str], None]] = None,
    report: Optional[ConvergenceReport] = None,
) -> ConvergenceReport:
    """Solve + filter every (degree, N) cell, by default the config's degrees x elements.

    A cell enters the report once all its columns are computed; a
    caller-supplied report thus keeps every finished cell when a later one
    fails.
    """
    if cells is None:
        cells = [(k, n) for k in config.degrees for n in config.elements]
    problem = config.problem.build()
    check_cells_fit(config, cells)
    exact = problem.exact(config.problem.final_time)
    if report is None:
        report = ConvergenceReport(config)
    for k, n in cells:
        if progress:
            progress(f"degree {k}, {n} elements")
        f = dgsolver.solve(problem, config.problem.mesh(n), k, cfl=config.cfl_for(k))
        errors = {"dg": dgsolver.l2_error(f, exact, normalized=True)}
        errors.update((v.name, filtered_error(config, v, f, exact)) for v in config.filters)
        report.errors[k, n] = errors
    return report


def pointwise_data(
    config: RunConfig,
    degree: int,
    n: int,
    pts_per_element: int = 20,
) -> dict:
    """Dense per-element samples of exact, DG, and filtered values (1D)."""
    if config.problem.dim != 1:
        raise ConfigError(f"problem.dim: pointwise output is one-dimensional, got dim {config.problem.dim}")
    problem = config.problem.build()
    check_cells_fit(config, [(degree, n)])
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
