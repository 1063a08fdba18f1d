"""Verification suite: property checks plus reference-table comparisons.

Each numbered check family mirrors one acceptance requirement; all share one
context, which runs each preset sweep once for every check that reads it.
Filtered-solution orders are asserted as lower bounds (observed
superconvergence orders routinely overshoot 2k+1 on coarse sweeps); DG orders
are asserted two-sided.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial
from typing import Callable, Optional

import numpy as np

from .. import basisfn, dgsolver, filtercore, postproc
from ..filtercore import FilterConfig, FilterKernel
from ..quadrature import gauss_rule
from .config import RunConfig, load_preset
from .runner import ConvergenceReport, run_convergence


# degree -> element counts of each preset's sweep; criteria 1 and 4-6 check every cell
SWEEPS = {
    "table1_general": {1: (20, 40, 80), 2: (20, 40, 80), 3: (20, 40, 80)},
    "table3_compact": {1: (20, 40, 80), 2: (20, 40, 80), 3: (20, 40, 80)},
    "table4_boundary": {2: (20, 40, 80), 3: (20, 40, 80)},
    "table5_2d": {1: (10, 20, 40), 2: (10, 20, 40), 3: (10, 20)},
}

# criteria 2 and 3 stop k = 3 at N = 40
FILTERED_ROWS_1 = {**SWEEPS["table1_general"], 3: (20, 40)}

# draws criterion 7's random abscissae
SEED = 20260808


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


class VerifyContext:
    """Presets and sweep reports shared across check families."""

    def __init__(self, progress: Optional[Callable[[str], None]] = None):
        self.progress = progress or (lambda _msg: None)
        self._reports: dict[str, ConvergenceReport] = {}
        self._presets: dict[str, RunConfig] = {}

    def preset(self, name: str) -> RunConfig:
        if name not in self._presets:
            self._presets[name] = load_preset(name)
        return self._presets[name]

    def report(self, name: str) -> ConvergenceReport:
        if name not in self._reports:
            cfg = self.preset(name)
            self.progress(f"running {name} sweep")
            cells = [(k, n) for k, ns in SWEEPS[name].items() for n in ns]
            self._reports[name] = run_convergence(cfg, cells=cells)
        return self._reports[name]


def _ratio_check(name: str, got: Optional[float], ref: Optional[float], factor: float) -> CheckResult:
    if got is None or ref is None:
        return CheckResult(name, False, "missing value")
    ok = ref / factor <= got <= ref * factor
    return CheckResult(name, ok, f"measured {got:.3e}, reference {ref:.3e}, ratio {got / ref:.3f} (allowed x{factor})")


def _order_window(name: str, got: float, target: float, window: float) -> CheckResult:
    return CheckResult(name, abs(got - target) <= window, f"order {got:.2f}, target {target} +- {window}")


def _order_floor(name: str, got: float, floor: float) -> CheckResult:
    return CheckResult(name, got >= floor, f"order {got:.2f}, floor {floor:.2f}")


def cell_checks(
    crit: str, report: ConvergenceReport, column: str, k: int, n: int, factor: float,
    order_rule: Optional[Callable[[str, float], CheckResult]],
    *, require_order: bool = False,
) -> list[CheckResult]:
    """The -error and -order checks of one table cell.

    The error must lie within a factor of the preset reference; order_rule
    then judges the observed order.  An order the sweep lacks (its coarsest
    N) is skipped, or fails when required, and a reference below the preset
    floor skips the whole cell, as `tables.comparison_text` marks it.
    """
    cfg = report.config
    ref = cfg.reference_value(column, k, n)
    if ref is not None and ref < cfg.floor:
        return []
    tag = f"k={k} N={n}x{n}" if cfg.problem.dim == 2 else f"k={k} N={n}"
    out = [_ratio_check(f"{crit}/{column}-error {tag}", report.cell(column, k, n), ref, factor)]
    order = report.cell(column, k, n, "order")
    name = f"{crit}/{column}-order {tag}"
    if order_rule is not None and order is not None:
        out.append(order_rule(name, order))
    elif order_rule is not None and require_order:
        out.append(CheckResult(name, False, "missing order"))
    return out


# how the pairwise comparisons name a column
PAIR_LABELS = {"raised_cosine": "raised cosine", "central_bspline": "B-spline"}


def pair_check(
    name: str, report: ConvergenceReport, k: int, n: int, first: str, second: str,
    limit: Callable[[float], float] = lambda v: v, rule: str = "",
) -> CheckResult:
    """In cell (k, n), the first column's error may not exceed limit(the second's)."""
    a, b = report.cell(first, k, n), report.cell(second, k, n)
    if a is None or b is None:
        return CheckResult(name, False, "missing value")
    labels = [PAIR_LABELS.get(col, col) for col in (first, second)]
    return CheckResult(name, a <= limit(b), f"{labels[0]} {a:.3e} vs {labels[1]} {b:.3e}{rule}")


def _dg_rule(k: int, tol: dict) -> tuple:
    """DG errors within dg_error_factor, orders within dg_order_window of k+1."""
    return tol["dg_error_factor"], partial(_order_window, target=k + 1, window=tol["dg_order_window"])


def _filtered_rule(k: int, tol: dict) -> tuple:
    """Filtered errors within filtered_error_factor, orders at least 2k+1 - slack (k = 3: its own, if set)."""
    slack = tol["filtered_order_slack"]
    if k == 3:
        slack = tol.get("filtered_order_slack_k3", slack)
    return tol["filtered_error_factor"], partial(_order_floor, floor=2 * k + 1 - slack)


def _table_checks(ctx: VerifyContext, crit: str, preset: str, columns: tuple, rows: dict,
                  rule: Callable[[int, dict], tuple] = _filtered_rule) -> list[CheckResult]:
    """Criteria 1-4 and 6: every cell of each column, degree and N, judged by rule(k, tolerances)."""
    report = ctx.report(preset)
    out = []
    for column in columns:
        for k, ns in rows.items():
            factor, order_rule = rule(k, report.config.tolerances)
            for n in ns:
                out += cell_checks(crit, report, column, k, n, factor, order_rule)
    return out


# ---------------------------------------------------------------------------
# criteria 1-6: the reference tables


def check_dg_convergence(ctx: VerifyContext) -> list[CheckResult]:
    return _table_checks(ctx, "criterion-1", "table1_general", ("dg",), SWEEPS["table1_general"], _dg_rule)


def check_bspline_filtering(ctx: VerifyContext) -> list[CheckResult]:
    return _table_checks(ctx, "criterion-2", "table1_general", ("central_bspline",), FILTERED_ROWS_1)


def check_raised_cosine(ctx: VerifyContext) -> list[CheckResult]:
    out = _table_checks(ctx, "criterion-3", "table1_general", ("raised_cosine",), FILTERED_ROWS_1)
    report = ctx.report("table1_general")
    rc_factor = report.config.tolerances["rc_vs_bspline_factor"]
    return out + [
        pair_check(f"criterion-3/rc-vs-bspline k=3 N={n}", report, 3, n, "raised_cosine", "central_bspline",
                   lambda bs: bs * rc_factor, f" (allowed x{rc_factor})")
        for n in FILTERED_ROWS_1[3]
    ]


def check_compact_filtering(ctx: VerifyContext) -> list[CheckResult]:
    out = _table_checks(ctx, "criterion-4", "table3_compact", ("compact",), SWEEPS["table3_compact"])
    report = ctx.report("table3_compact")
    min_ratio = report.config.tolerances["compact_vs_standard_min_ratio"]
    return out + [
        pair_check(f"criterion-4/compact-vs-standard k=3 N={n}", report, 3, n, "compact", "standard",
                   lambda std: std / min_ratio, f" (required <= standard/{min_ratio})")
        for n in SWEEPS["table3_compact"][3]
    ]


def check_boundary_filtering(ctx: VerifyContext) -> list[CheckResult]:
    """Criterion 5: position-dependent filtering; compact orders required from N = 40 on."""
    report = ctx.report("table4_boundary")
    tol = report.config.tolerances
    factor, floor_offset = tol["error_factor"], tol["order_floor_offset"]
    out = []
    for k, ns in SWEEPS["table4_boundary"].items():
        rule = partial(_order_floor, floor=2 * k + floor_offset)
        for n in ns:
            name = f"criterion-5/compact-beats-standard k={k} N={n}"
            out.append(pair_check(name, report, k, n, "compact", "standard"))
            out += cell_checks("criterion-5", report, "standard", k, n, factor, None)
            out += cell_checks(
                "criterion-5", report, "compact", k, n, factor, rule if n >= 40 else None, require_order=True
            )
    return out


def check_2d_filtering(ctx: VerifyContext) -> list[CheckResult]:
    return _table_checks(ctx, "criterion-6", "table5_2d", ("standard", "compact"), SWEEPS["table5_2d"])


# ---------------------------------------------------------------------------
# criterion 7: paper-independent property suite


def standard_kernel_set() -> dict[str, FilterKernel]:
    kernels: dict[str, FilterKernel] = {}
    for k in range(1, 4):
        node_kinds = [
            ("standard", None),
            ("compact-default", None),
            ("compact-half", Fraction(1, 2)),
        ]
        for basis in ("box", "raised_cosine", "bump"):
            for label, eps in node_kinds:
                nodes = "standard" if label == "standard" else "compact"
                kernels[f"{basis}/{label}/k={k}"] = filtercore.build_filter(
                    FilterConfig(k=k, basis=basis, nodes=nodes, epsilon=eps)
                )
    return kernels


def reproduction_checks(kernels: dict[str, FilterKernel], xs) -> list[CheckResult]:
    """One reproduction check per kernel, then one unit-integral check per kernel.

    Both the stored binary64 and the solve-precision coefficients must
    reproduce every degree <= 2k; each set takes one defect pass
    (`filtercore.reproduction_residuals`), whose first maximal entry names
    the worst degree.  The unit integral is the degree-0 defect of the
    solve-precision pass: binary64 storage of large compact coefficients
    already carries ~1e-13 representation noise, so the stored pass serves
    only imports that carried nothing else.
    """
    reproduction, unit_integral = [], []
    for label, kernel in kernels.items():
        passed, parts = True, []
        for name, coefficients in (
            ("stored", kernel.coefficients),
            ("solve-precision", kernel.coefficients_exact),
        ):
            if coefficients is None:
                parts.append(f"{name} coefficients absent")
                continue
            residuals = filtercore.reproduction_residuals(kernel, xs, coefficients)
            worst = max(residuals)
            passed = passed and worst < 1e-10
            parts.append(f"{name} worst residual {worst:.2e} at degree {residuals.index(worst)}")
            defect = residuals[0]  # the solve-precision pass, when there is one, comes last
        reproduction.append(
            CheckResult(f"criterion-7/reproduction {label}", passed, f"{'; '.join(parts)} (tol 1e-10)")
        )
        unit_integral.append(
            CheckResult(
                f"criterion-7/unit-integral {label}",
                defect < 1e-14,
                f"|sum c_g * integral(phi) - 1| = {defect:.2e}",
            )
        )
    return reproduction + unit_integral


def support_checks(kernels: dict[str, FilterKernel]) -> list[CheckResult]:
    """Box kernel widths: 3k+1 standard, (2*eps+1)k+1 compact."""
    out = []
    for k in sorted({kernel.k for kernel in kernels.values()}):
        kern = kernels[f"box/standard/k={k}"]
        ok = kern.support_width_exact == Fraction(3 * k + 1)
        out.append(CheckResult(f"criterion-7/support standard k={k}", ok,
                               f"width {kern.support_width_exact} == {3 * k + 1}"))
        compact = [kernels[f"box/{label}/k={k}"] for label in ("compact-half", "compact-default")]
        # keyed by epsilon: one check at k=1, where both layouts have eps = 1/2
        for eps, kern in {c.nodes.epsilon: c for c in compact}.items():
            want = (2 * eps + 1) * k + 1
            ok = kern.support_width_exact == want
            out.append(CheckResult(f"criterion-7/support compact k={k} eps={eps}", ok,
                                   f"width {kern.support_width_exact} == {want}"))
    return out


def dual_solver_checks() -> list[CheckResult]:
    out = []
    for k in range(1, 5):
        basis = basisfn.basis("box", k + 1)
        for kind in ("standard", "compact"):
            nodes = filtercore.make_nodes(k, kind)
            exact = np.array([float(c) for c in filtercore.solve_coefficients_exact(basis, nodes)])
            approx = np.array([float(c) for c in filtercore.solve_coefficients_mp(basis, nodes)])
            rel = float(np.max(np.abs(exact - approx) / np.maximum(np.abs(exact), 1e-30)))
            out.append(
                CheckResult(
                    f"criterion-7/dual-solver {kind} k={k}",
                    rel < 1e-12,
                    f"rational vs extended-precision coefficients differ by {rel:.2e}",
                )
            )
    return out


def _raised_cosine_reference(order: int) -> Callable[[float], float]:
    pi = math.pi
    if order == 2:

        def rc2(x: float) -> float:
            if -1 <= x < 0:
                return 0.5 * (1 + x) - math.sin(2 * pi * x) / (4 * pi)
            if 0 <= x <= 1:
                return 0.5 * (1 - x) + math.sin(2 * pi * x) / (4 * pi)
            return 0.0

        return rc2
    if order == 3:

        def rc3(x: float) -> float:
            if -1.5 <= x < -0.5:
                return (2 * x + 3) ** 2 / 16.0 - (1 + math.cos(2 * pi * x)) / (8 * pi**2)
            if -0.5 <= x < 0.5:
                return (-4 * x * x + 3) / 8.0 + (1 + math.cos(2 * pi * x)) / (4 * pi**2)
            if 0.5 <= x <= 1.5:
                return (2 * x - 3) ** 2 / 16.0 - (1 + math.cos(2 * pi * x)) / (8 * pi**2)
            return 0.0

        return rc3
    if order == 4:

        def rc4(x: float) -> float:
            if -2 <= x < -1:
                return (x + 2) ** 3 / 12.0 + (-2 * pi * (x + 2) + math.sin(2 * pi * x)) / (16 * pi**3)
            if -1 <= x < 0:
                return (-3 * x**3 - 6 * x**2 + 4) / 12.0 + (2 * pi * (3 * x + 2) - 3 * math.sin(2 * pi * x)) / (16 * pi**3)
            if 0 <= x < 1:
                return (3 * x**3 - 6 * x**2 + 4) / 12.0 + (2 * pi * (-3 * x + 2) + 3 * math.sin(2 * pi * x)) / (16 * pi**3)
            if 1 <= x <= 2:
                return (2 - x) ** 3 / 12.0 + (2 * pi * (x - 2) - math.sin(2 * pi * x)) / (16 * pi**3)
            return 0.0

        return rc4
    raise ValueError(order)


def _bspline_reference_exact(order: int, x: Fraction) -> Fraction:
    """The published closed forms in exact rational arithmetic, zero off the support."""
    if order not in (2, 3, 4):
        raise ValueError(order)
    if abs(x) > Fraction(order, 2):
        return Fraction(0)
    if order == 2:
        return 1 + x if x < 0 else 1 - x
    if order == 3:
        if x < Fraction(-1, 2):
            return (2 * x + 3) ** 2 / Fraction(8)
        if x < Fraction(1, 2):
            return (-4 * x * x + 3) / Fraction(4)
        return (2 * x - 3) ** 2 / Fraction(8)
    if x < -1:
        return (x + 2) ** 3 / Fraction(6)
    if x < 0:
        return (-3 * x**3 - 6 * x**2 + 4) / Fraction(6)
    if x < 1:
        return (3 * x**3 - 6 * x**2 + 4) / Fraction(6)
    return (2 - x) ** 3 / Fraction(6)


def closed_form_checks(rng: np.random.Generator) -> list[CheckResult]:
    out = []
    for order in (2, 3, 4):
        f = basisfn.basis("box", order)
        xs = rng.uniform(-order / 2, order / 2, 100)
        worst = max(abs(f(float(x)) - float(_bspline_reference_exact(order, Fraction(x)))) for x in xs)
        # exact rational agreement at random rational abscissae
        exact_ok = all(
            f.evaluate_exact(Fraction(int(p), 64)) == _bspline_reference_exact(order, Fraction(int(p), 64))
            for p in rng.integers(-order * 32 + 1, order * 32 - 1, 20)
        )
        out.append(
            CheckResult(
                f"criterion-7/closed-form bspline order={order}",
                worst < 1e-14 and exact_ok,
                f"max dev {worst:.2e}, rational agreement {exact_ok}",
            )
        )
    for order in (2, 3, 4):
        f = basisfn.basis("raised_cosine", order)
        ref = _raised_cosine_reference(order)
        xs = rng.uniform(-order / 2, order / 2, 100)
        worst = max(abs(f(float(x)) - ref(float(x))) for x in xs)
        out.append(
            CheckResult(
                f"criterion-7/closed-form raised-cosine order={order}",
                worst < 1e-14,
                f"max dev {worst:.2e}",
            )
        )
    return out


def property1_checks(rng: np.random.Generator) -> list[CheckResult]:
    """D phi^(l) (x) == phi^(l-1)(x + 1/2) - phi^(l-1)(x - 1/2) off breakpoints."""
    out = []
    for kind in ("box", "raised_cosine"):
        for order in (2, 3, 4, 5):
            f = basisfn.basis(kind, order)
            g = basisfn.basis(kind, order - 1)
            d = f.derivative()
            worst = 0.0
            half = order / 2.0
            count = 0
            while count < 100:
                x = float(rng.uniform(-half, half))
                if min(abs(x - float(b)) for b in f.breakpoints) < 1e-6:
                    continue
                count += 1
                lhs = d(x)
                rhs = g(x + 0.5) - g(x - 0.5)
                worst = max(worst, abs(lhs - rhs))
            out.append(
                CheckResult(
                    f"criterion-7/derivative-identity {kind} order={order}",
                    worst < 1e-13,
                    f"max dev {worst:.2e}",
                )
            )
    return out


def property2_residual() -> float:
    """max |d/dx (K_h * v) - Ktilde_h * dd_h v| for smooth v = sin(2 pi x).

    The left side convolves v with the derivative kernel: the kernel's nodes
    and coefficients on the differentiated basis.  Ktilde keeps the same
    nodes and coefficients on the basis one order lower; the half-step
    divided difference of v replaces the derivative.
    """
    h = 0.1
    kernel = filtercore.build_filter(FilterConfig(k=2, basis="box"))
    dkernel = replace(kernel, basis=kernel.basis.derivative(), coefficients_exact=None)
    tilde = replace(dkernel, basis=basisfn.basis("box", 2))
    gr, gw = gauss_rule(12)

    def v(x):
        return np.sin(2.0 * np.pi * x)

    def vdd(x):
        return (v(x + h / 2.0) - v(x - h / 2.0)) / h

    def convolve(kern: FilterKernel, x: float, g: Callable, power: int) -> float:
        """integral of kern((x - y) / h) / h^power g(y) dy, piece by piece between breakpoints."""
        ys = [x - h * t for t in reversed(kern.breakpoints_unscaled)]
        total = 0.0
        for a, b in zip(ys, ys[1:]):
            half = 0.5 * (b - a)
            y = a + half * (gr + 1.0)
            total += float(np.dot(half * gw, kern.evaluate_unscaled((x - y) / h) / h**power * g(y)))
        return total

    xs = np.linspace(0.13, 0.87, 9)
    return max(abs(convolve(dkernel, x, v, 2) - convolve(tilde, x, vdd, 1)) for x in xs)


def preservation_checks() -> list[CheckResult]:
    out = []
    mesh = dgsolver.interval_mesh(0.0, 1.0, 12)
    const = dgsolver.project_function(lambda x: np.full_like(np.asarray(x, dtype=float), 2.5), mesh, 2)
    worst = 0.0
    for basis in ("box", "raised_cosine"):
        for nodes in ("standard", "compact"):
            ff = postproc.filter_field(const, FilterConfig(k=2, basis=basis, nodes=nodes))
            worst = max(worst, float(np.max(np.abs(ff.values - 2.5))))
    out.append(
        CheckResult("criterion-7/constant-preservation", worst < 1e-13, f"max deviation {worst:.2e}")
    )

    f1 = dgsolver.project_function(lambda x: np.sin(2 * np.pi * np.asarray(x)), mesh, 2)
    f2 = dgsolver.project_function(lambda x: np.cos(2 * np.pi * np.asarray(x)) ** 2, mesh, 2)
    alpha, beta = 0.7, -1.3
    combo = dgsolver.DGField(mesh, 2, alpha * f1.coeffs + beta * f2.coeffs)
    cfgf = FilterConfig(k=2, basis="box")
    lin = postproc.filter_field(combo, cfgf).values
    sep = alpha * postproc.filter_field(f1, cfgf).values + beta * postproc.filter_field(f2, cfgf).values
    rel = float(np.max(np.abs(lin - sep)) / np.max(np.abs(sep)))
    out.append(CheckResult("criterion-7/linearity", rel < 1e-13, f"relative deviation {rel:.2e}"))

    problem = dgsolver.AdvectionProblem(
        (1.0,), lambda x: 2.0 + np.sin(2.0 * np.pi * np.asarray(x)), 0.5, "offset_sine"
    )
    mesh16 = dgsolver.interval_mesh(0.0, 1.0, 16)
    f0 = dgsolver.project_initial(problem, mesh16, 2)
    fT = dgsolver.solve(problem, mesh16, 2, cfl=0.05)
    mass_rel = abs(fT.mass() - f0.mass()) / abs(f0.mass())
    out.append(CheckResult("criterion-7/mass-conservation", mass_rel < 1e-13, f"relative drift {mass_rel:.2e}"))
    norm_growth = fT.norm() - f0.norm()
    out.append(CheckResult("criterion-7/l2-stability", norm_growth <= 1e-12, f"norm growth {norm_growth:+.2e}"))
    return out


def check_properties(ctx: VerifyContext) -> list[CheckResult]:
    rng = np.random.default_rng(SEED)
    xs = rng.uniform(-2.0, 2.0, 50)
    ctx.progress("building property-suite kernels")
    kernels = standard_kernel_set()
    out = reproduction_checks(kernels, xs)
    out += support_checks(kernels)
    out += dual_solver_checks()
    out += closed_form_checks(rng)
    out += property1_checks(rng)
    res = property2_residual()
    out.append(CheckResult("criterion-7/difference-quotient-identity", res < 1e-10,
                           f"max residual {res:.2e} (tol 1e-10)"))
    out += preservation_checks()
    return out


# ---------------------------------------------------------------------------
# criterion 8: smoothness restoration


def check_smoothness(ctx: VerifyContext) -> list[CheckResult]:
    cfg = ctx.preset("table1_general")
    field = dgsolver.solve(cfg.problem.build(), cfg.problem.mesh(40), 2, cfl=cfg.cfl_for(2))
    dg_jump = float(np.max(dgsolver.interface_jumps(field)))
    kernel = filtercore.build_filter(FilterConfig(k=2, basis="box"))
    filt_jump = float(np.max(postproc.filtered_interface_jumps(field, kernel)))
    ok = filt_jump <= 1e-10 * dg_jump
    return [
        CheckResult(
            "criterion-8/smoothness",
            ok,
            f"filtered max jump {filt_jump:.2e} vs 1e-10 * DG max jump {1e-10 * dg_jump:.2e}",
        )
    ]


# ---------------------------------------------------------------------------


CRITERIA = {
    1: ("DG convergence", check_dg_convergence),
    2: ("central B-spline filtering", check_bspline_filtering),
    3: ("raised-cosine filtering", check_raised_cosine),
    4: ("compact filtering", check_compact_filtering),
    5: ("boundary filtering", check_boundary_filtering),
    6: ("2D tensor filtering", check_2d_filtering),
    7: ("property suite", check_properties),
    8: ("smoothness restoration", check_smoothness),
}


def run_all(progress: Optional[Callable[[str], None]] = None) -> dict:
    ctx = VerifyContext(progress=progress)
    checks: list[CheckResult] = []
    summary = []
    for num, (label, fn) in CRITERIA.items():
        if progress:
            progress(f"criterion {num}: {label}")
        results = fn(ctx)
        checks.extend(results)
        ok = all(r.passed for r in results)
        summary.append({"criterion": num, "label": label, "passed": ok, "checks": len(results)})
        if progress:
            progress(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({len(results)} checks)")
    return {
        "passed": all(s["passed"] for s in summary),
        "criteria": summary,
        "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail} for c in checks],
    }
