"""The siac layers as the traced run sees them, and their per-pass metrics.

Each entry wraps one public function of a module; two functions may share a
span name when they do the same job (the 1D and batched weight application,
the 1D and 2D filter functions).  `install` swaps them in for one traced pass;
`pass_metrics` turns that pass's spans and counts into the per-layer metrics.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import math
from collections import Counter

import spans

# (module under siac, attribute, span name)
WRAPPED = (
    ("dgsolver", "solve", "dgsolver.solve"),
    ("dgsolver", "project_function", "dgsolver.project"),
    ("dgsolver", "l2_error", "dgsolver.l2_error"),
    ("basisfn", "basis", "basisfn.basis"),
    ("filtercore", "build_filter", "filtercore.build_filter"),
    ("filtercore", "solve_coefficients_exact", "filtercore.solve_exact"),
    ("filtercore", "solve_coefficients_mp", "filtercore.solve_mp"),
    ("filtercore", "bump_basis", "filtercore.bump_basis"),
    ("postproc", "filter_field", "postproc.filter"),
    ("postproc", "filter_field_2d", "postproc.filter"),
    ("postproc", "kernel_weights", "postproc.kernel_weights"),
    ("postproc", "apply_weights_1d", "postproc.apply"),
    ("postproc", "apply_weights_batched", "postproc.apply"),
    ("postproc", "convolve_point", "postproc.convolve_point"),
    ("postproc", "FilteredField.l2_error", "postproc.filtered_l2"),
    ("harness.runner", "filtered_error", "harness.filtered_error"),
)
SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in WRAPPED))
# "bench" holds the benchmark's own span, one per cell
MODULES = ("dgsolver", "basisfn", "filtercore", "postproc", "harness", "bench")

# per-layer metrics: (name, unit, better); every traced run reports all of them
METRICS = (
    [(f"{n}_s", "s", "lower") for n in SPAN_NAMES]
    + [(f"{n}_calls", "count", "lower") for n in SPAN_NAMES]
    + [(f"{m}.self_s", "s", "lower") for m in MODULES]
    + [(f"{m}.busy_s", "s", "lower") for m in MODULES if m != "bench"]
    + [
        ("dgsolver.rk4_steps", "count", "lower"),
        ("dgsolver.dof_steps_per_s", "1/s", "higher"),
        ("filtercore.build_unique_frac", "ratio", "higher"),
        ("filtercore.shifted_builds", "count", "lower"),
        ("postproc.boundary_point_frac", "ratio", "lower"),
        ("trace.sweep_s", "s", "lower"),
        ("trace.spans", "count", "lower"),
        ("trace.overhead_frac", "ratio", "lower"),
    ]
)
# counts that depend only on the cell list, never on timing or the seed
EXACT_COUNTS = tuple(
    [f"{n}_calls" for n in SPAN_NAMES]
    + ["dgsolver.rk4_steps", "filtercore.shifted_builds", "postproc.boundary_point_frac", "trace.spans"]
)


def _owner(module: str, attr: str):
    """The object holding `attr` (a class for "Class.method") and the bare name."""
    owner = importlib.import_module(f"siac.{module}")
    *outer, name = attr.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, name


class LayerCounts:
    """Counts recorded at the layer boundaries during one traced pass."""

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.counts: Counter = Counter()
        self.configs: set = set()


def install(tracer: spans.Tracer, counts: LayerCounts) -> None:
    """Wrap every layer function in WRAPPED, with the counting hooks."""
    dgsolver = importlib.import_module("siac.dgsolver")
    solve_signature = inspect.signature(dgsolver.solve)
    stable_dt = dgsolver.stable_dt

    def count_solve(args, kwargs, result):
        # RK4 steps computed the way solve() derives them from stable_dt
        a = solve_signature.bind(*args, **kwargs)
        a.apply_defaults()
        p = a.arguments
        t_final = p["problem"].final_time
        steps = 0
        if t_final > 0:
            dt = stable_dt(p["mesh"], p["degree"], p["problem"].speed, p["cfl"], p["dt_exponent"])
            steps = int(math.floor(t_final / dt + 1e-12))
            steps += t_final - steps * dt > 1e-13 * max(t_final, 1.0)
        counts.counts["rk4_steps"] += steps
        counts.counts["dof_steps"] += steps * result.coeffs.size

    def count_build(args, kwargs, result):
        config = args[0] if args else kwargs["config"]
        counts.counts["shifted_builds"] += config.shift != 0
        # scaling is stored on the kernel only; the solve does not depend on it
        counts.configs.add(dataclasses.replace(config, scaling=1.0))

    def count_points(args, kwargs, result):
        counts.counts["filtered_points"] += result.values.size

    hooks = {"dgsolver.solve": count_solve, "filtercore.build_filter": count_build, "postproc.filter": count_points}
    for module, attr, name in WRAPPED:
        tracer.wrap(*_owner(module, attr), name, hooks.get(name))


def pass_metrics(tracer: spans.Tracer, first: int, counts: LayerCounts) -> dict:
    """Per-layer metrics of the pass whose spans start at index `first`."""
    self_s, calls = spans.totals(tracer.spans, first)
    busy = spans.busy_times(tracer.spans, first)
    m: dict = {}
    for n in SPAN_NAMES:
        m[f"{n}_s"] = self_s.get(n, 0.0)
        m[f"{n}_calls"] = calls.get(n, 0)
    for mod in MODULES:
        m[f"{mod}.self_s"] = sum(t for n, t in self_s.items() if spans.module_of(n) == mod)
        if mod != "bench":
            m[f"{mod}.busy_s"] = busy.get(mod, 0.0)
    c = counts.counts
    solve_s = m["dgsolver.solve_s"]
    builds = m["filtercore.build_filter_calls"]
    m["dgsolver.rk4_steps"] = c["rk4_steps"]
    m["dgsolver.dof_steps_per_s"] = c["dof_steps"] / solve_s if solve_s > 0 else 0.0
    m["filtercore.build_unique_frac"] = len(counts.configs) / builds if builds else 0.0
    m["filtercore.shifted_builds"] = c["shifted_builds"]
    points = c["filtered_points"]
    m["postproc.boundary_point_frac"] = m["postproc.convolve_point_calls"] / points if points else 0.0
    m["trace.sweep_s"] = sum(s[spans.END] - s[spans.START] for s in tracer.spans[first:] if s[spans.PARENT] < 0)
    m["trace.spans"] = len(tracer.spans) - first
    return m
