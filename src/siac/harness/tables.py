"""Render convergence reports and point data as CSV and aligned text tables.

Every CSV goes through `columns_csv`.
"""

from __future__ import annotations

import io
from typing import Optional

from .runner import ConvergenceReport


def fmt_float(v: Optional[float]) -> str:
    """Shortest representation that round-trips binary64."""
    if v is None:
        return ""
    return repr(float(v))


def fmt_sci(v: Optional[float]) -> str:
    return "--" if v is None else f"{v:.2e}"


def fmt_order(v: Optional[float]) -> str:
    return "--" if v is None else f"{v:.2f}"


def columns_csv(columns: dict) -> str:
    """CSV of equal-length columns {name: values}: floats by `fmt_float`, strings as they are."""
    lines = [",".join(columns)]
    for row in zip(*columns.values()):
        lines.append(",".join(v if isinstance(v, str) else fmt_float(v) for v in row))
    return "\n".join(lines) + "\n"


def report_csv(report: ConvergenceReport) -> str:
    cells = report.cells()
    columns = {"degree": [str(k) for k, _ in cells], "elements": [str(n) for _, n in cells]}
    for col in report.columns:
        for what in ("error", "order"):
            columns[f"{col}_{what}"] = [report.cell(col, k, n, what) for k, n in cells]
    return columns_csv(columns)


def report_text(report: ConvergenceReport) -> str:
    """Aligned table: Degree x Elements x {DG, each filter} (error, order)."""
    cols = report.columns
    titles = {c: "DG" if c == "dg" else c.replace("_", " ") for c in cols}
    width = max(18, max(len(t) for t in titles.values()) + 2)
    out = io.StringIO()
    if report.config.title:
        out.write(report.config.title + "\n")
    head = f"{'Degree':<8}{'Elements':<10}"
    for c in cols:
        head += f"{titles[c]:>{width}}{'Order':>8}"
    out.write(head + "\n")
    out.write("-" * len(head) + "\n")
    last_degree = None
    for deg, n in report.cells():
        label = f"k = {deg}" if deg != last_degree else ""
        last_degree = deg
        line = f"{label:<8}{n:<10}"
        for c in cols:
            line += f"{fmt_sci(report.cell(c, deg, n)):>{width}}{fmt_order(report.cell(c, deg, n, 'order')):>8}"
        out.write(line + "\n")
    return out.getvalue()


def _pointwise_columns(data: dict) -> dict:
    """Columns: x, u_exact, u_h, |err_h|, then per filter u_star, |err_star|, shift."""
    columns = {"x": data["x"], "u_exact": data["u_exact"], "u_h": data["u_h"], "abs_err_h": data["dg_error"]}
    for name in sorted(data["filtered"]):
        columns[f"u_star_{name}"] = data["filtered"][name]
        columns[f"abs_err_star_{name}"] = data["filtered_error"][name]
        columns[f"shift_{name}"] = data["shifts"][name]
    return columns


def pointwise_csv(data: dict) -> str:
    return columns_csv(_pointwise_columns(data))


def pointwise_plot_script(csv_name: str, data: dict) -> str:
    """gnuplot script plotting DG vs filtered point-wise errors from `pointwise_csv`'s CSV."""
    # gnuplot numbers the CSV's columns from 1
    col = {name: i for i, name in enumerate(_pointwise_columns(data), start=1)}
    lines = [
        "set datafile separator ','",
        "set logscale y",
        "set xlabel 'x'",
        "set ylabel 'point-wise error'",
        "set key outside",
    ]
    for name, (left, right) in data.get("markers", {}).items():
        lines.append(f"set arrow from {left}, graph 0 to {left}, graph 1 nohead dt 2")
        lines.append(f"set arrow from {right}, graph 0 to {right}, graph 1 nohead dt 2")
        # big dots mark the hand-off between shifted and symmetric filtering
        lines.append(f"set label at {left}, graph 0.5 point pt 7 ps 2")
        lines.append(f"set label at {right}, graph 0.5 point pt 7 ps 2")
    plot = [f"'{csv_name}' using {col['x']}:{col['abs_err_h']} with lines title 'DG'"]
    for name in sorted(data["filtered"]):
        plot.append(
            f"'{csv_name}' using {col['x']}:{col[f'abs_err_star_{name}']} with lines title '{name.replace('_', ' ')}'"
        )
    lines.append("plot " + ", \\\n     ".join(plot))
    lines.append("pause -1")
    return "\n".join(lines) + "\n"


def comparison_text(report: ConvergenceReport) -> str:
    """Side-by-side measured vs reference errors where references exist."""
    cfg = report.config
    if not cfg.reference:
        return ""
    out = io.StringIO()
    out.write(f"{'column':<18}{'k':>3}{'N':>6}{'measured':>13}{'reference':>13}{'ratio':>9}\n")
    for deg, n in report.cells():
        for col in report.columns:
            ref = cfg.reference_value(col, deg, n)
            got = report.cell(col, deg, n)
            if ref is None or got is None:
                continue
            if ref < cfg.floor:
                out.write(f"{col:<18}{deg:>3}{n:>6}{got:>13.3e}{ref:>13.3e}{'floor':>9}\n")
            else:
                out.write(f"{col:<18}{deg:>3}{n:>6}{got:>13.3e}{ref:>13.3e}{got / ref:>9.3f}\n")
    return out.getvalue()
