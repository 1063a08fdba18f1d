"""Apply scaled filter kernels to DG fields.

A filter is one linear operator per axis.  On a uniform mesh it is
translation invariant: for a fixed kernel, mesh spacing, and set of
in-element evaluation points, the filtered value is a fixed linear
combination of the modal coefficients of nearby elements.  Those weights are
integrals of kernel times Legendre mode over the pieces cut by kernel
breakpoints; they are computed once and applied along the axis as a tensor
contraction.  A boundary (position-dependent) point gets its own weight row
from the same quadrature for its shifted kernel, whose coefficients come from
the layout's one factorization (`filtercore.solve_coefficients`); the row is
applied along the same axis and replaces the periodic value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Optional

import numpy as np
from numpy.polynomial.legendre import legvander

from . import dgsolver, filtercore
from .dgsolver import DGField
from .filtercore import FilterConfig, FilterKernel, NumericBasis
from .quadrature import gauss_rule

POLICY_PERIODIC = "periodic_wrap"
POLICY_BOUNDARY = "position_dependent"
POLICIES = (POLICY_PERIODIC, POLICY_BOUNDARY)


# Basis samples (Gauss nodes times kernel nodes) per kernel evaluation.  The
# bump basis takes ~115 Gauss nodes per cut; evaluating a whole weight table
# at once would hold several MB of temporaries.
_SAMPLES_PER_EVALUATION = 1 << 14


def _kernel_quad_points(kernel: FilterKernel, extra_degree: int) -> int:
    deg = kernel.poly_degree
    if deg is not None:
        return max(2, math.ceil((deg + extra_degree + 2) / 2))
    if isinstance(kernel.basis, NumericBasis):
        rep = max(len(c) for c in kernel.basis.pieces)
        return math.ceil((rep + extra_degree + 2) / 2)
    return 10  # trig pieces: ten points per cut is plenty below 1e-12


# ---------------------------------------------------------------------------
# translation-invariant weights


@dataclass(frozen=True)
class KernelWeights:
    """Filtered value = sum_{j,m} weights[q, j, m] * coeffs[(J + j_min + j) % N, m]."""

    weights: np.ndarray
    j_min: int
    ref_points: tuple[float, ...]

    @property
    def n_shifts(self) -> int:
        return self.weights.shape[1]


def _segment_moments(kernel: FilterKernel, lo, hi, degree: int, tau_of, s_of, *per_segment) -> np.ndarray:
    """Kernel-weighted Legendre moments of every segment [lo[i], hi[i]].

    Row i is sum_g w_g K(tau_of(y_g, ...)) P_m(s_of(y_g, ...)), m = 0..degree,
    over a Gauss rule on the segment sized for the kernel piece degree;
    tau_of maps the nodes to kernel arguments, s_of to element reference
    coordinates, both given the segments' rows of the `per_segment` arrays.
    The kernel is evaluated once per batch of segments.
    """
    gr, gw = gauss_rule(_kernel_quad_points(kernel, degree))
    step = max(1, _SAMPLES_PER_EVALUATION // (len(gr) * kernel.nodes.count))
    out = np.empty((len(lo), degree + 1))
    for i in range(0, len(lo), step):
        batch = slice(i, i + step)
        cols = [c[batch] for c in per_segment]
        half = 0.5 * (hi[batch] - lo[batch])
        y = lo[batch, None] + half[:, None] * (gr + 1.0)
        kv = kernel.evaluate_unscaled(tau_of(y, *cols)) * (half[:, None] * gw)
        out[batch] = np.einsum("sg,sgm->sm", kv, legvander(s_of(y, *cols), degree))
    return out


def kernel_weights(kernel: FilterKernel, h: float, ref_points, degree: int) -> KernelWeights:
    """Per-element filtering weights for evaluation points fixed in the element.

    weights[q, j] integrates the kernel times each Legendre mode over element
    j_min + j in its reference coordinate s, split at every kernel
    breakpoint image; all (point, element, cut) segments share one kernel
    evaluation.
    """
    sigma = kernel.scaling / h
    t_lo, t_hi = kernel.support_unscaled
    bps = np.asarray(kernel.breakpoints_unscaled())
    ref = np.atleast_1d(np.asarray(ref_points, dtype=float))
    j_min = math.ceil((ref.min() - 1.0) / 2.0 - sigma * t_hi - 1e-12)
    j_max = math.floor((ref.max() + 1.0) / 2.0 - sigma * t_lo + 1e-12)
    nj = j_max - j_min + 1
    # s = r - 2j - 2 sigma t is the image of kernel argument t in element j
    origin = (ref[:, None] - 2.0 * np.arange(j_min, j_max + 1))[..., None]
    s_lo = np.maximum(-1.0, origin - 2.0 * sigma * t_hi)
    s_hi = np.minimum(1.0, origin - 2.0 * sigma * t_lo)
    s_bp = origin - 2.0 * sigma * bps
    inner = (s_lo + 1e-14 < s_bp) & (s_bp < s_hi - 1e-14)
    cuts = np.sort(np.concatenate([s_lo, np.where(inner, s_bp, s_lo), s_hi], axis=-1), axis=-1)
    lo, hi = cuts[..., :-1], cuts[..., 1:]
    keep = hi - lo >= 1e-14
    iq, j, _ = np.nonzero(keep)
    moments = _segment_moments(
        kernel, lo[keep], hi[keep], degree,
        lambda s, r, jj: ((r - s) / 2.0 - jj) / sigma, lambda s, r, jj: s,
        ref[iq, None], (j_min + j)[:, None],
    )
    w = np.zeros((len(ref) * nj, degree + 1))
    np.add.at(w, iq * nj + j, moments)
    mode_scale = np.sqrt(2.0 * np.arange(degree + 1) + 1.0) / (2.0 * sigma * math.sqrt(h))
    return KernelWeights(w.reshape(len(ref), nj, degree + 1) * mode_scale, j_min, tuple(ref))


def apply_weights_batched(weights: KernelWeights, coeffs: np.ndarray) -> np.ndarray:
    """coeffs (N, ..., m) -> filtered values (N, ..., q) with periodic wrap.

    Batch dims between the element and the mode axis ride along unfiltered.
    """
    stack = np.stack(
        [np.roll(coeffs, -(weights.j_min + j), axis=0) for j in range(weights.n_shifts)],
        axis=0,
    )
    return np.einsum("qjm,jN...m->N...q", weights.weights, stack)


# the benchmark's traced run wraps this name; nothing in the package calls it
apply_weights_1d = apply_weights_batched


# ---------------------------------------------------------------------------
# point rows and the per-axis pass


def _point_row(field: DGField, kernel: FilterKernel, x: float, policy: str, axis: int = 0):
    """Element indices and weights of the filtered value at x along one axis.

    The value is sum(row * coeffs[j_idx]) with row of shape (segments, modes).
    The integration window [x - H*t_hi, x - H*t_lo] is split at every kernel
    breakpoint image and element interface; each cut gets a Gauss rule sized
    for the kernel piece degree, and the kernel is evaluated once for all
    cuts (`_segment_moments`).  Periodic policy wraps by element index.
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}")
    mesh = field.mesh
    a, b = mesh.bounds[axis]
    n = mesh.elements[axis]
    h = mesh.h[axis]
    big_h = kernel.scaling
    t_lo, t_hi = kernel.support_unscaled
    w_lo, w_hi = x - big_h * t_hi, x - big_h * t_lo
    if w_hi - w_lo > (b - a) + 1e-12:
        raise filtercore.DomainTooShortError(
            f"kernel support {w_hi - w_lo:.3g} exceeds domain length {b - a:.3g}"
        )
    if policy == POLICY_BOUNDARY and (w_lo < a - 1e-12 * h or w_hi > b + 1e-12 * h):
        raise filtercore.DomainTooShortError(
            "window leaves the domain; shift the kernel before convolving"
        )
    inner = x - big_h * np.asarray(kernel.breakpoints_unscaled())
    edges = a + np.arange(math.ceil((w_lo - a) / h - 1e-12), math.floor((w_hi - a) / h + 1e-12) + 1) * h
    cuts = np.concatenate([[w_lo, w_hi], inner, edges])
    cuts = np.sort(cuts[(w_lo <= cuts) & (cuts <= w_hi)])
    lo, hi = cuts[:-1], cuts[1:]
    keep = hi - lo >= 1e-14 * h  # also drops the empty segments of repeated cuts
    lo, hi = lo[keep], hi[keep]
    j = np.floor(((lo + hi) / 2.0 - a) / h).astype(int)
    moments = _segment_moments(
        kernel, lo, hi, field.degree,
        lambda y, jj: (x - y) / big_h, lambda y, jj: 2.0 * (y - a - jj * h) / h - 1.0,
        j[:, None],
    )
    j_idx = j % n if mesh.periodic[axis] or policy == POLICY_PERIODIC else np.clip(j, 0, n - 1)
    return j_idx, moments * dgsolver.modal_scale(field.degree, h) / big_h


def convolve_point(
    field: DGField,
    kernel: FilterKernel,
    x: float,
    policy: str = POLICY_PERIODIC,
) -> float:
    """Filtered value of a 1D field at a single point by direct quadrature."""
    if field.dim != 1:
        raise ValueError("convolve_point is one-dimensional")
    j_idx, row = _point_row(field, kernel, x, policy)
    return float(np.sum(row * field.coeffs[j_idx]))


def _filter_axes(field: DGField, configs, kernels, ref, policy: str):
    """Filtered values at the reference points `ref` of every axis.

    kernels[a] filters axis a: the element axis a and the mode axis d+a are
    moved to the ends, filtered, and moved back as element and point axes.
    Under the position-dependent policy every point whose symmetric window
    leaves the domain then takes its shifted kernel's row instead, applied
    along the same axis.  Returns the values and each axis' (N, q) shifts.
    """
    u, d, mesh = field.coeffs, field.dim, field.mesh
    all_shifts = []
    for axis, (cfg, kern) in enumerate(zip(configs, kernels)):
        h = mesh.h[axis]
        ends = (axis, d + axis)
        src = np.moveaxis(u, ends, (0, -1))
        vals = apply_weights_batched(kernel_weights(kern, h, ref, field.degree), src)
        shifts = np.zeros((mesh.elements[axis], len(ref)))
        if policy == POLICY_BOUNDARY:
            x_all = mesh.centers(axis)[:, None] + 0.5 * h * ref[None, :]
            for (i, q), x in np.ndenumerate(x_all):
                lam = filtercore.boundary_shift(
                    field.degree, cfg.nodes, float(x), mesh.bounds[axis], kern.scaling,
                    epsilon=cfg.epsilon, support_width=kern.support_width,
                )
                if lam != 0.0:
                    shifts[i, q] = lam
                    shifted = filtercore.build_filter(replace(cfg, shift=-Fraction(lam), scaling=kern.scaling))
                    j_idx, row = _point_row(field, shifted, float(x), POLICY_BOUNDARY, axis)
                    vals[i, ..., q] = np.einsum("sm,s...m->...", row, src[j_idx])
        all_shifts.append(shifts)
        u = np.moveaxis(vals, (0, -1), ends)
    return u, tuple(all_shifts)


# ---------------------------------------------------------------------------
# filtered fields


@dataclass(frozen=True)
class FilteredField:
    """Filtered values on a per-element tensor grid of reference points."""

    source: DGField
    kernel_info: tuple           # per axis kernel summary
    policy: str
    ref_points: tuple            # per axis tuple of reference points in (-1, 1)
    quad_weights: Optional[tuple]  # matching Gauss weights (None for plain grids)
    values: np.ndarray           # (N_1..N_d, q_1..q_d): 1D (N, q), 2D (Nx, Ny, qx, qy)
    shifts: tuple                # per axis (N, q) node shifts; 0 => symmetric

    @property
    def mesh(self):
        return self.source.mesh

    def points(self, axis: int = 0) -> np.ndarray:
        """Absolute evaluation coordinates along an axis, shape (N, q)."""
        mesh = self.mesh
        r = np.asarray(self.ref_points[axis])
        h = mesh.h[axis]
        return mesh.centers(axis)[:, None] + 0.5 * h * r[None, :]

    def l2_error(self, exact: Callable, normalized: bool = False) -> float:
        """Gauss L2 norm of (exact - filtered); needs Gauss reference points.

        normalized=True divides by sqrt(domain measure), the convention
        multi-dimensional convergence tables are reported in.
        """
        if self.quad_weights is None:
            raise ValueError("filtered field was not built on a quadrature grid")
        diff = (exact(*dgsolver.element_points(self.mesh, self.ref_points)) - self.values) ** 2
        return dgsolver.grid_l2_norm(self.mesh, diff, self.quad_weights, normalized)

    def max_error(self, exact: Callable) -> float:
        grid = dgsolver.element_points(self.mesh, self.ref_points)
        return float(np.max(np.abs(exact(*grid) - self.values)))


def _kernel_info(kernel: FilterKernel) -> dict:
    return {
        "k": kernel.k,
        "basis": kernel.basis_kind,
        "nodes": kernel.nodes.kind,
        "epsilon": float(kernel.nodes.epsilon) if kernel.nodes.epsilon is not None else None,
        "scaling": kernel.scaling,
        "support_width": kernel.support_width,
    }


def filter_field(
    field: DGField,
    config,
    policy: str = POLICY_PERIODIC,
    pts_per_element: Optional[int] = None,
    ref_points=None,
) -> FilteredField:
    """Filter a field of any dimension at pts_per_element Gauss points per element.

    `config` is one FilterConfig for every axis or a sequence with one per
    axis; each kernel is scaled by its axis' element width (H = h).  Passing
    ref_points instead evaluates on that per-element reference grid on every
    axis (plotting grids); the result then carries no quadrature weights and
    cannot produce L2 norms.  The position-dependent policy gives each point
    whose symmetric window leaves the domain along an axis its own shifted
    kernel: the layout's moment matrix is factored once, so each shift costs
    one product with its right-hand side and one point quadrature.
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}")
    d = field.dim
    configs = (config,) * d if isinstance(config, FilterConfig) else tuple(config)
    if len(configs) != d:
        raise ValueError(f"expected one filter config or one per axis ({d}), got {len(configs)}")
    if ref_points is None:
        ref, qw = gauss_rule(pts_per_element or field.degree + 3)
    else:
        ref, qw = np.atleast_1d(np.asarray(ref_points, dtype=float)), None
    kernels = tuple(filtercore.build_filter(c).with_scaling(h) for c, h in zip(configs, field.mesh.h))
    vals, shifts = _filter_axes(field, configs, kernels, ref, policy)
    return FilteredField(
        source=field,
        kernel_info=tuple(_kernel_info(kern) for kern in kernels),
        policy=policy,
        ref_points=(tuple(ref),) * d,
        quad_weights=(tuple(qw),) * d if qw is not None else None,
        values=vals,
        shifts=shifts,
    )


# the benchmark's traced run wraps this name; nothing in the package calls it
filter_field_2d = filter_field


# ---------------------------------------------------------------------------
# divided differences and diagnostics


def divided_difference(values: np.ndarray, h: float, alpha: int = 1, spacing: Optional[float] = None) -> np.ndarray:
    """alpha-fold centered half-step difference (v(x+h/2) - v(x-h/2)) / h.

    `values` live on a uniform periodic grid whose spacing must divide h/2.
    """
    if alpha < 1:
        raise ValueError("alpha must be >= 1")
    values = np.asarray(values, dtype=float)
    delta = spacing if spacing is not None else h / 2.0
    ratio = h / (2.0 * delta)
    shift = round(ratio)
    if abs(ratio - shift) > 1e-9 or shift < 1:
        raise ValueError(f"grid spacing {delta} does not admit half-steps of {h / 2}")
    out = values
    for _ in range(alpha):
        out = (np.roll(out, -shift) - np.roll(out, shift)) / h
    return out


def pointwise_error(values: np.ndarray, exact_values: np.ndarray) -> np.ndarray:
    return np.abs(np.asarray(values) - np.asarray(exact_values))


def filtered_interface_jumps(
    field: DGField,
    kernel: FilterKernel,
    policy: str = POLICY_PERIODIC,
) -> np.ndarray:
    """Left/right limits of the filtered solution at element interfaces.

    The filtered field is a single smooth function of the evaluation point, so
    these jumps sit at roundoff; the DG field's own jumps are O(h^{k+1}).
    """
    edges = field.mesh.edges(0)[1:-1]
    jumps = []
    for x in edges:
        lo = convolve_point(field, kernel, math.nextafter(float(x), -math.inf), policy)
        hi = convolve_point(field, kernel, math.nextafter(float(x), math.inf), policy)
        jumps.append(abs(hi - lo))
    return np.array(jumps)


def boundary_zone_edges(k: int, kind: str, domain, scaling: float, epsilon=None) -> tuple[float, float]:
    """Interface points between position-dependent and symmetric filtering."""
    a, b = domain
    half_support = float(filtercore.kernel_support_width(k, kind, epsilon)) / 2.0
    return a + half_support * scaling, b - half_support * scaling
