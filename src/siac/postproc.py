"""Apply filter kernels to DG fields.

A filter is one linear operator per axis.  On a uniform mesh with H = h it
is translation invariant and, in element units, the same for every mesh:
for a fixed kernel and set of in-element evaluation points, the filtered
value is a fixed linear combination of the modal coefficients of nearby
elements, scaled by 1/sqrt(h).  Those weights are integrals of kernel times
Legendre mode over the pieces cut by kernel breakpoints, by a Gauss rule
per cut that the basis sizes (`basisfn.MomentBasis.gauss_points`);
`axis_stencil` computes them once per (config, points, degree) for every N
and h.  A call scales them by the modes' 1/sqrt(h) factors and applies them
along each axis by one contiguous gather of every element's neighbours and
one matrix product (`apply_weights_batched`); with the gather index, the
mode scale per (degree, h) and the axis transposes per dimension cached, a
warm call does that arithmetic alone, and its L2 error one GEMV.
Single points take one array point quadrature (`_point_rows`): it cuts
the windows of any number of points, each with its own kernel, as one
array and integrates every cut with one kernel evaluation.
`convolve_point` calls it once for a point or an array of points (the
interface limits of `filtered_interface_jumps`); under the position-dependent
policy `boundary_rows` calls it once for every point of a mesh whose
symmetric window leaves the domain, each with its shifted kernel (the
layout's one factorization, `filtercore.solve_coefficients`), and each
call applies those rows along the same axis in place of the periodic
values.  A kernel is unscaled (`filtercore.FilterKernel`): every
routine here applies it at H = h, the element width of the mesh axis it
works on, and `filter_field` shifts it as the policy needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from typing import Callable, NamedTuple, Optional

import numpy as np
from numpy.polynomial.legendre import legvander

from . import dgsolver, filtercore
from .dgsolver import DGField, Mesh, _frozen
from .filtercore import FilterConfig, FilterKernel
from .quadrature import gauss_rule

POLICY_PERIODIC = "periodic_wrap"
POLICY_BOUNDARY = "position_dependent"
POLICIES = (POLICY_PERIODIC, POLICY_BOUNDARY)


# Basis samples (Gauss nodes times kernel nodes) per kernel evaluation.  The
# bump basis takes ~115 Gauss nodes per cut; evaluating a whole weight table
# at once would hold several MB of temporaries.
_SAMPLES_PER_EVALUATION = 1 << 14


# ---------------------------------------------------------------------------
# translation-invariant weights


class KernelWeights(NamedTuple):
    """Filtered value = sum_{j,m} weights[q, j, m] * coeffs[(J + j_min + j) % N, m]."""

    weights: np.ndarray
    j_min: int


def _segment_moments(kernel: FilterKernel, lo, hi, degree: int, kernel_at, s_of, *per_segment) -> np.ndarray:
    """Kernel-weighted Legendre moments of every segment [lo[i], hi[i]].

    Row i is sum_g w_g kernel_at(y_g, ...) P_m(s_of(y_g, ...)), m = 0..degree,
    over a Gauss rule on the segment sized for the piece degree of `kernel`
    (or of any kernel on its basis and node count); kernel_at gives the
    kernel values at the nodes, s_of their element reference coordinates,
    both given the segments' rows of the `per_segment` arrays.  The kernel
    is evaluated once per batch of segments.
    """
    gr, gw = gauss_rule(kernel.basis.gauss_points(degree))
    step = max(1, _SAMPLES_PER_EVALUATION // (len(gr) * kernel.nodes.count))
    out = np.empty((len(lo), degree + 1))
    for i in range(0, len(lo), step):
        batch = slice(i, i + step)
        cols = [c[batch] for c in per_segment]
        half = 0.5 * (hi[batch] - lo[batch])
        y = lo[batch, None] + half[:, None] * (gr + 1.0)
        kv = kernel_at(y, *cols) * (half[:, None] * gw)
        out[batch] = np.einsum("sg,sgm->sm", kv, legvander(s_of(y, *cols), degree))
    return out


def kernel_weights(kernel: FilterKernel, h: float, ref_points, degree: int) -> KernelWeights:
    """Per-element filtering weights at H = h for evaluation points fixed in the element."""
    moments = _interior_moments(kernel, ref_points, degree)
    return moments._replace(weights=moments.weights * _mode_scale(degree, h))


@lru_cache(maxsize=64)
def _mode_scale(degree: int, h: float) -> np.ndarray:
    """Factor taking the moments of `_interior_moments` to weights on modal coefficients; cached, read-only."""
    return _frozen(np.sqrt(2.0 * np.arange(degree + 1) + 1.0) / (2.0 * math.sqrt(h)))


def _interior_moments(kernel: FilterKernel, ref_points, degree: int) -> KernelWeights:
    """Kernel moments of every element the points see, for H = h.

    weights[q, j] integrates the unscaled kernel times each Legendre mode
    over element j_min + j in its reference coordinate s, split at every
    kernel breakpoint image; all (point, element, cut) segments share one
    kernel evaluation.  They do not depend on h.
    """
    t_lo, t_hi = kernel.support_unscaled
    bps = np.asarray(kernel.breakpoints_unscaled)
    ref = np.atleast_1d(np.asarray(ref_points, dtype=float))
    j_min = math.ceil((ref.min() - 1.0) / 2.0 - t_hi - 1e-12)
    j_max = math.floor((ref.max() + 1.0) / 2.0 - t_lo + 1e-12)
    nj = j_max - j_min + 1
    # s = r - 2j - 2t is the image of kernel argument t in element j
    origin = (ref[:, None] - 2.0 * np.arange(j_min, j_max + 1))[..., None]
    s_lo = np.maximum(-1.0, origin - 2.0 * t_hi)
    s_hi = np.minimum(1.0, origin - 2.0 * t_lo)
    s_bp = origin - 2.0 * bps
    inner = (s_lo + 1e-14 < s_bp) & (s_bp < s_hi - 1e-14)
    cuts = np.sort(np.concatenate([s_lo, np.where(inner, s_bp, s_lo), s_hi], axis=-1), axis=-1)
    lo, hi = cuts[..., :-1], cuts[..., 1:]
    keep = hi - lo >= 1e-14
    iq, j, _ = np.nonzero(keep)
    moments = _segment_moments(
        kernel, lo[keep], hi[keep], degree,
        lambda s, r, jj: kernel.evaluate_unscaled((r - s) / 2.0 - jj), lambda s, r, jj: s,
        ref[iq, None], (j_min + j)[:, None],
    )
    w = np.zeros((len(ref) * nj, degree + 1))
    np.add.at(w, iq * nj + j, moments)
    return KernelWeights(w.reshape(len(ref), nj, degree + 1), j_min)


def apply_weights_batched(weights: np.ndarray, j_min: int, coeffs: np.ndarray) -> np.ndarray:
    """coeffs (..., N, m) -> filtered values (..., N, q) with periodic wrap, by the table and j_min of `KernelWeights`.

    Leading batch dims ride along unfiltered.  One `take` (`_wrap_index`)
    lays out every element's neighbours contiguously as (..., N, shift, m);
    its rows, shift-major and mode-minor, meet the table laid out as
    (shift * m, q) in one `@`.  `coeffs` may be any strided view.
    """
    n, (q, s, _) = coeffs.shape[-2], weights.shape
    table = weights.transpose(1, 2, 0).reshape(-1, q)
    stack = coeffs.take(_wrap_index(n, j_min, s), axis=-2).reshape(-1, len(table))
    # the table stays the F-ordered view: a C-ordered copy changes how BLAS sums the rows
    return (stack @ table).reshape(coeffs.shape[:-1] + (q,))


@lru_cache(maxsize=64)
def _wrap_index(n: int, j_min: int, shifts: int) -> np.ndarray:
    """idx[J, j] = (J + j_min + j) % n, the element of shift j from element J; read-only."""
    return _frozen((j_min + np.arange(n)[:, None] + np.arange(shifts)) % n)


# the benchmark's traced run wraps this name; nothing in the package calls it
apply_weights_1d = apply_weights_batched


# ---------------------------------------------------------------------------
# point rows and the per-axis pass


def check_policy(mesh: Mesh, policy: str) -> None:
    """Raise ValueError for an unknown policy, or for the periodic one on an axis the mesh declares open."""
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}")
    if policy == POLICY_PERIODIC and False in mesh.periodic:
        raise ValueError(f"the periodic policy cannot wrap axis {mesh.periodic.index(False)}: the mesh declares it open")


def _point_rows(mesh: Mesh, degree: int, kernels, xs, policy: str):
    """Cut elements, weights and cut counts of the filtered values at points xs of a one-axis mesh, at H = h.

    Point p takes kernel kernels[p] (one basis and node count for all, as
    the shifts of one layout have) and the value sum(rows[p] * coeffs[cols[p]])
    over the counts[p] cuts of its window [x - h*t_hi, x - h*t_lo] at every
    kernel breakpoint image and element interface; zero rows pad the points
    with fewer cuts.  The widest support must fit the axis
    (`filtercore.check_support_fits`).  All windows are cut as one array, a
    cut outside its window moved to the window's left end, and all cuts
    share one kernel evaluation (`_segment_moments`), which sums every value
    as a lone `FilterKernel.evaluate_unscaled` would.  The policy alone
    picks a cut's element: periodic wraps, position-dependent clips.
    """
    check_policy(mesh, policy)
    ((a, b),), (h,), (n,) = mesh.bounds, mesh.h, mesh.elements
    xs = np.asarray(xs, dtype=float)
    t_lo, t_hi = np.array([k.support_unscaled for k in kernels]).T
    filtercore.check_support_fits(b - a, float(np.max(t_hi - t_lo)), h)
    w_lo, w_hi = (xs - h * t_hi)[:, None], (xs - h * t_lo)[:, None]
    if policy == POLICY_BOUNDARY and np.any((w_lo < a - 1e-12 * h) | (w_hi > b + 1e-12 * h)):
        raise filtercore.DomainTooShortError("window leaves the domain; shift the kernel before convolving")
    inner = xs[:, None] - h * np.array([k.breakpoints_unscaled for k in kernels])
    e_lo, e_hi = np.ceil((w_lo - a) / h - 1e-12), np.floor((w_hi - a) / h + 1e-12)
    e = e_lo + np.arange(int(np.max(e_hi - e_lo)) + 1)
    cuts = np.concatenate([w_lo, w_hi, inner, np.where(e <= e_hi, a + e * h, w_lo)], axis=1)
    cuts = np.sort(np.where((w_lo <= cuts) & (cuts <= w_hi), cuts, w_lo), axis=1)
    lo, hi = cuts[:, :-1], cuts[:, 1:]
    keep = hi - lo >= 1e-14 * h  # also drops the empty segments of repeated cuts
    counts = np.sum(keep, axis=1)
    # point and slot of each kept cut: each point's cuts first, in order
    point, slot = np.nonzero(keep)[0], np.cumsum(keep, axis=1)[keep] - 1
    lo, hi = lo[keep], hi[keep]
    j = np.floor(((lo + hi) / 2.0 - a) / h).astype(int)
    coefficients = np.array([k.coefficients for k in kernels])
    nodes = np.array([k.node_floats for k in kernels])
    moments = _segment_moments(
        kernels[0], lo, hi, degree,
        lambda y, jj, p: filtercore.kernel_sum(kernels[0].basis, coefficients[p], nodes[p], (xs[p] - y) / h),
        lambda y, jj, p: 2.0 * (y - a - jj * h) / h - 1.0,
        j[:, None], point[:, None],
    )
    cols = np.zeros((len(xs), counts.max()), dtype=int)
    rows = np.zeros(cols.shape + (degree + 1,))
    cols[point, slot] = j % n if policy == POLICY_PERIODIC else np.clip(j, 0, n - 1)
    rows[point, slot] = moments * dgsolver.modal_scale(degree, h) / h
    return cols, rows, counts


def convolve_point(field: DGField, kernel: FilterKernel, x, policy: str = POLICY_PERIODIC):
    """Filtered values of a 1D field by direct quadrature, at H = h.

    A scalar x gives a float, an array of points an array of that shape; a
    point that is not finite raises ValueError naming it.
    All points take one `_point_rows` call, and each value is the `np.sum`
    over that point's own cuts, so it equals the scalar call bit for bit.
    """
    if field.dim != 1:
        raise ValueError("convolve_point is one-dimensional")
    xs = np.asarray(x, dtype=float)
    if xs.size == 0:
        return np.zeros(xs.shape)
    if not np.all(np.isfinite(xs)):
        raise ValueError(f"convolve_point needs finite points, got {xs[~np.isfinite(xs)].flat[0]}")
    cols, rows, counts = _point_rows(field.mesh, field.degree, [kernel] * xs.size, xs.ravel(), policy)
    values = [np.sum(r[:c] * field.coeffs[i[:c]]) for i, r, c in zip(cols, rows, counts)]
    return float(values[0]) if xs.ndim == 0 else np.array(values).reshape(xs.shape)


class AxisStencil(NamedTuple):
    """One axis' interior filter in element units (H = h = 1), shared by every mesh."""

    kernel: FilterKernel
    interior: KernelWeights    # moments, before the mode scale (`_mode_scale`)


@lru_cache(maxsize=64)
def axis_stencil(config: FilterConfig, ref_points: tuple, degree: int) -> AxisStencil:
    """The translation-invariant filter of one axis, built once for every N and h.

    Cached like `basisfn.basis`; its arrays are read-only.
    """
    kernel = filtercore.build_filter(config)
    interior = _interior_moments(kernel, ref_points, degree)
    return AxisStencil(kernel, KernelWeights(_frozen(interior.weights), interior.j_min))


class BoundaryRows(NamedTuple):
    """The points of one mesh axis whose symmetric window leaves the domain.

    Point p is reference point `points[p]` of element `elements[p]`; it
    takes node shift `shifts[p]` and the value
    sum(rows[p] * coeffs[cols[p]]), one row per cut of its window (zero
    rows pad the points with fewer cuts).
    """

    elements: np.ndarray  # (P,)
    points: np.ndarray    # (P,)
    shifts: np.ndarray    # (P,)
    cols: np.ndarray      # (P, cuts) element of each cut
    rows: np.ndarray      # (P, cuts, modes)


@lru_cache(maxsize=64)
def boundary_rows(config: FilterConfig, ref_points: tuple, degree: int, bounds: tuple, n: int) -> BoundaryRows:
    """Shifted-kernel rows of the n-element mesh on bounds under the position-dependent policy.

    One `filtercore.boundary_shift` call over the axis' grid
    (`dgsolver.element_points`) finds the shifted points, and one call of
    the point quadrature `_point_rows` cuts all their windows, each for its
    own shifted kernel, and integrates every cut with one kernel
    evaluation, exactly as `convolve_point` integrates one point with that
    point's shifted kernel.  Shift and rows follow the
    rounding of the point's float position on this mesh, which the compact
    kernels (max |c_g| ~ 1e5 at k = 3) amplify to ~1e-11 of the value, so
    they are kept per mesh.  Only repeated filtering of one mesh with one
    config hits that cache; a sweep filters each such pair once.
    """
    mesh = Mesh((bounds,), (n,))
    h = mesh.h[0]
    kernel = axis_stencil(config, ref_points, degree).kernel
    x_all = dgsolver.element_points(mesh, (ref_points,))[0]
    shift_all = filtercore.boundary_shift(x_all, mesh.bounds[0], h, kernel.support_width)
    elements, points = np.nonzero(shift_all)
    shifts, xs = shift_all[elements, points], x_all[elements, points]
    kernels = [filtercore.build_filter(replace(config, shift=-Fraction(lam))) for lam in shifts]
    cols, rows, _ = _point_rows(mesh, degree, kernels, xs, POLICY_BOUNDARY)
    return BoundaryRows(*map(_frozen, (elements, points, shifts, cols, rows)))


def _filter_axes(field: DGField, configs, ref: tuple, policy: str):
    """Filtered values at the reference points `ref` of every axis.

    configs[a] filters axis a.  Before it, u holds element axes a..d-1, mode
    axes a..d-1 and an (N, q) pair per filtered axis; a view transpose puts
    element and mode axis a last, as (..., N, m), `apply_weights_batched`
    returns (..., N, q) there, and the pairs are transposed to
    (N_1..N_d, q_1..q_d) once, at the end.  Under the position-dependent
    policy every point whose symmetric window leaves the domain then takes
    its shifted kernel's row instead, applied along the same axis.  Returns
    the values, each axis' (N, q) shifts and each axis' kernel.
    """
    u, mesh, k = field.coeffs, field.mesh, field.degree
    orders, to_grid = _axis_orders(len(configs))
    all_shifts, kernels = [], []
    for cfg, order, (a, b), n, h in zip(configs, orders, mesh.bounds, mesh.elements, mesh.h):
        kernel, (weights, j_min) = axis_stencil(cfg, ref, k)
        filtercore.check_support_fits(b - a, kernel.support_width, h)
        src = u.transpose(order)
        u = apply_weights_batched(weights * _mode_scale(k, h), j_min, src)
        shifts = np.zeros((n, len(ref)))
        if policy == POLICY_BOUNDARY:
            br = boundary_rows(cfg, ref, k, (a, b), n)
            # the fancy index lays the cuts out (P, cuts, ..., m) in memory,
            # which fixes the order in which einsum sums each point's row
            u[..., br.elements, br.points] = np.einsum("psm,...psm->...p", br.rows, src[..., br.cols, :])
            shifts[br.elements, br.points] = br.shifts
        all_shifts.append(shifts)
        kernels.append(kernel)
    return u.transpose(to_grid), tuple(all_shifts), tuple(kernels)


@lru_cache(maxsize=None)
def _axis_orders(d: int) -> tuple[tuple, tuple]:
    """`_filter_axes`' transposes for d axes: per axis a, element axis 0 and mode axis d - a last; then to the grid."""
    return (tuple((*range(1, d - a), *range(d - a + 1, 2 * d), 0, d - a) for a in range(d)),
            (*range(0, 2 * d, 2), *range(1, 2 * d, 2)))


# ---------------------------------------------------------------------------
# filtered fields


@dataclass(frozen=True)
class FilteredField:
    """Filtered values on a per-element tensor grid of reference points."""

    source: DGField
    kernels: tuple               # per axis FilterKernel, applied at H = h of that axis
    ref_points: tuple            # per axis tuple of reference points in [-1, 1]
    quad_weights: Optional[tuple]  # matching Gauss weights (None for plain grids)
    values: np.ndarray           # (N_1..N_d, q_1..q_d): 1D (N, q), 2D (Nx, Ny, qx, qy)
    shifts: tuple                # per axis (N, q) node shifts; 0 => symmetric

    @property
    def mesh(self):
        return self.source.mesh

    def points(self, axis: int = 0) -> np.ndarray:
        """Absolute evaluation coordinates along an axis, shape (N, q), read-only."""
        x = dgsolver.element_points(self.mesh, self.ref_points)[axis]
        return x.reshape(x.shape[axis], -1)

    def l2_error(self, exact: Callable, normalized: bool = False) -> float:
        """Gauss L2 norm of (exact - filtered) on a Gauss grid, normalized and sampled as `dgsolver.l2_error`."""
        if self.quad_weights is None:
            raise ValueError("filtered field was not built on a quadrature grid")
        mesh = self.source.mesh
        diff = (dgsolver.grid_values(exact, mesh, self.ref_points) - self.values) ** 2
        return dgsolver.grid_l2_norm(mesh, diff, self.quad_weights, normalized)


def filter_field(
    field: DGField,
    config,
    policy: str = POLICY_PERIODIC,
    ref_points=None,
) -> FilteredField:
    """Filter a field of any dimension on the Gauss grid `dgsolver.element_rule`.

    `config` is one FilterConfig for every axis or a sequence with one per
    axis; each kernel is applied at its axis' element width (H = h) and
    shifted as the policy places it, so a config with a nonzero shift
    raises ValueError, as `filtercore.build_filter` does for a scaling
    other than 1.  Passing ref_points instead evaluates on that
    per-element reference grid on every axis (plotting grids); the result
    then carries no quadrature weights and cannot produce L2 norms.  They
    must form a 1-D sequence of finite points in [-1, 1]; other input
    raises ValueError, naming it, before any stencil is built.  The
    periodic policy wraps every axis, so a mesh axis declared open raises
    ValueError naming it (`check_policy`); the position-dependent policy
    gives each point whose symmetric window leaves the domain along an
    axis its own shifted kernel.  A warm call does only the arithmetic of
    the module docstring.  Under either policy an axis shorter than its
    scaled kernel support (to a relative 1e-12) raises
    `DomainTooShortError`, as `convolve_point` does.
    """
    check_policy(field.mesh, policy)
    d = field.mesh.dim
    configs = (config,) * d if isinstance(config, FilterConfig) else tuple(config)
    if len(configs) != d:
        raise ValueError(f"expected one filter config or one per axis ({d}), got {len(configs)}")
    for cfg in configs:
        if cfg.shift != 0:
            raise ValueError(f"FilterConfig.shift must be 0: filter_field shifts each kernel as the policy needs, "
                             f"got {cfg.shift!r}")
    if ref_points is None:
        ref, qw = dgsolver.element_rule(field.degree)
    else:
        grid = np.atleast_1d(np.asarray(ref_points, dtype=float))
        if grid.ndim != 1:
            raise ValueError(f"ref_points must be one-dimensional, got shape {grid.shape}: {grid.tolist()}")
        if grid.size == 0:
            raise ValueError("ref_points is empty: filter_field needs at least one reference point per element")
        bad = grid[~(np.abs(grid) <= 1.0)]
        if bad.size:
            raise ValueError(f"ref_points must be finite and in [-1, 1], got {bad.tolist()}")
        ref, qw = tuple(map(float, grid)), None
    vals, shifts, kernels = _filter_axes(field, configs, ref, policy)
    return FilteredField(source=field, kernels=kernels, ref_points=(ref,) * d,
                         quad_weights=(qw,) * d if qw is not None else None, values=vals, shifts=shifts)


# the benchmark's traced run wraps this name; nothing in the package calls it
filter_field_2d = filter_field


# ---------------------------------------------------------------------------
# diagnostics


def filtered_interface_jumps(field: DGField, kernel: FilterKernel) -> np.ndarray:
    """|right - left| limit of the periodic filtered solution at each interior interface, at H = h.

    The filtered field is a single smooth function of the evaluation point, so
    these jumps sit at roundoff; the DG field's own jumps are O(h^{k+1}).
    Both one-sided limits `np.nextafter(edge, -+inf)` of every interface
    take one `convolve_point` call; one element gives an empty array.
    """
    edges = field.mesh.edges(0)[1:-1]
    left, right = convolve_point(field, kernel, np.nextafter(edges, [[-np.inf], [np.inf]]))
    return np.abs(right - left)


def boundary_zone_edges(support_width: float, domain, scaling: float) -> tuple[float, float]:
    """Interface points between position-dependent and symmetric filtering.

    `support_width` is the kernel's unscaled support width
    (`FilterKernel.support_width`).
    """
    a, b = domain
    half_support = support_width / 2.0
    return a + half_support * scaling, b - half_support * scaling
