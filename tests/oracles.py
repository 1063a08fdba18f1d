"""Reference implementations the tests compare the package against."""

import math
from bisect import bisect_right
from dataclasses import replace
from fractions import Fraction
from typing import Optional

import numpy as np
from numpy.polynomial.legendre import legval

import mpmath as mp

from siac import dgsolver, filtercore, postproc
from siac.basisfn import SOLVER_DPS, _chebyshev_moment, _mpf
from siac.quadrature import gauss_rule


def gauss_points(a: float, b: float, n: int):
    """Gauss-Legendre nodes and weights mapped to [a, b]."""
    r, w = gauss_rule(n)
    half = 0.5 * (b - a)
    return a + half * (r + 1.0), half * w


def rectangle_mesh(bounds_x, bounds_y, nx: int, ny: int) -> dgsolver.Mesh:
    return dgsolver.Mesh((tuple(bounds_x), tuple(bounds_y)), (nx, ny))


def sine_advection_1d(final_time: float = 1.0, speed: float = 1.0) -> dgsolver.AdvectionProblem:
    """u_t + u_x = 0 on [0,1], u(x,0) = sin(2 pi x)."""
    return dgsolver.AdvectionProblem(
        (speed,), lambda x: np.sin(2.0 * np.pi * np.asarray(x)), final_time, "sine_1d"
    )


def sine_advection_2d(final_time: float = 2.0 * math.pi) -> dgsolver.AdvectionProblem:
    """u_t + u_x + u_y = 0 on [0,2pi]^2, u(x,y,0) = sin(x+y)."""
    return dgsolver.AdvectionProblem(
        (1.0, 1.0),
        lambda x, y: np.sin(np.asarray(x) + np.asarray(y)),
        final_time,
        "sine_2d",
    )


def limit(f, x: float, side: str) -> float:
    """One-sided limit of a `PiecewiseFunction` f at x ('left' or 'right').

    Evaluated by the per-piece formula of `evaluate_many`; zero outside the support.
    """
    bps = f.breakpoints
    if side == "right":
        if x < bps[0] or x >= bps[-1]:
            return 0.0
        i = bisect_right(bps, x) - 1
    elif side == "left":
        if x <= bps[0] or x > bps[-1]:
            return 0.0
        i = bisect_right(bps, x) - 1
        if i >= len(f.pieces) or bps[i] == x:
            i -= 1
    else:
        raise ValueError("side must be 'left' or 'right'")
    return float(f._evaluate_piece(i, np.array([float(x)]))[0])


def raw_moment_per_order(nb, j: int) -> Fraction:
    """Exact integral of x^j against a numeric basis, every Chebyshev sum redone for this j."""
    total = Fraction(0)
    for (a, b), coeff in zip(zip(nb.breakpoints, nb.breakpoints[1:]), nb.pieces):
        alpha = (Fraction(a) + Fraction(b)) / 2
        beta = (Fraction(b) - Fraction(a)) / 2
        cs = [Fraction(float(c)) for c in coeff]
        for i in range(j + 1):
            s = sum(c * _chebyshev_moment(i, n) for n, c in enumerate(cs) if (n + i) % 2 == 0)
            total += math.comb(j, i) * alpha ** (j - i) * beta ** (i + 1) * s
    return total


def reproduction_residual(kernel, m: int, xs, coefficients) -> float:
    """max |(K * p)(x) - p(x)| over xs for p(x) = x^m, the defects rebuilt for this m alone.

    The per-degree form of `filtercore.reproduction_residuals`: the defects
    d_i = M_i - delta_i0 for i = 0..m, then Horner in x, in the arithmetic
    of the basis moments (exact for Fractions, SOLVER_DPS digits for mpf).
    """
    with mp.workdps(SOLVER_DPS):
        mu = [kernel.basis.raw_moment(j) for j in range(m + 1)]
        num = _mpf if isinstance(mu[0], mp.mpf) else filtercore._exact_number
        cs = [num(c) for c in coefficients]
        nodes = [num(x) for x in kernel.nodes.positions]
        defects = []
        for i in range(m + 1):
            mi = sum(
                c * sum(math.comb(i, l) * x ** (i - l) * mu[l] for l in range(i + 1))
                for c, x in zip(cs, nodes)
            )
            defects.append(mi - 1 if i == 0 else mi)
        worst = 0.0
        for x in np.atleast_1d(np.asarray(xs, dtype=float)):
            x = num(float(x))
            p = 0
            for i, d in enumerate(defects):
                p = p * x + (-1) ** i * math.comb(m, i) * d
            worst = max(worst, float(abs(p)))
        return worst


def kernel_breakpoints_exact(kernel) -> tuple:
    """Every exact sum Fraction(x_g) + Fraction(b) of a node and a basis breakpoint, merged and rounded once.

    A sum within 1e-12 of the last one kept is dropped, as `basisfn._merged_sums` drops it.
    """
    sums = sorted({Fraction(x) + Fraction(b) for x in kernel.nodes.positions for b in kernel.basis.breakpoints})
    kept = [sums[0]]
    for s in sums[1:]:
        if float(s - kept[-1]) > 1e-12:
            kept.append(s)
    return tuple(float(s) for s in kept)


def apply_weights_roll_stack(weights, coeffs):
    """`postproc.apply_weights_batched` as one np.roll copy of coeffs per shift, stacked."""
    stack = np.stack([np.roll(coeffs, -(weights.j_min + j), axis=0) for j in range(weights.weights.shape[1])], axis=0)
    return np.tensordot(stack, weights.weights, axes=([0, -1], [1, 2]))


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


def filter_axes_per_point(field, configs, ref, policy):
    """Filtered values and per-axis shifts, every boundary point on its own.

    The interior table is built for the mesh's h and applied by one einsum;
    under the position-dependent policy each point then takes its float
    `boundary_shift`, its own shifted kernel (`build_filter`) and its own
    point quadrature (`_point_rows` with that one kernel on the axis' line mesh).
    """
    u, d, mesh = field.coeffs, field.dim, field.mesh
    ref = np.asarray(ref, dtype=float)
    all_shifts = []
    for axis, cfg in enumerate(configs):
        h = mesh.h[axis]
        kern = filtercore.build_filter(cfg)
        ends = (axis, d + axis)
        src = np.moveaxis(u, ends, (0, -1))
        kw = postproc.kernel_weights(kern, h, ref, field.degree)
        stack = np.stack([np.roll(src, -(kw.j_min + j), axis=0) for j in range(kw.weights.shape[1])], axis=0)
        vals = np.einsum("qjm,jN...m->N...q", kw.weights, stack)
        shifts = np.zeros((mesh.elements[axis], len(ref)))
        if policy == postproc.POLICY_BOUNDARY:
            line = dgsolver.Mesh((mesh.bounds[axis],), (mesh.elements[axis],))
            x_all = mesh.centers(axis)[:, None] + 0.5 * h * ref[None, :]
            for (i, q), x in np.ndenumerate(x_all):
                lam = filtercore.boundary_shift(float(x), mesh.bounds[axis], h, kern.support_width)
                if lam != 0.0:
                    shifts[i, q] = lam
                    shifted = filtercore.build_filter(replace(cfg, shift=-Fraction(lam)))
                    cols, rows, _ = postproc._point_rows(line, field.degree, [shifted], [float(x)], postproc.POLICY_BOUNDARY)
                    vals[i, ..., q] = np.einsum("sm,s...m->...", rows[0], src[cols[0]])
        all_shifts.append(shifts)
        u = np.moveaxis(vals, (0, -1), ends)
    return u, tuple(all_shifts)


def filtered_interface_jumps_per_point(field, kernel) -> np.ndarray:
    """`postproc.filtered_interface_jumps` as two scalar `convolve_point` calls per interior interface."""
    jumps = []
    for x in field.mesh.edges(0)[1:-1]:
        left = postproc.convolve_point(field, kernel, math.nextafter(float(x), -math.inf))
        right = postproc.convolve_point(field, kernel, math.nextafter(float(x), math.inf))
        jumps.append(abs(right - left))
    return np.array(jumps)


def sample_per_point(field, *coords, side: str = "right") -> np.ndarray:
    """`dgsolver.sample` one point at a time: the located element's modes summed by `legval` per axis."""
    mesh = field.mesh
    located = [
        dgsolver._locate(np.atleast_1d(np.asarray(xs, dtype=float)), mesh.bounds[a][0], mesh.h[a],
                         mesh.elements[a], mesh.periodic[a], side)
        for a, xs in enumerate(coords)
    ]
    scales = [dgsolver.modal_scale(field.degree, h) for h in mesh.h]
    out = []
    for p in range(len(located[0][0])):
        v = field.coeffs[tuple(j[p] for j, _ in located)]
        for (_, r), scale in zip(located, scales):
            # legval evaluates along the leading (mode) axis of v
            v = legval(r[p], v * scale.reshape((-1,) + (1,) * (v.ndim - 1)))
        out.append(v)
    return np.array(out)


def _einsum_along_axes(subscripts: str, u: np.ndarray, operands, start: int) -> np.ndarray:
    """Apply einsum `subscripts` ("...i,<operands>->...o") along axis start+a with operands[a]."""
    for axis, ops in enumerate(operands):
        order = (*(i for i in range(u.ndim) if i != start + axis), start + axis)
        v = np.einsum(subscripts, u.transpose(order), *ops)
        u = v.transpose(sorted(range(u.ndim), key=order.__getitem__))
    return u


def project_einsum(fn, mesh, degree: int) -> np.ndarray:
    """`dgsolver.project_function`'s coefficients by Gauss sums against each mode, then a mode scaling, per axis."""
    k, d = degree, mesh.dim
    r, w = gauss_rule(k + 3)
    p = dgsolver._legendre_table(k, tuple(r))
    vals = np.asarray(fn(*dgsolver.element_points(mesh, (tuple(r),) * d)), dtype=float)
    vals = np.broadcast_to(vals, tuple(mesh.elements) + (k + 3,) * d)
    sums = _einsum_along_axes("...q,q,mq->...m", vals, [(w, p)] * d, d)
    scales = [(0.5 * np.sqrt((2.0 * np.arange(k + 1) + 1.0) * h),) for h in mesh.h]
    return _einsum_along_axes("...m,m->...m", sums, scales, d)


def gauss_values_einsum(field) -> np.ndarray:
    """A field's values on its k+3 Gauss grid, one modal-to-Gauss einsum per axis."""
    k, mesh = field.degree, field.mesh
    r, _ = gauss_rule(k + 3)
    p = dgsolver._legendre_table(k, tuple(r))
    mats = [(dgsolver.modal_scale(k, h)[:, None] * p,) for h in mesh.h]
    return _einsum_along_axes("...m,mq->...q", field.coeffs, mats, field.dim)


def matmul_along_axes(u: np.ndarray, mats, start: int) -> np.ndarray:
    """Apply mats[a] (i, o) along axis start+a of u, one `@` per axis."""
    for axis, m in enumerate(mats):
        ax = start + axis
        u = u @ m if ax == u.ndim - 1 else (u.swapaxes(ax, -1) @ m).swapaxes(ax, -1)
    return u


def project_per_axis(fn, mesh, degree: int) -> np.ndarray:
    """`dgsolver.project_function`'s coefficients by one Gauss-to-modal `@` per axis."""
    k, d = degree, mesh.dim
    r, w = gauss_rule(k + 3)
    p = dgsolver._legendre_table(k, tuple(r))
    vals = np.asarray(fn(*dgsolver.element_points(mesh, (tuple(r),) * d)), dtype=float)
    vals = np.broadcast_to(vals, tuple(mesh.elements) + (k + 3,) * d)
    mats = [(w[:, None] * p.T) * (0.5 * np.sqrt((2.0 * np.arange(k + 1) + 1.0) * h)) for h in mesh.h]
    return matmul_along_axes(vals, mats, d)


def gauss_values_per_axis(field) -> np.ndarray:
    """A field's values on its k+3 Gauss grid, one modal-to-Gauss `@` per axis."""
    k, mesh = field.degree, field.mesh
    p = dgsolver._legendre_table(k, tuple(gauss_rule(k + 3)[0]))
    return matmul_along_axes(field.coeffs, [dgsolver.modal_scale(k, h)[:, None] * p for h in mesh.h], field.dim)


def l2_norm_per_axis(mesh, squares: np.ndarray, weights, normalized: bool = False) -> float:
    """`dgsolver.grid_l2_norm` by one weight `@` per axis, last axis first."""
    total = squares
    for w in reversed(weights):
        total = total @ np.asarray(w)
    scale_out = 1.0 / math.sqrt(dgsolver.domain_measure(mesh)) if normalized else 1.0
    return scale_out * float(np.sqrt(math.prod(0.5 * h for h in mesh.h) * np.sum(total)))


def l2_norm_einsum(mesh, squares: np.ndarray, weights, normalized: bool = False) -> float:
    """`dgsolver.grid_l2_norm` with every weighted square formed by one einsum and summed by `math.fsum`."""
    idx = "abcdefgh"[: len(weights)]
    terms = np.einsum(f"...{idx},{','.join(idx)}->...{idx}", squares, *(np.asarray(w) for w in weights))
    scale_out = 1.0 / math.sqrt(dgsolver.domain_measure(mesh)) if normalized else 1.0
    return scale_out * math.sqrt(math.prod(0.5 * h for h in mesh.h) * math.fsum(terms.ravel()))


def power_increment_out_of_place(e: np.ndarray, n: int, mul) -> np.ndarray:
    """F with 1 + F = (1 + e)^n by binary powering: a zero F and out-of-place updates.

    The reference for `dgsolver._power_increment`, which must round every
    update the same way.
    """
    inc = np.zeros_like(e)
    while n:
        if n & 1:
            inc += e + mul(inc, e)
        n >>= 1
        if n:
            e = 2.0 * e + mul(e, e)
    return inc


def axis_blocks_per_spectrum(mesh, k: int, speed, axis: int) -> np.ndarray:
    """One axis' upwind operator Z per Fourier mode in `rfftn` order, each axis on its own spectrum.

    The last axis takes the half spectrum `rfftfreq`, the others the full
    `fftfreq`, so no wavenumber is taken by conjugation.
    """
    n = mesh.elements[axis]
    freq = np.fft.rfftfreq(n) if axis == mesh.dim - 1 else np.fft.fftfreq(n)
    return dgsolver._mode_blocks(k, float(speed[axis]), mesh.h[axis], freq)


def eigenvalues_per_axis(z: np.ndarray, v: np.ndarray, v_inv: np.ndarray) -> np.ndarray:
    """diag(V^-1 Z V) per wavenumber, Z V and its diagonal as k+1 broadcast multiply-adds each."""
    modes = range(z.shape[-1])
    zv = sum(z[..., :, j, None] * v[..., None, j, :] for j in modes)
    return sum(v_inv[..., :, j] * zv[..., j, :] for j in modes)
