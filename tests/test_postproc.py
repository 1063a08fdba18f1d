"""Filtering of DG fields: point convolution, grids, boundaries, 2D, utilities."""

import math
import re
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial.legendre import legval, legvander

from siac import dgsolver as dg
from siac import filtercore as fc
from siac import postproc as pp
from siac.filtercore import FilterConfig
from siac.quadrature import gauss_rule
from oracles import (
    apply_weights_roll_stack, divided_difference, filter_axes_per_point, filter_roll_stack,
    filtered_interface_jumps_per_point, rectangle_mesh, sine_advection_1d, sine_advection_2d,
)


@pytest.fixture(scope="module")
def sine():
    return sine_advection_1d()


@pytest.fixture(scope="module")
def solved_k2_n20(sine):
    return dg.solve(sine, dg.interval_mesh(0.0, 1.0, 20), 2, cfl=0.05)


class TestConvolvePoint:
    def test_constant_field(self):
        mesh = dg.interval_mesh(0.0, 1.0, 10)
        f = dg.project_function(lambda x: np.full_like(np.asarray(x, dtype=float), 3.25), mesh, 2)
        for cfg in (
            FilterConfig(k=2, basis="box"),
            FilterConfig(k=2, basis="raised_cosine", nodes="compact"),
        ):
            kern = fc.build_filter(cfg)
            assert pp.convolve_point(f, kern, 0.4337) == pytest.approx(3.25, abs=1e-14)

    def test_polynomial_reproduced_through_projection(self):
        # filtering the projection of x^{2k} is exact at interior points: the
        # residual term carries the (2k+1)th derivative, which vanishes
        mesh = dg.interval_mesh(0.0, 1.0, 40)
        k = 2
        f = dg.project_function(lambda x: np.asarray(x) ** (2 * k), mesh, k)
        kern = fc.build_filter(FilterConfig(k=k, basis="box"))
        for x in (0.3, 0.5, 0.6213):
            assert pp.convolve_point(f, kern, x) == pytest.approx(x ** (2 * k), abs=1e-10)

    def test_matches_weights_path(self, solved_k2_n20):
        cfg = FilterConfig(k=2, basis="box")
        ff = pp.filter_field(solved_k2_n20, cfg)
        kern = fc.build_filter(cfg)
        pts = ff.points(0)
        for j, q in ((0, 0), (7, 2), (19, 4)):
            direct = pp.convolve_point(solved_k2_n20, kern, float(pts[j, q]))
            assert ff.values[j, q] == pytest.approx(direct, abs=1e-14)

    def test_kernel_too_wide_for_domain(self):
        # both entry points refuse a mesh shorter than the support, under either policy
        mesh = dg.interval_mesh(0.0, 1.0, 4)
        f = dg.project_function(lambda x: np.asarray(x), mesh, 3)
        kern = fc.build_filter(FilterConfig(k=3, basis="box"))
        for policy in pp.POLICIES:
            with pytest.raises(fc.DomainTooShortError):
                pp.convolve_point(f, kern, 0.5, policy)
            with pytest.raises(fc.DomainTooShortError, match="domain of length 1.0 cannot contain the scaled kernel support 2.5"):
                pp.filter_field(f, FilterConfig(k=3, basis="box"), policy)

    def test_refuses_a_2d_field(self):
        mesh = rectangle_mesh((0, 1), (0, 1), 4, 4)
        f = dg.project_function(lambda x, y: np.sin(2 * np.pi * np.asarray(x)), mesh, 1)
        with pytest.raises(ValueError, match="convolve_point is one-dimensional"):
            pp.convolve_point(f, fc.build_filter(FilterConfig(k=1)), 0.5)

    def test_boundary_policy_rejects_leaky_window(self, solved_k2_n20):
        kern = fc.build_filter(FilterConfig(k=2, basis="box"))
        with pytest.raises(fc.DomainTooShortError):
            pp.convolve_point(solved_k2_n20, kern, 0.01, pp.POLICY_BOUNDARY)

    def test_unknown_policy(self, solved_k2_n20):
        kern = fc.build_filter(FilterConfig(k=2))
        with pytest.raises(ValueError):
            pp.convolve_point(solved_k2_n20, kern, 0.5, "reflecting")

    @pytest.mark.parametrize("policy", pp.POLICIES)
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "minus-inf"])
    def test_refuses_a_point_that_is_not_finite_naming_it(self, solved_k2_n20, policy, bad):
        # such a point once reached numpy's "cannot convert float NaN to integer", which names no point
        kern = fc.build_filter(FilterConfig(k=2))
        for x in (bad, np.array([0.3, bad, 0.6])):
            with pytest.raises(ValueError, match=re.escape(f"convolve_point needs finite points, got {bad}")):
                pp.convolve_point(solved_k2_n20, kern, x, policy)


def kernel_weights_per_cut(kernel, h, ref_points, degree):
    """Oracle: the weight table at H = h, one (point, element, cut) at a time."""
    t_lo, t_hi = kernel.support_unscaled
    bps = kernel.breakpoints_unscaled
    gr, gw = gauss_rule(kernel.basis.gauss_points(degree))
    ref = np.atleast_1d(np.asarray(ref_points, dtype=float))
    j_min = math.ceil((ref.min() - 1.0) / 2.0 - t_hi - 1e-12)
    j_max = math.floor((ref.max() + 1.0) / 2.0 - t_lo + 1e-12)
    w = np.zeros((len(ref), j_max - j_min + 1, degree + 1))
    mode_scale = np.sqrt(2.0 * np.arange(degree + 1) + 1.0) / (2.0 * math.sqrt(h))
    for iq, r in enumerate(ref):
        for j in range(j_min, j_max + 1):
            s_lo = max(-1.0, r - 2.0 * j - 2.0 * t_hi)
            s_hi = min(1.0, r - 2.0 * j - 2.0 * t_lo)
            if s_hi - s_lo < 1e-14:
                continue
            cuts = [s_lo, s_hi]
            for t in bps:
                s = r - 2.0 * j - 2.0 * float(t)
                if s_lo + 1e-14 < s < s_hi - 1e-14:
                    cuts.append(s)
            cuts.sort()
            acc = np.zeros(degree + 1)
            for a, b in zip(cuts, cuts[1:]):
                if b - a < 1e-14:
                    continue
                half = 0.5 * (b - a)
                s_g = a + half * (gr + 1.0)
                tau = (r - s_g) / 2.0 - j
                acc += (kernel.evaluate_unscaled(tau) * (half * gw)) @ legvander(s_g, degree)
            w[iq, j - j_min] = acc * mode_scale
    return w, j_min


def convolve_point_per_cut(field, kernel, x, policy):
    """Oracle: one filtered value at H = h, one cut at a time, in absolute coordinates."""
    mesh = field.mesh
    a, _ = mesh.bounds[0]
    n, h = mesh.elements[0], mesh.h[0]
    t_lo, t_hi = kernel.support_unscaled
    w_lo, w_hi = x - h * t_hi, x - h * t_lo
    cuts = {w_lo, w_hi}
    for t in kernel.breakpoints_unscaled:
        xi = x - h * float(t)
        if w_lo < xi < w_hi:
            cuts.add(xi)
    for i in range(math.ceil((w_lo - a) / h - 1e-12), math.floor((w_hi - a) / h + 1e-12) + 1):
        if w_lo < a + i * h < w_hi:
            cuts.add(a + i * h)
    cuts = sorted(cuts)
    gr, gw = gauss_rule(kernel.basis.gauss_points(field.degree))
    scale = dg.modal_scale(field.degree, h)
    total = 0.0
    for lo, hi in zip(cuts, cuts[1:]):
        if hi - lo < 1e-14 * h:
            continue
        j = int(math.floor(((lo + hi) / 2.0 - a) / h))
        j_idx = j % n if mesh.periodic[0] or policy == pp.POLICY_PERIODIC else min(max(j, 0), n - 1)
        half = 0.5 * (hi - lo)
        xi_g = lo + half * (gr + 1.0)
        u_g = legval(2.0 * (xi_g - a - j * h) / h - 1.0, field.coeffs[j_idx] * scale)
        kv = kernel.evaluate_unscaled((x - xi_g) / h) / h
        total += float(np.dot(half * gw, kv * u_g))
    return total


QUADRATURE_KERNELS = [
    FilterConfig(k=2, basis="box"),
    FilterConfig(k=3, basis="box", nodes="compact"),
    FilterConfig(k=2, basis="raised_cosine"),
    FilterConfig(k=3, basis="raised_cosine", nodes="compact"),
    FilterConfig(k=1, basis="bump"),
    FilterConfig(k=2, basis="bump", nodes="compact"),
]


class TestBatchedQuadrature:
    """The batched segment quadrature against its per-cut loops."""

    @pytest.mark.parametrize("cfg", QUADRATURE_KERNELS, ids=lambda c: f"{c.basis}-{c.nodes}-k{c.k}")
    def test_kernel_weights(self, cfg):
        h = 1.0 / 20
        kern = fc.build_filter(cfg)
        ref = gauss_rule(cfg.k + 3)[0]
        got = pp.kernel_weights(kern, h, ref, cfg.k)
        want, j_min = kernel_weights_per_cut(kern, h, ref, cfg.k)
        assert got.j_min == j_min and got.weights.shape == want.shape
        assert np.max(np.abs(got.weights - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("cfg", QUADRATURE_KERNELS, ids=lambda c: f"{c.basis}-{c.nodes}-k{c.k}")
    def test_convolve_point(self, cfg):
        # data bounded away from zero, so a relative tolerance means something
        mesh = dg.interval_mesh(0.0, 1.0, 20)
        field = dg.project_function(lambda x: 2.0 + np.sin(2 * np.pi * np.asarray(x)), mesh, cfg.k)
        h = field.mesh.h[0]
        kern = fc.build_filter(cfg)
        periodic = [(kern, x, pp.POLICY_PERIODIC) for x in (0.0123, 0.5, 0.9871)]
        boundary = []
        for x in (0.0017, 0.031, 0.9702, 0.9999):
            lam = fc.boundary_shift(x, (0.0, 1.0), h, kern.support_width)
            shifted = fc.build_filter(replace(cfg, shift=-Fraction(lam)))
            boundary.append((shifted, x, pp.POLICY_BOUNDARY))
        for kernel, x, policy in periodic + boundary:
            got = pp.convolve_point(field, kernel, x, policy)
            want = convolve_point_per_cut(field, kernel, x, policy)
            assert abs(got - want) <= 1e-14 * abs(want)


class TestFilterField:
    def test_reduces_error(self, sine, solved_k2_n20):
        exact = sine.exact(1.0)
        dg_err = dg.l2_error(solved_k2_n20, exact)
        ff = pp.filter_field(solved_k2_n20, FilterConfig(k=2, basis="box"))
        assert ff.l2_error(exact) < dg_err / 10

    def test_linearity(self):
        mesh = dg.interval_mesh(0.0, 1.0, 12)
        f1 = dg.project_function(lambda x: np.sin(2 * np.pi * np.asarray(x)), mesh, 2)
        f2 = dg.project_function(lambda x: np.cos(2 * np.pi * np.asarray(x)) ** 2, mesh, 2)
        a, b = 0.7, -1.3
        combo = dg.DGField(mesh, 2, a * f1.coeffs + b * f2.coeffs)
        cfg = FilterConfig(k=2, basis="box")
        lhs = pp.filter_field(combo, cfg).values
        rhs = a * pp.filter_field(f1, cfg).values + b * pp.filter_field(f2, cfg).values
        assert np.max(np.abs(lhs - rhs)) < 1e-13 * np.max(np.abs(rhs))

    def test_even_data_stays_even(self):
        mesh = dg.interval_mesh(0.0, 1.0, 16)
        f = dg.project_function(lambda x: np.cos(2 * np.pi * (np.asarray(x) - 0.5)), mesh, 2)
        ff = pp.filter_field(f, FilterConfig(k=2, basis="box"))
        vals = ff.values.ravel()
        assert np.max(np.abs(vals - vals[::-1])) < 1e-12

    def test_custom_ref_points_have_no_weights(self, solved_k2_n20):
        ref = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])  # the element ends are valid points
        ff = pp.filter_field(solved_k2_n20, FilterConfig(k=2), ref_points=ref)
        assert ff.quad_weights is None
        with pytest.raises(ValueError):
            ff.l2_error(lambda x: 0 * x)

    def test_empty_ref_points_rejected(self, solved_k2_n20):
        with pytest.raises(ValueError, match="ref_points is empty"):
            pp.filter_field(solved_k2_n20, FilterConfig(k=2), ref_points=[])

    @pytest.mark.parametrize("ref, policy, match", [
        ([1.5], pp.POLICY_PERIODIC, r"finite and in \[-1, 1\], got \[1.5\]"),
        ([-1.0, 0.2, 1.5], pp.POLICY_BOUNDARY, r"finite and in \[-1, 1\], got \[1.5\]"),
        ([np.nan, 0.0, -np.inf], pp.POLICY_PERIODIC, r"finite and in \[-1, 1\], got \[nan, -inf\]"),
        ([[0.1, 0.2]], pp.POLICY_PERIODIC, r"one-dimensional, got shape \(1, 2\): \[\[0.1, 0.2\]\]"),
    ], ids=["outside-periodic", "outside-boundary", "not-finite", "not-1d"])
    def test_bad_ref_points_rejected_before_any_stencil(self, solved_k2_n20, ref, policy, match):
        before = pp.axis_stencil.cache_info()
        with pytest.raises(ValueError, match=match):
            pp.filter_field(solved_k2_n20, FilterConfig(k=2, nodes="compact"), policy, ref_points=ref)
        after = pp.axis_stencil.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses)

    @pytest.mark.parametrize("name, value", [("scaling", 2.0), ("scaling", 0.5), ("shift", Fraction(1, 2))])
    def test_scaling_and_shift_are_set_per_axis(self, solved_k2_n20, name, value):
        # filter_field scales by h and shifts by the policy itself; a config
        # carrying its own scaling or shift is refused, not half applied
        cfg = replace(FilterConfig(k=2), **{name: value})
        for policy in pp.POLICIES:
            with pytest.raises(ValueError, match=f"FilterConfig.{name} must be"):
                pp.filter_field(solved_k2_n20, cfg, policy)

    def test_policy_tags(self, solved_k2_n20):
        ff = pp.filter_field(solved_k2_n20, FilterConfig(k=2), policy=pp.POLICY_BOUNDARY)
        zone_l, zone_r = pp.boundary_zone_edges(ff.kernels[0].support_width, (0.0, 1.0), solved_k2_n20.mesh.h[0])
        pts = ff.points(0)
        strictly_in = (pts > zone_l + 1e-9) & (pts < zone_r - 1e-9)
        strictly_out = (pts < zone_l - 1e-9) | (pts > zone_r + 1e-9)
        (shifts,) = ff.shifts
        assert np.all(shifts[strictly_in] == 0.0)
        assert np.all(shifts[strictly_out] != 0.0)

    def test_2d_field_rejected(self):
        # a 2D field takes one config for both axes or one per axis
        mesh = rectangle_mesh((0, 1), (0, 1), 4, 4)
        f = dg.project_function(lambda x, y: np.sin(2 * np.pi * np.asarray(x)), mesh, 1)
        with pytest.raises(ValueError, match=r"one per axis \(2\), got 3"):
            pp.filter_field(f, (FilterConfig(k=1),) * 3)
        with pytest.raises(ValueError, match="unknown policy"):
            pp.filter_field(f, FilterConfig(k=1), policy="reflecting")

    def test_periodic_policy_refuses_an_open_axis(self):
        # wrapping x^2 across the ends of an open [0, 1] used to give 0.445 at the first Gauss point
        open_1d = dg.project_function(lambda x: np.asarray(x) ** 2, dg.Mesh(((0.0, 1.0),), (20,), (False,)), 2)
        kernel = fc.build_filter(FilterConfig(k=2))
        with pytest.raises(ValueError, match="periodic policy cannot wrap axis 0: the mesh declares it open"):
            pp.filter_field(open_1d, FilterConfig(k=2))
        with pytest.raises(ValueError, match="periodic policy cannot wrap axis 0: the mesh declares it open"):
            pp.convolve_point(open_1d, kernel, np.array([0.01, 0.5]))
        open_y = dg.Mesh(((0.0, 1.0), (0.0, 1.0)), (6, 6), (True, False))
        with pytest.raises(ValueError, match="periodic policy cannot wrap axis 1: the mesh declares it open"):
            pp.filter_field(dg.project_function(lambda x, y: np.asarray(y), open_y, 1), FilterConfig(k=1))

    def test_position_dependent_policy_filters_an_open_axis(self):
        # the policy never reads Mesh.periodic: an open field filters as its periodic twin does
        fields = [dg.project_function(lambda x: np.asarray(x) ** 2, dg.Mesh(((0.0, 1.0),), (20,), (p,)), 2)
                  for p in (False, True)]
        ff, twin = (pp.filter_field(f, FilterConfig(k=2), pp.POLICY_BOUNDARY) for f in fields)
        assert np.array_equal(ff.values, twin.values)
        assert np.max(np.abs(ff.values - ff.points(0) ** 2)) < 1e-13
        kernel = fc.build_filter(FilterConfig(k=2))
        assert pp.convolve_point(fields[0], kernel, 0.5, pp.POLICY_BOUNDARY) == pytest.approx(0.25, abs=1e-13)


class TestOrderLift:
    @pytest.mark.parametrize("basis", ["box", "raised_cosine"])
    @pytest.mark.parametrize("nodes", ["standard", "compact"])
    def test_k1_superconvergence_all_variants(self, sine, basis, nodes):
        errs = []
        for n in (20, 40, 80):
            f = dg.solve(sine, dg.interval_mesh(0.0, 1.0, n), 1, cfl=0.05)
            ff = pp.filter_field(f, FilterConfig(k=1, basis=basis, nodes=nodes))
            errs.append(ff.l2_error(sine.exact(1.0)))
        orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
        assert all(o >= 3 - 0.3 for o in orders)

    def test_k2_raised_cosine_compact(self, sine):
        # the remaining basis/node combination not covered by the table sweeps
        errs = []
        for n in (20, 40):
            f = dg.solve(sine, dg.interval_mesh(0.0, 1.0, n), 2, cfl=0.05)
            ff = pp.filter_field(f, FilterConfig(k=2, basis="raised_cosine", nodes="compact"))
            errs.append(ff.l2_error(sine.exact(1.0)))
        assert math.log2(errs[0] / errs[1]) >= 5 - 0.3


# unequal N and lengths on three axes; every kernel's support fits each axis
MESH_3D = dg.Mesh(((0.0, 1.0), (-1.0, 2.0), (0.0, 2.0)), (10, 12, 11))

BOUNDARY_KERNELS = [
    FilterConfig(k=k, basis=basis, nodes=nodes)
    for basis in ("box", "raised_cosine", "bump")
    for nodes in ("standard", "compact")
    for k in (1, 2, 3)
]


class TestArrayPointCalls:
    """One array `convolve_point` call against one scalar call per point, bit for bit."""

    @pytest.mark.parametrize("cfg", QUADRATURE_KERNELS, ids=lambda c: f"{c.basis}-{c.nodes}-k{c.k}")
    def test_array_call_equals_scalar_calls(self, cfg):
        mesh = dg.interval_mesh(-1.0, 2.0, 23)
        field = dg.project_function(lambda x: 2.0 + np.sin(2 * np.pi * np.asarray(x) / 3.0), mesh, cfg.k)
        (a, b), h = mesh.bounds[0], mesh.h[0]
        kern = fc.build_filter(cfg)
        xs = np.concatenate([[a, b], np.random.default_rng(cfg.k).uniform(a, b, 30)])
        got = pp.convolve_point(field, kern, xs)
        assert np.array_equal(got, [pp.convolve_point(field, kern, float(x)) for x in xs])
        assert np.array_equal(pp.convolve_point(field, kern, xs[:8].reshape(2, 4)), got[:8].reshape(2, 4))
        # position-dependent: each point's shifted kernel, on it and on one
        # more point of xs whose window it keeps inside the domain
        for x in xs:
            lam = fc.boundary_shift(float(x), (a, b), h, kern.support_width)
            shifted = fc.build_filter(replace(cfg, shift=-Fraction(lam)))
            t_lo, t_hi = shifted.support_unscaled
            fits = (xs - h * t_hi >= a - 1e-12 * h) & (xs - h * t_lo <= b + 1e-12 * h)
            pts = np.append(x, xs[fits & (xs != x)][:1])
            got = pp.convolve_point(field, shifted, pts, pp.POLICY_BOUNDARY)
            assert np.array_equal(got, [pp.convolve_point(field, shifted, float(y), pp.POLICY_BOUNDARY) for y in pts])

    @pytest.mark.parametrize("cfg", BOUNDARY_KERNELS, ids=lambda c: f"{c.basis}-{c.nodes}-k{c.k}")
    def test_filtered_jumps_equal_scalar_limits(self, cfg):
        # the one call over all 2(N-1) one-sided limits gives the per-interface loop's bits
        mesh = dg.interval_mesh(-1.0, 2.0, 12)
        field = dg.project_function(lambda x: 2.0 + np.sin(2 * np.pi * np.asarray(x) / 3.0), mesh, cfg.k)
        kern = fc.build_filter(cfg)
        jumps = pp.filtered_interface_jumps(field, kern)
        assert jumps.shape == (11,)
        assert np.array_equal(jumps, filtered_interface_jumps_per_point(field, kern))

    def test_one_element_has_no_interfaces(self):
        field = dg.project_function(lambda x: np.asarray(x), dg.interval_mesh(0.0, 1.0, 1), 1)
        jumps = pp.filtered_interface_jumps(field, fc.build_filter(FilterConfig(k=1)))
        assert jumps.shape == (0,) and jumps.dtype == float


class TestBoundaryFiltering:
    @pytest.mark.parametrize("cfg", BOUNDARY_KERNELS, ids=lambda c: f"{c.basis}-{c.nodes}-k{c.k}")
    def test_shifted_points_match_per_cut_oracle(self, cfg):
        # every point gets the shift boundary_shift gives it, and every
        # shifted point the per-cut quadrature of its own shifted kernel
        mesh = dg.interval_mesh(0.0, 1.0, 16)
        field = dg.project_function(lambda x: 2.0 + np.sin(2 * np.pi * np.asarray(x)), mesh, cfg.k)
        h = mesh.h[0]
        # three points per element keep the per-cut bump oracle affordable
        ff = pp.filter_field(field, cfg, pp.POLICY_BOUNDARY, ref_points=gauss_rule(3)[0])
        width = fc.build_filter(cfg).support_width
        scale = np.max(np.abs(ff.values))
        (shifts,) = ff.shifts
        for idx, x in np.ndenumerate(ff.points(0)):
            lam = fc.boundary_shift(float(x), (0.0, 1.0), h, width)
            assert shifts[idx] == lam
            if lam != 0.0:
                kern = fc.build_filter(replace(cfg, shift=-Fraction(lam)))
                want = convolve_point_per_cut(field, kern, float(x), pp.POLICY_BOUNDARY)
                assert abs(ff.values[idx] - want) <= 1e-13 * scale
        assert np.all(shifts[0] > 0) and np.all(shifts[-1] < 0)

    @pytest.mark.parametrize("cfg", BOUNDARY_KERNELS, ids=lambda c: f"{c.basis}-{c.nodes}-k{c.k}")
    def test_one_call_gives_each_point_its_lone_row(self, cfg):
        # batching invariance: the rows of all shifted points, cut and
        # integrated in one `boundary_rows` call, are bit for bit the rows of
        # each point alone, padded with zero cuts; and `convolve_point` with
        # the point's shifted kernel sums that row against the coefficients
        mesh = dg.interval_mesh(0.0, 1.0, 16)
        field = dg.project_function(lambda x: 2.0 + np.sin(2 * np.pi * np.asarray(x)), mesh, cfg.k)
        ref = tuple(gauss_rule(3)[0])
        br = pp.boundary_rows(cfg, ref, cfg.k, mesh.bounds[0], mesh.elements[0])
        xs = dg.element_points(mesh, (ref,))[0][br.elements, br.points]
        for p, (x, lam) in enumerate(zip(xs, br.shifts)):
            kern = fc.build_filter(replace(cfg, shift=-Fraction(lam)))
            cols, rows, _ = pp._point_rows(mesh, cfg.k, [kern], [x], pp.POLICY_BOUNDARY)
            cuts = cols.shape[1]
            assert np.array_equal(br.cols[p, :cuts], cols[0]) and np.array_equal(br.rows[p, :cuts], rows[0])
            assert not br.cols[p, cuts:].any() and not br.rows[p, cuts:].any()
            value = pp.convolve_point(field, kern, float(x), pp.POLICY_BOUNDARY)
            assert value == float(np.sum(rows[0] * field.coeffs[cols[0]]))

    def test_boundary_error_larger_but_convergent(self, sine):
        # position-dependent kernels lose accuracy near walls yet stay superconvergent
        errs = []
        for n in (20, 40):
            f = dg.solve(sine, dg.interval_mesh(0.0, 1.0, n), 2, cfl=0.05)
            ff = pp.filter_field(f, FilterConfig(k=2, basis="box"), policy=pp.POLICY_BOUNDARY)
            errs.append(ff.l2_error(sine.exact(1.0)))
        assert math.log2(errs[0] / errs[1]) > 4.0

    @pytest.mark.parametrize("cfg", BOUNDARY_KERNELS, ids=lambda c: f"{c.basis}-{c.nodes}-k{c.k}")
    def test_domain_one_support_long(self, cfg):
        # N = S elements hold the support exactly, whatever the rounding of
        # the domain ends (S elements of [0, 5.7] sum past 5.7 for S = 5 and
        # 10); one element fewer is refused with its numbers, under either policy
        n = round(fc.build_filter(cfg).support_width)
        poly = lambda x: (1.0 + np.asarray(x)) ** cfg.k
        for a, b in ((0.0, 1.0), (0.0, 2 * math.pi), (-1.0, 2.0), (0.0, 3e5), (0.0, 5.7)):
            field = dg.project_function(poly, dg.interval_mesh(a, b, n), cfg.k)
            ff = pp.filter_field(field, cfg, pp.POLICY_BOUNDARY)
            # degree-k data is reproduced; measured <= 3.8e-12 (compact k = 3)
            assert np.max(np.abs(ff.values - poly(ff.points(0)))) <= 1e-10 * np.max(np.abs(ff.values)), (a, b)
            assert pp.filter_field(field, cfg).values.shape == ff.values.shape
            short = dg.interval_mesh(a, b, n - 1)
            message = f"domain of length {b - a} cannot contain the scaled kernel support {n * short.h[0]}"
            for policy in pp.POLICIES:
                with pytest.raises(fc.DomainTooShortError, match=re.escape(message)):
                    pp.filter_field(dg.project_function(poly, short, cfg.k), cfg, policy)

    def test_compact_zone_narrower(self, solved_k2_n20):
        h = solved_k2_n20.mesh.h[0]
        std = pp.boundary_zone_edges(fc.build_filter(FilterConfig(k=3)).support_width, (0.0, 1.0), h)
        cmp_ = pp.boundary_zone_edges(fc.build_filter(FilterConfig(k=3, nodes="compact")).support_width, (0.0, 1.0), h)
        assert std[0] == pytest.approx((3 * 3 + 1) / 2 * h)
        assert cmp_[0] == pytest.approx((3 + 2) / 2 * h)
        assert cmp_[0] < std[0]


class TestStencils:
    """Cached per-axis stencils against the per-point filter they replace."""

    @pytest.mark.parametrize("cfg", BOUNDARY_KERNELS, ids=lambda c: f"{c.basis}-{c.nodes}-k{c.k}")
    def test_matches_per_point_filter(self, cfg):
        # the smallest N whose every point takes a float boundary_shift, then 20 and 40
        n_min = math.floor(fc.build_filter(cfg).support_width) + 1
        data = lambda *xs: 2.0 + np.sin(2 * np.pi * xs[0]) * np.cos(xs[-1])
        fields = [dg.project_function(data, dg.interval_mesh(0.0, 1.0, n), cfg.k) for n in (n_min, 20, 40)]
        if cfg.basis != "bump":  # the costly bump oracle adds nothing to the 2D axis handling
            fields.append(dg.project_function(data, rectangle_mesh((0.0, 1.0), (-1.0, 2.0), n_min, n_min + 1), cfg.k))
        bounds = {pp.POLICY_PERIODIC: 2e-15, pp.POLICY_BOUNDARY: 1e-13}
        for field in fields:
            for policy, bound in bounds.items():
                # three points per element keep the per-point bump oracle affordable
                ff = pp.filter_field(field, cfg, policy, ref_points=gauss_rule(3)[0])
                want, want_shifts = filter_axes_per_point(field, (cfg,) * field.dim, ff.ref_points[0], policy)
                assert np.max(np.abs(ff.values - want)) <= bound * np.max(np.abs(want)), (field.mesh, policy)
                for got, lam in zip(ff.shifts, want_shifts):
                    assert np.max(np.abs(got - lam)) <= 1e-14

    def test_one_interior_stencil_serves_every_mesh(self):
        cfg = FilterConfig(k=2, basis="box", nodes="compact")
        pp.axis_stencil.cache_clear()
        for n in (20, 40):
            field = dg.project_function(lambda x: np.sin(2 * np.pi * x), dg.interval_mesh(0.0, 1.0, n), 2)
            pp.filter_field(field, cfg, pp.POLICY_BOUNDARY)
        assert pp.axis_stencil.cache_info().currsize == 1
        stencil = pp.axis_stencil(cfg, tuple(gauss_rule(5)[0]), 2)
        with pytest.raises(ValueError, match="read-only"):
            stencil.interior.weights[0, 0, 0] = 1.0

    def test_warm_path_builds_no_kernel(self, monkeypatch):
        # a config warmed on one mesh filters any other, of any dimension,
        # without building a kernel or integrating a moment
        cfg = FilterConfig(k=2, basis="raised_cosine")
        data = lambda *xs: np.sin(2 * np.pi * xs[0]) * np.cos(2 * np.pi * xs[-1])  # periodic on both meshes
        pp.filter_field(dg.project_function(data, dg.interval_mesh(0.0, 1.0, 20), 2), cfg)

        def refuse(*args, **kwargs):
            raise AssertionError("kernel work on a warm path")

        monkeypatch.setattr(fc, "build_filter", refuse)
        monkeypatch.setattr(pp, "_interior_moments", refuse)
        for mesh in (dg.interval_mesh(0.0, 1.0, 40), rectangle_mesh((0.0, 1.0), (-1.0, 2.0), 20, 24)):
            field = dg.project_function(data, mesh, 2)
            ff = pp.filter_field(field, cfg, pp.POLICY_PERIODIC)
            assert ff.l2_error(data) < dg.l2_error(field, data)

    def test_warm_cache_still_rejects_a_short_mesh(self):
        cfg = FilterConfig(k=2, basis="box")
        fine = dg.project_function(lambda x: np.sin(2 * np.pi * x), dg.interval_mesh(0.0, 1.0, 20), 2)
        pp.filter_field(fine, cfg, pp.POLICY_BOUNDARY)
        short = dg.project_function(lambda x: np.sin(2 * np.pi * x), dg.interval_mesh(0.0, 1.0, 6), 2)
        with pytest.raises(fc.DomainTooShortError, match=r"domain of length 1.0 cannot contain the scaled kernel support 1.16"):
            pp.filter_field(short, cfg, pp.POLICY_BOUNDARY)

    def test_returned_arrays_are_the_callers(self):
        field = dg.project_function(lambda x: np.sin(2 * np.pi * x), dg.interval_mesh(0.0, 1.0, 20), 2)
        cfg = FilterConfig(k=2, basis="raised_cosine")
        first = pp.filter_field(field, cfg, pp.POLICY_BOUNDARY)
        values, (shifts,) = first.values.copy(), first.shifts
        kept = shifts.copy()
        shifts[:] = 7.0
        first.values[:] = 7.0
        again = pp.filter_field(field, cfg, pp.POLICY_BOUNDARY)
        assert np.array_equal(again.shifts[0], kept) and np.array_equal(again.values, values)


class TestPerMeshCaches:
    """The cached Gauss grid and boundary rows against rebuilt ones."""

    CFG = FilterConfig(k=2, basis="raised_cosine", nodes="compact")

    @staticmethod
    def data(*xs):
        return np.sin(2 * np.pi * xs[0]) * np.cos(xs[-1]) + 0.5

    @pytest.mark.parametrize("policy", pp.POLICIES)
    @pytest.mark.parametrize("mesh", [dg.interval_mesh(0.0, 1.0, 20), rectangle_mesh((0.0, 1.0), (-1.0, 2.0), 12, 9)],
                             ids=["1d", "2d"])
    def test_warm_and_rebuilt_calls_agree(self, mesh, policy):
        field = dg.project_function(self.data, mesh, 2)
        first = pp.filter_field(field, self.CFG, policy)
        calls = [pp.filter_field(field, self.CFG, policy)]
        for cache in (pp.boundary_rows, dg.element_points, dg.element_rule, dg._weight_vector, pp._mode_scale,
                      pp._wrap_index, pp._axis_orders):
            cache.cache_clear()
        calls.append(pp.filter_field(field, self.CFG, policy))
        for ff in calls:
            assert np.array_equal(ff.values, first.values)
            assert all(np.array_equal(a, b) for a, b in zip(ff.shifts, first.shifts))
            assert ff.l2_error(self.data) == first.l2_error(self.data)

    def test_points_are_a_read_only_view_of_the_grid(self):
        ff = pp.filter_field(dg.project_function(self.data, rectangle_mesh((0.0, 1.0), (-1.0, 2.0), 12, 9), 2), self.CFG)
        for axis, n in enumerate((12, 9)):
            x = ff.points(axis)
            assert x.shape == (n, 5)
            assert np.array_equal(x, ff.mesh.centers(axis)[:, None] + 0.5 * ff.mesh.h[axis] * np.array(ff.ref_points[axis]))
            with pytest.raises(ValueError, match="read-only"):
                x[0, 0] = 0.0


class TestApplyWeights:
    """The one-gather weight application against the roll-and-stack it replaced."""

    @pytest.mark.parametrize("n", [3, 7, 20])
    @pytest.mark.parametrize("j_min", [-6, -1, 0, 4])
    def test_matches_roll_and_stack(self, n, j_min):
        # 11 shifts wrap a 3-element axis several times; the oracle takes
        # the element axis first, apply_weights_batched next to last
        rng = np.random.default_rng(31 * n + j_min)
        weights = pp.KernelWeights(rng.standard_normal((4, 11, 3)), j_min)
        grid = rng.standard_normal((5, n, 3, 3))  # a 2D field's coefficients, filtered along axis 1
        cube = rng.standard_normal((2, n, 4, 3, 3, 3))  # a 3D field's, filtered along axis 1
        views = (np.moveaxis(grid, (1, 3), (-2, -1)), cube.transpose(0, 2, 3, 5, 1, 4))
        for coeffs in (rng.standard_normal((n, 3)), *views):
            got = pp.apply_weights_batched(*weights, coeffs)
            assert np.array_equal(got, np.moveaxis(apply_weights_roll_stack(weights, np.moveaxis(coeffs, -2, 0)), 0, -2))
            # a transposed view gives the bits of its contiguous copy
            assert np.array_equal(got, pp.apply_weights_batched(*weights, np.ascontiguousarray(coeffs)))
        assert not any(v.flags.c_contiguous for v in views)
        # the k=3 standard table (q = 6, 11 shifts x 4 modes), whose bits a
        # C-ordered copy of the table changes
        weights = pp.KernelWeights(rng.standard_normal((6, 11, 4)), j_min)
        coeffs = rng.standard_normal((n, 4))
        assert np.array_equal(pp.apply_weights_batched(*weights, coeffs), apply_weights_roll_stack(weights, coeffs))

    @pytest.mark.parametrize("cfg", BOUNDARY_KERNELS, ids=lambda c: f"{c.basis}-{c.nodes}-k{c.k}")
    def test_filter_field_matches_roll_and_stack(self, cfg):
        # 10 elements hold every kernel's support but are fewer than the
        # shifts of the k=3 standard stencil
        data = lambda *xs: np.sin(2 * np.pi * xs[0]) * np.cos(xs[-1])
        meshes = (dg.interval_mesh(0.0, 1.0, 10), rectangle_mesh((0.0, 1.0), (-1.0, 2.0), 10, 20), MESH_3D)
        for field in (dg.project_function(data, mesh, cfg.k) for mesh in meshes):
            ff = pp.filter_field(field, cfg)
            assert np.array_equal(ff.values, filter_roll_stack(field, (cfg,) * field.dim, ff.ref_points[0]))
        # each 3D axis carries the unscaled kernel of its config
        for kern in ff.kernels:
            assert not hasattr(kern, "scaling") and kern.to_dict() == fc.build_filter(cfg).to_dict()


@pytest.fixture(scope="module")
def field2d():
    prob = sine_advection_2d()
    mesh = rectangle_mesh((0, 2 * math.pi), (0, 2 * math.pi), 10, 10)
    return prob, dg.solve(prob, mesh, 2, cfl=0.05)


class TestFilter2D:
    def test_error_drops(self, field2d):
        # on the coarse 10x10 mesh the gain is ~3x; fine meshes are covered
        # by the acceptance sweep
        prob, f = field2d
        exact = prob.exact(prob.final_time)
        before = dg.l2_error(f, exact, normalized=True)
        after = pp.filter_field(f, FilterConfig(k=2, basis="box")).l2_error(exact, normalized=True)
        assert after < before / 2

    def test_matches_1d_for_separable_field(self):
        # a y-independent field must filter exactly like its 1D restriction
        prob1 = sine_advection_1d()
        prob2 = dg.AdvectionProblem(
            (1.0, 1.0),
            lambda x, y: np.sin(2 * np.pi * np.asarray(x)) + 0 * np.asarray(y),
            1.0,
        )
        mesh1 = dg.interval_mesh(0, 1, 12)
        mesh2 = rectangle_mesh((0, 1), (0, 1), 12, 12)
        f1 = dg.solve(prob1, mesh1, 2, cfl=0.05)
        f2 = dg.solve(prob2, mesh2, 2, cfl=0.05)
        cfg = FilterConfig(k=2, basis="box")
        v1 = pp.filter_field(f1, cfg).values            # (N, q)
        v2 = pp.filter_field(f2, cfg).values            # (Nx, Ny, qx, qy)
        for jy in (0, 5, 11):
            for qy in (0, 2):
                assert np.allclose(v2[:, jy, :, qy], v1, atol=1e-12)

    def test_distinct_axes_match_1d_outer_product(self):
        # f(x) g(y) with nx != ny, hx != hy and a different kernel per axis:
        # under either policy the 2D filter must be the outer product of the
        # two 1D filters, boundary points included
        fx = lambda x: np.sin(2 * np.pi * np.asarray(x))
        gy = lambda y: np.cos(np.pi * np.asarray(y) / 1.5) + 0.3
        mx, my = dg.interval_mesh(0.0, 1.0, 12), dg.interval_mesh(-1.0, 2.0, 9)
        mesh = rectangle_mesh((0.0, 1.0), (-1.0, 2.0), 12, 9)
        f2 = dg.project_function(lambda x, y: fx(x) * gy(y), mesh, 2)
        cx = FilterConfig(k=2, basis="box")
        cy = FilterConfig(k=2, basis="raised_cosine", nodes="compact")
        for policy in pp.POLICIES:
            ffx = pp.filter_field(dg.project_function(fx, mx, 2), cx, policy)
            ffy = pp.filter_field(dg.project_function(gy, my, 2), cy, policy)
            ff2 = pp.filter_field(f2, (cx, cy), policy)
            outer = ffx.values[:, None, :, None] * ffy.values[None, :, None, :]
            assert ff2.values.shape == outer.shape == (12, 9, 5, 5)
            assert np.max(np.abs(ff2.values - outer)) < 1e-13 * np.max(np.abs(outer)), policy
            assert ff2.kernels[1].nodes.kind == "compact"
            assert all(np.array_equal(a, b) for a, b in zip(ff2.shifts, ffx.shifts + ffy.shifts))
            zero = lambda *xs: 0.0 * xs[0]
            assert ff2.l2_error(zero) == pytest.approx(ffx.l2_error(zero) * ffy.l2_error(zero), rel=1e-13)
            peak = lambda ff: np.max(np.abs(ff.values))
            assert peak(ff2) == pytest.approx(peak(ffx) * peak(ffy), rel=1e-13)

    def test_boundary_rows_replace_only_shifted_points(self, field2d):
        # points whose windows fit on both axes keep their periodic values
        _, f = field2d
        cfg = FilterConfig(k=2)
        periodic = pp.filter_field(f, cfg).values
        ff = pp.filter_field(f, cfg, pp.POLICY_BOUNDARY)
        sx, sy = ff.shifts
        shifted = (sx != 0)[:, None, :, None] | (sy != 0)[None, :, None, :]
        assert np.any(sx != 0) and np.any(sy != 0)
        assert np.array_equal(ff.values[~shifted], periodic[~shifted])
        assert not np.any(ff.values[shifted] == periodic[shifted])

    def test_boundary_rows_replace_only_shifted_points_3d(self):
        # a point keeps its periodic value unless some axis shifts its kernel
        f = dg.project_function(lambda x, y, z: np.exp(np.sin(3 * x) + np.sin(2 * y) + np.sin(z)), MESH_3D, 2)
        cfg = FilterConfig(k=2)
        periodic = pp.filter_field(f, cfg).values
        ff = pp.filter_field(f, cfg, pp.POLICY_BOUNDARY)
        on_any_axis = lambda x, y, z: x[:, None, None, :, None, None] | y[None, :, None, None, :, None] | z[None, None, :, None, None, :]
        shifted = on_any_axis(*(s != 0 for s in ff.shifts))
        assert all(np.any(s != 0) for s in ff.shifts) and np.any(~shifted)
        assert np.array_equal(ff.values[~shifted], periodic[~shifted])
        assert not np.any(ff.values[shifted] == periodic[shifted])

    def test_1d_field_rejected(self, solved_k2_n20):
        # one config per axis: an (x, y) pair does not fit a 1D field
        with pytest.raises(ValueError, match=r"one per axis \(1\), got 2"):
            pp.filter_field(solved_k2_n20, (FilterConfig(k=2), FilterConfig(k=2)))


class TestDividedDifference:
    def test_constant_is_zero(self):
        assert np.max(np.abs(divided_difference(np.ones(32), h=0.125))) == 0.0

    def test_linear_gives_slope(self):
        x = np.arange(48) * 0.1
        dd = divided_difference(x, h=0.2, spacing=0.1)
        assert np.allclose(dd[4:-4], 1.0, atol=1e-12)

    def test_alpha_two_matches_double_application(self):
        rng = np.random.default_rng(0)
        v = rng.normal(size=64)
        once = divided_difference(divided_difference(v, h=0.25), h=0.25)
        twice = divided_difference(v, h=0.25, alpha=2)
        assert np.array_equal(once, twice)

    def test_incompatible_spacing(self):
        with pytest.raises(ValueError):
            divided_difference(np.ones(10), h=0.1, spacing=0.03)

    def test_alpha_validated(self):
        with pytest.raises(ValueError):
            divided_difference(np.ones(10), h=0.1, alpha=0)


class TestJumpsAndPointwise:
    def test_filtered_jumps_vanish(self, sine):
        f = dg.solve(sine, dg.interval_mesh(0.0, 1.0, 20), 2, cfl=0.05)
        kern = fc.build_filter(FilterConfig(k=2, basis="box"))
        dg_jump = float(np.max(dg.interface_jumps(f)))
        filt_jump = float(np.max(pp.filtered_interface_jumps(f, kern)))
        assert filt_jump <= 1e-10 * dg_jump
