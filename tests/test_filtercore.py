"""Filter kernels: nodes, moment systems, coefficient solves, geometry."""

import json
import math
import re
from dataclasses import replace
from fractions import Fraction as F

import mpmath as mp
import numpy as np
import pytest

from siac import basisfn as bf
from siac import dgsolver as dg
from siac import filtercore as fc
from siac import jsonvalues
from siac import postproc as pp
from siac.filtercore import FilterConfig
from siac.harness import verify
from oracles import (
    gauss_points, kernel_breakpoints_exact, raw_moment_per_order, reproduction_residual, sine_advection_1d,
)


def quad_raw_moment(nb, j, npts=150):
    """Binary64 Gauss quadrature of x^j against a numeric basis, piece by piece."""
    oracle = 0.0
    for a, b in zip(nb.breakpoints, nb.breakpoints[1:]):
        x, w = gauss_points(a, b, npts)
        oracle += float(np.dot(w, x**j * nb.evaluate_many(x)))
    return oracle


def quad_shifted_moment(basis, j, shift, npts=40):
    """Oracle: integral of phi(xi - shift) xi^j by quadrature."""
    total = 0.0
    for a, b in zip(basis.breakpoints, basis.breakpoints[1:]):
        x, w = gauss_points(float(a) + shift, float(b) + shift, npts)
        total += float(np.dot(w, x**j * basis.evaluate_many(x - shift)))
    return total


def solve_k1_by_hand():
    """Independent oracle for the k=1 standard-node coefficients.

    Raw moment conditions with the hat basis (unit mass, centered):
    sum c = 1, sum c*x_g = 0, sum c*(x_g^2 + 1/6) = 0.
    """
    m2 = F(1, 6)
    # symmetric ansatz (a, b, a): 2a + b = 1, 2a + (2a + b) m2 ... degree-2 row:
    # a(1 + m2) + b m2 + a(1 + m2) = 0  ->  2a(1 + m2) + b m2 = 0
    # substitute b = 1 - 2a: 2a + 2a m2 + m2 - 2a m2 = 0 -> a = -m2/2
    a = -m2 / 2
    return (a, 1 - 2 * a, a)


class TestNodes:
    def test_standard_k1(self):
        n = fc.make_nodes(1, "standard")
        assert n.positions == (F(-1), F(0), F(1))

    def test_compact_quarter(self):
        n = fc.make_nodes(2, "compact", epsilon=F(1, 4))
        assert n.positions == (F(-1, 2), F(-1, 4), F(0), F(1, 4), F(1, 2))

    def test_uniform_shift(self):
        n = fc.make_nodes(1, "standard", shift=1)
        assert n.positions == (F(0), F(1), F(2))

    def test_default_epsilon(self):
        assert fc.make_nodes(3, "compact").epsilon == F(1, 6)
        assert fc.default_epsilon(2) == F(1, 4)

    def test_count(self):
        for k in (1, 2, 3, 4):
            assert fc.make_nodes(k).count == 2 * k + 1

    @pytest.mark.parametrize("eps", [0, -0.5, 1.5])
    def test_epsilon_range(self, eps):
        with pytest.raises(ValueError):
            fc.make_nodes(2, "compact", epsilon=eps)

    def test_epsilon_needs_compact_layout(self):
        with pytest.raises(ValueError, match="epsilon applies only to compact nodes, got node kind 'standard'"):
            fc.make_nodes(1, "standard", epsilon=F(1, 8))

    def test_bad_degree_and_kind(self):
        with pytest.raises(ValueError):
            fc.make_nodes(0)
        with pytest.raises(ValueError):
            fc.make_nodes(1, "exotic")


class TestMomentMatrix:
    def test_k1_box_rows(self):
        psi2 = bf.basis("box", 2)
        nodes = fc.make_nodes(1, "standard")
        rows = fc.moment_matrix(psi2, nodes)
        assert rows[0] == [F(1), F(1), F(1)]
        assert rows[1] == [F(-1), F(0), F(1)]
        assert rows[2] == [F(7, 6), F(1, 6), F(7, 6)]

    def test_rows_match_quadrature_oracle(self):
        psi2 = bf.basis("box", 2)
        nodes = fc.make_nodes(1, "standard")
        rows = fc.moment_matrix(psi2, nodes)
        for j in (1, 2):
            for g, x in enumerate(nodes.positions):
                assert float(rows[j][g]) == pytest.approx(
                    quad_shifted_moment(psi2, j, float(x)), abs=1e-13
                )

    def test_zero_integral_rejected(self):
        odd = bf.PiecewiseFunction(
            [F(-1, 2), F(0), F(1, 2)],
            [[bf.Term(0, coeff=F(-1))], [bf.Term(0, coeff=F(1))]],
        )
        with pytest.raises(ValueError):
            fc.moment_matrix(odd, fc.make_nodes(1))


class TestCoefficientSolve:
    def test_k1_standard_frozen(self):
        c = fc.solve_coefficients_exact(bf.basis("box", 2), fc.make_nodes(1))
        assert c == (F(-1, 12), F(7, 6), F(-1, 12))
        assert c == solve_k1_by_hand()

    def test_k1_compact_half_frozen(self):
        c = fc.solve_coefficients_exact(
            bf.basis("box", 2), fc.make_nodes(1, "compact", epsilon=F(1, 2))
        )
        assert c == (F(-1, 3), F(5, 3), F(-1, 3))

    def test_k2_standard_frozen(self):
        c = fc.solve_coefficients_exact(bf.basis("box", 3), fc.make_nodes(2))
        assert c == (F(37, 1920), F(-97, 480), F(437, 320), F(-97, 480), F(37, 1920))

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("basis_kind", ["box", "raised_cosine"])
    def test_symmetry(self, k, basis_kind):
        kern = fc.build_filter(FilterConfig(k=k, basis=basis_kind))
        assert np.allclose(kern.coefficients, kern.coefficients[::-1], rtol=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("kind", ["standard", "compact"])
    def test_dual_solver_agreement(self, k, kind):
        basis = bf.basis("box", k + 1)
        nodes = fc.make_nodes(k, kind)
        exact = np.array([float(v) for v in fc.solve_coefficients_exact(basis, nodes)])
        approx = np.array([float(c) for c in fc.solve_coefficients_mp(basis, nodes)])
        rel = np.max(np.abs(exact - approx) / np.maximum(np.abs(exact), 1e-30))
        assert rel < 1e-12

    def test_one_elimination_for_both_arithmetics(self):
        # the pivot must swap rows here; the same routine solves exactly in
        # Fraction and to working precision in mpf, for two right-hand sides
        # at once, and rejects a singular system
        system = [[0, 2, 1, 4, 2], [1, 1, 1, 6, 3], [2, 1, 3, 13, 8]]
        assert fc._eliminate([[F(v) for v in row] for row in system]) == [[3, 1], [1, 0], [2, 2]]
        with mp.workdps(30):
            sol = fc._eliminate([[mp.mpf(v) for v in row] for row in system], mp.fsum)
            assert [[float(v) for v in row] for row in sol] == [[3.0, 1.0], [1.0, 0.0], [2.0, 2.0]]
        for num in (F, mp.mpf):
            with pytest.raises(fc.FilterConditioningError, match="singular"):
                fc._eliminate([[num(v) for v in row] for row in ([1, 2, 3], [2, 4, 5])])

    def test_conditioning_error_names_estimate(self):
        # the rational path absorbs any conditioning; the extended-precision
        # path must refuse once the estimate exceeds its headroom
        cfg = FilterConfig(k=3, basis="raised_cosine", nodes="compact", epsilon=1e-9)
        nodes = fc.make_nodes(3, "compact", epsilon=cfg.epsilon)
        estimate = fc.condition_estimate(bf.basis("raised_cosine", 4), nodes)
        with pytest.raises(fc.FilterConditioningError, match=re.escape(f"condition number {estimate:.3e} exceeds")):
            fc.build_filter(cfg)

    @pytest.mark.parametrize("basis", ["box", "raised_cosine"])
    def test_coefficient_overflow_refused_in_both_arithmetics(self, basis):
        # |c| ~ shift^(2k) leaves binary64: a Fraction (box) would raise
        # OverflowError and an mpf (raised cosine) round to inf
        nodes = fc.make_nodes(2, shift=F(10) ** 200)
        with pytest.raises(fc.FilterConditioningError, match=r"coefficients overflow binary64 \(max \|c\| ~ 1e799\)"):
            fc.solve_coefficients(bf.basis(basis, 3), nodes)
        with pytest.raises(fc.FilterConditioningError, match="coefficients overflow binary64"):
            fc.build_filter(FilterConfig(k=2, basis=basis, shift=F(10) ** 200))

    @pytest.mark.parametrize(("k", "shift"), [(4, 10**600), (2, 10**1500)], ids=["k4-1e600", "k2-1e1500"])
    def test_coefficient_overflow_named_past_the_int_string_limit(self, k, shift):
        # max |c| has more digits than str(int) prints (4300), so its exponent comes from its bit length
        biggest = max(map(abs, fc.solve_coefficients_exact(bf.basis("box", k + 1), fc.make_nodes(k, shift=shift))))
        pattern = r"coefficients overflow binary64 \(max \|c\| ~ 1e(\d+)\)"
        with pytest.raises(fc.FilterConditioningError, match=pattern) as info:
            fc.build_filter(FilterConfig(k=k, shift=shift))
        exponent = int(re.search(pattern, str(info.value))[1])
        assert exponent > 4300 and 10**exponent <= biggest < 10 ** (exponent + 1)

    def test_shift_covariance(self):
        # coefficients re-solved for shifted nodes still reproduce degree <= 2k
        kern = fc.build_filter(FilterConfig(k=2, basis="box", shift=F(37, 100)))
        xs = np.linspace(-2, 2, 21)
        assert max(fc.reproduction_residuals(kern, xs)) < 1e-10

    def test_raised_cosine_scale_absorbed(self):
        # seed integral is 1/2, so coefficients absorb the factor of two
        kern = fc.build_filter(FilterConfig(k=1, basis="raised_cosine"))
        assert fc.reproduction_residuals(kern, (0.0,), kern.coefficients_exact)[0] < 1e-14


class TestBuildFilter:
    def test_standard_support_width(self):
        assert fc.build_filter(FilterConfig(k=2)).support_width_exact == 7

    def test_compact_support_width_k3(self):
        kern = fc.build_filter(FilterConfig(k=3, basis="box", nodes="compact", epsilon=F(1, 6)))
        assert kern.support_width_exact == 5  # k + 2

    def test_compact_support_width_k2(self):
        kern = fc.build_filter(FilterConfig(k=2, basis="box", nodes="compact", epsilon=F(1, 4)))
        assert kern.support_width_exact == 4  # (2 eps + 1) k + 1

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_support_formula_helper(self, k):
        assert fc.build_filter(FilterConfig(k=k)).support_width_exact == 3 * k + 1
        for eps in (F(1, 2), F(1, 2 * k)):
            kern = fc.build_filter(FilterConfig(k=k, nodes="compact", epsilon=eps))
            assert kern.support_width_exact == (2 * eps + 1) * k + 1

    def test_eval_outside_support(self):
        kern = fc.build_filter(FilterConfig(k=1))
        assert kern.evaluate_unscaled(2.5) == 0.0
        assert kern.evaluate_unscaled(-2.0001) == 0.0

    def test_eval_symmetric(self):
        kern = fc.build_filter(FilterConfig(k=2))
        xs = np.linspace(0, 3.5, 30)
        assert np.allclose(kern.evaluate_unscaled(xs), kern.evaluate_unscaled(-xs), atol=1e-16)

    def test_unit_integral_by_quadrature(self):
        kern = fc.build_filter(FilterConfig(k=2))
        total = 0.0
        bps = kern.breakpoints_unscaled
        for a, b in zip(bps, bps[1:]):
            x, w = gauss_points(a, b, 12)
            total += float(np.dot(w, kern.evaluate_unscaled(x)))
        assert total == pytest.approx(1.0, abs=1e-13)

    def test_breakpoints_of_numeric_and_closed_form_bases(self):
        # bump and box k=1 share the node and basis breakpoint values, one as
        # binary64 and one as Fraction; neither may reuse the other's result
        bump = fc.build_filter(FilterConfig(k=1, basis="bump")).breakpoints_unscaled
        box = fc.build_filter(FilterConfig(k=1, basis="box")).breakpoints_unscaled
        assert bump == box == (-2.0, -1.0, 0.0, 1.0, 2.0)
        assert all(type(b) is float for b in bump + box)

    @pytest.mark.parametrize("cfg", [
        FilterConfig(k=2),
        FilterConfig(k=3, basis="raised_cosine", nodes="compact"),
        FilterConfig(k=2, basis="bump", nodes="compact", epsilon=F(1, 5)),
    ], ids=["box-standard", "raised-cosine-compact", "bump-compact"])
    def test_each_layout_solved_and_merged_once(self, cfg):
        # an unshifted kernel and 20 shifted ones add to the basis cache only
        # the layout's one inverse and one breakpoint merge, keyed (k, kind, eps)
        basis = bf.basis(cfg.basis, cfg.k + 1)
        nodes = fc.make_nodes(cfg.k, cfg.nodes, cfg.epsilon)
        layout = (nodes.k, nodes.kind, nodes.epsilon)
        mine = {("inverse", basis.is_rational) + layout, ("breakpoints",) + layout}
        derived = lambda: {key for key in basis._moment_cache if isinstance(key, tuple)}  # raw moments are int keys
        before = derived()
        for shift in [0] + [-F(x) for x in np.linspace(-3.7, 3.1, 20)]:
            fc.build_filter(replace(cfg, shift=shift)).breakpoints_unscaled
        assert mine <= derived() and derived() - before <= mine

    @pytest.mark.parametrize("nodes", ["standard", "compact"])
    def test_bump_breakpoints_are_exact_sums_rounded_once(self, nodes):
        # the bump's binary64 breakpoints are summed exactly with the nodes,
        # shifted or not, as the closed-form bases' Fractions are
        for shift in (0, F(3, 7), -F(math.e), F(-1.2345678901234567)):
            for k in (1, 2, 3):
                kern = fc.build_filter(FilterConfig(k=k, basis="bump", nodes=nodes, shift=shift))
                assert kern.breakpoints_unscaled == kernel_breakpoints_exact(kern), (k, shift)


class TestReproduction:
    def test_k2_standard_wide_window(self):
        kern = fc.build_filter(FilterConfig(k=2))
        xs = np.random.default_rng(11).uniform(-10, 10, 50)
        assert fc.reproduction_residuals(kern, xs)[4] < 1e-10

    def test_raised_cosine_k1(self):
        kern = fc.build_filter(FilterConfig(k=1, basis="raised_cosine"))
        xs = np.random.default_rng(12).uniform(-10, 10, 50)
        assert fc.reproduction_residuals(kern, xs)[2] < 1e-10

    def test_constant_tight(self):
        for kind in ("standard", "compact"):
            kern = fc.build_filter(FilterConfig(k=2, nodes=kind))
            assert fc.reproduction_residuals(kern, np.linspace(-5, 5, 11))[0] < 1e-14

    def test_box_compact_k3_measured_exactly(self):
        # criterion-7 points; binary64 quadrature of the evaluated kernel read
        # 1.29e-10 here, its own rounding rather than the coefficients'
        xs = np.random.default_rng(verify.SEED).uniform(-2.0, 2.0, 50)
        kern = fc.build_filter(FilterConfig(k=3, basis="box", nodes="compact", epsilon=F(1, 6)))
        assert fc.reproduction_residuals(kern, xs)[6] < 1e-10
        assert fc.reproduction_residuals(kern, xs, kern.coefficients_exact)[6] == 0.0

    def test_perturbed_stored_coefficients_fail(self):
        # the solve-precision vector still reproduces; the applied one does not
        kern = fc.build_filter(FilterConfig(k=2, basis="bump", nodes="compact"))
        bad = replace(kern, coefficients=kern.coefficients + 1e-9)
        xs = np.linspace(-2, 2, 9)
        assert max(fc.reproduction_residuals(bad, xs, bad.coefficients_exact)) < 1e-10
        result, unit_integral = verify.reproduction_checks({"bad": bad}, xs)
        assert not result.passed
        assert "stored worst residual" in result.detail
        assert "solve-precision worst residual" in result.detail
        # the unit integral reads the solve-precision pass
        assert unit_integral.name == "criterion-7/unit-integral bad" and unit_integral.passed

    def test_exact_bump_moments_match_quadrature(self):
        # exact moments of the stored pieces against binary64 quadrature
        nb = bf.basis("bump", 4)
        for j in range(7):
            assert abs(float(nb.raw_moment(j)) - quad_raw_moment(nb, j)) < 1e-15

    def test_bump_solve_precision_reproduces_to_its_digits(self):
        # the 45-digit bump solve is fed the stored pieces' exact moments, so
        # its coefficients reproduce them far below binary64 rounding
        xs = np.random.default_rng(verify.SEED).uniform(-2.0, 2.0, 50)
        bumps = {label: kern for label, kern in verify.standard_kernel_set().items() if label.startswith("bump/")}
        assert len(bumps) == 9
        for label, kern in bumps.items():
            assert max(fc.reproduction_residuals(kern, xs, kern.coefficients_exact)) <= 1e-30, label

    @pytest.mark.parametrize("cfg", [
        FilterConfig(k=3, basis="box", nodes="compact"),
        FilterConfig(k=3, basis="raised_cosine", nodes="compact"),
        FilterConfig(k=2, basis="bump", nodes="compact"),
    ], ids=["box-fraction", "raised-cosine-mpf", "bump"])
    def test_one_pass_equals_the_per_degree_residuals(self, cfg):
        # one defect pass per coefficient set gives every degree's float exactly
        kern = fc.build_filter(cfg)
        xs = np.random.default_rng(verify.SEED).uniform(-2.0, 2.0, 50)
        for coefficients in (kern.coefficients, kern.coefficients_exact):
            want = [reproduction_residual(kern, m, xs, coefficients) for m in range(2 * kern.k + 1)]
            assert fc.reproduction_residuals(kern, xs, coefficients) == want


def standard_width(k):
    return fc.build_filter(FilterConfig(k=k)).support_width


class TestBoundaryShift:
    def test_interior_zero(self):
        assert fc.boundary_shift(0.5, (0.0, 1.0), 0.05, standard_width(1)) == 0.0

    def test_left_boundary_half_support(self):
        lam = fc.boundary_shift(0.0, (0.0, 1.0), 0.05, standard_width(1))
        assert lam == pytest.approx(2.0)  # (3k+1)/2

    def test_right_boundary(self):
        lam = fc.boundary_shift(1.0, (0.0, 1.0), 0.05, standard_width(1))
        assert lam == pytest.approx(-2.0)

    def test_zone_width_standard_vs_compact(self):
        # shifted region extends (3k+1)/2 vs (k+2)/2 elements from the wall
        h, k = 0.05, 3
        std_zone = (3 * k + 1) / 2
        cmp_zone = (k + 2) / 2
        x_between = (cmp_zone + 0.1) * h
        compact = fc.build_filter(FilterConfig(k=k, nodes="compact", epsilon=F(1, 6))).support_width
        assert fc.boundary_shift(x_between, (0.0, 1.0), h, standard_width(k)) != 0.0
        assert fc.boundary_shift(x_between, (0.0, 1.0), h, compact) == 0.0
        x_inside = (std_zone + 0.1) * h
        assert fc.boundary_shift(x_inside, (0.0, 1.0), h, standard_width(k)) == 0.0

    def test_domain_too_short(self):
        with pytest.raises(fc.DomainTooShortError):
            fc.boundary_shift(0.5, (0.0, 1.0), 0.2, standard_width(3))

    def test_outside_domain(self):
        with pytest.raises(ValueError):
            fc.boundary_shift(2.0, (0.0, 1.0), 0.05, standard_width(1))

    def test_array_equals_scalar_calls(self):
        # one call over an array gives every point's scalar shift, bit for bit
        a, b, n = 0.0, 2 * math.pi, 23
        mesh = dg.interval_mesh(a, b, n)
        xs = dg.element_points(mesh, (tuple(dg.element_rule(3)[0]),))[0]
        widths = standard_width(3), fc.build_filter(FilterConfig(k=3, nodes="compact")).support_width
        for s in widths:
            got = fc.boundary_shift(xs, (a, b), mesh.h[0], s)
            want = [fc.boundary_shift(float(x), (a, b), mesh.h[0], s) for x in xs.flat]
            assert got.shape == xs.shape and all(type(v) is float for v in want)
            assert got.tobytes() == np.array(want).reshape(xs.shape).tobytes()
            assert np.count_nonzero(got) > 0 and np.count_nonzero(got == 0) > 0
        with pytest.raises(ValueError, match=r"evaluation point 7\.5 outside domain \[0\.0, 6\.28"):
            fc.boundary_shift(np.array([[0.5, 6.0], [7.5, 1.0]]), (a, b), mesh.h[0], widths[0])

    def test_zone_edge_takes_no_shift(self):
        # the Gauss centre of element N-4 lies 3.5 = S/2 elements from the
        # right end: a box standard k=2 window there fits up to rounding, so
        # each end shifts the same 17 of the 5-point grid's points, while a
        # point 1e-9 elements inside either zone still shifts
        s = standard_width(2)
        ref = (tuple(dg.element_rule(2)[0]),)
        for a, b in ((0.0, 1.0), (0.0, 2.0), (0.0, 2 * math.pi)):
            for n in range(10, 81):
                mesh = dg.interval_mesh(a, b, n)
                h = mesh.h[0]
                shifts = fc.boundary_shift(dg.element_points(mesh, ref)[0], (a, b), h, s)
                assert (np.count_nonzero(shifts > 0), np.count_nonzero(shifts < 0)) == (17, 17), (a, b, n)
                if n in (10, 11, 80):
                    assert len(pp.boundary_rows(FilterConfig(k=2), ref[0], 2, (a, b), n).shifts) == 34, (a, b, n)
                assert fc.boundary_shift(a + (3.5 - 1e-9) * h, (a, b), h, s) > 0, (a, b, n)
                assert fc.boundary_shift(b - (3.5 - 1e-9) * h, (a, b), h, s) < 0, (a, b, n)

    def test_shifted_window_fits(self):
        a, b, h = 0.0, 1.0, 0.025
        s = standard_width(2)
        for x in np.linspace(a, b, 101):
            lam = fc.boundary_shift(float(x), (a, b), h, s)
            lo = x + h * (lam - s / 2)
            hi = x + h * (lam + s / 2)
            assert lo >= a - 1e-12 and hi <= b + 1e-12


class TestNumericBasis:
    def test_seed_values(self):
        nb = bf.basis("bump", 1)
        assert nb(0.0) == pytest.approx(math.exp(-1.0), abs=1e-14)
        assert nb(0.6) == 0.0
        assert nb(0.49999) == pytest.approx(math.exp(-1.0 / (1.0 - 4 * 0.49999**2)), abs=1e-12)

    def test_integral_preserved(self):
        base = bf.basis("bump", 1).integral()
        for order in (2, 3, 4):
            assert bf.basis("bump", order).integral() == pytest.approx(base, abs=1e-14)

    def test_moments_keep_the_per_order_formula(self):
        # the shared per-piece Chebyshev sums change no moment
        nb = bf.basis_from_dict(bf.basis_to_dict("bump", 4, bf.basis("bump", 4)))
        for j in range(9):
            assert nb.raw_moment(j) == raw_moment_per_order(nb, j)

    def test_moment_against_quadrature(self):
        nb = bf.basis("bump", 3)
        for j in (0, 1, 2, 3):
            assert isinstance(nb.raw_moment(j), F)
            assert float(nb.raw_moment(j)) == pytest.approx(quad_raw_moment(nb, j), abs=1e-14)

    def test_box_convolution_matches_per_point_antiderivative(self):
        # oracle: the antiderivative evaluated one point at a time
        def per_point(nb, new):
            bps = nb.breakpoints
            anti, consts, c0 = [], [], 0.0
            for (a, b), coeff in zip(zip(bps, bps[1:]), nb.pieces):
                ci = np.polynomial.chebyshev.chebint(coeff, lbnd=-1) * (b - a) / 2.0
                anti.append(ci)
                consts.append(c0)
                c0 += np.polynomial.chebyshev.chebval(1.0, ci)

            def f_anti(x):
                if x <= bps[0]:
                    return 0.0
                if x >= bps[-1]:
                    return c0
                i = min(np.searchsorted(bps, x, side="right") - 1, len(anti) - 1)
                a, b = bps[i], bps[i + 1]
                return float(np.polynomial.chebyshev.chebval(2.0 * (x - a) / (b - a) - 1.0, anti[i])) + consts[i]

            pieces = []
            for a, b in zip(new, new[1:]):
                def g(t, a=a, b=b):
                    x = a + (np.asarray(t) + 1.0) * (b - a) / 2.0
                    return np.array([f_anti(xi + 0.5) - f_anti(xi - 0.5) for xi in x])

                pieces.append(np.polynomial.chebyshev.chebinterpolate(g, max(len(c) for c in nb.pieces) + 1))
            return pieces

        for order in (1, 2, 3):
            nb = bf.basis("bump", order)
            conv = nb.convolve_with_box()
            want = per_point(nb, conv.breakpoints)
            assert len(conv.pieces) == len(want)
            assert all(np.array_equal(p, q) for p, q in zip(conv.pieces, want))

    def test_kernel_reproduction(self):
        kern = fc.build_filter(FilterConfig(k=2, basis="bump"))
        xs = np.linspace(-2, 2, 21)
        assert max(fc.reproduction_residuals(kern, xs)) < 1e-10

    def test_support_matches_bspline_family(self):
        assert bf.basis("bump", 3).support == (-1.5, 1.5)


class TestKernelSerialization:
    @pytest.mark.parametrize(
        "cfg",
        [
            FilterConfig(k=2, basis="box", nodes="compact", epsilon=F(1, 4)),
            FilterConfig(k=2, basis="raised_cosine"),
            FilterConfig(k=1, basis="bump"),
        ],
        ids=["box-compact", "raised-cosine", "bump"],
    )
    def test_roundtrip_bit_identical(self, cfg):
        kern = fc.build_filter(cfg)
        back = fc.FilterKernel.from_dict(kern.to_dict())
        lo, hi = kern.support_unscaled
        pts = np.random.default_rng(5).uniform(lo - 0.1, hi + 0.1, 200)
        assert np.array_equal(kern.evaluate_unscaled(pts), back.evaluate_unscaled(pts))

    def test_file_roundtrip(self, tmp_path):
        kern = fc.build_filter(FilterConfig(k=1))
        path = tmp_path / "kern.json"
        kern.save(path)
        back = fc.FilterKernel.load(path)
        assert np.array_equal(back.coefficients, kern.coefficients)
        assert back.nodes == kern.nodes

    def test_rejects_foreign_document(self):
        with pytest.raises(ValueError):
            fc.FilterKernel.from_dict({"format": "something-else"})
        with pytest.raises(ValueError, match="not a kernel document"):
            fc.FilterKernel.from_dict([])

    @pytest.mark.parametrize(("kind", "positions", "message"), [
        ("custom", ["-1", "0", "1"], "unknown node kind 'custom'"),
        ("custom", ["0", "1/2", "7"], "unknown node kind 'custom'"),
        ("standard", ["0", "1/2", "7"], "positions ['0', '1/2', '7'] are not those of standard nodes"),
        ("compact", ["-1", "0", "1"], "positions ['-1', '0', '1'] are not those of compact nodes with epsilon 1/2"),
    ])
    def test_rejects_nodes_not_of_their_layout(self, kind, positions, message):
        doc = fc.build_filter(FilterConfig(k=1)).to_dict()
        doc["nodes"] = dict(doc["nodes"], kind=kind, positions=positions, epsilon="1/2" if kind == "compact" else None)
        with pytest.raises(ValueError, match=re.escape(message)):
            fc.FilterKernel.from_dict(doc)

    @pytest.mark.parametrize(("path", "value", "message"), [
        (("k",), 2.5, "malformed 'k': expected an integer, got 2.5"),
        (("k",), True, "malformed 'k': expected an integer, got True"),
        (("k",), 5, "malformed 'k': expected a degree in [1, 4], got 5"),
        (("k",), 600, "malformed 'k': expected a degree in [1, 4], got 600"),
        (("coefficients",), 5, "malformed 'coefficients': expected a list, got 5"),
        (("nodes", "positions"), "0", "malformed 'positions': expected a list, got '0'"),
        (("basis",), "box", "malformed 'basis': expected an object, got 'box'"),
        (("coefficients_exact",), ["1/0"] * 5, "malformed 'coefficients_exact'"),
        (("basis", "order"), "3", "malformed 'order': expected an integer, got '3'"),
        (("nodes", "shift"), "1e-99999", "malformed 'shift': not a rational number: '1e-99999' has a decimal exponent"),
        # an odd custom function integrates to 0, a seed `basisfn.basis` refuses
        (("basis",), {"kind": "custom", "order": 3, "function": {
            "breakpoints": ["-1/2", "0", "1/2"], "pieces": [[[0, "none", "0", "1"]], [[0, "none", "0", "-1"]]]}},
         "malformed 'basis': custom basis function must have nonzero integral"),
    ], ids=["k-float", "k-bool", "k-5", "k-600", "coefficients", "positions", "basis", "exact-zero-division",
            "order-string",
            "shift-exponent", "custom-zero-integral"])
    def test_rejects_a_malformed_value_naming_its_key(self, path, value, message):
        doc = fc.build_filter(FilterConfig(k=2)).to_dict()
        *outer, key = path
        inner = doc
        for part in outer:
            inner = inner[part]
        inner[key] = value
        with pytest.raises(ValueError, match=re.escape(message)):
            fc.FilterKernel.from_dict(doc)

    @pytest.mark.parametrize(("seed", "edit", "message"), [
        ("bump", lambda b: b["pieces"][0].__setitem__(0, "inf"), "not a finite hex float: 'inf'"),
        ("bump", lambda b: b["pieces"][0].__setitem__(0, "nan"), "not a finite hex float: 'nan'"),
        ("bump", lambda b: b["pieces"][0].__setitem__(0, "0x1p+2000"), "not a finite hex float: '0x1p+2000'"),
        ("bump", lambda b: b["breakpoints"].reverse(), "breakpoints must be strictly increasing"),
        ("bump", lambda b: b["pieces"].pop(), "need exactly one piece per interval: 3 breakpoints, 1 pieces"),
        ("bump", lambda b: b.pop("pieces"), "basis document lacks the key 'pieces'"),
        ("custom", lambda b: b["function"]["breakpoints"].__setitem__(-1, 1.5), "expected a fraction string, got 1.5"),
        ("custom", lambda b: b["function"]["breakpoints"].__setitem__(1, "1/0"), "not a rational number: '1/0'"),
        ("custom", lambda b: b["function"]["pieces"][0][0].__setitem__(0, 1.5), "expected an integer, got 1.5"),
        ("custom", lambda b: b["function"]["pieces"][0][0].__setitem__(1, "cos"),
         "polynomial terms carry no frequency, trig terms a nonzero one"),
        ("custom", lambda b: b["function"]["pieces"][0][0].__setitem__(3, "1e400"),
         "term coefficients and frequencies must be finite"),
        # a coefficient string without "0x" is a fraction string, never read as a hex float
        ("custom", lambda b: b["function"]["pieces"][0][0].__setitem__(3, "1e401"),
         "not a rational number: '1e401' has a decimal exponent beyond 400"),
        ("custom", lambda b: b["function"]["pieces"][0][0].__setitem__(3, "abc"), "not a rational number: 'abc'"),
    ], ids=["bump-piece-inf", "bump-piece-nan", "bump-piece-overflow", "bump-breakpoints-reversed",
            "bump-piece-dropped", "bump-pieces-missing", "custom-breakpoint-number", "custom-breakpoint-zero-denominator",
            "custom-degree-fraction", "custom-trig-zero-frequency", "custom-coefficient-beyond-float",
            "custom-coefficient-exponent", "custom-coefficient-not-a-number"])
    def test_rejects_a_malformed_basis_document_naming_basis(self, seed, edit, message):
        doc = fc.build_filter(FilterConfig(k=1, basis=PARABOLA_SEED if seed == "custom" else seed)).to_dict()
        edit(doc["basis"])
        with pytest.raises(ValueError, match=re.escape(f"malformed 'basis': {message}")):
            fc.FilterKernel.from_dict(json.loads(json.dumps(doc)))

    def test_decimal_exponent_bound(self):
        # the bound refuses a string before Fraction expands it; up to it the value is exact
        limit = jsonvalues.MAX_DECIMAL_EXPONENT
        assert jsonvalues.rational(f"-2.5E-{limit}") == F(-5, 2 * 10**limit)
        assert jsonvalues.rational(f"1e+{limit}") == 10**limit
        for text in (f"1e-{limit + 1}", f"1e{limit + 1}", "1e-10_000_000", "1e" + "9" * 5000):
            with pytest.raises(ValueError, match=re.escape(f"{text!r} has a decimal exponent beyond {limit}")):
                jsonvalues.rational(text)

    def test_every_standard_kernel_roundtrips(self):
        for label, kern in verify.standard_kernel_set().items():
            back = fc.FilterKernel.from_dict(json.loads(json.dumps(kern.to_dict())))
            assert back.nodes == kern.nodes and np.array_equal(back.coefficients, kern.coefficients), label

    @pytest.mark.parametrize("scaling", [0.5, 2.0, 0.0, -1.0, float("nan"), float("inf")])
    def test_build_filter_refuses_a_scaling(self, scaling):
        # a kernel is unscaled; each mesh axis applies it at H = h
        with pytest.raises(ValueError, match=f"FilterConfig.scaling must be 1: .* got {scaling!r}"):
            fc.build_filter(FilterConfig(k=1, scaling=scaling))

    @pytest.mark.parametrize("cfg", [
        FilterConfig(k=2, basis="box", nodes="compact", epsilon=F(1, 4)),
        FilterConfig(k=1, basis="bump", shift=F(3, 2)),
    ], ids=["box-compact", "bump-shifted"])
    def test_loads_a_document_that_carries_a_scale(self, cfg):
        # documents written while kernels carried a scale hold "scaling" and
        # "support"; they load to the kernel they always evaluated
        kern = fc.build_filter(cfg)
        scale = "0x1.999999999999ap-5"  # 0.05
        lo, hi = kern.support_unscaled
        h = float.fromhex(scale)
        doc = dict(kern.to_dict(), scaling=scale, support=[(h * lo).hex(), (h * hi).hex()])
        back = fc.FilterKernel.from_dict(json.loads(json.dumps(doc)))
        assert back.to_dict() == kern.to_dict()
        pts = np.random.default_rng(6).uniform(lo - 0.1, hi + 0.1, 200)
        assert kern.evaluate_unscaled(pts).tobytes() == back.evaluate_unscaled(pts).tobytes()

    @pytest.mark.parametrize("version", [7, 0, "1", True, None])
    def test_rejects_a_version_it_cannot_read(self, version):
        doc = dict(fc.build_filter(FilterConfig(k=1)).to_dict(), version=version)
        with pytest.raises(ValueError, match=re.escape(f"kernel document has version {version!r}")):
            fc.FilterKernel.from_dict(doc)


# the non-spline seed (3/2)(1 - 4x^2) on [-1/2, 1/2], unit integral
PARABOLA_SEED = bf.PiecewiseFunction([F(-1, 2), F(1, 2)], [[bf.Term(0, coeff=F(3, 2)), bf.Term(2, coeff=F(-6))]])


@pytest.mark.parametrize("k", [1, 2])
class TestCustomSeed:
    """A general (non-spline) seed taken end to end through `build_filter`."""

    def test_reproduces_polynomials(self, k):
        kern = fc.build_filter(FilterConfig(k, basis=PARABOLA_SEED))
        assert kern.basis_kind == "custom"
        xs = np.random.default_rng(7).uniform(-3.0, 3.0, 40)
        for coefficients in (kern.coefficients, kern.coefficients_exact):
            assert max(fc.reproduction_residuals(kern, xs, coefficients)) < 1e-10

    def test_json_roundtrip_bit_identical(self, k):
        kern = fc.build_filter(FilterConfig(k, basis=PARABOLA_SEED))
        back = fc.FilterKernel.from_dict(json.loads(json.dumps(kern.to_dict())))
        assert back.basis_kind == "custom" and back.basis == kern.basis
        lo, hi = kern.support_unscaled
        pts = np.random.default_rng(5).uniform(lo - 0.1, hi + 0.1, 200)
        assert np.array_equal(kern.evaluate_unscaled(pts), back.evaluate_unscaled(pts))

    def test_periodic_filtering_beats_dg(self, k):
        problem = sine_advection_1d()
        field = dg.solve(problem, dg.interval_mesh(0.0, 1.0, 20), k, cfl=0.05)
        exact = problem.exact(problem.final_time)
        filtered = pp.filter_field(field, FilterConfig(k, basis=PARABOLA_SEED)).l2_error(exact, normalized=True)
        assert filtered < dg.l2_error(field, exact, normalized=True)
