"""Piecewise function algebra: construction, convolution, moments, calculus."""

import json
import math
from fractions import Fraction as F

import numpy as np
import pytest

from siac import basisfn as bf
from siac.basisfn import PiecewiseFunction, QuadratureOnlyBasisError, Term
from oracles import gauss_points, limit


# the non-spline seed (3/2)(1 - 4x^2) on [-1/2, 1/2], unit integral
PARABOLA_SEED = PiecewiseFunction([F(-1, 2), F(1, 2)], [[Term(0, coeff=F(3, 2)), Term(2, coeff=F(-6))]])


def quad_moment(f, j, npts=40):
    """Independent quadrature oracle for integral of x^j f(x)."""
    total = 0.0
    for a, b in zip(f.breakpoints, f.breakpoints[1:]):
        x, w = gauss_points(float(a), float(b), npts)
        total += float(np.dot(w, x**j * f.evaluate_many(x)))
    return total


class TestBox:
    def test_values(self):
        b = bf.box()
        assert b(0.0) == 1.0
        assert b(0.75) == 0.0
        assert b.integral() == 1

    def test_support(self):
        assert bf.box().support == (-0.5, 0.5)


class TestConvolution:
    def test_box_once_gives_hat(self):
        psi2 = bf.box().convolve_with_box()
        assert psi2(0.0) == 1.0
        assert psi2.support == (-1.0, 1.0)
        assert psi2.evaluate_exact(F(-1, 2)) == F(1, 2)

    def test_twice_gives_quadratic(self):
        psi3 = bf.basis("box", 3)
        assert psi3(0.0) == 0.75

    def test_raised_cosine_once_at_half(self):
        rc2 = bf.raised_cosine_seed().convolve_with_box()
        assert rc2(0.5) == pytest.approx(0.25, abs=1e-15)

    def test_integral_preserved(self):
        for kind in ("box", "raised_cosine"):
            fs = [bf.basis(kind, order) for order in range(1, 6)]
            base = fs[0].integral()
            for f in fs[1:]:
                assert abs(float(f.integral()) - float(base)) < 1e-14

    def test_box_family_integral_exact(self):
        for order in range(1, 6):
            assert bf.basis("box", order).integral() == 1

    def test_support_width_arithmetic(self):
        for kind in ("box", "raised_cosine"):
            w0 = bf.basis(kind, 1).width
            for order in range(2, 6):
                assert bf.basis(kind, order).width == w0 + order - 1

    def test_breakpoint_merging(self):
        tiny = F(1, 10**13)
        f = PiecewiseFunction([F(-1, 2), F(1, 2) - tiny], [[Term(0)]])
        g = f.convolve_with_box()
        gaps = [float(b2 - b1) for b1, b2 in zip(g.breakpoints, g.breakpoints[1:])]
        assert min(gaps) > 1e-12


class TestBasisConstructor:
    def test_box4_at_zero_exact(self):
        assert bf.basis("box", 4).evaluate_exact(0) == F(2, 3)

    def test_raised_cosine3_at_zero(self):
        want = 3.0 / 8.0 + 1.0 / (2.0 * math.pi**2)
        assert bf.basis("raised_cosine", 3)(0.0) == pytest.approx(want, abs=1e-15)

    def test_symmetry(self):
        psi2 = bf.basis("box", 2)
        for x in np.linspace(0.0, 1.0, 17):
            assert psi2(float(x)) == pytest.approx(psi2(float(-x)), abs=1e-15)

    def test_bad_order(self):
        with pytest.raises(ValueError):
            bf.basis("box", 0)

    def test_bump_is_one_cached_cascade(self):
        # each order is built once, as one box convolution of the order below
        nb = bf.basis("bump", 3)
        assert isinstance(nb, bf.NumericBasis) and bf.basis("bump", 3) is nb
        fresh = bf.basis("bump", 2).convolve_with_box()
        assert nb.breakpoints == fresh.breakpoints == (-1.5, -0.5, 0.5, 1.5)
        assert len(nb.pieces) == len(fresh.pieces)
        assert all(np.array_equal(p, q) for p, q in zip(nb.pieces, fresh.pieces))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            bf.basis("mystery", 2)

    def test_custom_seed(self):
        seed = PiecewiseFunction([F(-1, 2), F(1, 2)], [[Term(0, coeff=F(2))]])
        f = bf.basis(seed, 2)
        assert f.integral() == 2
        assert f(0.0) == pytest.approx(2.0)

    def test_zero_integral_seed_rejected(self):
        odd = PiecewiseFunction(
            [F(-1, 2), F(0), F(1, 2)], [[Term(0, coeff=F(-1))], [Term(0, coeff=F(1))]]
        )
        with pytest.raises(ValueError):
            bf.basis(odd, 2)


class TestEvaluation:
    def test_support_right_endpoint_uses_left_piece(self):
        psi3 = bf.basis("box", 3)
        assert psi3(1.5) == 0.0

    def test_midpoint_value(self):
        assert bf.basis("box", 2)(-0.5) == 0.5

    def test_outside_support(self):
        assert bf.basis("box", 4)(2.1) == 0.0

    def test_breakpoint_takes_right_piece(self):
        d = bf.basis("box", 2).derivative()
        assert d(0.0) == -1.0
        assert limit(d, 0.0, "left") == 1.0
        assert limit(d, 0.0, "right") == -1.0

    def test_evaluate_many_matches_scalar(self):
        f = bf.basis("raised_cosine", 3)
        xs = np.linspace(-2.0, 2.0, 101)
        vec = f.evaluate_many(xs)
        for x, v in zip(xs, vec):
            assert v == f(float(x))

    def test_call_dispatch(self):
        f = bf.basis("box", 2)
        assert type(f(0.25)) is float and f(0.25) == f.evaluate_many(np.array([0.25]))[0]
        assert np.array_equal(f(np.array([0.25, 2.0])), f.evaluate_many(np.array([0.25, 2.0])))

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    @pytest.mark.parametrize("kind", ["box", "raised_cosine", "bump", "custom"])
    def test_one_evaluator(self, kind, order):
        # a scalar goes through the array evaluator; the one-sided limits of a
        # closed-form basis agree with it away from the breakpoints
        f = bf.basis(PARABOLA_SEED if kind == "custom" else kind, order)
        xs = np.random.default_rng(order).uniform(f.support[0] - 0.2, f.support[1] + 0.2, 400)
        xs = xs[np.min(np.abs(xs[:, None] - f.float_breakpoints), axis=1) > 1e-3][:50]
        assert len(xs) == 50
        for x in map(float, xs):
            assert f(x) == f(np.array([x]))[0]
            if isinstance(f, PiecewiseFunction):
                assert limit(f, x, "left") == limit(f, x, "right") == f(x)

    def test_exact_requires_rational(self):
        with pytest.raises(QuadratureOnlyBasisError):
            bf.basis("raised_cosine", 2).evaluate_exact(F(1, 4))


class TestMoments:
    def test_zeroth_is_unit(self):
        assert bf.basis("box", 2).moment(0, 0) == 1

    def test_first_vanishes_even(self):
        assert bf.basis("box", 2).moment(1, 0) == 0

    def test_second_moment_frozen_against_quadrature(self):
        # oracle: high-order quadrature of x^2 * psi over [-1, 1]
        psi2 = bf.basis("box", 2)
        oracle = quad_moment(psi2, 2)
        assert oracle == pytest.approx(1.0 / 6.0, abs=1e-14)
        assert psi2.moment(2, 0) == F(1, 6)

    @pytest.mark.parametrize("j", [0, 1, 2, 3, 4])
    def test_moments_match_quadrature(self, j):
        for kind, tol in (("box", 1e-13), ("raised_cosine", 1e-13)):
            f = bf.basis(kind, 3)
            assert float(f.raw_moment(j)) == pytest.approx(quad_moment(f, j), abs=tol)

    def test_shifted_moment_identity(self):
        f = bf.basis("box", 3)
        s = F(3, 7)
        # integral f(xi - s) xi^2 dxi = m2 + 2 s m1 + s^2 m0
        want = f.raw_moment(2) + 2 * s * f.raw_moment(1) + s * s * f.raw_moment(0)
        assert f.moment(2, s) == want

    def test_shifted_moment_quadrature_oracle(self):
        f = bf.basis("raised_cosine", 2)
        s = 0.37
        shifted_oracle = 0.0
        for a, b in zip(f.breakpoints, f.breakpoints[1:]):
            x, w = gauss_points(float(a) + s, float(b) + s, 40)
            shifted_oracle += float(np.dot(w, x**3 * f.evaluate_many(x - s)))
        assert float(f.moment(3, s)) == pytest.approx(shifted_oracle, abs=1e-13)

    def test_rational_exactness(self):
        m = bf.basis("box", 4).moment(4, F(1, 3))
        assert isinstance(m, F)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            bf.basis("box", 2).raw_moment(-1)


class TestDerivative:
    def test_half_step_identity_bspline(self):
        psi3, psi2 = bf.basis("box", 3), bf.basis("box", 2)
        d = psi3.derivative()
        for x in (-1.2, -0.3, 0.4, 1.1):
            assert d(x) == pytest.approx(psi2(x + 0.5) - psi2(x - 0.5), abs=1e-15)

    def test_zero_function(self):
        z = PiecewiseFunction([F(0), F(1)], [[Term(0, coeff=F(0))]])
        assert z.derivative()(0.5) == 0.0

    def test_raised_cosine2_derivative_continuous_at_zero(self):
        rc2 = bf.basis("raised_cosine", 2)
        d = rc2.derivative()
        left, right = limit(d, 0.0, "left"), limit(d, 0.0, "right")
        assert left == pytest.approx(right, abs=1e-15)
        # centered finite-difference oracle
        fd = (rc2(1e-6) - rc2(-1e-6)) / 2e-6
        assert fd == pytest.approx(left, abs=1e-5)

    @pytest.mark.parametrize("kind", ["box", "raised_cosine"])
    @pytest.mark.parametrize("order", [2, 3, 4, 5])
    def test_half_step_identity_all(self, kind, order, seed=7):
        f = bf.basis(kind, order)
        g = bf.basis(kind, order - 1)
        d = f.derivative()
        rng = np.random.default_rng(seed)
        worst = 0.0
        n = 0
        while n < 100:
            x = float(rng.uniform(*f.support))
            if min(abs(x - float(b)) for b in f.breakpoints) < 1e-6:
                continue
            n += 1
            worst = max(worst, abs(d(x) - (g(x + 0.5) - g(x - 0.5))))
        assert worst < 1e-13


def _derivative_n(f, n):
    for _ in range(n):
        f = f.derivative()
    return f


class TestSmoothnessLadder:
    @pytest.mark.parametrize("order", [2, 3, 4, 5])
    def test_bspline_class(self, order):
        f = bf.basis("box", order)
        smooth = _derivative_n(f, order - 2)
        for b in f.breakpoints[1:-1]:
            x = float(b)
            assert limit(smooth, x, "left") == pytest.approx(limit(smooth, x, "right"), abs=1e-12)
        rough = smooth.derivative()
        jumps = [abs(limit(rough, float(b), "left") - limit(rough, float(b), "right")) for b in f.breakpoints]
        assert max(jumps) > 0.1

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_raised_cosine_class(self, order):
        f = bf.basis("raised_cosine", order)
        smooth = _derivative_n(f, order)
        pts = list(f.breakpoints)
        for b in pts:
            x = float(b)
            assert limit(smooth, x, "left") == pytest.approx(limit(smooth, x, "right"), abs=1e-10)
        rough = smooth.derivative()
        jumps = [abs(limit(rough, float(b), "left") - limit(rough, float(b), "right")) for b in pts]
        assert max(jumps) > 0.1

    def test_finite_difference_jump_shrinks(self):
        # same claim via shrinking centered stencils on the first derivative
        f = bf.basis("box", 3)
        for b in f.breakpoints[1:-1]:
            x = float(b)
            prev = None
            for eps in (1e-3, 1e-5, 1e-7):
                fd_jump = abs((f(x + eps) - f(x)) / eps - (f(x) - f(x - eps)) / eps)
                if prev is not None:
                    assert fd_jump < prev
                prev = fd_jump


class TestSerialization:
    @pytest.mark.parametrize("kind,order", [("box", 4), ("raised_cosine", 3)])
    def test_roundtrip_bit_identical(self, kind, order):
        f = bf.basis(kind, order)
        g = bf.basis_from_dict(json.loads(json.dumps(bf.basis_to_dict("custom", order, f))))
        assert g == f
        xs = np.linspace(-2.1, 2.1, 57)
        assert np.array_equal(f.evaluate_many(xs), g.evaluate_many(xs))

    def test_float_payload_survives(self):
        f = PiecewiseFunction([F(0), F(1)], [[Term(2, "cos", F(2), 0.1234567890123456789)]])
        g = bf.basis_from_dict(json.loads(json.dumps(bf.basis_to_dict("custom", 1, f))))
        assert g.pieces[0][0].coeff == f.pieces[0][0].coeff


class TestValidation:
    def test_breakpoints_increasing(self):
        with pytest.raises(ValueError):
            PiecewiseFunction([F(1), F(0)], [[Term(0)]])

    def test_piece_count(self):
        with pytest.raises(ValueError):
            PiecewiseFunction([F(0), F(1)], [[Term(0)], [Term(0)]])

    def test_term_degree(self):
        with pytest.raises(ValueError):
            Term(-1)

    def test_term_trig(self):
        with pytest.raises(ValueError):
            Term(0, "tan", F(1))

    @pytest.mark.parametrize("make", [
        lambda bps, coeffs: PiecewiseFunction(bps, [[Term(0, coeff=c)] for c in coeffs]),
        lambda bps, coeffs: bf.NumericBasis(bps, [np.array([c]) for c in coeffs]),
    ], ids=["trig-polynomial", "chebyshev"])
    @pytest.mark.parametrize("bps,coeffs,message", [
        ([0, math.inf], [1.0], "breakpoints must be finite"),
        ([0, 10**400], [1.0], "breakpoints must be finite"),
        ([1, 0], [1.0], "breakpoints must be strictly increasing"),
        ([0, 1, 2], [1.0], "need exactly one piece per interval: 3 breakpoints, 1 pieces"),
        ([0, 1], [math.nan], "finite"),
        ([0], [], "need at least two breakpoints"),
    ], ids=["breakpoint-inf", "breakpoint-huge", "breakpoints-reversed", "piece-missing", "coefficient-nan",
            "one-breakpoint"])
    def test_both_representations_share_one_contract(self, make, bps, coeffs, message):
        with pytest.raises(ValueError, match=message):
            make(bps, coeffs)

    def test_immutable(self):
        f = bf.box()
        with pytest.raises(AttributeError):
            f.breakpoints = ()
