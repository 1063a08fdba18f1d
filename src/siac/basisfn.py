"""Every basis function of the filter, and the one factory `basis` that builds them.

A basis is the recursive construction

    phi^(1)   = seed (box, raised cosine, bump, custom),
    phi^(l+1) = phi^(l) * chi_[-1/2,1/2]   (convolution with the unit box),

and `basis(kind, order)` builds and caches every (kind, order) as one box
convolution of the order below.  All bases share `MomentBasis`: sorted
breakpoints, one formula per piece, raw and shifted moments, and a moment
cache in which `filtercore` also keeps each node layout's inverse moment
matrix and kernel breakpoint sums.  Two representations implement it:

- `PiecewiseFunction`: exact breakpoints plus, per interval, a sum of terms
  ``c * x^n * trig(q*pi*x)``.  That class is closed under differentiation,
  antidifferentiation and box convolution.  The box seed produces the
  central B-splines with exact rational coefficients; trig seeds carry
  binary64 coefficients but exact rational breakpoints and frequencies
  (stored as multiples of pi).  Custom seeds are of this kind.
- `NumericBasis`: binary64 breakpoints and one Chebyshev series per piece,
  for the bump seed exp(-1/(1-4x^2)), which has no closed form.

Every basis has one binary64 evaluator, `evaluate_many`, and `f(x)` sends a
scalar through it as well.  Beside it stands only the exact oracle
`PiecewiseFunction.evaluate_exact` of the rational family.

Raw moments are computed once per function, in the one arithmetic every
consumer can use: exact Fractions when no term is trigonometric (binary64
coefficients, and the bump's stored pieces, taken as the rationals they
are), mpf at SOLVER_DPS digits otherwise.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, Optional, Sequence, Union

import mpmath as mp
import numpy as np
from numpy.polynomial import chebyshev as _cheb

from .jsonvalues import hex_float, integer, is_finite, list_of, mapping, rational

Number = Union[Fraction, float, int]

SOLVER_DPS = 45  # working digits of trig moments and the extended-precision solve

TRIG_NONE = "none"
TRIG_COS = "cos"
TRIG_SIN = "sin"

_MERGE_TOL = 1e-12  # breakpoint sums closer than this are fused (`_merged_sums`)


class QuadratureOnlyBasisError(ValueError):
    """Raised when a symbolic operation receives a numeric-only basis."""


def _cospi(t: Fraction) -> Number:
    """cos(pi*t): exact (+-1, 0) at an integer or half-integer t, binary64 otherwise."""
    r = t % 2
    if r.denominator == 1:
        return 1 if r == 0 else -1
    if r.denominator == 2:
        return 0
    return math.cos(math.pi * float(t))


def _sinpi(t: Fraction) -> Number:
    """sin(pi*t): exact (+-1, 0) at an integer or half-integer t, binary64 otherwise."""
    r = t % 2
    if r.denominator == 1:
        return 0
    if r.denominator == 2:
        return 1 if r == Fraction(1, 2) else -1
    return math.sin(math.pi * float(t))


def _mpf(v) -> mp.mpf:
    """v at the active mpmath precision; a Fraction as numerator / denominator."""
    if isinstance(v, Fraction):
        return mp.mpf(v.numerator) / mp.mpf(v.denominator)
    return mp.mpf(v)


@dataclass(frozen=True)
class Term:
    """One summand c * x^degree * trig(freq*pi*x); freq is a multiple of pi."""

    degree: int
    trig: str = TRIG_NONE
    freq: Fraction = Fraction(0)
    coeff: Number = Fraction(1)

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError("term degree must be non-negative")
        if self.trig not in (TRIG_NONE, TRIG_COS, TRIG_SIN):
            raise ValueError(f"unknown trig part {self.trig!r}")
        if (self.trig == TRIG_NONE) != (self.freq == 0):
            raise ValueError(f"polynomial terms carry no frequency, trig terms a nonzero one; got {self}")

    def value(self, x: Fraction) -> Number:
        v = self.coeff * x**self.degree
        if self.trig == TRIG_COS:
            v = v * _cospi(self.freq * x)
        elif self.trig == TRIG_SIN:
            v = v * _sinpi(self.freq * x)
        return v


def _merge_terms(terms: Iterable[Term]) -> tuple[Term, ...]:
    acc: dict[tuple[int, str, Fraction], Number] = {}
    for t in terms:
        key = (t.degree, t.trig, t.freq)
        acc[key] = acc.get(key, 0) + t.coeff
    out = [
        Term(d, trig, f, c)
        for (d, trig, f), c in sorted(acc.items(), key=lambda kv: (kv[0][1], kv[0][2], kv[0][0]))
        if c != 0
    ]
    return tuple(out)


def _shift_arg(terms: Iterable[Term], delta: Fraction) -> list[Term]:
    """Terms of x -> f(x + delta) given the terms of f."""
    out: list[Term] = []
    for t in terms:
        # (x + delta)^n expansion
        poly = [(math.comb(t.degree, i) * delta ** (t.degree - i), i) for i in range(t.degree + 1)]
        if t.trig == TRIG_NONE:
            for c, i in poly:
                out.append(Term(i, TRIG_NONE, Fraction(0), t.coeff * c))
            continue
        cw, sw = _cospi(t.freq * delta), _sinpi(t.freq * delta)
        # cos(w(x+d)) = cos(wx)cos(wd) - sin(wx)sin(wd); sin likewise
        for c, i in poly:
            base = t.coeff * c
            if t.trig == TRIG_COS:
                if cw != 0:
                    out.append(Term(i, TRIG_COS, t.freq, base * cw))
                if sw != 0:
                    out.append(Term(i, TRIG_SIN, t.freq, -base * sw))
            else:
                if cw != 0:
                    out.append(Term(i, TRIG_SIN, t.freq, base * cw))
                if sw != 0:
                    out.append(Term(i, TRIG_COS, t.freq, base * sw))
    return out


def _antiderivative_terms(terms: Iterable[Term]) -> list[Term]:
    out: list[Term] = []
    for t in terms:
        if t.trig == TRIG_NONE:
            out.append(Term(t.degree + 1, TRIG_NONE, Fraction(0), t.coeff * Fraction(1, t.degree + 1)))
            continue
        # integral of x^m trig(wx) by repeated parts; w = freq*pi forces floats
        w = float(t.freq) * math.pi
        m, c, kind = t.degree, float(t.coeff), t.trig
        while True:
            if kind == TRIG_COS:
                out.append(Term(m, TRIG_SIN, t.freq, c / w))
                if m == 0:
                    break
                c, kind, m = -c * m / w, TRIG_SIN, m - 1
            else:
                out.append(Term(m, TRIG_COS, t.freq, -c / w))
                if m == 0:
                    break
                c, kind, m = c * m / w, TRIG_COS, m - 1
    return out


def _derivative_terms(terms: Iterable[Term]) -> list[Term]:
    out: list[Term] = []
    for t in terms:
        if t.degree > 0:
            out.append(Term(t.degree - 1, t.trig, t.freq, t.coeff * t.degree))
        if t.trig == TRIG_COS:
            out.append(Term(t.degree, TRIG_SIN, t.freq, -float(t.coeff) * float(t.freq) * math.pi))
        elif t.trig == TRIG_SIN:
            out.append(Term(t.degree, TRIG_COS, t.freq, float(t.coeff) * float(t.freq) * math.pi))
    return out


def _eval_terms(terms: Sequence[Term], x: Fraction) -> Number:
    total: Number = 0
    for t in terms:
        total = total + t.value(x)
    return total


def _merged_sums(offsets, points) -> tuple:
    """Sorted sums x + p; a sum within _MERGE_TOL of the last one kept is dropped.

    Carried in the arithmetic of the inputs: exact for Fractions, binary64
    for floats.
    """
    sums = sorted({x + p for x in offsets for p in points})
    merged = [sums[0]]
    for s in sums[1:]:
        if float(s - merged[-1]) > _MERGE_TOL:
            merged.append(s)
    return tuple(merged)


def _float_breakpoints(breakpoints: Sequence[Number], piece_count: int) -> np.ndarray:
    """Read-only binary64 breakpoints, after the checks both representations share.

    At least two finite (`is_finite`), strictly increasing breakpoints and
    one piece per interval; ValueError otherwise.
    """
    if len(breakpoints) < 2:
        raise ValueError("need at least two breakpoints")
    if not all(is_finite(b) for b in breakpoints):
        raise ValueError(f"breakpoints must be finite, got {list(map(str, breakpoints))}")
    if any(b1 >= b2 for b1, b2 in zip(breakpoints, breakpoints[1:])):
        raise ValueError(f"breakpoints must be strictly increasing, got {list(map(str, breakpoints))}")
    if piece_count != len(breakpoints) - 1:
        raise ValueError(f"need exactly one piece per interval: {len(breakpoints)} breakpoints, {piece_count} pieces")
    out = np.array([float(b) for b in breakpoints])
    out.setflags(write=False)
    return out


class MomentBasis:
    """A compactly supported basis: sorted breakpoints, one formula per piece, raw moments.

    A subclass sets `breakpoints` (exact Fractions, or binary64 for numeric
    pieces), their read-only binary64 copy `float_breakpoints` (checked by
    `_float_breakpoints`), `pieces` with finite coefficients and the cache
    dict `_moment_cache`, and defines the per-piece formula
    `_evaluate_piece`, `raw_moment`, `convolve_with_box` and
    `_integrand_degree`.  Support, evaluation, moments about a shift and the
    Gauss rule size are shared.  Beside the raw moments, the cache holds
    each node layout's inverse moment matrix and breakpoint sums (`filtercore`).
    """

    __slots__ = ()

    is_rational = False  # rational polynomial pieces, which the filter layer solves exactly

    @property
    def support(self) -> tuple[float, float]:
        return float(self.breakpoints[0]), float(self.breakpoints[-1])

    @property
    def width(self) -> Fraction:
        """Exact support width; binary64 breakpoints are taken as the rationals they are."""
        return Fraction(self.breakpoints[-1]) - Fraction(self.breakpoints[0])

    def __call__(self, x):
        """Values at a scalar or an array x, both by `evaluate_many`."""
        vals = self.evaluate_many(np.atleast_1d(x))
        return vals if np.ndim(x) > 0 else float(vals[0])

    def evaluate_many(self, xs: np.ndarray) -> np.ndarray:
        """Values at xs: right piece at interior breakpoints, left piece at the far end, zero outside."""
        xs = np.asarray(xs, dtype=float)
        out = np.zeros_like(xs)
        bps = self.float_breakpoints
        last = len(bps) - 2
        idx = np.minimum(np.searchsorted(bps, xs, side="right") - 1, last)
        inside = (xs >= bps[0]) & (xs <= bps[-1])
        for i in range(last + 1):
            m = inside & (idx == i)
            if m.any():
                out[m] = self._evaluate_piece(i, xs[m])
        return out

    def gauss_points(self, extra_degree: int) -> int:
        """Gauss points per cut for a piece times a polynomial of degree `extra_degree`.

        Sized by `_integrand_degree`; trig pieces (None) take ten points per
        cut, plenty below 1e-12.
        """
        deg = self._integrand_degree
        if deg is None:
            return 10
        return max(2, math.ceil((deg + extra_degree + 2) / 2))

    def integral(self) -> Number:
        """integral of f over its support: the zeroth raw moment."""
        return self.raw_moment(0)

    def moment(self, j: int, shift: Number = 0) -> Number:
        """integral of f(xi - shift) * xi^j d(xi)  =  sum_i C(j,i) shift^(j-i) m_i.

        Carried in the arithmetic of the raw moments: exact for Fractions,
        SOLVER_DPS digits for mpf.
        """
        if shift == 0:
            return self.raw_moment(j)
        shift = Fraction(shift)
        with mp.workdps(SOLVER_DPS):
            if isinstance(self.raw_moment(0), mp.mpf):
                shift = _mpf(shift)
            return sum(math.comb(j, i) * shift ** (j - i) * self.raw_moment(i) for i in range(j + 1))


class PiecewiseFunction(MomentBasis):
    """Immutable piecewise trig-polynomial with compact support and exact breakpoints."""

    __slots__ = ("breakpoints", "float_breakpoints", "pieces", "_float_pieces", "_moment_cache")

    def __init__(self, breakpoints: Sequence[Number], pieces: Sequence[Iterable[Term]]):
        object.__setattr__(self, "float_breakpoints", _float_breakpoints(breakpoints, len(pieces)))
        object.__setattr__(self, "breakpoints", tuple(Fraction(b) for b in breakpoints))
        object.__setattr__(self, "pieces", tuple(_merge_terms(p) for p in pieces))
        bad = next((t for p in self.pieces for t in p if not (is_finite(t.coeff) and is_finite(t.freq))), None)
        if bad is not None:
            raise ValueError(f"term coefficients and frequencies must be finite, got {bad}")
        # (coeff, degree, trig, frequency * pi) per term, in binary64, for evaluate_many
        float_pieces = tuple(
            tuple((float(t.coeff), t.degree, t.trig, float(t.freq) * math.pi) for t in p)
            for p in self.pieces
        )
        object.__setattr__(self, "_float_pieces", float_pieces)
        object.__setattr__(self, "_moment_cache", {})

    def __setattr__(self, name, value):  # immutability guard
        raise AttributeError("PiecewiseFunction is immutable")

    # -- basic queries ---------------------------------------------------

    @property
    def is_polynomial(self) -> bool:
        return all(t.trig == TRIG_NONE for p in self.pieces for t in p)

    @property
    def is_rational(self) -> bool:
        return self.is_polynomial and all(
            isinstance(t.coeff, (Fraction, int)) for p in self.pieces for t in p
        )

    @property
    def degree(self) -> int:
        return max((t.degree for p in self.pieces for t in p), default=0)

    @property
    def _integrand_degree(self) -> Optional[int]:
        return self.degree if self.is_polynomial else None

    # -- evaluation ------------------------------------------------------

    def _evaluate_piece(self, i: int, xm: np.ndarray) -> np.ndarray:
        acc = np.zeros_like(xm)
        for coeff, degree, trig, w in self._float_pieces[i]:
            v = coeff * xm**degree
            if trig == TRIG_COS:
                v = v * np.cos(w * xm)
            elif trig == TRIG_SIN:
                v = v * np.sin(w * xm)
            acc += v
        return acc

    def evaluate_exact(self, x: Number) -> Fraction:
        """Exact rational evaluation; only for the rational (B-spline) family."""
        if not self.is_rational:
            raise QuadratureOnlyBasisError("exact evaluation needs rational polynomial pieces")
        x, bps = Fraction(x), self.breakpoints
        if x < bps[0] or x > bps[-1]:
            return Fraction(0)
        # right piece at interior breakpoints, left piece at the far end
        i = min(bisect_right(bps, x) - 1, len(self.pieces) - 1)
        return Fraction(_eval_terms(self.pieces[i], x))

    # -- calculus --------------------------------------------------------

    def derivative(self) -> "PiecewiseFunction":
        return PiecewiseFunction(self.breakpoints, [_derivative_terms(p) for p in self.pieces])

    def raw_moment(self, j: int) -> Union[Fraction, mp.mpf]:
        """integral of x^j f(x) dx over the support.

        An exact Fraction when every term is polynomial, mpf at SOLVER_DPS
        digits when some term is trigonometric.
        """
        if j < 0:
            raise ValueError("moment order must be non-negative")
        cache = self._moment_cache
        if j not in cache:
            num = Fraction if self.is_polynomial else _mpf
            with mp.workdps(SOLVER_DPS):
                cache[j] = sum(
                    _definite_integral(t, j, num(a), num(b), num(t.coeff))
                    for (a, b), terms in zip(zip(self.breakpoints, self.breakpoints[1:]), self.pieces)
                    for t in terms
                )
        return cache[j]

    def convolve_with_box(self) -> "PiecewiseFunction":
        """Exact convolution with chi_[-1/2,1/2]; widens support by 1/2 each side."""
        half = Fraction(1, 2)
        bps = self.breakpoints
        # cumulative antiderivative F with F(bps[0]) = 0
        anti = [_antiderivative_terms(p) for p in self.pieces]
        consts: list[Number] = []
        c: Number = 0
        for i, (a, b) in enumerate(zip(bps, bps[1:])):
            consts.append(c - _eval_terms(anti[i], a))
            c = c + _eval_terms(anti[i], b) - _eval_terms(anti[i], a)
        total = c

        new_bps = _merged_sums((-half, half), bps)

        def f_upper_terms(xm: Fraction, delta: Fraction) -> list[Term]:
            """Terms of x -> F(x + delta) on the new piece containing xm."""
            arg = xm + delta
            if arg <= bps[0]:
                return []
            if arg >= bps[-1]:
                return [Term(0, TRIG_NONE, Fraction(0), total)]
            i = bisect_right(bps, arg) - 1
            i = min(i, len(anti) - 1)
            return _shift_arg(anti[i], delta) + [Term(0, TRIG_NONE, Fraction(0), consts[i])]

        pieces: list[list[Term]] = []
        for u, v in zip(new_bps, new_bps[1:]):
            xm = (u + v) / 2
            terms = f_upper_terms(xm, half)
            terms += [
                Term(t.degree, t.trig, t.freq, -t.coeff) for t in f_upper_terms(xm, -half)
            ]
            pieces.append(terms)
        return PiecewiseFunction(new_bps, pieces)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PiecewiseFunction):
            return NotImplemented
        return self.breakpoints == other.breakpoints and self.pieces == other.pieces

    def __hash__(self):
        return hash((self.breakpoints, self.pieces))

    def __repr__(self) -> str:
        return f"PiecewiseFunction({len(self.pieces)} pieces on [{self.support[0]}, {self.support[1]}])"


def _definite_integral(t: Term, extra_degree: int, a, b, coeff):
    """integral over [a, b] of x^extra_degree * term, whose coefficient is `coeff`.

    Polynomial terms are integrated in the arithmetic of a, b and coeff
    (Fraction or mpf); trig terms need mpf and the active mpmath precision.
    """
    m = t.degree + extra_degree
    if t.trig == TRIG_NONE:
        return coeff * (b ** (m + 1) - a ** (m + 1)) / (m + 1)
    w = _mpf(t.freq) * mp.pi
    sa, sb = mp.sin(w * a), mp.sin(w * b)
    ca, cb = mp.cos(w * a), mp.cos(w * b)
    # iterate I_cos(i), I_sin(i) = integrals of x^i cos(wx), x^i sin(wx)
    ic = (sb - sa) / w
    is_ = (ca - cb) / w
    pa, pb = mp.mpf(1), mp.mpf(1)  # a^i, b^i
    for i in range(1, m + 1):
        pa *= a
        pb *= b
        ic, is_ = (
            (pb * sb - pa * sa) / w - i * is_ / w,
            -(pb * cb - pa * ca) / w + i * ic / w,
        )
    return coeff * (ic if t.trig == TRIG_COS else is_)


# -- numeric basis (no closed form): piecewise Chebyshev representation ----


@lru_cache(maxsize=None)
def _chebyshev_moment(i: int, n: int) -> Fraction:
    """Exact integral over [-1, 1] of u^i T_n(u).

    u^i T_n = 2^-i sum_l C(i,l) T_|n-i+2l|, and T_m integrates to 2/(1-m^2)
    for even m, to 0 for odd m.
    """
    total = Fraction(0)
    for l in range(i + 1):
        r = abs(n - i + 2 * l)
        if r % 2 == 0:
            total += math.comb(i, l) * Fraction(2, 1 - r * r)
    return total / 2**i


class NumericBasis(MomentBasis):
    """Piecewise-Chebyshev basis for seeds without a closed trig-poly form.

    The box-convolution recursion is realized exactly in this representation:
    the antiderivative of a Chebyshev series is again a Chebyshev series, so
    phi^(l+1)(x) = F(x+1/2) - F(x-1/2) is a polynomial on each new piece and
    is re-interpolated without additional approximation error.  Only the
    initial fit of the seed is approximate (~1e-15 relative).  Breakpoints
    and coefficients are binary64; the moments are those of the stored
    pieces, exact.
    """

    def __init__(self, breakpoints: Sequence[float], coeffs: Sequence[np.ndarray]):
        self.float_breakpoints = _float_breakpoints(breakpoints, len(coeffs))
        self.breakpoints = tuple(self.float_breakpoints.tolist())
        self.pieces = [np.asarray(c, dtype=float) for c in coeffs]
        if not all(c.size and np.isfinite(c).all() for c in self.pieces):
            raise ValueError("each Chebyshev piece needs one or more coefficients, all finite")
        self._moment_cache: dict = {}

    @property
    def _integrand_degree(self) -> int:
        # the coefficient count, one above the piece degree, as the bump rule is sized
        return max(len(c) for c in self.pieces)

    def _evaluate_piece(self, i: int, xm: np.ndarray) -> np.ndarray:
        a, b = self.float_breakpoints[i], self.float_breakpoints[i + 1]
        return _cheb.chebval(2.0 * (xm - a) / (b - a) - 1.0, self.pieces[i])

    def convolve_with_box(self) -> "NumericBasis":
        bps = self.breakpoints
        anti = []
        consts = []
        c0 = 0.0
        for (a, b), coeff in zip(zip(bps, bps[1:]), self.pieces):
            ci = _cheb.chebint(coeff, lbnd=-1) * (b - a) / 2.0
            anti.append(ci)
            consts.append(c0)
            c0 += _cheb.chebval(1.0, ci)
        total = c0
        edges = self.float_breakpoints

        def f_anti(x: np.ndarray) -> np.ndarray:
            """Antiderivative on an array: 0 at or below bps[0], total at or above bps[-1]."""
            out = np.where(x <= edges[0], 0.0, total)
            idx = np.searchsorted(edges, x, side="right") - 1
            inside = (x > edges[0]) & (x < edges[-1])
            for i, (ci, const) in enumerate(zip(anti, consts)):
                m = inside & (idx == i)
                if m.any():
                    out[m] = _cheb.chebval(2.0 * (x[m] - bps[i]) / (bps[i + 1] - bps[i]) - 1.0, ci) + const
            return out

        merged = _merged_sums((-0.5, 0.5), bps)
        deg = self._integrand_degree + 1
        pieces = []
        for a, b in zip(merged, merged[1:]):
            def g(t, a=a, b=b):
                x = a + (np.asarray(t) + 1.0) * (b - a) / 2.0
                return f_anti(x + 0.5) - f_anti(x - 0.5)
            pieces.append(_cheb.chebinterpolate(g, deg))
        return NumericBasis(merged, pieces)

    def raw_moment(self, j: int) -> Fraction:
        """integral of x^j f(x) of the stored pieces in exact rational arithmetic.

        The binary64 breakpoints and Chebyshev coefficients are taken as the
        exact rationals they are; on a piece x = alpha + beta*u, u in [-1, 1],
        and each u^i T_n(u) has a closed-form integral.
        """
        if j not in self._moment_cache:
            total = Fraction(0)
            for alpha, beta, cs, sums in self._exact_pieces:
                # s_i = sum_n c_n * integral(u^i T_n) is shared by every moment j >= i
                for i in range(len(sums), j + 1):
                    sums.append(sum(c * _chebyshev_moment(i, n) for n, c in enumerate(cs) if (n + i) % 2 == 0))
                for i in range(j + 1):
                    total += math.comb(j, i) * alpha ** (j - i) * beta ** (i + 1) * sums[i]
            self._moment_cache[j] = total
        return self._moment_cache[j]

    @cached_property
    def _exact_pieces(self) -> list:
        """Per piece: the exact map x = alpha + beta*u, coefficients and the sums s_i found so far."""
        out = []
        for (a, b), coeff in zip(zip(self.breakpoints, self.breakpoints[1:]), self.pieces):
            alpha = (Fraction(a) + Fraction(b)) / 2
            beta = (Fraction(b) - Fraction(a)) / 2
            out.append((alpha, beta, [Fraction(float(c)) for c in coeff], []))
        return out


# -- basis families -------------------------------------------------------


def box() -> PiecewiseFunction:
    """Characteristic function of [-1/2, 1/2]."""
    h = Fraction(1, 2)
    return PiecewiseFunction([-h, h], [[Term(0)]])


def raised_cosine_seed() -> PiecewiseFunction:
    """(1 + cos(2 pi x)) / 2 on [-1/2, 1/2]."""
    h = Fraction(1, 2)
    return PiecewiseFunction(
        [-h, h],
        [[Term(0, TRIG_NONE, Fraction(0), Fraction(1, 2)), Term(0, TRIG_COS, Fraction(2), Fraction(1, 2))]],
    )


def bump_seed_callable(x):
    """exp(-1/(1-4x^2)) on (-1/2, 1/2), zero outside."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    m = np.abs(x) < 0.5
    xm = x[m]
    out[m] = np.exp(-1.0 / (1.0 - 4.0 * xm**2))
    return out


def bump_seed() -> NumericBasis:
    """The bump exp(-1/(1-4x^2)) as one Chebyshev interpolant of degree 220 on [-1/2, 1/2]."""
    return NumericBasis([-0.5, 0.5], [_cheb.chebinterpolate(lambda t: bump_seed_callable(t / 2.0), 220)])


_SEEDS = {"box": box, "raised_cosine": raised_cosine_seed, "bump": bump_seed}
BASIS_KINDS = tuple(_SEEDS)


@lru_cache(maxsize=64)
def basis(kind, order: int) -> MomentBasis:
    """phi^(order): the seed convolved with the unit box order-1 times.

    kind is 'box', 'raised_cosine', 'bump' or a custom PiecewiseFunction
    seed.  Every (kind, order) is built once, as one box convolution of the
    order below, so the moments and layout inverses a basis caches are
    shared by every kernel on it.
    """
    if order < 1:
        raise ValueError(f"basis order must be >= 1, got {order}")
    if order > 1:
        return basis(kind, order - 1).convolve_with_box()
    if isinstance(kind, PiecewiseFunction):
        if kind.integral() == 0:
            raise ValueError("seed must have nonzero integral")
        return kind
    if kind not in _SEEDS:
        raise ValueError(f"unknown basis kind {kind!r}")
    return _SEEDS[kind]()


def basis_to_dict(kind: str, order: int, f: MomentBasis) -> dict:
    """JSON form of the basis `f` = phi^(order) of `kind`.

    Box and raised cosine are stored by name and rebuilt exactly by `basis`;
    the bump carries its binary64 pieces as hex floats, so that an import
    evaluates bit for bit as the export did; a custom basis carries its
    exact pieces, each term as [degree, trig, frequency, coefficient] with
    the coefficient a fraction string or, in binary64, a hex float.
    """
    doc = {"kind": kind, "order": order}
    if kind == "bump":
        doc["breakpoints"] = [float(b).hex() for b in f.breakpoints]
        doc["pieces"] = [[float(v).hex() for v in c] for c in f.pieces]
    elif kind == "custom":
        doc["function"] = {
            "breakpoints": [str(b) for b in f.breakpoints],
            "pieces": [[[t.degree, t.trig, str(t.freq), _coefficient_text(t.coeff)] for t in p] for p in f.pieces],
        }
    return doc


def _coefficient_text(c: Number) -> str:
    return str(c) if isinstance(c, (Fraction, int)) else float(c).hex()


def _coefficient(v) -> Number:
    """A binary64 coefficient as a hex float ("0x..."), an exact one as a fraction string."""
    return hex_float(v) if isinstance(v, str) and "0x" in v else rational(v)


def _term(v) -> Term:
    degree, trig, freq, coeff = v
    return Term(integer(degree), trig, rational(freq), _coefficient(coeff))


def basis_from_dict(d: dict) -> MomentBasis:
    """The basis of a `basis_to_dict` document, every number read by a `jsonvalues` converter.

    A missing key, a refused value or basis, and a custom function of zero
    integral (a seed `basis` refuses) raise ValueError or TypeError.
    """
    try:
        if d["kind"] == "bump":
            return NumericBasis(list_of(hex_float)(d["breakpoints"]), list_of(list_of(hex_float))(d["pieces"]))
        if d["kind"] == "custom":
            fn = mapping(d["function"])
            f = PiecewiseFunction(list_of(rational)(fn["breakpoints"]), list_of(list_of(_term))(fn["pieces"]))
            if f.integral() == 0:
                raise ValueError("custom basis function must have nonzero integral")
            return f
        return basis(d["kind"], integer(d["order"]))
    except KeyError as e:
        raise ValueError(f"basis document lacks the key {e.args[0]!r}") from None
