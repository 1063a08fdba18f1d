"""Convolution filter kernels built from shifted basis functions.

A kernel is sum_g c_g * phi^(k+1)(x - x_g) over 2k+1 node positions x_g.  The
coefficients are the unique solution of the polynomial-reproduction system:
convolving the kernel with any polynomial of degree <= 2k must return that
polynomial.  Node layouts: 'standard' (x_g = -k+g, support 3k+1) and 'compact'
(x_g = eps*(-k+g), support (2*eps+1)*k+1), both optionally shifted for
boundary use.  The node kinds `NODE_KINDS`, the epsilon rule
`epsilon_fault` and the support-fits-the-axis rule `check_support_fits`
are stated here once for every front end.

Every basis phi comes from the one factory `basisfn.basis(kind, order)`, and
this module uses only what all bases share (`basisfn.MomentBasis`): support,
breakpoints, evaluation, moments and exactness; it never asks which kind of
basis it holds.  Every basis computes its raw moments once
(`raw_moment`), in one arithmetic: exact Fractions for B-splines,
polynomial seeds and the bump's stored Chebyshev pieces (binary64 data taken
as the rationals it is), mpf at SOLVER_DPS digits for trig bases.  Every
consumer converts these moments: the condition estimate takes float(), the
extended-precision solve takes mpf, and the reproduction checks evaluate
exactly or at SOLVER_DPS digits according to the moment type.

The moment system is assembled from them (`moment_matrix`) and solved in one
of two arithmetics by the same pivoted elimination: exact rationals for the
rational (B-spline) family, extended precision (mpmath) for everything else.
Compressed node layouts make the moment matrix ill-conditioned, so binary64
solves are not trusted anywhere.  Every layout is symmetric about its
shift, the node mean.  About it, neither the moment matrix nor the exact
sums of node offsets and basis breakpoints depend on the shift, so both are
computed once per layout (k, node kind, epsilon), side by side in the basis'
moment cache: a shifted (boundary) kernel is M^-1 applied to (-shift)^j, and
its breakpoints are the layout's sums plus the shift, each rounded once.

A kernel is the unscaled K(x) = sum_g c_g phi(x - x_g); a mesh axis applies
(1/h) K(x/h).  Its one binary64 evaluator, `FilterKernel.evaluate_unscaled`,
is what every weight table and point quadrature integrates.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional, Union

import mpmath as mp
import numpy as np

from . import basisfn
from .basisfn import SOLVER_DPS, QuadratureOnlyBasisError, _merged_sums, _mpf
from .jsonvalues import check_header, hex_float, integer, list_of, mapping, rational

COND_LIMIT = 1e30        # beyond this the extended solve cannot be trusted

NODE_KINDS = ("standard", "compact")

# the degrees k that kernel documents, run configs, `siac build-filter --k` and `siac filter` accept
DEGREES = range(1, 5)


class FilterConditioningError(RuntimeError):
    """Moment system too ill-conditioned for the extended-precision solve."""


class DomainTooShortError(ValueError):
    """The scaled kernel support cannot fit inside the domain at all."""


# ---------------------------------------------------------------------------
# node distributions


@dataclass(frozen=True)
class NodeDistribution:
    k: int
    kind: str
    epsilon: Optional[Fraction]
    shift: Fraction
    positions: tuple[Fraction, ...]

    @property
    def count(self) -> int:
        return len(self.positions)

    @property
    def spread(self) -> Fraction:
        return self.positions[-1] - self.positions[0]


def default_epsilon(k: int) -> Fraction:
    """Compression parameter used when none is given: 1/(2k)."""
    return Fraction(1, 2 * k)


def epsilon_fault(kind: str, epsilon) -> Optional[str]:
    """Why `epsilon` cannot compress a layout of node kind `kind`, as text, or None if it can.

    The one rule and wording of every front end, which puts its own name for
    epsilon in front: it applies only to compact nodes and must satisfy
    0 < epsilon <= 1 there.  None, the default compression, always passes.
    """
    if epsilon is None or kind == "compact" and 0 < epsilon <= 1:
        return None
    if kind != "compact":
        return f"applies only to compact nodes, got node kind {kind!r}"
    return f"must satisfy 0 < epsilon <= 1, got {epsilon}"


def make_nodes(
    k: int,
    kind: str = "standard",
    epsilon: Union[Fraction, float, None] = None,
    shift: Union[Fraction, float] = 0,
) -> NodeDistribution:
    """2k+1 node positions for the requested layout, uniformly shifted.

    epsilon compresses the compact layout only; given for another layout it
    raises ValueError rather than go unused.
    """
    if k < 1:
        raise ValueError(f"polynomial degree k must be >= 1, got {k}")
    if kind not in NODE_KINDS:
        raise ValueError(f"unknown node kind {kind!r}; expected one of {NODE_KINDS}")
    fault = epsilon_fault(kind, epsilon)
    if fault:
        raise ValueError(f"epsilon {fault}")
    shift = Fraction(shift)
    if kind == "standard":
        base = [Fraction(-k + g) for g in range(2 * k + 1)]
        eps = None
    else:
        eps = default_epsilon(k) if epsilon is None else Fraction(epsilon)
        base = [eps * (-k + g) for g in range(2 * k + 1)]
    return NodeDistribution(k, kind, eps, shift, tuple(b + shift for b in base))


# ---------------------------------------------------------------------------
# moment systems

# The reproduction requirement "kernel * p = p for all polynomials p of degree
# <= 2k" is equivalent to the raw-moment conditions
#     sum_g c_g * integral(phi(s - x_g) s^j ds) = delta_j0,   j = 0..2k.
# Assembling instead about the node mean cbar (rows of (s - cbar)^j moments)
# is a triangular recombination of the same conditions with right-hand side
# (-cbar)^j; it keeps the shifted and compact systems far better conditioned
# than raw monomials do.


def moment_matrix(basis, nodes: NodeDistribution) -> list:
    """Rows j = 0..2k of shifted-basis moments about the node mean, the shift.

    Entry (j, g) is the j-th moment of phi(. - x_g) about `nodes.shift`;
    solving against the right-hand side (-shift)^j yields the reproduction
    coefficients.
    """
    if basis.integral() == 0:
        raise ValueError("basis must have nonzero integral")
    return [[basis.moment(j, shift=x - nodes.shift) for x in nodes.positions] for j in range(nodes.count)]


def _eliminate(a: list, total=sum) -> list:
    """Solve the augmented system `a` in place: n rows of n entries, then m right-hand sides.

    Gaussian elimination with partial pivoting in the number type of the
    entries (Fraction or mpf); `total` sums the back-substitution terms.
    Returns the n x m solution as a list of rows; m = n identity columns
    give the inverse.
    """
    n, width = len(a), len(a[0])
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(a[r][col]))
        if a[piv][col] == 0:
            raise FilterConditioningError("moment system is singular in the solve arithmetic")
        a[col], a[piv] = a[piv], a[col]
        for r in range(col + 1, n):
            f = a[r][col] / a[col][col]
            if f == 0:
                continue
            for c in range(col, width):
                a[r][c] -= f * a[col][c]
    sol = [None] * n
    for r in range(n - 1, -1, -1):
        sol[r] = [
            (a[r][c] - total(a[r][i] * sol[i][c - n] for i in range(r + 1, n))) / a[r][r]
            for c in range(n, width)
        ]
    return sol


def condition_estimate(basis, nodes: NodeDistribution) -> float:
    """1-norm condition estimate of the moment system in binary64."""
    return _condition(moment_matrix(basis, nodes))


def _condition(rows) -> float:
    """1-norm condition number of the assembled moment rows, taken in binary64."""
    a = np.array([[float(v) for v in row] for row in rows])
    try:
        return float(np.linalg.cond(a, 1))
    except np.linalg.LinAlgError:
        return math.inf


def _layout_inverse(basis, nodes: NodeDistribution, exact: bool):
    """Rows of the inverse moment matrix about the node mean, the shift.

    Every shift of a layout shares one inverse; it is factored once and
    kept in the basis' moment cache under ("inverse", exact, k, kind, eps).
    An exact inverse has each row as (integer numerators, common
    denominator); otherwise the rows are mpf at SOLVER_DPS digits, behind
    the COND_LIMIT check.  Both are assembled from the basis moments by
    `moment_matrix`.
    """
    key = ("inverse", exact, nodes.k, nodes.kind, nodes.epsilon)
    cache = basis._moment_cache
    if key not in cache:
        n = nodes.count
        identity = [[int(i == j) for i in range(n)] for j in range(n)]
        rows = moment_matrix(basis, nodes)
        if exact:
            inverse = _eliminate([[Fraction(v) for v in row] + e for row, e in zip(rows, identity)])
            # each row as integer numerators over one common denominator
            denominators = [math.lcm(*(v.denominator for v in row)) for row in inverse]
            cache[key] = [
                ([v.numerator * (d // v.denominator) for v in row], d) for row, d in zip(inverse, denominators)
            ]
        else:
            cond = _condition(rows)
            if not math.isfinite(cond) or cond > COND_LIMIT:
                raise FilterConditioningError(
                    f"moment system beyond the extended-precision solve: "
                    f"estimated condition number {cond:.3e} exceeds {COND_LIMIT:.1e}"
                )
            with mp.workdps(SOLVER_DPS):
                a = [[_mpf(v) for v in row] + e for row, e in zip(rows, identity)]
                cache[key] = _eliminate(a, mp.fsum)
    return cache[key]


def solve_coefficients_exact(basis, nodes: NodeDistribution) -> tuple[Fraction, ...]:
    """Exact M^-1 [(-shift)^j]; only for the rational (B-spline) family."""
    if not basis.is_rational:
        raise QuadratureOnlyBasisError("exact solve needs a rational polynomial basis")
    inverse = _layout_inverse(basis, nodes, exact=True)
    # with shift = p/q, c_g = sum_j M^-1[g][j] (-p)^j q^(n-1-j) / q^(n-1)
    p, q, n = nodes.shift.numerator, nodes.shift.denominator, nodes.count
    powers = [(-p) ** j * q ** (n - 1 - j) for j in range(n)]
    return tuple(Fraction(sum(a * w for a, w in zip(nums, powers)), d * q ** (n - 1)) for nums, d in inverse)


def solve_coefficients_mp(basis, nodes: NodeDistribution) -> tuple:
    """M^-1 [(-shift)^j] carried at SOLVER_DPS significant digits, as mpf."""
    inverse = _layout_inverse(basis, nodes, exact=False)
    with mp.workdps(SOLVER_DPS):
        rhs = [(-_mpf(nodes.shift)) ** j for j in range(nodes.count)]
        return tuple(mp.fsum(m * r for m, r in zip(row, rhs)) for row in inverse)


def solve_coefficients(basis, nodes: NodeDistribution):
    """Reproduction coefficients: floats plus the higher-precision original.

    Returns (float64 vector, exact Fractions or mpf tuple).  The second item
    preserves the solve precision for invariant checks that would otherwise
    drown in binary64 representation noise of large compact coefficients.
    Every layout is factored once (`_layout_inverse`); a shifted or
    unshifted kernel then costs one product with the right-hand side.
    Both arithmetics round to binary64 here: a coefficient beyond its range
    (a Fraction raises OverflowError, an mpf gives inf) raises
    FilterConditioningError naming the largest magnitude.
    """
    high = solve_coefficients_exact(basis, nodes) if basis.is_rational else solve_coefficients_mp(basis, nodes)
    try:
        floats = np.array([float(c) for c in high], dtype=float)
    except OverflowError:
        floats = np.array([math.inf])
    if not np.all(np.isfinite(floats)):
        # the decimal exponent by bit length: str() of an int past 4300 digits raises
        biggest = int(max(abs(_exact_number(c)) for c in high))
        exponent = int((biggest.bit_length() - 1) * math.log10(2))
        exponent += 10 ** (exponent + 1) <= biggest
        raise FilterConditioningError(
            f"coefficients overflow binary64 (max |c| ~ 1e{exponent}); "
            f"estimated condition number {condition_estimate(basis, nodes):.3e}"
        )
    return floats, high


# ---------------------------------------------------------------------------
# filter kernels


@dataclass(frozen=True)
class FilterConfig:
    """Declarative description of one filter kernel."""

    k: int
    basis: Union[str, basisfn.PiecewiseFunction] = "box"  # a kind of `basisfn.basis`, or a custom seed
    nodes: str = "standard"
    epsilon: Union[Fraction, float, None] = None
    shift: Union[Fraction, float] = 0
    scaling: float = 1.0  # must stay 1 (`build_filter`): each mesh axis scales the kernel by its h


# the benchmark's set-up calls and its traced run wraps this name; nothing in the package calls it
def bump_basis(order: int) -> basisfn.NumericBasis:
    return basisfn.basis("bump", order)


def kernel_sum(basis, coefficients: np.ndarray, node_floats: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Kernel values sum_g c_g phi(xs - x_g).

    One kernel, or one per row of xs when the (..., 2k+1) coefficient and
    node arrays broadcast against xs[..., None].  One basis evaluation
    serves all nodes; the sum runs node by node, so every value is the same
    rounded sum whatever else is evaluated with it.
    """
    phi = basis.evaluate_many(xs[..., None] - node_floats)
    acc = np.zeros_like(xs)
    for g in range(coefficients.shape[-1]):
        acc += coefficients[..., g] * phi[..., g]
    return acc


def _entry(doc: dict, key: str, convert):
    """convert(doc[key]); a value it cannot take raises ValueError naming the key.

    A missing key raises KeyError, which `FilterKernel.from_dict` names.
    """
    value = doc[key]
    try:
        return convert(value)
    except (TypeError, ValueError) as e:
        raise ValueError(f"kernel document has a malformed {key!r}: {e}") from None


@dataclass(frozen=True)
class FilterKernel:
    """The unscaled kernel sum_g c_g phi(x - x_g); a mesh axis applies it at H = h.

    coefficients_exact keeps the solve-precision values: Fractions on the
    rational path, mpf on the extended-precision path, None for imports
    that carried only binary64.
    """

    basis: object
    basis_kind: str
    nodes: NodeDistribution
    coefficients: np.ndarray
    coefficients_exact: Optional[tuple]

    def __post_init__(self):
        self.coefficients.setflags(write=False)

    @property
    def k(self) -> int:
        return self.nodes.k

    @cached_property
    def support_unscaled(self) -> tuple[float, float]:
        lo, hi = self.basis.support
        return float(self.nodes.positions[0]) + lo, float(self.nodes.positions[-1]) + hi

    @property
    def support_width(self) -> float:
        lo, hi = self.support_unscaled
        return hi - lo

    @property
    def support_width_exact(self) -> Fraction:
        return self.nodes.spread + self.basis.width

    @cached_property
    def breakpoints_unscaled(self) -> tuple[float, ...]:
        """Sorted kernel breakpoints in kernel coordinates: the layout's exact sums node offset + basis
        breakpoint, merged once and cached beside its inverse, plus the shift p/q by one rounded division."""
        nodes, cache = self.nodes, self.basis._moment_cache
        key = ("breakpoints", nodes.k, nodes.kind, nodes.epsilon)
        if key not in cache:
            offsets = [x - nodes.shift for x in nodes.positions]
            cache[key] = _merged_sums(offsets, [Fraction(b) for b in self.basis.breakpoints])
        n, d = nodes.shift.numerator, nodes.shift.denominator
        return tuple((p.numerator * d + n * p.denominator) / (p.denominator * d) for p in cache[key])

    @cached_property
    def node_floats(self) -> np.ndarray:
        return np.array([float(x) for x in self.nodes.positions])

    def evaluate_unscaled(self, x) -> np.ndarray:
        """sum_g c_g phi(x - x_g) at a scalar or an array x."""
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        acc = kernel_sum(self.basis, self.coefficients, self.node_floats, xs)
        return acc if np.ndim(x) > 0 else float(acc[0])

    # serialization --------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "format": "siac-kernel",
            "version": 1,
            "k": self.k,
            "basis": basisfn.basis_to_dict(self.basis_kind, self.k + 1, self.basis),
            "nodes": {
                "kind": self.nodes.kind,
                "epsilon": str(self.nodes.epsilon) if self.nodes.epsilon is not None else None,
                "shift": str(self.nodes.shift),
                "positions": [str(p) for p in self.nodes.positions],
            },
            "coefficients": [float(c).hex() for c in self.coefficients],
            "coefficients_exact": (
                [str(c) for c in self.coefficients_exact]
                if self.coefficients_exact is not None
                and all(isinstance(c, (Fraction, int)) for c in self.coefficients_exact)
                else None
            ),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FilterKernel":
        """Kernel from its JSON document; a malformed document raises ValueError naming the key.

        An older document's "scaling" and "support" are ignored: the kernel never read them.
        """
        check_header(d, "siac-kernel", "kernel")
        try:
            k = _entry(d, "k", integer)
            if k not in DEGREES:
                raise ValueError(f"kernel document has a malformed 'k': expected a degree in "
                                 f"[{DEGREES[0]}, {DEGREES[-1]}], got {k}")
            bd = _entry(d, "basis", mapping)
            if _entry(bd, "order", integer) != k + 1:
                raise ValueError(f"kernel of degree k={k} needs basis order {k + 1}, got {bd['order']}")
            basis = _entry(d, "basis", basisfn.basis_from_dict)
            basis_kind = bd["kind"]
            nd = _entry(d, "nodes", mapping)
            kind, shift = nd["kind"], _entry(nd, "shift", rational)
            epsilon = _entry(nd, "epsilon", lambda v: None if v is None else rational(v))
            positions = _entry(nd, "positions", list_of(rational))
            coeffs = np.array(_entry(d, "coefficients", list_of(hex_float)))
            exact = (
                _entry(d, "coefficients_exact", list_of(rational))
                if d.get("coefficients_exact") is not None
                else None
            )
        except KeyError as e:
            raise ValueError(f"kernel document lacks the key {e.args[0]!r}") from None
        # the layout fixes count and order of the positions; this one check covers both
        nodes, n = make_nodes(k, kind, epsilon, shift), 2 * k + 1
        if positions != nodes.positions:
            raise ValueError(f"kernel node positions {list(map(str, positions))} are not those of {kind} nodes "
                             f"with epsilon {epsilon} and shift {shift}: {list(map(str, nodes.positions))}")
        for name, values in (("coefficients", coeffs), ("coefficients_exact", exact)):
            if values is not None and len(values) != n:
                raise ValueError(f"kernel document has {len(values)} {name} for {n} nodes")
        return cls(basis, basis_kind, nodes, coeffs, exact)

    def save(self, path) -> None:
        with open(path, "w") as f:
            json.dump(self.to_dict(), f, indent=1)

    @classmethod
    def load(cls, path) -> "FilterKernel":
        with open(path) as f:
            return cls.from_dict(json.load(f))


def build_filter(config: FilterConfig) -> FilterKernel:
    """Unscaled kernel with reproduction coefficients for the configured layout."""
    if config.scaling != 1:
        raise ValueError(f"FilterConfig.scaling must be 1: each mesh axis scales the kernel by its h, "
                         f"got {config.scaling!r}")
    basis = basisfn.basis(config.basis, config.k + 1)
    nodes = make_nodes(config.k, config.nodes, epsilon=config.epsilon, shift=config.shift)
    coeffs, exact = solve_coefficients(basis, nodes)
    return FilterKernel(
        basis=basis,
        basis_kind=config.basis if isinstance(config.basis, str) else "custom",
        nodes=nodes,
        coefficients=coeffs,
        coefficients_exact=exact,
    )


# ---------------------------------------------------------------------------
# quality checks and geometry


def _exact_number(v) -> Fraction:
    """Exact rational value of a binary64, Fraction or mpf number."""
    if isinstance(v, mp.mpf):
        man, exp = v.man_exp  # the magnitude; the sign is kept apart
        return (-1 if v < 0 else 1) * Fraction(man) * Fraction(2) ** exp
    return Fraction(v)


def reproduction_residuals(kernel: FilterKernel, xs, coefficients=None) -> list[float]:
    """max |(K * p)(x) - p(x)| over xs for each p(x) = x^m, m = 0..2k, K the unscaled kernel.

    Measures the stored binary64 coefficients, the ones the filter applies,
    or `coefficients` when given (e.g. `kernel.coefficients_exact`).
    Expanding (x - t)^m makes the residual a degree-m polynomial in x,
    sum_i C(m,i) (-1)^i d_i x^(m-i), in the defects d_i = M_i - delta_i0 of
    the kernel moments M_i = sum_g c_g * integral(phi(t - x_g) t^i dt); the
    defects are formed once for i = 0..2k, and each degree is evaluated at
    the exactly converted xs.  Arithmetic follows the type of the basis
    moments `raw_moment`: exact for Fractions (B-splines, polynomial seeds
    and the bump's stored Chebyshev pieces), SOLVER_DPS digits for mpf (trig
    bases).  Shares only the shifted moments `MomentBasis.moment` with the
    solver: neither the moment matrix about the node mean nor its
    elimination is used, and no kernel is sampled.
    """
    coefficients = kernel.coefficients if coefficients is None else coefficients
    top, basis = 2 * kernel.k, kernel.basis
    with mp.workdps(SOLVER_DPS):
        num = _mpf if isinstance(basis.raw_moment(0), mp.mpf) else _exact_number
        cs = [num(c) for c in coefficients]
        defects = []
        for i in range(top + 1):
            mi = sum(c * basis.moment(i, shift=x) for c, x in zip(cs, kernel.nodes.positions))
            defects.append(mi - 1 if i == 0 else mi)
        points = [num(float(x)) for x in np.atleast_1d(np.asarray(xs, dtype=float))]
        worst = [0.0] * (top + 1)
        for m in range(top + 1):
            # the Horner coefficients (-1)^i C(m,i) d_i, each rounded once as in a per-point loop
            terms = [(-1) ** i * math.comb(m, i) * defects[i] for i in range(m + 1)]
            for x in points:
                p = 0
                for t in terms:
                    p = p * x + t
                worst[m] = max(worst[m], float(abs(p)))
        return worst


def check_support_fits(length: float, support_width: float, scaling: float) -> None:
    """Raise DomainTooShortError unless the scaled kernel support fits an axis of `length`.

    `support_width` is the kernel's unscaled support width
    (`FilterKernel.support_width`).  An axis exactly one support long fits
    to a relative 1e-12 of it, whatever the rounding.
    """
    width = support_width * scaling
    if width > length * (1.0 + 1e-12):
        raise DomainTooShortError(f"domain of length {length} cannot contain the scaled kernel support {width}")


def boundary_shift(x, domain: tuple[float, float], scaling: float, support_width):
    """Smallest-magnitude node shift placing the data window inside the domain.

    The window of the shifted kernel evaluated at x is
    [x + H*(shift - S/2), x + H*(shift + S/2)] with S = support_width, the
    kernel's unscaled support width (`FilterKernel.support_width`); the
    shift is positive near the left boundary (window pushed right) and zero
    wherever the symmetric window fits up to 1e-12 * max(|a|, |b|) / H: x,
    (a - x)/H, (b - x)/H and S/2 <= (b - a)/(2H) each round by at most
    eps * max(|a|, |b|) / H, so rounding alone shifts nothing.  An array x
    gives an array, each entry the scalar call's float.  A point outside the
    domain raises ValueError naming it, a domain too short for the scaled
    support `DomainTooShortError` (`check_support_fits`).
    """
    a, b = float(domain[0]), float(domain[1])
    xs = np.asarray(x, dtype=float)
    outside = ~((a <= xs) & (xs <= b))
    if outside.any():
        raise ValueError(f"evaluation point {xs[outside].flat[0]} outside domain [{a}, {b}]")
    s = float(support_width)
    check_support_fits(b - a, s, scaling)
    lo = (a - xs) / scaling + s / 2.0
    hi = (b - xs) / scaling - s / 2.0
    tol = 1e-12 * max(abs(a), abs(b)) / scaling
    shift = np.where(lo > tol, lo, np.where(hi < -tol, hi, 0.0))
    return shift if shift.ndim else float(shift)

