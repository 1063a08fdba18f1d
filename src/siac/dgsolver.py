"""Modal discontinuous Galerkin solver for linear advection.

Uniform periodic tensor-product meshes of any dimension (1D, 2D and 3D are
solved in the tests), orthonormal Legendre
basis per element (diagonal mass matrix), upwind flux, classical four-stage
Runge-Kutta in time.  The per-element semi-discrete operator reduces to two
small constant matrices: a volume+outflow block acting on the element itself
and an inflow block acting on the upwind neighbour, so the right-hand side
(`rhs`) is a pair of matrix products plus a roll per axis.

That operator is block-circulant, so `solve` does not step in real space.
An FFT over the element axes splits it into one (k+1)^dim block per
wavenumber (the Fourier view of DG behind SIAC error analysis:
Cockburn-Luskin-Shu-Suli, Math. Comp. 2003), the Kronecker sum of one
(k+1) block per axis.  In 1D each block's RK4 one-step map is raised to the
step count by binary powering, carried in the real 2(k+1) block form
[[Re, -Im], [Im, Re]].  On more axes the axes' blocks are diagonalized
(eigenvector condition below 3) and the sums of their eigenvalues are
powered as scalars.  An axis' blocks are (a/h) times blocks fixed by k and
the sign of a, and conjugate at -theta, so each distinct axis has one
record over the half spectrum (`_axis_spectra`): one eigendecomposition per
element count and speed sign, one eigenvalue set per (N, a, h).
dt and the step count are those of the stepped scheme, so the result is
the stepped solution up to rounding.
Meshes with a non-periodic axis are rejected.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field as dataclass_field
from functools import lru_cache
from typing import Callable, Optional

import numpy as np
from numpy.polynomial.legendre import legval, legvander

from .jsonvalues import check_header, is_a, is_finite
from .quadrature import gauss_rule


class UnstableRunError(RuntimeError):
    """Time integration produced non-finite or blown-up values."""


@dataclass(frozen=True)
class Mesh:
    """Uniform mesh; one entry per axis in bounds/elements/periodic."""

    bounds: tuple[tuple[float, float], ...]
    elements: tuple[int, ...]
    periodic: tuple[bool, ...] = ()
    # element width per axis, derived once; not part of equality or hashing
    h: tuple[float, ...] = dataclass_field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not self.periodic:
            object.__setattr__(self, "periodic", (True,) * len(self.bounds))
        if len(self.bounds) != len(self.elements) or len(self.bounds) != len(self.periodic):
            raise ValueError("bounds, elements, periodic must agree per axis")
        h = []
        for axis, ((a, b), n) in enumerate(zip(self.bounds, self.elements)):
            if not (is_finite(a) and is_finite(b)):
                raise ValueError(f"mesh axis {axis} needs finite bounds, got {(a, b)!r}")
            if not is_a(n, numbers.Integral):
                raise ValueError(f"mesh axis {axis} needs an integer element count, got {n!r}")
            if not a < b:
                raise ValueError(f"mesh axis {axis} needs bounds a < b, got {(a, b)!r}")
            if n < 1:
                raise ValueError(f"mesh axis {axis} needs at least one element, got {n!r}")
            if not is_finite(n):
                raise ValueError(f"mesh axis {axis} needs an element count within the float range, got {n!r}")
            width = (b - a) / n
            if not (width > 0 and is_finite(width)):
                raise ValueError(f"mesh axis {axis} needs elements of finite nonzero width, got {n!r} on {(a, b)!r}")
            h.append(width)
        object.__setattr__(self, "h", tuple(h))

    @property
    def dim(self) -> int:
        return len(self.bounds)

    def edges(self, axis: int = 0) -> np.ndarray:
        a, b = self.bounds[axis]
        return np.linspace(a, b, self.elements[axis] + 1)

    def centers(self, axis: int = 0) -> np.ndarray:
        e = self.edges(axis)
        return 0.5 * (e[:-1] + e[1:])


def interval_mesh(a: float, b: float, n: int) -> Mesh:
    return Mesh(((a, b),), (n,))


@dataclass(frozen=True)
class AdvectionProblem:
    """u_t + a . grad(u) = 0 with periodic data and known exact solution."""

    speed: tuple[float, ...]
    initial: Callable
    final_time: float
    name: str = ""

    def __post_init__(self):
        if np.ndim(self.speed) == 0:
            object.__setattr__(self, "speed", (self.speed,))

    @property
    def dim(self) -> int:
        return len(self.speed)

    def exact(self, t: float) -> Callable:
        """Exact solution at time t: the initial data advected by a*t."""
        return lambda *xs: self.initial(*(np.asarray(x) - a * t for x, a in zip(xs, self.speed)))


@dataclass(frozen=True)
class DGField:
    """Modal coefficients in the orthonormal Legendre basis per element.

    Layout: element indices first, then one mode index per axis, e.g.
    coeffs[j, m] in 1D and coeffs[jx, jy, mx, my] in 2D.
    """

    mesh: Mesh
    degree: int
    coeffs: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        k = self.degree
        if k < 0:
            raise ValueError(f"DG field needs a degree >= 0, got {k!r}")
        want = tuple(self.mesh.elements) + (k + 1,) * self.mesh.dim
        if self.coeffs.shape != want:
            raise ValueError(f"coefficient shape {self.coeffs.shape} != {want}")
        self.coeffs.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.mesh.dim

    def norm(self) -> float:
        """L2 norm of the broken polynomial itself (orthonormal modes)."""
        return float(np.sqrt(np.sum(self.coeffs**2)))

    def mass(self) -> float:
        """Integral of the field over the domain."""
        mean_modes = self.coeffs[(Ellipsis,) + (0,) * self.dim]
        return float(np.sum(mean_modes) * math.sqrt(math.prod(self.mesh.h)))

    # -- serialization --------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "format": "siac-dgfield",
            "version": 1,
            "mesh": {
                "bounds": [list(b) for b in self.mesh.bounds],
                "elements": list(self.mesh.elements),
                "periodic": list(self.mesh.periodic),
            },
            "degree": self.degree,
            "time": self.time,
            "coefficients": self.coeffs.ravel().tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DGField":
        """Field from its JSON document; a malformed document raises ValueError."""
        check_header(d, "siac-dgfield", "DG field")
        try:
            m = d["mesh"]
            if not isinstance(m, dict):
                raise ValueError(f"DG field document needs an object in 'mesh', got {m!r}")
            bounds, elements, periodic = m["bounds"], m["elements"], m["periodic"]
            k = d["degree"]
            coeffs = d["coefficients"]
            time = d["time"]
        except KeyError as e:
            raise ValueError(f"DG field document lacks the key {e.args[0]!r}") from None
        if not is_a(k, numbers.Integral) or k < 0:
            raise ValueError(f"DG field document needs an integer 'degree' >= 0, got {k!r}")
        if not is_finite(time):
            raise ValueError(f"DG field document needs a finite number in 'time', got {time!r}")
        if not (isinstance(bounds, list) and all(
            isinstance(b, list) and len(b) == 2 and all(map(is_finite, b))
            for b in bounds
        )):
            raise ValueError(f"DG field document needs pairs of finite numbers in 'bounds', got {bounds!r}")
        if not (isinstance(elements, list) and all(is_a(n, numbers.Integral) and is_finite(n) for n in elements)):
            raise ValueError(f"DG field document needs integers within the float range in 'elements', got {elements!r}")
        # an empty tuple would mean periodic on every axis to Mesh
        if not (isinstance(periodic, list) and len(periodic) == len(bounds)
                and all(isinstance(p, bool) for p in periodic)):
            raise ValueError(f"DG field document needs one true or false per axis in 'periodic', got {periodic!r}")
        try:
            coeffs = np.array(coeffs, dtype=float)
        except (TypeError, ValueError, OverflowError):
            raise ValueError("DG field document needs a list of numbers in 'coefficients'") from None
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("DG field document has a non-finite value in 'coefficients'")
        mesh = Mesh(tuple(map(tuple, bounds)), tuple(elements), tuple(periodic))
        shape = tuple(mesh.elements) + (k + 1,) * mesh.dim
        if coeffs.shape not in ((math.prod(shape),), shape):
            raise ValueError(
                f"DG field document has coefficients of shape {coeffs.shape}; degree {k} on "
                f"elements {mesh.elements} needs a flat list of {math.prod(shape)} or shape {shape}"
            )
        return cls(mesh, k, coeffs.reshape(shape), float(time))

    def save(self, path) -> None:
        with open(path, "w") as f:
            json.dump(self.to_dict(), f)

    @classmethod
    def load(cls, path) -> "DGField":
        with open(path) as f:
            return cls.from_dict(json.load(f))


# ---------------------------------------------------------------------------
# reference-element helpers


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@lru_cache(maxsize=None)
def element_rule(degree: int) -> tuple[tuple, tuple]:
    """The Gauss rule on each element axis of a degree-k field, k+3 points: projection, errors, filtering.

    Its nodes and weights are cached as the tuples of floats that key the grid caches.
    """
    return tuple(tuple(map(float, a)) for a in gauss_rule(degree + 3))


@lru_cache(maxsize=None)
def _legendre_table(k: int, pts: tuple) -> np.ndarray:
    """P[m, q] = P_m(r_q) for m = 0..k."""
    return _frozen(np.vstack([legval(np.array(pts), [0.0] * m + [1.0]) for m in range(k + 1)]))


def modal_scale(k: int, h: float) -> np.ndarray:
    """sqrt((2m+1)/h): converts modal coefficients to nodal contributions."""
    return np.sqrt((2.0 * np.arange(k + 1) + 1.0) / h)


@lru_cache(maxsize=None)
def _upwind_blocks(k: int, a: float, h: float) -> tuple[np.ndarray, np.ndarray, int]:
    """Self block, neighbour block, and the roll offset of the neighbour."""
    m = np.arange(k + 1)
    s = np.sqrt((2.0 * m[:, None] + 1.0) * (2.0 * m[None, :] + 1.0))
    d = np.zeros_like(s)
    for mm in range(k + 1):
        for nn in range(k + 1):
            if mm > nn and (mm + nn) % 2 == 1:
                d[mm, nn] = 2.0 * s[mm, nn]
    sign_m = (-1.0) ** m
    if a >= 0:
        self_block = (a / h) * (d - s)
        nbr_block = (a / h) * (sign_m[:, None] * s)
        offset = 1  # inflow from the element to the left
    else:
        self_block = (a / h) * (d + sign_m[:, None] * sign_m[None, :] * s)
        nbr_block = -(a / h) * (sign_m[None, :] * s)
        offset = -1  # inflow from the element to the right
    self_block.setflags(write=False)
    nbr_block.setflags(write=False)
    return self_block, nbr_block, offset


def _check_speed(speed, mesh: Mesh) -> None:
    """Raise ValueError unless speed has one finite component per mesh axis."""
    if len(speed) != mesh.dim:
        raise ValueError(f"the problem has {len(speed)} speed components but the mesh has {mesh.dim} axes")
    for axis, a in enumerate(speed):
        if not is_finite(a):
            raise ValueError(f"speed component {axis} must be finite, got {a!r}")


def rhs(field: DGField, problem: AdvectionProblem) -> np.ndarray:
    """Semi-discrete upwind DG operator applied to the modal coefficients.

    A speed count other than the mesh's axis count, or a speed that is not
    finite, raises ValueError.
    """
    _check_speed(problem.speed, field.mesh)
    return _rhs_coeffs(field.coeffs, field.mesh, field.degree, problem.speed)


def _rhs_coeffs(u: np.ndarray, mesh: Mesh, k: int, speed) -> np.ndarray:
    d = mesh.dim
    du = np.zeros_like(u)
    for axis in range(d):
        a_blk, b_blk, off = _upwind_blocks(k, float(speed[axis]), mesh.h[axis])
        ua = np.moveaxis(u, d + axis, -1)
        dua = ua @ a_blk.T + np.roll(ua, off, axis=axis) @ b_blk.T
        du += np.moveaxis(dua, -1, d + axis)
    return du


@lru_cache(maxsize=64)
def element_points(mesh: Mesh, refs: tuple) -> tuple[np.ndarray, ...]:
    """Coordinates of per-element reference points, one array per axis.

    refs[a] is the tuple of reference points of axis a in [-1, 1].  Entry a
    is shaped to broadcast over (N_1..N_d, q_1..q_d), the layout of
    coefficients and values.  Cached, read-only: projection and errors share it.
    """
    d = mesh.dim
    out = []
    for axis, r in enumerate(refs):
        x = mesh.centers(axis)[:, None] + 0.5 * mesh.h[axis] * np.asarray(r)[None, :]
        shape = [1] * (2 * d)
        shape[axis], shape[d + axis] = x.shape
        out.append(_frozen(x.reshape(shape)))
    return tuple(out)


@lru_cache(maxsize=4)
def grid_values(fn: Callable, mesh: Mesh, refs: tuple) -> np.ndarray:
    """fn sampled on `element_points(mesh, refs)`, broadcast to (N_1..N_d, q_1..q_d).

    Cached per (callable, mesh, grid) and read-only: the DG error and every
    filtered error of one field share one sample, so fn must be a pure
    function of its coordinates.
    """
    vals = np.asarray(fn(*element_points(mesh, refs)), dtype=float)
    return np.broadcast_to(vals, tuple(mesh.elements) + tuple(map(len, refs)))


def _along_axes(u: np.ndarray, mats, start: int) -> np.ndarray:
    """Apply mats[a] (i_a, o_a) along axis start+a of u for every axis a, in one GEMM.

    The mats' axes must be the trailing axes of u; they are flattened and
    multiplied by the Kronecker product of the mats, so a 1D call is the one
    `u @ mats[0]`.  A u whose axes from `start` on are not the mats' input
    lengths raises ValueError naming both shapes.
    """
    ins = [m.shape[0] for m in mats]
    if list(u.shape[start:]) != ins:
        raise ValueError(f"axes {start}.. of an array of shape {u.shape} must have the lengths {tuple(ins)}")
    # the Kronecker product by broadcast outer products: np.kron costs several times more
    kron = mats[0]
    for m in mats[1:]:
        kron = (kron[:, None, :, None] * m[None, :, None, :]).reshape(kron.shape[0] * m.shape[0], -1)
    return (u.reshape(-1, kron.shape[0]) @ kron).reshape(*u.shape[:start], *(m.shape[1] for m in mats))


def grid_l2_norm(mesh: Mesh, squares: np.ndarray, weights, normalized: bool = False) -> float:
    """Gauss quadrature L2 norm from squared values on a per-element grid.

    `squares` has the (N_1..N_d, q_1..q_d) layout and weights[a] the Gauss
    weights of axis a; another shape raises ValueError naming both.  The
    point axes are flattened and contracted with the outer product of the
    weights (cached, `_weight_vector`) in one GEMV.  normalized=True divides
    by sqrt(domain measure).
    """
    qs = tuple(map(len, weights))
    if squares.shape != tuple(mesh.elements) + qs:
        raise ValueError(
            f"squared values of shape {squares.shape} do not match the grid "
            f"{tuple(mesh.elements) + qs} of elements and weights"
        )
    w = _weight_vector(tuple(map(tuple, weights)))
    total = squares.reshape(-1, w.size) @ w
    scale_out = 1.0 / math.sqrt(domain_measure(mesh)) if normalized else 1.0
    # np.add.reduce is total.sum() without its Python wrapper
    return scale_out * math.sqrt(math.prod(0.5 * h for h in mesh.h) * float(np.add.reduce(total)))


@lru_cache(maxsize=16)
def _weight_vector(weights: tuple) -> np.ndarray:
    """The outer product of the axes' weights, flattened, read-only."""
    w = np.asarray(weights[0], dtype=float)
    for wa in weights[1:]:
        w = np.multiply.outer(w, wa).ravel()
    return _frozen(w)


# ---------------------------------------------------------------------------
# projection, time stepping, errors


def project_initial(problem: AdvectionProblem, mesh: Mesh, degree: int) -> DGField:
    """Element-wise L2 projection of the initial data onto the broken space."""
    return project_function(problem.initial, mesh, degree)


def project_function(fn: Callable, mesh: Mesh, degree: int) -> DGField:
    """Element-wise L2 projection of fn(x_1, .., x_d) by `element_rule` per axis, stamped time 0.

    The Gauss values are mapped to modes by one GEMM (`_along_axes`) with the
    Kronecker product of the axes' Gauss-to-modal matrices.
    """
    k, d = degree, mesh.dim
    r, w = element_rule(k)
    weighted = np.asarray(w)[:, None] * _legendre_table(k, r).T
    # uncached: the initial data is sampled once per mesh
    vals = grid_values.__wrapped__(fn, mesh, (r,) * d)
    # one Gauss-to-modal matrix per axis: weights, modes, and sqrt((2m+1) h) / 2
    mats = [weighted * (0.5 * np.sqrt((2.0 * np.arange(k + 1) + 1.0) * h)) for h in mesh.h]
    return DGField(mesh, k, _along_axes(vals, mats, d), 0.0)


def stable_dt(mesh: Mesh, degree: int, speed, cfl: float, exponent: Optional[float] = None) -> float:
    """Time step cfl * h^max(1,(k+1)/4); the exponent guards high degrees.

    A speed that `solve` would refuse raises its ValueError.
    """
    speed = tuple(np.atleast_1d(speed))
    _check_speed(speed, mesh)
    expo = exponent if exponent is not None else max(1.0, (degree + 1) / 4.0)
    hmin = min(mesh.h)
    amax = max(abs(float(a)) for a in speed)
    if amax == 0:
        raise ValueError("advection speed must be nonzero")
    return cfl * hmin**expo / max(amax, 1.0)


def _mode_blocks(k: int, a: float, h: float, freq: np.ndarray) -> np.ndarray:
    """The upwind operator Z = A + exp(-i theta off) B at theta = 2 pi freq.

    Rolling by `off` elements multiplies mode theta by exp(-i theta off).  Z is
    formed as (A + B) + expm1(-i theta off) B: for low modes A nearly cancels
    exp(-i theta off) B, and rounding that sum directly puts an error of
    eps |B| on the slow eigenvalues, which the step count then repeats
    coherently.
    """
    a_blk, b_blk, off = _upwind_blocks(k, a, h)
    return (a_blk + b_blk) + np.expm1(-2j * np.pi * off * freq)[:, None, None] * b_blk


def _axis_spectra(mesh: Mesh, k: int, speed) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """V, V^-1 and the eigenvalues diag(V^-1 Z V) of each axis' upwind operator Z, in `rfftn` order.

    All on the half spectrum `rfftfreq(N)`: one `eig` per distinct (N, sign
    of speed), with a = sign and h = 1, and one eigenvalue set per distinct
    (N, a, h); eig's own eigenvalues agree with V only to ~eps |Z|, which a
    1D long run repeats into a 20 times larger drift.  Z V and its diagonal
    are k+1 broadcast multiply-adds each, not stacked `@`.  Every axis but
    the last takes theta < 0, an even N's Nyquist mode among them, as the
    conj of all three arrays: Z(-theta) is conj Z(theta), A and B being real.
    """
    bases, spectra, out = {}, {}, []
    for axis, (n, a, h) in enumerate(zip(mesh.elements, map(float, speed), mesh.h)):
        sign = 1.0 if a >= 0 else -1.0
        if (n, sign) not in bases:
            v = np.linalg.eig(_mode_blocks(k, sign, 1.0, np.fft.rfftfreq(n)))[1]
            bases[n, sign] = v, np.linalg.inv(v)
        if (n, a, h) not in spectra:
            v, v_inv = bases[n, sign]
            z = _mode_blocks(k, a, h, np.fft.rfftfreq(n))
            zv = sum(z[..., :, j, None] * v[..., None, j, :] for j in range(k + 1))
            spectra[n, a, h] = v, v_inv, sum(v_inv[..., :, j] * zv[..., j, :] for j in range(k + 1))
        arrays = spectra[n, a, h]
        if axis < mesh.dim - 1:
            arrays = tuple(np.concatenate([m[: (n + 1) // 2], m[n // 2 : 0 : -1].conj()]) for m in arrays)
        out.append(arrays)
    return out


def _rk4_increment(x, one, mul):
    """R(x) - 1 for the classical RK4 stability polynomial R, x = dt Z."""
    return mul(x, one + mul(x, one / 2.0 + mul(x, one / 6.0 + x / 24.0)))


def _power_increment(e: np.ndarray, n: int, mul) -> np.ndarray:
    """F with 1 + F = (1 + e)^n, n >= 0, by binary powering in place; e is overwritten.

    Each update rounds as `F += e + mul(F, e)` or `e = 2.0 * e + mul(e, e)` does.
    """
    inc = None
    while n:
        if n & 1 and inc is None:
            inc = e.copy()
        elif n & 1:
            t = mul(inc, e)
            inc += np.add(t, e, out=t)
        n >>= 1
        if n:
            sq = mul(e, e)
            e *= 2.0
            e += sq
    return np.zeros_like(e) if inc is None else inc


def _along_mode_axes(u_hat: np.ndarray, mats) -> np.ndarray:
    """Apply mats[a][theta] along mode axis d+a at wavenumber theta of axis a.

    Per axis, the wavenumber and mode axes are transposed to the front and
    the rest flattened, and the blocks are applied as k+1 broadcast
    multiply-adds over those rows: on these small blocks numpy's stacked
    complex `@` costs far more in overhead than in arithmetic.
    """
    d = len(mats)
    for axis, m in enumerate(mats):
        order = (axis, d + axis) + tuple(a for a in range(2 * d) if a not in (axis, d + axis))
        v = u_hat.transpose(order)
        rows = v.reshape(v.shape[0], v.shape[1], -1)
        out = m[:, :, 0, None] * rows[:, None, 0]
        for j in range(1, m.shape[-1]):
            out += m[:, :, j, None] * rows[:, None, j]
        u_hat = out.reshape(v.shape).transpose(np.argsort(order))
    return u_hat


def solve(
    problem: AdvectionProblem,
    mesh: Mesh,
    degree: int,
    cfl: float = 0.05,
    dt_exponent: Optional[float] = None,
) -> DGField:
    """Advance the projected initial data to the final time with classical RK4.

    The result is that of `n_full` RK4 steps of size dt followed by one
    remainder step, but the steps are applied per Fourier mode: each mode's
    one-step map 1 + E is raised to `n_full` by binary powering, E being a
    (k+1) block per wavenumber in 1D, carried as the real 2(k+1) block
    [[Re, -Im], [Im, Re]], and, on more axes, one scalar per eigenvalue of
    the Kronecker sum of the axes' blocks.  Each distinct axis has one record
    of V, V^-1 and eigenvalues diag(V^-1 Z V), built over the half spectrum
    (`_axis_spectra`).  Only the increment over 1 is carried,
    (1 + F)(1 + E) = 1 + (F + E + F E), so the rounding of 1 + E is never
    repeated coherently n_full times (`_power_increment`).  A result growing
    past 1e6 max(1, max|u0|), or NaN or inf, raises UnstableRunError.  A cfl
    that is not finite and positive, a dt_exponent that is not finite, a final
    time that is negative or not finite, a speed count other than the mesh's
    axis count, or a speed that is not finite raises ValueError.
    """
    for axis, periodic in enumerate(mesh.periodic):
        if not periodic:
            raise ValueError(f"solve supports only periodic meshes; axis {axis} is not periodic")
    _check_speed(problem.speed, mesh)
    t_final = problem.final_time
    if not (is_finite(cfl) and cfl > 0):
        raise ValueError(f"cfl must be finite and positive, got {cfl!r}")
    if dt_exponent is not None and not is_finite(dt_exponent):
        raise ValueError(f"dt_exponent must be finite, got {dt_exponent!r}")
    if not (is_finite(t_final) and t_final >= 0):
        raise ValueError(f"final time must be finite and non-negative, got {t_final!r}")
    field = project_initial(problem, mesh, degree)
    if t_final == 0.0:
        return field
    dt = stable_dt(mesh, degree, problem.speed, cfl, dt_exponent)
    n_full = int(math.floor(t_final / dt + 1e-12))
    remainder = t_final - n_full * dt
    d = mesh.dim
    if d == 1:
        # each block in its real form [[Re, -Im], [Im, Re]]: stacked real `@`
        # costs a third of stacked complex `@` on these small blocks
        z = _mode_blocks(degree, float(problem.speed[0]), mesh.h[0], np.fft.rfftfreq(mesh.elements[0]))
        z = np.concatenate([np.concatenate([z.real, -z.imag], -1), np.concatenate([z.imag, z.real], -1)], -2)
        one, mul = np.eye(2 * degree + 2), np.matmul
    else:
        vs, v_invs, lams = zip(*_axis_spectra(mesh, degree, problem.speed))
        # eigenvalues of the Kronecker sum over (wavenumber, eigen-index) per axis
        z = sum((np.expand_dims(lam, tuple(b for b in range(2 * d) if b not in (axis, d + axis)))
                 for axis, lam in enumerate(lams)), 0.0)
        one, mul = 1.0, np.multiply
    inc = _power_increment(_rk4_increment(dt * z, one, mul), n_full, mul)
    steps = n_full
    if remainder > 1e-13 * max(t_final, 1.0):
        e = _rk4_increment(remainder * z, one, mul)
        inc += e + mul(inc, e)
        steps += 1

    u0 = field.coeffs
    if d == 1:
        u_hat = np.fft.rfft(u0, axis=0)  # rfftn's transform without its n-D wrapper
        du = (inc @ np.concatenate([u_hat.real, u_hat.imag], axis=-1)[..., None])[..., 0]
        u = np.fft.irfft(u_hat + (du[..., : degree + 1] + 1j * du[..., degree + 1 :]), n=mesh.elements[0], axis=0)
    else:
        u_hat = _along_mode_axes(_along_mode_axes(np.fft.rfftn(u0, axes=range(d)), v_invs) * (1.0 + inc), vs)
        u = np.fft.irfftn(u_hat, s=mesh.elements, axes=range(d))

    # stable upwind advection never grows; a factor 1e6 over max(1, max|u0|)
    # is unambiguous blow-up, and a NaN or inf anywhere makes growth NaN or inf
    growth = float(np.max(np.abs(u))) / max(1.0, float(np.max(np.abs(u0))))
    if not growth <= 1e6:
        raise UnstableRunError(
            f"coefficients grew by {growth:.3e} over {steps} RK4 steps of dt={dt:.3e}; reduce cfl"
        )
    return DGField(mesh, degree, u, t_final)


def domain_measure(mesh: Mesh) -> float:
    return math.prod(b - a for a, b in mesh.bounds)


def l2_error(field: DGField, exact: Callable, normalized: bool = False) -> float:
    """Gauss quadrature of (u - u_h)^2 over the domain by `element_rule` per axis.

    With normalized=True the result is divided by sqrt(domain measure); that
    is the convention multi-dimensional convergence tables are reported in.
    `exact` is sampled once per (callable, mesh, grid) and cached
    (`grid_values`), so it must be a pure function of its coordinates.  The
    modes are mapped to Gauss values by one GEMM (`_along_axes`), and the
    squared differences are summed by one GEMV (`grid_l2_norm`).
    """
    k, d, mesh = field.degree, field.dim, field.mesh
    r, w = element_rule(k)
    # one modal-to-Gauss matrix per axis, applied as their Kronecker product
    uh = _along_axes(field.coeffs, [modal_scale(k, h)[:, None] * _legendre_table(k, r) for h in mesh.h], d)
    diff = (grid_values(exact, mesh, (r,) * d) - uh) ** 2
    return grid_l2_norm(mesh, diff, (w,) * d, normalized)


def _locate(xs: np.ndarray, a: float, h: float, n: int, periodic: bool, side: str):
    """Element index and reference coordinate with edge snapping.

    Points within 1e-9 elements of an interface are treated as sitting on it
    and resolved by `side`; otherwise floating-point edge coordinates would
    land arbitrarily on either side.  At the end of a non-periodic axis,
    where the requested side has no element, the inside trace is taken; a
    point past an end takes that end's trace.
    """
    rel = (xs - a) / h
    nearest = np.rint(rel)
    on_edge = np.abs(rel - nearest) < 1e-9
    j = np.floor(rel).astype(int)
    j = np.where(on_edge, nearest.astype(int), j)
    r = 2.0 * (rel - j) - 1.0
    if side == "left":
        j = np.where(on_edge, j - 1, j)
        r = np.where(on_edge, 1.0, r)
    elif side == "right":
        r = np.where(on_edge, -1.0, r)
    else:
        raise ValueError("side must be 'left' or 'right'")
    if periodic:
        return j % n, r
    r = np.where(j < 0, -1.0, np.where(j >= n, 1.0, r))
    return np.clip(j, 0, n - 1), r


def sample(field: DGField, *coords, side: str = "right") -> np.ndarray:
    """Point values at (coords[0][i], .., coords[d-1][i]), one array per axis.

    Interfaces take the trace of the element to the `side` along every axis.
    Arrays of unequal lengths raise ValueError naming every length.
    """
    if len(coords) != field.dim:
        raise ValueError(f"sample() needs {field.dim} coordinate arrays, got {len(coords)}")
    mesh = field.mesh
    coords = [np.atleast_1d(np.asarray(xs, dtype=float)) for xs in coords]
    if len({len(xs) for xs in coords}) > 1:
        raise ValueError(f"sample() needs coordinate arrays of one length, got lengths {[len(xs) for xs in coords]}")
    located = [_locate(xs, mesh.bounds[a][0], mesh.h[a], mesh.elements[a], mesh.periodic[a], side)
               for a, xs in enumerate(coords)]
    # per point, its element's modes (P, m_1..m_d); each axis then sums its leading mode index
    v = field.coeffs[tuple(j for j, _ in located)]
    for (_, r), h in zip(located, mesh.h):
        v = np.einsum("pm...,pm->p...", v, legvander(r, field.degree) * modal_scale(field.degree, h))
    return v


def interface_jumps(field: DGField) -> np.ndarray:
    """|u_h(x_i^+) - u_h(x_i^-)| at all interior + wrap interfaces (1D)."""
    edges = field.mesh.edges(0)[:-1] if field.mesh.periodic[0] else field.mesh.edges(0)[1:-1]
    right = sample(field, edges, side="right")
    left = sample(field, edges, side="left")
    return np.abs(right - left)
