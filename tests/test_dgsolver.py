"""DG solver: projection, upwind operator, time marching, errors, sampling."""

import math
import re

import numpy as np
import pytest

from siac import dgsolver as dg
from siac import filtercore, postproc
from siac.quadrature import gauss_rule
from oracles import (
    axis_blocks_per_spectrum,
    divided_difference,
    eigenvalues_per_axis,
    gauss_values_einsum,
    gauss_values_per_axis,
    l2_norm_einsum,
    l2_norm_per_axis,
    power_increment_out_of_place,
    project_einsum,
    project_per_axis,
    rectangle_mesh,
    sample_per_point,
    sine_advection_1d,
    sine_advection_2d,
)

EPS = np.finfo(float).eps
# unequal N and lengths per axis, up to three axes
MESHES = [
    dg.interval_mesh(0.0, 1.0, 7),
    dg.Mesh(((0.0, 1.0), (-1.0, 2.0)), (5, 3)),
    dg.Mesh(((0.0, 1.0), (0.0, 2.0), (-1.0, 1.0)), (3, 4, 2)),
]


def wavy(*xs):
    """A smooth function that is not a product over axes."""
    return np.exp(sum(np.sin(1.3 * (a + 1) * np.asarray(x)) for a, x in enumerate(xs)))


@pytest.fixture(scope="module")
def sine():
    return sine_advection_1d()


def dense_operator(mesh, k, speed=1.0):
    """Assemble the semi-discrete operator by applying rhs to unit vectors."""
    n = mesh.elements[0]
    dim = n * (k + 1)
    problem = dg.AdvectionProblem((speed,), lambda x: 0 * np.asarray(x), 1.0)
    op = np.zeros((dim, dim))
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = 1.0
        f = dg.DGField(mesh, k, e.reshape(n, k + 1))
        op[:, i] = dg.rhs(f, problem).ravel()
    return op


def rk4_loop(problem, mesh, k, cfl):
    """Reference march: n_full RK4 steps of dg.rhs, then the remainder step.

    Same dt and step count as dg.solve, applied in real space one step at a
    time; returns (coefficients, n_full, remainder).
    """
    u = np.array(dg.project_initial(problem, mesh, k).coeffs)
    t_final = problem.final_time
    dt = dg.stable_dt(mesh, k, problem.speed, cfl)
    n_full = int(math.floor(t_final / dt + 1e-12))
    remainder = t_final - n_full * dt

    def f(v):
        return dg.rhs(dg.DGField(mesh, k, v), problem)

    def step(u, dt):
        k1 = f(u)
        k2 = f(u + 0.5 * dt * k1)
        k3 = f(u + 0.5 * dt * k2)
        k4 = f(u + dt * k3)
        return u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    for _ in range(n_full):
        u = step(u, dt)
    if remainder > 1e-13 * max(t_final, 1.0):
        u = step(u, remainder)
    return u, n_full, remainder


def _wave_1d(x):
    x = np.asarray(x)
    return np.sin(2 * np.pi * x) + 0.5 * np.cos(4 * np.pi * x) + 0.25 * np.sin(10 * np.pi * x)


def _wave_2d(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return np.sin(2 * np.pi * x) * np.cos(np.pi * y) + 0.3 * np.sin(2 * np.pi * (x + 0.5 * y))


def _wave_3d(x, y, z):
    x, y, z = np.asarray(x), np.asarray(y), np.asarray(z)
    return np.sin(2 * np.pi * x) * np.cos(2 * np.pi * z) + 0.3 * np.sin(2 * np.pi * (x + y + 2 * z))


WAVES = {1: _wave_1d, 2: _wave_2d, 3: _wave_3d}

# (speed, bounds, elements, degree, final time): both speed signs per axis,
# odd and even element counts (the rfft Nyquist mode), nx != ny, hx != hy;
# axes sharing one eigenbasis (equal N and speed sign, equal or unequal |a|),
# the Nyquist mode of a full-spectrum axis taken by conj (N = 2), a
# zero-speed axis and three axes; the "-rem" cases end with a shorter
# remainder step.  The edge rows of the powering (`STEP_COUNTS`): no full
# step, one full step and a power of two (h = 1/8, so dt = 0.05 / 8 exactly)
PROPAGATOR_CASES = {
    "1d-right-odd-rem": ((1.0,), ((0.0, 1.0),), (11,), 2, 0.37),
    "1d-left-even": ((-0.7,), ((0.0, 1.0),), (12,), 1, 0.5),
    "1d-left-odd-k3": ((-1.0,), ((0.0, 1.0),), (9,), 3, 0.2),
    "2d-right-left-rem": ((1.0, -1.0), ((0.0, 1.0), (0.0, 2.0)), (7, 6), 2, 0.31),
    "2d-left-right": ((-1.0, 0.5), ((0.0, 1.0), (0.0, 1.0)), (6, 9), 1, 0.25),
    "2d-left-left-k3": ((-0.6, -1.0), ((0.0, 2.0), (0.0, 1.0)), (5, 8), 3, 0.1),
    "2d-square-shared": ((1.0, 1.0), ((0.0, 1.0), (0.0, 1.0)), (8, 8), 2, 0.3),
    "2d-right-right-unequal-speed": ((1.0, 0.4), ((0.0, 1.0), (0.0, 2.0)), (7, 7), 1, 0.25),
    "2d-nyquist-from-conj": ((-1.0, 1.0), ((0.0, 1.0), (0.0, 1.0)), (2, 5), 2, 0.2),
    "2d-zero-speed-rem": ((0.0, -1.0), ((0.0, 1.0), (0.0, 1.0)), (6, 5), 1, 0.23),
    "3d-mixed": ((1.0, -0.5, 0.8), ((0.0, 1.0), (0.0, 1.0), (0.0, 1.0)), (4, 5, 6), 1, 0.1),
    "1d-remainder-only-rem": ((1.0,), ((0.0, 1.0),), (10,), 2, 0.002),
    "2d-remainder-only-rem": ((1.0, -1.0), ((0.0, 1.0), (0.0, 1.0)), (4, 5), 1, 0.004),
    "1d-one-step": ((1.0,), ((0.0, 1.0),), (8,), 2, 0.00625),
    "2d-eight-steps": ((1.0, -1.0), ((0.0, 1.0), (0.0, 1.0)), (8, 8), 1, 0.05),
}
STEP_COUNTS = {"1d-remainder-only-rem": 0, "2d-remainder-only-rem": 0, "1d-one-step": 1, "2d-eight-steps": 8}

# (elements, speed) of the multi-axis eigenbasis checks: square meshes of
# both speed signs, unequal N per axis, a zero-speed axis and three axes
EIGENBASIS_CASES = (
    [((n, n), (s, s)) for n in (1, 2, 3, 7, 64) for s in (1.0, -1.0)]
    + [((5, 8), (1.0, -0.6)), ((8, 5), (-1.0, -0.5)), ((6, 7), (1.0, 0.0)), ((7, 6), (0.0, -1.0))]
    + [((4, 5, 6), (1.0, -0.5, 0.8))]
)


class TestPropagator:
    """dg.solve against the real-space RK4 loop with the same dt and steps."""

    @pytest.mark.parametrize("case", list(PROPAGATOR_CASES))
    def test_matches_rk4_loop(self, case):
        speed, bounds, elements, k, t_final = PROPAGATOR_CASES[case]
        problem = dg.AdvectionProblem(speed, WAVES[len(speed)], t_final)
        mesh = dg.Mesh(bounds, elements)
        want, n_full, remainder = rk4_loop(problem, mesh, k, 0.05)
        assert (remainder > 1e-13) == case.endswith("-rem")
        assert n_full == STEP_COUNTS.get(case, n_full)
        got = dg.solve(problem, mesh, k, cfl=0.05).coeffs
        scale = np.max(np.abs(dg.project_initial(problem, mesh, k).coeffs))
        assert np.max(np.abs(got - want)) <= 1e-13 * scale

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 8, 400, 666, 6666])
    def test_power_increment_rounds_as_the_out_of_place_loop(self, n):
        # stacked real blocks under matmul (1D) and complex eigenvalues under
        # multiply (more axes); a block of -0.0 may come back +0.0 from the
        # loop's 0 + (e + 0 e), which np.array_equal counts as equal
        rng = np.random.default_rng(n)
        real = 1e-4 * rng.standard_normal((41, 8, 8))
        real[0] = -0.0
        complex_ = 1e-4 * (rng.standard_normal((6, 5, 4, 4)) + 1j * rng.standard_normal((6, 5, 4, 4)))
        for e, mul in ((real, np.matmul), (complex_, np.multiply)):
            want = power_increment_out_of_place(e.copy(), n, mul)
            assert np.array_equal(dg._power_increment(e.copy(), n, mul), want)

    def test_long_run_does_not_accumulate_rounding(self):
        # 3333 steps plus a remainder; raising the rounded one-step matrix to
        # the power instead drifts 2.3e-13 from the loop here
        problem = dg.AdvectionProblem((1.0,), _wave_1d, 1.0)
        mesh = dg.interval_mesh(0.0, 1.0, 40)
        want, n_full, remainder = rk4_loop(problem, mesh, 3, 0.012)
        assert n_full >= 3000 and remainder > 0.0
        got = dg.solve(problem, mesh, 3, cfl=0.012).coeffs
        scale = np.max(np.abs(dg.project_initial(problem, mesh, 3).coeffs))
        assert np.max(np.abs(got - want)) <= 1e-14 * scale

    def test_long_run_2d_does_not_accumulate_rounding(self):
        # 2333 steps plus a remainder through the per-axis eigenbases; the
        # eigenvalues `eig` itself returns drift 1.5e-14 from the loop here
        problem = dg.AdvectionProblem((1.0, -0.6), _wave_2d, 1.0)
        mesh = dg.Mesh(((0.0, 1.0), (0.0, 1.0)), (6, 7))
        want, n_full, remainder = rk4_loop(problem, mesh, 3, 0.003)
        assert n_full >= 2000 and remainder > 0.0
        got = dg.solve(problem, mesh, 3, cfl=0.003).coeffs
        scale = np.max(np.abs(dg.project_initial(problem, mesh, 3).coeffs))
        assert np.max(np.abs(got - want)) <= 1e-14 * scale

    @pytest.mark.parametrize("k", range(1, 7))
    def test_axis_eigenvectors_well_conditioned(self, k):
        # the multi-axis path moves the modes through each axis' eigenbasis,
        # so its rounding grows with cond(V); the bases solve uses, theta < 0
        # taken by conj and shared between axes
        for elements, speed in EIGENBASIS_CASES:
            mesh = dg.Mesh(((0.0, 1.0),) * len(elements), elements)
            for v, v_inv, _ in dg._axis_spectra(mesh, k, speed):
                assert np.max(np.linalg.cond(v)) <= 3.0
                assert np.max(np.abs(v @ v_inv - np.eye(k + 1))) <= 1e-14

    @pytest.mark.parametrize("k", range(1, 7))
    def test_shared_eigenbases_diagonalize_each_axis(self, k):
        # a basis taken from the wrong wavenumber, sign or conjugate leaves
        # off-diagonal entries of order |Z|; rounding leaves a few eps |Z|
        for elements, speed in EIGENBASIS_CASES:
            mesh = dg.Mesh(((0.0, 1.0), (0.0, 2.0), (-1.0, 2.0))[: len(elements)], elements)
            for axis, (v, v_inv, _) in enumerate(dg._axis_spectra(mesh, k, speed)):
                z = axis_blocks_per_spectrum(mesh, k, speed, axis)
                assert len(v) == len(z)
                off = v_inv @ z @ v
                off[:, np.arange(k + 1), np.arange(k + 1)] = 0.0
                assert np.max(np.abs(off)) <= 1e-13 * max(np.max(np.abs(z)), 1.0)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_eigenvalues_equal_those_of_each_axis_own_spectrum(self, k):
        # the eigenvalues of theta < 0 taken by conj are those diag(V^-1 Z V)
        # gives on Z at the axis' own fftfreq, bit for bit: Z(-theta) is
        # conj Z(theta) exactly, and so are products and sums of conjugates
        for elements, speed in EIGENBASIS_CASES:
            mesh = dg.Mesh(((0.0, 1.0), (0.0, 2.0), (-1.0, 2.0))[: len(elements)], elements)
            for axis, (v, v_inv, lam) in enumerate(dg._axis_spectra(mesh, k, speed)):
                z = axis_blocks_per_spectrum(mesh, k, speed, axis)
                assert lam.shape == (len(z), k + 1)
                assert np.array_equal(lam, eigenvalues_per_axis(z, v, v_inv))

    @pytest.mark.parametrize("elements, speed, eigs, blocks", [
        pytest.param((40, 40), (1.0, 1.0), 1, 2, id="40x40-shared"),  # table5's mesh
        pytest.param((6, 7), (1.0, -0.6), 2, 4, id="6x7"),
        pytest.param((7, 7), (1.0, -0.6), 2, 4, id="7x7-signs"),
        pytest.param((7, 7), (1.0, 0.4), 1, 3, id="7x7-speeds"),
        pytest.param((4, 4, 4), (1.0, 1.0, 1.0), 1, 2, id="cube-shared"),
        pytest.param((6,), (1.0,), 0, 1, id="1d"),  # 1D powers the blocks themselves
    ])
    def test_one_eig_per_distinct_element_count_and_speed_sign(self, monkeypatch, elements, speed, eigs, blocks):
        # and one block set per distinct (N, a, h) besides, for the eigenvalues
        eig, seen = np.linalg.eig, []
        monkeypatch.setattr(dg.np.linalg, "eig", lambda a: seen.append(len(a)) or eig(a))
        blocks_fn, freqs = dg._mode_blocks, []
        monkeypatch.setattr(dg, "_mode_blocks", lambda *args: freqs.append(len(args[-1])) or blocks_fn(*args))
        problem = dg.AdvectionProblem(speed, WAVES[len(speed)], 0.05)
        dg.solve(problem, dg.Mesh(((0.0, 2 * math.pi),) * len(elements), elements), 1)
        assert len(seen) == eigs and len(freqs) == blocks
        assert set(seen) | set(freqs) <= {n // 2 + 1 for n in elements}  # half spectra only


class TestMesh:
    @pytest.mark.parametrize("mesh", MESHES, ids=lambda m: f"{m.dim}d")
    def test_h_is_stored_once_and_left_out_of_equality(self, mesh):
        assert mesh.h is mesh.h
        assert mesh.h == tuple((b - a) / n for (a, b), n in zip(mesh.bounds, mesh.elements))
        twin = dg.Mesh(mesh.bounds, mesh.elements, mesh.periodic)
        assert twin == mesh and hash(twin) == hash(mesh) and "h=" not in repr(mesh)
        with pytest.raises(TypeError):
            dg.Mesh(mesh.bounds, mesh.elements, mesh.periodic, h=mesh.h)

    @pytest.mark.parametrize(("bounds", "elements", "message"), [
        (((0.0, 1.0), (0.0, math.nan)), (4, 4), "mesh axis 1 needs finite bounds, got (0.0, nan)"),
        (((0.0, math.inf),), (4,), "mesh axis 0 needs finite bounds, got (0.0, inf)"),
        (((-math.inf, 1.0),), (4,), "mesh axis 0 needs finite bounds, got (-inf, 1.0)"),
        (((0.0, 1.0),), (2.5,), "mesh axis 0 needs an integer element count, got 2.5"),
        (((0.0, 1.0), (0.0, 1.0)), (4, True), "mesh axis 1 needs an integer element count, got True"),
        (((0.0, 1.0), (1.0, -2.0)), (4, 4), "mesh axis 1 needs bounds a < b, got (1.0, -2.0)"),
        (((0.5, 0.5),), (4,), "mesh axis 0 needs bounds a < b, got (0.5, 0.5)"),
        (((0.0, 1.0),), (0,), "mesh axis 0 needs at least one element, got 0"),
        (((0.0, 1.0), (0.0, 1.0)), (4, -4), "mesh axis 1 needs at least one element, got -4"),
        (((0, 1),), (10**400,), f"mesh axis 0 needs an element count within the float range, got {10**400}"),
        (((0.0, 1e-300),), (10**30,),
         f"mesh axis 0 needs elements of finite nonzero width, got {10**30} on (0.0, 1e-300)"),
        (((0.0, 1.0), (0.0, 1.0)), (4,), "bounds, elements, periodic must agree per axis"),
    ], ids=["nan", "inf", "minus-inf", "fraction", "bool", "reversed", "equal-bounds", "zero", "negative",
            "count-huge", "width-zero", "axis-counts"])
    def test_refuses_a_bound_or_count_naming_axis_and_value(self, bounds, elements, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            dg.Mesh(bounds, elements)

    def test_numpy_integer_counts_accepted(self):
        assert dg.Mesh(((0.0, 1.0),), (np.int64(4),)).h == (0.25,)


class TestProjection:
    def test_constant_exact(self):
        mesh = dg.interval_mesh(0.0, 1.0, 8)
        f = dg.project_function(lambda x: np.full_like(np.asarray(x, dtype=float), 3.0), mesh, 2)
        assert np.allclose(f.coeffs[:, 0], 3.0 * math.sqrt(mesh.h[0]), atol=1e-15)
        assert np.allclose(f.coeffs[:, 1:], 0.0, atol=1e-15)

    def test_linear_reproduced(self):
        mesh = dg.interval_mesh(0.0, 1.0, 4)
        f = dg.project_function(lambda x: np.asarray(x), mesh, 1)
        xs = np.linspace(0.01, 0.99, 37)
        assert np.allclose(dg.sample(f, xs), xs, atol=1e-14)

    def test_sine_projection_order(self, sine):
        # oracle: quadrature of (u0 - projection)^2 under refinement
        errs = []
        for n in (10, 20, 40):
            mesh = dg.interval_mesh(0.0, 1.0, n)
            f = dg.project_initial(sine, mesh, 1)
            errs.append(dg.l2_error(f, sine.initial))
        orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
        assert all(abs(o - 2.0) < 0.1 for o in orders)


class TestRHS:
    def test_constant_steady(self):
        mesh = dg.interval_mesh(0.0, 1.0, 8)
        problem = dg.AdvectionProblem((1.0,), lambda x: np.ones_like(np.asarray(x, dtype=float)), 1.0)
        f = dg.project_initial(problem, mesh, 2)
        assert np.max(np.abs(dg.rhs(f, problem))) < 1e-13

    def test_impulse_flows_downwind(self):
        mesh = dg.interval_mesh(0.0, 1.0, 8)
        problem = dg.AdvectionProblem((1.0,), lambda x: 0 * np.asarray(x), 1.0)
        coeffs = np.zeros((8, 2))
        coeffs[5, :] = 1.0
        du = dg.rhs(dg.DGField(mesh, 1, coeffs), problem)
        assert np.any(du[5] != 0.0)
        assert np.any(du[6] != 0.0)  # outflow enters the right neighbour
        assert np.all(du[4] == 0.0)  # nothing moves upwind
        assert np.all(du[7] == 0.0)

    def test_negative_speed_mirrors(self):
        mesh = dg.interval_mesh(0.0, 1.0, 8)
        problem = dg.AdvectionProblem((-1.0,), lambda x: 0 * np.asarray(x), 1.0)
        coeffs = np.zeros((8, 2))
        coeffs[5, :] = 1.0
        du = dg.rhs(dg.DGField(mesh, 1, coeffs), problem)
        assert np.any(du[4] != 0.0)
        assert np.all(du[6] == 0.0)

    def test_cached_tables_are_read_only(self):
        a_blk, b_blk, _ = dg._upwind_blocks(2, 1.0, 0.1)
        for table in (a_blk, b_blk, *dg._legendre_tables(2)):
            with pytest.raises(ValueError, match="read-only"):
                table[0, 0] = 1.0

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_spectral_radius_scaling(self, k):
        # oracle: dense eigenvalues on a small mesh
        rho = {}
        for n in (8, 16):
            mesh = dg.interval_mesh(0.0, 1.0, n)
            rho[n] = max(abs(np.linalg.eigvals(dense_operator(mesh, k))))
        h8 = 1.0 / 8.0
        scaled = rho[8] * h8 / (2 * k + 1)
        assert 0.3 < scaled < 3.0
        assert rho[16] / rho[8] == pytest.approx(2.0, rel=0.15)


class TestSolve:
    def test_t_zero_returns_projection(self, sine):
        mesh = dg.interval_mesh(0.0, 1.0, 12)
        prob0 = dg.AdvectionProblem(sine.speed, sine.initial, 0.0)
        f = dg.solve(prob0, mesh, 2)
        assert np.array_equal(f.coeffs, dg.project_initial(prob0, mesh, 2).coeffs)
        assert f.time == 0.0

    def test_reference_error_value_k1(self, sine):
        f = dg.solve(sine, dg.interval_mesh(0.0, 1.0, 20), 1, cfl=0.05)
        err = dg.l2_error(f, sine.exact(1.0))
        assert err == pytest.approx(4.60e-3, rel=0.03)

    @pytest.mark.parametrize("k", [1, 2])
    def test_convergence_order(self, k, sine):
        errs = []
        for n in (10, 20, 40):
            f = dg.solve(sine, dg.interval_mesh(0.0, 1.0, n), k, cfl=0.05)
            errs.append(dg.l2_error(f, sine.exact(1.0)))
        orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
        assert all(abs(o - (k + 1)) < 0.25 for o in orders)

    def test_mass_conserved(self):
        problem = dg.AdvectionProblem(
            (1.0,), lambda x: 2.0 + np.sin(2 * np.pi * np.asarray(x)), 0.5
        )
        mesh = dg.interval_mesh(0.0, 1.0, 16)
        f0 = dg.project_initial(problem, mesh, 2)
        fT = dg.solve(problem, mesh, 2)
        assert abs(fT.mass() - f0.mass()) < 1e-13 * abs(f0.mass())

    def test_l2_stable(self, sine):
        mesh = dg.interval_mesh(0.0, 1.0, 16)
        f0 = dg.project_initial(sine, mesh, 2)
        fT = dg.solve(sine, mesh, 2)
        assert fT.norm() <= f0.norm() + 1e-12

    def test_unstable_run_detected(self, sine):
        with pytest.raises(dg.UnstableRunError, match=r"grew by \S+ over 2 RK4 steps of dt=6\.250e-01"):
            dg.solve(sine, dg.interval_mesh(0.0, 1.0, 32), 3, cfl=20.0)

    def test_nan_initial_datum_is_an_unstable_run(self):
        problem = dg.AdvectionProblem((1.0,), lambda x: np.where(np.asarray(x) < 0.5, np.nan, 1.0), 0.1)
        with pytest.raises(dg.UnstableRunError, match="grew by nan"):
            dg.solve(problem, dg.interval_mesh(0.0, 1.0, 8), 2)

    def test_unstable_run_detected_2d(self):
        # the same growth and message as powering the (k+1)^2 blocks
        mesh = rectangle_mesh((0, 2 * math.pi), (0, 2 * math.pi), 32, 32)
        with pytest.raises(dg.UnstableRunError, match=r"grew by 5\.151e\+09 over 2 RK4 steps of dt=3\.927e\+00"):
            dg.solve(sine_advection_2d(), mesh, 3, cfl=20.0)

    def test_non_periodic_mesh_rejected(self, sine):
        mesh = dg.Mesh(((0.0, 1.0),), (8,), periodic=(False,))
        with pytest.raises(ValueError, match="axis 0 is not periodic"):
            dg.solve(sine, mesh, 1)

    def test_non_periodic_field_mesh_rejected(self):
        prob = sine_advection_2d(final_time=0.1)
        mesh = rectangle_mesh((0, 2 * math.pi), (0, 2 * math.pi), 4, 4)
        doc = dg.project_initial(prob, mesh, 1).to_dict()
        doc["mesh"]["periodic"] = [True, False]
        loaded = dg.DGField.from_dict(doc)
        with pytest.raises(ValueError, match="axis 1 is not periodic"):
            dg.solve(prob, loaded.mesh, 1)

    def test_negative_time_rejected(self, sine):
        bad = dg.AdvectionProblem((1.0,), sine.initial, -1.0)
        with pytest.raises(ValueError):
            dg.solve(bad, dg.interval_mesh(0.0, 1.0, 8), 1)

    @pytest.mark.parametrize("cfl, dt_exponent, final_time, message", [
        pytest.param(-0.05, None, 0.1, r"cfl must be finite and positive, got -0\.05", id="cfl-negative"),
        pytest.param(0.0, None, 0.1, r"cfl must be finite and positive, got 0\.0", id="cfl-zero"),
        pytest.param(math.nan, None, 0.1, r"cfl must be finite and positive, got nan", id="cfl-nan"),
        pytest.param(math.inf, None, 0.1, r"cfl must be finite and positive, got inf", id="cfl-inf"),
        pytest.param(0.05, math.nan, 0.1, r"dt_exponent must be finite, got nan", id="exponent-nan"),
        pytest.param(0.05, math.inf, 0.1, r"dt_exponent must be finite, got inf", id="exponent-inf"),
        pytest.param(0.05, None, math.inf, r"final time must be finite and non-negative, got inf", id="time-inf"),
        pytest.param(0.05, None, math.nan, r"final time must be finite and non-negative, got nan", id="time-nan"),
    ])
    def test_bad_step_or_time_refused_before_projection(self, cfl, dt_exponent, final_time, message):
        def initial(x):
            raise AssertionError("projected before the arguments were checked")

        problem = dg.AdvectionProblem((1.0,), initial, final_time)
        with pytest.raises(ValueError, match=message):
            dg.solve(problem, dg.interval_mesh(0.0, 1.0, 10), 1, cfl=cfl, dt_exponent=dt_exponent)

    @pytest.mark.parametrize(("speed", "elements", "message"), [
        pytest.param((1.0, 3.0), (10,), "the problem has 2 speed components but the mesh has 1 axes", id="two-on-1d"),
        pytest.param((1.0,), (6, 6), "the problem has 1 speed components but the mesh has 2 axes", id="one-on-2d"),
        pytest.param((math.nan,), (10,), "speed component 0 must be finite, got nan", id="nan"),
        pytest.param((1.0, math.inf), (6, 6), "speed component 1 must be finite, got inf", id="inf"),
    ])
    def test_bad_speed_refused_before_projection(self, speed, elements, message):
        def initial(*xs):
            raise AssertionError("projected before the speed was checked")

        mesh = dg.Mesh(((0.0, 1.0),) * len(elements), elements)
        problem = dg.AdvectionProblem(speed, initial, 0.1)
        with pytest.raises(ValueError, match=re.escape(message)):
            dg.solve(problem, mesh, 1)
        field = dg.DGField(mesh, 1, np.zeros(elements + (2,) * len(elements)))
        with pytest.raises(ValueError, match=re.escape(message)):
            dg.rhs(field, problem)

    @pytest.mark.parametrize("call", [
        pytest.param(lambda mesh, sine: dg.Mesh(((0, 10**400),), (4,)), id="mesh-bound"),
        pytest.param(lambda mesh, sine: dg.solve(dg.AdvectionProblem(10**400, sine.initial, 0.1), mesh, 1),
                     id="scalar-speed"),
        pytest.param(lambda mesh, sine: dg.solve(sine, mesh, 1, cfl=10**400), id="cfl"),
        pytest.param(lambda mesh, sine: dg.solve(sine, mesh, 1, dt_exponent=10**400), id="dt-exponent"),
        pytest.param(lambda mesh, sine: dg.solve(dg.AdvectionProblem((1.0,), sine.initial, 10**400), mesh, 1),
                     id="final-time"),
        pytest.param(lambda mesh, sine: dg.solve(dg.AdvectionProblem((10**400,), sine.initial, 0.1), mesh, 1),
                     id="speed"),
        pytest.param(lambda mesh, sine: dg.rhs(dg.project_initial(sine, mesh, 1),
                                               dg.AdvectionProblem((10**400,), sine.initial, 0.1)), id="rhs-speed"),
        pytest.param(lambda mesh, sine: dg.stable_dt(mesh, 1, (10**400,), 0.05), id="stable-dt-speed"),
    ])
    def test_integer_beyond_the_float_range_is_refused_naming_it(self, call, sine):
        # one finiteness rule, jsonvalues.is_finite, where math.isfinite would overflow
        with pytest.raises(ValueError, match=str(10**400)):
            call(dg.interval_mesh(0.0, 1.0, 10), sine)

    def test_stable_dt_refuses_a_zero_speed(self):
        with pytest.raises(ValueError, match="advection speed must be nonzero"):
            dg.stable_dt(dg.Mesh(((0.0, 1.0),) * 2, (4, 4)), 1, (0.0, 0.0), 0.05)

    def test_lands_exactly_on_final_time(self, sine):
        f = dg.solve(sine, dg.interval_mesh(0.0, 1.0, 12), 1, cfl=0.043)
        assert f.time == sine.final_time


class TestSample:
    def test_refuses_an_unknown_side(self):
        f = dg.project_function(np.sin, dg.interval_mesh(0.0, 1.0, 4), 1)
        with pytest.raises(ValueError, match="side must be 'left' or 'right'"):
            dg.sample(f, [0.5], side="up")

    def test_midpoints_match_modal_sum(self, sine):
        mesh = dg.interval_mesh(0.0, 1.0, 10)
        f = dg.project_initial(sine, mesh, 2)
        mids = mesh.centers(0)
        vals = dg.sample(f, mids)
        scale = dg.modal_scale(2, mesh.h[0])
        # P_m(0) = 1, 0, -1/2
        want = f.coeffs[:, 0] * scale[0] - 0.5 * f.coeffs[:, 2] * scale[2]
        assert np.allclose(vals, want, atol=1e-14)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_monomial_projection_sampled(self, k):
        mesh = dg.interval_mesh(0.0, 1.0, 6)
        f = dg.project_function(lambda x: np.asarray(x) ** k, mesh, k)
        xs = np.random.default_rng(2).uniform(0.0, 1.0, 50)
        assert np.allclose(dg.sample(f, xs), xs**k, atol=1e-13)

    def test_interface_side_convention(self, sine):
        f = dg.solve(sine, dg.interval_mesh(0.0, 1.0, 10), 1, cfl=0.05)
        edge = f.mesh.edges(0)[3]
        right = dg.sample(f, [edge], side="right")[0]
        left = dg.sample(f, [edge], side="left")[0]
        assert right != left  # genuine DG interface jump
        # default is the right trace
        assert dg.sample(f, [edge])[0] == right

    def test_periodic_right_end_wraps(self, sine):
        mesh = dg.interval_mesh(0.0, 1.0, 10)
        f = dg.project_initial(sine, mesh, 2)
        assert dg.sample(f, [1.0])[0] == dg.sample(f, [0.0])[0]

    def test_open_ends_take_the_inside_trace(self):
        # f(x) = x at k = 1 is reproduced exactly; the side past a domain end has no element
        mesh = dg.Mesh(((0.0, 1.0),), (4,), (False,))
        f = dg.project_function(lambda x: np.asarray(x), mesh, 1)
        for side in ("left", "right"):
            assert dg.sample(f, [0.0, 1.0], side=side) == pytest.approx([0.0, 1.0], abs=1e-15)

    def test_interface_jump_decay_order(self, sine):
        # oracle: refinement sweep of the largest interface jump
        jumps = []
        for n in (10, 20, 40):
            f = dg.solve(sine, dg.interval_mesh(0.0, 1.0, n), 2, cfl=0.05)
            jumps.append(float(np.max(dg.interface_jumps(f))))
        orders = [math.log2(a / b) for a, b in zip(jumps, jumps[1:])]
        assert all(o > 2.0 for o in orders)  # at least k+1 - 1; typically ~ k+1

    @pytest.mark.parametrize("mesh", MESHES + [dg.Mesh(((0.0, 1.0), (0.0, 3.0)), (4, 3), (False, True))],
                             ids=["1d", "2d", "3d", "2d-open"])
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_matches_per_point_legval(self, mesh, side):
        k = 3
        f = dg.project_function(wavy, mesh, k)
        rng = np.random.default_rng(5)
        # per axis: points past both ends, every interface, then random points; 48 in all
        coords = []
        for a, (lo, hi) in enumerate(mesh.bounds):
            xs = np.concatenate([[lo - 0.1, hi + 0.1], mesh.edges(a), rng.uniform(lo, hi, 48)])
            coords.append(rng.permutation(xs[:48]))
        got = dg.sample(f, *coords, side=side)
        want = sample_per_point(f, *coords, side=side)
        # (k+1)^d terms per point, each |c_m s_m P_m(r)| <= |c_m s_m|
        scaled = np.abs(f.coeffs)
        for a, h in enumerate(mesh.h):
            scaled = scaled * dg.modal_scale(k, h).reshape((-1,) + (1,) * (mesh.dim - a - 1))
        bound = 4 * (k + 1) ** mesh.dim * EPS * np.max(np.sum(scaled, axis=tuple(range(mesh.dim, 2 * mesh.dim))))
        assert got.shape == want.shape == (48,)
        assert np.max(np.abs(got - want)) <= bound

    @pytest.mark.parametrize("mesh, lengths", [(MESHES[1], (1, 5)), (MESHES[1], (5, 1)), (MESHES[2], (46, 47, 48))],
                             ids=["2d-1-5", "2d-5-1", "3d-46-47-48"])
    def test_unequal_coordinate_lengths_are_refused(self, mesh, lengths):
        # neither broadcast nor left to the coefficient gather: every length is named
        f = dg.project_function(wavy, mesh, 1)
        coords = [np.linspace(lo, hi, n) for (lo, hi), n in zip(mesh.bounds, lengths)]
        with pytest.raises(ValueError, match=re.escape(f"one length, got lengths {list(lengths)}")):
            dg.sample(f, *coords)

    def test_sample_needs_1d(self):
        mesh = rectangle_mesh((0, 1), (0, 1), 4, 4)
        f = dg.project_function(lambda x, y: np.asarray(x) * 0 + 1.0, mesh, 1)
        with pytest.raises(ValueError):
            dg.sample(f, [0.5])


class TestTwoDimensional:
    def test_y_independent_matches_1d(self):
        prob2 = dg.AdvectionProblem(
            (1.0, 1.0), lambda x, y: np.sin(2 * np.pi * np.asarray(x)) + 0.0 * np.asarray(y), 0.3
        )
        prob1 = dg.AdvectionProblem((1.0,), lambda x: np.sin(2 * np.pi * np.asarray(x)), 0.3)
        mesh2 = rectangle_mesh((0, 1), (0, 1), 12, 12)
        mesh1 = dg.interval_mesh(0, 1, 12)
        f2 = dg.solve(prob2, mesh2, 2, cfl=0.05)
        f1 = dg.solve(prob1, mesh1, 2, cfl=0.05)
        hy = mesh2.h[1]
        # modal slice: 2D coefficients are the 1D ones times sqrt(hy) in mode 0
        for jy in range(12):
            assert np.allclose(f2.coeffs[:, jy, :, 0], f1.coeffs * math.sqrt(hy), atol=1e-12)
            assert np.allclose(f2.coeffs[:, jy, :, 1:], 0.0, atol=1e-12)

    def test_zero_speed_axis_matches_1d(self):
        # speed (1, 0) on product data: every y slice is the 1D solve (hx < hy,
        # so both take the same dt)
        fx = lambda x: np.sin(2 * np.pi * np.asarray(x)) + 0.5 * np.cos(4 * np.pi * np.asarray(x))
        gy = lambda y: np.cos(np.pi * np.asarray(y)) + 0.25 * np.asarray(y)
        mesh = dg.Mesh(((0.0, 1.0), (0.0, 2.0)), (10, 8))
        f2 = dg.solve(dg.AdvectionProblem((1.0, 0.0), lambda x, y: fx(x) * gy(y), 0.4), mesh, 2)
        f1 = dg.solve(dg.AdvectionProblem((1.0,), fx, 0.4), dg.interval_mesh(0.0, 1.0, 10), 2)
        g1 = dg.project_function(gy, dg.interval_mesh(0.0, 2.0, 8), 2)
        want = f1.coeffs[:, None, :, None] * g1.coeffs[None, :, None, :]
        assert np.max(np.abs(f2.coeffs - want)) <= 1e-14 * np.max(np.abs(want))

    def test_2d_constant_steady(self):
        prob = dg.AdvectionProblem((1.0, 1.0), lambda x, y: np.ones_like(np.asarray(x, dtype=float) + np.asarray(y)), 0.1)
        mesh = rectangle_mesh((0, 1), (0, 1), 6, 6)
        f = dg.project_initial(prob, mesh, 1)
        assert np.max(np.abs(dg.rhs(f, prob))) < 1e-13

    def test_2d_sample_value(self):
        prob = sine_advection_2d()
        mesh = rectangle_mesh((0, 2 * math.pi), (0, 2 * math.pi), 8, 8)
        f = dg.project_initial(prob, mesh, 2)
        x, y = 1.17, 2.94
        assert dg.sample(f, [x], [y])[0] == pytest.approx(math.sin(x + y), abs=2e-3)

    def test_normalized_error_convention(self):
        prob = sine_advection_2d()
        mesh = rectangle_mesh((0, 2 * math.pi), (0, 2 * math.pi), 8, 8)
        f = dg.project_initial(prob, mesh, 1)
        plain = dg.l2_error(f, prob.initial)
        normed = dg.l2_error(f, prob.initial, normalized=True)
        assert plain == pytest.approx(normed * 2 * math.pi, rel=1e-14)


class TestAxisGeneric:
    """A product field f(x) g(y) on a mesh with nx != ny and hx != hy.

    Every 2D quantity is then fixed by the 1D ones on each axis, so a swapped
    axis shows up as a mismatch, which a square mesh cannot reveal.
    """

    @staticmethod
    def fields(k=2):
        fx = lambda x: np.sin(2 * np.pi * np.asarray(x)) + 0.5
        gy = lambda y: np.cos(np.pi * np.asarray(y) / 3.0) ** 2 + 0.25 * np.asarray(y)
        mx, my = dg.interval_mesh(0.0, 1.0, 7), dg.interval_mesh(-1.0, 2.0, 5)
        mesh = rectangle_mesh((0.0, 1.0), (-1.0, 2.0), 7, 5)
        f2 = dg.project_function(lambda x, y: fx(x) * gy(y), mesh, k)
        return fx, gy, dg.project_function(fx, mx, k), dg.project_function(gy, my, k), f2

    def test_projection_is_outer_product(self):
        _, _, f1, g1, f2 = self.fields()
        outer = f1.coeffs[:, None, :, None] * g1.coeffs[None, :, None, :]
        assert f2.coeffs.shape == (7, 5, 3, 3)
        assert np.max(np.abs(f2.coeffs - outer)) < 1e-14 * np.max(np.abs(outer))

    def test_mass_is_product(self):
        _, _, f1, g1, f2 = self.fields()
        assert f2.mass() == pytest.approx(f1.mass() * g1.mass(), rel=1e-13)

    def test_l2_error_factors(self):
        fx, gy, f1, g1, f2 = self.fields()
        zero = lambda *xs: 0.0 * xs[0]
        # the Gauss grid is a tensor grid, so both norms factor per axis
        assert dg.l2_error(f2, zero) == pytest.approx(dg.l2_error(f1, zero) * dg.l2_error(g1, zero), rel=1e-13)
        blank = [dg.DGField(f.mesh, f.degree, np.zeros_like(f.coeffs)) for f in (f1, g1, f2)]
        got = dg.l2_error(blank[2], lambda x, y: fx(x) * gy(y), normalized=True)
        want = dg.l2_error(blank[0], fx) * dg.l2_error(blank[1], gy) / math.sqrt(3.0)
        assert got == pytest.approx(want, rel=1e-13)

    def test_sample_is_product(self):
        _, _, f1, g1, f2 = self.fields()
        rng = np.random.default_rng(5)
        xs, ys = rng.uniform(0.0, 1.0, 20), rng.uniform(-1.0, 2.0, 20)
        # interfaces on both axes take the right (upper) trace
        xs[:2], ys[:2] = [3 / 7, 0.0], [0.2, 2.0]
        want = dg.sample(f1, xs) * dg.sample(g1, ys)
        assert np.max(np.abs(dg.sample(f2, xs, ys) - want)) < 1e-14 * np.max(np.abs(want))

    def test_exact_solution_shifts_each_axis(self):
        prob = dg.AdvectionProblem((0.5, -2.0), lambda x, y: np.asarray(x) * 10.0 + np.asarray(y), 1.0)
        assert prob.exact(0.25)(1.0, 3.0) == pytest.approx((1.0 - 0.125) * 10.0 + 3.0 + 0.5)


class TestFieldIO:
    def test_roundtrip_1d(self, sine, tmp_path):
        f = dg.solve(sine, dg.interval_mesh(0.0, 1.0, 10), 2, cfl=0.05)
        path = tmp_path / "field.json"
        f.save(path)
        g = dg.DGField.load(path)
        assert g.degree == f.degree
        assert g.time == f.time
        assert np.array_equal(g.coeffs, f.coeffs)
        assert g.mesh == f.mesh

    def test_roundtrip_2d(self, tmp_path):
        prob = sine_advection_2d()
        mesh = rectangle_mesh((0, 2 * math.pi), (0, 2 * math.pi), 4, 4)
        f = dg.project_initial(prob, mesh, 1)
        path = tmp_path / "field2.json"
        f.save(path)
        g = dg.DGField.load(path)
        assert np.array_equal(g.coeffs, f.coeffs)

    def test_rejects_foreign_document(self):
        with pytest.raises(ValueError):
            dg.DGField.from_dict({"format": "nope"})
        with pytest.raises(ValueError, match="not a DG field document"):
            dg.DGField.from_dict(["siac-dgfield"])

    @pytest.mark.parametrize("version", [7, 0, "1", True, None])
    def test_rejects_a_version_it_cannot_read(self, version):
        doc = dict(dg.project_function(np.sin, dg.interval_mesh(0.0, 1.0, 4), 2).to_dict(), version=version)
        with pytest.raises(ValueError, match=re.escape(f"DG field document has version {version!r}")):
            dg.DGField.from_dict(doc)

    @pytest.mark.parametrize(("key", "value", "message"), [
        ("degree", 2.5, "needs an integer 'degree' >= 0, got 2.5"),
        ("time", float("nan"), "needs a finite number in 'time', got nan"),
        pytest.param("time", 10**400, f"needs a finite number in 'time', got {10**400}", id="time-huge"),
    ])
    def test_rejects_a_bad_degree_or_time(self, key, value, message):
        doc = dg.project_function(np.sin, dg.interval_mesh(0.0, 1.0, 4), 2).to_dict()
        with pytest.raises(ValueError, match=re.escape(message)):
            dg.DGField.from_dict(dict(doc, **{key: value}))

    def test_field_refuses_a_negative_degree(self):
        with pytest.raises(ValueError, match=re.escape("DG field needs a degree >= 0, got -1")):
            dg.DGField(dg.interval_mesh(0.0, 1.0, 8), -1, np.zeros((8, 0)))

    @pytest.mark.parametrize(("elements", "shape"), [((8,), (8, 2)), ((8,), (3, 8)), ((4, 4), (4, 4, 3))])
    def test_field_refuses_coefficients_off_its_mesh(self, elements, shape):
        mesh = dg.Mesh(((0.0, 1.0),) * len(elements), elements)
        want = elements + (3,) * len(elements)
        with pytest.raises(ValueError, match=re.escape(f"coefficient shape {shape} != {want}")):
            dg.DGField(mesh, 2, np.zeros(shape))

    @pytest.mark.parametrize(("path", "value", "message"), [
        (("mesh", "periodic"), [], "needs one true or false per axis in 'periodic', got []"),
        (("mesh",), 3, "needs an object in 'mesh', got 3"),
        (("mesh", "bounds"), 3, "needs pairs of finite numbers in 'bounds', got 3"),
        (("mesh", "bounds"), [[0.0]], "needs pairs of finite numbers in 'bounds', got [[0.0]]"),
        (("mesh", "elements"), 4, "needs integers within the float range in 'elements', got 4"),
        (("mesh", "elements"), [10**400], f"in 'elements', got [{10**400}]"),
        (("mesh", "bounds"), [[0, 10**400]], f"needs pairs of finite numbers in 'bounds', got [[0, {10**400}]]"),
        (("coefficients",), "abc", "needs a list of numbers in 'coefficients'"),
        (("coefficients",), [10**400] * 12, "needs a list of numbers in 'coefficients'"),
    ], ids=["periodic-empty", "mesh-number", "bounds-number", "bounds-one-end", "elements-number", "elements-huge",
            "bounds-huge", "coefficients", "coefficients-huge"])
    def test_rejects_a_malformed_value_naming_its_key(self, path, value, message):
        doc = dg.project_function(np.sin, dg.interval_mesh(0.0, 1.0, 4), 2).to_dict()
        *outer, key = path
        inner = doc
        for part in outer:
            inner = inner[part]
        inner[key] = value
        with pytest.raises(ValueError, match=re.escape(message)):
            dg.DGField.from_dict(doc)

    def test_one_element_rule_for_projection_error_and_filtering(self):
        # k+3 Gauss points per element axis, stated once
        mesh = rectangle_mesh((0.0, 1.0), (-1.0, 2.0), 12, 11)
        for k in (1, 2, 3):
            r, w = dg.element_rule(k)
            assert np.array_equal(r, gauss_rule(k + 3)[0]) and np.array_equal(w, gauss_rule(k + 3)[1])
            ff = postproc.filter_field(dg.project_function(wavy, mesh, k), filtercore.FilterConfig(k=k))
            assert ff.ref_points == (tuple(r),) * 2 and ff.quad_weights == (tuple(w),) * 2
            assert all(type(t) is tuple for t in ff.ref_points + ff.quad_weights)

    def test_projection_and_error_share_one_read_only_grid(self):
        mesh = rectangle_mesh((0.0, 1.0), (-1.0, 2.0), 6, 7)
        fn = lambda x, y: np.sin(x) * y
        dg.element_points.cache_clear()
        dg.l2_error(dg.project_function(fn, mesh, 1), fn)
        assert (dg.element_points.cache_info().misses, dg.element_points.cache_info().hits) == (1, 1)
        r = tuple(gauss_rule(4)[0])
        for x in dg.element_points(mesh, (r, r)):
            with pytest.raises(ValueError, match="read-only"):
                x[0, 0, 0, 0] = 0.0


class TestGaussGridOperators:
    @pytest.mark.parametrize("n", [0, -1])
    def test_gauss_rule_refuses_fewer_than_one_point(self, n):
        with pytest.raises(ValueError, match=f"need at least one quadrature point, got {n}"):
            gauss_rule(n)

    """One GEMM over all axes for projection and Gauss values, one GEMV for the L2 sum; cached exact samples."""

    @pytest.mark.parametrize("mesh", MESHES, ids=["1d", "2d", "3d"])
    def test_projection_matches_einsum(self, mesh):
        got = dg.project_function(wavy, mesh, 2).coeffs
        want = project_einsum(wavy, mesh, 2)
        assert np.max(np.abs(got - want)) <= 8 * EPS * np.max(np.abs(want))

    @pytest.mark.parametrize("mesh", MESHES, ids=["1d", "2d", "3d"])
    def test_gauss_values_match_einsum(self, mesh):
        f = dg.project_function(wavy, mesh, 2)
        want = gauss_values_einsum(f)
        # the error against the einsum values is l2_error's own modal-to-Gauss rounding;
        # its normalized norm is at most the largest pointwise difference
        err = dg.l2_error(f, lambda *xs: want, normalized=True)
        assert err <= 8 * EPS * np.max(np.abs(want))

    @pytest.mark.parametrize(("mesh", "points"), zip(MESHES, [(5,), (3, 4), (2, 3, 4)]), ids=["1d", "2d", "3d"])
    @pytest.mark.parametrize("normalized", [False, True])
    def test_grid_l2_norm_matches_einsum(self, mesh, points, normalized):
        weights = tuple(gauss_rule(q)[1] for q in points)
        squares = np.random.default_rng(23).random(tuple(mesh.elements) + points)
        got = dg.grid_l2_norm(mesh, squares, weights, normalized)
        want = l2_norm_einsum(mesh, squares, weights, normalized)
        # any order of summing n nonnegative terms is within (n - 1) eps of the
        # exactly rounded `fsum`; the d weight products, the h scale and the
        # square root add a few eps more per axis
        assert abs(got - want) <= (squares.size + 4 * mesh.dim) * EPS * want

    def test_1d_is_the_per_axis_product_bit_for_bit(self):
        mesh = dg.interval_mesh(0.0, 1.0, 20)
        for k in (1, 2, 3):
            f = dg.project_function(wavy, mesh, k)
            assert np.array_equal(f.coeffs, project_per_axis(wavy, mesh, k))
            r, w = dg.element_rule(k)
            uh = dg._along_axes(f.coeffs, [dg.modal_scale(k, mesh.h[0])[:, None] * dg._legendre_tables(k)[0]], 1)
            assert np.array_equal(uh, gauss_values_per_axis(f))
            exact = dg.grid_values(wavy, mesh, (tuple(r),))
            ff = postproc.filter_field(f, filtercore.FilterConfig(k=k))
            for normalized in (False, True):
                assert dg.l2_error(f, wavy, normalized) == l2_norm_per_axis(mesh, (exact - uh) ** 2, (w,), normalized)
                assert ff.l2_error(wavy, normalized) == l2_norm_per_axis(
                    mesh, (exact - ff.values) ** 2, ff.quad_weights, normalized
                )

    @pytest.mark.parametrize(("mesh", "points"), zip(MESHES, [(5,), (3, 4), (2, 3, 4)]), ids=["1d", "2d", "3d"])
    def test_grid_l2_norm_takes_weights_as_arrays_or_tuples(self, mesh, points):
        arrays = tuple(gauss_rule(q)[1] for q in points)
        tuples = tuple(tuple(map(float, w)) for w in arrays)
        squares = np.random.default_rng(29).random(tuple(mesh.elements) + points)
        for normalized in (False, True):
            norms = set()
            # either form builds the cached weight vector, and either form hits it
            for order in ((arrays, tuples), (tuples, arrays)):
                dg._weight_vector.cache_clear()
                norms.update(dg.grid_l2_norm(mesh, squares, weights, normalized) for weights in order)
            assert len(norms) == 1
        message = f"shape {squares.shape[:-1]} do not match the grid {squares.shape}"
        with pytest.raises(ValueError, match=re.escape(message)):
            dg.grid_l2_norm(mesh, squares[..., 0], tuples)
        with pytest.raises(ValueError, match="read-only"):
            dg._weight_vector(tuples)[1][0] = 0.0

    def test_grid_l2_norm_refuses_squares_off_the_weights(self):
        mesh = dg.interval_mesh(0.0, 1.0, 8)
        with pytest.raises(ValueError, match=re.escape("shape (8, 3) do not match the grid (8, 4)")):
            dg.grid_l2_norm(mesh, np.ones((8, 3)), (gauss_rule(4)[1],))
        with pytest.raises(ValueError, match=re.escape("shape (6, 4) do not match the grid (8, 4)")):
            dg.grid_l2_norm(mesh, np.ones((6, 4)), (gauss_rule(4)[1],))

    def test_along_axes_refuses_axes_off_the_matrices(self):
        mats = [np.ones((4, 2)), np.ones((3, 2))]
        with pytest.raises(ValueError, match=re.escape("axes 2.. of an array of shape (5, 3, 3, 4) must have the lengths (4, 3)")):
            dg._along_axes(np.ones((5, 3, 3, 4)), mats, 2)
        assert dg._along_axes(np.ones((5, 3, 4, 3)), mats, 2).shape == (5, 3, 2, 2)

    def test_grid_values_read_only_and_keyed_by_callable_mesh_grid(self):
        mesh = MESHES[1]
        r3, r4 = tuple(gauss_rule(3)[0]), tuple(gauss_rule(4)[0])
        other = lambda x, y: np.cos(x) * y
        dg.grid_values.cache_clear()
        v = dg.grid_values(wavy, mesh, (r3, r4))
        assert v.shape == (5, 3, 3, 4)
        with pytest.raises(ValueError, match="read-only"):
            v[0, 0, 0, 0] = 0.0
        assert dg.grid_values(wavy, mesh, (r3, r4)) is v
        dg.grid_values(other, mesh, (r3, r4))
        dg.grid_values(wavy, dg.Mesh(mesh.bounds, (5, 4)), (r3, r4))
        dg.grid_values(wavy, mesh, (r4, r4))
        assert (dg.grid_values.cache_info().hits, dg.grid_values.cache_info().misses) == (1, 4)
        # an array fn keeps stays writable, of the full shape and of fewer
        # axes alike; the cached values stay read-only
        kept = {}
        full = lambda x, y: kept.setdefault("full", np.sin(x) * y)
        narrow = lambda x, y: kept.setdefault("narrow", np.sin(x))
        for name, fn in (("full", full), ("narrow", narrow)):
            v = dg.grid_values(fn, mesh, (r3, r4))
            assert v.shape == (5, 3, 3, 4) and (kept[name].shape == v.shape) == (name == "full")
            kept[name][...] = 7.0
            with pytest.raises(ValueError, match="read-only"):
                v[0, 0, 0, 0] = 0.0
            assert dg.grid_values(fn, mesh, (r3, r4)) is v

    def test_broadcastable_exact_gives_the_full_grid_error(self):
        f = dg.project_function(lambda x, y: np.sin(x + y), rectangle_mesh((0.0, 2.0), (0.0, 1.0), 8, 9), 2)
        ff = postproc.filter_field(f, filtercore.FilterConfig(k=2))
        for narrow, full in [
            (lambda x, y: np.sin(x), lambda x, y: np.sin(x) + 0.0 * y),
            (lambda x, y: 1.0, lambda x, y: np.ones(np.broadcast_shapes(x.shape, y.shape))),
        ]:
            assert dg.l2_error(f, narrow) == dg.l2_error(f, full)
            assert ff.l2_error(narrow) == ff.l2_error(full)


class TestDividedDifferenceTheorem:
    def test_divided_difference_error_order(self, sine):
        # refinement oracle for the half-step difference of the error
        errs = []
        k = 2
        for n in (10, 20, 40):
            f = dg.solve(sine, dg.interval_mesh(0.0, 1.0, n), k, cfl=0.05)
            h = f.mesh.h[0]
            exact = sine.exact(1.0)
            m = 8 * n
            delta = 1.0 / m
            xs = (np.arange(m) + 0.25) * delta
            g = exact(xs) - dg.sample(f, xs)
            dd = divided_difference(g, h=h, spacing=delta)
            errs.append(float(np.sqrt(np.mean(dd**2))))
        orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
        assert all(abs(o - (k + 1)) < 0.3 for o in orders)
