"""Property tests: node layouts, boundary shifts, layout factorization, JSON documents."""

import copy
import json
import math
import re
from fractions import Fraction
from functools import lru_cache

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from siac import basisfn as bf
from siac import dgsolver as dg
from siac import filtercore as fc
from siac import postproc
from siac.filtercore import FilterConfig
from siac.quadrature import gauss_rule

from oracles import filter_roll_stack

shifts = st.fractions(min_value=-20, max_value=20, max_denominator=10**6)
epsilons = st.fractions(min_value=0, max_value=1, max_denominator=1000).filter(lambda e: e > 0)
finite = st.floats(allow_nan=False, allow_infinity=False)


class TestMakeNodes:
    @given(k=st.integers(1, 8), shift=shifts | st.floats(-20, 20))
    def test_standard_nodes(self, k, shift):
        nodes = fc.make_nodes(k, "standard", shift=shift)
        assert nodes.count == 2 * k + 1
        assert all(a < b for a, b in zip(nodes.positions, nodes.positions[1:]))
        assert sum(nodes.positions, Fraction(0)) / nodes.count == Fraction(shift)

    @given(k=st.integers(1, 8), eps=epsilons, shift=shifts)
    def test_compact_nodes(self, k, eps, shift):
        nodes = fc.make_nodes(k, "compact", epsilon=eps, shift=shift)
        assert nodes.count == 2 * k + 1
        assert all(a < b for a, b in zip(nodes.positions, nodes.positions[1:]))
        assert sum(nodes.positions, Fraction(0)) / nodes.count == shift
        assert nodes.spread == 2 * k * eps


class TestBoundaryShift:
    @given(
        k=st.integers(1, 4),
        kind=st.sampled_from(["standard", "compact"]),
        a=st.floats(-10, 10),
        length=st.floats(0.5, 20),
        fill=st.floats(0.01, 0.99),
        where=st.floats(0, 1),
    )
    def test_window_inside_domain(self, k, kind, a, length, fill, where):
        b = a + length
        s = _kernel(k, "box", kind, Fraction(0)).support_width
        scaling = fill * length / s
        x = min(a + where * length, b)
        lam = fc.boundary_shift(x, (a, b), scaling, s)
        tol = 1e-12 * (abs(a) + abs(b) + length)
        lo, hi = x + scaling * (lam - s / 2), x + scaling * (lam + s / 2)
        assert lo >= a - tol and hi <= b + tol
        if x - scaling * s / 2 >= a + tol and x + scaling * s / 2 <= b - tol:
            assert lam == 0.0


@lru_cache(maxsize=None)
def _kernel(k, basis, nodes, shift):
    return fc.build_filter(FilterConfig(k=k, basis=basis, nodes=nodes, shift=shift))


class TestRoundTrip:
    @settings(max_examples=30)
    @given(
        k=st.integers(1, 3),
        basis=st.sampled_from(["box", "raised_cosine", "bump"]),
        nodes=st.sampled_from(["standard", "compact"]),
        shift=st.sampled_from([Fraction(0), Fraction(3, 7), Fraction(-5, 4)]),
        xs=st.lists(st.floats(-1, 1), min_size=1, max_size=8),
    )
    def test_kernel(self, k, basis, nodes, shift, xs):
        kern = _kernel(k, basis, nodes, shift)
        back = fc.FilterKernel.from_dict(json.loads(json.dumps(kern.to_dict())))
        assert back.coefficients.tobytes() == kern.coefficients.tobytes()
        xs = np.array(xs) / 0.1  # across the widest support, 10 units
        assert back.evaluate_unscaled(xs).tobytes() == kern.evaluate_unscaled(xs).tobytes()

    @given(
        dim=st.integers(1, 2),
        degree=st.integers(0, 3),
        n=st.integers(1, 4),
        bounds=st.tuples(st.floats(-5, 5), st.floats(0.1, 5)),
        time=st.floats(0, 10),
        data=st.data(),
    )
    def test_dg_field(self, dim, degree, n, bounds, time, data):
        mesh = dg.Mesh(((bounds[0], bounds[0] + bounds[1]),) * dim, (n,) * dim)
        size = n**dim * (degree + 1) ** dim
        values = data.draw(st.lists(finite, min_size=size, max_size=size))
        coeffs = np.array(values).reshape((n,) * dim + (degree + 1,) * dim)
        field = dg.DGField(mesh, degree, coeffs, time)
        back = dg.DGField.from_dict(json.loads(json.dumps(field.to_dict())))
        assert back.coeffs.tobytes() == field.coeffs.tobytes()
        assert (back.mesh, back.degree, back.time) == (mesh, degree, time)


def eliminate_shifted_system(basis, nodes, dps=None):
    """Oracle: one elimination of the moment system of these shifted nodes.

    Assembled about the node mean with right-hand side (-center)^j, in
    Fraction (dps None) or in mpf at dps digits.
    """
    center = sum(nodes.positions, Fraction(0)) / nodes.count
    if dps is None:
        rows = fc.moment_matrix(basis, nodes)
        a = [[Fraction(v) for v in row] + [(-center) ** j] for j, row in enumerate(rows)]
        return [x for (x,) in fc._eliminate(a)]
    with mp.workdps(dps):
        mu = [fc._mpf(basis.raw_moment(i)) for i in range(nodes.count)]
        a = []
        for j in range(nodes.count):
            shifted = [
                mp.fsum(math.comb(j, i) * fc._mpf(x - center) ** (j - i) * mu[i] for i in range(j + 1))
                for x in nodes.positions
            ]
            a.append(shifted + [(-fc._mpf(center)) ** j])
        return [float(x) for (x,) in fc._eliminate(a, mp.fsum)]


layouts = st.tuples(st.integers(1, 3), st.sampled_from(["standard", "compact"]))


class TestLayoutFactorization:
    """Shifted kernels from the one factorization per layout against a fresh solve."""

    @settings(max_examples=40)
    @given(layout=layouts, shift=st.floats(-10, 10))
    def test_box_bit_identical(self, layout, shift):
        k, kind = layout
        basis = bf.basis("box", k + 1)
        nodes = fc.make_nodes(k, kind, shift=shift)
        floats, exact = fc.solve_coefficients(basis, nodes)
        want = eliminate_shifted_system(basis, nodes)
        assert exact == tuple(want)
        assert floats.tobytes() == np.array([float(c) for c in want]).tobytes()

    @settings(max_examples=20)
    @given(layout=layouts, shift=st.floats(-10, 10))
    def test_raised_cosine_agrees(self, layout, shift):
        k, kind = layout
        basis = bf.basis("raised_cosine", k + 1)
        nodes = fc.make_nodes(k, kind, shift=shift)
        floats, _ = fc.solve_coefficients(basis, nodes)
        want = np.array(eliminate_shifted_system(basis, nodes, fc.SOLVER_DPS))
        assert np.all(np.abs(floats - want) <= 1e-13 * np.abs(want))

    @settings(max_examples=10)
    @given(shift=st.floats(-5, 5))
    def test_ill_conditioned_layouts_rejected(self, shift):
        over_limit = fc.make_nodes(3, "compact", epsilon=Fraction(1, 10**9), shift=shift)
        singular = fc.make_nodes(1, "compact", epsilon=Fraction(1, 10**30), shift=shift)
        for nodes in (over_limit, singular, over_limit):  # a refused layout is refused again
            with pytest.raises(fc.FilterConditioningError, match=r"condition number (inf|[0-9.e+]+)"):
                fc.solve_coefficients(bf.basis("raised_cosine", nodes.k + 1), nodes)


# mesh axes with bounds off zero: (left end, length, element count)
mesh_axes = st.integers(1, 3).flatmap(lambda d: st.lists(
    st.tuples(st.floats(-5, 5).filter(lambda a: abs(a) >= 0.01), st.floats(0.25, 4), st.integers(5, 7)),
    min_size=d, max_size=d,
))


def _mesh(axes) -> dg.Mesh:
    return dg.Mesh(tuple((a, a + length) for a, length, _ in axes), tuple(n for *_, n in axes))


class TestWarmPathRounding:
    """The warm filter-and-error path against its arithmetic written out, compared with ==."""

    @settings(max_examples=40)
    @given(axes=mesh_axes, normalized=st.booleans(), data=st.data())
    def test_grid_l2_norm_rounds_as_written(self, axes, normalized, data):
        mesh = _mesh(axes)
        twin = dg.Mesh(tuple((a, a + length) for a, length, _ in axes), tuple(n for *_, n in axes))
        assert twin == mesh and hash(twin) == hash(mesh)
        qs = data.draw(st.lists(st.integers(1, 5), min_size=mesh.dim, max_size=mesh.dim))
        weights = tuple(tuple(map(float, gauss_rule(q)[1])) for q in qs)
        squares = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).random(mesh.elements + tuple(qs))
        w = np.asarray(weights[0])
        for wa in weights[1:]:
            w = np.multiply.outer(w, wa).ravel()
        measure = math.prod(b - a for a, b in mesh.bounds)
        jacobian = math.prod((b - a) / n / 2.0 for (a, b), n in zip(mesh.bounds, mesh.elements))
        scale = 1.0 / math.sqrt(measure) if normalized else 1.0
        want = scale * math.sqrt(jacobian * float(np.add.reduce(squares.reshape(-1, w.size) @ w)))
        for given_weights in (weights, tuple(map(np.array, weights)), list(weights)):
            assert dg.grid_l2_norm(mesh, squares, given_weights, normalized) == want

    @settings(max_examples=15, deadline=None)
    @given(axes=mesh_axes, layout=st.sampled_from([(1, "standard"), (1, "compact"), (2, "compact")]))
    def test_filter_field_is_the_roll_and_stack_route(self, axes, layout):
        # layouts whose support fits 5 elements; under the position-dependent
        # policy every point that no axis shifts keeps its periodic value
        k, nodes = layout
        field = dg.project_function(lambda *xs: np.sin(sum(xs)) + xs[0], _mesh(axes), k)
        cfg = FilterConfig(k=k, nodes=nodes)
        want = filter_roll_stack(field, (cfg,) * field.dim, dg.element_rule(k)[0])
        assert np.array_equal(postproc.filter_field(field, cfg).values, want)
        ff = postproc.filter_field(field, cfg, postproc.POLICY_BOUNDARY)
        d = field.dim
        kept = np.ones(ff.values.shape, dtype=bool)
        for axis, s in enumerate(ff.shifts):
            kept &= np.expand_dims(s == 0, tuple(b for b in range(2 * d) if b not in (axis, d + axis)))
        assert np.array_equal(ff.values[kept], want[kept])


def _without(doc, path):
    doc = copy.deepcopy(doc)
    *outer, key = path
    target = doc
    for part in outer:
        target = target[part]
    del target[key]
    return doc


KERNEL_KEYS = [
    ("k",), ("basis",), ("basis", "kind"), ("basis", "order"), ("nodes",), ("nodes", "kind"),
    ("nodes", "epsilon"), ("nodes", "shift"), ("nodes", "positions"), ("coefficients",),
]
FIELD_KEYS = [
    ("mesh",), ("mesh", "bounds"), ("mesh", "elements"), ("mesh", "periodic"), ("degree",),
    ("coefficients",), ("time",),
]
kernels = st.builds(
    _kernel,
    k=st.integers(1, 3),
    basis=st.sampled_from(["box", "raised_cosine"]),
    nodes=st.sampled_from(["standard", "compact"]),
    shift=st.sampled_from([Fraction(0), Fraction(3, 7)]),
)


class TestRejectMalformed:
    @given(kern=kernels, data=st.data())
    def test_kernel_coefficient_count(self, kern, data):
        doc = kern.to_dict()
        n = len(doc["coefficients"])
        count = data.draw(st.integers(0, 2 * n + 2).filter(lambda c: c != n))
        key = data.draw(st.sampled_from(["coefficients", "coefficients_exact"] if doc["coefficients_exact"] else ["coefficients"]))
        doc[key] = (doc[key] * 3)[:count]
        with pytest.raises(ValueError, match=f"{count} {key} for {n} nodes"):
            fc.FilterKernel.from_dict(doc)

    @given(kern=kernels, data=st.data())
    def test_kernel_node_order(self, kern, data):
        doc = kern.to_dict()
        positions = doc["nodes"]["positions"]
        doc["nodes"]["positions"] = data.draw(
            st.permutations(positions).filter(lambda p: list(p) != positions)
        )
        with pytest.raises(ValueError, match="node positions .* are not those of"):
            fc.FilterKernel.from_dict(doc)

    @given(kern=kernels, data=st.data())
    def test_kernel_node_count(self, kern, data):
        doc = kern.to_dict()
        positions = doc["nodes"]["positions"]
        doc["nodes"]["positions"] = positions[: data.draw(st.integers(0, len(positions) - 1))]
        with pytest.raises(ValueError, match="node positions .* are not those of"):
            fc.FilterKernel.from_dict(doc)

    @given(kern=kernels, order=st.integers(1, 6))
    def test_kernel_basis_order(self, kern, order):
        assume(order != kern.k + 1)
        doc = kern.to_dict()
        doc["basis"]["order"] = order
        with pytest.raises(ValueError, match=f"needs basis order {kern.k + 1}, got {order}"):
            fc.FilterKernel.from_dict(doc)

    @given(kern=kernels, path=st.sampled_from(KERNEL_KEYS))
    def test_kernel_missing_key(self, kern, path):
        with pytest.raises(ValueError, match=re.escape(repr(path[-1]))):
            fc.FilterKernel.from_dict(_without(kern.to_dict(), path))

    @given(dim=st.integers(1, 2), degree=st.integers(0, 3), n=st.integers(1, 4), data=st.data())
    def test_dg_field_coefficient_count(self, dim, degree, n, data):
        mesh = dg.Mesh(((0.0, 1.0),) * dim, (n,) * dim)
        doc = dg.DGField(mesh, degree, np.zeros((n,) * dim + (degree + 1,) * dim)).to_dict()
        size = len(doc["coefficients"])
        count = data.draw(st.integers(0, 2 * size + 3).filter(lambda c: c != size))
        doc["coefficients"] = [1.0] * count
        with pytest.raises(ValueError, match=rf"shape \({count},\).* needs a flat list of {size}"):
            dg.DGField.from_dict(doc)
        doc["coefficients"] = [[[1.0]]] * size  # the right count in a shape of three axes
        with pytest.raises(ValueError, match=rf"shape \({size}, 1, 1\)"):
            dg.DGField.from_dict(doc)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_kernel_non_finite_coefficient(self, value):
        doc = _kernel(1, "box", "standard", Fraction(0)).to_dict()
        doc["coefficients"][1] = value.hex()
        with pytest.raises(ValueError, match="malformed 'coefficients': not a finite hex float"):
            fc.FilterKernel.from_dict(doc)

    def test_dg_field_non_finite_coefficient(self):
        doc = dg.DGField(dg.interval_mesh(0.0, 1.0, 3), 1, np.zeros((3, 2))).to_dict()
        doc["coefficients"][2] = float("nan")
        with pytest.raises(ValueError, match="non-finite value in 'coefficients'"):
            dg.DGField.from_dict(doc)

    def test_dg_field_string_bound(self):
        doc = dg.DGField(dg.interval_mesh(0.0, 1.0, 3), 1, np.zeros((3, 2))).to_dict()
        doc["mesh"]["bounds"] = [["0", 1.0]]
        with pytest.raises(ValueError, match="finite numbers in 'bounds'"):
            dg.DGField.from_dict(doc)

    def test_dg_field_fractional_element_count(self):
        doc = dg.DGField(dg.interval_mesh(0.0, 1.0, 3), 1, np.zeros((3, 2))).to_dict()
        doc["mesh"]["elements"] = [4.5]
        with pytest.raises(ValueError, match=r"integers within the float range in 'elements', got \[4.5\]"):
            dg.DGField.from_dict(doc)

    @given(path=st.sampled_from(FIELD_KEYS))
    def test_dg_field_missing_key(self, path):
        doc = dg.DGField(dg.interval_mesh(0.0, 1.0, 3), 1, np.zeros((3, 2))).to_dict()
        with pytest.raises(ValueError, match=re.escape(repr(path[-1]))):
            dg.DGField.from_dict(_without(doc, path))
