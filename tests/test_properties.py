"""Property tests: node layouts, boundary shifts, JSON round trips."""

import json
from fractions import Fraction
from functools import lru_cache

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from siac import dgsolver as dg
from siac import filtercore as fc
from siac.filtercore import FilterConfig

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
        s = float(fc.kernel_support_width(k, kind))
        scaling = fill * length / s
        x = min(a + where * length, b)
        lam = fc.boundary_shift(k, kind, x, (a, b), scaling)
        tol = 1e-12 * (abs(a) + abs(b) + length)
        lo, hi = x + scaling * (lam - s / 2), x + scaling * (lam + s / 2)
        assert lo >= a - tol and hi <= b + tol
        if x - scaling * s / 2 >= a + tol and x + scaling * s / 2 <= b - tol:
            assert lam == 0.0


@lru_cache(maxsize=None)
def _kernel(k, basis, nodes, shift):
    return fc.build_filter(FilterConfig(k=k, basis=basis, nodes=nodes, shift=shift, scaling=0.1))


class TestRoundTrip:
    @settings(max_examples=30, deadline=None)
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
        xs = np.array(xs)
        assert back.evaluate(xs).tobytes() == kern.evaluate(xs).tobytes()

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
