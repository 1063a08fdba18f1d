"""Quadrature shared by the tests' oracles."""

from siac.quadrature import gauss_rule


def gauss_points(a: float, b: float, n: int):
    """Gauss-Legendre nodes and weights mapped to [a, b]."""
    r, w = gauss_rule(n)
    half = 0.5 * (b - a)
    return a + half * (r + 1.0), half * w
