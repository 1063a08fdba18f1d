"""Gauss-Legendre quadrature rules, cached by point count."""

from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss


@lru_cache(maxsize=None)
def gauss_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [-1, 1]; exact for polynomials of degree 2n-1."""
    if n < 1:
        raise ValueError(f"need at least one quadrature point, got {n}")
    nodes, weights = leggauss(n)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights

