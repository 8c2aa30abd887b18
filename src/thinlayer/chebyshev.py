"""Chebyshev-Gauss-Lobatto collocation on the unit interval.

Nodes are ordered ascending with zeta_0 = 0, zeta_{nz-1} = 1, so index 0 is
always the bottom of a vertical column. Differentiation uses the barycentric
form (affine-safe, no trig cancellation) and quadrature is Clenshaw-Curtis.
"""
from __future__ import annotations

import numpy as np


def gl_nodes(nz: int) -> np.ndarray:
    """Gauss-Lobatto points on [0, 1], ascending. Requires nz >= 2."""
    if nz < 2:
        raise ValueError(f"need at least 2 vertical nodes, got {nz}")
    m = np.arange(nz)
    return 0.5 * (1.0 - np.cos(np.pi * m / (nz - 1)))


def barycentric_weights(nz: int) -> np.ndarray:
    """Barycentric weights for the Gauss-Lobatto points (any affine image)."""
    w = np.ones(nz)
    w[1::2] = -1.0
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def diff_matrix(nz: int) -> np.ndarray:
    """First-derivative collocation matrix on gl_nodes(nz).

    Built from the barycentric formula D_ij = (w_j / w_i) / (x_i - x_j),
    diagonal by negative row sums (exact differentiation of constants).
    """
    x = gl_nodes(nz)
    w = barycentric_weights(nz)
    dx = x[:, None] - x[None, :]
    np.fill_diagonal(dx, 1.0)
    D = (w[None, :] / w[:, None]) / dx
    np.fill_diagonal(D, 0.0)
    np.fill_diagonal(D, -D.sum(axis=1))
    return D


def clenshaw_curtis_weights(nz: int) -> np.ndarray:
    """Clenshaw-Curtis weights on [0, 1] matching gl_nodes(nz).

    Exact for polynomials of degree nz - 1; weights sum to 1.
    """
    n = nz - 1
    if n == 1:
        return np.array([0.5, 0.5])
    theta = np.pi * np.arange(nz) / n
    v = np.ones(n - 1)
    inner = theta[1:-1]
    if n % 2 == 0:
        for k in range(1, n // 2):
            v -= 2.0 * np.cos(2.0 * k * inner) / (4.0 * k * k - 1.0)
        v -= np.cos(n * inner) / (n * n - 1.0)
        end = 1.0 / (n * n - 1.0)
    else:
        for k in range(1, (n - 1) // 2 + 1):
            v -= 2.0 * np.cos(2.0 * k * inner) / (4.0 * k * k - 1.0)
        end = 1.0 / (n * n)
    w = np.empty(nz)
    w[0] = w[-1] = end
    w[1:-1] = 2.0 * v / n
    return 0.5 * w  # [-1, 1] -> [0, 1]
