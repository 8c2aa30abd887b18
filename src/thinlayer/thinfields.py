"""The thin strip {(x, z): x on the torus, 0 < z < eps h0(x)} and fields on it.

A Strip is the one description of the strip's vertical collocation. The
vertical coordinate is collocated on the scaled variable
zeta = z / (eps h0(x)) in [0, 1] at Chebyshev-Gauss-Lobatto points, so the
column geometry follows the free surface; zeta index 0 is the bottom z = 0.
A flat strip of height eps is the special case h0 == 1. The strip holds the
heights z = zeta eps h0, the Clenshaw-Curtis column weights, the strip
integral and the vertical derivative d/dz = (1 / (eps h0)) d/dzeta: every
thin norm, probe ratio, lift constant and chart derivative is taken
through it. A ThinField is a strip and nodal samples on it: the residual
study fills it from ZPoly.to_thinfield and reads its sup and L2 norms
(`norms`). Horizontal derivatives act on the ZPoly coefficients before
sampling.
"""
from __future__ import annotations

import numpy as np

from . import chebyshev as cheb
from .grids import Grid, HField


class Strip:
    """Collocation of the strip of aspect ratio eps over a horizontal grid.

    nz Gauss-Lobatto levels per column; h0 is the surface profile, None for
    the flat strip h0 == 1. zeta is (nz,); z and weights are
    (nz,) + grid.shape, the weights w_m eps h0(x) integrating over each
    column.
    """

    def __init__(self, grid: Grid, eps: float, nz: int, h0: HField | None = None):
        if not (np.isfinite(eps) and 0.0 < eps < 1.0):
            raise ValueError(f"eps must lie in (0, 1), got {eps}")
        if nz < 2:
            raise ValueError(f"need nz >= 2 vertical nodes, got {nz}")
        h0 = np.ones(grid.shape) if h0 is None else h0.values
        if h0.min() <= 0.0:
            raise ValueError("h0 must be strictly positive")
        self.grid = grid
        self.eps = float(eps)
        self.nz = int(nz)
        self.h0 = h0
        self.zeta = cheb.gl_nodes(nz)
        column, depth = (nz,) + (1,) * grid.n, self.eps * h0
        self.z = self.zeta.reshape(column) * depth
        self.weights = cheb.clenshaw_curtis_weights(nz).reshape(column) * depth
        self._diff = cheb.diff_matrix(nz)

    def integral(self, f: np.ndarray) -> float:
        """Integral over the strip of nodal values f, shape (nz,) + grid.shape."""
        return self.grid.dx**self.grid.n * float((self.weights * f).sum())

    def dz(self, values: np.ndarray) -> np.ndarray:
        """d/dz of nodal values, shape (nz,) + grid.shape or (m, nz) + grid.shape."""
        axis = -self.grid.n - 1
        dzeta = np.tensordot(self._diff, values, axes=([1], [axis]))
        return np.moveaxis(dzeta, 0, axis) / (self.eps * self.h0)


class ThinField:
    """Samples on a strip's (zeta, x) collocation grid, scalar or vector.

    values: (nz,) + grid.shape, or (m, nz) + grid.shape for m components.
    """

    __slots__ = ("strip", "values")

    def __init__(self, strip: Strip, values):
        values = np.asarray(values, dtype=float)
        expect = (strip.nz,) + strip.grid.shape
        if values.shape != expect and values.shape[1:] != expect:
            raise ValueError(f"values shape {values.shape} incompatible with {expect}")
        self.strip = strip
        self.values = values

    @property
    def is_vector(self) -> bool:
        return self.values.ndim == self.strip.grid.n + 2

    def components(self) -> list["ThinField"]:
        if not self.is_vector:
            return [self]
        return [ThinField(self.strip, v) for v in self.values]

    @classmethod
    def from_function(cls, strip: Strip, fn):
        """Sample fn(x..., z) at the strip's nodes (fn vectorized)."""
        z = strip.z
        xs = [np.broadcast_to(c, z.shape) for c in strip.grid.coords()]
        return cls(strip, fn(*xs, z) + np.zeros_like(z))
