"""Fields on the thin domain {(x, z): x on the torus, 0 < z < eps h0(x)}.

The vertical coordinate is collocated on the scaled variable
zeta = z / (eps h0(x)) in [0, 1] at Chebyshev-Gauss-Lobatto points, so the
column geometry follows the free surface. zeta index 0 is the bottom z = 0.
A flat strip of height eps is the special case h0 == 1. A ThinField holds
nodal samples only: the residual study fills it from ZPoly.to_thinfield
and reads its sup and L2 norms (`norms`). Its one derivative is the
vertical one, d/dz = (1 / (eps h0)) d/dzeta; horizontal derivatives act on
the ZPoly coefficients before sampling.
"""
from __future__ import annotations

import numpy as np

from . import chebyshev as cheb
from .grids import Grid, HField


class ThinField:
    """Samples on the (zeta, x) collocation grid, scalar or vector.

    values: (nz,) + grid.shape, or (m, nz) + grid.shape for m components.
    h0 defaults to the constant 1 (flat strip of height eps).
    """

    __slots__ = ("grid", "eps", "nz", "values", "h0")

    def __init__(self, grid: Grid, eps: float, nz: int, values, h0: HField | None = None):
        if not (0.0 < eps < 1.0):
            raise ValueError(f"eps must lie in (0, 1), got {eps}")
        if nz < 4:
            raise ValueError(f"need nz >= 4 vertical nodes, got {nz}")
        values = np.asarray(values, dtype=float)
        expect = (nz,) + grid.shape
        if values.shape != expect and values.shape[1:] != expect:
            raise ValueError(f"values shape {values.shape} incompatible with {expect}")
        if h0 is None:
            h0 = HField.constant(grid, 1.0)
        if h0.values.min() <= 0.0:
            raise ValueError("h0 must be strictly positive")
        self.grid = grid
        self.eps = float(eps)
        self.nz = int(nz)
        self.values = values
        self.h0 = h0

    # -- structure ---------------------------------------------------------

    @property
    def is_vector(self) -> bool:
        return self.values.ndim == self.grid.n + 2

    @property
    def ncomp(self) -> int:
        return self.values.shape[0] if self.is_vector else 1

    def component(self, i: int) -> "ThinField":
        if not self.is_vector:
            raise IndexError("scalar thin field has no components")
        return ThinField(self.grid, self.eps, self.nz, self.values[i], self.h0)

    def components(self) -> list["ThinField"]:
        return [self.component(i) for i in range(self.ncomp)] if self.is_vector else [self]

    @property
    def zeta(self) -> np.ndarray:
        return cheb.gl_nodes(self.nz)

    def z_coords(self) -> np.ndarray:
        """Physical heights z = zeta * eps * h0(x), shape (nz,) + grid.shape."""
        zeta = self.zeta.reshape((self.nz,) + (1,) * self.grid.n)
        return zeta * (self.eps * self.h0.values)

    @classmethod
    def from_function(cls, grid: Grid, eps: float, nz: int, fn, h0: HField | None = None):
        """Sample fn(x..., z) on the collocation grid (fn vectorized)."""
        tmp = cls(grid, eps, nz, np.zeros((nz,) + grid.shape), h0)
        z = tmp.z_coords()
        xs = [np.broadcast_to(c, grid.shape) for c in grid.coords()]
        vals = fn(*[np.broadcast_to(x, z.shape) for x in xs], z)
        return cls(grid, eps, nz, vals + np.zeros_like(z), h0)

    # -- calculus ----------------------------------------------------------

    def dzeta(self) -> "ThinField":
        D = cheb.diff_matrix(self.nz)
        vals = np.tensordot(D, self.values, axes=([1], [-self.grid.n - 1]))
        # tensordot puts the zeta axis first; restore component axis if any
        if self.is_vector:
            vals = np.moveaxis(vals, 1, 0)
        return ThinField(self.grid, self.eps, self.nz, vals, self.h0)

    def dz(self) -> "ThinField":
        """True vertical derivative: (1 / (eps h0(x))) d/dzeta."""
        g = self.dzeta()
        vals = g.values / (self.eps * self.h0.values)
        return ThinField(self.grid, self.eps, self.nz, vals, self.h0)
