"""Norms for horizontal and thin fields.

Horizontal L2/Hk norms use trapezoid quadrature (exact for trigonometric
polynomials) and spectral derivatives; Hk sums every partial derivative of
order <= k. Thin-field norms integrate with Clenshaw-Curtis in zeta against
the column Jacobian eps h0(x); vertical derivatives carry the 1/(eps h0)
chain-rule factor, horizontal ones the surface-slope correction. Boundary
Sobolev norms of fractional order are Fourier multipliers (1 + |kappa|^2)^(s/2).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import chebyshev as cheb
from .grids import HField
from .thinfields import ThinField

__all__ = ["NormKind", "norm"]


@dataclass(frozen=True)
class NormKind:
    """Tag for a norm: L2, Hk (k in 0..3), L6, Linf, or boundary H^s."""

    kind: str
    k: int = 0
    s: float = 0.0

    _BOUNDARY_ORDERS = (-0.5, 0.5, 1.5)

    def __post_init__(self):
        if self.kind not in ("L2", "Hk", "L6", "Linf", "boundary_Hs"):
            raise ValueError(f"unknown norm kind {self.kind!r}")
        if self.kind == "Hk" and self.k not in (0, 1, 2, 3):
            raise ValueError(f"Hk order must be in 0..3, got {self.k}")
        if self.kind == "boundary_Hs" and self.s not in self._BOUNDARY_ORDERS:
            raise ValueError(f"boundary order must be one of {self._BOUNDARY_ORDERS}")

    @classmethod
    def L2(cls):
        return cls("L2")

    @classmethod
    def Hk(cls, k: int):
        return cls("Hk", k=k)

    @classmethod
    def L6(cls):
        return cls("L6")

    @classmethod
    def Linf(cls):
        return cls("Linf")

    @classmethod
    def boundary(cls, s: float):
        return cls("boundary_Hs", s=s)


def norm(f, kind: NormKind) -> float:
    if isinstance(kind, str):
        kind = NormKind(kind)
    if isinstance(f, HField):
        return _norm_h(f, kind)
    if isinstance(f, ThinField):
        return _norm_thin(f, kind)
    raise TypeError(f"cannot take a norm of {type(f).__name__}")


# -- horizontal fields -------------------------------------------------------


def _sq_l2_h(f: HField) -> float:
    return float((f.values**2).sum() * f.grid.dx**f.grid.n)


def _multi_indices(dim: int, order: int):
    for total in range(order + 1):
        for combo in itertools.product(range(total + 1), repeat=dim):
            if sum(combo) == total:
                yield combo


def _norm_h(f: HField, kind: NormKind) -> float:
    g = f.grid
    if kind.kind == "L2":
        return float(np.sqrt(_sq_l2_h(f)))
    if kind.kind == "Hk":
        total = 0.0
        for orders in _multi_indices(g.n, kind.k):
            for c in f.components():
                total += _sq_l2_h(c.deriv(orders))
        return float(np.sqrt(total))
    if kind.kind == "Linf":
        mag = np.abs(f.values) if not f.is_vector else np.sqrt((f.values**2).sum(axis=0))
        return float(mag.max())
    if kind.kind == "L6":
        mag2 = f.values**2 if not f.is_vector else (f.values**2).sum(axis=0)
        return float(((mag2**3).sum() * g.dx**g.n) ** (1.0 / 6.0))
    if kind.kind == "boundary_Hs":
        return float(np.sqrt(f.sobolev_sq(kind.s)))
    raise AssertionError(kind)


# -- thin fields -------------------------------------------------------------


def _column_weights(tf: ThinField) -> np.ndarray:
    """Quadrature weights over (zeta, x): w_m * eps * h0(x) * dx^n."""
    w = cheb.clenshaw_curtis_weights(tf.nz).reshape((tf.nz,) + (1,) * tf.grid.n)
    return w * (tf.eps * tf.h0.values) * tf.grid.dx**tf.grid.n


def _sq_l2_thin(tf: ThinField) -> float:
    w = _column_weights(tf)
    mag2 = tf.values**2 if not tf.is_vector else (tf.values**2).sum(axis=0)
    return float((w * mag2).sum())


def _norm_thin(tf: ThinField, kind: NormKind) -> float:
    if kind.kind == "L2":
        return float(np.sqrt(_sq_l2_thin(tf)))
    if kind.kind == "Hk":
        total = 0.0
        for orders in _multi_indices(tf.grid.n + 1, kind.k):
            for c in tf.components():
                d = c
                for direction, m in enumerate(orders):
                    for _ in range(m):
                        d = d.derivative(direction)
                total += _sq_l2_thin(d)
        return float(np.sqrt(total))
    if kind.kind == "Linf":
        mag = np.abs(tf.values) if not tf.is_vector else np.sqrt((tf.values**2).sum(axis=0))
        return float(mag.max())
    if kind.kind == "L6":
        w = _column_weights(tf)
        mag2 = tf.values**2 if not tf.is_vector else (tf.values**2).sum(axis=0)
        return float(((w * mag2**3).sum()) ** (1.0 / 6.0))
    if kind.kind == "boundary_Hs":
        raise ValueError("boundary norms apply to a boundary trace; take bottom()/top() first")
    raise AssertionError(kind)
