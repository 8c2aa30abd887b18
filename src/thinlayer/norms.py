"""The sup and L2 norms of horizontal and thin fields: the two norms the
residual study reports.

Horizontal L2 uses trapezoid quadrature, exact for trigonometric
polynomials. Thin-field L2 integrates with Clenshaw-Curtis in zeta against
the column Jacobian eps h0(x). The sup norm is the largest nodal magnitude,
the Euclidean length for vector fields.
"""
from __future__ import annotations

import numpy as np

from . import chebyshev as cheb
from .grids import HField
from .thinfields import ThinField


def norm(f: HField | ThinField, kind: str) -> float:
    """The "Linf" or "L2" norm of a horizontal or thin field."""
    if not isinstance(f, (HField, ThinField)):
        raise TypeError(f"cannot take a norm of {type(f).__name__}")
    if kind == "Linf":
        mag = np.abs(f.values) if not f.is_vector else np.sqrt((f.values**2).sum(axis=0))
        return float(mag.max())
    if kind == "L2":
        return float(np.sqrt(_sq_l2_h(f) if isinstance(f, HField) else _sq_l2_thin(f)))
    raise ValueError(f"unknown norm kind {kind!r}: expected 'Linf' or 'L2'")


def _sq_l2_h(f: HField) -> float:
    return float((f.values**2).sum() * f.grid.dx**f.grid.n)


def _column_weights(tf: ThinField) -> np.ndarray:
    """Quadrature weights over (zeta, x): w_m * eps * h0(x) * dx^n."""
    w = cheb.clenshaw_curtis_weights(tf.nz).reshape((tf.nz,) + (1,) * tf.grid.n)
    return w * (tf.eps * tf.h0.values) * tf.grid.dx**tf.grid.n


def _sq_l2_thin(tf: ThinField) -> float:
    w = _column_weights(tf)
    mag2 = tf.values**2 if not tf.is_vector else (tf.values**2).sum(axis=0)
    return float((w * mag2).sum())
