"""The sup and L2 norms of horizontal and thin fields: the two norms the
residual study reports.

Horizontal L2 uses trapezoid quadrature, exact for trigonometric
polynomials. Thin-field L2 is the integral over the field's strip
(`Strip.integral`: Clenshaw-Curtis in zeta against the column Jacobian
eps h0(x), trapezoid in x). The sup norm is the largest nodal magnitude,
the Euclidean length for vector fields.
"""
from __future__ import annotations

import numpy as np

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
        if isinstance(f, HField):
            return float(np.sqrt((f.values**2).sum() * f.grid.dx**f.grid.n))
        mag2 = f.values**2 if not f.is_vector else (f.values**2).sum(axis=0)
        return float(np.sqrt(f.strip.integral(mag2)))
    raise ValueError(f"unknown norm kind {kind!r}: expected 'Linf' or 'L2'")
