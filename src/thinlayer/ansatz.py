"""Second-order approximate solution built from a shallow-water state.

The approximation is polynomial in the vertical coordinate z with
horizontal-field coefficients:

    u_H = u0 + u1 z + u2 z^2/2,   u_V = w1 z + w2 z^2/2 + w3 z^3/6,
    p   = eps h0 - z - (2 eps F^2 / Re)(1 + eps^2 gamma_bar) div u0.

ZPoly carries that structure: z is an independent coordinate, so horizontal
derivatives act on coefficients and vertical derivatives shift them. The
depth polynomials of u_H and u_V are written once, in `_velocity_polys`,
for the coefficients of an AnsatzFields or of its time derivative
AnsatzRate, and the residuals read them there. The rate depends only on
the state and the parameters, so each AnsatzFields computes its own `rate`
once, on first use. The incompressibility of the triple (u0, u1, u2) against
(w1, w2, w3) is an algebraic identity of the construction, not an
approximation.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grids import Grid, HField, _spec_to_fine, div, from_fine, grad, nonlinear
from .shallow_water import DegenerateStateError, Params, SWState, sw_rhs, sym_grad
from .thinfields import Strip, ThinField


class ZPoly:
    """Polynomial in z with scalar horizontal fields as coefficients.

    value(x, z) = sum_k coeffs[k](x) * z**k. A product pads both factors'
    coefficients in one pass and dealiases every coefficient pair in one
    batched projection; at_height performs the whole Horner evaluation in
    one padded pass so truncation is committed only once.
    """

    __slots__ = ("grid", "coeffs")

    def __init__(self, coeffs):
        coeffs = list(coeffs)
        if not coeffs:
            raise ValueError("a ZPoly needs at least one coefficient")
        grid = coeffs[0].grid
        for c in coeffs:
            if c.grid != grid:
                raise ValueError("coefficients must share a grid")
            if c.is_vector:
                raise ValueError("coefficients must be scalar fields")
        self.grid = grid
        self.coeffs = coeffs

    @classmethod
    def zero(cls, grid: Grid) -> "ZPoly":
        return cls([HField(grid, np.zeros(grid.shape))])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def _zero_field(self) -> HField:
        return HField(self.grid, np.zeros(self.grid.shape))

    def __add__(self, other: "ZPoly") -> "ZPoly":
        m = max(len(self.coeffs), len(other.coeffs))
        out = []
        for k in range(m):
            a = self.coeffs[k] if k < len(self.coeffs) else self._zero_field()
            b = other.coeffs[k] if k < len(other.coeffs) else self._zero_field()
            out.append(a + b)
        return ZPoly(out)

    def __mul__(self, other):
        if isinstance(other, ZPoly):
            p, q = len(self.coeffs), len(other.coeffs)
            fine = _spec_to_fine(self.grid, np.stack([c.spec for c in self.coeffs + other.coeffs]))
            pairs = (fine[:p, None] * fine[None, p:]).reshape((p * q,) + fine.shape[1:])
            prods = from_fine(self.grid, pairs).values.reshape((p, q) + self.grid.shape)
            # one pair at a time in (i, j) order: a vectorised sum rounds differently
            out = np.zeros((p + q - 1,) + self.grid.shape)
            for i in range(p):
                for j in range(q):
                    out[i + j] += prods[i, j]
            return ZPoly([HField(self.grid, v) for v in out])
        return ZPoly([c * float(other) for c in self.coeffs])

    __rmul__ = __mul__

    def dz(self) -> "ZPoly":
        if len(self.coeffs) == 1:
            return ZPoly.zero(self.grid)
        return ZPoly([(k + 1.0) * c for k, c in enumerate(self.coeffs[1:])])

    def dx(self, axis: int, order: int = 1) -> "ZPoly":
        return ZPoly([c.dx(axis, order) for c in self.coeffs])

    def bottom(self) -> HField:
        return self.coeffs[0]

    def at_z(self, z: float) -> HField:
        """Evaluation at a constant height (a plain linear combination)."""
        acc = self.coeffs[-1].values
        for c in reversed(self.coeffs[:-1]):
            acc = acc * z + c.values
        return HField(self.grid, acc + np.zeros(self.grid.shape))

    def at_height(self, eta: HField) -> HField:
        """Evaluation at a variable height eta(x), one padded Horner pass."""
        *fine, e = _spec_to_fine(self.grid, np.stack([c.spec for c in self.coeffs + [eta]]))
        acc = fine[-1]
        for c in reversed(fine[:-1]):
            acc = acc * e + c
        return from_fine(self.grid, acc)

    def to_thinfield(self, strip: Strip) -> ThinField:
        """Nodal samples at the strip's heights z = zeta*eps*h0."""
        z = strip.z
        acc = np.zeros(z.shape) + self.coeffs[-1].values
        for c in reversed(self.coeffs[:-1]):
            acc = acc * z + c.values
        return ThinField(strip, acc)


@dataclass(frozen=True)
class AnsatzFields:
    """Coefficient fields of the approximate solution at one instant.

    p_nonhydro is the z-independent non-hydrostatic pressure part; the full
    pressure is eps*h0 + p_nonhydro - z.
    """

    base: SWState
    params: Params
    u0: HField
    u1: HField
    u2: HField
    w1: HField
    w2: HField
    w3: HField
    p_nonhydro: HField

    @property
    def eps(self) -> float:
        return self.params.eps

    @property
    def grid(self) -> Grid:
        return self.u0.grid

    def horizontal_polys(self) -> list[ZPoly]:
        """One ZPoly per horizontal velocity component."""
        return _velocity_polys(self)[:-1]

    def vertical_poly(self) -> ZPoly:
        return _velocity_polys(self)[-1]

    def pressure_poly(self) -> ZPoly:
        hydro = self.eps * self.base.h0 + self.p_nonhydro
        return ZPoly([hydro, HField.constant(self.grid, -1.0)])

    @cached_property
    def rate(self) -> "AnsatzRate":
        """ansatz_rate(base, params), computed on first use and then kept."""
        return ansatz_rate(self.base, self.params)


@dataclass(frozen=True)
class AnsatzRate:
    """Time derivative of every AnsatzFields coefficient (same names)."""

    h0: HField
    u0: HField
    u1: HField
    u2: HField
    w1: HField
    w2: HField
    w3: HField
    p_nonhydro: HField


def _velocity_polys(c: AnsatzFields | AnsatzRate) -> list[ZPoly]:
    """u_H = u0 + u1 z + u2 z^2/2, one ZPoly per component, then
    u_V = w1 z + w2 z^2/2 + w3 z^3/6, from the coefficients of c."""
    g = c.u0.grid
    zero = HField(g, np.zeros(g.shape))
    horizontal = [
        ZPoly([c.u0.component(i), c.u1.component(i), 0.5 * c.u2.component(i)])
        for i in range(g.n)
    ]
    return horizontal + [ZPoly([zero, c.w1, 0.5 * c.w2, c.w3 * (1.0 / 6.0)])]


def _stress_vec(u: HField, gh: HField) -> HField:
    """(D(u) + 2 div u Id) applied to the vector gh."""
    n = u.grid.n
    D = sym_grad(u)
    divu = div(u)
    rows = []
    for i in range(n):
        acc = D[i][0] * gh.component(0)
        for a in range(1, n):
            acc = acc + D[i][a] * gh.component(a)
        rows.append(acc + 2.0 * (divu * gh.component(i)))
    return HField.stack(rows)


def _pressure_factor(p: Params) -> float:
    return -2.0 * p.eps * p.F**2 / p.Re * (1.0 + p.eps**2 * p.gamma_bar)


def build_ansatz(s: SWState, p: Params) -> AnsatzFields:
    """Second-order coefficients of the approximation seeded by (h0, u0)."""
    h0, u0 = s.h0, s.u0
    if h0.values.min() <= 0.0:
        raise DegenerateStateError("depth must stay positive")
    g = s.grid

    u1 = (p.eps * p.gamma_bar) * u0
    w1 = -div(u0)
    w2 = -div(u1)
    A = _stress_vec(u0, grad(h0)) - p.gamma_bar * u0
    u2 = -grad(w1) + nonlinear(g, lambda a, h: a / h, A, h0)
    w3 = -div(u2)
    p_nh = _pressure_factor(p) * div(u0)
    return AnsatzFields(s, p, u0, u1, u2, w1, w2, w3, p_nh)


def ansatz_rate(s: SWState, p: Params) -> AnsatzRate:
    """Chain rule through the shallow-water tendencies.

    Every coefficient is an explicit function of (h0, u0), so its time
    derivative follows by substituting sw_rhs into the product/quotient
    rule of its defining formula.
    """
    h0, u0 = s.h0, s.u0
    g = s.grid
    dth0, dtu0 = sw_rhs(s, p)

    du1 = (p.eps * p.gamma_bar) * dtu0
    dw1 = -div(dtu0)
    dw2 = -div(du1)

    A = _stress_vec(u0, grad(h0)) - p.gamma_bar * u0
    dA = _stress_vec(dtu0, grad(h0)) + _stress_vec(u0, grad(dth0)) - p.gamma_bar * dtu0
    quot = nonlinear(g, lambda a, da, h, dh: da / h - a * dh / (h * h), A, dA, h0, dth0)
    du2 = -grad(dw1) + quot
    dw3 = -div(du2)
    dp_nh = _pressure_factor(p) * div(dtu0)
    return AnsatzRate(dth0, dtu0, du1, du2, dw1, dw2, dw3, dp_nh)
