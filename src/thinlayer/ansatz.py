"""Second-order approximate solution built from a shallow-water state.

The approximation is polynomial in the vertical coordinate z with
horizontal-field coefficients:

    u_H = u0 + u1 z + u2 z^2/2,   u_V = w1 z + w2 z^2/2 + w3 z^3/6,
    p   = eps h0 - z - (2 eps F^2 / Re)(1 + eps^2 gamma_bar) div u0.

ZPoly carries that structure: z is an independent coordinate, so horizontal
derivatives act on coefficients and vertical derivatives shift them. Its
coefficients are the rows of one HField, so each operation acts on the
stack and one transform call covers every row. The depth polynomials of
u_H and u_V are written once, as `velocity_polys` on the common base of an
AnsatzFields and of its time derivative AnsatzRate, and built once per
object; an AnsatzFields also keeps its deformation D(u_a) once built. The
residuals read both there. The coefficients of the ansatz and of its rate
come from the same linear maps (`_coefficients`) applied to u0 and to its
time derivative; `build_ansatz` keeps the rate as the field `rate`. The
stress vector A = (D(u0) + 2 div u0 Id) grad h0 - gamma_bar u0 of u2's
quotient term A/h0, and D(u0), div u0 and grad h0, are built once per
state, in `ansatz_rate`, and A/h0 and its rate take one padded pass. Only
u1, w2 and p_nonhydro depend on eps, and `_scaled` is the one map that
builds them, so `at(eps)` moves the ansatz and its rate to another aspect
ratio and shares every other field. The incompressibility of (u0, u1, u2)
against (w1, w2, w3) is an algebraic identity of the construction, not an
approximation.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .grids import Grid, HField, _spec_to_fine, div, from_fine, grad, nonlinear
from .shallow_water import Params, SWState, sw_rhs, sym_grad
from .thinfields import Strip, ThinField


class ZPoly:
    """Polynomial in z with scalar horizontal fields as coefficients.

    value(x, z) = sum_k c[k](x) * z**k: the coefficients are the rows of one
    HField c, row k multiplying z**k, and `ZPoly.stack` builds c from a list
    of fields. Each operation acts on the whole stack, so one transform call
    covers every row. A product pads both factors' rows in one pass and
    dealiases the coefficient pairs one row at a time, each row of self
    against all of other's in one projection; at_height performs the whole
    Horner evaluation in one padded pass so truncation is committed only
    once.
    """

    __slots__ = ("c",)

    def __init__(self, c: HField):
        self.c = c

    @classmethod
    def stack(cls, coeffs) -> "ZPoly":
        """sum_k coeffs[k] z**k, from a non-empty list of scalar fields on one grid."""
        coeffs = list(coeffs)
        if not coeffs or any(c.grid != coeffs[0].grid or c.is_vector for c in coeffs):
            raise ValueError("a ZPoly needs one or more scalar coefficients on one grid")
        return cls(HField.stack(coeffs))

    def __add__(self, other: "ZPoly") -> "ZPoly":
        """Row-wise sum; the longer operand's tail rows are copied unchanged."""
        a, b = sorted((self.c.values, other.c.values), key=len, reverse=True)
        out = a.copy()
        out[: len(b)] += b
        return ZPoly(HField(self.c.grid, out))

    def __mul__(self, other):
        g = self.c.grid
        if isinstance(other, ZPoly):
            p, q = len(self.c.values), len(other.c.values)
            fine = _spec_to_fine(g, np.concatenate([self.c.spec, other.c.spec]))
            out = np.zeros((p + q - 1,) + g.shape)
            for i in range(p):
                row = from_fine(g, fine[i] * fine[p:]).values
                # one pair at a time in (i, j) order: a vectorised sum rounds differently
                for j in range(q):
                    out[i + j] += row[j]
            return ZPoly(HField(g, out))
        return ZPoly(HField(g, self.c.values * float(other)))

    __rmul__ = __mul__

    def dz(self) -> "ZPoly":
        v = self.c.values
        k = np.arange(1.0, len(v)).reshape((-1,) + (1,) * self.c.grid.n)
        return ZPoly(HField(self.c.grid, k * v[1:] if len(v) > 1 else np.zeros_like(v)))

    def dx(self, axis: int) -> "ZPoly":
        return ZPoly(self.c.dx(axis))

    def at_z(self, z: float) -> HField:
        """Evaluation at a constant height (a plain linear combination)."""
        acc = self.c.values[-1]
        for c in self.c.values[-2::-1]:
            acc = acc * z + c
        return HField(self.c.grid, acc + np.zeros(self.c.grid.shape))

    def at_height(self, eta: HField) -> HField:
        """Evaluation at a variable height eta(x), one padded Horner pass."""
        *fine, e = _spec_to_fine(self.c.grid, np.concatenate([self.c.spec, eta.spec[None]]))
        acc = fine[-1]
        for c in reversed(fine[:-1]):
            acc = acc * e + c
        return from_fine(self.c.grid, acc)

    def to_thinfield(self, strip: Strip) -> ThinField:
        """Nodal samples at the strip's heights z = zeta*eps*h0."""
        z = strip.z
        acc = np.zeros(z.shape)
        acc += self.c.values[-1]
        # Horner in place on one array
        for c in self.c.values[-2::-1]:
            acc *= z
            acc += c
        return ThinField(strip, acc)


class _VelocityForm:
    """The depth polynomials of the velocity, read from the coefficient
    fields u0, u1, u2, w1, w2, w3 of the class it is mixed into."""

    @cached_property
    def velocity_polys(self) -> tuple[ZPoly, ...]:
        """u_H = u0 + u1 z + u2 z^2/2, one ZPoly per component, then
        u_V = w1 z + w2 z^2/2 + w3 z^3/6; built on first use and then kept."""
        g = self.u0.grid
        horizontal = [
            ZPoly.stack([self.u0.component(i), self.u1.component(i), 0.5 * self.u2.component(i)])
            for i in range(g.n)
        ]
        vertical = ZPoly.stack(
            [HField.constant(g, 0.0), self.w1, 0.5 * self.w2, self.w3 * (1.0 / 6.0)]
        )
        return (*horizontal, vertical)


@dataclass(frozen=True)
class AnsatzFields(_VelocityForm):
    """Coefficient fields of the approximate solution at one instant.

    p_nonhydro is the z-independent non-hydrostatic pressure part; the full
    pressure is eps*h0 + p_nonhydro - z. rate is the time derivative.
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
    rate: "AnsatzRate"

    @property
    def eps(self) -> float:
        return self.params.eps

    @property
    def grid(self) -> Grid:
        return self.u0.grid

    def pressure_poly(self) -> ZPoly:
        hydro = self.eps * self.base.h0 + self.p_nonhydro
        return ZPoly.stack([hydro, HField.constant(self.grid, -1.0)])

    @cached_property
    def deformation(self) -> tuple[tuple[ZPoly, ...], ...]:
        """D(u_a) = grad u_a + grad u_a^T as an (n+1) x (n+1) array of
        vertical polynomials, z the last coordinate; built on first use and
        then kept. Each mirrored pair is one object: S[i][j] is S[j][i]."""
        vel = self.velocity_polys
        n = self.grid.n
        S = [[None] * (n + 1) for _ in range(n + 1)]
        for i in range(n):
            for j in range(i, n):
                S[i][j] = S[j][i] = vel[i].dx(j) + vel[j].dx(i)
            S[i][n] = S[n][i] = vel[i].dz() + vel[n].dx(i)
        S[n][n] = 2.0 * vel[n].dz()
        return tuple(map(tuple, S))

    def at(self, eps: float) -> "AnsatzFields":
        """This state's ansatz and rate at eps: only u1, w2 and p_nonhydro change."""
        p = replace(self.params, eps=eps)
        rate = replace(self.rate, **_scaled(self.rate.u0, self.rate.w1, p))
        return replace(self, params=p, rate=rate, **_scaled(self.u0, self.w1, p))


@dataclass(frozen=True)
class AnsatzRate(_VelocityForm):
    """Time derivative of every AnsatzFields coefficient (same names)."""

    h0: HField
    u0: HField
    u1: HField
    u2: HField
    w1: HField
    w2: HField
    w3: HField
    p_nonhydro: HField


def _stress_vec(D: list[list[HField]], divu: HField, gh: HField) -> HField:
    """(D(u) + 2 div u Id) applied to the vector gh, from D(u) and div u."""
    n = gh.grid.n
    rows = []
    for i in range(n):
        acc = D[i][0] * gh.component(0)
        for a in range(1, n):
            acc = acc + D[i][a] * gh.component(a)
        rows.append(acc + 2.0 * (divu * gh.component(i)))
    return HField.stack(rows)


def _scaled(v: HField, w1: HField, p: Params) -> dict[str, HField]:
    """u1, w2 and p_nonhydro from v and w1 = -div v: the one place eps enters."""
    u1 = (p.eps * p.gamma_bar) * v
    factor = -2.0 * p.eps * p.F**2 / p.Re * (1.0 + p.eps**2 * p.gamma_bar)
    return {"u1": u1, "w2": -div(u1), "p_nonhydro": factor * (-w1)}


def _coefficients(v: HField, quot: HField, p: Params) -> dict[str, HField]:
    """Every coefficient but u0, from the velocity v and the quotient term of
    u2: the maps that build the ansatz from u0, and its rate from dt u0."""
    w1 = -div(v)
    u2 = -grad(w1) + quot
    return {"u2": u2, "w1": w1, "w3": -div(u2), **_scaled(v, w1, p)}


def build_ansatz(s: SWState, p: Params) -> AnsatzFields:
    """Second-order coefficients seeded by (h0, u0), with their time rate."""
    rate, quot = ansatz_rate(s, p)
    return AnsatzFields(s, p, s.u0, rate=rate, **_coefficients(s.u0, quot, p))


def ansatz_rate(s: SWState, p: Params) -> tuple[AnsatzRate, HField]:
    """Chain rule through the shallow-water tendencies; returns the rate and
    the quotient term A/h0 of u2.

    Every coefficient is an explicit function of (h0, u0), so its time
    derivative follows by substituting the rows dt h0 and dt u0 of sw_rhs
    into the product/quotient rule of its defining formula. All but the
    quotient term of u2 are linear in u0, so they are the ansatz's own maps
    applied to dt u0. A, D(u0), div u0 and grad h0 are built once, and A/h0
    and d(A/h0) take one padded pass.
    """
    h0, u0 = s.h0, s.u0
    dtq = sw_rhs(s, p).values
    dth0, dtu0 = HField(s.grid, dtq[0]), HField(s.grid, dtq[1:])
    gh0, D0, div0 = grad(h0), sym_grad(u0), div(u0)
    A = _stress_vec(D0, div0, gh0) - p.gamma_bar * u0
    dA = (_stress_vec(sym_grad(dtu0), div(dtu0), gh0) + _stress_vec(D0, div0, grad(dth0))
          - p.gamma_bar * dtu0)
    n = s.grid.n
    both = nonlinear(s.grid, lambda a, da, h, dh: np.concatenate(
        (a / h, da / h - a * dh / (h * h))), A, dA, h0, dth0).values
    quot, dquot = HField(s.grid, both[:n]), HField(s.grid, both[n:])
    return AnsatzRate(dth0, dtu0, **_coefficients(dtu0, dquot, p)), quot
