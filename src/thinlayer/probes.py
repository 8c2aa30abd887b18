"""Monte-Carlo probes of anisotropic functional inequalities on a thin strip.

Each probe draws random band-limited fields on the flat-top model strip
X x (0, eps), computes the properly eps-scaled ratio of the two sides of an
inequality, and reports the extremes per epsilon. The scalings

    L6:            eps^{1/3} ||u||_{L6}  / ||u||_{H1}
    Agmon:         eps^{1/2} ||u||_{Linf} / ||u||_{H2}
    trace_zero:              |u(., eps)|_{1/2} / ||u||_{H1}   (u = 0 at z = 0)
    trace_general: eps^{1/2} |u(., eps)|_{1/2} / ||u||_{H1}
    korn:          (2 ||D(u)||^2 + eps gamma_bar |u_H(., 0)|^2) / ||u||_{H1}^2

are chosen so a uniform-in-eps constant shows up as a ratio band that does
not drift as the strip thins; the korn band is bounded from below. Samples
are trigonometric in x (modes <= 4) and polynomial in the scaled vertical
coordinate, so all norms except Linf are computed by exact quadrature
(trapezoid in x, Clenshaw-Curtis in z); Linf is the nodal sup. Each
epsilon's strip is a flat thinfields.Strip on Grid(1, nx), and its
integral takes every quadrature. The Agmon and Korn ratios divide their
fields by a power of two (exact) before squaring, so thin strips cannot
overflow. Every sample gets its own counter-keyed stream, so reports are
independent of evaluation order. The trig and zeta-power tables are cached
on the strip and shared by its samples. Each ProbeReport derives its own
spread and verdict.

The zero-bottom trace ratio is the one tag whose sharp constant lives at
horizontal wavenumbers comparable to 1/eps: any fixed band limit makes the
unscaled ratio decay like sqrt(eps), which would read as a spurious trend.
That tag therefore draws from an eps-adapted family, low modes plus
boundary-layer modes k ~ q/eps with sinh(kz)/sinh(k eps) profiles, keeping
k*eps pinned so the extremal ratio is genuinely scale-free. Its modes are
orthogonal in x, so its x-integrals are taken in closed form (the x-mean
of cos^2 is 1/2): they equal the trapezoid sums on any grid of at least
4 kmax points, Clenshaw-Curtis still integrates in z, and the cost of a
sample does not depend on eps.

The korn tag probes the deformation inequality on random divergence-free
fields. Each sample is a stream function psi, zero at the bottom, drawn as
a _Sample; u = (psi_z, -psi_x) is read off its derivative tables. The
bottom trace is the trapezoid sum on the strip's grid. Only the
potential-flow anchors, whose cosh profiles are not zeta-polynomials, stay
in closed form. Here the deformation tensor is the symmetrized
half-gradient, matching the inequality's Fourier expansion rather than the
unhalved convention of the evolution equations.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grids import Grid, HField
from .thinfields import Strip

PROBE_TAGS = ("L6", "Agmon", "trace_zero", "trace_general", "korn")
KMAX = 4  # horizontal band limit of the samples
PDEG = 3  # vertical polynomial degree
SPREAD_LIMIT = 3.0  # largest per-eps extreme over the smallest, for "bounded"
PROBE_NX, PROBE_NZ = 64, 24  # strip nodes of anisotropy_probe
KORN_NX = 32  # strip columns of the korn tag


@dataclass(frozen=True)
class ProbeReport:
    """Extremal scaled ratios of one inequality over random fields.

    The verdict reads the side of the ratio band that the inequality bounds:
    the floor min_ratio for korn (a coercivity constant), the ceiling
    max_ratio for every other tag. It is "bounded" when that side's spread
    over eps stays below SPREAD_LIMIT. A zero floor has infinite spread.
    """

    tag: str
    eps_list: list
    rows: list  # one dict per eps: eps, n_samples, max_ratio, min_ratio

    def __post_init__(self):
        if len(self.rows) != len(self.eps_list):
            raise ValueError("one row per epsilon required")
        for row, eps in zip(self.rows, self.eps_list):
            if row["eps"] != eps:
                raise ValueError("row order must follow eps_list")
            if row["n_samples"] < 1:
                raise ValueError("empty sample set")
            if not (
                np.isfinite(row["max_ratio"])
                and np.isfinite(row["min_ratio"])
                and row["max_ratio"] >= row["min_ratio"] >= 0.0
            ):
                raise ValueError(f"bad ratio bounds in row {row}")

    def spread(self) -> float:
        """Largest over smallest per-eps value of the bounded side; inf when
        the smallest is 0."""
        key = "min_ratio" if self.tag == "korn" else "max_ratio"
        side = [r[key] for r in self.rows]
        return max(side) / min(side) if min(side) > 0.0 else float("inf")

    @property
    def verdict(self) -> str:
        return "bounded" if self.spread() < SPREAD_LIMIT else "unbounded trend"

    def summary(self) -> dict:
        """JSON-ready report; an infinite spread is written as null."""
        spread = self.spread()
        return {
            "tag": self.tag,
            "eps_list": list(self.eps_list),
            "rows": [dict(r) for r in self.rows],
            "spread": spread if np.isfinite(spread) else None,
            "verdict": self.verdict,
        }


class _Strip(Strip):
    """A flat Strip on Grid(1, nx) with the tables its samples share.

    Every table is built on first use and then shared, read-only, by all
    samples drawn on the strip.
    """

    def __init__(self, nx: int, nz: int, eps: float):
        super().__init__(Grid(1, nx), eps, nz)

    @cached_property
    def trig(self) -> tuple:
        """(cos, sin) factors of modes 0..KMAX and their first two
        x-derivatives, indexed by order; each array is (KMAX+1, nx)."""
        ks = np.arange(KMAX + 1)[:, None]
        kx = ks * self.grid.nodes[None, :]
        c, s = np.cos(kx), np.sin(kx)
        return _frozen(
            (c, s), (-ks * s, ks * c), (-(ks**2) * c, -(ks**2) * s)
        )

    @cached_property
    def zeta_basis(self) -> tuple:
        """d^order/dz of the zeta powers 0..PDEG, indexed by order, as
        (basis (PDEG+1, nz), 1 / eps^order)."""
        zeta, eps = self.zeta, self.eps
        powers = np.arange(PDEG + 1)
        b0 = zeta[None, :] ** powers[:, None]
        b1 = powers[:, None] * zeta[None, :] ** np.maximum(powers - 1, 0)[:, None]
        b1[0] = 0.0
        b2 = (
            powers * (powers - 1)
        )[:, None] * zeta[None, :] ** np.maximum(powers - 2, 0)[:, None]
        b2[:2] = 0.0
        _frozen(b0, b1, b2)
        return (b0, 1.0), (b1, 1.0 / eps), (b2, 1.0 / eps**2)

    @cached_property
    def layer_norms(self) -> tuple:
        """Squared H1 and top-trace norms of cos(k x + phi) g(z) per
        boundary-layer mode k, g = sinh(k z) / sinh(k eps):

            (L/2) sum_z w_z ((1 + k^2) g^2 + g'^2)   and   (L/2) sqrt(1 + k^2).

        The x-mean of cos^2 and sin^2 is 1/2 and the phase drops out.
        """
        k = np.array(_layer_modes(self.eps), dtype=float)
        kc = k[:, None]
        z, w = self.z[:, 0], self.weights[:, 0]  # one column of the flat strip
        s = np.sinh(kc * self.eps)
        g = np.sinh(kc * z) / s
        dg = kc * np.cosh(kc * z) / s
        half_l = 0.5 * self.grid.L
        h1 = half_l * (((1.0 + kc * kc) * g * g + dg * dg) * w).sum(axis=1)
        return _frozen(h1, half_l * np.sqrt(1.0 + k * k))


def _frozen(*arrays):
    for a in arrays:
        if isinstance(a, tuple):
            _frozen(*a)
        else:
            a.flags.writeable = False
    return arrays


class _Sample:
    """u = sum_k trig(k x) P_k(zeta) with closed-form derivatives."""

    def __init__(self, strip: _Strip, coeffs: np.ndarray):
        # coeffs: (KMAX + 1, 2, PDEG + 1): per mode, cos/sin, power of zeta
        self.strip = strip
        self.c = coeffs.copy()
        self.c[0, 1, :] = 0.0  # sin(0 x) carries nothing

    def derivative(self, dx: int = 0, dz: int = 0) -> np.ndarray:
        """Nodal values of d^dx_x d^dz_z u, shape (nz, nx)."""
        cosk, sink = self.strip.trig[dx]
        basis, scale = self.strip.zeta_basis[dz]
        prof = scale * np.einsum("kpm,mz->kpz", self.c, basis)
        return np.einsum("kz,kx->zx", prof[:, 0], cosk) + np.einsum(
            "kz,kx->zx", prof[:, 1], sink
        )

    @cached_property
    def u(self) -> np.ndarray:
        return self.derivative()

    def h1_sq(self) -> float:
        integral = self.strip.integral
        ux, uz = self.derivative(dx=1), self.derivative(dz=1)
        return integral(self.u * self.u) + integral(ux * ux + uz * uz)

    def top_trace_sq(self) -> float:
        """|u(., eps)|_{1/2}^2 on the top circle."""
        return HField(self.strip.grid, self.u[-1]).sobolev_sq(0.5)


class _LayerSample:
    """Zero-bottom field with boundary-layer vertical profiles.

    u = sum_j a_j cos(k_j x + phi_j) sinh(k_j z) / sinh(k_j eps), mixing the
    low modes with modes k ~ q/eps whose trace ratio does not degenerate as
    the strip thins. The k_j are distinct positive integers, so the modes are
    orthogonal in every x-integral and each squared norm is sum_j a_j^2 times
    the strip's per-mode norm. The phases drop out and are not drawn.
    """

    def __init__(self, strip: _Strip, rng):
        self.strip = strip
        self.amp = rng.standard_normal(strip.layer_norms[0].size)

    def h1_sq(self) -> float:
        return float((self.amp * self.amp * self.strip.layer_norms[0]).sum())

    def top_trace_sq(self) -> float:
        return float((self.amp * self.amp * self.strip.layer_norms[1]).sum())


def _layer_modes(eps: float) -> list:
    high = {max(1, round(q / eps)) for q in (0.25, 0.5, 1.0)}
    return sorted({1, 2, 3, 4} | high)


def _exponent(a: np.ndarray) -> int:
    """Binary exponent e of the largest magnitude in a. Dividing by 2**e is
    exact and brings that magnitude into [0.5, 1), so the squares of a
    ratio homogeneous in a cannot overflow at tiny eps."""
    return int(np.frexp(np.abs(a).max())[1])


def _scaled_ratio(tag: str, sample) -> float:
    strip = sample.strip
    eps = strip.eps
    h1_sq = sample.h1_sq()
    if h1_sq < 1e-24 * strip.grid.L * eps:
        return float("nan")  # degenerate sample; the floor scales with the area L*eps

    if tag == "L6":
        l6 = strip.integral(sample.u**6) ** (1.0 / 6.0)
        return eps ** (1.0 / 3.0) * l6 / np.sqrt(h1_sq)
    if tag == "Agmon":
        d = sample.derivative
        fields = np.stack([sample.u, d(dx=2), d(dx=1, dz=1), d(dz=2)])
        e = _exponent(fields)
        u, uxx, uxz, uzz = np.ldexp(fields, -e)
        h2 = np.sqrt(
            np.ldexp(h1_sq, -2 * e)
            + strip.integral(uxx * uxx + 2.0 * uxz * uxz + uzz * uzz)
        )
        return np.sqrt(eps) * np.abs(u).max() / h2
    half = np.sqrt(sample.top_trace_sq())
    scale = 1.0 if tag == "trace_zero" else np.sqrt(eps)
    return scale * half / np.sqrt(h1_sq)


def _korn_ratio(fields, strip: _Strip, gamma_bar: float) -> float:
    """(2 ||D(u)||^2 + eps gamma |u_H(0)|^2) / ||u||_H1^2 on the strip.

    fields holds the nodal arrays (nz, nx) of u_H, u_V and their x- and
    z-derivatives: (uh, uv, dux_h, duz_h, dux_v, duz_v). D is the
    symmetrized half-gradient. The ratio is homogeneous of degree 2, so
    the fields are scaled by an exact power of two first, and the
    degeneracy floor with them.
    """
    fields = np.stack(fields)
    e = _exponent(fields)
    uh, uv, dux_h, duz_h, dux_v, duz_v = np.ldexp(fields, -e)
    integral = strip.integral
    l2 = integral(uh**2 + uv**2)
    grad2 = integral(dux_h**2 + duz_h**2 + dux_v**2 + duz_v**2)
    h1 = l2 + grad2
    if h1 < np.ldexp(1e-12 * strip.grid.L * strip.eps, -2 * e):
        return float("nan")  # degenerate (floor scales with the area L*eps); skipped
    two_d2 = integral(2.0 * dux_h**2 + 2.0 * duz_v**2 + (duz_h + dux_v) ** 2)
    trace = strip.grid.dx * float((uh[0] ** 2).sum())
    return (two_d2 + strip.eps * gamma_bar * trace) / h1


def _stream_fields(psi: _Sample) -> tuple:
    """u = (psi_z, -psi_x) and its first derivatives, read off the stream
    function: divergence free, and u_V = 0 at the bottom when psi is."""
    psi_xz = psi.derivative(dx=1, dz=1)
    return (
        psi.derivative(dz=1),
        -psi.derivative(dx=1),
        psi_xz,
        psi.derivative(dz=2),
        -psi.derivative(dx=2),
        -psi_xz,
    )


def _random_stream(rng, strip: _Strip) -> _Sample:
    """Random stream function psi = sum_k trig(k x) P_k(zeta), k = 1..KMAX.

    Mode k carries (a_k cos + b_k sin) / k^2 times P_k = sum_m p_{k,m}
    zeta^m, m = 1..PDEG, so P_k(0) = 0 and u_V = -psi_x vanishes at the
    bottom. Row k - 1 of the draw is (a_k, b_k, p_{k,1..PDEG}).
    """
    draw = rng.standard_normal((KMAX, 2 + PDEG))
    k = np.arange(1, KMAX + 1)[:, None]
    coeffs = np.zeros((KMAX + 1, 2, PDEG + 1))
    coeffs[1:, :, 1:] = (draw[:, :2] / k**2)[:, :, None] * draw[:, None, 2:]
    return _Sample(strip, coeffs)


def _potential_fields(k: int, strip: _Strip) -> tuple:
    """u = grad psi with psi = cosh(k z) cos(k x): divergence free, flat at
    the bottom; the family behind the Korn pencil's eigenvalue 2."""
    ch, sh = np.cosh(k * strip.z), np.sinh(k * strip.z)
    cosk, sink = strip.trig[0]
    cx, sx = cosk[k], sink[k]
    return (
        -k * sx * ch,
        k * cx * sh,
        -k * k * cx * ch,
        -k * k * sx * sh,
        -k * k * sx * sh,
        k * k * cx * ch,
    )


def _draw(tag: str, strip: _Strip, rng, gamma_bar: float) -> float:
    """The ratio of one random sample of tag, drawn from rng."""
    if tag == "korn":
        return _korn_ratio(_stream_fields(_random_stream(rng, strip)), strip, gamma_bar)
    if tag == "trace_zero":
        return _scaled_ratio(tag, _LayerSample(strip, rng))
    coeffs = rng.standard_normal((KMAX + 1, 2, PDEG + 1))
    coeffs /= (1.0 + np.arange(KMAX + 1))[:, None, None] ** 2
    return _scaled_ratio(tag, _Sample(strip, coeffs))


def _anchors(tag: str, strip: _Strip, gamma_bar: float) -> list:
    """Ratios of the closed-form extremals that join tag's samples: the
    rigid translation psi = z and two potential flows for korn, none for
    trace_zero, the constant field for every other tag."""
    if tag == "korn":
        translation = np.zeros((KMAX + 1, 2, PDEG + 1))
        translation[0, 0, 1] = strip.eps  # psi = z, so u_H = 1
        ratios = [_korn_ratio(_stream_fields(_Sample(strip, translation)), strip, gamma_bar)]
        ratios += [_korn_ratio(_potential_fields(k, strip), strip, gamma_bar) for k in (1, 2)]
        return ratios
    if tag == "trace_zero":
        return []
    const = np.zeros((KMAX + 1, 2, PDEG + 1))
    const[0, 0, 0] = 1.0
    return [_scaled_ratio(tag, _Sample(strip, const))]


def anisotropy_probe(
    tag: str, eps_list, samples: int = 64, seed: int = 0, gamma_bar: float = 1.0
) -> ProbeReport:
    """Extremal eps-scaled ratios of one inequality over random fields.

    Each epsilon gets a _Strip of PROBE_NX x PROBE_NZ nodes, KORN_NX x
    PROBE_NZ for korn. Sample i draws from its own counter-keyed stream
    Philox([seed, i]), so the same draws are replayed for every epsilon and
    the report isolates the eps-dependence. The ratios of the tag's anchors
    join them; a non-finite (degenerate) ratio, sample or anchor, is
    skipped, and n_samples counts the ratios kept. gamma_bar is the scaled
    friction of the korn ratio; the other tags ignore it. At gamma_bar = 0
    the rigid translation's korn ratio is 0: without friction a rigid
    translation has no deformation, and the report reads that floor as an
    unbounded trend.
    """
    if tag not in PROBE_TAGS:
        raise ValueError(f"unknown tag {tag!r}, expected one of {PROBE_TAGS}")
    eps_list = [float(e) for e in np.atleast_1d(eps_list)]
    if samples < 50:
        raise ValueError("need at least 50 samples per epsilon")
    nx = KORN_NX if tag == "korn" else PROBE_NX
    rows = []
    for eps in eps_list:
        strip = _Strip(nx, PROBE_NZ, eps)
        ratios = []
        for i in range(samples):
            r = _draw(tag, strip, np.random.Generator(np.random.Philox([seed, i])), gamma_bar)
            if np.isfinite(r):
                ratios.append(float(r))
        ratios += [float(r) for r in _anchors(tag, strip, gamma_bar) if np.isfinite(r)]
        if not ratios:
            raise ValueError(f"all samples degenerate at eps = {eps}")
        rows.append(
            {
                "eps": eps,
                "n_samples": len(ratios),
                "max_ratio": max(ratios),
                "min_ratio": min(ratios),
            }
        )
    return ProbeReport(tag=tag, eps_list=eps_list, rows=rows)
