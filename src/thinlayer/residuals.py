"""Residuals of the free-surface equations at the approximate solution.

Every residual is assembled exactly as a polynomial in z with spectral
coefficient fields (the ZPoly calculus), then sampled on the collocation
grid only for norm-taking. The interior momentum residual is sampled once
per term (`_interior_samples`); `interior_residual` is the nodal sum of
those samples, the same sum the convergence study reports. Two
cancellations are applied analytically before any discretization:

  * the hydrostatic pair dz(p)/(eps F^2) + 1/(eps F^2) in the vertical
    momentum (the pressure is linear in z, so the pair is identically
    zero; subtracting two O(1/eps) samples instead would drown small
    residuals in roundoff);
  * the surface pressure p(eps h0) = p_nonhydro (the hydrostatic part
    cancels against -z at the surface).

The convergence study reuses one shallow-water state for every aspect
ratio, fits log-log slopes above a roundoff floor, and keeps a per-term
breakdown of the interior momentum residual so any order below the
claimed one can be traced to the term responsible.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .ansatz import AnsatzFields, AnsatzRate, ZPoly, _velocity_polys, ansatz_rate, build_ansatz
from .grids import HField
from .norms import NormKind, norm
from .shallow_water import Params, StabilityError, SWState, stable_dt, sw_solve
from .thinfields import ThinField

__all__ = [
    "RESIDUAL_FLOOR",
    "StudyReport",
    "interior_polys",
    "interior_residual",
    "divergence_residual",
    "kinematic_residual",
    "traction_residual",
    "bottom_residual",
    "solved_form_residual",
    "fit_power_law",
    "convergence_study",
]

# Norms below this are roundoff, not signal; slope fits ignore them.
RESIDUAL_FLOOR = 1e-13

CLAIMED_ORDER = 3.0

INTERIOR_TERMS = ("time", "advection", "pressure", "viscous")


def _check_pair(a: AnsatzFields, r: AnsatzRate, p: Params):
    if r.base is not a.base:
        raise ValueError("ansatz and rate must come from the same state")
    if p != a.params or p != r.params:
        raise ValueError("parameter mismatch between ansatz, rate and call")


def _component_names(n: int) -> list[str]:
    return [f"H{i + 1}" for i in range(n)] + ["V"]


def _stress_polys(vel: list[ZPoly], n: int) -> list[list[ZPoly]]:
    """D(u_a) as an (n+1) x (n+1) array of vertical polynomials."""
    S = [[None] * (n + 1) for _ in range(n + 1)]
    for i in range(n):
        for j in range(n):
            S[i][j] = vel[i].dx(j) + vel[j].dx(i)
        S[i][n] = vel[i].dz() + vel[n].dx(i)
        S[n][i] = S[i][n]
    S[n][n] = 2.0 * vel[n].dz()
    return S


def interior_polys(a: AnsatzFields, r: AnsatzRate, p: Params) -> dict[str, list[ZPoly]]:
    """Interior momentum residual, split by term, one ZPoly per component.

    The pressure term divides out eps analytically: grad p / (eps F^2) has
    horizontal part (grad h0 + grad(p_nonhydro / eps)) / F^2 and, with the
    hydrostatic pair combined, no vertical part at all.
    """
    n = a.grid.n
    vel = _velocity_polys(a)
    zero_poly = ZPoly.zero(a.grid)

    time = _velocity_polys(r)

    advection = []
    for comp in vel:
        acc = vel[0] * comp.dx(0)
        for j in range(1, n):
            acc = acc + vel[j] * comp.dx(j)
        advection.append(acc + vel[n] * comp.dz())

    pnh_over_eps = (1.0 / p.eps) * a.p_nonhydro
    pressure = [
        ZPoly([(a.base.h0.dx(i) + pnh_over_eps.dx(i)) * (1.0 / p.F**2)]) for i in range(n)
    ]
    pressure.append(zero_poly)  # hydrostatic pair cancels identically

    S = _stress_polys(vel, n)
    viscous = []
    for i in range(n + 1):
        acc = S[i][0].dx(0)
        for j in range(1, n):
            acc = acc + S[i][j].dx(j)
        acc = acc + S[i][n].dz()
        viscous.append((-1.0 / p.Re) * acc)

    return {"time": time, "advection": advection, "pressure": pressure, "viscous": viscous}


def _interior_samples(a: AnsatzFields, r: AnsatzRate, p: Params, nz: int) -> dict:
    """Nodal samples of every interior_polys term, components stacked as
    (n+1, nz) + grid.shape, and their sum in INTERIOR_TERMS order under
    "total"."""
    h0 = a.base.h0
    out = {
        name: np.stack([q.to_thinfield(p.eps, nz, h0).values for q in polys])
        for name, polys in interior_polys(a, r, p).items()
    }
    total = out[INTERIOR_TERMS[0]]
    for name in INTERIOR_TERMS[1:]:
        total = total + out[name]
    out["total"] = total
    return out


def interior_residual(a: AnsatzFields, r: AnsatzRate, p: Params, nz: int) -> ThinField:
    """Momentum residual on the thin grid, components (H1..Hn, V)."""
    _check_pair(a, r, p)
    vals = _interior_samples(a, r, p, nz)["total"]
    return ThinField(a.grid, p.eps, nz, vals, a.base.h0)


def divergence_residual(a: AnsatzFields, nz: int) -> ThinField:
    """div_x u_H + dz u_V on the thin grid (identically zero by design)."""
    polys = a.horizontal_polys()
    divpoly = polys[0].dx(0)
    for i in range(1, a.grid.n):
        divpoly = divpoly + polys[i].dx(i)
    divpoly = divpoly + a.vertical_poly().dz()
    return divpoly.to_thinfield(a.eps, nz, a.base.h0)


def kinematic_residual(a: AnsatzFields, r: AnsatzRate, p: Params) -> HField:
    """eps dth0 + u_H(x, eps h0) . eps grad h0 - u_V(x, eps h0)."""
    _check_pair(a, r, p)
    h0 = a.base.h0
    eta = p.eps * h0
    res = p.eps * r.h0
    for i, poly in enumerate(a.horizontal_polys()):
        res = res + poly.at_height(eta) * (p.eps * h0.dx(i))
    return res - a.vertical_poly().at_height(eta)


def _surface_stress(a: AnsatzFields) -> list[list[HField]]:
    n = a.grid.n
    eta = a.eps * a.base.h0
    S = _stress_polys(_velocity_polys(a), n)
    return [[S[i][j].at_height(eta) for j in range(n + 1)] for i in range(n + 1)]


def _surface_pressure(a: AnsatzFields, p: Params) -> HField:
    """p_nonhydro / (eps F^2), the surface pressure, with the eps cancelled
    analytically."""
    return (-2.0 / p.Re) * (1.0 + p.eps**2 * p.gamma_bar) * (-a.w1)


def traction_residual(a: AnsatzFields, p: Params) -> HField:
    """(D(u_a)/Re - p_a/(eps F^2) Id)|_{z=eps h0} (-eps grad h0, 1).

    The normal is left unnormalized; the missing factor 1/sqrt(1+|...|^2)
    is positive and 1 + O(eps^2), so fitted orders are unaffected. The
    surface pressure is p_nonhydro exactly, and p_nonhydro/(eps F^2) is
    assembled without the eps division.
    """
    if p != a.params:
        raise ValueError("parameter mismatch between ansatz and call")
    n = a.grid.n
    h0 = a.base.h0
    Ssurf = _surface_stress(a)
    p_over = _surface_pressure(a, p)
    normal_H = [(-p.eps) * h0.dx(j) for j in range(n)]
    rows = []
    for i in range(n + 1):
        acc = Ssurf[i][n] * (1.0 / p.Re)  # vertical normal component is 1
        if i == n:
            acc = acc - p_over
        for j in range(n):
            Tij = Ssurf[i][j] * (1.0 / p.Re)
            if i == j:
                Tij = Tij - p_over
            acc = acc + Tij * normal_H[j]
        rows.append(acc)
    return HField.stack(rows)


def bottom_residual(a: AnsatzFields, p: Params) -> tuple[HField, HField]:
    """(u_V at z=0, dz u_H - eps gamma_bar u_H at z=0) = (0, u1 - eps gamma_bar u0).

    Both vanish by construction; this is the exactness claim for the bottom
    conditions, asserted symbolically rather than by quadrature.
    """
    if p != a.params:
        raise ValueError("parameter mismatch between ansatz and call")
    zero = HField(a.grid, np.zeros(a.grid.shape))
    slip = a.u1 - (p.eps * p.gamma_bar) * a.u0
    return zero, slip


def solved_form_residual(a: AnsatzFields, p: Params) -> tuple[HField, HField]:
    """Cross-check against the solved form of the surface conditions.

    Both displayed lines are multiplied through by (1 - |grad h|^2) so no
    near-unity division occurs:

      R_p  = Re (1 - |g|^2) p/(eps F^2) - (2 dz u_V - g^T D_x(u_H) g)
      R_t,i = (1 - |g|^2)(dz u_H + grad u_V)_i
              - (1 - |g|^2)(D_x(u_H) g)_i + (2 dz u_V - g^T D_x(u_H) g) g_i

    with g = eps grad h0 and everything at z = eps h0. Excluded from
    acceptance: the denominator sign disagrees with the standard
    elimination in a way the primitive form does not resolve.
    """
    if p != a.params:
        raise ValueError("parameter mismatch between ansatz and call")
    n = a.grid.n
    # D(u_a) at the surface: D_x(u_H) is the horizontal block,
    # S[i][n] = dz u_H + grad u_V and S[n][n] = 2 dz u_V
    S = _surface_stress(a)
    g_vec = [p.eps * a.base.h0.dx(j) for j in range(n)]

    gDg = g2 = HField(a.grid, np.zeros(a.grid.shape))
    Dg = []
    for i in range(n):
        acc = S[i][0] * g_vec[0]
        for j in range(1, n):
            acc = acc + S[i][j] * g_vec[j]
        Dg.append(acc)
        gDg = gDg + g_vec[i] * acc
        g2 = g2 + g_vec[i] * g_vec[i]
    one_minus = 1.0 - g2

    bracket = S[n][n] - gDg
    r_p = p.Re * (one_minus * _surface_pressure(a, p)) - bracket
    rows = [one_minus * S[i][n] - one_minus * Dg[i] + bracket * g_vec[i] for i in range(n)]
    return r_p, HField.stack(rows)


# -- convergence study --------------------------------------------------------


def fit_power_law(eps_list, values, floor: float = RESIDUAL_FLOOR):
    """Least-squares slope and R^2 of log(values) vs log(eps) above floor.

    Returns (slope, r2, flag); flag is "degenerate fit" when fewer than
    three points survive the floor, in which case slope and r2 are None.
    """
    pts = [(e, v) for e, v in zip(eps_list, values) if v > floor]
    if len(pts) < 3:
        return None, None, "degenerate fit"
    le = np.log([q[0] for q in pts])
    lv = np.log([q[1] for q in pts])
    slope, intercept = np.polyfit(le, lv, 1)
    fitted = slope * le + intercept
    ss_res = float(((lv - fitted) ** 2).sum())
    ss_tot = float(((lv - lv.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), r2, None


@dataclass
class StudyReport:
    """Residual norms over an eps sweep with fitted orders.

    records rows: (eps, kind, component, norm_sup, norm_l2).
    term_records rows: (eps, term, component, norm_sup), interior only.
    discrepancies: kinds whose fitted slope falls below the claimed order,
    with the per-component slopes and the dominant interior term attached.
    """

    eps_list: list[float]
    records: list[dict]
    kind_sup: dict[str, list[float]]
    slopes: dict[str, float | None]
    r2: dict[str, float | None]
    flags: list[str]
    component_slopes: dict[str, dict[str, float | None]]
    term_records: list[dict] = field(default_factory=list)
    term_slopes: dict[str, dict[str, float | None]] = field(default_factory=dict)
    discrepancies: list[dict] = field(default_factory=list)

    def summary(self) -> dict:
        """JSON-ready digest."""
        return {
            "eps_list": list(self.eps_list),
            "slopes": self.slopes,
            "r2": self.r2,
            "flags": list(self.flags),
        }


def _sup_l2(f: ThinField | HField) -> tuple[float, float]:
    return norm(f, NormKind.Linf()), norm(f, NormKind.L2())


def _residual_records(s: SWState, pvar: Params, nz: int):
    """All residual norms for one eps; returns (records, term_records)."""
    comp_names = _component_names(s.grid.n)
    a = build_ansatz(s, pvar)
    r = ansatz_rate(s, pvar)
    records = []
    term_records = []

    def add(kind, component, sup, l2):
        records.append(
            {
                "eps": pvar.eps,
                "kind": kind,
                "component": component,
                "norm_sup": sup,
                "norm_l2": l2,
            }
        )

    def thin(vals):
        return ThinField(s.grid, pvar.eps, nz, vals, s.h0).components()

    samples = _interior_samples(a, r, pvar, nz)
    for name in INTERIOR_TERMS:
        for comp, c in zip(comp_names, thin(samples[name])):
            term_records.append(
                {
                    "eps": pvar.eps,
                    "term": name,
                    "component": comp,
                    "norm_sup": norm(c, NormKind.Linf()),
                }
            )
    for comp, c in zip(comp_names, thin(samples["total"])):
        add("interior_momentum", comp, *_sup_l2(c))

    add("divergence", "scalar", *_sup_l2(divergence_residual(a, nz)))
    add("kinematic", "scalar", *_sup_l2(kinematic_residual(a, r, pvar)))
    for comp, c in zip(comp_names, traction_residual(a, pvar).components()):
        add("traction", comp, *_sup_l2(c))

    bot_v, bot_slip = bottom_residual(a, pvar)
    add("bottom", "V", *_sup_l2(bot_v))
    for comp, c in zip(comp_names, bot_slip.components()):
        add("bottom", comp, *_sup_l2(c))
    return records, term_records


def convergence_study(
    init: SWState,
    base: Params,
    eps_list,
    t_eval: float = 0.25,
    nz: int = 24,
) -> StudyReport:
    """Sweep the aspect ratio over one shared shallow-water state.

    The depth/velocity system does not involve eps, so init is evolved
    once to t_eval and the resulting state seeds the ansatz at every eps.
    t_eval should avoid states where residuals vanish identically (at a
    resting initial wave, every coefficient except the hydrostatic
    pressure is zero at t=0). The evolution takes its own steps,
    t_eval / ceil(t_eval / (0.4 stable_dt)); a bound that allows no finite
    step count raises StabilityError.
    """
    eps_list = [float(e) for e in eps_list]
    if len(eps_list) < 4:
        raise ValueError("need at least 4 aspect ratios")
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("eps_list must be strictly decreasing")

    if t_eval > 0.0:
        bound = 0.4 * stable_dt(init, base)
        steps = t_eval / bound if bound > 0.0 else math.inf
        if not math.isfinite(steps):
            raise StabilityError(f"study step bound {bound:.3g} allows no finite step count")
        nsteps = max(1, math.ceil(steps))
        s = sw_solve(init, base, T=t_eval, dt=t_eval / nsteps)[-1]
    else:
        s = init

    results = [
        _residual_records(s, Params(F=base.F, Re=base.Re, gamma_bar=base.gamma_bar, eps=e), nz)
        for e in eps_list
    ]

    records = [row for recs, _ in results for row in recs]
    term_records = [row for _, trecs in results for row in trecs]

    kinds = ("interior_momentum", "divergence", "kinematic", "traction", "bottom")
    comp_names = _component_names(init.grid.n)

    def series(rows, key_field, key, comp=None):
        out = []
        for e in eps_list:
            vals = [
                row["norm_sup"]
                for row in rows
                if row["eps"] == e
                and row[key_field] == key
                and (comp is None or row["component"] == comp)
            ]
            out.append(max(vals))
        return out

    kind_sup, slopes, r2s, flags = {}, {}, {}, []
    component_slopes: dict[str, dict] = {}
    for kind in kinds:
        kind_sup[kind] = series(records, "kind", kind)
        slope, r2, flag = fit_power_law(eps_list, kind_sup[kind])
        slopes[kind], r2s[kind] = slope, r2
        if flag:
            flags.append(f"{kind}: {flag}")
        comps = sorted({row["component"] for row in records if row["kind"] == kind})
        component_slopes[kind] = {}
        for c in comps:
            cs, _, _ = fit_power_law(eps_list, series(records, "kind", kind, c))
            component_slopes[kind][c] = cs

    term_slopes: dict[str, dict] = {}
    for term in INTERIOR_TERMS:
        term_slopes[term] = {}
        for c in comp_names:
            ts, _, _ = fit_power_law(eps_list, series(term_records, "term", term, c))
            term_slopes[term][c] = ts

    discrepancies = []
    finest = eps_list[-1]
    for kind in ("interior_momentum", "kinematic", "traction"):
        slope = slopes[kind]
        if slope is None or slope >= 2.5:
            continue
        fitted = {c: s for c, s in component_slopes[kind].items() if s is not None}
        worst = min(fitted, key=fitted.get) if fitted else None
        entry = {
            "kind": kind,
            "fitted_slope": slope,
            "r2": r2s[kind],
            "claimed_order": CLAIMED_ORDER,
            "component_slopes": component_slopes[kind],
            "worst_component": worst,
        }
        if kind == "interior_momentum" and worst is not None:
            # the largest term inside the slope-carrying component; terms in
            # other components may be bigger but cancel among themselves
            finest_terms = [
                r for r in term_records if r["eps"] == finest and r["component"] == worst
            ]
            dom = max(finest_terms, key=lambda r: r["norm_sup"])
            entry["dominant_term"] = {
                "term": dom["term"],
                "component": dom["component"],
                "norm_sup_at_finest": dom["norm_sup"],
                "slope": term_slopes[dom["term"]][dom["component"]],
            }
        discrepancies.append(entry)

    return StudyReport(
        eps_list=eps_list,
        records=records,
        kind_sup=kind_sup,
        slopes=slopes,
        r2=r2s,
        flags=flags,
        component_slopes=component_slopes,
        term_records=term_records,
        term_slopes=term_slopes,
        discrepancies=discrepancies,
    )
