"""Residuals of the free-surface equations at the approximate solution.

Every residual is assembled exactly as a polynomial in z with spectral
coefficient fields (the ZPoly calculus), then sampled on the collocation
grid only for norm-taking. Each residual takes the ansatz alone and reads
what the ansatz builds once: its parameters `a.params`, the depth
polynomials of u_a (`a.velocity_polys`) and of its time rate
(`a.rate.velocity_polys`), and the deformation D(u_a) (`a.deformation`),
whose distinct entries are evaluated at the surface once for the traction.
The interior momentum residual is sampled one component at a time
(`_interior_component`): each term is sampled, reduced to its sup norm
and added into the component's running sum in INTERIOR_TERMS order, so no
strip-sized sample outlives the norms taken from it. `interior_residual`
stacks those sums, the same sums the convergence study reports. Two
cancellations are applied analytically before any discretization:

  * the hydrostatic pair dz(p)/(eps F^2) + 1/(eps F^2) in the vertical
    momentum (the pressure is linear in z, so the pair is identically
    zero; subtracting two O(1/eps) samples instead would drown small
    residuals in roundoff);
  * the surface pressure p(eps h0) = p_nonhydro (the hydrostatic part
    cancels against -z at the surface).

The convergence study builds one ansatz, with its rate, from one
shallow-water state and moves it to each aspect ratio with `at(eps)`,
which rebuilds only the coefficients that eps enters. It fits log-log
slopes above a roundoff floor, and keeps a per-term breakdown of the
interior momentum residual so any order below the claimed one can be
traced to the term responsible. It writes its rows as tuples in
RECORD_HEADER and TERM_HEADER order, gathers them once into a table of
sup series keyed by (kind or term, component), and reads every slope
from that table.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ansatz import AnsatzFields, ZPoly, build_ansatz
from .grids import HField
from .norms import norm
from .shallow_water import Params, SWState, stable_dt, sw_steps
from .thinfields import Strip, ThinField

# Norms below this are roundoff, not signal; slope fits ignore them.
RESIDUAL_FLOOR = 1e-13

CLAIMED_ORDER = 3.0

INTERIOR_TERMS = ("time", "advection", "pressure", "viscous")

# Column order of the study's rows: one record per (eps, kind, component),
# one term record per (eps, interior term, component).
RECORD_HEADER = ("eps", "kind", "component", "norm_sup", "norm_l2")
TERM_HEADER = ("eps", "term", "component", "norm_sup")


def _component_names(n: int) -> list[str]:
    return [f"H{i + 1}" for i in range(n)] + ["V"]


def _interior_terms(a: AnsatzFields, i: int) -> tuple[ZPoly, ...]:
    """Component i (H1..Hn, then V) of the interior momentum residual, its
    terms as ZPolys in INTERIOR_TERMS order.

    The pressure term divides out eps analytically: grad p / (eps F^2) has
    horizontal part (grad h0 + grad(p_nonhydro / eps)) / F^2 and, with the
    hydrostatic pair combined, no vertical part at all.
    """
    p = a.params
    n = a.grid.n
    vel = a.velocity_polys

    advection = vel[0] * vel[i].dx(0)
    for j in range(1, n):
        advection = advection + vel[j] * vel[i].dx(j)
    advection = advection + vel[n] * vel[i].dz()

    if i < n:
        pnh_over_eps = (1.0 / p.eps) * a.p_nonhydro
        pressure = ZPoly.stack([(a.base.h0.dx(i) + pnh_over_eps.dx(i)) * (1.0 / p.F**2)])
    else:  # the hydrostatic pair cancels identically
        pressure = ZPoly.stack([HField.constant(a.grid, 0.0)])

    S = a.deformation[i]
    viscous = S[0].dx(0)
    for j in range(1, n):
        viscous = viscous + S[j].dx(j)
    viscous = (-1.0 / p.Re) * (viscous + S[n].dz())

    return a.rate.velocity_polys[i], advection, pressure, viscous


def _interior_component(a: AnsatzFields, strip: Strip, i: int) -> tuple[list[float], ThinField]:
    """The sup norm of each interior term of component i in INTERIOR_TERMS
    order, and the nodal sum of those terms in that order, a scalar
    ThinField. The terms are built before any is sampled, so the products
    of their coefficients run while no sample is held; each term is then
    sampled, measured and added into the running sum, so one term's
    samples and the sum are the most that is held."""
    terms = _interior_terms(a, i)
    sups, total = [], np.zeros(strip.z.shape)
    for poly in terms:
        term = poly.to_thinfield(strip)
        sups.append(norm(term, "Linf"))
        total += term.values
    return sups, ThinField(strip, total)


def interior_residual(a: AnsatzFields, strip: Strip) -> ThinField:
    """Momentum residual on the strip, components (H1..Hn, V)."""
    sums = [_interior_component(a, strip, i)[1].values for i in range(a.grid.n + 1)]
    return ThinField(strip, np.stack(sums))


def divergence_residual(a: AnsatzFields, strip: Strip) -> ThinField:
    """div_x u_H + dz u_V on the strip (identically zero by design)."""
    *horizontal, vertical = a.velocity_polys
    divpoly = horizontal[0].dx(0)
    for i in range(1, a.grid.n):
        divpoly = divpoly + horizontal[i].dx(i)
    divpoly = divpoly + vertical.dz()
    return divpoly.to_thinfield(strip)


def kinematic_residual(a: AnsatzFields) -> HField:
    """eps dth0 + u_H(x, eps h0) . eps grad h0 - u_V(x, eps h0)."""
    eps = a.eps
    h0 = a.base.h0
    eta = eps * h0
    *horizontal, vertical = a.velocity_polys
    res = eps * a.rate.h0
    for i, poly in enumerate(horizontal):
        res = res + poly.at_height(eta) * (eps * h0.dx(i))
    return res - vertical.at_height(eta)


def _surface_stress(a: AnsatzFields) -> list[list[HField]]:
    """D(u_a) at z = eps h0: each distinct entry evaluated once, then mirrored."""
    S = a.deformation
    m = len(S)
    eta = a.eps * a.base.h0
    out = [[None] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            out[i][j] = out[j][i] = S[i][j].at_height(eta)
    return out


def _surface_pressure(a: AnsatzFields) -> HField:
    """p_nonhydro / (eps F^2), the surface pressure, with the eps cancelled
    analytically."""
    p = a.params
    return (-2.0 / p.Re) * (1.0 + p.eps**2 * p.gamma_bar) * (-a.w1)


def traction_residual(a: AnsatzFields) -> HField:
    """(D(u_a)/Re - p_a/(eps F^2) Id)|_{z=eps h0} (-eps grad h0, 1).

    The normal is left unnormalized; the missing factor 1/sqrt(1+|...|^2)
    is positive and 1 + O(eps^2), so fitted orders are unaffected. The
    surface pressure is p_nonhydro exactly, and p_nonhydro/(eps F^2) is
    assembled without the eps division.
    """
    p = a.params
    n = a.grid.n
    h0 = a.base.h0
    Ssurf = _surface_stress(a)
    p_over = _surface_pressure(a)
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


def bottom_residual(a: AnsatzFields) -> tuple[HField, HField]:
    """(u_V at z=0, dz u_H - eps gamma_bar u_H at z=0) = (0, u1 - eps gamma_bar u0).

    Both vanish by construction; this is the exactness claim for the bottom
    conditions, asserted symbolically rather than by quadrature.
    """
    slip = a.u1 - (a.eps * a.params.gamma_bar) * a.u0
    return HField.constant(a.grid, 0.0), slip


def solved_form_residual(a: AnsatzFields) -> tuple[HField, HField]:
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
    p = a.params
    n = a.grid.n
    # D(u_a) at the surface: D_x(u_H) is the horizontal block,
    # S[i][n] = dz u_H + grad u_V and S[n][n] = 2 dz u_V
    S = _surface_stress(a)
    g_vec = [p.eps * a.base.h0.dx(j) for j in range(n)]

    gDg = g2 = HField.constant(a.grid, 0.0)
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
    r_p = p.Re * (one_minus * _surface_pressure(a)) - bracket
    rows = [one_minus * S[i][n] - one_minus * Dg[i] + bracket * g_vec[i] for i in range(n)]
    return r_p, HField.stack(rows)


# -- convergence study --------------------------------------------------------


def fit_power_law(eps_list, values):
    """Least-squares slope and R^2 of log(values) vs log(eps) above
    RESIDUAL_FLOOR.

    Returns (slope, r2, flag); flag is "degenerate fit" when fewer than
    three points survive the floor, in which case slope and r2 are None.
    """
    pts = [(e, v) for e, v in zip(eps_list, values) if v > RESIDUAL_FLOOR]
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

    records rows: RECORD_HEADER tuples. term_records rows: TERM_HEADER
    tuples, interior only. discrepancies: kinds whose fitted slope falls
    below the claimed order, with the per-component slopes and the
    dominant interior term attached.
    """

    eps_list: list[float]
    records: list[tuple]
    kind_sup: dict[str, list[float]]
    slopes: dict[str, float | None]
    r2: dict[str, float | None]
    flags: list[str]
    component_slopes: dict[str, dict[str, float | None]]
    term_records: list[tuple]
    discrepancies: list[dict]

    def summary(self) -> dict:
        """The study_summary.json document."""
        return {
            "eps_list": list(self.eps_list),
            "slopes": self.slopes,
            "r2": self.r2,
            "flags": list(self.flags),
            "component_slopes": self.component_slopes,
            "discrepancy_count": len(self.discrepancies),
        }


def _residual_records(a: AnsatzFields, nz: int):
    """All residual norms of the ansatz a at its eps; returns (records,
    term_records), rows in RECORD_HEADER and TERM_HEADER order. Each
    residual is reduced to its norms as soon as it is built."""
    eps = a.eps
    comp_names = _component_names(a.grid.n)
    # D(u_a) is built before the strip holds its full-size heights and weights
    a.deformation
    strip = Strip(a.grid, eps, nz, a.base.h0)

    records = []

    def measure(kind, names, f):
        for comp, c in zip(names, f.components()):
            records.append((eps, kind, comp, norm(c, "Linf"), norm(c, "L2")))

    term_sups = []
    for i, comp in enumerate(comp_names):
        sups, total = _interior_component(a, strip, i)
        term_sups.append(sups)
        measure("interior_momentum", [comp], total)
        del total  # not held while the next component is sampled
    term_records = [
        (eps, name, comp, sups[k])
        for k, name in enumerate(INTERIOR_TERMS)
        for comp, sups in zip(comp_names, term_sups)
    ]
    measure("divergence", ["scalar"], divergence_residual(a, strip))
    measure("kinematic", ["scalar"], kinematic_residual(a))
    measure("traction", comp_names, traction_residual(a))
    bot_v, bot_slip = bottom_residual(a)
    measure("bottom", ["V"], bot_v)
    measure("bottom", comp_names, bot_slip)
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
    once to t_eval, and one ansatz of that state is moved to every eps.
    t_eval should avoid states where residuals vanish identically (at a
    resting initial wave, every coefficient except the hydrostatic
    pressure is zero at t=0). The evolution takes the fewest steps of at
    most 0.4 stable_dt(init, base), by the rule of sw_steps, which raises
    StabilityError when that bound allows no finite step count.
    """
    eps_list = [float(e) for e in eps_list]
    if len(eps_list) < 4:
        raise ValueError("need at least 4 aspect ratios")
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("eps_list must be strictly decreasing")

    if t_eval > 0.0:
        for s, _ in sw_steps(init, base, t_eval, 0.4 * stable_dt(init, base)):
            pass
    else:
        s = init

    a = build_ansatz(s, base)
    results = [_residual_records(a.at(e), nz) for e in eps_list]
    records = [row for recs, _ in results for row in recs]
    term_records = [row for _, trecs in results for row in trecs]

    # the sup series over eps of every (kind, component) and (term,
    # component), keys in the order the rows were recorded
    sup: dict[tuple[str, str], list[float]] = {}
    for row in records + term_records:
        sup.setdefault(row[1:3], []).append(row[3])

    kind_sup, slopes, r2s, flags, component_slopes = {}, {}, {}, [], {}
    for kind in ("interior_momentum", "divergence", "kinematic", "traction", "bottom"):
        comps = [c for k, c in sup if k == kind]
        kind_sup[kind] = [max(v) for v in zip(*(sup[kind, c] for c in comps))]
        slopes[kind], r2s[kind], flag = fit_power_law(eps_list, kind_sup[kind])
        if flag:
            flags.append(f"{kind}: {flag}")
        component_slopes[kind] = {
            c: fit_power_law(eps_list, sup[kind, c])[0] for c in sorted(comps)
        }

    discrepancies = []
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
            # the largest term at the finest eps inside the slope-carrying
            # component; terms in other components may be bigger but cancel
            # among themselves
            dom = max(INTERIOR_TERMS, key=lambda term: sup[term, worst][-1])
            entry["dominant_term"] = {
                "term": dom,
                "component": worst,
                "norm_sup_at_finest": sup[dom, worst][-1],
                "slope": fit_power_law(eps_list, sup[dom, worst])[0],
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
        discrepancies=discrepancies,
    )
