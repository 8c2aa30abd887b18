"""Residual assembly oracles and the aspect-ratio convergence study."""
import numpy as np
import pytest

from thinlayer.ansatz import AnsatzFields, ansatz_rate, build_ansatz
from thinlayer.grids import Grid, HField
from thinlayer.norms import NormKind, norm
from thinlayer.residuals import (
    _residual_records,
    bottom_residual,
    convergence_study,
    divergence_residual,
    fit_power_law,
    interior_residual,
    kinematic_residual,
    solved_form_residual,
    traction_residual,
)
from thinlayer.shallow_water import Params, SWState, stable_dt, sw_solve

P = Params(F=1.0, Re=2.0, gamma_bar=0.5, eps=0.1)


def _state(grid, h_fn, u_fns, t=0.0):
    h0 = HField.from_function(grid, h_fn)
    u0 = HField.stack([HField.from_function(grid, f) for f in u_fns])
    return SWState(t, h0, u0)


def _equilibrium(N=32):
    g = Grid(1, N)
    return _state(g, lambda x: 1.0 + 0.0 * x, [lambda x: 0.0 * x])


def _uniform(c=0.7, N=32):
    g = Grid(1, N)
    return _state(g, lambda x: 1.0 + 0.0 * x, [lambda x: c + 0.0 * x])


def _wavy(N=32):
    g = Grid(1, N)
    return _state(
        g,
        lambda x: 1.0 + 0.05 * np.cos(x),
        [lambda x: 0.02 * np.sin(x)],
    )


def _pair(s, p=P):
    return build_ansatz(s, p), ansatz_rate(s, p)


# -- interior momentum ----------------------------------------------------------


def test_interior_equilibrium_zero():
    a, r = _pair(_equilibrium())
    res = interior_residual(a, r, P, nz=12)
    assert np.abs(res.values).max() < 1e-12


def test_interior_uniform_flow_oracle():
    """Hand-computed residual (gamma_bar^2 c / Re)(z^2/2 - eps z), V = 0."""
    c = 0.7
    p = Params(F=1.3, Re=2.0, gamma_bar=0.5, eps=0.1)
    a, r = _pair(_uniform(c), p)
    res = interior_residual(a, r, p, nz=12)
    z = res.zeta.reshape(-1, 1) * p.eps
    want = (p.gamma_bar**2 * c / p.Re) * (z**2 / 2 - p.eps * z)
    assert np.abs(res.values[0] - want).max() < 1e-13
    assert np.abs(res.values[1]).max() < 1e-14


def test_interior_rejects_mismatched_pair():
    s1, s2 = _wavy(), _wavy()
    a1, _ = _pair(s1)
    _, r2 = _pair(s2)
    with pytest.raises(ValueError):
        interior_residual(a1, r2, P, nz=8)
    a, r = _pair(s1)
    with pytest.raises(ValueError):
        interior_residual(a, r, Params(F=1.0, Re=2.0, gamma_bar=0.5, eps=0.2), nz=8)


def _unguarded_interior(a, r, p, nz):
    """interior_residual with the hydrostatic pair re-inserted through sampled
    Chebyshev differentiation of the pressure: the roundoff the analytic
    cancellation avoids."""
    res = interior_residual(a, r, p, nz)
    psamp = a.pressure_poly().to_thinfield(p.eps, nz, a.base.h0)
    vals = res.values.copy()
    vals[a.grid.n] += (psamp.dz().values + 1.0) / (p.eps * p.F**2)
    return vals


def test_hydrostatic_guard():
    """The analytic cancellation beats sampled differentiation by >= 3 digits."""
    g = Grid(1, 32)
    p = Params(F=1.0, Re=1.0, gamma_bar=1.0, eps=1e-3)
    s = _state(g, lambda x: 1.0 + 0.0 * x, [lambda x: 0.0 * x])
    a, r = _pair(s, p)
    guarded = interior_residual(a, r, p, nz=24)
    unguarded = _unguarded_interior(a, r, p, nz=24)
    g_sup = np.abs(guarded.values[1]).max()
    u_sup = np.abs(unguarded[1]).max()
    assert g_sup <= 1e-11
    assert u_sup >= 1e-12  # roundoff amplified by 1/(eps^2 F^2)
    assert u_sup >= 1e3 * max(g_sup, 1e-16)
    # stays guarded slightly off equilibrium too
    s2 = _state(g, lambda x: 1.0 + 1e-9 * np.cos(x), [lambda x: 0.0 * x])
    a2, r2 = _pair(s2, p)
    assert np.abs(interior_residual(a2, r2, p, nz=24).values[1]).max() <= 1e-11


# -- divergence -----------------------------------------------------------------


def test_divergence_identically_zero():
    a, _ = _pair(_wavy())
    assert norm(divergence_residual(a, 12), NormKind.Linf()) < 1e-11


def test_divergence_detects_tampering():
    s = _wavy()
    a, _ = _pair(s)
    bad = AnsatzFields(
        a.base, a.params, a.u0, a.u1, a.u2, a.w1, a.w2, a.w3 + 1.0, a.p_nonhydro
    )
    sup = norm(divergence_residual(bad, 12), NormKind.Linf())
    want = (P.eps * s.h0.values.max()) ** 2 / 2
    assert abs(sup - want) < 1e-10


# -- kinematic ------------------------------------------------------------------


def test_kinematic_zero_cases():
    for s in (_equilibrium(), _uniform()):
        a, r = _pair(s)
        assert norm(kinematic_residual(a, r, P), NormKind.Linf()) < 1e-14


def test_kinematic_small_at_bumpy_state():
    g = Grid(1, 32)
    s = _state(g, lambda x: 1.0 + 0.05 * np.cos(x), [lambda x: 0.01 * np.sin(x)])
    a, r = _pair(s)
    assert norm(kinematic_residual(a, r, P), NormKind.Linf()) < 10 * P.eps**2


# -- traction -------------------------------------------------------------------


def test_traction_zero_cases():
    for s in (_equilibrium(), _uniform()):
        a, _ = _pair(s)
        assert np.abs(traction_residual(a, P).values).max() < 1e-14


# -- bottom ---------------------------------------------------------------------


def test_bottom_residual_structure():
    a, _ = _pair(_wavy())
    rv, rslip = bottom_residual(a, P)
    assert np.abs(rv.values).max() == 0.0
    assert np.abs(rslip.values).max() == 0.0
    delta = 0.37
    bad = AnsatzFields(
        a.base, a.params, a.u0, a.u1 + delta, a.u2, a.w1, a.w2, a.w3, a.p_nonhydro
    )
    _, rslip2 = bottom_residual(bad, P)
    assert np.abs(rslip2.values - delta).max() < 1e-14


# -- solved-form cross-check ------------------------------------------------------


def test_solved_form_zero_cases():
    for s in (_equilibrium(), _uniform()):
        a, _ = _pair(s)
        rp, rt = solved_form_residual(a, P)
        assert np.abs(rp.values).max() < 1e-13
        assert np.abs(rt.values).max() < 1e-13


def test_solved_form_finite_on_wavy_state():
    a, _ = _pair(_wavy())
    rp, rt = solved_form_residual(a, P)
    assert np.isfinite(rp.values).all() and np.isfinite(rt.values).all()
    assert np.abs(rp.values).max() < 1.0


# -- invariance and refinement ------------------------------------------------------


def test_translation_equivariance():
    g = Grid(1, 32)
    s = _wavy()
    shift = 5
    h_sh = HField(g, np.roll(s.h0.values, shift))
    u_sh = HField(g, np.roll(s.u0.values, shift, axis=-1))
    s_sh = SWState(0.0, h_sh, u_sh)
    for state, out in ((s, {}), (s_sh, {})):
        a, r = _pair(state)
        out["interior"] = np.abs(interior_residual(a, r, P, 12).values).max()
        out["kinematic"] = norm(kinematic_residual(a, r, P), NormKind.Linf())
        out["traction"] = np.abs(traction_residual(a, P).values).max()
        if state is s:
            base = dict(out)
    for key, val in base.items():
        assert abs(val - out[key]) <= 1e-12 * max(1.0, abs(val))


def test_resolution_independence():
    sups = {}
    for N, nz in ((32, 12), (64, 24)):
        a, r = _pair(_wavy(N))
        sups[N] = {
            "interior": np.abs(interior_residual(a, r, P, nz).values).max(),
            "kinematic": norm(kinematic_residual(a, r, P), NormKind.Linf()),
            "traction": np.abs(traction_residual(a, P).values).max(),
        }
    for key in sups[32]:
        rel = abs(sups[32][key] - sups[64][key]) / sups[64][key]
        assert rel < 0.01, (key, rel)


# -- slope fitting -----------------------------------------------------------------


def test_fit_power_law_exact_cubic():
    eps = [0.1, 0.05, 0.025, 0.0125]
    slope, r2, flag = fit_power_law(eps, [e**3 for e in eps])
    assert flag is None
    assert abs(slope - 3.0) < 1e-10
    assert abs(r2 - 1.0) < 1e-12


def test_fit_power_law_floor():
    eps = [0.1, 0.05, 0.025, 0.0125]
    slope, r2, flag = fit_power_law(eps, [1e-20] * 4)
    assert flag == "degenerate fit" and slope is None and r2 is None
    slope, _, flag = fit_power_law(eps[:2], [e**2 for e in eps[:2]])
    assert flag == "degenerate fit"


# -- the study ----------------------------------------------------------------------


def test_study_validation():
    init = _equilibrium()
    base = Params(F=1.0, Re=1.0, gamma_bar=1.0, eps=0.1)
    with pytest.raises(ValueError):
        convergence_study(init, base, [0.0125, 0.025, 0.05, 0.1])
    with pytest.raises(ValueError):
        convergence_study(init, base, [0.1, 0.05, 0.025])


def test_study_equilibrium_family_degenerate():
    base = Params(F=1.0, Re=1.0, gamma_bar=1.0, eps=0.1)
    rep = convergence_study(_equilibrium(), base, [0.1, 0.05, 0.025, 0.0125], t_eval=0.0, nz=8)
    assert all(v is None for v in rep.slopes.values())
    assert len(rep.flags) == 5
    for rows in rep.kind_sup.values():
        assert max(rows) <= 1e-12


def test_study_single_mode_orders():
    """The central claim adjudication on the default family.

    Measured orders: kinematic 3 (matches the claimed order), interior 1
    (vertical component), traction 2 (vertical component). The two kinds
    below the claim produce discrepancy entries naming the slope-carrying
    component.
    """
    g = Grid(1, 32)
    init = _state(g, lambda x: 1.0 + 0.05 * np.cos(x), [lambda x: 0.0 * x])
    base = Params(F=1.0, Re=1.0, gamma_bar=1.0, eps=0.1)
    eps_list = [0.1, 0.05, 0.025, 0.0125]
    rep = convergence_study(init, base, eps_list, t_eval=0.25, nz=16)

    assert 2.5 <= rep.slopes["kinematic"] <= 3.5
    assert rep.r2["kinematic"] > 0.98
    assert rep.slopes["interior_momentum"] < 2.5
    assert rep.r2["interior_momentum"] > 0.98
    assert rep.slopes["traction"] < 2.5
    assert "divergence: degenerate fit" in rep.flags
    assert "bottom: degenerate fit" in rep.flags

    # component resolution: the deficit sits in the vertical components
    assert rep.component_slopes["interior_momentum"]["V"] < 1.5
    assert rep.component_slopes["interior_momentum"]["H1"] > 1.8
    assert rep.component_slopes["traction"]["H1"] > 2.7
    assert rep.component_slopes["traction"]["V"] < 2.5

    kinds = {d["kind"]: d for d in rep.discrepancies}
    assert set(kinds) == {"interior_momentum", "traction"}
    assert kinds["interior_momentum"]["worst_component"] == "V"
    assert kinds["interior_momentum"]["dominant_term"]["component"] == "V"
    assert kinds["traction"]["worst_component"] == "V"

    # sup ratio between adjacent eps agrees with the fitted slope within 5%
    sup = rep.kind_sup["interior_momentum"]
    ratio = sup[0] / sup[1]
    assert abs(ratio / 2 ** rep.slopes["interior_momentum"] - 1.0) < 0.05

    # records are CSV-shaped
    row = rep.records[0]
    assert set(row) == {"eps", "kind", "component", "norm_sup", "norm_l2"}
    assert rep.summary()["eps_list"] == eps_list


@pytest.mark.parametrize("n, N", [(1, 32), (2, 16)])
def test_study_interior_rows_are_interior_residual_norms(n, N):
    # one interior assembly: the study reports the norms of interior_residual
    # exactly, not of a differently rounded sum
    g = Grid(n, N)
    if n == 1:
        init = _state(g, lambda x: 1.0 + 0.05 * np.cos(x), [lambda x: 0.05 * np.sin(x)])
    else:
        init = _state(
            g,
            lambda x, y: 1.0 + 0.05 * np.cos(x) + 0.03 * np.sin(y),
            [lambda x, y: 0.05 * np.sin(x + y), lambda x, y: 0.02 * np.cos(x) + 0.0 * y],
        )
    base = Params(F=1.0, Re=1.0, gamma_bar=1.0, eps=0.1)
    nsteps = int(np.ceil(0.25 / (0.4 * stable_dt(init, base))))
    s = sw_solve(init, base, T=0.25, dt=0.25 / nsteps)[-1]
    for eps in (0.1, 0.0125):
        p = Params(F=1.0, Re=1.0, gamma_bar=1.0, eps=eps)
        res = interior_residual(build_ansatz(s, p), ansatz_rate(s, p), p, nz=24)
        records, _ = _residual_records(s, p, nz=24)
        rows = [r for r in records if r["kind"] == "interior_momentum"]
        assert len(rows) == n + 1
        for i, row in enumerate(rows):
            assert row["norm_sup"] == norm(res.component(i), NormKind.Linf())
            assert row["norm_l2"] == norm(res.component(i), NormKind.L2())


def test_residuals_two_dimensional():
    g = Grid(2, 16)
    s = _state(
        g,
        lambda x, y: 1.0 + 0.05 * np.cos(x) + 0.03 * np.sin(y),
        [lambda x, y: 0.02 * np.sin(x + y), lambda x, y: 0.01 * np.cos(x) + 0.0 * y],
    )
    a, r = _pair(s)
    res = interior_residual(a, r, P, nz=8)
    assert res.values.shape == (3, 8, 16, 16)
    assert np.isfinite(res.values).all()
    assert norm(divergence_residual(a, 8), NormKind.Linf()) < 1e-11
    rv, rslip = bottom_residual(a, P)
    assert np.abs(rv.values).max() == 0.0 and np.abs(rslip.values).max() < 1e-14
    trac = traction_residual(a, P)
    assert trac.values.shape == (3, 16, 16)
    assert np.isfinite(trac.values).all()
