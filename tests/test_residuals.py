"""Residual assembly oracles and the aspect-ratio convergence study."""
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import bit_equal, per_axis_dx, stacked_state
from thinlayer import ansatz, residuals, shallow_water
from thinlayer.ansatz import AnsatzFields, ansatz_rate, build_ansatz
from thinlayer.grids import Grid, HField
from thinlayer.norms import norm
from thinlayer.residuals import (
    RECORD_HEADER,
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
from thinlayer.shallow_water import Params, initial_wave, stable_dt, sw_steps
from thinlayer.thinfields import Strip

P = Params(F=1.0, Re=2.0, gamma_bar=0.5, eps=0.1)

DEFAULT_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "default.json"


def _strip(a, nz):
    """The strip under the ansatz a, with nz levels."""
    return Strip(a.grid, a.eps, nz, a.base.h0)


def _state(grid, h_fn, u_fns, t=0.0):
    h0 = HField.from_function(grid, h_fn)
    u0 = HField.stack([HField.from_function(grid, f) for f in u_fns])
    return stacked_state(t, h0, u0)


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


# -- interior momentum ----------------------------------------------------------


def test_interior_equilibrium_zero():
    a = build_ansatz(_equilibrium(), P)
    res = interior_residual(a, _strip(a, 12))
    assert np.abs(res.values).max() < 1e-12


def test_interior_uniform_flow_oracle():
    """Hand-computed residual (gamma_bar^2 c / Re)(z^2/2 - eps z), V = 0."""
    c = 0.7
    p = Params(F=1.3, Re=2.0, gamma_bar=0.5, eps=0.1)
    a = build_ansatz(_uniform(c), p)
    res = interior_residual(a, _strip(a, 12))
    z = res.strip.z
    want = (p.gamma_bar**2 * c / p.Re) * (z**2 / 2 - p.eps * z)
    assert np.abs(res.values[0] - want).max() < 1e-13
    assert np.abs(res.values[1]).max() < 1e-14


def test_rate_is_computed_once_per_ansatz(monkeypatch):
    calls = []

    def counted(s, p):
        calls.append(p.eps)
        return ansatz_rate(s, p)

    monkeypatch.setattr(ansatz, "ansatz_rate", counted)
    eps_list = [0.1, 0.05, 0.025, 0.0125]
    convergence_study(_wavy(), P, eps_list, t_eval=0.0, nz=8)
    # one rate per study, built at the base eps and moved to each eps by `at`
    assert calls == [P.eps]


def test_study_evaluates_the_shallow_water_tendency_once(monkeypatch):
    # the tendency does not depend on eps, so a 4-eps study at t_eval = 0
    # needs it once, for the one rate of its one ansatz
    calls = []

    def counted(s, p):
        calls.append(p.eps)
        return shallow_water.sw_rhs(s, p)

    monkeypatch.setattr(ansatz, "sw_rhs", counted)
    convergence_study(_wavy(), P, [0.1, 0.05, 0.025, 0.0125], t_eval=0.0, nz=8)
    assert calls == [P.eps]


def test_residual_records_build_u_a_once_per_ansatz_and_rate(monkeypatch):
    # the u_V polynomial of an ansatz or of its rate has that object's w1 as
    # its second coefficient, so these constructions count the u_a builds
    second = []
    stack = ansatz.ZPoly.stack

    def counted(coeffs):
        coeffs = list(coeffs)
        second.append(coeffs[1] if len(coeffs) > 1 else None)
        return stack(coeffs)

    s = _state(
        Grid(2, 16),
        lambda x, y: 1.0 + 0.05 * np.cos(x) + 0.03 * np.sin(y),
        [lambda x, y: 0.02 * np.sin(x + y), lambda x, y: 0.01 * np.cos(x) + 0.0 * y],
    )
    a = build_ansatz(s, P)
    monkeypatch.setattr(ansatz.ZPoly, "stack", staticmethod(counted))
    _residual_records(a, nz=8)
    assert sum(c is a.w1 for c in second) == 1
    assert sum(c is a.rate.w1 for c in second) == 1
    # D(u_a) was built by the study and is symmetric by identity
    S = vars(a)["deformation"]
    assert len(S) == 3
    assert all(S[i][j] is S[j][i] for i in range(3) for j in range(3))


def _default_state(n, N):
    """Params at the first study eps and the state of configs/default.json
    on Grid(n, N), evolved to study.t_eval as the study does; and the study
    section."""
    cfg = json.loads(DEFAULT_CONFIG.read_text())
    par, init, study = cfg["params"], cfg["sw"]["init"], cfg["study"]
    p = Params(F=par["F"], Re=par["Re"], gamma_bar=par["gamma_bar"], eps=study["eps_list"][0])
    s0 = initial_wave(
        Grid(n, N, cfg["domain"]["L"]),
        init["amplitude"], init["wavenumber"], init["velocity_amplitude"],
    )
    for s, _ in sw_steps(s0, p, study["t_eval"], 0.4 * stable_dt(s0, p)):
        pass
    return s, p, study


@pytest.mark.parametrize("n,N,most", [(1, 64, 71), (2, 32, 137)])
def test_build_ansatz_transform_count(transforms, n, N, most):
    """build_ansatz of the default state at study.t_eval takes at most 71
    transforms in 1D N = 64 and 137 in 2D N = 32: every gradient,
    divergence and D(u) is one inverse transform of its stack. A transform
    per component and axis took 75 and 173."""
    s, p, _ = _default_state(n, N)
    before = len(transforms)
    build_ansatz(s, p)
    assert len(transforms) - before <= most


def test_one_study_eps_transform_count(transforms):
    """One eps of the convergence study of configs/default.json in 2D at
    N = 32, on its state at study.t_eval, takes at most 194 transforms: a
    ZPoly transforms its stacked coefficients in one call, and the surface
    residuals read one grad(h0). One call per coefficient took 288, and
    one h0.dx per axis in each surface residual 200."""
    s, p, study = _default_state(2, 32)
    a = build_ansatz(s, p)
    before = len(transforms)
    _residual_records(a.at(p.eps), study["nz"])
    assert len(transforms) - before <= 194


def _wavy_state(n, N):
    """A state on Grid(n, N) whose 2D fields vary in x2, with both velocity
    components nonzero."""
    g = Grid(n, N)
    if n == 1:
        return _state(g, lambda x: 1.0 + 0.1 * np.cos(x) + 0.02 * np.sin(3 * x),
                      [lambda x: 0.2 * np.sin(x) - 0.05 * np.cos(2 * x)])
    return _state(
        g,
        lambda x1, x2: 1.0 + 0.1 * np.cos(x1) + 0.05 * np.sin(x2),
        [lambda x1, x2: 0.1 * np.sin(x1 + x2),
         lambda x1, x2: 0.08 * np.cos(x2) + 0.03 * np.sin(x1)],
    )


def _per_axis_kinematic(a):
    eps, h0 = a.eps, a.base.h0
    eta = eps * h0
    *horizontal, vertical = a.velocity_polys
    res = eps * a.rate.h0
    for i, poly in enumerate(horizontal):
        res = res + poly.at_height(eta) * (eps * per_axis_dx(h0, i))
    return res - vertical.at_height(eta)


def _per_axis_traction(a):
    p, n, h0 = a.params, a.grid.n, a.base.h0
    Ssurf = residuals._surface_stress(a)
    p_over = residuals._surface_pressure(a)
    normal_H = [(-p.eps) * per_axis_dx(h0, j) for j in range(n)]
    rows = []
    for i in range(n + 1):
        acc = Ssurf[i][n] * (1.0 / p.Re)
        if i == n:
            acc = acc - p_over
        for j in range(n):
            Tij = Ssurf[i][j] * (1.0 / p.Re)
            if i == j:
                Tij = Tij - p_over
            acc = acc + Tij * normal_H[j]
        rows.append(acc)
    return HField.stack(rows)


def _per_axis_solved_form(a):
    p, n = a.params, a.grid.n
    S = residuals._surface_stress(a)
    g_vec = [p.eps * per_axis_dx(a.base.h0, j) for j in range(n)]
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
    r_p = p.Re * (one_minus * residuals._surface_pressure(a)) - bracket
    rows = [one_minus * S[i][n] - one_minus * Dg[i] + bracket * g_vec[i] for i in range(n)]
    return r_p, HField.stack(rows)


@pytest.mark.parametrize("n,N", [(1, 64), (2, 32)])
def test_surface_residuals_match_per_axis_slope_bit_for_bit(n, N):
    """The kinematic, traction and solved-form residuals, each reading one
    grad(h0), equal the forms that take h0.dx one axis at a time."""
    a = build_ansatz(_wavy_state(n, N), P)
    got = [kinematic_residual(a), traction_residual(a), *solved_form_residual(a)]
    want = [_per_axis_kinematic(a), _per_axis_traction(a), *_per_axis_solved_form(a)]
    for g, w in zip(got, want):
        assert bit_equal(g.values, w.values)


def test_residual_records_stream_the_interior_into_its_norms():
    """tracemalloc peak of building the ansatz of a 2D N = 32 state and
    running its _residual_records with nz = 24 stays within 2.5 MB of its
    start.

    What remains (about 1.8 MB) is held while the vertical component's
    terms are built: the ansatz with D(u_a), its rate and the spectra they
    cache (about 0.58 MB), the strip's heights and weights (2 x 192 KiB),
    and the padded transforms of the ZPoly products of the vertical
    advection with the terms built so far (about 0.84 MB). The rate's
    sw_rhs work area (about 1.06 MB) comes and goes inside build_ansatz,
    before the ansatz's own quotient is built. A pass that held the four
    sampled terms and their sum at once, each (n+1, nz) + grid.shape, read
    about 4.6 MB.
    """
    s = _state(
        Grid(2, 32),
        lambda x, y: 1.0 + 0.05 * np.cos(x) + 0.03 * np.sin(y),
        [lambda x, y: 0.05 * np.sin(x + y), lambda x, y: 0.02 * np.cos(x) + 0.0 * y],
    )
    _residual_records(build_ansatz(s, P), nz=24)  # cached grid symbols, first-call imports
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        _residual_records(build_ansatz(s, P), nz=24)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start <= 2.5 * 2**20


def _unguarded_interior(a, nz):
    """interior_residual with the hydrostatic pair re-inserted through sampled
    Chebyshev differentiation of the pressure: the roundoff the analytic
    cancellation avoids."""
    p = a.params
    res = interior_residual(a, _strip(a, nz))
    psamp = a.pressure_poly().to_thinfield(res.strip)
    vals = res.values.copy()
    vals[a.grid.n] += (res.strip.dz(psamp.values) + 1.0) / (p.eps * p.F**2)
    return vals


def test_hydrostatic_guard():
    """The analytic cancellation beats sampled differentiation by >= 3 digits."""
    g = Grid(1, 32)
    p = Params(F=1.0, Re=1.0, gamma_bar=1.0, eps=1e-3)
    s = _state(g, lambda x: 1.0 + 0.0 * x, [lambda x: 0.0 * x])
    a = build_ansatz(s, p)
    guarded = interior_residual(a, _strip(a, 24))
    unguarded = _unguarded_interior(a, nz=24)
    g_sup = np.abs(guarded.values[1]).max()
    u_sup = np.abs(unguarded[1]).max()
    assert g_sup <= 1e-11
    assert u_sup >= 1e-12  # roundoff amplified by 1/(eps^2 F^2)
    assert u_sup >= 1e3 * max(g_sup, 1e-16)
    # stays guarded slightly off equilibrium too
    s2 = _state(g, lambda x: 1.0 + 1e-9 * np.cos(x), [lambda x: 0.0 * x])
    a2 = build_ansatz(s2, p)
    assert np.abs(interior_residual(a2, _strip(a2, 24)).values[1]).max() <= 1e-11


# -- divergence -----------------------------------------------------------------


def test_divergence_identically_zero():
    a = build_ansatz(_wavy(), P)
    assert norm(divergence_residual(a, _strip(a, 12)), "Linf") < 1e-11


def test_divergence_detects_tampering():
    s = _wavy()
    a = build_ansatz(s, P)
    bad = AnsatzFields(
        a.base, a.params, a.u0, a.u1, a.u2, a.w1, a.w2, a.w3 + 1.0, a.p_nonhydro, a.rate
    )
    sup = norm(divergence_residual(bad, _strip(bad, 12)), "Linf")
    want = (P.eps * s.h0.values.max()) ** 2 / 2
    assert abs(sup - want) < 1e-10


# -- kinematic ------------------------------------------------------------------


def test_kinematic_zero_cases():
    for s in (_equilibrium(), _uniform()):
        a = build_ansatz(s, P)
        assert norm(kinematic_residual(a), "Linf") < 1e-14


def test_kinematic_small_at_bumpy_state():
    g = Grid(1, 32)
    s = _state(g, lambda x: 1.0 + 0.05 * np.cos(x), [lambda x: 0.01 * np.sin(x)])
    a = build_ansatz(s, P)
    assert norm(kinematic_residual(a), "Linf") < 10 * P.eps**2


# -- traction -------------------------------------------------------------------


def test_traction_zero_cases():
    for s in (_equilibrium(), _uniform()):
        a = build_ansatz(s, P)
        assert np.abs(traction_residual(a).values).max() < 1e-14


# -- bottom ---------------------------------------------------------------------


def test_bottom_residual_structure():
    a = build_ansatz(_wavy(), P)
    rv, rslip = bottom_residual(a)
    assert np.abs(rv.values).max() == 0.0
    assert np.abs(rslip.values).max() == 0.0
    delta = 0.37
    bad = AnsatzFields(
        a.base, a.params, a.u0, a.u1 + delta, a.u2, a.w1, a.w2, a.w3, a.p_nonhydro, a.rate
    )
    _, rslip2 = bottom_residual(bad)
    assert np.abs(rslip2.values - delta).max() < 1e-14


# -- solved-form cross-check ------------------------------------------------------


def test_solved_form_zero_cases():
    for s in (_equilibrium(), _uniform()):
        a = build_ansatz(s, P)
        rp, rt = solved_form_residual(a)
        assert np.abs(rp.values).max() < 1e-13
        assert np.abs(rt.values).max() < 1e-13


def test_solved_form_finite_on_wavy_state():
    a = build_ansatz(_wavy(), P)
    rp, rt = solved_form_residual(a)
    assert np.isfinite(rp.values).all() and np.isfinite(rt.values).all()
    assert np.abs(rp.values).max() < 1.0


# -- invariance and refinement ------------------------------------------------------


def test_translation_equivariance():
    g = Grid(1, 32)
    s = _wavy()
    shift = 5
    h_sh = HField(g, np.roll(s.h0.values, shift))
    u_sh = HField(g, np.roll(s.u0.values, shift, axis=-1))
    s_sh = stacked_state(0.0, h_sh, u_sh)
    for state, out in ((s, {}), (s_sh, {})):
        a = build_ansatz(state, P)
        out["interior"] = np.abs(interior_residual(a, _strip(a, 12)).values).max()
        out["kinematic"] = norm(kinematic_residual(a), "Linf")
        out["traction"] = np.abs(traction_residual(a).values).max()
        if state is s:
            base = dict(out)
    for key, val in base.items():
        assert abs(val - out[key]) <= 1e-12 * max(1.0, abs(val))


def test_resolution_independence():
    sups = {}
    for N, nz in ((32, 12), (64, 24)):
        a = build_ansatz(_wavy(N), P)
        sups[N] = {
            "interior": np.abs(interior_residual(a, _strip(a, nz)).values).max(),
            "kinematic": norm(kinematic_residual(a), "Linf"),
            "traction": np.abs(traction_residual(a).values).max(),
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
    assert len(row) == len(RECORD_HEADER)
    named = dict(zip(RECORD_HEADER, row))
    assert named["eps"] == eps_list[0] and named["kind"] == "interior_momentum"
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
    for s, _ in sw_steps(init, base, T=0.25, dt=0.4 * stable_dt(init, base)):
        pass
    for eps in (0.1, 0.0125):
        p = Params(F=1.0, Re=1.0, gamma_bar=1.0, eps=eps)
        a = build_ansatz(s, p)
        res = interior_residual(a, _strip(a, 24))
        records, _ = _residual_records(build_ansatz(s, p), nz=24)
        rows = [r for r in records if r[1] == "interior_momentum"]
        assert len(rows) == n + 1
        for (_, _, _, sup, l2), c in zip(rows, res.components(), strict=True):
            assert sup == norm(c, "Linf")
            assert l2 == norm(c, "L2")


def test_residuals_two_dimensional():
    g = Grid(2, 16)
    s = _state(
        g,
        lambda x, y: 1.0 + 0.05 * np.cos(x) + 0.03 * np.sin(y),
        [lambda x, y: 0.02 * np.sin(x + y), lambda x, y: 0.01 * np.cos(x) + 0.0 * y],
    )
    a = build_ansatz(s, P)
    res = interior_residual(a, _strip(a, 8))
    assert res.values.shape == (3, 8, 16, 16)
    assert np.isfinite(res.values).all()
    assert norm(divergence_residual(a, _strip(a, 8)), "Linf") < 1e-11
    rv, rslip = bottom_residual(a)
    assert np.abs(rv.values).max() == 0.0 and np.abs(rslip.values).max() < 1e-14
    trac = traction_residual(a)
    assert trac.values.shape == (3, 16, 16)
    assert np.isfinite(trac.values).all()
