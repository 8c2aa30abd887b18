"""Flow-map integration, closed-form identities, and the tensor algebra."""
import numpy as np
import pytest

from thinlayer.ansatz import build_ansatz
from thinlayer.chebyshev import gl_nodes
from thinlayer.grids import Grid, HField, div
from thinlayer.lagrangian import (
    Chart,
    DegenerateChartError,
    JacobianField,
    bottom_slip_residual,
    chain_rule_check,
    chart_check,
    chart_identities,
    chart_records,
    integrate_chart,
    jacobian,
    transformed_deformation,
    _flow_sampler,
)
from thinlayer.shallow_water import (
    Params,
    SWState,
    SWTrajectory,
    initial_wave,
    sw_solve,
)
from tests.conftest import loglog_slope

EPS = 0.1


def _flat_traj(g, velocity=0.0, p=None, T=0.2, dt=0.05):
    p = p or Params(F=1.0, Re=10.0, gamma_bar=1.0, eps=EPS)
    init = initial_wave(g, amplitude=0.0, wavenumber=1, velocity_amplitude=0.0)
    if velocity:
        init = SWState(0.0, init.h0, init.u0 + velocity)
    return sw_solve(init, p, T=T, dt=dt), p


def _hand_chart(g, disp, zfactor, nlev=5):
    return Chart(
        grid=g,
        eps=EPS,
        z_levels=EPS * gl_nodes(nlev),
        times=np.array([0.0]),
        xdisp=np.asarray(disp)[None],
        zfactor=np.asarray(zfactor)[None],
    )


F_TEST = lambda x, z: np.cos(x[0]) * z**2
GF_TEST = lambda x, z: np.stack(
    [-np.sin(x[0]) * z**2, 2.0 * z * np.cos(x[0]) + 0.0 * x[0]]
)


# -- integration ------------------------------------------------------------------


@pytest.mark.parametrize("n,N", [(1, 32), (2, 16)])
def test_stacked_sampler_matches_field_evaluation(n, N):
    # (u0, div u0) from stacked coefficients in one kernel call, against two
    # eval_at calls on u0 and on the div() field
    g = Grid(n, N)
    rng = np.random.default_rng(3 * n + N)
    u0 = HField(g, rng.standard_normal((n,) + g.shape))
    state = SWState(0.0, HField(g, 1.0 + 0.3 * rng.random(g.shape)), u0)
    shape = (5, 7)
    pos = rng.uniform(-10.0, 20.0, (n,) + shape)
    u, d = _flow_sampler(state, shape)(pos)
    pts = pos.reshape(n, -1).T
    want_u = u0.eval_at(pts).reshape((n,) + shape)
    want_d = div(u0).eval_at(pts).reshape(shape)
    assert np.abs(u - want_u).max() <= 1e-13 * np.abs(want_u).max()
    assert np.abs(d - want_d).max() <= 1e-13 * np.abs(want_d).max()


def test_rest_chart_is_identity():
    g = Grid(1, 16)
    traj, _ = _flat_traj(g)
    c = integrate_chart(traj, eps=EPS, nlev=4)
    assert np.abs(c.xdisp).max() == 0.0
    assert np.abs(c.zfactor - 1.0).max() == 0.0
    ids = chart_identities(c, traj)
    assert ids["height"] <= 1e-15 and ids["volume"] <= 1e-14
    for t in c.times:
        J = jacobian(c, t)
        assert np.abs(J.matrices - np.eye(2)).max() <= 1e-14
        assert np.all(J.dets > 0.0)


def test_uniform_flow_drift_closed_form():
    """dX/dt = c e^{-gamma t/Re} integrates to c (Re/gamma)(1 - e^{-gamma t/Re})."""
    g = Grid(1, 32)
    c0, Re, gam = 0.3, 2.0, 0.7
    p = Params(F=1.0, Re=Re, gamma_bar=gam, eps=EPS)
    traj, _ = _flat_traj(g, velocity=c0, p=p, T=1.0, dt=1e-3)
    ch = integrate_chart(traj, eps=EPS, nlev=4)
    want = c0 * (Re / gam) * (1.0 - np.exp(-gam * 1.0 / Re))
    assert np.abs(ch.xdisp[-1] - want).max() / want < 1e-8
    assert np.abs(ch.zfactor[-1] - 1.0).max() == 0.0
    # uniform translation: jacobian stays the identity
    assert np.abs(jacobian(ch, 1.0).matrices - np.eye(2)).max() < 1e-12
    ids = chart_identities(ch, traj)
    assert max(ids.values()) < 1e-12


def test_identity_residuals_fourth_order():
    g = Grid(1, 32)
    p = Params(F=1.0, Re=10.0, gamma_bar=1.0, eps=EPS)
    init = initial_wave(g, amplitude=0.0, wavenumber=1, velocity_amplitude=0.2)
    dts = [0.04, 0.02, 0.01, 0.005]
    heights, volumes = [], []
    for dt in dts:
        traj = sw_solve(init, p, T=0.4, dt=dt)
        ids = chart_identities(integrate_chart(traj, eps=EPS, nlev=4), traj)
        heights.append(ids["height"])
        volumes.append(ids["volume"])
    assert loglog_slope(dts, heights) > 3.8
    assert loglog_slope(dts, volumes) > 3.8
    assert heights[-1] < 1e-12 and volumes[-1] < 1e-11


def test_identity_residuals_small_at_fine_dt():
    g = Grid(1, 32)
    p = Params(F=1.0, Re=1.0, gamma_bar=1.0, eps=EPS)
    init = initial_wave(g, amplitude=0.0, wavenumber=1, velocity_amplitude=0.05)
    traj = sw_solve(init, p, T=0.25, dt=1e-3)
    ids = chart_identities(integrate_chart(traj, eps=EPS, nlev=4), traj)
    assert ids["height"] <= 1e-7 and ids["volume"] <= 1e-7


def test_group_property():
    g = Grid(1, 32)
    p = Params(F=1.0, Re=10.0, gamma_bar=1.0, eps=EPS)
    init = initial_wave(g, amplitude=0.0, wavenumber=1, velocity_amplitude=0.2)
    traj = sw_solve(init, p, T=0.4, dt=0.01)
    full = integrate_chart(traj, eps=EPS, nlev=4)
    k = 20
    first = SWTrajectory(traj.states[: k + 1], traj.tendencies[: k + 1], 0.01)
    second = SWTrajectory(traj.states[k:], traj.tendencies[k:], 0.01)
    ca = integrate_chart(first, eps=EPS, nlev=4)
    cb = integrate_chart(
        second, eps=EPS, nlev=4, x_start=ca.positions(k), zfactor_start=ca.zfactor[k]
    )
    assert np.abs(cb.positions(-1) - full.positions(-1)).max() <= 1e-9
    assert np.abs(cb.zfactor[-1] - full.zfactor[-1]).max() <= 1e-9


def test_integrate_validation():
    g = Grid(1, 16)
    traj, _ = _flat_traj(g)
    with pytest.raises(ValueError):
        integrate_chart(traj, eps=EPS, nlev=1)
    with pytest.raises(ValueError):
        integrate_chart(traj, eps=EPS, x_start=np.zeros((2, 16)))
    with pytest.raises(ValueError):
        integrate_chart(traj, eps=EPS, zfactor_start=np.zeros((2, 16)))


def test_chart_validation():
    g = Grid(1, 16)
    with pytest.raises(ValueError):  # z levels off the collocation family
        Chart(
            grid=g,
            eps=EPS,
            z_levels=EPS * np.linspace(0.0, 1.0, 4),
            times=np.array([0.0]),
            xdisp=np.zeros((1, 1, 16)),
            zfactor=np.ones((1, 16)),
        )
    c = _hand_chart(g, np.zeros((1, 16)), np.ones(16))
    with pytest.raises(ValueError):
        c.index_of(0.37)
    with pytest.raises(ValueError):
        c.dt


def test_identities_require_shared_times():
    g = Grid(1, 16)
    traj, p = _flat_traj(g)
    other = sw_solve(traj.states[0], p, T=0.2, dt=0.025)
    c = integrate_chart(traj, eps=EPS, nlev=4)
    with pytest.raises(ValueError):
        chart_identities(c, other)


# -- jacobian ---------------------------------------------------------------------


def test_jacobian_degenerate_chart_raises():
    g = Grid(1, 16)
    c = _hand_chart(g, np.zeros((1, 16)), -np.ones(16))
    with pytest.raises(DegenerateChartError):
        jacobian(c, 0.0)


def test_jacobian_blocks_on_hand_chart():
    g = Grid(1, 16)
    x = g.nodes
    disp = 0.2 * np.sin(x)
    zf = 1.0 + 0.1 * np.cos(x)
    c = _hand_chart(g, disp[None], zf, nlev=4)
    J = jacobian(c, 0.0)
    assert J.matrices.shape == (4, 16, 2, 2)
    assert np.abs(J.matrices[..., 0, 0] - (1.0 + 0.2 * np.cos(x))).max() < 1e-13
    assert np.abs(J.matrices[..., 0, 1]).max() == 0.0  # structural zero
    want_gz = -0.1 * np.sin(x)
    for lev, z in enumerate(c.z_levels):
        assert np.abs(J.matrices[lev, :, 1, 0] - z * want_gz).max() < 1e-13
    assert np.abs(J.matrices[..., 1, 1] - zf).max() == 0.0
    want_det = (1.0 + 0.2 * np.cos(x)) * zf
    assert np.abs(J.dets - want_det).max() < 1e-13


# -- transformed deformation --------------------------------------------------------


def test_deformation_reduces_to_symmetric_gradient():
    rng = np.random.default_rng(7)
    gu = rng.standard_normal((5, 3, 3))
    A = np.broadcast_to(np.eye(3), (5, 3, 3))
    P = transformed_deformation(gu, A)
    assert np.abs(P - (gu + np.swapaxes(gu, -1, -2))).max() < 1e-14


def test_deformation_hand_oracle():
    A = np.diag([1.0, 2.0])
    gu = np.array([[0.0, 1.0], [0.0, 0.0]])
    # A^-1 = diag(1, 1/2): gu A^-1 A^-T = [[0, 1/4], [0, 0]],
    # A^-T gu^T A^-T = [[0, 0], [1/2, 0]]
    want = np.array([[0.0, 0.25], [0.5, 0.0]])
    assert np.abs(transformed_deformation(gu, A) - want).max() < 1e-14


def test_deformation_linearity_and_field_input():
    g = Grid(1, 16)
    traj, _ = _flat_traj(g)
    J = jacobian(integrate_chart(traj, eps=EPS, nlev=4), 0.0)
    rng = np.random.default_rng(11)
    gu = rng.standard_normal((4, 16, 2, 2))
    P1 = transformed_deformation(gu, J)
    P4 = transformed_deformation(4.0 * gu, J)  # power of two: scaling is exact
    assert np.abs(P4 - 4.0 * P1).max() == 0.0
    assert np.abs(P1 - (gu + np.swapaxes(gu, -1, -2))).max() < 1e-14


def test_deformation_inverse_matches_linalg():
    rng = np.random.default_rng(3)
    mats = np.eye(3) + 0.3 * rng.standard_normal((8, 3, 3))
    gu = rng.standard_normal((8, 3, 3))
    inv = np.linalg.inv(mats)
    invT = np.swapaxes(inv, -1, -2)
    want = gu @ inv @ invT + invT @ np.swapaxes(gu, -1, -2) @ invT
    assert np.abs(transformed_deformation(gu, mats) - want).max() < 1e-12


def test_deformation_ill_conditioned_warning():
    A = np.diag([1.0, 1e-9])
    gu = np.eye(2)
    with pytest.warns(RuntimeWarning, match="ill conditioned"):
        transformed_deformation(gu, A)


# -- chain rule ---------------------------------------------------------------------


def test_chain_rule_identity_chart():
    g = Grid(1, 16)
    c = _hand_chart(g, np.zeros((1, 16)), np.ones(16))
    assert chain_rule_check(c, 0.0, F_TEST, GF_TEST) <= 1e-12


def test_chain_rule_translation_invariance():
    g = Grid(1, 16)
    ident = _hand_chart(g, np.zeros((1, 16)), np.ones(16))
    shifted = _hand_chart(g, np.full((1, 16), 1.234), np.ones(16))
    r0 = chain_rule_check(ident, 0.0, F_TEST, GF_TEST)
    r1 = chain_rule_check(shifted, 0.0, F_TEST, GF_TEST)
    assert r1 <= 1e-12 and abs(r1 - r0) <= 1e-12


def test_chain_rule_spectral_refinement():
    res = {}
    for N in (8, 16, 32):
        g = Grid(1, N)
        x = g.nodes
        c = _hand_chart(g, (0.2 * np.exp(np.sin(x)))[None], np.exp(0.2 * np.cos(x)))
        res[N] = chain_rule_check(c, 0.0, F_TEST, GF_TEST)
    assert res[16] < res[8] / 100.0
    assert res[32] < 1e-11


def test_chain_rule_on_integrated_chart():
    g = Grid(1, 32)
    p = Params(F=1.0, Re=10.0, gamma_bar=1.0, eps=EPS)
    init = initial_wave(g, amplitude=0.0, wavenumber=1, velocity_amplitude=0.2)
    traj = sw_solve(init, p, T=0.2, dt=0.005)
    c = integrate_chart(traj, eps=EPS, nlev=5)
    assert chain_rule_check(c, 0.2, F_TEST, GF_TEST) < 1e-9


# -- bottom slip ----------------------------------------------------------------------


def test_bottom_slip_reduces_to_eulerian():
    """Identity map: the transformed slip defect is u1 - eps gamma u0 exactly."""
    g = Grid(1, 16)
    traj, p = _flat_traj(g)
    c = integrate_chart(traj, eps=EPS, nlev=4)
    s = SWState(
        0.0,
        HField.from_function(g, lambda x: 1.0 + 0.05 * np.cos(x)),
        HField.stack([HField.from_function(g, lambda x: 0.1 * np.sin(x))]),
    )
    a = build_ansatz(s, p)
    res = bottom_slip_residual(c, 0.0, s.u0.values, a.u1.values, p)
    assert np.abs(res).max() == 0.0
    # generic traces against the displayed formula with det = 1
    u = 0.3 * np.cos(g.nodes)[None]
    du = 0.2 * np.sin(g.nodes)[None]
    res2 = bottom_slip_residual(c, 0.0, u, du, p)
    assert np.abs(res2 - (du - p.eps * p.gamma_bar * u)).max() < 1e-15


def test_bottom_slip_validation():
    g = Grid(1, 16)
    traj, p = _flat_traj(g)
    c = integrate_chart(traj, eps=EPS, nlev=4)
    with pytest.raises(ValueError):
        bottom_slip_residual(c, 0.0, np.zeros((2, 16)), np.zeros((2, 16)), p)
    off = Params(F=1.0, Re=10.0, gamma_bar=1.0, eps=0.05)
    with pytest.raises(ValueError):
        bottom_slip_residual(c, 0.0, np.zeros((1, 16)), np.zeros((1, 16)), off)


# -- records and 2d ------------------------------------------------------------------


def test_chart_records_shape():
    g = Grid(1, 16)
    p = Params(F=1.0, Re=10.0, gamma_bar=1.0, eps=EPS)
    init = initial_wave(g, amplitude=0.0, wavenumber=1, velocity_amplitude=0.1)
    traj = sw_solve(init, p, T=0.1, dt=0.05)
    c = integrate_chart(traj, eps=EPS, nlev=4)
    ids, defect = chart_check(c, traj)
    assert ids == chart_identities(c, traj)
    header, rows = chart_records(c, defect)
    rows = list(rows)
    assert header == ["t", "x0_1", "X0_1", "Z0_over_z0", "det_h0_minus_1"]
    assert len(rows) == len(traj) * 16
    assert all(isinstance(r, tuple) and len(r) == len(header) for r in rows)
    assert rows[0][0] == 0.0 and rows[0][3] == 1.0
    assert max(abs(r[4]) for r in rows) == ids["volume"] < 1e-8
    with pytest.raises(ValueError):
        chart_records(c, defect[1:])


def test_two_dimensional_chart():
    g = Grid(2, 16)
    p = Params(F=1.0, Re=10.0, gamma_bar=1.0, eps=EPS)
    init = initial_wave(g, amplitude=0.0, wavenumber=1, velocity_amplitude=0.05)
    traj = sw_solve(init, p, T=0.1, dt=0.01)
    c = integrate_chart(traj, eps=EPS, nlev=4)
    ids = chart_identities(c, traj)
    assert ids["height"] < 1e-8 and ids["volume"] < 1e-8
    J = jacobian(c, 0.1)
    assert J.matrices.shape == (4, 16, 16, 3, 3)
    assert np.all(J.dets > 0.0)
    f = lambda x, z: np.cos(x[0] + x[1]) * z
    gf = lambda x, z: np.stack(
        [
            -np.sin(x[0] + x[1]) * z,
            -np.sin(x[0] + x[1]) * z,
            np.cos(x[0] + x[1]) + 0.0 * z,
        ]
    )
    assert chain_rule_check(c, 0.1, f, gf) < 1e-9
    ids_once, defect = chart_check(c, traj)
    assert ids_once == ids
    header, rows = chart_records(c, defect)
    assert header == ["t", "x0_1", "x0_2", "X0_1", "X0_2", "Z0_over_z0", "det_h0_minus_1"]
    rows = list(rows)
    assert len(rows) == len(traj) * 16 * 16
    assert max(abs(r[-1]) for r in rows) == ids["volume"]
