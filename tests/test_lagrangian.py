"""Flow-map integration, closed-form identities, and the chain rule through a chart."""
from collections import deque

import numpy as np
import pytest

from thinlayer.grids import Grid, HField, _eval_coefficients, div
from thinlayer.lagrangian import (
    Chart,
    chain_rule_check,
    chart_header,
    chart_records,
    integrate_chart,
    _flow_rate,
    _material_nodes,
    _xjacobian,
)
from thinlayer.shallow_water import Params, SWTrajectory, initial_wave, sw_steps
from thinlayer.thinfields import Strip
from tests.conftest import loglog_slope, stacked_state

EPS = 0.1


def _flat_charts(g, velocity=0.0, p=None, T=0.2, dt=0.05):
    """Stream of (chart, defect, ids) of a flat layer at uniform velocity, and params."""
    p = p or Params(F=1.0, Re=10.0, gamma_bar=1.0, eps=EPS)
    init = initial_wave(g, amplitude=0.0, wavenumber=1, velocity_amplitude=0.0)
    if velocity:
        init = stacked_state(0.0, init.h0, init.u0 + velocity)
    return integrate_chart(sw_steps(init, p, T=T, dt=dt), dt, EPS, nlev=4), p


@pytest.mark.parametrize("n,N,most", [(1, 64, 28), (2, 32, 32)])
def test_chart_state_transform_count(transforms, n, N, most):
    """Each charted state, its sw_steps step included, takes at most 28
    transforms in 1D N = 64 and 32 in 2D N = 32: 24 for the step, one of the
    Hermite midpoint's stacked q, one of h0 for its evaluation at X0 and
    2n for dX0/dx0. The velocity rows of q.spec, which sw_rhs caches, need
    none; transforming h0 and u0 apart took 31 and 35."""
    g = Grid(n, N)
    p = Params(F=1.0, Re=10.0, gamma_bar=1.0, eps=EPS)
    init = initial_wave(g, amplitude=0.1, velocity_amplitude=0.05)
    charts = integrate_chart(sw_steps(init, p, T=0.004, dt=0.001), 0.001, EPS, nlev=4)
    next(charts)
    for _ in range(4):
        before = len(transforms)
        next(charts)
        assert len(transforms) - before <= most


def _last(stream):
    """The final (chart, defect, ids) of a chart stream."""
    return deque(stream, maxlen=1)[0]


def _hand_chart(g, disp, zfactor, nlev=5):
    return Chart(
        strip=Strip(g, EPS, nlev),
        t=0.0,
        xdisp=np.asarray(disp),
        zfactor=np.asarray(zfactor),
    )


F_TEST = lambda x, z: np.cos(x[0]) * z**2
GF_TEST = lambda x, z: np.stack(
    [-np.sin(x[0]) * z**2, 2.0 * z * np.cos(x[0]) + 0.0 * x[0]]
)


# -- integration ------------------------------------------------------------------


@pytest.mark.parametrize("n,N", [(1, 32), (2, 16)])
def test_stacked_sampler_matches_field_evaluation(n, N):
    # the chart rate (u0, (-Z0/z0) div u0) from stacked coefficients in one
    # kernel call, against two eval_at calls on u0 and on the div() field
    g = Grid(n, N)
    rng = np.random.default_rng(3 * n + N)
    u0 = HField(g, rng.standard_normal((n,) + g.shape))
    state = stacked_state(0.0, HField(g, 1.0 + 0.3 * rng.random(g.shape)), u0)
    shape = (5, 7)
    pos = rng.uniform(-10.0, 20.0, (n,) + shape)
    zfactor = rng.uniform(0.5, 1.5, shape)
    k = _flow_rate(state)(np.concatenate([pos, zfactor[None]]))
    u, d = k[:n], k[n]
    pts = pos.reshape(n, -1).T
    want_u = u0.eval_at(pts).reshape((n,) + shape)
    want_d = -zfactor * div(u0).eval_at(pts).reshape(shape)
    assert np.abs(u - want_u).max() <= 1e-13 * np.abs(want_u).max()
    assert np.abs(d - want_d).max() <= 1e-13 * np.abs(want_d).max()


def _separate_sampler(state):
    """(u0, div u0) at positions X0, from the stacked coefficients of u0 and
    of div u0, as two arrays."""
    g = state.grid
    c_u = state.q.coefficients[1:]
    stacked = np.concatenate([c_u, (g.ik * c_u).sum(0)[None]])

    def at(X):
        vals = _eval_coefficients(g, stacked, X.reshape(g.n, -1).T)
        return vals[: g.n].reshape(X.shape), vals[g.n].reshape(X.shape[1:])

    return at


def _separate_charts(steps, dt, eps, nlev):
    """integrate_chart with X0 and G = Z0/z0 advanced as two arrays, each RK4
    stage and the update written once for X0 and once for G: (t, xdisp,
    zfactor, defect, height, volume) per state."""
    X = None
    height = volume = 0.0
    for sb, fb in steps:
        if X is None:
            g = sb.grid
            strip = Strip(g, eps, nlev)
            x0 = _material_nodes(g)
            X, G = x0.copy(), np.ones(g.shape)
            f_b = _separate_sampler(sb)
        else:
            mid = SWTrajectory((sa, sb), (fa, fb), dt).interpolate(sa.t + 0.5 * dt)
            f_a, f_m, f_b = f_b, _separate_sampler(mid), _separate_sampler(sb)
            u1, d1 = f_a(X)
            g1 = -G * d1
            u2, d2 = f_m(X + 0.5 * dt * u1)
            g2 = -(G + 0.5 * dt * g1) * d2
            u3, d3 = f_m(X + 0.5 * dt * u2)
            g3 = -(G + 0.5 * dt * g2) * d3
            u4, d4 = f_b(X + dt * u3)
            g4 = -(G + dt * g3) * d4
            X = X + (dt / 6.0) * (u1 + 2.0 * (u2 + u3) + u4)
            G = G + (dt / 6.0) * (g1 + 2.0 * (g2 + g3) + g4)
        d = X - x0
        hX = sb.h0.eval_at((x0 + d).reshape(g.n, -1).T).reshape(g.shape)
        defect = _xjacobian(g, d)[1] * hX - 1.0
        height = max(height, float(np.abs(strip.z * G - strip.z * hX).max()))
        volume = max(volume, float(np.abs(defect).max()))
        yield sb.t, d, G, defect, height, volume
        sa, fa = sb, fb


@pytest.mark.parametrize("n,N", [(1, 64), (2, 32)])
def test_stacked_chart_matches_separate_loop_bit_for_bit(n, N):
    """Every chart, defect and running sup of the stacked RK4 state equals
    the loop that advances X0 and Z0/z0 apart, over 12 states; the 2D state
    varies in x2 and both velocity components are nonzero."""
    g = Grid(n, N)
    p = Params(F=1.0, Re=10.0, gamma_bar=1.0, eps=EPS)
    if n == 1:
        init = initial_wave(g, amplitude=0.1, velocity_amplitude=0.2)
    else:
        x1, x2 = g.coords()
        h0 = HField(g, 1.0 + 0.1 * np.cos(x1) + 0.05 * np.sin(x2))
        u0 = HField(g, np.stack(np.broadcast_arrays(
            0.1 * np.sin(x1 + x2), 0.08 * np.cos(x2) + 0.03 * np.sin(x1)
        )))
        init = stacked_state(0.0, h0, u0)
    dt, T = 0.002, 0.022
    got = list(integrate_chart(sw_steps(init, p, T=T, dt=dt), dt, EPS, nlev=4))
    want = list(_separate_charts(sw_steps(init, p, T=T, dt=dt), dt, EPS, nlev=4))
    assert len(got) == len(want) == 12
    for (chart, defect, ids), (t, xdisp, zfactor, w_defect, height, volume) in zip(got, want):
        assert chart.t == t
        assert np.array_equal(chart.xdisp, xdisp) and np.array_equal(chart.zfactor, zfactor)
        assert np.array_equal(defect, w_defect)
        assert ids == {"height": height, "volume": volume}


def test_rest_chart_is_identity():
    g = Grid(1, 16)
    stream, _ = _flat_charts(g)
    states = 0
    for c, _, ids in stream:
        states += 1
        assert np.abs(c.xdisp).max() == 0.0
        assert np.abs(c.zfactor - 1.0).max() == 0.0
        F, det = _xjacobian(c.grid, c.xdisp)
        assert np.abs(F - np.eye(1)).max() <= 1e-14
        assert np.all(det > 0.0)
    assert states == 5
    assert ids["height"] <= 1e-15 and ids["volume"] <= 1e-14


def test_uniform_flow_drift_closed_form():
    """dX/dt = c e^{-gamma t/Re} integrates to c (Re/gamma)(1 - e^{-gamma t/Re})."""
    g = Grid(1, 32)
    c0, Re, gam = 0.3, 2.0, 0.7
    p = Params(F=1.0, Re=Re, gamma_bar=gam, eps=EPS)
    ch, _, ids = _last(_flat_charts(g, velocity=c0, p=p, T=1.0, dt=1e-3)[0])
    assert abs(ch.t - 1.0) < 1e-10
    want = c0 * (Re / gam) * (1.0 - np.exp(-gam * 1.0 / Re))
    assert np.abs(ch.xdisp - want).max() / want < 1e-8
    assert np.abs(ch.zfactor - 1.0).max() == 0.0
    # uniform translation: dX0/dx0 stays the identity
    assert np.abs(_xjacobian(ch.grid, ch.xdisp)[0] - np.eye(1)).max() < 1e-12
    assert max(ids.values()) < 1e-12


def test_identity_residuals_fourth_order():
    g = Grid(1, 32)
    p = Params(F=1.0, Re=10.0, gamma_bar=1.0, eps=EPS)
    init = initial_wave(g, amplitude=0.0, wavenumber=1, velocity_amplitude=0.2)
    dts = [0.04, 0.02, 0.01, 0.005]
    heights, volumes = [], []
    for dt in dts:
        ids = _last(integrate_chart(sw_steps(init, p, T=0.4, dt=dt), dt, EPS, nlev=4))[2]
        heights.append(ids["height"])
        volumes.append(ids["volume"])
    assert loglog_slope(dts, heights) > 3.8
    assert loglog_slope(dts, volumes) > 3.8
    assert heights[-1] < 1e-12 and volumes[-1] < 1e-11


def test_identity_residuals_small_at_fine_dt():
    g = Grid(1, 32)
    p = Params(F=1.0, Re=1.0, gamma_bar=1.0, eps=EPS)
    init = initial_wave(g, amplitude=0.0, wavenumber=1, velocity_amplitude=0.05)
    ids = _last(integrate_chart(sw_steps(init, p, T=0.25, dt=1e-3), 1e-3, EPS, nlev=4))[2]
    assert ids["height"] <= 1e-7 and ids["volume"] <= 1e-7


def test_integrate_validation():
    g = Grid(1, 16)
    p = Params(F=1.0, Re=10.0, gamma_bar=1.0, eps=EPS)
    init = initial_wave(g, amplitude=0.0)
    # the stream is a generator, so its errors surface as it is consumed
    with pytest.raises(ValueError):
        list(integrate_chart(sw_steps(init, p, T=0.2, dt=0.05), 0.05, EPS, nlev=1))
    with pytest.raises(ValueError):  # the Hermite midpoint needs the states' own spacing
        list(integrate_chart(sw_steps(init, p, T=0.2, dt=0.05), 0.025, EPS, nlev=4))
    with pytest.raises(ValueError):
        list(integrate_chart(iter(()), 0.05, EPS, nlev=4))


def test_chart_validation():
    g = Grid(1, 16)
    with pytest.raises(ValueError):  # one displacement per axis
        _hand_chart(g, np.zeros((2, 16)), np.ones(16))
    with pytest.raises(ValueError):  # one factor per column
        _hand_chart(g, np.zeros((1, 16)), np.ones(8))
    with pytest.raises(ValueError):
        _hand_chart(g, np.zeros((1, 16)), np.full(16, np.inf))


# -- jacobian ---------------------------------------------------------------------


def test_jacobian_blocks_on_hand_chart():
    # dX0/dx0 and its determinant against the closed form, in 1D and in 2D
    # with a displacement that mixes the axes: F[a, b] = dX0_a / dx0_b
    g = Grid(1, 16)
    x = g.nodes
    F, det = _xjacobian(g, (0.2 * np.sin(x))[None])
    assert F.shape == (16, 1, 1)
    assert np.abs(F[..., 0, 0] - (1.0 + 0.2 * np.cos(x))).max() < 1e-13
    assert np.abs(det - F[..., 0, 0]).max() == 0.0
    g = Grid(2, 16)
    x1, x2 = g.coords()
    disp = np.stack(np.broadcast_arrays(0.1 * np.sin(x2), 0.05 * np.cos(x1)))
    F, det = _xjacobian(g, disp)
    want = np.zeros(g.shape + (2, 2))
    want[..., 0, 0] = want[..., 1, 1] = 1.0
    want[..., 0, 1] = 0.1 * np.cos(x2)
    want[..., 1, 0] = -0.05 * np.sin(x1)
    assert np.abs(F - want).max() < 1e-13
    assert np.abs(det - (1.0 + 0.005 * np.cos(x2) * np.sin(x1))).max() < 1e-13


# -- chain rule ---------------------------------------------------------------------


def test_chain_rule_identity_chart():
    g = Grid(1, 16)
    c = _hand_chart(g, np.zeros((1, 16)), np.ones(16))
    assert chain_rule_check(c, F_TEST, GF_TEST) <= 1e-12


def test_chain_rule_translation_invariance():
    g = Grid(1, 16)
    ident = _hand_chart(g, np.zeros((1, 16)), np.ones(16))
    shifted = _hand_chart(g, np.full((1, 16), 1.234), np.ones(16))
    r0 = chain_rule_check(ident, F_TEST, GF_TEST)
    r1 = chain_rule_check(shifted, F_TEST, GF_TEST)
    assert r1 <= 1e-12 and abs(r1 - r0) <= 1e-12


def test_chain_rule_spectral_refinement():
    res = {}
    for N in (8, 16, 32):
        g = Grid(1, N)
        x = g.nodes
        c = _hand_chart(g, (0.2 * np.exp(np.sin(x)))[None], np.exp(0.2 * np.cos(x)))
        res[N] = chain_rule_check(c, F_TEST, GF_TEST)
    assert res[16] < res[8] / 100.0
    assert res[32] < 1e-11


def test_chain_rule_two_dimensional_hand_chart():
    # the displacement mixes both axes, so dX0/dx0 has off-diagonal entries
    # and both components of grad zfactor are non-zero: a transposed
    # dX0/dx0 or a dropped vertical row of A shows here
    g = Grid(2, 32)
    x1, x2 = g.coords()
    disp = np.stack(
        np.broadcast_arrays(0.1 * np.sin(x2) + 0.05 * np.cos(x1), 0.08 * np.cos(x1 + x2))
    )
    c = _hand_chart(g, disp, np.exp(0.1 * np.sin(x1) * np.cos(x2)))
    f = lambda x, z: np.sin(x[0]) * np.cos(x[1]) * z + np.cos(x[0] - x[1]) * z**2
    gf = lambda x, z: np.stack(
        [
            np.cos(x[0]) * np.cos(x[1]) * z - np.sin(x[0] - x[1]) * z**2,
            -np.sin(x[0]) * np.sin(x[1]) * z + np.sin(x[0] - x[1]) * z**2,
            np.sin(x[0]) * np.cos(x[1]) + 2.0 * z * np.cos(x[0] - x[1]),
        ]
    )
    assert chain_rule_check(c, f, gf) <= 1e-9


def test_chain_rule_on_integrated_chart():
    g = Grid(1, 32)
    p = Params(F=1.0, Re=10.0, gamma_bar=1.0, eps=EPS)
    init = initial_wave(g, amplitude=0.0, wavenumber=1, velocity_amplitude=0.2)
    c = _last(integrate_chart(sw_steps(init, p, T=0.2, dt=0.005), 0.005, EPS, nlev=5))[0]
    assert abs(c.t - 0.2) < 1e-10
    assert chain_rule_check(c, F_TEST, GF_TEST) < 1e-9


# -- records and 2d ------------------------------------------------------------------


def test_chart_records_shape():
    g = Grid(1, 16)
    p = Params(F=1.0, Re=10.0, gamma_bar=1.0, eps=EPS)
    init = initial_wave(g, amplitude=0.0, wavenumber=1, velocity_amplitude=0.1)
    rows = []
    for c, defect, ids in integrate_chart(sw_steps(init, p, T=0.1, dt=0.05), 0.05, EPS, nlev=4):
        rows += chart_records(c, defect)
    header = chart_header(1)
    assert header == ["t", "x0_1", "X0_1", "Z0_over_z0", "det_h0_minus_1"]
    assert len(rows) == 3 * 16
    assert all(isinstance(r, tuple) and len(r) == len(header) for r in rows)
    assert rows[0][0] == 0.0 and rows[0][3] == 1.0
    assert max(abs(r[4]) for r in rows) == ids["volume"] < 1e-8
    with pytest.raises(ValueError):
        chart_records(c, defect[1:])


def test_two_dimensional_chart():
    g = Grid(2, 16)
    p = Params(F=1.0, Re=10.0, gamma_bar=1.0, eps=EPS)
    init = initial_wave(g, amplitude=0.0, wavenumber=1, velocity_amplitude=0.05)
    rows = []
    for c, defect, ids in integrate_chart(sw_steps(init, p, T=0.1, dt=0.01), 0.01, EPS, nlev=4):
        rows += chart_records(c, defect)
    assert abs(c.t - 0.1) < 1e-10
    assert ids["height"] < 1e-8 and ids["volume"] < 1e-8
    F, det = _xjacobian(c.grid, c.xdisp)
    assert F.shape == (16, 16, 2, 2)
    assert np.all(det > 0.0)  # the map keeps its orientation
    f = lambda x, z: np.cos(x[0] + x[1]) * z
    gf = lambda x, z: np.stack(
        [
            -np.sin(x[0] + x[1]) * z,
            -np.sin(x[0] + x[1]) * z,
            np.cos(x[0] + x[1]) + 0.0 * z,
        ]
    )
    assert chain_rule_check(c, f, gf) < 1e-9
    header = chart_header(2)
    assert header == ["t", "x0_1", "x0_2", "X0_1", "X0_2", "Z0_over_z0", "det_h0_minus_1"]
    assert len(rows) == 11 * 16 * 16
    assert max(abs(r[-1]) for r in rows) == ids["volume"]
