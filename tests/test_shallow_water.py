"""Depth/velocity system: symbolic tendencies, conservation, convergence."""
import tracemalloc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import loglog_slope, split_tendency, stacked_state
from thinlayer import grids, shallow_water
from thinlayer.grids import FineWork, Grid, HField, div, grad, nonlinear
from thinlayer.shallow_water import (
    DegenerateStateError,
    Params,
    StabilityError,
    SWState,
    SWTrajectory,
    initial_wave,
    stable_dt,
    sw_energy,
    sw_diagnostics,
    sw_rhs,
    sw_step,
    sw_steps,
    sym_grad,
)

P1 = Params(F=1.0, Re=1.0, gamma_bar=1.0, eps=0.1)


def _state(grid, h_fn, u_fns, t=0.0):
    h0 = HField.from_function(grid, h_fn)
    u0 = HField.stack([HField.from_function(grid, f) for f in u_fns])
    return stacked_state(t, h0, u0)


# -- validation ---------------------------------------------------------------


@pytest.mark.parametrize(
    "kw",
    [
        dict(F=0.0, Re=1.0, gamma_bar=0.0, eps=0.1),
        dict(F=1.0, Re=-1.0, gamma_bar=0.0, eps=0.1),
        dict(F=1.0, Re=1.0, gamma_bar=-0.1, eps=0.1),
        dict(F=1.0, Re=1.0, gamma_bar=0.0, eps=0.0),
        dict(F=1.0, Re=1.0, gamma_bar=0.0, eps=1.0),
        dict(F=np.nan, Re=1.0, gamma_bar=0.0, eps=0.1),
        dict(F=1e-162, Re=1.0, gamma_bar=0.0, eps=0.1),  # F * F underflows to 0
        dict(F=1.4e154, Re=1.0, gamma_bar=0.0, eps=0.1),  # F * F overflows
        dict(F=2 * 10**154, Re=1, gamma_bar=1, eps=0.1),  # an int F whose F * F overflows
        # ints beyond the float range
        dict(F=10**400, Re=1.0, gamma_bar=0.0, eps=0.1),
        dict(F=1.0, Re=10**400, gamma_bar=0.0, eps=0.1),
        dict(F=1.0, Re=1.0, gamma_bar=10**400, eps=0.1),
        dict(F=1.0, Re=1.0, gamma_bar=0.0, eps=10**400),
    ],
)
def test_params_rejected(kw):
    with pytest.raises(ValueError):
        Params(**kw)


def test_state_validation_and_mass():
    g = Grid(1, 16)
    x = g.nodes
    with pytest.raises(DegenerateStateError):
        _state(g, lambda x: -1.0 + 0.0 * x, [lambda x: 0.0 * x])
    g2 = Grid(2, 16)
    with pytest.raises(ValueError, match=r"q must stack \(h0, u0\)"):
        SWState(0.0, HField(g2, np.ones((2, 16, 16))))  # n components, not 1 + n
    with pytest.raises(ValueError, match=r"q must stack \(h0, u0\)"):
        SWState(0.0, HField(g2, np.ones((16, 16))))  # rows of shape (16,), not the grid's
    s = _state(g, lambda x: 1.0 + 0.1 * np.cos(x), [np.sin])
    assert abs(s.mass - 2 * np.pi) < 1e-13
    assert abs(s.max_speed() - np.abs(np.sin(x)).max()) < 1e-14


# -- symbolic tendencies ------------------------------------------------------


def test_rhs_equilibrium_is_zero():
    g = Grid(1, 32)
    s = initial_wave(g, amplitude=0.0)
    dth, dtu = split_tendency(sw_rhs(s, P1))
    assert np.abs(dth.values).max() < 1e-14
    assert np.abs(dtu.values).max() < 1e-14


def test_rhs_gravity_only():
    """h0 = 1 + a cos x at rest: the pressure term reduces to (a/F^2) sin x."""
    g = Grid(1, 64)
    a, F = 0.3, 2.0
    p = Params(F=F, Re=1.0, gamma_bar=1.0, eps=0.1)
    s = initial_wave(g, amplitude=a)
    dth, dtu = split_tendency(sw_rhs(s, p))
    assert np.abs(dth.values).max() < 1e-14
    want = (a / F**2) * np.sin(g.nodes)
    assert np.abs(dtu.values[0] - want).max() < 1e-13


def test_rhs_uniform_flow_friction_only():
    g = Grid(1, 32)
    c = 0.7
    p = Params(F=1.0, Re=2.0, gamma_bar=0.5, eps=0.1)
    s = _state(g, lambda x: 1.0 + 0.0 * x, [lambda x: c + 0.0 * x])
    dth, dtu = split_tendency(sw_rhs(s, p))
    assert np.abs(dth.values).max() < 1e-14
    assert np.abs(dtu.values + p.gamma_bar * c / p.Re).max() < 1e-14


def test_rhs_flat_depth_single_mode():
    """h0 = 1, u0 = sin x: every term is a short trig identity.

    adv = sin x cos x, D(u0) = 2 cos x, div(h0 D) = -2 sin x,
    2 grad(h0 div u0) = -2 sin x, so
    dtu0 = -sin x cos x - (4 + gamma_bar) sin x / Re
         = -sin(2x) / 2 - (4 + gamma_bar) sin x / Re.

    dtu0 is checked mode by mode. Its answer modes k = 1, 2 must match their
    exact coefficients to 1e-15. Every other mode must stay below the
    rounding floor of a second spectral derivative, eps_mach (1 + k^2)
    max|dtu0|: the viscous terms differentiate twice, so the rounding noise
    of mode k grows like k^2, and the real inverse transform keeps all of it.
    A nodal bound of 1e-13 sat on that floor, with its largest error from
    the band-edge modes 20 and 21. A wrong viscous factor (3 for 4) or a
    dropped gamma_bar moves mode 1 by 0.25 or 0.125, some fourteen orders of
    magnitude above its bound.
    """
    g = Grid(1, 64)
    p = Params(F=1.0, Re=2.0, gamma_bar=0.5, eps=0.1)
    s = _state(g, lambda x: 1.0 + 0.0 * x, [np.sin])
    dth, dtu = split_tendency(sw_rhs(s, p))
    x = g.nodes
    assert np.abs(dth.values + np.cos(x)).max() < 1e-13
    want = -np.sin(x) * np.cos(x) - (4.0 + p.gamma_bar) * np.sin(x) / p.Re
    c = np.fft.rfft(dtu.values[0]) / g.N
    # sin(kx) has coefficient -i/2 at mode k
    exact = {1: 0.5j * (4.0 + p.gamma_bar) / p.Re, 2: 0.25j}
    for k, ck in exact.items():
        assert abs(c[k] - ck) <= 1e-15
    k = np.arange(c.size)
    floor = np.finfo(float).eps * (1.0 + k**2) * np.abs(want).max()
    rest = ~np.isin(k, list(exact))
    assert np.all(np.abs(c[rest]) <= floor[rest])


def test_rhs_two_dimensional_shear():
    """h0 = 1, u0 = (sin y, 0): only the shear stress survives."""
    g = Grid(2, 16)
    p = Params(F=1.0, Re=3.0, gamma_bar=0.25, eps=0.1)
    s = _state(
        g,
        lambda x, y: 1.0 + 0.0 * x,
        [lambda x, y: np.sin(y) + 0.0 * x, lambda x, y: 0.0 * x],
    )
    dth, dtu = split_tendency(sw_rhs(s, p))
    _, y = np.meshgrid(g.nodes, g.nodes, indexing="ij")
    assert np.abs(dth.values).max() < 1e-14
    want = -(1.0 + p.gamma_bar) * np.sin(y) / p.Re
    assert np.abs(dtu.values[0] - want).max() < 1e-13
    assert np.abs(dtu.values[1]).max() < 1e-13


def _rhs_reference(s, p):
    """sw_rhs composed term by term from HField products and derivatives."""
    h0, u0 = s.h0, s.u0
    g = s.grid
    n = g.n
    dth0 = -div(h0 * u0)

    du = [[u0.component(i).dx(a) for a in range(n)] for i in range(n)]
    adv = []
    for i in range(n):
        acc = u0.component(0) * du[i][0]
        for a in range(1, n):
            acc = acc + u0.component(a) * du[i][a]
        adv.append(acc)
    adv = HField.stack(adv)

    gradp = grad(h0 * h0) * (0.5 / p.F**2)
    pres = nonlinear(g, lambda gp, h: gp / h, gradp, h0)

    D = sym_grad(u0)
    hdiv = h0 * div(u0)
    visc = []
    for i in range(n):
        acc = (h0 * D[i][0]).dx(0)
        for a in range(1, n):
            acc = acc + (h0 * D[i][a]).dx(a)
        visc.append(acc + 2.0 * hdiv.dx(i))
    visc = HField.stack(visc) - p.gamma_bar * u0
    visc = nonlinear(g, lambda v, h: v / h, visc, h0) * (1.0 / p.Re)

    dtu0 = -adv - pres + visc
    return dth0.mask_two_thirds(), dtu0.mask_two_thirds()


@pytest.mark.parametrize("n,N", [(1, 32), (1, 64), (2, 32), (2, 64)])
def test_rhs_matches_hfield_composition(n, N):
    """Batched transforms give the HField path's projections, on states with
    energy in every mode (Nyquist included), so no term is exact by luck.

    sw_rhs divides the sum of the pressure and viscous numerators by h0
    once, where the reference divides each; the parameter sets include the
    extremes where one numerator outweighs the other by orders of magnitude
    (F = 0.05, Re = 1e3: pressure; F = 1, Re = 1e6: pressure again, with a
    viscous part near rounding)."""
    g = Grid(n, N)
    rng = np.random.default_rng(100 * n + N)
    h0 = HField(g, 1.0 + 0.3 * rng.random(g.shape))
    u0 = HField(g, rng.standard_normal((n,) + g.shape))
    s = stacked_state(0.0, h0, u0)
    for F, Re, gamma_bar in [(0.7, 3.0, 0.8), (0.05, 1e3, 0.0), (1.0, 1e6, 1.0)]:
        p = Params(F=F, Re=Re, gamma_bar=gamma_bar, eps=0.1)
        for got, want in zip(split_tendency(sw_rhs(s, p)), _rhs_reference(s, p)):
            scale = np.abs(want.values).max()
            assert np.abs(got.values - want.values).max() <= 1e-13 * scale


@pytest.mark.parametrize("n,fields", [(1, 9), (2, 19)])
def test_rhs_fine_grid_field_count(monkeypatch, n, fields):
    """One sw_rhs moves 1 + n + n^2 inputs (h0, u0, grad u0), 2n + 1 +
    n(n+1)/2 products (h0 u0, the advection, h0^2, the upper triangle of
    h0 D(u0)) and n numerators of the one quotient by h0 through the padded
    transforms."""
    g = Grid(n, 32)
    fine = grids.PAD * g.N
    moved = []
    irfft, rfft = grids._irfft, grids._rfft

    def leading(a):
        return int(np.prod(a.shape[: a.ndim - n]))

    def counted_irfft(a, axes, size, out=None):
        if size == fine:
            moved.append(leading(a))
        return irfft(a, axes, size, out)

    def counted_rfft(a, axes, out=None):
        if a.shape[-1] == fine:
            moved.append(leading(a))
        return rfft(a, axes, out)

    s = initial_wave(g, amplitude=0.1, velocity_amplitude=0.05)
    monkeypatch.setattr(grids, "_irfft", counted_irfft)
    monkeypatch.setattr(grids, "_rfft", counted_rfft)
    sw_rhs(s, P1)
    assert sum(moved) == fields


def test_rhs_cross_resolution_agreement():
    """The same smooth state on N=64 and N=128 gives matching tendencies.

    The depth tendency is purely quadratic, so it is exact on both grids.
    The velocity tendency divides by h0, whose reciprocal has a Fourier
    tail ratio of about 1/3 per mode here, so the N=64 band truncation
    leaves an O(1e-10) imprint. That is the quantity being pinned down.
    """

    def h_fn(x):
        return 1.0 + 0.3 * np.cos(x) + 0.1 * np.sin(2 * x)

    def u_fn(x):
        return 0.2 * np.sin(x) + 0.05 * np.cos(3 * x)

    out = {}
    for N in (64, 128):
        g = Grid(1, N)
        dth, dtu = split_tendency(sw_rhs(_state(g, h_fn, [u_fn]), P1))
        out[N] = (dth.values, dtu.values[0])
    assert np.abs(out[64][0] - out[128][0][::2]).max() < 1e-12
    assert np.abs(out[64][1] - out[128][1][::2]).max() < 1e-9


# -- stepping -----------------------------------------------------------------


def test_step_equilibrium_fixed_point():
    g = Grid(1, 32)
    s = initial_wave(g, amplitude=0.0)
    s2 = sw_step(s, P1, 0.5 * stable_dt(s, P1))
    assert np.abs(s2.h0.values - 1.0).max() < 1e-14
    assert np.abs(s2.u0.values).max() < 1e-14


def test_step_rejects_unstable_dt():
    g = Grid(1, 32)
    s = initial_wave(g)
    with pytest.raises(ValueError):
        sw_step(s, P1, 2.0 * stable_dt(s, P1))
    with pytest.raises(ValueError):
        sw_step(s, P1, 0.0)


def test_step_mass_per_step():
    g = Grid(1, 32)
    p = Params(F=1.0, Re=5.0, gamma_bar=1.0, eps=0.1)
    s = initial_wave(g, amplitude=0.1, velocity_amplitude=0.05)
    for _ in range(100):
        s = sw_step(s, p, 0.02)
    assert abs(s.mass - 2 * np.pi) < 1e-12 * 2 * np.pi


def test_step_local_order():
    """One step vs two half-steps shrinks at fifth order."""
    g = Grid(1, 32)
    p = Params(F=1.0, Re=100.0, gamma_bar=1.0, eps=0.1)
    s = initial_wave(g, amplitude=0.2, velocity_amplitude=0.1)
    dts = [0.2, 0.1, 0.05]
    errs = []
    for dt in dts:
        big = sw_step(s, p, dt)
        small = sw_step(sw_step(s, p, 0.5 * dt), p, 0.5 * dt)
        errs.append(
            max(
                np.abs(big.h0.values - small.h0.values).max(),
                np.abs(big.u0.values - small.u0.values).max(),
            )
        )
    assert loglog_slope(dts, errs) >= 4.8


def test_step_vacuum_guard():
    g = Grid(1, 32)
    h0 = HField(g, 1.0 + 0.92 * np.cos(g.nodes))  # min depth 0.08
    s = stacked_state(0.0, h0, HField(g, np.zeros((1, 32))))
    with pytest.raises(DegenerateStateError):
        sw_step(s, P1, 1e-4)


# -- trajectories -------------------------------------------------------------


def _states(init, p, T, dt):
    return [s for s, _ in sw_steps(init, p, T, dt)]


def test_solve_constant_trajectory():
    g = Grid(1, 32)
    states = _states(initial_wave(g, amplitude=0.0), P1, T=0.05, dt=0.005)
    assert len(states) == 11
    assert np.abs(states[-1].h0.values - 1.0).max() < 1e-13


def test_steps_take_the_fewest_steps_of_at_most_dt(monkeypatch):
    taken = []
    step = shallow_water.sw_step
    monkeypatch.setattr(
        shallow_water, "sw_step", lambda s, p, dt, **kw: taken.append(dt) or step(s, p, dt, **kw)
    )
    # 0.0107 is no multiple of 0.005: three steps of T / 3
    _states(initial_wave(Grid(1, 32)), P1, T=0.0107, dt=0.005)
    assert taken == [0.0107 / 3] * 3
    # 0.3 / 0.1 rounds to 2.9999999999999996, so T / 3 is not 0.1; a
    # multiple of dt to 1e-9 steps with dt itself
    taken.clear()
    p = Params(F=1.0, Re=100.0, gamma_bar=1.0, eps=0.1)
    assert 0.3 / 3 != 0.1
    _states(initial_wave(Grid(1, 32), amplitude=0.0), p, T=0.3, dt=0.1)
    assert taken == [0.1] * 3
    for dt in (0.0, -0.1, 1e-320):
        with pytest.raises(StabilityError, match="no finite step count"):
            next(sw_steps(initial_wave(Grid(1, 32)), P1, T=1e10, dt=dt))


def test_solve_uniform_decay():
    """Spatially constant u0 solves u' = -gamma_bar u / Re exactly."""
    g = Grid(1, 32)
    c = 0.3
    p = Params(F=1.0, Re=1.0, gamma_bar=1.0, eps=0.1)
    s = _state(g, lambda x: 1.0 + 0.0 * x, [lambda x: c + 0.0 * x])
    final = _states(s, p, T=1.0, dt=0.005)[-1]
    want = c * np.exp(-p.gamma_bar * 1.0 / p.Re)
    rel = np.abs(final.u0.values - want).max() / want
    assert rel < 1e-8


def test_solve_galilean_frictionless():
    g = Grid(1, 32)
    c = 0.3
    p = Params(F=1.0, Re=1.0, gamma_bar=0.0, eps=0.1)
    s = _state(g, lambda x: 1.0 + 0.0 * x, [lambda x: c + 0.0 * x])
    final = _states(s, p, T=0.25, dt=0.005)[-1]
    assert np.abs(final.u0.values - c).max() < 1e-13


def test_solve_global_order():
    g = Grid(1, 32)
    p = Params(F=1.0, Re=100.0, gamma_bar=1.0, eps=0.1)
    init = initial_wave(g, amplitude=0.05)
    dts = [0.1, 0.05, 0.025, 0.0125]
    finals = [_states(init, p, T=1.0, dt=dt)[-1] for dt in dts]
    errs = [
        max(
            np.abs(a.h0.values - b.h0.values).max(),
            np.abs(a.u0.values - b.u0.values).max(),
        )
        for a, b in zip(finals, finals[1:])
    ]
    assert loglog_slope(dts[:-1], errs) >= 3.8


def test_solve_reuses_stored_tendency():
    """Passing the stored tendency as the next step's k1 changes nothing."""
    g = Grid(1, 32)
    p = Params(F=0.8, Re=5.0, gamma_bar=0.5, eps=0.1)
    dt = 0.01
    init = initial_wave(g, amplitude=0.1, velocity_amplitude=0.05)
    s = init
    for i, (state, stored) in enumerate(sw_steps(init, p, T=0.1, dt=dt)):
        if i:
            s = sw_step(s, p, dt)
        assert np.abs(state.h0.values - s.h0.values).max() <= 1e-15
        assert np.abs(state.u0.values - s.u0.values).max() <= 1e-15
        for got, want in zip(split_tendency(stored), split_tendency(sw_rhs(state, p))):
            assert np.abs(got.values - want.values).max() <= 1e-15


def _sample_state(n, N):
    """A state that varies along every axis, with every velocity component nonzero."""
    if n == 1:
        return _state(
            Grid(1, N),
            lambda x: 1.0 + 0.1 * np.cos(x) + 0.05 * np.sin(3 * x),
            [lambda x: 0.05 * np.sin(2 * x) + 0.02 * np.cos(x)],
        )
    return _state(
        Grid(2, N),
        lambda x, y: 1.0 + 0.1 * np.cos(x) * np.sin(2 * y),
        [lambda x, y: 0.05 * np.sin(x + y), lambda x, y: 0.03 * np.cos(2 * x - y)],
    )


@pytest.mark.parametrize("N", [16, 32])
def test_solve_2d_tendencies_equal_standalone_rhs(N):
    """Every tendency a 2D solve stores, each evaluated in the solve's one
    work area, equals sw_rhs on its own fresh work area bit for bit; a
    work-area array leaking into a returned field would be overwritten by
    the later calls of the solve."""
    p = Params(F=0.8, Re=5.0, gamma_bar=0.5, eps=0.1)
    for state, stored in list(sw_steps(_sample_state(2, N), p, T=0.05, dt=0.01)):
        for got, want in zip(split_tendency(stored), split_tendency(sw_rhs(state, p))):
            assert np.array_equal(got.values, want.values)


def _pair_rhs(h0, u0, p):
    """Tendency pair (dt h0, dt u0) of sw_rhs on separate fields: the spectra
    of h0 and of u0 taken one at a time and concatenated."""
    spec = np.concatenate([h0.spec[None], u0.spec])
    return split_tendency(sw_rhs(SimpleNamespace(grid=h0.grid, q=SimpleNamespace(spec=spec)), p))


def _pair_step(h0, u0, p, dt, k1):
    """The RK4 step on separate fields: each stage advances h0 and u0 apart,
    and the new h0 and u0 are two combinations."""
    k1h, k1u = k1
    k2h, k2u = _pair_rhs(h0 + 0.5 * dt * k1h, u0 + 0.5 * dt * k1u, p)
    k3h, k3u = _pair_rhs(h0 + 0.5 * dt * k2h, u0 + 0.5 * dt * k2u, p)
    k4h, k4u = _pair_rhs(h0 + dt * k3h, u0 + dt * k3u, p)
    c = dt / 6.0
    return h0 + c * (k1h + 2.0 * (k2h + k3h) + k4h), u0 + c * (k1u + 2.0 * (k2u + k3u) + k4u)


@pytest.mark.parametrize("n,N", [(1, 64), (2, 32)])
def test_stacked_step_matches_pair_form_bit_for_bit(n, N):
    """The solve on the stacked q reproduces, bit for bit, the step written
    for separate h0 and u0 fields (_pair_step, _pair_rhs): every state and
    every tendency of 10 sw_steps steps, a step that evaluates its own k1,
    and the Hermite midpoint, weighted field by field."""
    p = Params(F=0.8, Re=5.0, gamma_bar=0.5, eps=0.1)
    dt = 0.002
    init = _sample_state(n, N)
    h0, u0 = init.h0, init.u0
    pair = _pair_rhs(h0, u0, p)
    run = list(sw_steps(init, p, T=10 * dt, dt=dt))
    assert len(run) == 11
    for i, (s, f) in enumerate(run):
        if i:
            h0, u0 = _pair_step(h0, u0, p, dt, pair)
            pair = _pair_rhs(h0, u0, p)
        assert np.array_equal(s.h0.values, h0.values) and np.array_equal(s.u0.values, u0.values)
        for got, want in zip(split_tendency(f), pair):
            assert np.array_equal(got.values, want.values)

    one = sw_step(init, p, dt)
    want = _pair_step(init.h0, init.u0, p, dt, _pair_rhs(init.h0, init.u0, p))
    for got, field in zip((one.h0, one.u0), want):
        assert np.array_equal(got.values, field.values)

    (sa, fa), (sb, fb) = run[0], run[1]
    mid = SWTrajectory((sa, sb), (fa, fb), dt).interpolate(0.5 * dt)
    th = (0.5 * dt - sa.t) / dt
    w00, w10 = (1.0 + 2.0 * th) * (1.0 - th) ** 2, th * (1.0 - th) ** 2
    w01, w11 = th * th * (3.0 - 2.0 * th), th * th * (th - 1.0)
    for got, a, b, da, db in zip(
        (mid.h0, mid.u0), (sa.h0, sa.u0), (sb.h0, sb.u0), split_tendency(fa), split_tendency(fb)
    ):
        want = w00 * a.values + w01 * b.values + dt * (w10 * da.values + w11 * db.values)
        assert np.array_equal(got.values, want)


@pytest.mark.parametrize("n,N", [(1, 64), (2, 32)])
def test_step_makes_24_transforms(transforms, n, N):
    """One sw_steps step makes 24 transforms: three stage tendencies and the
    new state's, each one transform of the stacked q and five of the padded
    stages. Transforming h0 and u0 apart made 28."""
    steps = sw_steps(_sample_state(n, N), P1, T=0.004, dt=0.001)
    next(steps)
    for _ in range(4):
        before = len(transforms)
        next(steps)
        assert len(transforms) - before == 24


def _solve_10_steps_2d():
    g = Grid(2, 32)
    p = Params(F=0.8, Re=5.0, gamma_bar=0.5, eps=0.1)
    init = initial_wave(g, amplitude=0.1, velocity_amplitude=0.05)
    return list(sw_steps(init, p, T=0.01, dt=0.001))


def test_solve_allocates_no_padded_stage_per_rhs():
    """tracemalloc peak of a 10-step 2D N = 32 solve, less its one sw_rhs
    work area, stays within 1.5 MB.

    What remains (about 1.19 MB) is the states and tendencies the solve
    keeps, with its initial state (about 0.82 MB), and the transients of one sw_rhs call
    (numpy's own transform buffers, the truncated spectra, the returned
    tendencies: about 0.34 MB). An sw_rhs that allocated its padded stages
    per call again read about 2.14 MB, and a solve that stopped handing its
    work area down adds about 0.95 MB per extra work area.
    """
    work = shallow_water._rhs_work(Grid(2, 32))
    area = work.padded.nbytes + work.fine.nbytes + work.spec.nbytes
    del work
    _solve_10_steps_2d()  # cached grid symbols, first-call imports
    tracemalloc.start()
    try:
        _solve_10_steps_2d()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - area <= 1.5 * 2**20


def test_solve_drops_its_work_area(monkeypatch):
    """sw_steps builds one work area, and none is reachable once the run is
    consumed."""
    built = []

    class Recorded(FineWork):
        __slots__ = ("__weakref__",)

        def __init__(self, *args):
            super().__init__(*args)
            built.append(weakref.ref(self))

    monkeypatch.setattr(shallow_water, "FineWork", Recorded)
    steps = _solve_10_steps_2d()
    assert len(built) == 1 and built[0]() is None
    assert len(steps) == 11


def test_trajectory_interpolation():
    g = Grid(1, 32)
    p = Params(F=1.0, Re=100.0, gamma_bar=1.0, eps=0.1)
    init = initial_wave(g, amplitude=0.05)
    coarse = list(sw_steps(init, p, T=0.5, dt=0.05))
    fine = _states(init, p, T=0.5, dt=0.0125)
    worst, seen = 0.0, set()
    for (sa, fa), (sb, fb) in zip(coarse, coarse[1:]):
        pair = SWTrajectory((sa, sb), (fa, fb), 0.05)
        # knots are reproduced exactly
        for knot in (sa, sb):
            got = pair.interpolate(knot.t)
            assert np.abs(got.h0.values - knot.h0.values).max() < 1e-14
        # between knots the Hermite interpolant tracks the fine solution
        for j, s_fine in enumerate(fine):
            if sa.t - 1e-12 <= s_fine.t <= sb.t + 1e-12:
                seen.add(j)
                s_int = pair.interpolate(s_fine.t)
                worst = max(worst, np.abs(s_int.u0.values - s_fine.u0.values).max())
        with pytest.raises(ValueError):
            pair.interpolate(sb.t + 0.05)
    assert len(seen) == len(fine) and worst < 1e-7
    with pytest.raises(ValueError):  # the pair's spacing is its dt
        SWTrajectory((sa, sb), (fa, fb), 0.025)


def test_diagnostics_rows():
    g = Grid(1, 32)
    init = initial_wave(g)
    rows = [sw_diagnostics(s, P1) for s, _ in sw_steps(init, P1, T=0.01, dt=0.005)]
    assert len(rows) == 3
    assert rows[0] == (
        0.0, init.mass, sw_energy(init, P1), float(init.h0.values.min()), init.max_speed()
    )


# -- energy -------------------------------------------------------------------


def test_energy_closed_forms():
    g = Grid(1, 32)
    F = 2.0
    p = Params(F=F, Re=1.0, gamma_bar=1.0, eps=0.1)
    rest = initial_wave(g, amplitude=0.0)
    assert abs(sw_energy(rest, p) - 2 * np.pi / (2 * F**2)) < 1e-13
    c = 0.4
    moving = _state(g, lambda x: 1.0 + 0.0 * x, [lambda x: c + 0.0 * x])
    want = 2 * np.pi * (c**2 / 2 + 1 / (2 * F**2))
    assert abs(sw_energy(moving, p) - want) < 1e-13


def _energy_reference(s, p):
    """Energy from nested dealiased HField products and their integrals."""
    e = 0.5 * (s.h0 * s.h0).integral() / p.F**2
    for ui in s.u0.components():
        e += 0.5 * (s.h0 * (ui * ui)).integral()
    return float(e)


@pytest.mark.parametrize("n,N", [(1, 32), (1, 64), (2, 16), (2, 32)])
@pytest.mark.parametrize("masked", [False, True])
def test_energy_matches_nested_products(n, N, masked):
    # one padded pass is exact for the cubic integrand, as the nested
    # projections are, so the two agree to rounding (Nyquist included)
    g = Grid(n, N)
    rng = np.random.default_rng(10 * N + n)
    p = Params(F=0.7, Re=3.0, gamma_bar=0.8, eps=0.1)
    for _ in range(4):
        h0 = HField(g, 1.0 + 0.3 * rng.random(g.shape))
        u0 = HField(g, rng.standard_normal((n,) + g.shape))
        if masked:
            h0, u0 = h0.mask_two_thirds(), u0.mask_two_thirds()
        s = stacked_state(0.0, h0, u0)
        want = _energy_reference(s, p)
        assert abs(sw_energy(s, p) - want) <= 1e-15 * want


def test_energy_nonincreasing():
    g = Grid(1, 32)
    p = Params(F=1.0, Re=5.0, gamma_bar=1.0, eps=0.1)
    states = _states(initial_wave(g, amplitude=0.1, velocity_amplitude=0.05), p, T=2.0, dt=0.02)
    energies = [sw_energy(s, p) for s in states]
    diffs = np.diff(energies)
    assert diffs.max() <= 1e-8
    assert energies[-1] < energies[0]  # friction actually dissipates


# -- property checks ----------------------------------------------------------


@settings(max_examples=15, deadline=None)
@given(
    a=st.floats(0.01, 0.1),
    b=st.floats(0.0, 0.05),
    kap=st.integers(1, 2),
    Re=st.floats(1.0, 50.0),
)
def test_mass_and_energy_properties(a, b, kap, Re):
    g = Grid(1, 16)
    p = Params(F=1.0, Re=Re, gamma_bar=1.0, eps=0.1)
    s = initial_wave(g, amplitude=a, wavenumber=kap, velocity_amplitude=b)
    mass0, e_prev = s.mass, sw_energy(s, p)
    for _ in range(3):
        s = sw_step(s, p, 0.5 * stable_dt(s, p))
        assert abs(s.mass - mass0) < 1e-12 * abs(mass0)
        e = sw_energy(s, p)
        assert e <= e_prev + 1e-8
        e_prev = e
