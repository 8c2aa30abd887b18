"""Viscous shallow-water dynamics on the periodic torus.

The unknowns are the layer depth h0 > 0 and the mean horizontal velocity
u0, held as one stacked field q = (h0, u0_1, ..., u0_n) that the tendency,
the RK4 step and the Hermite interpolant treat whole. The momentum equation
is advanced in velocity form (divided through by h0), with height-weighted
viscous stresses and a linear bottom friction gamma_bar * u0 / Re. All
quadratic terms are evaluated on a padded grid and the tendencies are
truncated to the 2/3 wavenumber band, so the retained modes follow the exact
Galerkin dynamics of the band.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .failures import NumericalFailure
from .grids import FineWork, Grid, HField, _fine_to_spec, _spec_to_fine

# Explicit-step safety factors and the depth floor that aborts a run well
# before the equations degenerate.
C_ADV = 0.5
C_VISC = 0.2
VACUUM_FLOOR = 0.1


class DegenerateStateError(ValueError, NumericalFailure):
    """The layer depth reached the vacuum guard."""


class BlowupError(RuntimeError, NumericalFailure):
    """Non-finite values appeared during time stepping."""


class StabilityError(ValueError, NumericalFailure):
    """The requested step exceeds the explicit stability bound."""


@dataclass(frozen=True)
class Params:
    """Dimensionless constants of the thin-layer scaling.

    eps is the layer aspect ratio. The unscaled Froude number and friction
    coefficient recover as F0^2 = eps * F**2 and gamma = eps * gamma_bar.
    """

    F: float
    Re: float
    gamma_bar: float
    eps: float

    def __post_init__(self):
        for name in ("F", "Re", "gamma_bar", "eps"):
            v = getattr(self, name)
            try:
                finite = math.isfinite(v)
            except OverflowError:  # an int beyond the float range
                finite = False
            if not finite:
                raise ValueError(f"{name} must be finite, got {v}")
        if self.F <= 0.0 or self.Re <= 0.0:
            raise ValueError("F and Re must be positive")
        if self.F * self.F == 0.0:
            raise ValueError(f"F * F underflows to 0 at F = {self.F}")
        if float(self.F) * float(self.F) == float("inf"):
            raise ValueError(f"F * F overflows at F = {self.F}")
        if self.gamma_bar < 0.0:
            raise ValueError(f"gamma_bar must be nonnegative, got {self.gamma_bar}")
        if not 0.0 < self.eps < 1.0:
            raise ValueError(f"eps must lie in (0, 1), got {self.eps}")


class SWState:
    """Layer depth and mean horizontal velocity at one instant, stacked in q.

    q = (h0, u0_1, ..., u0_n) has 1 + n components; h0 and u0 view its rows.
    """

    __slots__ = ("t", "q", "h0", "u0", "mass")

    def __init__(self, t: float, q: HField):
        g, want = q.grid, (1 + q.grid.n,) + q.grid.shape
        if q.values.shape != want:
            raise ValueError(f"q must stack (h0, u0) as shape {want}, got {q.values.shape}")
        hmin = float(q.values[0].min())
        if hmin <= 0.0:
            raise DegenerateStateError(f"min h0 = {hmin:.3g} at t = {t:.6g} is not positive")
        self.t = float(t)
        self.q = q
        self.h0, self.u0 = HField(g, q.values[0]), HField(g, q.values[1:])
        self.mass = self.h0.integral()

    @property
    def grid(self) -> Grid:
        return self.q.grid

    def max_speed(self) -> float:
        """Largest pointwise Euclidean velocity magnitude; inf when a square
        overflows."""
        with np.errstate(over="ignore"):
            return float(np.sqrt((self.u0.values**2).sum(axis=0)).max())


def initial_wave(
    grid: Grid,
    amplitude: float = 0.05,
    wavenumber: int = 1,
    velocity_amplitude: float = 0.0,
) -> SWState:
    """Single-mode initial data h0 = 1 + a cos(k x1), u0 = b sin(k x1) e1."""
    kap = 2.0 * np.pi * wavenumber / grid.L
    x1 = grid.coords()[0]
    q = np.zeros((1 + grid.n,) + grid.shape)
    q[0] += 1.0 + amplitude * np.cos(kap * x1)
    q[1] += velocity_amplitude * np.sin(kap * x1)
    return SWState(0.0, HField(grid, q))


def sym_grad(u: HField) -> list[list[HField]]:
    """Symmetric velocity gradient D(u) = grad u + (grad u)^T, no 1/2."""
    n = u.grid.n
    du = [[u.component(i).dx(a) for a in range(n)] for i in range(n)]
    return [[du[i][a] + du[a][i] for a in range(n)] for i in range(n)]


# Upper triangle (i, a), a >= i, of a symmetric n x n tensor, row by row:
# the slots of h0 D(u0) in sw_rhs.
_PAIRS = {n: [(i, a) for i in range(n) for a in range(i, n)] for n in (1, 2)}


def _nprod(n: int) -> int:
    """Products sw_rhs forms on the padded grid: h0 u0 (n), the advection
    (n), h0^2 (1) and the upper triangle of h0 D(u0) (n(n+1)/2)."""
    return 2 * n + 1 + n * (n + 1) // 2


def _rhs_work(grid: Grid) -> FineWork:
    """Work area of sw_rhs: padded spectra of its 1 + n + n^2 inputs (h0,
    u0, grad u0); fine slots for its products followed by the inputs; fine
    spectra of its products. The quotient by h0 reuses the first n slots of
    each."""
    n = grid.n
    nin = 1 + n + n * n
    return FineWork(grid, nin, _nprod(n) + nin, _nprod(n))


def sw_rhs(s: SWState, p: Params, work: FineWork | None = None) -> HField:
    """Tendency dt q = (dth0, dtu0) of the depth/velocity system, stacked as q.

    dth0 = -div(h0 u0)
    dtu0 = -(u0 . grad) u0 - grad(h0^2 / 2F^2) / h0
           + (div(h0 D(u0)) + 2 grad(h0 div u0) - gamma_bar u0) / (Re h0)

    The pressure and viscous numerators share the divisor h0, so they are
    added in spectral space and divided once, pointwise on the padded grid.
    D is symmetric and 2 h0 div u0 = trace(h0 D), so the viscous numerator
    is div(h0 D) + grad trace(h0 D) - gamma_bar u0, and only the n(n+1)/2
    products of the upper triangle of h0 D are formed. Both tendencies are
    projected onto the 2/3 band (the band edge is where the weighted viscous
    operator, effective viscosity about 4 max(h0) / Re, would outrun the
    advertised step bound).

    The transforms are batched, one per stage (five): 1 + n + n^2 inputs
    (h0, u0, grad u0) to the padded grid, 2n + 1 + n(n+1)/2 products back,
    and n numerators through the quotient, 19 fine-grid fields in 2D and 9
    in 1D. The inputs enter through the state's one stacked spectrum q.spec,
    which later readers of the state such as sw_energy reuse. The padded
    stages live in work, the area sw_steps builds once per run (a fresh
    one when work is None): the fine fields h0, u0 and grad u0 sit behind
    the product slots (h0 u0 | (u0 . grad) u0 | h0^2 | h0 D(u0), upper
    triangle row by row), the products are formed in place and transformed
    from there, and the quotient reuses the first n padded and product
    slots, which are spent by then. Only the truncated spectra and the
    returned tendency are fresh arrays; nothing of work is returned. The
    projections are those of the HField product/derivative path: each
    quadratic product and the quotient by h0 are formed on the padded grid
    and truncated to the N-mode band before they are differentiated or
    combined, so the two agree to rounding.
    """
    g = s.grid
    n = g.n
    if work is None:
        work = _rhs_work(g)
    ik = g.ik  # ik[a] = d/dx_a
    pairs = _PAIRS[n]

    state = s.q.spec
    U = state[1:]
    dU = U[:, None] * ik  # dU[i, a] = d u_i / d x_a
    stage = np.concatenate([state, dU.reshape((n * n,) + g.spec_shape)])

    nprod = _nprod(n)
    fine = _spec_to_fine(g, stage, work.padded[: len(stage)], work.fine[nprod:])
    hf, uf = fine[0], fine[1 : 1 + n]
    duf = fine[1 + n :].reshape((n, n) + hf.shape)
    prods = work.fine[:nprod]  # h0 u0 | (u0 . grad) u0 | h0^2 | h0 D(u0), upper triangle
    np.multiply(hf, uf, out=prods[:n])
    adv = prods[n : 2 * n]
    hD = prods[2 * n + 1 :]
    np.multiply(uf[0], duf[:, 0], out=adv)
    for a in range(1, n):  # hD[:n] is scratch until h0 D(u0) is formed
        np.multiply(uf[a], duf[:, a], out=hD[:n])
        adv += hD[:n]
    np.multiply(hf, hf, out=prods[2 * n])
    for k, (i, a) in enumerate(pairs):
        np.add(duf[i, a], duf[a, i], out=hD[k])
    hD *= hf
    spec = _fine_to_spec(g, prods, work.spec)
    hu, adv, hh = spec[:n], spec[n : 2 * n], spec[2 * n]
    hD = spec[2 * n + 1 :]
    hD *= 1.0 / p.Re

    dth0 = -(ik * hu).sum(axis=0)
    # one numerator per component, divided by h0 once:
    # (div(h0 D) + grad trace(h0 D) - gamma_bar u0) / Re - grad(h0^2 / 2F^2)
    trace = sum(hD[k] for k, (i, a) in enumerate(pairs) if i == a)
    num = ik * (trace - hh * (0.5 / p.F**2)) - (p.gamma_bar / p.Re) * U
    for k, (i, a) in enumerate(pairs):  # div(h0 D) / Re
        num[i] += ik[a] * hD[k]
        if a != i:
            num[a] += ik[i] * hD[k]
    quot = work.fine[:n]
    _spec_to_fine(g, num, work.padded[:n], quot)
    quot /= hf
    dtu0 = _fine_to_spec(g, quot, work.spec[:n]) - adv
    return HField.from_spec(g, np.concatenate([dth0[None], dtu0]) * g.dealias_keep)


def stable_dt(s: SWState, p: Params) -> float:
    """Explicit step bound min(C_ADV dx / max|u0|, C_VISC Re dx^2)."""
    dx = s.grid.dx
    bound = C_VISC * p.Re * dx * dx
    umax = s.max_speed()
    if umax > 0.0:
        bound = min(bound, C_ADV * dx / umax)
    return bound


def _check_step(s: SWState, p: Params, dt: float) -> None:
    """Raise StabilityError when dt exceeds stable_dt(s, p)."""
    bound = stable_dt(s, p)
    if dt > bound * (1.0 + 1e-9):
        raise StabilityError(f"dt = {dt:.4g} exceeds the stability bound {bound:.4g}")


def _check_vacuum(h0: np.ndarray, t: float) -> None:
    """Raise DegenerateStateError when min h0 is at or below VACUUM_FLOOR."""
    hmin = float(h0.min())
    if hmin <= VACUUM_FLOOR:
        raise DegenerateStateError(
            f"min h0 = {hmin:.3g} at t = {t:.6g} breached the vacuum floor"
        )


def sw_step(
    s: SWState,
    p: Params,
    dt: float,
    k1: HField | None = None,
    work: FineWork | None = None,
) -> SWState:
    """One explicit RK4 step of length dt.

    dt must respect the stable_dt bound. The new state is checked for
    finiteness and against the vacuum floor. k1 is the stacked tendency
    sw_rhs(s, p) when the caller already holds it (first same as last); it
    is evaluated otherwise. work is the sw_rhs work area of the caller's
    solve, if it keeps one.
    """
    dt = float(dt)
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    _check_step(s, p, dt)

    with np.errstate(over="ignore", invalid="ignore"):
        # a stage that overflows leaves inf or nan, which the checks below report
        w = 0.5 * dt
        k1 = sw_rhs(s, p, work) if k1 is None else k1
        k2 = sw_rhs(SWState(s.t + w, s.q + w * k1), p, work)
        k3 = sw_rhs(SWState(s.t + w, s.q + w * k2), p, work)
        k4 = sw_rhs(SWState(s.t + dt, s.q + dt * k3), p, work)
        q_new = s.q + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)

    t_new = s.t + dt
    if not np.isfinite(q_new.values).all():
        raise BlowupError(
            f"non-finite fields at t = {t_new:.6g} "
            f"(max|u| before the step was {s.max_speed():.3g})"
        )
    _check_vacuum(q_new.values[0], t_new)
    return SWState(t_new, q_new)


class SWTrajectory:
    """Two consecutive states with their stored tendencies, dt apart.

    Keeping the stacked tendency dt q alongside each state makes the pair a
    cubic Hermite interpolant of q in time, fourth order between the knots.
    The chart integrator builds one over each pair of consecutive states of
    sw_steps to sample the midpoint between them.
    """

    def __init__(self, states, tendencies, dt: float):
        (sa, sb), (fa, fb) = states, tendencies
        if abs((sb.t - sa.t) - dt) > 1e-9 * max(1.0, abs(dt)):
            raise ValueError(f"dt = {dt} does not match the states' spacing {sb.t - sa.t}")
        self.sa, self.sb, self.fa, self.fb = sa, sb, fa, fb
        self.dt = float(dt)

    def interpolate(self, t: float) -> SWState:
        """State at a time t between the knots by cubic Hermite interpolation."""
        sa, sb = self.sa, self.sb
        if not sa.t - 1e-12 <= t <= sb.t + 1e-12:
            raise ValueError(f"t = {t} outside [{sa.t}, {sb.t}]")
        th = (t - sa.t) / self.dt
        w00 = (1.0 + 2.0 * th) * (1.0 - th) ** 2
        w10 = th * (1.0 - th) ** 2
        w01 = th * th * (3.0 - 2.0 * th)
        w11 = th * th * (th - 1.0)
        q = (
            w00 * sa.q.values
            + w01 * sb.q.values
            + self.dt * (w10 * self.fa.values + w11 * self.fb.values)
        )
        return SWState(t, HField(sa.grid, q))


def sw_steps(init: SWState, p: Params, T: float, dt: float):
    """Advance init over [t0, t0 + T] in the fewest steps of at most dt.

    A T within 1e-9 (relative to max(1, T)) of a multiple of dt steps with
    dt itself; any other T steps with T / ceil(T / dt). Yields
    (state, sw_rhs(state, p)) for init and after each step; each stacked
    tendency is the next step's k1. A dt <= 0, or a T / dt that overflows,
    allows no finite step count and raises StabilityError. That check, the
    step bound and the vacuum floor run on init before the first tendency
    is evaluated, at the first next(), so a run that cannot step fails at t0
    before any arithmetic on the state. Vacuum and blowup errors propagate
    with the failing time attached. One sw_rhs work area serves every
    tendency of the run and is dropped when the generator is.
    """
    if not T > 0.0:
        raise ValueError(f"T must be positive, got {T}")
    steps = T / dt if dt > 0.0 else math.inf
    if not math.isfinite(steps):
        raise StabilityError(f"step {dt:.3g} allows no finite step count over T = {T:.3g}")
    nsteps = round(steps)
    if nsteps < 1 or abs(nsteps * dt - T) > 1e-9 * max(1.0, T):
        nsteps = math.ceil(steps)
        dt = T / nsteps
    _check_step(init, p, dt)
    _check_vacuum(init.h0.values, init.t)
    work = _rhs_work(init.grid)
    s, f = init, sw_rhs(init, p, work)
    yield s, f
    for _ in range(nsteps):
        s = sw_step(s, p, dt, k1=f, work=work)
        with np.errstate(over="ignore", invalid="ignore"):
            f = sw_rhs(s, p, work)  # an overflow here fails the next step
        yield s, f


def sw_energy(s: SWState, p: Params) -> float:
    """Total energy E = int h0 |u0|^2 / 2 + h0^2 / (2 F^2).

    One padded pass: the cached stacked spectrum q.spec goes to the PAD-fine
    grid, and the integral is the fine-grid mean times the volume. The
    integrand is cubic, its highest mode 3N/2 lies below the fine grid's 2N,
    so the fine trapezoid sum is exact.
    """
    g = s.grid
    fine = _spec_to_fine(g, s.q.spec)
    h, u = fine[0], fine[1:]
    dens = h * h * (0.5 / p.F**2) + 0.5 * h * (u * u).sum(0)
    return float(dens.mean() * g.volume)


def sw_diagnostics(s: SWState, p: Params) -> tuple:
    """(t, mass, energy, min_h, max_u) of one state."""
    return s.t, s.mass, sw_energy(s, p), float(s.h0.values.min()), s.max_speed()
