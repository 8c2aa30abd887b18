"""Material description of the leading-order flow map and its chain rule.

The map follows the column ODEs

    dX0/dt = u0(X0),        dZ0/dt = -Z0 div(u0)(X0),

integrated with RK4 along the solver's stream of states, one consecutive
pair at a time; velocities at stage times come from the pair's cubic
Hermite interpolant and spatial values from trigonometric evaluation, so
positions never need wrapping into the periodic box. Two structural
facts shape the data layout: X0 does not depend on the vertical label z0
(positions are stored once per column), and the vertical ODE is linear and
homogeneous in Z0, so every level of a column shares one integrating
factor Z0/z0, stored once. RK4 advances the stack Y = (X0, Z0/z0) whole,
so the stage and update formulas are written once for both. The rate of
each state (`_flow_rate`) stacks the coefficients of u0 and div u0 once,
so each stage is one call of the grids evaluation kernel with one phase
table for both fields. The material levels z0 are the heights of one flat
`thinfields.Strip`, built once per chart stream and shared by its charts;
its vertical derivative is the chain rule's d/dz0.

The closed-form identities Z0 = z0*h0(t, X0) and det(dX0/dx0)*h0(t, X0) = 1
tie the map back to the evolved height field. `integrate_chart` yields the
chart of each state as it arrives, with the per-column volume defect and
the running sups of both identities; it evaluates h0 at X0 once and forms
dX0/dx0 once per state, and holds only that state's chart. The material
nodes x0 are the grid's cached `Grid.mesh`. `chart_records` turns one
chart into its CSV rows without touching h0 again. Both identities
converge at the integrator's order. `chain_rule_check` tests the change of
variable to the fixed domain on the one chart it is given, applying the
transposed Jacobian of the map block by block; `_xjacobian` is the one
place dX0/dx0 is formed, from one `grids.grad_values` of the whole
displacement stack, and the pullback's horizontal gradient likewise takes
one of its whole level stack.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .grids import Grid, HField, _eval_coefficients, grad_values
from .shallow_water import BlowupError, SWTrajectory
from .thinfields import Strip


@dataclass(frozen=True)
class Chart:
    """Flow-map sample at one time t on the material grid.

    strip is the flat Strip(grid, eps, nlev) whose heights are the material
    levels z0. xdisp holds X0 - x0 (periodic in x0, unbounded in value;
    evaluation of grid fields at X0 is trigonometric and hence wraps
    implicitly). zfactor holds Z0/z0, shared by all z levels of a column.
    """

    strip: Strip
    t: float
    xdisp: np.ndarray  # (n,) + grid.shape
    zfactor: np.ndarray  # grid.shape

    def __post_init__(self):
        n = self.grid.n
        if self.xdisp.shape != (n,) + self.grid.shape:
            raise ValueError(f"xdisp must have shape ({n},) + grid.shape")
        if self.zfactor.shape != self.grid.shape:
            raise ValueError("zfactor must have shape grid.shape")
        if not (np.isfinite(self.xdisp).all() and np.isfinite(self.zfactor).all()):
            raise ValueError("chart arrays must be finite")

    @property
    def grid(self) -> Grid:
        return self.strip.grid

    def positions(self) -> np.ndarray:
        """X0, shape (n,) + grid.shape."""
        return self.grid.mesh + self.xdisp

    def heights(self) -> np.ndarray:
        """Z0, shape (nlev,) + grid.shape."""
        return self.strip.z * self.zfactor


def _flow_rate(state):
    """The chart rate dY/dt = (u0(X0), (-Z0/z0) div u0(X0)) at this state,
    for chart states Y = (X0, Z0/z0) of shape (n + 1,) + any shape.

    The coefficients of u0, rows of q.spec (cached by sw_rhs on the states
    of sw_steps), and of div u0 = sum_a i kappa_a c_a are stacked once, so
    each call is one evaluation over shared phase tables.
    """
    g = state.grid
    n = g.n
    c_u = state.q.coefficients[1:]
    stacked = np.concatenate([c_u, (g.ik * c_u).sum(0)[None]])

    def rate(Y):
        k = _eval_coefficients(g, stacked, Y[:n].reshape(n, -1).T).reshape(Y.shape)
        k[n] *= -Y[n]
        return k

    return rate


def integrate_chart(steps, dt: float, eps: float, nlev: int = 8):
    """Integrate the flow map along a stream of states and check its identities.

    steps yields (state, tendency) pairs uniformly spaced by dt, as
    sw_steps does. The map starts from the identity at the first state and
    advances by RK4 over each consecutive pair, sampling the pair's Hermite
    midpoint; the RK4 state is one stack Y = (X0, Z0/z0). The charts share
    one flat Strip(grid, eps, nlev) of material z levels, built (and its eps
    and nlev checked) at the first state. As each state arrives, h0 is
    evaluated at X0 once and dX0/dx0 formed once, and (chart, defect,
    {"height", "volume"}) is yielded: defect is det(dX0/dx0) h0(t, X0) - 1
    per column (shaped like chart.zfactor), height is sup |Z0 - z0 h0(t, X0)|
    and volume sup |defect|, both over the states up to this one. Both
    identities vanish for the continuous map; discretely they decay at the
    integrator's order.
    """
    grid = None
    height = volume = 0.0
    for sb, fb in steps:
        if grid is None:
            grid = sb.grid
            n, shape = grid.n, grid.shape
            strip = Strip(grid, eps, nlev)
            x0 = grid.mesh
            Y = np.concatenate([x0, np.ones((1,) + shape)])
            f_b = _flow_rate(sb)
        else:
            mid = SWTrajectory((sa, sb), (fa, fb), dt).interpolate(sa.t + 0.5 * dt)
            f_a, f_m, f_b = f_b, _flow_rate(mid), _flow_rate(sb)
            k1 = f_a(Y)
            k2 = f_m(Y + 0.5 * dt * k1)
            k3 = f_m(Y + 0.5 * dt * k2)
            k4 = f_b(Y + dt * k3)
            Y = Y + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
            if not np.isfinite(Y).all():
                raise BlowupError(f"flow map lost finiteness at t = {sb.t:.6g}")
        d, G = Y[:n] - x0, Y[n]
        hX = sb.h0.eval_at((x0 + d).reshape(n, -1).T).reshape(shape)
        _, det = _xjacobian(grid, d)
        defect = det * hX - 1.0
        height = max(height, float(np.abs(strip.z * G - strip.z * hX).max()))
        volume = max(volume, float(np.abs(defect).max()))
        chart = Chart(strip=strip, t=sb.t, xdisp=d, zfactor=G)
        yield chart, defect, {"height": height, "volume": volume}
        sa, fa = sb, fb
    if grid is None:
        raise ValueError("no states to chart")


def _xjacobian(grid: Grid, disp: np.ndarray):
    """dX0/dx0 and its determinant for the displacement disp = X0 - x0.

    The displacement is periodic whatever the drift, so the derivative is
    spectral: one grad_values of the whole displacement stack. The identity
    block is added exactly.
    """
    n = grid.n
    J = grad_values(HField(grid, disp))  # J[a, b] = d disp_a / d x_b
    J[np.arange(n), np.arange(n)] += 1.0
    if n == 1:
        det = J[0, 0]
    else:
        det = J[0, 0] * J[1, 1] - J[0, 1] * J[1, 0]
    return np.moveaxis(J, (0, 1), (-2, -1)), det


def chain_rule_check(chart: Chart, f, grad_f) -> float:
    """Sup residual of (grad_x0, d_z0)(f o Phi) = A^T ((grad_x, d_z) f) o Phi.

    A = [[dX0/dx0, 0], [(grad_x0 Z0)^T, dZ0/dz0]] is the change-of-variable
    matrix of the chart. f(x, z) and grad_f(x, z) are closed-form callables
    (x stacked per component, z broadcastable); the left side differentiates
    the pullback spectrally in x0 and by Chebyshev collocation in z0.
    """
    strip = chart.strip
    n, shape, nlev = strip.grid.n, strip.grid.shape, strip.nz
    X = chart.positions()
    Z = chart.heights()
    Xb = np.broadcast_to(X[:, None], (n, nlev) + shape)
    F = np.asarray(f(Xb, Z), dtype=float)
    if F.shape != (nlev,) + shape:
        raise ValueError("f must return one value per material node")

    m = n + 1
    lhs = np.empty((m, nlev) + shape)
    lhs[:n] = grad_values(HField(chart.grid, F)).swapaxes(0, 1)
    lhs[n] = strip.dz(F)

    gf = np.asarray(grad_f(Xb, Z), dtype=float)
    if gf.shape != (m, nlev) + shape:
        raise ValueError("grad_f must return n+1 components per material node")
    # A^T block by block: dX0/dz0 = 0, dZ0/dz0 = zfactor, grad_x0 Z0 = z0 grad(zfactor)
    J, _ = _xjacobian(chart.grid, chart.xdisp)
    gz = grad_values(HField(chart.grid, chart.zfactor))
    rhs = np.empty_like(lhs)
    for b in range(n):
        rhs[b] = sum(J[..., a, b] * gf[a] for a in range(n)) + strip.z * gz[b] * gf[n]
    rhs[n] = chart.zfactor * gf[n]
    return float(np.abs(lhs - rhs).max())


def chart_header(n: int) -> list:
    """Columns of the chart CSV for an n-dimensional grid."""
    header = ["t"] + [f"x0_{a + 1}" for a in range(n)] + [f"X0_{a + 1}" for a in range(n)]
    return header + ["Z0_over_z0", "det_h0_minus_1"]


def chart_records(chart: Chart, defect: np.ndarray):
    """Rows of one chart for CSV export, one tuple per column in the order of
    `chart_header`; defect is the array `integrate_chart` yields with it."""
    if defect.shape != chart.zfactor.shape:
        raise ValueError("defect must have the shape of chart.zfactor")
    n = chart.grid.n
    return zip(
        repeat(chart.t),
        *chart.grid.mesh.reshape(n, -1).tolist(),
        *chart.positions().reshape(n, -1).tolist(),
        chart.zfactor.reshape(-1).tolist(),
        defect.reshape(-1).tolist(),
    )
