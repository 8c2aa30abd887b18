"""Material description of the leading-order flow map and its tensor algebra.

The map follows the column ODEs

    dX0/dt = u0(X0),        dZ0/dt = -Z0 div(u0)(X0),

integrated with RK4 over a stored shallow-water trajectory; velocities at
stage times come from the trajectory's cubic Hermite interpolant and spatial
values from trigonometric evaluation, so positions never need wrapping into
the periodic box. The sampler stacks the coefficients of u0 and div u0 once
per state, so each RK4 stage is one call of the grids evaluation kernel
with one phase table for both fields. Two structural facts shape the data
layout: X0 does not depend on the vertical label z0 (positions are stored
once per column), and the vertical ODE is linear and homogeneous in Z0, so
every level of a column shares one integrating factor Z0/z0, stored once.

The closed-form identities Z0 = z0*h0(t, X0) and det(dX0/dx0)*h0(t, X0) = 1
tie the map back to the evolved height field. `chart_check` measures both
in one pass over the trajectory, one evaluation of h0 at X0 and one
dX0/dx0 per state, and keeps the per-column volume defect; `chart_records`
streams the chart's CSV rows from that defect without touching h0 again.
Both identities converge at the integrator's order. `jacobian`,
`transformed_deformation` and `chain_rule_check` provide the change-of-
variable algebra used by the fixed-domain form of the equations; the
per-node inverses come from `np.linalg.inv`.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .chebyshev import diff_matrix, gl_nodes
from .grids import Grid, HField, _eval_coefficients, grad
from .shallow_water import BlowupError, Params, SWTrajectory

__all__ = [
    "Chart",
    "JacobianField",
    "DegenerateChartError",
    "integrate_chart",
    "chart_check",
    "chart_identities",
    "jacobian",
    "transformed_deformation",
    "chain_rule_check",
    "bottom_slip_residual",
    "chart_records",
]

ILL_CONDITIONED = 1e8


class DegenerateChartError(RuntimeError):
    """The flow map stopped being orientation preserving."""


@dataclass(frozen=True)
class Chart:
    """Flow-map samples over time on the material grid.

    xdisp holds X0 - x0 (periodic in x0, unbounded in value; evaluation of
    grid fields at X0 is trigonometric and hence wraps implicitly). zfactor
    holds Z0/z0, shared by all z levels of a column.
    """

    grid: Grid
    eps: float
    z_levels: np.ndarray  # (nlev,) ascending in [0, eps]
    times: np.ndarray  # (nt,)
    xdisp: np.ndarray  # (nt, n) + grid.shape
    zfactor: np.ndarray  # (nt,) + grid.shape

    def __post_init__(self):
        if not (np.isfinite(self.eps) and 0.0 < self.eps < 1.0):
            raise ValueError(f"eps must lie in (0, 1), got {self.eps}")
        z = np.asarray(self.z_levels, dtype=float)
        if z.ndim != 1 or z.size < 2:
            raise ValueError("z_levels must be a 1d array with at least 2 entries")
        # vertical differentiation is collocation based, so the levels are
        # pinned to the Gauss-Lobatto family on [0, eps]
        if np.abs(z - self.eps * gl_nodes(z.size)).max() > 1e-12 * self.eps:
            raise ValueError("z_levels must be eps * gl_nodes(nlev)")
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or t.size < 1:
            raise ValueError("times must be a nonempty 1d array")
        if t.size > 1:
            steps = np.diff(t)
            if np.any(steps <= 0.0) or np.abs(steps - steps[0]).max() > 1e-9 * max(
                1.0, steps[0]
            ):
                raise ValueError("times must increase uniformly")
        nt, n = t.size, self.grid.n
        if self.xdisp.shape != (nt, n) + self.grid.shape:
            raise ValueError(f"xdisp must have shape (nt, {n}) + grid.shape")
        if self.zfactor.shape != (nt,) + self.grid.shape:
            raise ValueError("zfactor must have shape (nt,) + grid.shape")
        if not (np.isfinite(self.xdisp).all() and np.isfinite(self.zfactor).all()):
            raise ValueError("chart arrays must be finite")

    @property
    def nlev(self) -> int:
        return self.z_levels.size

    @property
    def dt(self) -> float:
        if self.times.size < 2:
            raise ValueError("single-frame chart has no dt")
        return float(self.times[1] - self.times[0])

    def index_of(self, t: float) -> int:
        hits = np.nonzero(np.isclose(self.times, t, rtol=0.0, atol=1e-10))[0]
        if hits.size != 1:
            raise ValueError(f"t = {t} is not among the chart times")
        return int(hits[0])

    def positions(self, i: int) -> np.ndarray:
        """X0 at time index i, shape (n,) + grid.shape."""
        return _material_nodes(self.grid) + self.xdisp[i]

    def heights(self, i: int) -> np.ndarray:
        """Z0 at time index i, shape (nlev,) + grid.shape."""
        z = self.z_levels.reshape((-1,) + (1,) * self.grid.n)
        return z * self.zfactor[i]


@dataclass(frozen=True)
class JacobianField:
    """Per-node change-of-variable matrices A at one chart time.

    matrices has shape (nlev,) + grid.shape + (n+1, n+1) with block layout
    [[dX0/dx0, 0], [(grad_x0 Z0)^T, dZ0/dz0]]; dets caches det A, which is
    positive by construction (orientation preserving).
    """

    t: float
    z_levels: np.ndarray
    matrices: np.ndarray
    dets: np.ndarray

    def __post_init__(self):
        if self.matrices.shape[-1] != self.matrices.shape[-2]:
            raise ValueError("matrices must be square per node")
        if self.dets.shape != self.matrices.shape[:-2]:
            raise ValueError("dets must carry one value per node")
        if not np.isfinite(self.matrices).all():
            raise ValueError("matrices must be finite")
        if np.any(self.dets <= 0.0):
            raise DegenerateChartError(
                f"chart lost orientation at t = {self.t:.6g} "
                f"(min det = {self.dets.min():.3g})"
            )


def _material_nodes(grid: Grid) -> np.ndarray:
    return np.stack(np.broadcast_arrays(*grid.coords())).astype(float)


def _flow_sampler(state, shape):
    """Evaluator of (u0, div u0) at arbitrary positions (n,) + shape.

    The coefficients of u0 and of div u0 = sum_a i kappa_a c_a are stacked
    once, so each call is one evaluation over shared phase tables.
    """
    g = state.grid
    n = g.n
    c_u = state.u0.coefficients
    stacked = np.concatenate([c_u, (g.ik * c_u).sum(0)[None]])

    def at(pos):
        vals = _eval_coefficients(g, stacked, pos.reshape(n, -1).T)
        return vals[:n].reshape((n,) + shape), vals[n].reshape(shape)

    return at


def integrate_chart(
    traj: SWTrajectory,
    eps: float,
    nlev: int = 8,
    x_start: np.ndarray | None = None,
    zfactor_start: np.ndarray | None = None,
) -> Chart:
    """Integrate the flow map over a trajectory with the trajectory's dt.

    By default the map starts from the identity at traj.times[0]; x_start
    and zfactor_start restart it from a previous leg instead (positions may
    lie outside the periodic box, values are taken as given).
    """
    if nlev < 2:
        raise ValueError(f"need at least 2 vertical levels, got {nlev}")
    grid = traj.states[0].grid
    n, shape = grid.n, grid.shape
    x0 = _material_nodes(grid)

    if x_start is None:
        X = x0.copy()
    else:
        X = np.array(x_start, dtype=float)
        if X.shape != (n,) + shape:
            raise ValueError(f"x_start must have shape ({n},) + grid.shape")
    if zfactor_start is None:
        G = np.ones(shape)
    else:
        G = np.array(zfactor_start, dtype=float)
        if G.shape != shape:
            raise ValueError("zfactor_start must have grid.shape")

    nt = len(traj)
    dt = traj.dt
    xdisp = np.empty((nt, n) + shape)
    zfactor = np.empty((nt,) + shape)
    xdisp[0] = X - x0
    zfactor[0] = G

    for k in range(nt - 1):
        sa, sb = traj.states[k], traj.states[k + 1]
        f_a = _flow_sampler(sa, shape)
        f_m = _flow_sampler(traj.interpolate(sa.t + 0.5 * dt), shape)
        f_b = _flow_sampler(sb, shape)

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
        if not (np.isfinite(X).all() and np.isfinite(G).all()):
            raise BlowupError(f"flow map lost finiteness at t = {sb.t:.6g}")
        xdisp[k + 1] = X - x0
        zfactor[k + 1] = G

    return Chart(
        grid=grid,
        eps=float(eps),
        z_levels=float(eps) * gl_nodes(nlev),
        times=traj.times,
        xdisp=xdisp,
        zfactor=zfactor,
    )


def _xjacobian(chart: Chart, i: int):
    """dX0/dx0 and its determinant at time index i.

    The displacement is periodic whatever the drift, so the derivative is
    spectral; the identity block is added exactly.
    """
    n, shape = chart.grid.n, chart.grid.shape
    F = np.empty(shape + (n, n))
    for a in range(n):
        ga = grad(HField(chart.grid, chart.xdisp[i, a])).values
        for b in range(n):
            F[..., a, b] = ga[b]
        F[..., a, a] += 1.0
    if n == 1:
        det = F[..., 0, 0]
    else:
        det = F[..., 0, 0] * F[..., 1, 1] - F[..., 0, 1] * F[..., 1, 0]
    return F, det


def chart_check(chart: Chart, traj: SWTrajectory) -> tuple[dict, np.ndarray]:
    """Identity sups and the volume defect, from one pass over the states.

    Each state costs one evaluation of h0 at X0 and one dX0/dx0. Returns
    ({"height", "volume"}, defect): height is sup |Z0 - z0 h0(t, X0)|,
    defect[i] is det(dX0/dx0) h0(t, X0) - 1 per column at time index i
    (shaped like chart.zfactor), and volume is sup |defect|. Both identities
    vanish for the continuous map; discretely they decay at the integrator's
    order.
    """
    if len(traj) != chart.times.size or np.abs(traj.times - chart.times).max() > 1e-9:
        raise ValueError("chart and trajectory must share times")
    n, shape = chart.grid.n, chart.grid.shape
    zcol = chart.z_levels.reshape((-1,) + (1,) * n)
    defect = np.empty_like(chart.zfactor)
    height = 0.0
    for i, s in enumerate(traj.states):
        pts = chart.positions(i).reshape(n, -1).T
        hX = s.h0.eval_at(pts).reshape(shape)
        height = max(height, float(np.abs(chart.heights(i) - zcol * hX).max()))
        _, det = _xjacobian(chart, i)
        defect[i] = det * hX - 1.0
    return {"height": height, "volume": float(np.abs(defect).max())}, defect


def chart_identities(chart: Chart, traj: SWTrajectory) -> dict:
    """Sup residuals of the height and volume identities over all times."""
    return chart_check(chart, traj)[0]


def jacobian(chart: Chart, t: float) -> JacobianField:
    """Assemble A per node at a chart time.

    dX0/dz0 = 0 is structural; dZ0/dz0 equals the shared column factor
    exactly, and grad_x0 Z0 = z0 grad(zfactor) is spectral.
    """
    i = chart.index_of(t)
    n, shape = chart.grid.n, chart.grid.shape
    nlev = chart.nlev
    F, detF = _xjacobian(chart, i)
    zf = chart.zfactor[i]
    gz = grad(HField(chart.grid, zf)).values  # (n,) + shape

    m = n + 1
    A = np.zeros((nlev,) + shape + (m, m))
    A[..., :n, :n] = F
    A[..., n, n] = zf
    zcol = chart.z_levels.reshape((-1,) + (1,) * n)
    for b in range(n):
        A[..., n, b] = zcol * gz[b]
    dets = np.broadcast_to(detF * zf, (nlev,) + shape).copy()
    return JacobianField(t=float(t), z_levels=chart.z_levels, matrices=A, dets=dets)


def transformed_deformation(grad_u: np.ndarray, A) -> np.ndarray:
    """P = (grad u) A^-1 A^-T + A^-T (grad u)^T A^-T per node.

    A may be a JacobianField or a raw matrix stack; with A = Id this reduces
    to the symmetric velocity gradient. A condition estimate above 1e8
    attaches a RuntimeWarning (results keep flowing; the caller judges); an
    exactly singular node raises numpy.linalg.LinAlgError.
    """
    mats = A.matrices if isinstance(A, JacobianField) else np.asarray(A, dtype=float)
    gu = np.asarray(grad_u, dtype=float)
    if gu.shape[-2:] != mats.shape[-2:]:
        raise ValueError("grad_u and A must have matching node dimension")
    inv = np.linalg.inv(mats)
    cond = np.sqrt(
        (mats**2).sum(axis=(-2, -1)).max() * (inv**2).sum(axis=(-2, -1)).max()
    )
    if cond > ILL_CONDITIONED:
        warnings.warn(
            f"flow-map matrices are ill conditioned (estimate {cond:.2e})",
            RuntimeWarning,
            stacklevel=2,
        )
    inv_t = np.swapaxes(inv, -1, -2)
    gu_t = np.swapaxes(gu, -1, -2)
    return gu @ inv @ inv_t + inv_t @ gu_t @ inv_t


def chain_rule_check(chart: Chart, t: float, f, grad_f) -> float:
    """Sup residual of (grad_x0, d_z0)(f o Phi) = A^T ((grad_x, d_z) f) o Phi.

    f(x, z) and grad_f(x, z) are closed-form callables (x stacked per
    component, z broadcastable); the left side differentiates the pullback
    spectrally in x0 and by Chebyshev collocation in z0.
    """
    i = chart.index_of(t)
    n, shape = chart.grid.n, chart.grid.shape
    nlev = chart.nlev
    X = chart.positions(i)
    Z = chart.heights(i)
    Xb = np.broadcast_to(X[:, None], (n, nlev) + shape)
    F = np.asarray(f(Xb, Z), dtype=float)
    if F.shape != (nlev,) + shape:
        raise ValueError("f must return one value per material node")

    m = n + 1
    lhs = np.empty((m, nlev) + shape)
    for lev in range(nlev):
        lhs[:n, lev] = grad(HField(chart.grid, F[lev])).values
    D = diff_matrix(nlev) / chart.eps  # z0 in [0, eps]
    lhs[n] = np.tensordot(D, F, axes=([1], [0]))

    gf = np.asarray(grad_f(Xb, Z), dtype=float)
    if gf.shape != (m, nlev) + shape:
        raise ValueError("grad_f must return n+1 components per material node")
    Amat = jacobian(chart, t).matrices
    gcol = np.moveaxis(gf, 0, -1)[..., None]  # (nlev,)+shape+(m,1)
    rhs = np.moveaxis((np.swapaxes(Amat, -1, -2) @ gcol)[..., 0], -1, 0)
    return float(np.abs(lhs - rhs).max())


def bottom_slip_residual(chart: Chart, t: float, u_h, dz_u_h, p: Params) -> np.ndarray:
    """det(dX0/dx0) d_z0(u_H)|_bottom - eps gamma_bar u_H|_bottom per node.

    u_h and dz_u_h are bottom traces on the material grid, shape (n,) +
    grid.shape. Under the identity map this is exactly the Navier slip
    defect of the original coordinates.
    """
    if abs(p.eps - chart.eps) > 1e-12:
        raise ValueError("params and chart disagree on eps")
    i = chart.index_of(t)
    u = np.asarray(u_h, dtype=float)
    du = np.asarray(dz_u_h, dtype=float)
    want = (chart.grid.n,) + chart.grid.shape
    if u.shape != want or du.shape != want:
        raise ValueError(f"bottom traces must have shape {want}")
    _, det = _xjacobian(chart, i)
    return det * du - p.eps * p.gamma_bar * u


def chart_records(chart: Chart, defect: np.ndarray):
    """Header and lazy per-(time, column) rows of the chart for CSV export.

    Columns: t, x0_*, X0_*, Z0_over_z0, det_h0_minus_1; defect is the array
    `chart_check` returns. Rows are tuples in header order, built one time
    index at a time.
    """
    n = chart.grid.n
    header = ["t"] + [f"x0_{a + 1}" for a in range(n)] + [f"X0_{a + 1}" for a in range(n)]
    header += ["Z0_over_z0", "det_h0_minus_1"]
    if defect.shape != chart.zfactor.shape:
        raise ValueError("defect must have the shape of chart.zfactor")

    def rows():
        x0 = _material_nodes(chart.grid).reshape(n, -1).tolist()
        for i, t in enumerate(chart.times.tolist()):
            X = chart.positions(i).reshape(n, -1).tolist()
            yield from zip(
                repeat(t),
                *x0,
                *X,
                chart.zfactor[i].reshape(-1).tolist(),
                defect[i].reshape(-1).tolist(),
            )

    return header, rows()
