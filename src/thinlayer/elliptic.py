"""Thin-strip elliptic subproblems, one horizontal Fourier mode at a time.

The pressure and divergence-lift equations on the flat-top strip
X x (0, eps) decouple into 1D two-point problems -p'' + |k|^2 p = f per
horizontal mode. Each is solved by Chebyshev collocation in the scaled
vertical coordinate zeta = z/eps (the system is assembled in zeta form,
-p_zz + (|k| eps)^2 p = eps^2 f, which keeps the matrix entries modest and
the post-solve residual check meaningful). Every solve re-checks its own
collocation residual; a solve that cannot certify 1e-10 raises rather than
returning a profile. A single-mode profile is solved on MODE_NZ = 20
Gauss-Lobatto nodes; the divergence lift uses the nodes of its source.

The measured H1 ratios are the sharp elliptic constants: for the
Dirichlet-top problem the ratio (||p'||^2 + k^2 ||p||^2) / (|k| h_k^2)
equals tanh(|k| eps) exactly, which is the uniform-in-eps bound the
surrounding asymptotics rely on. The Neumann-bottom ratio is reported
against eps g_k^2, the scaling under which it is eps-uniform.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chebyshev import clenshaw_curtis_weights, diff_matrix, gl_nodes
from .grids import HField, deriv
from .thinfields import ThinField

RESIDUAL_TOL = 1e-10
MODE_NZ = 20  # Gauss-Lobatto nodes of every single-mode profile solve


class SolverError(RuntimeError):
    """A collocation solve failed its own residual certificate."""


@dataclass(frozen=True)
class ModeProfile:
    """One vertical profile p(z) on z = eps * zeta, zeta Gauss-Lobatto."""

    k: float
    eps: float
    z: np.ndarray
    values: np.ndarray
    ratio: float
    residual: float


def _solve_certified(m: np.ndarray, rhs: np.ndarray, scale: float, label: str):
    sol = np.linalg.solve(m, rhs)
    res = float(np.abs(m @ sol - rhs).max())
    if res > RESIDUAL_TOL * max(1.0, scale):
        raise SolverError(
            f"{label}: collocation residual {res:.3e} exceeds "
            f"{RESIDUAL_TOL:g} x scale {scale:.3g}"
        )
    return sol, res


def _mode_operator(nz: int, a: float):
    """-d^2/dzeta^2 + a^2 on [0,1] Gauss-Lobatto collocation."""
    d = diff_matrix(nz)
    return d, -d @ d + (a * a) * np.eye(nz)


def _h1_pair(values: np.ndarray, k: float, eps: float) -> float:
    """integral of p'^2 + k^2 p^2 over (0, eps) by Clenshaw-Curtis."""
    nz = values.shape[0]
    dp = diff_matrix(nz) @ values / eps
    w = clenshaw_curtis_weights(nz) * eps
    return float(w @ (dp * dp + (k * k) * values * values))


def _mode_profile(k: float, eps: float, slope: float, top: float, label: str) -> ModeProfile:
    """Solve -p'' + k^2 p = 0, p'(0) = slope, p(eps) = top, on MODE_NZ nodes.

    The ratio is the H1 pair ||p'||^2 + k^2 ||p||^2 over the data norm
    |k| top^2 + eps slope^2 (0 for zero data).
    """
    if k == 0.0 or not np.isfinite(k):
        raise ValueError(f"mode number must be finite and nonzero, got {k}")
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    d, m = _mode_operator(MODE_NZ, abs(k) * eps)
    rhs = np.zeros(MODE_NZ)
    m[0] = d[0]
    rhs[0] = eps * slope  # physical slope in zeta units
    m[-1] = 0.0
    m[-1, -1] = 1.0
    rhs[-1] = top
    scale = max(abs(top), eps * abs(slope))
    values, res = _solve_certified(m, rhs, scale, label)
    data = abs(k) * top * top + eps * slope * slope
    ratio = _h1_pair(values, k, eps) / data if data != 0.0 else 0.0
    return ModeProfile(
        k=float(k), eps=float(eps), z=eps * gl_nodes(MODE_NZ), values=values,
        ratio=ratio, residual=res,
    )


def mode_pressure_dirichlet_top(k: float, eps: float, h_k: float) -> ModeProfile:
    """Solve -p'' + k^2 p = 0, p(eps) = h_k, p'(0) = 0.

    The returned ratio (||p'||^2 + k^2 ||p||^2) / (|k| h_k^2) measures the
    H1 cost of lifting unit surface data; its exact value is tanh(|k| eps).
    """
    return _mode_profile(k, eps, 0.0, h_k, "dirichlet-top mode solve")


def mode_pressure_neumann_bottom(k: float, eps: float, g_k: float) -> ModeProfile:
    """Solve -p'' + k^2 p = 0, p(eps) = 0, p'(0) = g_k.

    Closed form: p = -g_k sinh(|k|(eps - z)) / (|k| cosh(|k| eps)). The ratio
    is (||p'||^2 + k^2 ||p||^2) / (eps g_k^2), eps-uniform by construction.
    """
    return _mode_profile(k, eps, g_k, 0.0, "neumann-bottom mode solve")


@dataclass(frozen=True)
class DivergenceLift:
    """Neumann potential with Delta phi = h on the strip, mean zero."""

    phi: ThinField
    compatibility: float  # constant removed from h by the k = 0 solve
    ratio: float  # ||phi||_{H2 proxy} / ||h||_{L2}
    residual: float


def divergence_lift(h: ThinField) -> DivergenceLift:
    """Solve Delta phi = h with homogeneous Neumann data top and bottom.

    The strip is h.strip, flat, of aspect ratio eps. Per-mode
    collocation; the k = 0 column is solvable only for compatible
    sources, so the constant that its bordered solve cannot absorb is
    projected out and reported. For smooth sources it is the strip mean of
    h. phi is normalized to strip mean zero.
    """
    if h.is_vector:
        raise ValueError("divergence lift expects a scalar source")
    strip = h.strip
    if np.abs(strip.h0 - 1.0).max() > 1e-12:
        raise ValueError("divergence lift is posed on the flat-top strip (h0 == 1)")
    grid, eps, nz = strip.grid, strip.eps, strip.nz
    # work with O(1) trigonometric coefficients, not raw fft sums
    hhat = HField(grid, h.values).coefficients
    wz = clenshaw_curtis_weights(nz)

    flat_k2 = grid.k2.reshape(-1)
    flat_h = hhat.reshape(nz, -1)
    phihat = np.empty_like(flat_h)
    d = diff_matrix(nz)
    worst = 0.0
    for j, kk in enumerate(flat_k2):
        # Neumann-Neumann makes -d^2/dzeta^2 + (k eps)^2 a perturbation of a
        # singular operator: the constant response carries a 1/(k eps)^2 that
        # a plain solve turns into amplified rounding. Deflate it: solve for
        # the mean-zero part plus the constant's scaled coefficient, whose
        # unit column keeps the bordered system well conditioned; the eps^2
        # in the source cancels the eps^2 in the response exactly. At k = 0
        # the border unknown instead takes up the constant that the Neumann
        # rows cannot absorb: the projection is the solve's own.
        a2 = eps * eps * kk
        rhs = -(eps * eps) * flat_h[:, j]
        scale = float(np.abs(rhs).max())
        _, op = _mode_operator(nz, eps * np.sqrt(kk))
        m = op.copy()
        m[0] = d[0]
        m[-1] = d[-1]
        rhs[0] = 0.0
        rhs[-1] = 0.0
        mb = np.zeros((nz + 1, nz + 1), dtype=complex)
        mb[:nz, :nz] = m
        mb[1 : nz - 1, nz] = 1.0  # response of the constant, column-scaled
        mb[nz, :nz] = wz
        rb = np.concatenate([rhs, [0.0]])
        sol = np.linalg.solve(mb, rb)
        col, cs = sol[:nz], sol[nz]
        if kk == 0.0:
            rhs[1 : nz - 1] -= cs  # the projected source
            compat = float(np.real(-cs / (eps * eps)))
        else:
            col = col + (cs / a2)
        res = float(np.abs(m @ col - rhs).max())
        if res > RESIDUAL_TOL * max(1.0, scale):
            raise SolverError(
                f"lift mode solve: collocation residual {res:.3e} exceeds "
                f"{RESIDUAL_TOL:g} x scale {max(1.0, scale):.3g}"
            )
        phihat[:, j] = col
        worst = max(worst, res)

    phi = HField.from_coefficients(grid, phihat.reshape((nz,) + grid.spec_shape))
    integral, dz = strip.integral, strip.dz
    dz1 = dz(phi.values)
    proxy = integral(phi.values**2) + integral(dz1**2) + integral(dz(dz1) ** 2)
    for a in range(grid.n):
        dxa = phi.dx(a).values
        proxy += integral(dxa**2) + integral(dz(dxa) ** 2)
        for b in range(a, grid.n):
            orders = [0] * grid.n
            orders[a] += 1
            orders[b] += 1
            mult = 2.0 if b > a else 1.0
            proxy += mult * integral(deriv(phi, orders).values ** 2)
    source = integral(h.values**2)
    ratio = float(np.sqrt(proxy / source)) if source > 0.0 else 0.0
    return DivergenceLift(
        phi=ThinField(strip, phi.values),
        compatibility=compat,
        ratio=ratio,
        residual=worst,
    )
