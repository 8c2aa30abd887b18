"""Thin-domain Korn constant via a 6-dimensional generalized eigenproblem.

Per horizontal Fourier mode k = |k|(c, s), the optimal constant in the
deformation inequality solves det(q2 - X q1) = 0 where q1, q2 are Gram
matrices of two quadratic forms over a 6-dimensional space of profiles on
(0, M), M = eps|k|. The spectrum factors as {1 x4, 2, Lambda(M, sigma)} and
the Korn constant is the infimum of Lambda over M and direction sigma.

Numerical shape of the problem: the raw basis degenerates at both ends of
the M range (z ~ sinh z ~ cosh z - 1 for small M, sinh ~ cosh ~ e^M/2 for
large M), so the Gram assembly works on quadrature design matrices B_i with
q_i = B_i^T B_i, equilibrates their columns, orthonormalizes through a QR of
B_1, and reads the pencil eigenvalues off the singular values of B_2 R^{-1}.
This never forms the near-singular q1 explicitly for the solve and keeps
roughly twice the digits of a Cholesky-of-q1 approach. For M > 2 the
assembly additionally evaluates a span-preserving exponential recombination
of the basis whose members stay O(1) apart; the pencil spectrum is invariant
under any such change of basis. The Gauss-Legendre rules behind the design
matrices are built once per node count and shared, read-only, by every
cell; each cell builds its design matrices once per resolution.
korn_pencil is the one entry point of a cell: it returns both Gram
matrices, both design matrices and the ascending spectrum, and the sweep
reads Lambda and the six eigenvalues off it.

The probe of the inequality itself on random strip fields is the korn tag
of probes.anisotropy_probe.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .failures import NumericalFailure

RANK_TOL = 1e-10

SIGMA_LINE = ((1.0, 0.0), (-1.0, 0.0))

# Column order of the sweep's rows (korn_sweep.csv): one row per (sigma, M)
# cell, its direction (c, s), Lambda, the six pencil eigenvalues ascending,
# and the failure that left the cell blank, if any.
SWEEP_HEADER = ("M", "c", "s", "lam", *(f"eig{j}" for j in range(1, 7)), "cond_flag")


class QuadratureError(RuntimeError, NumericalFailure):
    """Node-doubling disagreement above tolerance."""


class ConditioningError(RuntimeError, NumericalFailure):
    """The conditioned pencil is still numerically degenerate."""


def sigma_circle(count: int) -> tuple:
    """count directions evenly spaced on the unit circle."""
    if count < 1:
        raise ValueError("need at least one direction")
    th = 2.0 * np.pi * np.arange(count) / count
    return tuple((float(np.cos(a)), float(np.sin(a))) for a in th)


def _check_sigma(sigma) -> tuple[float, float]:
    c, s = float(sigma[0]), float(sigma[1])
    if abs(c * c + s * s - 1.0) > 1e-12:
        raise ValueError(f"sigma must lie on the unit circle, got ({c}, {s})")
    return c, s


# -- basis ---------------------------------------------------------------------------

# Profile space: (-c, s) (a1 z + b1 sinh z + c1 (cosh z - 1))
#              + ( s, c) (a2 sinh z + b2 z sinh z + c2 z cosh z),
# coefficients ordered (a1, b1, c1, a2, b2, c2). Every member vanishes at 0.


def _scalar_basis(z: np.ndarray, recombined: bool):
    """Values/derivatives of the two scalar families, shape (3, nz) each.

    recombined swaps in {z, e^z-1-z, e^-z-1+z} and {sinh z, z e^z, z e^-z},
    which span the same spaces but stay numerically independent at large M.
    """
    sh, ch = np.sinh(z), np.cosh(z)
    if not recombined:
        fa = np.stack([z, sh, ch - 1.0])
        da = np.stack([np.ones_like(z), ch, sh])
        dda = np.stack([np.zeros_like(z), sh, ch])
        fb = np.stack([sh, z * sh, z * ch])
        db = np.stack([ch, sh + z * ch, ch + z * sh])
        ddb = np.stack([sh, 2.0 * ch + z * sh, 2.0 * sh + z * ch])
    else:
        ep, em = np.exp(z), np.exp(-z)
        fa = np.stack([z, ep - 1.0 - z, em - 1.0 + z])
        da = np.stack([np.ones_like(z), ep - 1.0, 1.0 - em])
        dda = np.stack([np.zeros_like(z), ep, em])
        fb = np.stack([sh, z * ep, z * em])
        db = np.stack([ch, ep * (1.0 + z), em * (1.0 - z)])
        ddb = np.stack([sh, ep * (2.0 + z), em * (z - 2.0)])
    return (fa, da, dda), (fb, db, ddb)


def _vector_basis(sigma, z: np.ndarray, recombined: bool):
    """U, U', U'' for the 6 members, each shaped (6, 2, nz)."""
    c, s = sigma
    (fa, da, dda), (fb, db, ddb) = _scalar_basis(z, recombined)
    ea = np.array([-c, s])
    eb = np.array([s, c])
    nz = z.shape[-1]
    out = []
    for scal_a, scal_b in ((fa, fb), (da, db), (dda, ddb)):
        U = np.empty((6, 2, nz))
        U[:3] = ea[None, :, None] * scal_a[:, None, :]
        U[3:] = eb[None, :, None] * scal_b[:, None, :]
        out.append(U)
    return out


def korn_basis_eval(M: float, sigma, coeffs, z):
    """(U, U', U'') at z for one combination of the literal basis.

    z may be scalar or array within [0, M]; coefficients are ordered
    (a1, b1, c1, a2, b2, c2).
    """
    if not M > 0.0:
        raise ValueError(f"M must be positive, got {M}")
    c, s = _check_sigma(sigma)
    a = np.asarray(coeffs, dtype=float)
    if a.shape != (6,) or not np.isfinite(a).all():
        raise ValueError("coeffs must be 6 finite reals")
    zz = np.atleast_1d(np.asarray(z, dtype=float))
    if zz.min() < 0.0 or zz.max() > M * (1.0 + 1e-12):
        raise ValueError(f"z must lie in [0, {M}]")
    U, dU, ddU = _vector_basis((c, s), zz, recombined=False)
    vals = tuple(np.tensordot(a, arr, axes=(0, 0)) for arr in (U, dU, ddU))
    if np.isscalar(z) or np.asarray(z).ndim == 0:
        return tuple(v[:, 0] for v in vals)
    return vals


# -- gram assembly --------------------------------------------------------------------


@functools.lru_cache(maxsize=8)
def _gauss_legendre(nq: int):
    """Read-only Gauss-Legendre nodes and weights on [-1, 1], built once per
    node count: leggauss costs far more than the rest of a cell."""
    x, w = np.polynomial.legendre.leggauss(nq)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _design_matrices(M: float, sigma, nq: int, recombined: bool):
    """Quadrature design matrices (B1, B2) with q_i = B_i^T B_i.

    Rows are sqrt(weight) times the linear functionals whose squares sum to
    the two quadratic forms.
    """
    c, s = sigma
    x, w = _gauss_legendre(nq)
    z = 0.5 * M * (x + 1.0)
    w = 0.5 * M * w
    rw = np.sqrt(w)

    U, dU, ddU = _vector_basis((c, s), z, recombined)
    u1, u2 = U[:, 0, :], U[:, 1, :]  # (6, nq)
    d1, d2 = dU[:, 0, :], dU[:, 1, :]
    dd1, dd2 = ddU[:, 0, :], ddU[:, 1, :]
    phi = c * u1 + s * u2

    rt2 = math.sqrt(2.0)
    rows1 = [d1, d2, c * d1 + s * d2, dd1, dd2, phi]
    rows2 = [
        rt2 * c * d1,
        rt2 * s * d2,
        rt2 * (c * d1 + s * d2),
        s * d1 + c * d2,
        dd1 + c * phi,
        dd2 + s * phi,
    ]
    b1 = np.concatenate([(rw * r).T for r in rows1])  # (6 nq, 6)
    b2 = np.concatenate([(rw * r).T for r in rows2])
    return b1, b2


def _check_cell(M: float, sigma, quad_nodes: int) -> tuple[float, float]:
    if not (np.isfinite(M) and M > 0.0):
        raise ValueError(f"M must be positive, got {M}")
    sigma = _check_sigma(sigma)
    if quad_nodes < 64:
        raise ValueError("need at least 64 quadrature nodes")
    return sigma


def _assemble(M: float, sigma, quad_nodes: int):
    """Design matrices (b1, b2) at 2*quad_nodes and the Gram matrices
    (q1, q2) built from them, after the node-doubling and symmetry checks.

    Beyond M ~ 350 the squared basis overflows: that is a ConditioningError,
    raised before the infinities reach a warning or the pencil."""
    recombined = M > 2.0
    with np.errstate(over="ignore", invalid="ignore"):
        b1, b2 = _design_matrices(M, sigma, 2 * quad_nodes, recombined)
        q1, q2 = b1.T @ b1, b2.T @ b2
        c1, c2 = (b.T @ b for b in _design_matrices(M, sigma, quad_nodes, recombined))
    if not all(np.isfinite(q).all() for q in (q1, q2, c1, c2)):
        raise ConditioningError(f"Gram matrices overflow at M = {M:.4g}, sigma = {sigma}")
    scale = max(np.abs(q1).max(), np.abs(q2).max())
    drift = max(np.abs(q1 - c1).max(), np.abs(q2 - c2).max())
    if drift > 1e-10 * scale:
        raise QuadratureError(
            f"node doubling moved the Gram matrices by {drift / scale:.2e} "
            f"relative at M = {M:.4g} ({quad_nodes} nodes)"
        )
    asym = max(np.abs(q1 - q1.T).max(), np.abs(q2 - q2.T).max())
    if asym > 1e-12 * scale:
        raise AssertionError("Gram assembly produced an asymmetric matrix")
    q1 = 0.5 * (q1 + q1.T)
    q2 = 0.5 * (q2 + q2.T)
    return b1, b2, q1, q2


# -- the pencil -----------------------------------------------------------------------


def _pencil_eigs(b1: np.ndarray, b2: np.ndarray, M, sigma) -> np.ndarray:
    """Eigenvalues of the (q2, q1) pencil from the design matrices."""
    col = np.linalg.norm(b1, axis=0)
    if not np.isfinite(col).all() or col.min() <= 0.0:
        raise ConditioningError(f"degenerate basis column at M = {M}, sigma = {sigma}")
    b1s = b1 / col
    b2s = b2 / col
    r = np.linalg.qr(b1s, mode="r")
    d = np.abs(np.diag(r))
    if d.min() <= 1e-13 * d.max():
        raise ConditioningError(
            f"q1 is numerically singular after conditioning at "
            f"M = {M}, sigma = {sigma}"
        )
    sv = np.linalg.svd(b2s @ np.linalg.inv(r), compute_uv=False)
    return np.sort(sv * sv)


@dataclass(frozen=True)
class KornPencil:
    """One (M, sigma) cell: Gram matrices, design matrices, spectrum."""

    M: float
    sigma: tuple
    q1: np.ndarray
    q2: np.ndarray
    b1: np.ndarray
    b2: np.ndarray
    spectrum: np.ndarray
    Lambda: float

    def __post_init__(self):
        for q in (self.q1, self.q2):
            if q.shape != (6, 6) or np.abs(q - q.T).max() > 0.0:
                raise ValueError("Gram matrices must be symmetric 6x6")
        if self.spectrum.shape != (6,) or np.any(np.diff(self.spectrum) < 0.0):
            raise ValueError("spectrum must be 6 ascending eigenvalues")
        if not np.isclose(self.Lambda, self.spectrum[0], rtol=0.0, atol=0.0):
            raise ValueError("Lambda must be the smallest eigenvalue")
        # the difference of the forms is a boundary term: a product of two
        # linear forms, hence rank <= 2
        diff = self.q2 - self.q1
        sv = np.linalg.svd(diff, compute_uv=False)
        if sv[2] > RANK_TOL * max(sv[0], 1e-300):
            raise ValueError("q2 - q1 is not numerically rank 2")


def korn_pencil(M: float, sigma, quad_nodes: int = 96) -> KornPencil:
    """Assemble and solve one (M, sigma) cell."""
    sigma = _check_cell(M, sigma, quad_nodes)
    b1, b2, q1, q2 = _assemble(M, sigma, quad_nodes)
    spectrum = _pencil_eigs(b1, b2, M, sigma)
    return KornPencil(
        M=float(M),
        sigma=sigma,
        q1=q1,
        q2=q2,
        b1=b1,
        b2=b2,
        spectrum=spectrum,
        Lambda=float(spectrum[0]),
    )


# -- sweep ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KornSweep:
    """Lambda table over (M, sigma) with the empirical infimum."""

    rows: list
    inf_lambda: float
    argmin: dict
    max_jump: float
    failures: int

    def summary(self) -> dict:
        return {
            "inf_lambda": self.inf_lambda,
            "argmin": self.argmin,
            "max_jump": self.max_jump,
            "cells": len(self.rows),
            "failures": self.failures,
        }


def _sweep_cell(M: float, sigma, quad_nodes: int) -> dict:
    """One sweep row, keys in SWEEP_HEADER order. A cell whose pencil fails
    has no Lambda or eigenvalues and names the failure in cond_flag."""
    try:
        p = korn_pencil(M, sigma, quad_nodes)
    except (ConditioningError, QuadratureError) as exc:
        lam, eigs, flag = None, [None] * 6, f"{type(exc).__name__}: {exc}"
    else:
        lam, eigs, flag = p.Lambda, [float(p.spectrum[j]) for j in range(6)], ""
    return dict(zip(SWEEP_HEADER, (float(M), sigma[0], sigma[1], lam, *eigs, flag), strict=True))


def korn_sweep(M_grid, sigma_grid, quad_nodes: int = 96):
    """Lambda over the (M, sigma) grid; conditioning failures are recorded
    per cell rather than raised."""
    M_grid = np.asarray(M_grid, dtype=float)
    if M_grid.ndim != 1 or M_grid.size < 2 or np.any(np.diff(M_grid) <= 0.0):
        raise ValueError("M_grid must be ascending with at least 2 points")
    if M_grid[0] <= 0.0:
        raise ValueError("M_grid must be positive")
    sigma_grid = tuple(_check_sigma(s) for s in sigma_grid)

    rows = [_sweep_cell(M, sig, quad_nodes) for sig in sigma_grid for M in M_grid]

    good = [r for r in rows if r["lam"] is not None]
    if not good:
        raise ConditioningError("every sweep cell failed")
    best = min(good, key=lambda r: r["lam"])
    max_jump = 0.0
    nm = M_grid.size
    for j in range(len(sigma_grid)):
        lam = [rows[j * nm + i]["lam"] for i in range(nm)]
        for a, b in zip(lam, lam[1:]):
            if a is not None and b is not None:
                max_jump = max(max_jump, abs(b - a))
    return KornSweep(
        rows=rows,
        inf_lambda=float(best["lam"]),
        argmin={"M": best["M"], "c": best["c"], "s": best["s"]},
        max_jump=float(max_jump),
        failures=len(rows) - len(good),
    )
