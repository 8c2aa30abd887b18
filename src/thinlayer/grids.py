"""Periodic Fourier grids and horizontal fields.

A Grid is the uniform tensor grid on the torus [0, L)^n, n in {1, 2}, with N
points per direction. HField wraps real nodal samples of a scalar or vector
field together with a cached spectrum; all derivatives are spectral and all
products of fields are dealiased by zero-padding onto a grid PAD times finer.

Layout: every spectrum is a numpy rfftn half spectrum, shape
Grid.spec_shape. The last axis holds modes 0..N/2; the leading axis in 2D
keeps the full layout (modes 0..N/2-1, then -N/2..-1). The modes with a
negative last index are the conjugates of stored ones, as a real field's
spectrum is Hermitian, so a sum over the whole spectrum weights the interior
columns 1..N/2-1 by 2 (Grid.half_weights). The Nyquist slot is index N/2 of
either axis. Odd-order derivatives zero it (the trigonometric interpolant of
real data has a cosine Nyquist mode whose derivative vanishes at the nodes;
Trefethen, Spectral Methods in MATLAB, ch. 3); padding splits it
symmetrically and truncation folds the +-N/2 pair back into it (Orszag
1971). Off-grid evaluation (HField.eval_at) follows the same interpolant: a
Nyquist slot evaluates as a cosine, so eval_at at the PAD-fine nodes equals
to_fine; its phases are integer powers of one exponential per point and
axis. This is the only module that transforms, and it uses only numpy's
real-input transforms: other modules take spectra, coefficients, derivative
symbols, Parseval sums and off-grid values from here.

Every first derivative takes one path: a stack's spectrum times the cached
symbol Grid.ik, then one inverse transform for the whole stack. HField.dx
takes one axis, grad_values every axis of every component (grad, sym_grad
and the chart's Jacobian read it), and div sums the rows of one such
transform in axis order. Each rejects NaN input. deriv, with its per-call
symbol, is left for the orders of two and more.

Padded transforms run either on fresh buffers or in a FineWork: padded
half spectra zeroed once, fine nodal fields and fine half spectra, which
the transforms fill through numpy's out= arguments. The fine transforms
scale by PAD**n against the N-grid ones; _pad applies that factor as it
copies spectra in and _truncate divides it out as it copies them back,
exactly, as it is a power of two. A FineWork belongs to one loop of its
caller (shallow_water.sw_steps builds one per run for every sw_rhs call and
drops it with the generator), and no array of it is ever returned:
_fine_to_spec truncates into fresh N-band spectra.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

TWO_PI = 2.0 * np.pi

MAX_DERIV_ORDER = 4

# Padding factor of every dealiased product: 2 makes the product of two
# band-limited fields the exact projection onto the retained modes. _pad
# and _truncate apply the fine grid's PAD**n scale in their copies.
PAD = 2


def _rfft(a: np.ndarray, n: int, out: np.ndarray | None = None) -> np.ndarray:
    """Half spectrum over the last n axes, written into out when given; in
    1D, rfft skips rfftn's argument handling."""
    if n == 1:
        return np.fft.rfft(a, out=out)
    return np.fft.rfftn(a, axes=tuple(range(-n, 0)), out=out)


def _irfft(a: np.ndarray, n: int, size: int, out: np.ndarray | None = None) -> np.ndarray:
    """Inverse of _rfft onto size points per axis, written into out when given."""
    if n == 1:
        return np.fft.irfft(a, size, out=out)
    return np.fft.irfftn(a, (size,) * n, axes=tuple(range(-n, 0)), out=out)


def _is_power_of_two(m: int) -> bool:
    return m >= 1 and (m & (m - 1)) == 0


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [0, L)^n."""

    n: int
    N: int
    L: float = TWO_PI

    def __post_init__(self):
        if self.n not in (1, 2):
            raise ValueError(f"horizontal dimension must be 1 or 2, got {self.n}")
        if self.N < 8 or not _is_power_of_two(self.N):
            raise ValueError(f"N must be a power of two >= 8, got {self.N}")
        if not (self.L > 0.0) or not math.isfinite(self.L):
            raise ValueError(f"period must be positive and finite, got {self.L}")
        if self.n == 2 and float(self.L) * float(self.L) == math.inf:
            raise ValueError(f"period {self.L} overflows: L ** 2 is not finite")

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.N,) * self.n

    @property
    def spec_shape(self) -> tuple[int, ...]:
        """Shape of a half spectrum: N on the leading axis in 2D, N/2 + 1 on
        the last."""
        return (self.N,) * (self.n - 1) + (self.N // 2 + 1,)

    @property
    def dx(self) -> float:
        return self.L / self.N

    @property
    def volume(self) -> float:
        return self.L**self.n

    @cached_property
    def nodes(self) -> np.ndarray:
        """1d node coordinates x_j = j L / N (same along every axis)."""
        return np.arange(self.N) * self.dx

    def coords(self) -> list[np.ndarray]:
        """Node coordinate arrays broadcastable to ``shape``, one per axis."""
        if self.n == 1:
            return [self.nodes]
        return [self.nodes[:, None], self.nodes[None, :]]

    @cached_property
    def mesh(self) -> np.ndarray:
        """Node coordinates on the whole grid, shape (n,) + shape, read-only."""
        mesh = np.stack(np.broadcast_arrays(*self.coords()))
        mesh.flags.writeable = False
        return mesh

    def _spectral(self, v: np.ndarray) -> list[np.ndarray]:
        """A 1d array over the full axis layout laid along each spectral axis:
        whole on the leading axis in 2D, its entries for modes 0..N/2 on the
        last; broadcastable to spec_shape."""
        half = v[: self.N // 2 + 1]
        return [half] if self.n == 1 else [v[:, None], half]

    @cached_property
    def _modes(self) -> np.ndarray:
        """Integer mode numbers of the full axis layout: 0..N/2-1, -N/2..-1."""
        m = np.arange(self.N)
        return np.where(m < self.N // 2, m, m - self.N)

    @cached_property
    def axis_wavenumbers(self) -> np.ndarray:
        """Angular wavenumbers 2 pi m / L of the full axis layout."""
        return (TWO_PI / self.L) * self._modes

    @cached_property
    def k2(self) -> np.ndarray:
        """|k|^2 on spec_shape, read-only. The Nyquist slot carries -N/2 on
        both axes, as in the full layout."""
        k2 = sum(k * k for k in self._spectral(self.axis_wavenumbers))
        k2.flags.writeable = False
        return k2

    @cached_property
    def half_weights(self) -> np.ndarray:
        """Weight of each last-axis column in a sum over the whole spectrum:
        2 on modes 1..N/2-1, whose conjugates are not stored, 1 on 0 and N/2."""
        w = np.full(self.N // 2 + 1, 2.0)
        w[0] = w[-1] = 1.0
        return w

    @cached_property
    def ik(self) -> np.ndarray:
        """First-derivative symbols i kappa_a, shape (n,) + spec_shape, read-only:
        the symbol of every first derivative of the package."""
        ik = np.stack([np.broadcast_to(s, self.spec_shape) for s in _symbol(self, 1)])
        ik.flags.writeable = False
        return ik

    @cached_property
    def dealias_keep(self) -> np.ndarray:
        """Boolean mask of the 2/3-rule band: |m_a| <= floor(N/3) per axis."""
        mask = np.ones(self.spec_shape, dtype=bool)
        for keep in self._spectral(np.abs(self._modes) <= self.N // 3):
            mask &= keep
        return mask


def _symbol(grid: Grid, order: int) -> list[np.ndarray]:
    """(i kappa_a)^order per axis, broadcastable to spec_shape; odd orders
    zero the Nyquist slot, index N/2 of either axis."""
    mult = (1j * grid.axis_wavenumbers) ** order
    if order % 2 == 1:
        mult[grid.N // 2] = 0.0
    return grid._spectral(mult)


class HField:
    """Real field sampled on a Grid; scalar or component-stacked vector.

    values has shape grid.shape for a scalar, (m,) + grid.shape for an
    m-vector. Instances are treated as immutable; arithmetic returns new
    fields. ``f * g`` between fields is the dealiased product.
    """

    __slots__ = ("grid", "values", "_spec")

    def __init__(self, grid: Grid, values):
        values = np.asarray(values, dtype=float)
        if values.shape[-grid.n :] != grid.shape or values.ndim > grid.n + 1:
            raise ValueError(
                f"values shape {values.shape} incompatible with grid shape {grid.shape}"
            )
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_spec", None)

    def __setattr__(self, name, value):
        raise AttributeError("HField is immutable")

    # -- structure ---------------------------------------------------------

    @property
    def is_vector(self) -> bool:
        return self.values.ndim == self.grid.n + 1

    @property
    def ncomp(self) -> int:
        return self.values.shape[0] if self.is_vector else 1

    def component(self, i: int) -> "HField":
        if not self.is_vector:
            raise IndexError("scalar field has no components")
        return HField(self.grid, self.values[i])

    def components(self) -> list["HField"]:
        return [self.component(i) for i in range(self.ncomp)] if self.is_vector else [self]

    @staticmethod
    def stack(comps: list["HField"]) -> "HField":
        grid = comps[0].grid
        return HField(grid, np.stack([c.values for c in comps]))

    @classmethod
    def constant(cls, grid: Grid, value: float) -> "HField":
        return cls(grid, np.full(grid.shape, float(value)))

    @classmethod
    def from_function(cls, grid: Grid, fn) -> "HField":
        return cls(grid, fn(*grid.coords()) + np.zeros(grid.shape))

    # -- spectrum ----------------------------------------------------------

    @property
    def spec(self) -> np.ndarray:
        """Cached half spectrum over the spatial axes (numpy rfftn layout and
        scaling), shape grid.spec_shape per component."""
        if self._spec is None:
            object.__setattr__(self, "_spec", _rfft(self.values, self.grid.n))
        return self._spec

    @classmethod
    def from_spec(cls, grid: Grid, spec: np.ndarray) -> "HField":
        """Real field of a half spectrum (inverse of spec)."""
        return cls(grid, _irfft(spec, grid.n, grid.N))

    @property
    def coefficients(self) -> np.ndarray:
        """Trigonometric coefficients c_k of f = sum_k c_k exp(i k.x): spec / N^n,
        half layout; the modes with a negative last index are conj(c_{-k})."""
        return self.spec / self.grid.N**self.grid.n

    @classmethod
    def from_coefficients(cls, grid: Grid, coeffs: np.ndarray) -> "HField":
        """Field of the given trigonometric coefficients (inverse of coefficients)."""
        return cls.from_spec(grid, coeffs * grid.N**grid.n)

    def sobolev_sq(self, s: float) -> float:
        """Squared H^s norm by Parseval, volume * sum_k (1 + |k|^2)^s |c_k|^2,
        summed over components."""
        g = self.grid
        mult = (1.0 + g.k2) ** s * g.half_weights
        return sum(
            float((mult * np.abs(c.coefficients) ** 2).sum()) * g.volume
            for c in self.components()
        )

    def mask_two_thirds(self) -> "HField":
        """Project onto the 2/3-rule band."""
        return HField.from_spec(self.grid, self.spec * self.grid.dealias_keep)

    # -- calculus ----------------------------------------------------------

    def dx(self, axis: int) -> "HField":
        """d/dx_axis of every component: the spectrum times ik[axis], one
        inverse transform."""
        _reject_nan(self)
        return HField.from_spec(self.grid, self.spec * self.grid.ik[axis])

    def integral(self):
        """Integral over the torus (trapezoid, exact for trig polynomials)."""
        axes = tuple(range(-self.grid.n, 0))
        s = self.values.sum(axis=axes) * self.grid.dx**self.grid.n
        return float(s) if not self.is_vector else s

    def eval_at(self, points: np.ndarray) -> np.ndarray:
        """Trigonometric evaluation at arbitrary points, shape (npts, n).

        Returns (npts,) for scalars, (ncomp, npts) for vectors. Periodic in
        every coordinate, so points need not be wrapped into [0, L).
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if points.shape[1] != self.grid.n:
            raise ValueError(f"points must have shape (npts, {self.grid.n})")
        return _eval_coefficients(self.grid, self.coefficients, points)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, HField):
            return HField(self.grid, self.values + other.values)
        return HField(self.grid, self.values + other)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, HField):
            return HField(self.grid, self.values - other.values)
        return HField(self.grid, self.values - other)

    def __rsub__(self, other):
        return HField(self.grid, other - self.values)

    def __mul__(self, other):
        if isinstance(other, HField):
            return dealiased_product(self, other)
        return HField(self.grid, self.values * other)

    def __rmul__(self, other):
        return HField(self.grid, self.values * other)

    def __neg__(self):
        return HField(self.grid, -self.values)


def _eval_coefficients(grid: Grid, c: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Real trigonometric sum of half-layout coefficients c (stacked on any
    leading axes) at points of shape (npts, n); returns (..., npts).

    The value is the real part of the half sum weighted by half_weights,
    which counts each interior last-axis mode for its conjugate. Phases are
    integer powers of one exp(2 pi i x / L) per point and axis, built by
    doubling; the leading axis in 2D takes its negative modes as their
    conjugates. Nyquist slots evaluate as cosines, the symmetric split of
    _spec_to_fine.
    """
    half = grid.N // 2
    powers = np.empty((half + 1,) + points.T.shape, dtype=complex)  # (m, n, npts)
    powers[0] = 1.0
    powers[1] = np.exp((1j * TWO_PI / grid.L) * points.T)
    m = 1
    while m < half:  # powers m+1..2m from powers 1..m
        top = min(2 * m, half)
        np.multiply(powers[1 : top - m + 1], powers[m], out=powers[m + 1 : top + 1])
        m = top
    powers[half] = powers[half].real
    folded = c * grid.half_weights
    if grid.n == 2:
        lead = np.concatenate([powers[:, 0], powers[half - 1 : 0 : -1, 0].conj()])
        folded = lead.T @ folded  # (..., npts, half + 1)
        last = powers[:, 1].T
        return (folded.real * last.real - folded.imag * last.imag).sum(-1)
    return (folded @ powers[:, 0]).real


def _reject_nan(f: HField) -> None:
    if np.isnan(f.values).any():
        raise ValueError("NaN in field values")


def deriv(f: HField, orders) -> HField:
    """Spectral partial derivative d^orders f, orders a tuple per axis.

    Total order is capped at 4 (higher orders amplify roundoff past the
    tolerances the rest of the suite is built on). Odd orders zero the
    Nyquist slot. NaN input is rejected. First derivatives take the cached
    Grid.ik instead (HField.dx, grad_values, div); this builds its symbol
    per call, for the orders of two and more.
    """
    if isinstance(orders, int):
        orders = (orders,)
    orders = tuple(int(o) for o in orders)
    if len(orders) != f.grid.n:
        raise ValueError(f"need {f.grid.n} orders, got {orders}")
    if any(o < 0 for o in orders):
        raise ValueError(f"derivative orders must be nonnegative, got {orders}")
    if sum(orders) > MAX_DERIV_ORDER:
        raise ValueError(f"total derivative order {sum(orders)} exceeds {MAX_DERIV_ORDER}")
    _reject_nan(f)
    if sum(orders) == 0:
        return f
    spec = f.spec
    for a, o in enumerate(orders):
        if o:
            spec = spec * _symbol(f.grid, o)[a]
    return HField.from_spec(f.grid, spec)


def grad_values(f: HField) -> np.ndarray:
    """Nodal first derivatives of every component of f along every axis, in
    one inverse transform of f.spec * ik: shape (n,) + grid.shape for a
    scalar, row a = d f / d x_a, and (m, n) + grid.shape for an m-vector,
    entry [i, a] = d f_i / d x_a."""
    _reject_nan(f)
    g = f.grid
    return _irfft(np.expand_dims(f.spec, -g.n - 1) * g.ik, g.n, g.N)


def grad(f: HField) -> HField:
    """Gradient of a scalar field as a vector field."""
    return HField(f.grid, grad_values(f))


def div(v: HField) -> HField:
    """Divergence of a vector field: one inverse transform of v.spec * ik,
    its rows summed in axis order."""
    if not v.is_vector or v.ncomp != v.grid.n:
        raise ValueError("div needs an n-component vector field")
    _reject_nan(v)
    g = v.grid
    d = _irfft(v.spec * g.ik, g.n, g.N)
    out = d[0]
    for a in range(1, g.n):
        out = out + d[a]
    return HField(g, out)


# -- dealiasing by zero padding ---------------------------------------------


def _fine_spec_shape(grid: Grid) -> tuple[int, ...]:
    """Half-spectrum shape of the PAD-fine grid."""
    size = PAD * grid.N
    return (size,) * (grid.n - 1) + (size // 2 + 1,)


class FineWork:
    """Fine-grid work area for stacks of padded fields.

    padded holds npadded padded half spectra and is zeroed once:
    _spec_to_fine writes only the retained block and its split Nyquist
    slots, scaled by PAD**n, the same entries on every call, so the zero
    band stays zero. fine holds nfine nodal fields on the PAD-fine grid and
    spec nspec fine half spectra. A caller that transforms in a loop builds
    one work area, hands slices of it to _spec_to_fine and _fine_to_spec,
    and drops it when the loop ends; the spectra _fine_to_spec returns are
    always fresh arrays.
    """

    __slots__ = ("padded", "fine", "spec")

    def __init__(self, grid: Grid, npadded: int, nfine: int, nspec: int):
        shape = _fine_spec_shape(grid)
        self.padded = np.zeros((npadded,) + shape, dtype=complex)
        self.fine = np.empty((nfine,) + (PAD * grid.N,) * grid.n)
        self.spec = np.empty((nspec,) + shape, dtype=complex)


def _pad(grid: Grid, spec: np.ndarray, padded: np.ndarray) -> None:
    """Write PAD**n times spectra into the retained block of a zeroed padded buffer.

    The factor keeps nodal values through the fine inverse transform. The
    Nyquist row (2D) and column are split symmetrically, half at +N/2 and
    half at -N/2, to keep the spectrum Hermitian; on the half axis the -N/2
    half is implicit.
    """
    h, scale = grid.N // 2, PAD**grid.n
    if grid.n == 2:
        np.multiply(spec[..., : h + 1, :], scale, out=padded[..., : h + 1, : h + 1])
        np.multiply(spec[..., 1 - h :, :], scale, out=padded[..., 1 - h :, : h + 1])
        padded[..., h, : h + 1] *= 0.5
        padded[..., -h, : h + 1] = padded[..., h, : h + 1]
    else:
        np.multiply(spec, scale, out=padded[..., : h + 1])
    padded[..., h] *= 0.5


def _truncate(grid: Grid, spec: np.ndarray) -> np.ndarray:
    """Fresh N-band copy of fine half spectra over PAD**n, the adjoint of _pad.

    The +-N/2 pair of each axis folds back into its Nyquist slot: S[N/2] +
    S[-N/2] on the leading axis in 2D, and on the half axis S[k1, N/2] +
    conj(S[-k1, N/2]), where k1 runs over the leading axis in 2D.
    """
    h, scale = grid.N // 2, PAD**grid.n
    out = np.empty(spec.shape[: -grid.n] + grid.spec_shape, dtype=complex)
    if grid.n == 2:
        np.divide(spec[..., :h, : h + 1], scale, out=out[..., :h, :])
        np.divide(spec[..., 1 - h :, : h + 1], scale, out=out[..., h + 1 :, :])
        out[..., h, :] = (spec[..., h, : h + 1] + spec[..., -h, : h + 1]) / scale
        col = out[..., h]
        out[..., h] = col + col[..., -np.arange(grid.N) % grid.N].conj()
    else:
        np.divide(spec[..., : h + 1], scale, out=out)
        out[..., h] += out[..., h].conj()
    return out


def _spec_to_fine(
    grid: Grid,
    spec: np.ndarray,
    padded: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Fine-grid nodal values of spectra stacked on any leading axes.

    padded, a FineWork.padded slice, receives the padded spectra and out,
    a FineWork.fine slice, the values; both are fresh when not given.
    """
    if padded is None:
        padded = np.zeros(spec.shape[: -grid.n] + _fine_spec_shape(grid), dtype=complex)
    _pad(grid, spec, padded)
    return _irfft(padded, grid.n, PAD * grid.N, out)


def _fine_to_spec(
    grid: Grid, fine_values: np.ndarray, spec: np.ndarray | None = None
) -> np.ndarray:
    """Spectra on grid of fine-grid nodal values stacked on any leading axes.

    spec, a FineWork.spec slice, receives the fine spectra; the returned
    N-band spectra are fresh either way.
    """
    return _truncate(grid, _rfft(fine_values, grid.n, spec))


def to_fine(f: HField) -> np.ndarray:
    """Nodal values of f interpolated onto the PAD-refined grid."""
    return _spec_to_fine(f.grid, f.spec)


def from_fine(grid: Grid, fine_values: np.ndarray) -> HField:
    """Project fine-grid nodal values back onto grid (exact L2 projection)."""
    return HField.from_spec(grid, _fine_to_spec(grid, fine_values))


def nonlinear(grid: Grid, fn, *fields) -> HField:
    """Pointwise nonlinearity evaluated on the padded grid, then projected.

    fields may be HField or plain scalars; fn receives fine-grid arrays.
    This is the one place rational nonlinearities (divisions by h0) happen.
    """
    fine = [to_fine(f) if isinstance(f, HField) else f for f in fields]
    return from_fine(grid, fn(*fine))


def dealiased_product(f: HField, g: HField) -> HField:
    return nonlinear(f.grid, lambda a, b: a * b, f, g)
