"""Spectral grid and derivative tests.

The derivative oracle is an independent 8th-order centered finite-difference
evaluation of f = exp(sin x) on a 4096-point grid; the spectral result on a
coarse grid must match at the shared nodes.
"""
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thinlayer import grids
from thinlayer.grids import (
    Grid,
    HField,
    dealiased_product,
    deriv,
    div,
    from_fine,
    grad,
    grad_values,
    nonlinear,
    to_fine,
)
from thinlayer.shallow_water import sym_grad
from tests.conftest import bit_equal, per_axis_dx, per_axis_grad

TWO_PI = 2.0 * np.pi


# -- construction guards ------------------------------------------------------


@pytest.mark.parametrize("bad", [dict(n=3, N=64), dict(n=1, N=48), dict(n=1, N=4),
                                 dict(n=1, N=64, L=0.0), dict(n=1, N=64, L=-1.0)])
def test_grid_rejects_bad_arguments(bad):
    with pytest.raises(ValueError):
        Grid(**bad)


def test_grid_nodes_and_wavenumbers():
    g = Grid(1, 8)
    assert np.allclose(g.nodes, np.arange(8) * TWO_PI / 8)
    # integer wavenumbers on the 2 pi torus, full axis layout
    assert np.allclose(np.sort(g.axis_wavenumbers), [-4, -3, -2, -1, 0, 1, 2, 3])


@pytest.mark.parametrize("n,N", [(1, 8), (2, 8)])
def test_mesh_is_one_read_only_node_stack(n, N):
    g = Grid(n, N)
    mesh = g.mesh
    assert g.mesh is mesh and mesh.shape == (n,) + g.shape and mesh.dtype == float
    assert not mesh.flags.writeable
    assert np.array_equal(mesh, np.stack(np.broadcast_arrays(*g.coords())))


def test_hfield_shape_guard():
    g = Grid(1, 16)
    with pytest.raises(ValueError):
        HField(g, np.zeros(8))
    with pytest.raises(ValueError):
        HField(g, np.zeros((2, 2, 16)))


def test_hfield_is_immutable():
    # the lazily cached spectrum stays valid only while the values do
    f = HField(Grid(1, 16), np.zeros(16))
    with pytest.raises(AttributeError):
        f.values = np.ones(16)


# -- derivative oracle --------------------------------------------------------


def _fd8(values, dx):
    """8th-order centered first derivative on a periodic grid."""
    c = np.array([1 / 280, -4 / 105, 1 / 5, -4 / 5, 0.0, 4 / 5, -1 / 5, 4 / 105, -1 / 280])
    out = np.zeros_like(values)
    for k, ck in zip(range(-4, 5), c):
        if ck:
            out += ck * np.roll(values, -k)
    return out / dx


def test_spectral_derivative_matches_fd_oracle():
    fine = 4096
    xf = np.arange(fine) * TWO_PI / fine
    oracle = _fd8(np.exp(np.sin(xf)), TWO_PI / fine)

    g = Grid(1, 64)
    f = HField(g, np.exp(np.sin(g.nodes)))
    df = f.dx(0).values
    stride = fine // g.N
    rel = np.abs(df - oracle[::stride]).max() / np.abs(oracle).max()
    assert rel <= 1e-8


def test_single_mode_derivatives_exact():
    g = Grid(1, 32)
    x = g.nodes
    f = HField(g, np.sin(3 * x))
    assert np.abs(f.dx(0).values - 3 * np.cos(3 * x)).max() < 1e-12
    assert np.abs(deriv(f, (2,)).values + 9 * np.sin(3 * x)).max() < 1e-12
    assert np.abs(deriv(f, (4,)).values - 81 * np.sin(3 * x)).max() < 1e-10


def test_derivative_of_constant_is_zero():
    g = Grid(1, 16)
    f = HField.constant(g, 3.7)
    assert np.abs(f.dx(0).values).max() < 1e-13


def test_derivative_rejections():
    g = Grid(1, 16)
    f = HField(g, np.sin(g.nodes))
    with pytest.raises(ValueError):
        deriv(f, (5,))
    with pytest.raises(ValueError):
        deriv(f, (-1,))
    bad = HField(g, np.full(16, np.nan))
    with pytest.raises(ValueError):
        deriv(bad, (1,))
    # every first-derivative entry point rejects NaN, scalar and vector
    bad_vec = HField(g, np.full((1, 16), np.nan))
    for call in (lambda: bad.dx(0), lambda: grad(bad), lambda: grad_values(bad),
                 lambda: bad_vec.dx(0), lambda: grad_values(bad_vec),
                 lambda: div(bad_vec), lambda: sym_grad(bad_vec)):
        with pytest.raises(ValueError, match="NaN"):
            call()


def _per_axis_div(v):
    out = per_axis_dx(v.component(0), 0)
    for a in range(1, v.grid.n):
        out = out + per_axis_dx(v.component(a), a)
    return out


def _per_axis_sym_grad(u):
    n = u.grid.n
    du = [[per_axis_dx(u.component(i), a) for a in range(n)] for i in range(n)]
    return [[du[i][a] + du[a][i] for a in range(n)] for i in range(n)]


@pytest.mark.parametrize("n,N", [(1, 64), (2, 32)])
def test_stacked_derivatives_match_per_axis_loops_bit_for_bit(n, N):
    """dx, grad, div and sym_grad, each one inverse transform of a stack's
    spectrum times Grid.ik, equal the loops that transform one component
    and one axis at a time with a per-call symbol; the 2D fields vary in x2
    and both velocity components are nonzero."""
    g = Grid(n, N)
    if n == 1:
        (x,) = g.coords()
        h = HField(g, 1.0 + 0.1 * np.cos(x) + 0.02 * np.sin(3 * x))
        u = HField(g, (0.2 * np.sin(x) - 0.05 * np.cos(2 * x))[None])
    else:
        x1, x2 = g.coords()
        h = HField(g, 1.0 + 0.1 * np.cos(x1) + 0.05 * np.sin(x2))
        u = HField(g, np.stack(np.broadcast_arrays(
            0.1 * np.sin(x1 + x2), 0.08 * np.cos(x2) + 0.03 * np.sin(x1)
        )))
    for a in range(n):
        assert bit_equal(h.dx(a).values, per_axis_dx(h, a).values)
        assert bit_equal(u.dx(a).values, per_axis_dx(u, a).values)
    assert bit_equal(grad(h).values, per_axis_grad(h).values)
    assert bit_equal(div(u).values, _per_axis_div(u).values)
    got, want = sym_grad(u), _per_axis_sym_grad(u)
    for i in range(n):
        for a in range(n):
            assert bit_equal(got[i][a].values, want[i][a].values)
    du = grad_values(u)
    assert du.shape == (n, n) + g.shape
    for i in range(n):
        assert bit_equal(du[i], per_axis_grad(u.component(i)).values)


def test_mixed_derivatives_commute():
    g = Grid(2, 16)
    x, y = g.coords()
    f = HField(g, np.exp(np.sin(x) + 0.3 * np.cos(2 * y)))
    a = f.dx(0).dx(1).values
    b = f.dx(1).dx(0).values
    assert np.abs(a - b).max() < 1e-12


def test_grad_div_consistency():
    g = Grid(2, 16)
    x, y = g.coords()
    f = HField(g, np.sin(x) * np.cos(y) + 0.0 * x)
    v = grad(f)
    lap = div(v)
    # laplacian of sin x cos y is -2 sin x cos y
    assert np.abs(lap.values + 2 * f.values).max() < 1e-12


# -- transforms and evaluation ------------------------------------------------


def test_spectral_roundtrip_and_reality():
    g = Grid(1, 64)
    rng = np.random.default_rng(0)
    f = HField(g, rng.standard_normal(64))
    assert f.spec.shape == g.spec_shape == (33,)
    back = HField.from_spec(g, f.spec)
    assert back.values.dtype == np.float64  # real by construction
    assert np.abs(back.values - f.values).max() < 1e-12


def test_eval_at_nodes_reproduces_values():
    g = Grid(1, 32)
    rng = np.random.default_rng(1)
    f = HField(g, rng.standard_normal(32))
    pts = g.nodes.reshape(-1, 1)
    assert np.abs(f.eval_at(pts) - f.values).max() < 1e-11


def test_eval_at_arbitrary_points_closed_form():
    g = Grid(1, 32)
    f = HField(g, np.sin(2 * g.nodes) + 0.5 * np.cos(5 * g.nodes))
    pts = np.array([[0.1], [1.7], [4.0], [9.0]])  # 9.0 is off-torus on purpose
    want = np.sin(2 * pts[:, 0]) + 0.5 * np.cos(5 * pts[:, 0])
    assert np.abs(f.eval_at(pts) - want).max() < 1e-12


def test_eval_at_2d():
    g = Grid(2, 16)
    x, y = g.coords()
    f = HField(g, np.sin(x) * np.cos(2 * y) + 0.0 * x)
    pts = np.array([[0.3, 1.1], [2.0, 5.0]])
    want = np.sin(pts[:, 0]) * np.cos(2 * pts[:, 1])
    assert np.abs(f.eval_at(pts) - want).max() < 1e-12


def _eval_reference(f, points):
    """Full complex sum over the full (fftn) spectrum, one exp per phase.

    The full coefficients come from np.fft.fftn here, independent of the
    half layout. It reads a Nyquist slot as exp(-i N x / 2), so it agrees
    with eval_at only on fields without Nyquist content.
    """
    g = f.grid
    c = np.fft.fftn(f.values, axes=tuple(range(-g.n, 0))) / g.N**g.n
    kappa = TWO_PI * np.fft.fftfreq(g.N, d=g.dx)
    phases = [np.exp(1j * np.outer(points[:, a], kappa)) for a in range(f.grid.n)]
    if f.grid.n == 1:
        out = np.tensordot(c, phases[0], axes=([-1], [1]))
    else:
        tmp = np.tensordot(c, phases[1], axes=([-1], [1]))
        out = np.einsum("...kp,pk->...p", tmp, phases[0])
    return out.real


@pytest.mark.parametrize("n,N", [(1, 64), (2, 16), (2, 32)])
def test_eval_at_matches_full_sum_on_masked_fields(n, N):
    g = Grid(n, N)
    rng = np.random.default_rng(10 * n + N)
    pts = rng.uniform(-10.0, 20.0, (300, n))
    for shape in (g.shape, (n,) + g.shape):
        f = HField(g, rng.standard_normal(shape)).mask_two_thirds()
        want = _eval_reference(f, pts)
        assert f.eval_at(pts).shape == want.shape
        assert np.abs(f.eval_at(pts) - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("n,N", [(1, 32), (1, 64), (2, 16), (2, 32)])
def test_eval_at_fine_nodes_is_to_fine(n, N):
    # Nyquist slots included: eval_at reads them as padding splits them
    g = Grid(n, N)
    rng = np.random.default_rng(7 * n + N)
    f = HField(g, rng.standard_normal((2,) + g.shape))
    fine = Grid(n, grids.PAD * N, g.L)
    pts = np.stack([np.broadcast_to(x, fine.shape) for x in fine.coords()]).reshape(n, -1).T
    want = to_fine(f)
    assert np.abs(f.eval_at(pts).reshape(want.shape) - want).max() < 1e-13


def test_fft_is_called_only_in_grids():
    # the Fourier layout has one home, and that home uses only the real-input
    # transforms: no second (complex, full) layout next to the half one
    src = Path(__file__).resolve().parents[1] / "src" / "thinlayer"
    pattern = re.compile(r"\b(np|numpy)\.fft\b|from numpy import fft")
    hits = [
        f"{path.name}:{i}"
        for path in sorted(src.glob("*.py"))
        if path.name != "grids.py"
        for i, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if pattern.search(line)
    ]
    assert sorted(src.glob("*.py")) and hits == []
    text = (src / "grids.py").read_text(encoding="utf-8")
    assert "import fft" not in text and "fft import" not in text
    calls = re.findall(r"\b(?:np|numpy)\.fft\.(\w+)", text)
    assert calls and set(calls) <= {"rfft", "irfft", "rfftn", "irfftn"}
    assert len(re.findall(r"\b(?:np|numpy)\.fft\b", text)) == len(calls)


def _full_resize(spec, axes, size):
    """Zero-pad or truncate full (fftn) spectra along axes to size modes:
    padding splits the Nyquist slot symmetrically, truncation folds the
    +-N/2 pair back into it. The full-layout reference of grids' padding."""
    for axis in axes:
        spec = np.moveaxis(spec, axis, 0)
        n = spec.shape[0]
        half = min(n, size) // 2
        out = np.zeros((size,) + spec.shape[1:], dtype=complex)
        out[:half] = spec[:half]
        out[1 - half :] = spec[1 - half :]
        if size > n:
            out[half] = out[-half] = 0.5 * spec[half]
        else:
            out[half] = spec[half] + spec[-half]
        spec = np.moveaxis(out, 0, axis)
    return spec


def _half_resize(g, spec, size):
    """Zero-pad or truncate half (rfftn) spectra to size points per axis, one
    axis at a time into fresh arrays: the leading axis in 2D as in
    _full_resize, then the half axis, whose padding halves the Nyquist
    column and whose truncation folds it as S[k1, N/2] + conj(S[-k1, N/2]).
    The reference of grids' in-place padding and its truncation."""
    if g.n == 2:
        spec = _full_resize(spec, (-2,), size)
    half = min(spec.shape[-1] - 1, size // 2)
    out = np.zeros(spec.shape[:-1] + (size // 2 + 1,), dtype=complex)
    out[..., :half] = spec[..., :half]
    col = spec[..., half]
    if size // 2 > half:
        out[..., half] = 0.5 * col
    else:
        mirror = col[..., -np.arange(col.shape[-1]) % col.shape[-1]] if g.n == 2 else col
        out[..., half] = col + mirror.conj()
    return out


@pytest.mark.parametrize("n,N", [(1, 64), (2, 16)])
def test_transforms_equal_rfftn_bit_for_bit(n, N):
    # the 1D shortcut through rfft/irfft changes no bit of the rfftn results
    g = Grid(n, N)
    axes = tuple(range(-n, 0))
    size = grids.PAD * N
    rng = np.random.default_rng(5)
    f = HField(g, rng.standard_normal(g.shape))
    assert np.array_equal(f.spec, np.fft.rfftn(f.values, axes=axes))
    back = HField.from_spec(g, f.spec).values
    assert np.array_equal(back, np.fft.irfftn(f.spec, g.shape, axes=axes))
    stack = np.fft.rfftn(rng.standard_normal((3, 2) + g.shape), axes=axes)
    fine = grids._spec_to_fine(g, stack)
    padded = _half_resize(g, stack, size)
    assert np.array_equal(fine, np.fft.irfftn(padded, (size,) * n, axes=axes) * grids.PAD**n)
    back = _half_resize(g, np.fft.rfftn(fine, axes=axes), N)
    assert np.array_equal(grids._fine_to_spec(g, fine), back / grids.PAD**n)


@pytest.mark.parametrize("n,N", [(1, 16), (2, 8), (2, 16)])
def test_half_layout_nyquist_matches_full_layout(n, N):
    # Nyquist content on every axis. Padding and truncation are exact
    # inverses on the half layout; padding matches the full layout's
    # symmetric split, and the half-layout fold S[k1, N/2] + conj(S[-k1, N/2])
    # matches the full layout's fold of the +-N/2 pair, both built here on
    # np.fft.fftn spectra
    g = Grid(n, N)
    axes = tuple(range(-n, 0))
    size = grids.PAD * N
    rng = np.random.default_rng(N + n)
    values = rng.standard_normal((3,) + g.shape)
    spec = np.fft.rfftn(values, axes=axes)
    for a in axes:
        assert np.abs(np.take(spec, N // 2, axis=a)).min() > 1e-3
    again = grids._fine_to_spec(g, grids._spec_to_fine(g, spec))
    assert np.abs(again - spec).max() <= 1e-14 * np.abs(spec).max()

    padded = _full_resize(np.fft.fftn(values, axes=axes), axes, size)
    want = np.fft.ifftn(padded, axes=axes).real * grids.PAD**n
    assert np.abs(grids._spec_to_fine(g, spec) - want).max() <= 1e-14 * np.abs(want).max()

    fine = rng.standard_normal((3,) + (size,) * n)
    full = _full_resize(np.fft.fftn(fine, axes=axes), axes, N) / grids.PAD**n
    half = grids._fine_to_spec(g, fine)
    assert half.shape == (3,) + g.spec_shape
    assert np.abs(half - full[..., : N // 2 + 1]).max() <= 1e-14 * np.abs(full).max()


@pytest.mark.parametrize("n,N", [(1, 16), (2, 8)])
def test_ik_is_read_only_first_derivative(n, N):
    g = Grid(n, N)
    ik = g.ik
    assert ik.shape == (n,) + g.spec_shape and g.ik is ik
    assert g.spec_shape == (N,) * (n - 1) + (N // 2 + 1,)
    assert not ik.flags.writeable
    with pytest.raises(ValueError):
        ik[0] = 0.0
    f = HField(g, np.random.default_rng(3).standard_normal(g.shape))
    for a in range(n):
        assert np.array_equal(HField.from_spec(g, f.spec * ik[a]).values, f.dx(a).values)
        nyquist = [slice(None)] * n
        nyquist[a] = N // 2
        assert np.all(ik[a][tuple(nyquist)] == 0.0)


def test_coefficients_and_sobolev_sum():
    g = Grid(2, 16)
    x, y = g.coords()
    f = HField(g, 0.5 + np.cos(x) * np.sin(2 * y))
    c = f.coefficients
    assert abs(c[0, 0] - 0.5) < 1e-15
    back = HField.from_coefficients(g, c)
    assert np.abs(back.values - f.values).max() < 1e-14
    # mean^2 plus (1 + 5)^s times the L2 mass of the product mode
    for s in (-0.5, 0.0, 0.5, 1.5):
        want = g.volume * (0.25 + 6.0**s / 4.0)
        assert abs(f.sobolev_sq(s) - want) <= 1e-13 * want
    l2_sq = float((f.values**2).sum()) * g.dx**2
    assert abs(f.sobolev_sq(0.0) - l2_sq) <= 1e-13 * l2_sq
    vec = HField.stack([f, 2.0 * f])
    assert abs(vec.sobolev_sq(0.5) - 5.0 * f.sobolev_sq(0.5)) <= 1e-13 * vec.sobolev_sq(0.5)


# -- dealiasing ---------------------------------------------------------------


def test_padding_roundtrip_identity():
    g = Grid(1, 32)
    rng = np.random.default_rng(2)
    f = HField(g, rng.standard_normal(32))
    back = from_fine(g, to_fine(f))
    assert np.abs(back.values - f.values).max() < 1e-12


def test_dealiased_product_matches_dense_grid():
    """Product of two 2/3-band fields == dense-grid product projected back."""
    g = Grid(1, 32)
    x = g.nodes
    cut = g.N // 3
    f = HField(g, np.cos(cut * x) + 0.3 * np.sin(2 * x))
    h = HField(g, np.sin(cut * x) - 0.2 * np.cos(3 * x))
    prod = dealiased_product(f, h)

    dense = Grid(1, 128)
    xd = dense.nodes
    fd = np.cos(cut * xd) + 0.3 * np.sin(2 * xd)
    hd = np.sin(cut * xd) - 0.2 * np.cos(3 * xd)
    dense_spec = np.fft.fft(fd * hd) / dense.N
    # restrict the dense product to the coarse retained modes
    want = np.zeros(g.N, dtype=complex)
    half = g.N // 2
    want[:half] = dense_spec[:half]
    want[half + 1:] = dense_spec[dense.N - half + 1:]
    want[half] = dense_spec[half] + dense_spec[dense.N - half]
    want_vals = np.fft.ifft(want * g.N).real
    assert np.abs(prod.values - want_vals).max() < 1e-12


def test_nonlinear_division():
    g = Grid(1, 64)
    x = g.nodes
    h = HField(g, 1.0 + 0.2 * np.cos(x))
    one = nonlinear(g, lambda a, b: a / b, h, h)
    assert np.abs(one.values - 1.0).max() < 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4),
       st.floats(-2, 2), st.floats(-2, 2))
def test_product_of_single_modes_is_exact(k1, k2, a, b):
    """cos(k1 x) * cos(k2 x) has the exact two-mode expansion."""
    g = Grid(1, 32)
    x = g.nodes
    f = HField(g, a * np.cos(k1 * x))
    h = HField(g, b * np.cos(k2 * x))
    prod = dealiased_product(f, h)
    want = 0.5 * a * b * (np.cos((k1 + k2) * x) + np.cos((k1 - k2) * x))
    assert np.abs(prod.values - want).max() < 1e-10 * max(1.0, abs(a * b))


def test_two_thirds_mask_idempotent_on_band():
    g = Grid(1, 32)
    x = g.nodes
    f = HField(g, np.sin((g.N // 3) * x))
    assert np.abs(f.mask_two_thirds().values - f.values).max() < 1e-12
    hi = HField(g, np.sin((g.N // 3 + 1) * x))
    assert np.abs(hi.mask_two_thirds().values).max() < 1e-12
