"""Norm closed forms, Parseval consistency, and thin-domain quadrature."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thinlayer.grids import Grid, HField
from thinlayer.norms import NormKind, norm
from thinlayer.thinfields import ThinField

TWO_PI = 2.0 * np.pi


def test_norm_kind_validation():
    with pytest.raises(ValueError):
        NormKind("Hk", k=4)
    with pytest.raises(ValueError):
        NormKind("boundary_Hs", s=0.25)
    with pytest.raises(ValueError):
        NormKind("Lp")


def test_l2_closed_forms():
    g = Grid(1, 64)
    f = HField(g, np.sin(g.nodes))
    assert abs(norm(f, NormKind.L2()) - np.sqrt(np.pi)) < 1e-12
    c = HField.constant(g, -1.3)
    assert abs(norm(c, NormKind.L2()) - 1.3 * np.sqrt(TWO_PI)) < 1e-12


def test_h1_closed_form_single_mode():
    # ||sin(kx)||_H1^2 = (1 + k^2) pi
    g = Grid(1, 64)
    k = 3
    f = HField(g, np.sin(k * g.nodes))
    want = np.sqrt((1 + k * k) * np.pi)
    assert abs(norm(f, NormKind.Hk(1)) - want) < 1e-12


def test_parseval_consistency():
    """Quadrature L2 equals the spectral sum (independent route)."""
    g = Grid(1, 64)
    rng = np.random.default_rng(3)
    f = HField(g, rng.standard_normal(64))
    quad = norm(f, NormKind.L2())
    coeff = np.fft.fft(f.values) / g.N  # full spectrum, not the field's half one
    spectral = np.sqrt((np.abs(coeff) ** 2).sum() * g.L)
    assert abs(quad - spectral) < 1e-12 * max(1.0, quad)


def test_boundary_norm_reduces_to_l2_at_s_zero():
    g = Grid(1, 64)
    rng = np.random.default_rng(4)
    f = HField(g, rng.standard_normal(64))
    # s = 0 is not an allowed tag; compare s = 1/2 of a constant instead,
    # where the multiplier is exactly 1 on the only active mode.
    c = HField.constant(g, 2.0)
    assert abs(norm(c, NormKind.boundary(0.5)) - 2.0 * np.sqrt(TWO_PI)) < 1e-12
    # single mode closed form: ||sin kx||_{H^s} = (1 + k^2)^(s/2) sqrt(pi)
    k = 4
    s = 0.5
    m = HField(g, np.sin(k * g.nodes))
    want = (1 + k * k) ** (s / 2) * np.sqrt(np.pi)
    assert abs(norm(m, NormKind.boundary(s)) - want) < 1e-12
    s = -0.5
    want = (1 + k * k) ** (s / 2) * np.sqrt(np.pi)
    assert abs(norm(m, NormKind.boundary(s)) - want) < 1e-12


def test_linf_and_l6():
    g = Grid(1, 64)
    c = HField.constant(g, -2.0)
    assert norm(c, NormKind.Linf()) == 2.0
    assert abs(norm(c, NormKind.L6()) - 2.0 * TWO_PI ** (1 / 6)) < 1e-12


def test_vector_norm_sums_components():
    g = Grid(1, 64)
    v = HField.stack([HField(g, np.sin(g.nodes)), HField(g, np.cos(g.nodes))])
    # |v|^2 integrates to 2 pi
    assert abs(norm(v, NormKind.L2()) - np.sqrt(TWO_PI)) < 1e-12


@settings(max_examples=20, deadline=None)
@given(st.lists(st.floats(-1, 1), min_size=6, max_size=6),
       st.lists(st.floats(-1, 1), min_size=6, max_size=6))
def test_norm_monotonicity(ac, bc):
    """H0 <= H1 <= H2 <= H3 for any trigonometric polynomial."""
    g = Grid(1, 32)
    x = g.nodes
    vals = np.zeros_like(x)
    for k, (a, b) in enumerate(zip(ac, bc), start=1):
        vals += a * np.cos(k * x) + b * np.sin(k * x)
    f = HField(g, vals)
    ns = [norm(f, NormKind.Hk(k)) for k in range(4)]
    for lo, hi in zip(ns, ns[1:]):
        assert lo <= hi + 1e-12


# -- thin norms ---------------------------------------------------------------


def test_thin_l2_z_independent_matches_quadrature():
    """For f(x) independent of z: int eps h0 f^2 dx, computed two ways."""
    g = Grid(1, 64)
    x = g.nodes
    h0 = HField(g, 1.0 + 0.3 * np.cos(x))
    eps = 0.05
    fvals = np.broadcast_to(np.sin(2 * x), (12,) + g.shape)
    tf = ThinField(g, eps, 12, np.array(fvals), h0)
    got = norm(tf, NormKind.L2())
    want = np.sqrt((eps * h0.values * np.sin(2 * x) ** 2).sum() * g.dx)
    assert abs(got - want) < 1e-10


def test_thin_l2_polynomial_in_z_exact():
    """f = z on a flat strip: ||f||^2 = L eps^3 / 3."""
    g = Grid(1, 16)
    eps = 0.1
    tf = ThinField.from_function(g, eps, 8, lambda x, z: z)
    want = np.sqrt(g.L * eps**3 / 3)
    assert abs(norm(tf, NormKind.L2()) - want) < 1e-12


def test_thin_h1_flat_strip_closed_form():
    """f = sin(x) g(z) with g = z/eps: mixed closed form on the strip."""
    g = Grid(1, 32)
    eps = 0.2
    tf = ThinField.from_function(g, eps, 10, lambda x, z: np.sin(x) * z / eps)
    # ||f||^2 = pi eps/3 ; ||fx||^2 = pi eps/3 ; ||fz||^2 = pi 2/eps... :
    # fz = sin(x)/eps, ||fz||^2 = pi * eps / eps^2 = pi/eps
    want = np.sqrt(np.pi * eps / 3 + np.pi * eps / 3 + np.pi / eps)
    assert abs(norm(tf, NormKind.Hk(1)) - want) < 1e-9


def test_thin_derivatives_with_curved_surface():
    """Chain rule against closed forms for f(x, z) = z^2 cos(x)."""
    g = Grid(1, 32)
    x1 = g.nodes
    h0 = HField(g, 1.0 + 0.2 * np.sin(x1))
    eps = 0.1
    tf = ThinField.from_function(g, eps, 10, lambda x, z: z**2 * np.cos(x), h0)
    z = tf.z_coords()
    xb = np.broadcast_to(x1, z.shape)
    dzf = tf.dz()
    assert np.abs(dzf.values - 2 * z * np.cos(xb)).max() < 1e-10
    dxf = tf.dx(0)
    assert np.abs(dxf.values + z**2 * np.sin(xb)).max() < 1e-9


def test_thin_vector_norm_and_linf():
    g = Grid(1, 16)
    eps = 0.1
    a = ThinField.from_function(g, eps, 8, lambda x, z: 3.0 + 0 * z)
    vec = ThinField(g, eps, 8, np.stack([a.values, a.values]))
    assert abs(norm(vec, NormKind.Linf()) - 3.0 * np.sqrt(2)) < 1e-12
    assert abs(norm(a, NormKind.L2()) - 3.0 * np.sqrt(eps * g.L)) < 1e-12
