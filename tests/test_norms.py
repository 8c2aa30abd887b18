"""Sup and L2 closed forms, Parseval consistency, and thin-domain quadrature."""
import numpy as np
import pytest

from thinlayer.grids import Grid, HField
from thinlayer.norms import norm
from thinlayer.thinfields import Strip, ThinField

TWO_PI = 2.0 * np.pi


def test_norm_kind_validation():
    f = HField.constant(Grid(1, 16), 1.0)
    for kind in ("Hk", "L6", "boundary_Hs", "Lp"):
        with pytest.raises(ValueError):
            norm(f, kind)
    with pytest.raises(TypeError):
        norm(f.values, "L2")


def test_l2_closed_forms():
    g = Grid(1, 64)
    f = HField(g, np.sin(g.nodes))
    assert abs(norm(f, "L2") - np.sqrt(np.pi)) < 1e-12
    c = HField.constant(g, -1.3)
    assert abs(norm(c, "L2") - 1.3 * np.sqrt(TWO_PI)) < 1e-12


def test_parseval_consistency():
    """Quadrature L2 equals the spectral sum (independent route)."""
    g = Grid(1, 64)
    rng = np.random.default_rng(3)
    f = HField(g, rng.standard_normal(64))
    quad = norm(f, "L2")
    coeff = np.fft.fft(f.values) / g.N  # full spectrum, not the field's half one
    spectral = np.sqrt((np.abs(coeff) ** 2).sum() * g.L)
    assert abs(quad - spectral) < 1e-12 * max(1.0, quad)


def test_boundary_norm_reduces_to_l2_at_s_zero():
    # HField.sobolev_sq gives the probes' top-trace H^(1/2) norm
    g = Grid(1, 64)
    rng = np.random.default_rng(4)
    f = HField(g, rng.standard_normal(64))
    assert abs(f.sobolev_sq(0.0) - norm(f, "L2") ** 2) < 1e-12 * norm(f, "L2") ** 2
    # the multiplier is exactly 1 on a constant, the only active mode
    c = HField.constant(g, 2.0)
    assert abs(np.sqrt(c.sobolev_sq(0.5)) - 2.0 * np.sqrt(TWO_PI)) < 1e-12
    # single mode closed form: ||sin kx||_{H^s} = (1 + k^2)^(s/2) sqrt(pi)
    k = 4
    m = HField(g, np.sin(k * g.nodes))
    for s in (0.5, -0.5):
        want = (1 + k * k) ** (s / 2) * np.sqrt(np.pi)
        assert abs(np.sqrt(m.sobolev_sq(s)) - want) < 1e-12


def test_linf_and_l6():
    # only the sup norm is left of the two; it is the largest magnitude
    g = Grid(1, 64)
    c = HField.constant(g, -2.0)
    assert norm(c, "Linf") == 2.0
    v = HField.stack([HField(g, 3.0 * np.cos(g.nodes)), HField(g, 4.0 * np.cos(g.nodes))])
    assert abs(norm(v, "Linf") - 5.0) < 1e-14


def test_vector_norm_sums_components():
    g = Grid(1, 64)
    v = HField.stack([HField(g, np.sin(g.nodes)), HField(g, np.cos(g.nodes))])
    # |v|^2 integrates to 2 pi
    assert abs(norm(v, "L2") - np.sqrt(TWO_PI)) < 1e-12


# -- thin norms ---------------------------------------------------------------


def test_thin_l2_z_independent_matches_quadrature():
    """For f(x) independent of z: int eps h0 f^2 dx, computed two ways."""
    g = Grid(1, 64)
    x = g.nodes
    h0 = HField(g, 1.0 + 0.3 * np.cos(x))
    eps = 0.05
    fvals = np.broadcast_to(np.sin(2 * x), (12,) + g.shape)
    tf = ThinField(Strip(g, eps, 12, h0), np.array(fvals))
    got = norm(tf, "L2")
    want = np.sqrt((eps * h0.values * np.sin(2 * x) ** 2).sum() * g.dx)
    assert abs(got - want) < 1e-10


def test_thin_l2_polynomial_in_z_exact():
    """f = z on a flat strip: ||f||^2 = L eps^3 / 3."""
    g = Grid(1, 16)
    eps = 0.1
    tf = ThinField.from_function(Strip(g, eps, 8), lambda x, z: z)
    want = np.sqrt(g.L * eps**3 / 3)
    assert abs(norm(tf, "L2") - want) < 1e-12


def test_thin_l2_polynomial_in_z_on_curved_2d_strip():
    """f = z under h0 = 1 + 0.3 cos x1 cos x2: ||f||^2 = eps^3 int h0^3 / 3,
    and int h0^3 = L^2 (1 + 0.27 / 4) by the x-means of cos^2 products."""
    g = Grid(2, 16)
    x1, x2 = g.coords()
    h0 = HField(g, 1.0 + 0.3 * np.cos(x1) * np.cos(x2))
    eps = 0.05
    tf = ThinField.from_function(Strip(g, eps, 6, h0), lambda x1, x2, z: z)
    want = np.sqrt(eps**3 * g.L**2 * (1.0 + 3 * 0.3**2 / 4) / 3)
    assert abs(norm(tf, "L2") - want) < 1e-14


def test_thin_derivatives_with_curved_surface():
    """Chain rule against closed forms for f(x, z) = z^2 cos(x)."""
    g = Grid(1, 32)
    x1 = g.nodes
    h0 = HField(g, 1.0 + 0.2 * np.sin(x1))
    eps = 0.1
    strip = Strip(g, eps, 10, h0)
    tf = ThinField.from_function(strip, lambda x, z: z**2 * np.cos(x))
    z = strip.z
    xb = np.broadcast_to(x1, z.shape)
    assert np.abs(strip.dz(tf.values) - 2 * z * np.cos(xb)).max() < 1e-10
    vec = strip.dz(np.stack([tf.values, -tf.values]))
    assert np.array_equal(vec, np.stack([strip.dz(tf.values), strip.dz(-tf.values)]))


def test_thin_vector_norm_and_linf():
    g = Grid(1, 16)
    eps = 0.1
    strip = Strip(g, eps, 8)
    a = ThinField.from_function(strip, lambda x, z: 3.0 + 0 * z)
    vec = ThinField(strip, np.stack([a.values, a.values]))
    assert abs(norm(vec, "Linf") - 3.0 * np.sqrt(2)) < 1e-12
    assert abs(norm(a, "L2") - 3.0 * np.sqrt(eps * g.L)) < 1e-12
