"""Vertical collocation structure and barycentric evaluation."""
import numpy as np
import pytest

from thinlayer import chebyshev as cheb
from thinlayer.grids import Grid, HField
from thinlayer.thinfields import ThinField, vertical_eval


def test_gl_nodes_ascending_with_bottom_first():
    z = cheb.gl_nodes(9)
    assert z[0] == 0.0
    assert z[-1] == 1.0
    assert np.all(np.diff(z) > 0)


def test_clenshaw_curtis_weights_integrate_polynomials():
    nz = 9
    w = cheb.clenshaw_curtis_weights(nz)
    z = cheb.gl_nodes(nz)
    assert abs(w.sum() - 1.0) < 1e-14
    for p in range(nz):  # exact through degree nz - 1
        assert abs(w @ z**p - 1.0 / (p + 1)) < 1e-13


def test_diff_matrix_exact_on_polynomials():
    nz = 10
    D = cheb.diff_matrix(nz)
    z = cheb.gl_nodes(nz)
    for p in range(1, nz):
        assert np.abs(D @ z**p - p * z ** (p - 1)).max() < 1e-10


def test_thinfield_validation():
    g = Grid(1, 16)
    with pytest.raises(ValueError):
        ThinField(g, 0.0, 8, np.zeros((8, 16)))
    with pytest.raises(ValueError):
        ThinField(g, 1.5, 8, np.zeros((8, 16)))
    with pytest.raises(ValueError):
        ThinField(g, 0.1, 3, np.zeros((3, 16)))
    with pytest.raises(ValueError):
        ThinField(g, 0.1, 8, np.zeros((7, 16)))
    bad_h0 = HField(g, -np.ones(16))
    with pytest.raises(ValueError):
        ThinField(g, 0.1, 8, np.zeros((8, 16)), bad_h0)


def test_bottom_is_zeta_zero():
    g = Grid(1, 16)
    tf = ThinField.from_function(g, 0.1, 8, lambda x, z: z)
    assert np.abs(tf.bottom().values).max() == 0.0
    h0 = HField(g, 1.0 + 0.1 * np.cos(g.nodes))
    tf2 = ThinField.from_function(g, 0.1, 8, lambda x, z: z, h0)
    assert np.abs(tf2.top().values - 0.1 * h0.values).max() < 1e-14


def test_vertical_eval_exact_for_polynomials():
    """Interpolation reproduces polynomial columns exactly (degree < nz)."""
    g = Grid(1, 16)
    h0 = HField(g, 1.0 + 0.2 * np.cos(g.nodes))
    eps = 0.2
    nz = 8
    tf = ThinField.from_function(g, eps, nz, lambda x, z: 1 + z + 3 * z**5, h0)
    j = 5
    height = eps * h0.values[j]
    zq = np.linspace(0, height, 13)
    got = vertical_eval(tf, j, zq)
    want = 1 + zq + 3 * zq**5
    assert np.abs(got - want).max() < 1e-12


def test_vertical_eval_at_nodes_is_exact():
    g = Grid(1, 16)
    rng = np.random.default_rng(5)
    tf = ThinField(g, 0.1, 8, rng.standard_normal((8, 16)))
    j = 3
    z_nodes = tf.zeta * 0.1  # flat strip heights
    got = vertical_eval(tf, j, z_nodes)
    assert np.abs(got - tf.values[:, j]).max() < 1e-13


def test_vertical_eval_refinement_stable():
    """Doubling nz changes smooth-field interpolants below 1e-10."""
    g = Grid(1, 16)
    eps = 0.1
    f = lambda x, z: np.sin(x) * np.exp(z / eps) / np.e
    a = ThinField.from_function(g, eps, 16, f)
    b = ThinField.from_function(g, eps, 32, f)
    zq = np.linspace(0, eps, 11)
    va = vertical_eval(a, 2, zq)
    vb = vertical_eval(b, 2, zq)
    assert np.abs(va - vb).max() < 1e-10


def test_vertical_eval_rejects_out_of_column():
    g = Grid(1, 16)
    tf = ThinField.from_function(g, 0.1, 8, lambda x, z: z)
    with pytest.raises(ValueError):
        vertical_eval(tf, 0, 0.2)   # far above the surface
    with pytest.raises(ValueError):
        vertical_eval(tf, 0, -0.01)
    # 1 percent overshoot is allowed
    vertical_eval(tf, 0, 0.1 * 1.009)


def test_vertical_eval_vector_and_2d():
    g = Grid(2, 8)
    tf = ThinField.from_function(g, 0.1, 6, lambda x, y, z: x + 2 * y + z)
    vec = ThinField(g, 0.1, 6, np.stack([tf.values, 2 * tf.values]))
    out = vertical_eval(vec, (2, 3), 0.05)
    x, y = g.nodes[2], g.nodes[3]
    want = x + 2 * y + 0.05
    assert np.abs(out - np.array([want, 2 * want])).max() < 1e-12


@pytest.mark.parametrize("n,vector", [(1, False), (2, False), (1, True)])
def test_dx_at_zeta_is_per_level_derivative_on_a_real_buffer(n, vector):
    g = Grid(n, 16)
    tf = ThinField.from_function(
        g, 0.1, 6, lambda *xz: np.sin(xz[0]) * (1.0 + xz[-1]) + np.cos(2 * xz[n - 1])
    )
    if vector:
        tf = ThinField(g, 0.1, 6, np.stack([tf.values, -tf.values]))
    for axis in range(n):
        d = tf.dx_at_zeta(axis)
        assert d.values.shape == tf.values.shape
        levels = tf.values.reshape((-1,) + g.shape)
        for m, level in enumerate(levels):
            want = HField(g, level).dx(axis).values
            assert np.abs(d.values.reshape(levels.shape)[m] - want).max() < 1e-13
        # no view onto the complex inverse transform keeps it alive
        arr = d.values
        while arr is not None:
            assert not np.iscomplexobj(arr)
            arr = arr.base
