"""Vertical collocation structure of thin fields."""
import numpy as np
import pytest

from thinlayer import chebyshev as cheb
from thinlayer.grids import Grid, HField
from thinlayer.thinfields import ThinField


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
    assert np.abs(tf.values[0]).max() == 0.0
    h0 = HField(g, 1.0 + 0.1 * np.cos(g.nodes))
    tf2 = ThinField.from_function(g, 0.1, 8, lambda x, z: z, h0)
    assert np.abs(tf2.values[-1] - 0.1 * h0.values).max() < 1e-14
