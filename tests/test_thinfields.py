"""Vertical collocation structure of the thin strip and its fields."""
import re
from pathlib import Path

import numpy as np
import pytest

from thinlayer import chebyshev as cheb
from thinlayer.grids import Grid, HField
from thinlayer.thinfields import Strip, ThinField


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
    for eps in (0.0, 1.5, float("nan")):
        with pytest.raises(ValueError):
            Strip(g, eps, 8)
    with pytest.raises(ValueError):
        Strip(g, 0.1, 1)
    with pytest.raises(ValueError):
        Strip(g, 0.1, 8, HField(g, -np.ones(16)))
    with pytest.raises(ValueError):
        ThinField(Strip(g, 0.1, 8), np.zeros((7, 16)))


def test_bottom_is_zeta_zero():
    g = Grid(1, 16)
    tf = ThinField.from_function(Strip(g, 0.1, 8), lambda x, z: z)
    assert np.abs(tf.values[0]).max() == 0.0
    h0 = HField(g, 1.0 + 0.1 * np.cos(g.nodes))
    tf2 = ThinField.from_function(Strip(g, 0.1, 8, h0), lambda x, z: z)
    assert np.abs(tf2.values[-1] - 0.1 * h0.values).max() < 1e-14


def test_strip_collocation_has_one_home():
    # the Gauss-Lobatto levels, Clenshaw-Curtis weights and differentiation
    # matrix of a strip are built by Strip; elliptic's single-mode column
    # solves have no horizontal grid and build their own
    src = Path(__file__).resolve().parents[1] / "src" / "thinlayer"
    pattern = re.compile(r"\b(gl_nodes|clenshaw_curtis_weights|diff_matrix)\b")
    home = {"chebyshev.py", "thinfields.py", "elliptic.py"}
    hits = [
        f"{path.name}:{i}"
        for path in sorted(src.glob("*.py"))
        if path.name not in home
        for i, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if pattern.search(line)
    ]
    assert sorted(src.glob("*.py")) and hits == []
    assert pattern.search((src / "thinfields.py").read_text(encoding="utf-8"))
