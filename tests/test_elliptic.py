"""Per-mode thin-strip solves: closed forms, sharp constants, lift."""
import numpy as np
import pytest

from thinlayer.chebyshev import gl_nodes
from thinlayer.elliptic import (
    SolverError,
    divergence_lift,
    mode_pressure_dirichlet_top,
    mode_pressure_neumann_bottom,
)
from thinlayer.grids import Grid, HField, deriv
from thinlayer.thinfields import Strip, ThinField

EPS_SWEEP = (0.1, 0.01, 0.001)


# -- Dirichlet-top pressure modes ----------------------------------------------


def test_dirichlet_top_matches_cosh_profile():
    for eps in EPS_SWEEP:
        for k in range(1, 9):
            mp = mode_pressure_dirichlet_top(k, eps, h_k=1.3)
            exact = 1.3 * np.cosh(k * mp.z) / np.cosh(k * eps)
            assert np.abs(mp.values - exact).max() <= 1e-10
            assert mp.residual <= 1e-10


def test_dirichlet_top_ratio_is_tanh():
    # the H1 cost of unit surface data is exactly tanh(|k| eps): the sharp
    # uniform-in-eps elliptic constant
    for eps in EPS_SWEEP:
        for k in (1, 3, 8):
            mp = mode_pressure_dirichlet_top(k, eps, h_k=0.7)
            assert abs(mp.ratio - np.tanh(k * eps)) <= 1e-10


def test_dirichlet_top_small_eps_linearization():
    # as eps -> 0 the profile flattens to the boundary datum itself
    mp = mode_pressure_dirichlet_top(2, 1e-3, h_k=1.0)
    assert np.abs(mp.values - 1.0).max() <= 5e-6
    assert mp.ratio <= 2.1e-3


def test_dirichlet_top_negative_mode_matches_positive():
    a = mode_pressure_dirichlet_top(3, 0.05, h_k=1.0)
    b = mode_pressure_dirichlet_top(-3, 0.05, h_k=1.0)
    assert np.abs(a.values - b.values).max() == 0.0
    assert a.ratio == b.ratio


def test_mode_arguments_validated():
    with pytest.raises(ValueError):
        mode_pressure_dirichlet_top(0, 0.1, 1.0)
    with pytest.raises(ValueError):
        mode_pressure_dirichlet_top(1, 1.5, 1.0)


# -- Neumann-bottom pressure modes ----------------------------------------------


def test_neumann_bottom_matches_sinh_profile():
    for eps in EPS_SWEEP:
        for k in range(1, 9):
            mp = mode_pressure_neumann_bottom(k, eps, g_k=0.8)
            exact = -0.8 * np.sinh(k * (eps - mp.z)) / (k * np.cosh(k * eps))
            assert np.abs(mp.values - exact).max() <= 1e-10
            assert abs(mp.values[-1]) <= 1e-14  # pinned at the surface


def test_neumann_bottom_zero_data_gives_zero():
    mp = mode_pressure_neumann_bottom(4, 0.05, g_k=0.0)
    assert np.abs(mp.values).max() == 0.0
    assert mp.ratio == 0.0


def test_neumann_bottom_ratio_uniform_in_eps():
    ratios = []
    for eps in EPS_SWEEP:
        for k in range(1, 9):
            ratios.append(mode_pressure_neumann_bottom(k, eps, g_k=1.1).ratio)
    assert max(ratios) / min(ratios) < 2.0


# -- divergence lift -------------------------------------------------------------


def _flat_field(grid, eps, nz, fn):
    zeta = gl_nodes(nz)
    shape = (nz,) + grid.shape
    vals = np.empty(shape)
    coords = grid.coords()
    for m in range(nz):
        vals[m] = fn(zeta[m], *coords)
    return ThinField(Strip(grid, eps, nz), vals)


def test_lift_zero_source():
    g = Grid(1, 32)
    lift = divergence_lift(_flat_field(g, 0.1, 12, lambda z, x: 0.0 * x))
    assert np.abs(lift.phi.values).max() == 0.0
    assert lift.ratio == 0.0
    assert lift.compatibility == 0.0


def test_lift_single_mode_closed_form():
    # z-independent cos x source reduces to phi'' = -phi: phi = -cos x
    for eps in EPS_SWEEP:
        g = Grid(1, 32)
        lift = divergence_lift(_flat_field(g, eps, 16, lambda z, x: np.cos(x)))
        want = -np.cos(g.nodes)
        assert np.abs(lift.phi.values - want).max() <= 1e-10
        assert abs(lift.compatibility) <= 1e-14
        assert lift.residual <= 1e-10


def test_lift_reports_incompatible_mean():
    g = Grid(1, 32)
    lift = divergence_lift(
        _flat_field(g, 0.1, 16, lambda z, x: 0.25 + np.cos(x))
    )
    assert abs(lift.compatibility - 0.25) <= 1e-13
    # the projected problem is the pure cosine one
    assert np.abs(lift.phi.values - (-np.cos(g.nodes))).max() <= 1e-10


def test_lift_mean_zero_normalization():
    g = Grid(1, 32)
    nz = 16
    lift = divergence_lift(
        _flat_field(g, 0.05, nz, lambda z, x: np.cos(x) * (1.0 + z * z))
    )
    from thinlayer.chebyshev import clenshaw_curtis_weights

    wz = clenshaw_curtis_weights(nz)
    strip_mean = float(wz @ lift.phi.values.mean(axis=1))
    assert abs(strip_mean) <= 1e-13


def _rough_mean_sources():
    # x-means whose zeta degree exceeds what the Clenshaw-Curtis mean
    # projects out of the Neumann collocation rows on nz = 12
    rng = np.random.default_rng(4)
    return {
        "zeta^10": lambda z, x: z**10 + 0.0 * x,
        "zeta^11": lambda z, x: z**11 + np.cos(x),
        "random": lambda z, x: rng.standard_normal(x.shape),
    }


@pytest.mark.parametrize("name", ["zeta^10", "zeta^11", "random"])
def test_lift_projects_rough_means_compatibly(name):
    from thinlayer.chebyshev import clenshaw_curtis_weights, diff_matrix

    g, nz, eps = Grid(1, 16), 12, 0.1
    h = _flat_field(g, eps, nz, _rough_mean_sources()[name])
    lift = divergence_lift(h)
    assert lift.residual <= 1e-12
    # an independent Laplacian of phi meets the projected source inside and
    # the Neumann data on both walls; phi has strip mean zero
    d = diff_matrix(nz)
    phi = lift.phi.values
    lap = d @ d @ phi / eps**2 + deriv(HField(g, phi), [2]).values
    src = h.values - lift.compatibility
    assert np.abs(lap[1:-1] - src[1:-1]).max() <= 1e-9 * np.abs(h.values).max()
    assert np.abs(d[[0, -1]] @ phi).max() <= 1e-13
    wz = clenshaw_curtis_weights(nz)
    assert abs(wz @ phi.mean(axis=1)) <= 1e-14
    # the removed constant is close to the strip mean of the source
    assert abs(lift.compatibility - wz @ h.values.mean(axis=1)) <= 1e-2


def test_lift_compatibility_is_the_mean_for_polynomial_sources():
    from thinlayer.chebyshev import clenshaw_curtis_weights

    g, nz = Grid(1, 16), 12
    wz = clenshaw_curtis_weights(nz)
    for m in range(10):
        h = _flat_field(g, 0.1, nz, lambda z, x: z**m + np.cos(x))
        lift = divergence_lift(h)
        assert abs(lift.compatibility - wz @ h.values.mean(axis=1)) <= 1e-14
        assert abs(lift.compatibility - 1.0 / (m + 1)) <= 1e-14


def test_lift_vertical_source_solved_in_z():
    # source with genuine z structure: check the PDE residual directly on
    # the k = 1 mode via the analytic second derivative of the output
    g = Grid(1, 32)
    nz = 20
    eps = 0.1
    lift = divergence_lift(
        _flat_field(g, eps, nz, lambda z, x: np.cos(x) * (1.0 + 0.5 * z))
    )
    from thinlayer.chebyshev import diff_matrix

    d = diff_matrix(nz) / eps
    phi = lift.phi.values
    lap = d @ (d @ phi)
    x = g.nodes
    zeta = gl_nodes(nz)
    # horizontal second derivative of the single-mode field is -phi
    src = np.cos(x)[None, :] * (1.0 + 0.5 * zeta[:, None])
    assert np.abs((lap - phi) - src).max() <= 1e-8
    # Neumann walls
    dphi = d @ phi
    assert np.abs(dphi[0]).max() <= 1e-9
    assert np.abs(dphi[-1]).max() <= 1e-9


def test_lift_ratio_stable_across_eps():
    g = Grid(1, 32)
    vals = {}
    for eps in (0.1, 0.01):
        lift = divergence_lift(
            _flat_field(g, eps, 16, lambda z, x: np.cos(x) + 0.3 * np.sin(2 * x))
        )
        vals[eps] = lift.ratio
    assert max(vals.values()) / min(vals.values()) < 2.0


def test_lift_two_dimensional():
    g = Grid(2, 16)
    lift = divergence_lift(
        _flat_field(g, 0.01, 12, lambda z, x, y: np.cos(x) + np.cos(y))
    )
    X, Y = np.meshgrid(g.nodes, g.nodes, indexing="ij")
    assert np.abs(lift.phi.values - (-(np.cos(X) + np.cos(Y)))).max() <= 1e-10


def test_lift_validation():
    g = Grid(1, 16)
    vec = ThinField(Strip(g, 0.1, 8), np.zeros((2, 8, 16)))
    with pytest.raises(ValueError):
        divergence_lift(vec)

    h0 = HField.from_function(g, lambda x: 1.0 + 0.1 * np.cos(x))
    curved = ThinField(Strip(g, 0.1, 8, h0), np.zeros((8, 16)))
    with pytest.raises(ValueError):
        divergence_lift(curved)
