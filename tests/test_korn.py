"""Thin-domain Korn pencil: spectrum structure, sweep, and probe."""
import math
import warnings

import numpy as np
import pytest

from thinlayer import korn, probes
from thinlayer.config import DEFAULT_CONFIG, korn_m_grid
from thinlayer.korn import (
    SIGMA_LINE,
    ConditioningError,
    QuadratureError,
    korn_basis_eval,
    korn_pencil,
    korn_sweep,
    sigma_circle,
)
from thinlayer.probes import KMAX, PDEG, _Strip, anisotropy_probe

# the configured Korn M grid; each sweep test sets its own count
M_GRID = DEFAULT_CONFIG["korn"]["M_grid"]

# High-precision references for Lambda(M, sigma), frozen from a 50-digit
# reimplementation of the same pencil (Cholesky + symmetric eigensolve).
LAMBDA_REF = [
    (0.01, (1.0, 0.0), 0.999983333833),
    (0.05, (1.0, 0.0), 0.999583645656),
    (2.0, (1.0, 0.0), 0.733151279472),
    (2.0, (math.cos(0.7), math.sin(0.7)), 0.7288927443122456),
    (5.0, (math.cos(0.7), math.sin(0.7)), 0.6684603488857739),
    (50.0, (math.cos(0.7), math.sin(0.7)), 0.669915606583),
]


# -- basis evaluation ---------------------------------------------------------


def test_basis_eval_first_member():
    # coefficient a1 alone gives (-c, s) * z
    U, dU, ddU = korn_basis_eval(1.0, (1.0, 0.0), (1, 0, 0, 0, 0, 0), 1.0)
    assert np.allclose(U, [-1.0, 0.0], atol=0.0)
    assert np.allclose(dU, [-1.0, 0.0], atol=0.0)
    assert np.allclose(ddU, [0.0, 0.0], atol=0.0)


def test_basis_eval_vanishes_at_bottom():
    rng = np.random.default_rng(7)
    for _ in range(5):
        coeffs = rng.standard_normal(6)
        th = rng.uniform(0.0, 2.0 * np.pi)
        U, _, _ = korn_basis_eval(3.0, (np.cos(th), np.sin(th)), coeffs, 0.0)
        assert np.abs(U).max() <= 1e-14


def test_basis_eval_second_family_direction():
    # a2 alone gives (s, c) * sinh z
    c, s = math.cos(0.3), math.sin(0.3)
    U, dU, _ = korn_basis_eval(2.0, (c, s), (0, 0, 0, 1, 0, 0), 1.5)
    assert abs(U[0] - s * math.sinh(1.5)) <= 1e-14
    assert abs(U[1] - c * math.sinh(1.5)) <= 1e-14
    assert abs(dU[0] - s * math.cosh(1.5)) <= 1e-14


def test_basis_eval_validation():
    with pytest.raises(ValueError):
        korn_basis_eval(-1.0, (1.0, 0.0), (1, 0, 0, 0, 0, 0), 0.5)
    with pytest.raises(ValueError):
        korn_basis_eval(1.0, (0.5, 0.5), (1, 0, 0, 0, 0, 0), 0.5)
    with pytest.raises(ValueError):
        korn_basis_eval(1.0, (1.0, 0.0), (1, 0, 0), 0.5)
    with pytest.raises(ValueError):
        korn_basis_eval(1.0, (1.0, 0.0), (1, 0, 0, 0, 0, 0), 2.0)


# -- gram assembly ------------------------------------------------------------


def test_gram_symmetry_and_rank_two_difference():
    for M, sig in ((0.5, (1.0, 0.0)), (2.0, (0.6, 0.8)), (8.0, (0.0, 1.0))):
        p = korn_pencil(M, sig)
        q1, q2 = p.q1, p.q2
        assert np.abs(q1 - q1.T).max() == 0.0
        assert np.abs(q2 - q2.T).max() == 0.0
        sv = np.linalg.svd(q2 - q1, compute_uv=False)
        assert sv[2] <= 1e-10 * sv[0]


def test_gram_boundary_form_oracle():
    # q2 - q1 must equal the rank-2 boundary form v1 v2^T + v2 v1^T built
    # from the trace values at z = M, an independent assembly route.
    M, sig = 1.7, (math.cos(1.1), math.sin(1.1))
    c, s = sig
    p = korn_pencil(M, sig)
    q1, q2 = p.q1, p.q2
    coeffs = np.eye(6)
    v1 = np.empty(6)
    v2 = np.empty(6)
    for i in range(6):
        U, dU, _ = korn_basis_eval(M, sig, coeffs[i], M)
        v1[i] = c * U[0] + s * U[1]
        v2[i] = c * dU[0] + s * dU[1]
    boundary = np.outer(v1, v2) + np.outer(v2, v1)
    scale = np.abs(q2 - q1).max()
    assert np.abs((q2 - q1) - boundary).max() <= 1e-10 * scale


def test_gram_positive_definite_q1():
    for M in (0.1, 1.0, 10.0):
        q1 = korn_pencil(M, (1.0, 0.0)).q1
        assert np.linalg.eigvalsh(q1).min() > 0.0


def test_gram_validation():
    with pytest.raises(ValueError):
        korn_pencil(0.0, (1.0, 0.0))
    with pytest.raises(ValueError):
        korn_pencil(1.0, (0.3, 0.4))
    with pytest.raises(ValueError):
        korn_pencil(1.0, (1.0, 0.0), quad_nodes=32)


# -- pencil spectrum ----------------------------------------------------------


def test_lambda_reference_values():
    for M, sig, want in LAMBDA_REF:
        p = korn_pencil(M, sig)
        assert abs(p.Lambda - want) <= 1e-9, (M, sig, p.Lambda)


def test_spectrum_cluster_structure():
    # {Lambda, 1 x4, 2} in ascending order for every cell away from the
    # small-M merge, where Lambda sits further than 1e-6 below 1
    for M in (0.1, 0.5, 2.0, 10.0):
        for sig in sigma_circle(4):
            p = korn_pencil(M, sig)
            spec = p.spectrum
            assert spec.shape == (6,)
            assert spec[0] == p.Lambda and 0.0 < p.Lambda < 1.0 - 1e-6
            assert np.abs(spec[1:5] - 1.0).max() <= 1e-6
            assert abs(spec[5] - 2.0) <= 2e-6


def test_lambda_small_m_expansion():
    # Lambda -> 1 like 1 - M^2/6 + O(M^4); at M = 0.05 it sits within 5e-2
    p = korn_pencil(0.05, (1.0, 0.0))
    assert abs(p.Lambda - 1.0) <= 0.05
    assert abs((1.0 - p.Lambda) - 0.05**2 / 6.0) <= 1e-6


def test_small_m_cluster_merges_at_loose_tolerance():
    # at M = 0.01 Lambda is within 1e-4 of 1, so at that tolerance the
    # spectrum is a 5-fold cluster at 1 plus the eigenvalue 2
    spec = korn_pencil(0.01, (1.0, 0.0)).spectrum
    assert np.abs(spec[:5] - 1.0).max() <= 1e-4
    assert abs(spec[5] - 2.0) <= 1e-6


def test_spectrum_sigma_symmetry():
    # the forms depend on sigma quadratically: flipping sigma changes nothing
    for M in (0.3, 4.0):
        a = korn_pencil(M, (0.6, 0.8)).spectrum
        b = korn_pencil(M, (-0.6, -0.8)).spectrum
        assert np.abs(a - b).max() <= 1e-10 * np.abs(a).max()


def test_gauss_legendre_rule_is_cached_read_only():
    for nq in (96, 192):
        x, w = korn._gauss_legendre(nq)
        xr, wr = np.polynomial.legendre.leggauss(nq)
        assert np.array_equal(x, xr) and np.array_equal(w, wr)
        assert not x.flags.writeable and not w.flags.writeable
        again = korn._gauss_legendre(nq)
        assert again[0] is x and again[1] is w


def test_pencil_matches_uncached_assembly(monkeypatch):
    # reference: every rule straight from leggauss, and the spectrum's design
    # matrices built anew rather than taken from the Gram assembly
    cells = [(M, (math.cos(0.7), math.sin(0.7))) for M in (0.05, 2.0, 50.0)]
    pencils = [korn_pencil(M, sig) for M, sig in cells]
    monkeypatch.setattr(korn, "_gauss_legendre", np.polynomial.legendre.leggauss)
    for (M, sig), p in zip(cells, pencils):
        _, _, q1, q2 = korn._assemble(M, sig, 96)
        b1, b2 = korn._design_matrices(M, sig, 192, M > 2.0)
        spectrum = korn._pencil_eigs(b1, b2, M, sig)
        assert np.array_equal(p.spectrum, spectrum)
        assert np.array_equal(p.q1, q1) and np.array_equal(p.q2, q2)
        assert np.array_equal(p.b1, b1) and np.array_equal(p.b2, b2)


def test_pencil_validation():
    with pytest.raises(ValueError):
        korn_pencil(float("nan"), (1.0, 0.0))
    with pytest.raises(ValueError):
        korn_pencil(1.0, (2.0, 0.0))


# -- sweep --------------------------------------------------------------------


def test_sweep_infimum_stable_under_doubling():
    s40 = korn_sweep(korn_m_grid({**M_GRID, "count": 40}), SIGMA_LINE)
    s80 = korn_sweep(korn_m_grid({**M_GRID, "count": 80}), SIGMA_LINE)
    assert s40.failures == 0 and s80.failures == 0
    assert abs(s40.inf_lambda - 0.699239854) <= 1e-8
    assert abs(s80.inf_lambda - 0.698936596) <= 1e-8
    assert abs(s80.inf_lambda - s40.inf_lambda) < 1e-3
    assert s40.inf_lambda > 0.0
    # the line minimum sits in the interior, near M = 3.09
    assert 2.0 < s40.argmin["M"] < 4.0


def test_sweep_default_grid_floor():
    sweep = korn_sweep(korn_m_grid({**M_GRID, "count": 24}), sigma_circle(8))
    assert sweep.failures == 0
    # large-M diagonal directions approach the 2/3 floor from above
    assert 0.66 < sweep.inf_lambda <= 0.68
    assert sweep.max_jump < 0.1
    rows = sweep.rows
    assert len(rows) == 24 * 8
    assert set(rows[0]) == {
        "M", "c", "s", "lam", "cond_flag",
        "eig1", "eig2", "eig3", "eig4", "eig5", "eig6",
    }
    summary = sweep.summary()
    assert summary["cells"] == 192 and summary["inf_lambda"] == sweep.inf_lambda


def test_sweep_lambda_monotone_near_zero():
    # on the smallest decade Lambda increases toward 1 as M shrinks
    ms = np.geomspace(0.01, 0.1, 8)
    lams = [korn_pencil(M, (1.0, 0.0)).Lambda for M in ms]
    assert all(a > b - 1e-12 for a, b in zip(lams, lams[1:]))
    assert lams[0] > 1.0 - 1e-2


def test_sweep_repeats_exactly():
    first = korn_sweep(korn_m_grid({**M_GRID, "count": 12}), sigma_circle(2))
    second = korn_sweep(korn_m_grid({**M_GRID, "count": 12}), sigma_circle(2))
    assert first.rows == second.rows
    assert first.inf_lambda == second.inf_lambda


def test_sweep_overflow_is_a_counted_failure_without_warnings():
    # from M ~ 350 the squared basis overflows the Gram matrices; those
    # cells fail as conditioning failures and numpy stays quiet
    m_grid = np.geomspace(1e-8, 1e8, 12)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sweep = korn_sweep(m_grid, SIGMA_LINE)
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    overflowed = [r for r in sweep.rows if "overflow" in r["cond_flag"]]
    assert sweep.failures == len(overflowed) > 0
    assert all(r["M"] > 350.0 and r["lam"] is None for r in overflowed)
    assert all(r["lam"] is not None for r in sweep.rows if r["M"] < 350.0)


def test_sweep_validation():
    with pytest.raises(ValueError):
        korn_sweep(np.array([0.5, 0.2]), SIGMA_LINE)
    with pytest.raises(ValueError):
        korn_sweep(np.array([0.5]), SIGMA_LINE)
    with pytest.raises(ValueError):
        korn_sweep(korn_m_grid({**M_GRID, "count": 4}), [(0.2, 0.2)])


# -- inequality probe ---------------------------------------------------------


def test_probe_translation_floor_and_uniformity():
    gamma = 0.7
    rep = anisotropy_probe("korn", [0.1, 0.01, 0.001], samples=56, seed=3, gamma_bar=gamma)
    assert rep.tag == "korn"
    mins = [r["min_ratio"] for r in rep.rows]
    # the rigid translation realizes the ratio gamma_bar exactly
    for m in mins:
        assert abs(m - gamma) <= 1e-12
    assert max(mins) / min(mins) < 3.0
    assert rep.verdict == "bounded"
    for r in rep.rows:
        assert r["n_samples"] >= 50


def test_probe_keeps_every_sample_on_tiny_strips():
    # the fields are scaled by a power of two before squaring: no square
    # overflows (the RuntimeWarning filter would fail this test) and every
    # sample and anchor survives at eps = 1e-100
    rep = anisotropy_probe("korn", [0.1, 1e-14, 1e-100], samples=64, gamma_bar=0.7)
    assert [r["n_samples"] for r in rep.rows] == [67, 67, 67]
    assert all(abs(r["min_ratio"] - 0.7) <= 1e-12 for r in rep.rows)


def test_probe_sample_floor_enforced():
    with pytest.raises(ValueError):
        anisotropy_probe("korn", [0.1], samples=10, gamma_bar=1.0)
    with pytest.raises(ValueError):
        anisotropy_probe("korn", [1.5], samples=64, gamma_bar=1.0)


def test_probe_deterministic_across_calls():
    a = anisotropy_probe("korn", [0.05], samples=52, seed=11, gamma_bar=1.0)
    b = anisotropy_probe("korn", [0.05], samples=52, seed=11, gamma_bar=1.0)
    assert a.rows == b.rows


def _stream_reference(rng, strip):
    """(uh, uv, dux_h, duz_h, dux_v, duz_v) of a random stream function,
    differentiated by hand mode by mode: psi = sum_k (a cos kx + b sin kx)
    / k^2 * sum_m p_m zeta^m with the same draws as the korn probe's samples."""
    eps = strip.eps
    cosk, sink = strip.trig[0]
    zc = strip.zeta[:, None]
    zp = [zc**m for m in range(PDEG + 1)]
    fields = [np.zeros(strip.z.shape) for _ in range(6)]
    uh, uv, dux_h, duz_h, dux_v, duz_v = fields
    for k in range(1, KMAX + 1):
        a, b = rng.standard_normal(2) / k**2
        t = a * cosk[k] + b * sink[k]
        dt = -a * k * sink[k] + b * k * cosk[k]
        ddt = -(k * k) * t
        coef = rng.standard_normal(PDEG)
        P = sum(coef[m - 1] * zp[m] for m in range(1, PDEG + 1))
        dP = sum(m * coef[m - 1] * zp[m - 1] for m in range(1, PDEG + 1)) / eps
        ddP = sum(
            m * (m - 1) * coef[m - 1] * zp[m - 2] for m in range(2, PDEG + 1)
        ) / eps**2
        uh += t * dP
        uv -= dt * P
        dux_h += dt * dP
        duz_h += t * ddP
        dux_v -= ddt * P
        duz_v -= dt * dP
    return tuple(fields)


def _philox(seed, i):
    return np.random.Generator(np.random.Philox([seed, i]))


@pytest.mark.parametrize("seed", [0, 3, 11])
def test_stream_samples_match_hand_derivatives(seed):
    # the stream function as a trig x zeta-polynomial sample, differentiated
    # through the shared tables, against the mode-by-mode algebra
    for eps in (0.1, 0.01, 0.001):
        strip = _Strip(32, 24, eps)
        for i in range(8):
            ref = _stream_reference(_philox(seed, i), strip)
            got = probes._stream_fields(probes._random_stream(_philox(seed, i), strip))
            for g, r in zip(got, ref):
                assert np.abs(g - r).max() <= 1e-13 * np.abs(r).max()
            want = probes._korn_ratio(ref, strip, 0.7)
            assert abs(probes._korn_ratio(got, strip, 0.7) - want) <= 1e-13 * want


@pytest.mark.parametrize("seed", [0, 3, 11])
def test_probe_rows_match_hand_derivatives(seed):
    eps_list, gamma, samples = [0.1, 0.01, 0.001], 0.7, 64
    rep = anisotropy_probe("korn", eps_list, samples=samples, seed=seed, gamma_bar=gamma)
    for eps, row in zip(eps_list, rep.rows):
        strip = _Strip(32, 24, eps)
        ratios = [
            probes._korn_ratio(_stream_reference(_philox(seed, i), strip), strip, gamma)
            for i in range(samples)
        ]
        shape = strip.z.shape
        translation = (np.ones(shape),) + tuple(np.zeros(shape) for _ in range(5))
        ratios.append(probes._korn_ratio(translation, strip, gamma))
        ratios += [
            probes._korn_ratio(probes._potential_fields(k, strip), strip, gamma)
            for k in (1, 2)
        ]
        assert row["n_samples"] == len(ratios)
        assert abs(row["max_ratio"] - max(ratios)) <= 1e-13 * max(ratios)
        assert abs(row["min_ratio"] - min(ratios)) <= 1e-13 * min(ratios)

