"""Scaled-inequality probes: anchors, uniformity, determinism."""
import ast
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from thinlayer import probes
from thinlayer.grids import HField
from thinlayer.probes import (
    PROBE_TAGS,
    ProbeReport,
    _layer_modes,
    _LayerSample,
    _Strip,
    anisotropy_probe,
)

EPS_SWEEP = [0.1, 0.01, 0.001]
TWO_PI = 2.0 * np.pi


def test_all_tags_eps_uniform():
    for tag in PROBE_TAGS:
        rep = anisotropy_probe(tag, EPS_SWEEP, samples=56, seed=2)
        assert rep.verdict == "bounded"
        assert rep.spread() < 3.0
        for row in rep.rows:
            assert row["n_samples"] >= 50
            assert row["max_ratio"] >= row["min_ratio"] > 0.0


def test_constant_field_anchors():
    # closed-form norms of constants on the strip: the interpolation-type
    # ratios lose the eps dependence entirely
    rep = anisotropy_probe("L6", [0.1, 0.001], samples=50, seed=0)
    want = TWO_PI ** (-1.0 / 3.0)
    for row in rep.rows:
        assert abs(row["max_ratio"] - want) <= 1e-12

    rep = anisotropy_probe("Agmon", [0.1, 0.001], samples=50, seed=0)
    want = TWO_PI ** (-0.5)
    for row in rep.rows:
        assert abs(row["max_ratio"] - want) <= 1e-12

    rep = anisotropy_probe("trace_general", [0.1, 0.001], samples=50, seed=0)
    for row in rep.rows:
        assert abs(row["max_ratio"] - 1.0) <= 1e-12


def test_trace_zero_does_not_decay():
    # zero-bottom traces need eps-adapted samples; with them the unscaled
    # ratio holds its level across three decades of thickness
    rep = anisotropy_probe("trace_zero", EPS_SWEEP, samples=56, seed=5)
    tops = [r["max_ratio"] for r in rep.rows]
    assert max(tops) / min(tops) < 1.5
    assert min(tops) > 0.3


def test_probe_deterministic():
    a = anisotropy_probe("L6", [0.01], samples=50, seed=9)
    b = anisotropy_probe("L6", [0.01], samples=50, seed=9)
    assert a.rows == b.rows
    c = anisotropy_probe("L6", [0.01], samples=50, seed=10)
    assert c.rows != a.rows


def test_probe_validation():
    with pytest.raises(ValueError):
        anisotropy_probe("H7", [0.1], samples=50)
    with pytest.raises(ValueError):
        anisotropy_probe("L6", [0.1], samples=10)
    with pytest.raises(ValueError):
        anisotropy_probe("L6", [1.2], samples=50)


def test_report_structure_validated():
    good = {"eps": 0.1, "n_samples": 50, "max_ratio": 1.0, "min_ratio": 0.5}
    rep = ProbeReport("L6", [0.1], [good])
    assert rep.summary()["spread"] == 1.0
    assert rep.summary()["verdict"] == rep.verdict == "bounded"
    with pytest.raises(ValueError):
        ProbeReport("L6", [0.1, 0.01], [good])
    with pytest.raises(ValueError):
        ProbeReport("L6", [0.1], [dict(good, min_ratio=2.0)])
    with pytest.raises(ValueError):
        ProbeReport("L6", [0.1], [dict(good, max_ratio=float("nan"))])
    with pytest.raises(ValueError):
        ProbeReport("L6", [0.1], [dict(good, min_ratio=-0.5)])


def _rows(eps_list, tops, floors):
    return [
        {"eps": e, "n_samples": 50, "max_ratio": t, "min_ratio": f}
        for e, t, f in zip(eps_list, tops, floors)
    ]


def test_report_spread_reads_the_bounded_side():
    # ceilings for the interpolation and trace tags, the floor for korn
    rows = _rows([0.1, 0.01], [2.0, 2.0], [1.0, 0.25])
    assert ProbeReport("L6", [0.1, 0.01], rows).spread() == 1.0
    korn = ProbeReport("korn", [0.1, 0.01], rows)
    assert korn.spread() == 4.0
    assert korn.summary()["spread"] == 4.0
    assert korn.verdict == "unbounded trend"
    rows = _rows([0.1, 0.01], [2.0, 8.0], [1.0, 1.0])
    assert ProbeReport("korn", [0.1, 0.01], rows).verdict == "bounded"
    assert ProbeReport("L6", [0.1, 0.01], rows).verdict == "unbounded trend"


def test_report_zero_floor_has_no_finite_spread():
    rows = _rows([0.1, 0.01], [2.0, 2.0], [0.0, 0.0])
    rep = ProbeReport("korn", [0.1, 0.01], rows)
    assert rep.spread() == float("inf")
    assert rep.verdict == "unbounded trend"
    assert rep.summary()["spread"] is None
    assert ProbeReport("L6", [0.1, 0.01], rows).verdict == "bounded"


def _layer_reference(eps, seed, samples, nx=64, nz=24):
    """(h1_sq, trace_sq) per trace_zero sample from nodal values.

    The nodal composition of the boundary-layer family: every mode is
    evaluated on a trapezoid grid of at least 4 * kmax points, and the norms
    are taken by quadrature and the grids Parseval sum like those of the
    polynomial samples.
    """
    modes = _layer_modes(eps)
    strip = _Strip(max(nx, 1 << (4 * max(modes) - 1).bit_length()), nz, eps)
    z = eps * strip.zeta[:, None]
    out = []
    for i in range(samples):
        rng = np.random.Generator(np.random.Philox([seed, i]))
        amp = rng.standard_normal(len(modes))
        phase = rng.uniform(0.0, 2.0 * np.pi, len(modes))
        u, ux, uz = (np.zeros((nz, strip.grid.N)) for _ in range(3))
        for a, phi, k in zip(amp, phase, modes):
            arg = k * strip.grid.nodes + phi
            s = np.sinh(k * eps)
            u += a * np.cos(arg) * (np.sinh(k * z) / s)
            ux += a * (-k * np.sin(arg)) * (np.sinh(k * z) / s)
            uz += a * np.cos(arg) * (k * np.cosh(k * z) / s)
        h1_sq = strip.integral(u * u) + strip.integral(ux * ux + uz * uz)
        out.append((h1_sq, HField(strip.grid, u[-1]).sobolev_sq(0.5)))
    return out


@pytest.mark.parametrize("seed", [0, 5, 11])
def test_trace_zero_matches_nodal_reference(seed):
    # closed-form x-sums of the layer family equal the nodal quadrature
    samples = 50
    rep = anisotropy_probe("trace_zero", EPS_SWEEP, samples=samples, seed=seed)
    for eps, row in zip(EPS_SWEEP, rep.rows):
        ref = _layer_reference(eps, seed, samples)
        strip = _Strip(64, 24, eps)
        for i, (h1_sq, trace_sq) in enumerate(ref):
            rng = np.random.Generator(np.random.Philox([seed, i]))
            sample = _LayerSample(strip, rng)
            assert abs(sample.h1_sq() - h1_sq) <= 1e-13 * h1_sq
            assert abs(sample.top_trace_sq() - trace_sq) <= 1e-13 * trace_sq
        ratios = [np.sqrt(t) / np.sqrt(h) for h, t in ref]
        assert row["n_samples"] == len(ratios)
        assert abs(row["max_ratio"] - max(ratios)) <= 1e-13 * max(ratios)
        assert abs(row["min_ratio"] - min(ratios)) <= 1e-13 * min(ratios)


def test_trace_zero_tiny_eps_is_cheap():
    # at eps = 1e-5 the layer modes reach k = 1e5; the closed form never
    # builds an x grid for them, so the probe stays small at any eps
    anisotropy_probe("trace_zero", [0.1], samples=50)  # lazy numpy imports
    tracemalloc.start()
    try:
        rep = anisotropy_probe("trace_zero", [0.1, 1e-5], samples=50)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.verdict == "bounded"
    assert peak < 1 << 20


def test_probe_rows_skip_non_finite_anchors(monkeypatch):
    # a degenerate anchor is skipped like a degenerate sample and not counted
    monkeypatch.setattr(probes, "_draw", lambda tag, strip, rng, gamma_bar: rng.uniform(0.5, 1.0))
    monkeypatch.setattr(probes, "_anchors", lambda tag, strip, gamma_bar: [np.nan, 2.0])
    rows = anisotropy_probe("L6", [0.1], samples=50).rows
    assert rows[0]["n_samples"] == 51
    assert rows[0]["max_ratio"] == 2.0 and rows[0]["min_ratio"] >= 0.5


def test_probe_family_has_one_home():
    # the probe strips, samples and band limits live in probes alone, and
    # korn keeps only the pencil: probes may import korn, never the reverse
    src = Path(__file__).resolve().parents[1] / "src" / "thinlayer"
    pattern = re.compile(r"\b(KMAX|PDEG|_Sample|_Strip)\b")
    hits = [
        f"{path.name}:{i}"
        for path in sorted(src.glob("*.py"))
        if path.name != "probes.py"
        for i, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if pattern.search(line)
    ]
    assert sorted(src.glob("*.py")) and hits == []
    assert pattern.search((src / "probes.py").read_text(encoding="utf-8"))
    korn = ast.parse((src / "korn.py").read_text(encoding="utf-8"))
    imported = [
        name
        for node in ast.walk(korn)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for name in [getattr(node, "module", None) or ""] + [a.name for a in node.names]
    ]
    assert not any("probes" in name.split(".") for name in imported)
