"""Release gate: one test per shipped guarantee, one PASS/FAIL line each.

Each criterion is a separate test so `pytest -v` prints exactly one line per
guarantee; the explicit [PASS]/[FAIL] print carries the measured numbers.
Criterion 3 has a documented escape: if a fitted residual order lands below
the claimed window, the study must isolate the dominant term and emit the
claim-discrepancy artifact, and THAT is the pass condition (see README).
"""
import json
import math
import time

import numpy as np

from thinlayer.cli import run
from thinlayer.config import DEFAULT_CONFIG, korn_m_grid
from thinlayer.elliptic import mode_pressure_dirichlet_top
from thinlayer.grids import Grid, HField
from thinlayer.korn import (
    SIGMA_LINE,
    korn_pencil,
    korn_sweep,
    sigma_circle,
)
from thinlayer.lagrangian import integrate_chart
from thinlayer.probes import PROBE_TAGS, anisotropy_probe
from thinlayer.reports import MANIFEST_NAME
from thinlayer.residuals import (
    bottom_residual,
    convergence_study,
    divergence_residual,
    interior_residual,
    kinematic_residual,
    traction_residual,
)
from thinlayer.shallow_water import Params, initial_wave, sw_energy, sw_steps
from thinlayer.thinfields import Strip
from tests.conftest import loglog_slope, stacked_state

EPS3 = (0.1, 0.01, 0.001)


def _gate(num, label, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {label}{tail}")
    assert ok, f"criterion {num}: {label}{tail}"


def _random_state(i, N=32):
    """Band-limited positive height and velocity, one counter stream each."""
    g = Grid(1, N)
    rng = np.random.Generator(np.random.Philox([77, i]))
    x = g.coords()[0]
    h = np.ones(g.shape)
    u = np.zeros(g.shape)
    for k in range(1, 5):
        ah, au = 0.06 * rng.standard_normal(2)
        ph, pu = 2.0 * np.pi * rng.random(2)
        h += ah * np.cos(k * x + ph)
        u += au * np.cos(k * x + pu)
    return stacked_state(0.0, HField(g, h), HField.stack([HField(g, u)]))


def _random_params(i):
    rng = np.random.Generator(np.random.Philox([78, i]))
    return Params(
        F=float(rng.uniform(0.5, 2.0)),
        Re=float(rng.uniform(0.5, 5.0)),
        gamma_bar=float(rng.uniform(0.0, 2.0)),
        eps=float(EPS3[i % 3]),
    )


def test_criterion_01_bottom_conditions_exact():
    from thinlayer.ansatz import build_ansatz

    worst = 0.0
    for i in range(20):
        a = build_ansatz(_random_state(i), _random_params(i))
        rv, rslip = bottom_residual(a)
        worst = max(worst, np.abs(rv.values).max(), np.abs(rslip.values).max())
    _gate(1, "bottom conditions exact on 20 random states", worst <= 1e-12,
          f"sup {worst:.3g} <= 1e-12")


def test_criterion_02_ansatz_divergence_exact():
    from thinlayer.ansatz import build_ansatz

    worst = 0.0
    for i in range(20):
        a = build_ansatz(_random_state(i), _random_params(i))
        strip = Strip(a.grid, a.eps, 16, a.base.h0)
        worst = max(worst, np.abs(divergence_residual(a, strip).values).max())
    _gate(2, "ansatz divergence vanishes identically", worst <= 1e-11,
          f"sup {worst:.3g} <= 1e-11")


def test_criterion_03_residual_order_study(tmp_path):
    t0 = time.perf_counter()
    base = Params(F=1.0, Re=1.0, gamma_bar=1.0, eps=0.1)
    eps_list = [0.1, 0.05, 0.025, 0.0125]
    kinds = ("interior_momentum", "kinematic", "traction")

    def study(N, nz):
        init = initial_wave(Grid(1, N), amplitude=0.05, wavenumber=1)
        return convergence_study(init, base, eps_list, t_eval=0.25, nz=nz)

    rep = study(64, 24)
    rep2 = study(128, 48)

    checks = []
    for kind in kinds:
        slope, r2 = rep.slopes[kind], rep.r2[kind]
        checks.append((r2 is not None and r2 >= 0.98, f"{kind} R2 {r2}"))
        drift = abs(rep2.slopes[kind] - slope)
        checks.append((drift < 0.05, f"{kind} slope drift {drift:.3g}"))
        if 2.5 <= slope <= 3.5:
            continue
        # documented discrepancy path: below-window orders must be isolated
        hit = [d for d in rep.discrepancies if d["kind"] == kind]
        checks.append((len(hit) == 1, f"{kind} discrepancy recorded"))
        if kind == "interior_momentum":
            checks.append(
                (hit and "dominant_term" in hit[0], f"{kind} dominant term isolated")
            )
    checks.append((len(rep.term_records) > 0, "term breakdown emitted"))

    # the distinct exit artifact, through the driver
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sw": {"init": {"velocity_amplitude": 0.0}}}))
    out = tmp_path / "out"
    checks.append((run("study", cfg, out=out) == 0, "driver exit 0"))
    art = out / "claim_discrepancy.json"
    if rep.discrepancies:
        entries = json.loads(art.read_text())
        checks.append((art.exists() and len(entries) == len(rep.discrepancies),
                       "claim-discrepancy artifact emitted"))

    elapsed = time.perf_counter() - t0
    checks.append((elapsed <= 120.0, f"runtime {elapsed:.0f}s <= 120s"))
    bad = [d for ok, d in checks if not ok]
    slopes = {k: round(rep.slopes[k], 3) for k in kinds}
    _gate(3, "residual order study with discrepancy reporting", not bad,
          f"slopes {slopes}, {len(rep.discrepancies)} discrepancies documented"
          + (f"; FAILED: {bad}" if bad else ""))


def test_criterion_04_equilibrium_and_uniform_flow_exact():
    from thinlayer.ansatz import build_ansatz

    worst = 0.0
    for eps in (0.1, 0.001):
        p = Params(F=1.0, Re=1.0, gamma_bar=1.0, eps=eps)
        g = Grid(1, 32)
        still = initial_wave(g, amplitude=0.0)
        a = build_ansatz(still, p)
        strip = Strip(g, eps, 16, still.h0)
        for f in (
            interior_residual(a, strip),
            divergence_residual(a, strip),
            kinematic_residual(a),
            traction_residual(a),
            *bottom_residual(a),
        ):
            worst = max(worst, np.abs(f.values).max())
        moving = initial_wave(g, amplitude=0.0)
        moving = stacked_state(0.0, moving.h0, moving.u0 + 0.7)
        am = build_ansatz(moving, p)
        worst = max(worst, np.abs(kinematic_residual(am).values).max())
        worst = max(worst, np.abs(traction_residual(am).values).max())
    _gate(4, "equilibrium and uniform flow cancel exactly", worst <= 1e-12,
          f"sup {worst:.3g} <= 1e-12")


def test_criterion_05_korn_spectrum_structure():
    t0 = time.perf_counter()
    sweep = korn_sweep(np.geomspace(0.1, 10.0, 20), sigma_circle(8))
    checks = [(sweep.failures == 0, "no conditioning failures")]
    for row in sweep.rows:
        eigs = [row[f"eig{i}"] for i in range(1, 7)]
        ok = (
            0.0 < row["lam"] <= 1.0
            and all(abs(e - 1.0) <= 1e-6 for e in eigs[1:5])
            and abs(eigs[5] - 2.0) <= 2e-6
        )
        if not ok:
            checks.append((False, f"cluster structure at M={row['M']:.3g}"))
            break
    lam_small = korn_pencil(0.05, (1.0, 0.0)).Lambda
    checks.append((abs(lam_small - 1.0) <= 0.05, f"|Lambda(0.05)-1| = {abs(lam_small-1):.2e}"))
    m_grid = DEFAULT_CONFIG["korn"]["M_grid"]
    s1 = korn_sweep(korn_m_grid({**m_grid, "count": 40}), SIGMA_LINE)
    s2 = korn_sweep(korn_m_grid({**m_grid, "count": 80}), SIGMA_LINE)
    checks.append((s1.inf_lambda > 0.0, "infimum positive"))
    checks.append(
        (abs(s2.inf_lambda - s1.inf_lambda) < 1e-3,
         f"infimum doubling drift {abs(s2.inf_lambda - s1.inf_lambda):.2e}")
    )
    elapsed = time.perf_counter() - t0
    checks.append((elapsed <= 60.0, f"runtime {elapsed:.0f}s <= 60s"))
    bad = [d for ok, d in checks if not ok]
    _gate(5, "pencil spectrum is {1 x4, 2, Lambda} with stable infimum", not bad,
          f"inf {s1.inf_lambda:.6f}" + (f"; FAILED: {bad}" if bad else ""))


def test_criterion_06_elliptic_mode_constants():
    worst_profile = 0.0
    worst_ratio = 0.0
    for k in range(1, 9):
        for eps in EPS3:
            prof = mode_pressure_dirichlet_top(k, eps, 1.0)
            exact = np.cosh(k * prof.z) / np.cosh(k * eps)
            worst_profile = max(worst_profile, np.abs(prof.values - exact).max())
            worst_ratio = max(worst_ratio, abs(prof.ratio - math.tanh(k * eps)))
    ok = worst_profile <= 1e-10 and worst_ratio <= 1e-10
    _gate(6, "pressure modes match closed form with ratio tanh(|k| eps)", ok,
          f"profile sup {worst_profile:.3g}, ratio dev {worst_ratio:.3g}")


def test_criterion_07_lagrangian_identities():
    t0 = time.perf_counter()
    g = Grid(1, 32)
    ladder_p = Params(F=1.0, Re=10.0, gamma_bar=1.0, eps=0.1)
    init = initial_wave(g, amplitude=0.0, wavenumber=1, velocity_amplitude=0.2)
    dts = [0.04, 0.02, 0.01, 0.005]
    heights, volumes = [], []
    for dt in dts:
        for *_, ids in integrate_chart(sw_steps(init, ladder_p, T=0.4, dt=dt), dt, 0.1, nlev=4):
            pass
        heights.append(ids["height"])
        volumes.append(ids["volume"])
    oh, ov = loglog_slope(dts, heights), loglog_slope(dts, volumes)

    p = Params(F=1.0, Re=1.0, gamma_bar=1.0, eps=0.1)
    single = initial_wave(g, amplitude=0.0, wavenumber=1, velocity_amplitude=0.05)
    for *_, ids in integrate_chart(sw_steps(single, p, T=1.0, dt=1e-3), 1e-3, 0.1, nlev=4):
        pass
    elapsed = time.perf_counter() - t0
    ok = (
        oh >= 3.8
        and ov >= 3.8
        and ids["height"] <= 1e-7
        and ids["volume"] <= 1e-7
        and elapsed <= 60.0
    )
    _gate(7, "chart identities decay at integrator order", ok,
          f"orders {oh:.2f}/{ov:.2f}, dt=1e-3 residuals "
          f"{ids['height']:.2e}/{ids['volume']:.2e}, {elapsed:.0f}s")


def test_criterion_08_shallow_water_integrity():
    t0 = time.perf_counter()
    g = Grid(1, 64)
    p = Params(F=1.0, Re=1.0, gamma_bar=1.0, eps=0.1)
    mass, energy = [], []
    for s, _ in sw_steps(initial_wave(g), p, T=10.0, dt=1e-3):  # 10^4 steps
        mass.append(s.h0.integral())
        energy.append(sw_energy(s, p))
    mass = np.array(mass)
    drift = np.abs(mass - mass[0]).max() / abs(mass[0])
    steps_up = sum(b > a + 1e-8 for a, b in zip(energy, energy[1:]))

    uniform = initial_wave(g, amplitude=0.0)
    uniform = stacked_state(0.0, uniform.h0, uniform.u0 + 0.7)
    dev = max(
        np.abs(s.u0.values - 0.7 * math.exp(-p.gamma_bar * s.t / p.Re)).max()
        for s, _ in sw_steps(uniform, p, T=1.0, dt=1e-3)
    )
    elapsed = time.perf_counter() - t0
    ok = drift <= 1e-11 and steps_up == 0 and dev <= 1e-8 and elapsed <= 60.0
    _gate(8, "mass, energy decay, and friction law over 10^4 steps", ok,
          f"mass drift {drift:.2e}, {steps_up} energy upticks, "
          f"decay dev {dev:.2e}, {elapsed:.0f}s")


def test_criterion_09_inequality_probes_eps_uniform():
    t0 = time.perf_counter()
    spreads = {}
    for tag in PROBE_TAGS:
        rows = anisotropy_probe(tag, EPS3, samples=64, gamma_bar=1.0).rows
        assert all(r["n_samples"] >= 50 for r in rows)
        # the extremal side: the infimum for the coercivity probe korn, the
        # supremum for every other tag
        side = [r["min_ratio" if tag == "korn" else "max_ratio"] for r in rows]
        spreads[tag] = max(side) / min(side)
    elapsed = time.perf_counter() - t0
    ok = all(s < 3.0 for s in spreads.values()) and elapsed <= 120.0
    _gate(9, "scaled extremal ratios uniform across eps", ok,
          ", ".join(f"{t} x{v:.2f}" for t, v in spreads.items()) + f", {elapsed:.0f}s")


def test_criterion_10_deterministic_reruns(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "domain": {"N": 32},
                "sw": {"T": 0.05, "dt": 0.005},
                "study": {"eps_list": [0.1, 0.05, 0.025, 0.0125],
                          "t_eval": 0.05, "nz": 12},
                "korn": {"M_grid": {"min": 0.5, "max": 5.0, "count": 5},
                         "sigma_count": 4, "quad_nodes": 64},
                "probes": {"samples": 50},
            }
        )
    )
    payloads = []
    for label, threads in (("a", 1), ("b", 4)):
        out = tmp_path / label
        assert run("all", cfg, out=out, threads=threads) == 0
        payloads.append(
            {
                f.name: f.read_bytes()
                for f in sorted(out.iterdir())
                if f.name != MANIFEST_NAME
            }
        )
    same = payloads[0] == payloads[1]
    _gate(10, "reruns byte-identical across thread counts", same,
          f"{len(payloads[0])} artifacts compared")
