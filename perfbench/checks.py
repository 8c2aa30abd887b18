"""Output checks for one pipeline run.

Each pipeline's outputs are checked two ways:

* invariants of the acceptance gate (mass drift, energy upticks, chart
  identities, Korn eigenvalue structure, probe verdicts, ...), which hold
  for any seed;
* for the deterministic pipelines, a few summary values compared with the
  reference recorded in reference.json, by a relative tolerance rather than
  checksums, so a faster kernel may move the last bits.

``check`` returns the list of problems found; an empty list means the run
is correct. The manifest is verified as well, so a file that is missing or
does not match its checksum is a problem.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"
RTOL = 1e-7
ATOL = 1e-12

MASS_DRIFT = 1e-11  # relative, as acceptance criterion 8
ENERGY_UPTICK = 1e-8
CHART_IDENTITY = 1e-7
KORN_UNIT_EIG = 1e-6  # eig2..eig5 == 1, eig6 == 2, as acceptance criterion 5
KORN_TWO_EIG = 2e-6
TANH_DEVIATION = 1e-10


def _rows(path: Path) -> list[dict]:
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _steps(cfg: dict) -> int:
    return round(cfg["sw"]["T"] / cfg["sw"]["dt"])


def _points(cfg: dict) -> int:
    return cfg["domain"]["N"] ** cfg["domain"]["n"]


# -- per-pipeline invariants and reference values ---------------------------------
# Each returns (problems, values); values are compared with the reference.


def _sw(out: Path, cfg: dict):
    rows = _rows(out / "sw_diagnostics.csv")
    problems = []
    if len(rows) != _steps(cfg) + 1:
        problems.append(f"sw: {len(rows)} rows, expected {_steps(cfg) + 1}")
    mass = [float(r["mass"]) for r in rows]
    energy = [float(r["energy"]) for r in rows]
    drift = max(abs(m - mass[0]) for m in mass) / abs(mass[0])
    if not drift <= MASS_DRIFT:
        problems.append(f"sw: mass drift {drift:.3g} > {MASS_DRIFT:g}")
    upticks = sum(b > a + ENERGY_UPTICK for a, b in zip(energy, energy[1:]))
    if upticks:
        problems.append(f"sw: {upticks} energy upticks")
    last = rows[-1]
    values = {
        "mass": mass[0],
        "final_energy": energy[-1],
        "final_min_h": float(last["min_h"]),
        "final_max_u": float(last["max_u"]),
    }
    return problems, values


def _ansatz(out: Path, cfg: dict):
    rows = _rows(out / "ansatz_coefficients.csv")
    problems = []
    if len(rows) != _points(cfg):
        problems.append(f"ansatz: {len(rows)} rows, expected {_points(cfg)}")
    values = {
        f"l1_{col}": sum(abs(float(r[col])) for r in rows) for col in rows[0]
    }
    return problems, values


def _lagrangian(out: Path, cfg: dict):
    summary = _json(out / "lagrangian_summary.json")
    problems = [
        f"lagrangian: {key} {summary[key]:.3g} > {CHART_IDENTITY:g}"
        for key in ("height_identity_sup", "volume_identity_sup")
        if not summary[key] <= CHART_IDENTITY
    ]
    rows = _rows(out / "lagrangian_chart.csv")
    expected = (_steps(cfg) + 1) * _points(cfg)
    if len(rows) != expected:
        problems.append(f"lagrangian: {len(rows)} chart rows, expected {expected}")
    final = rows[-_points(cfg):]
    n = cfg["domain"]["n"]
    zf = [float(r["Z0_over_z0"]) for r in final]
    values = {
        "final_displacement_l1": sum(
            abs(float(r[f"X0_{a}"]) - float(r[f"x0_{a}"]))
            for r in final
            for a in range(1, n + 1)
        ),
        "final_zfactor_min": min(zf),
        "final_zfactor_max": max(zf),
    }
    return problems, values


def _study(out: Path, cfg: dict):
    summary = _json(out / "study_summary.json")
    art = out / "claim_discrepancy.json"
    entries = _json(art) if art.exists() else []
    problems = []
    if summary["discrepancy_count"] != len(entries):
        problems.append(
            f"study: discrepancy_count {summary['discrepancy_count']} "
            f"but {len(entries)} entries in claim_discrepancy.json"
        )
    values = {f"slope_{k}": v for k, v in summary["slopes"].items()}
    values["discrepancy_kinds"] = sorted(e["kind"] for e in entries)
    return problems, values


def _korn(out: Path, cfg: dict):
    summary = _json(out / "korn_summary.json")
    rows = _rows(out / "korn_sweep.csv")
    problems = []
    if summary["failures"] != 0:
        problems.append(f"korn: {summary['failures']} conditioning failures")
    if summary["cells"] != len(rows):
        problems.append(f"korn: summary has {summary['cells']} cells, csv {len(rows)}")
    for r in rows:
        if r["cond_flag"]:
            problems.append(f"korn: cell M={r['M']} flagged: {r['cond_flag']}")
            break
        eigs = [float(r[f"eig{i}"]) for i in range(1, 7)]
        ok = (
            0.0 < float(r["lam"]) <= 1.0
            and all(abs(e - 1.0) <= KORN_UNIT_EIG for e in eigs[1:5])
            and abs(eigs[5] - 2.0) <= KORN_TWO_EIG
        )
        if not ok:
            problems.append(f"korn: spectrum at M={r['M']} is not {{Lambda, 1 x4, 2}}: {eigs}")
            break
    values = {
        "cells": summary["cells"],
        "inf_lambda": summary["inf_lambda"],
        "argmin_M": summary["argmin"]["M"],
        "max_jump": summary["max_jump"],
    }
    return problems, values


def _probe(out: Path, cfg: dict):
    verdicts = _json(out / "probe_summary.json")
    rows = _rows(out / "probe_ratios.csv")
    problems = [
        f"probe: {tag} verdict {v['verdict']!r}"
        for tag, v in verdicts.items()
        if v["verdict"] != "bounded"
    ]
    expected = 5 * len(cfg["probes"]["eps_list"])
    if len(verdicts) != 5 or len(rows) != expected:
        problems.append(f"probe: {len(verdicts)} tags and {len(rows)} rows, expected 5 and {expected}")
    for r in rows:
        lo, hi = float(r["min_ratio"]), float(r["max_ratio"])
        if int(r["n_samples"]) < 50 or not 0.0 < lo <= hi or not math.isfinite(hi):
            problems.append(f"probe: bad row {r}")
            break
    return problems, None  # seeded: invariants only


def _laplace(out: Path, cfg: dict):
    summary = _json(out / "laplace_summary.json")
    rows = _rows(out / "laplace_modes.csv")
    problems = []
    if not summary["max_tanh_deviation"] <= TANH_DEVIATION:
        problems.append(
            f"laplace: tanh deviation {summary['max_tanh_deviation']:.3g} > {TANH_DEVIATION:g}"
        )
    expected = 8 * len(cfg["probes"]["eps_list"])
    if len(rows) != expected:
        problems.append(f"laplace: {len(rows)} rows, expected {expected}")
    values = {
        "neumann_ratio_spread": summary["neumann_ratio_spread"],
        "dirichlet_ratio_sum": sum(float(r["dirichlet_ratio"]) for r in rows),
    }
    return problems, values


CHECKS = {
    "sw": _sw,
    "ansatz": _ansatz,
    "lagrangian": _lagrangian,
    "study": _study,
    "korn": _korn,
    "probe": _probe,
    "laplace": _laplace,
}


def _manifest(out: Path) -> list[str]:
    manifest = _json(out / "manifest.json")
    problems = []
    for entry in manifest["files"]:
        data = (out / entry["name"]).read_bytes()
        if len(data) != entry["bytes"] or hashlib.sha256(data).hexdigest() != entry["sha256"]:
            problems.append(f"manifest: {entry['name']} does not match its checksum")
    if not manifest["files"]:
        problems.append("manifest: no files listed")
    return problems


def _differs(got, ref) -> bool:
    if isinstance(ref, (int, float)) and isinstance(got, (int, float)):
        return not abs(got - ref) <= RTOL * abs(ref) + ATOL
    return got != ref


def summarize(pipeline: str, out: Path, cfg: dict):
    """(invariant problems, reference values or None) for one output dir."""
    problems, values = CHECKS[pipeline](out, cfg)
    return _manifest(out) + problems, values


def check(pipeline: str, out: Path, cfg: dict, reference: dict | None) -> list[str]:
    """Every problem with the outputs of one pipeline run; empty if correct.

    reference is this pipeline's entry in reference.json; it is required
    for every pipeline whose outputs do not depend on the seed.
    """
    try:
        problems, values = summarize(pipeline, out, cfg)
    except (OSError, KeyError, ValueError, TypeError, IndexError, ZeroDivisionError) as exc:
        return [f"{pipeline}: unreadable outputs: {type(exc).__name__}: {exc}"]
    if values is None:
        return problems
    if reference is None:
        return problems + [f"{pipeline}: no reference values"]
    for key in sorted(set(values) | set(reference)):
        got, ref = values.get(key), reference.get(key)
        if _differs(got, ref):
            problems.append(f"{pipeline}: {key} = {got!r}, reference {ref!r}")
    return problems


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))
