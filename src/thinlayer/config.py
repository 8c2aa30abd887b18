"""Structured run configuration: parsing, validation, canonical hashing.

The config file is JSON with a fixed key schema (see docs/schema.md). All
range checks happen at load time and are pure arithmetic, never numerics:
`validate` can run on a machine that will never execute a study. The one
array it builds is the Korn M grid, through the korn_m_grid that the
pipeline uses, so the two cannot disagree on it; a count numpy refuses
to build is a violation, not a traceback. Loading
re-serializes the parsed tree in canonical form and hashes it, so two
configs that differ only in whitespace or key order share a hash and
therefore a manifest identity.
"""
from __future__ import annotations

import copy
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .reports import sha256


# Smallest probes.eps_list entry: below about 1e-154 the squares of the
# strip's eps-scaled fields overflow and samples are lost, below about
# 1e-155 every sample of a probe is, and below about 1.5e-162 eps**2
# underflows to 0. At 1e-150 every probe keeps all of its samples.
PROBE_EPS_MIN = 1e-150
# Smallest study.eps_list entry: below about 5.6e-309 the residuals' 1/eps
# overflows and the study writes nan, and below about 2.2e-308 eps is a
# subnormal number. At 1e-300 the study is finite in 1D and 2D.
STUDY_EPS_MIN = 1e-300


class ConfigError(ValueError):
    """Raised by load_config when the file does not validate."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


DEFAULT_CONFIG = {
    "domain": {"n": 1, "N": 64, "L": 6.283185307179586},
    "params": {"F": 1.0, "Re": 1.0, "gamma_bar": 1.0},
    "sw": {
        "init": {"amplitude": 0.05, "wavenumber": 1, "velocity_amplitude": 0.05},
        "T": 1.0,
        "dt": 0.001,
    },
    "study": {"eps_list": [0.1, 0.05, 0.025, 0.0125], "t_eval": 0.25, "nz": 24},
    "korn": {
        "M_grid": {"min": 0.01, "max": 50.0, "count": 48},
        "sigma_count": 8,
        "quad_nodes": 96,
    },
    "probes": {"eps_list": [0.1, 0.01, 0.001], "samples": 64, "seed": 0},
    "output": {"dir": "out", "formats": ["csv", "json"]},
}


@dataclass(frozen=True)
class Config:
    """Validated run configuration, one field per section, plus its
    canonical hash."""

    domain: dict
    params: dict
    sw: dict
    study: dict
    korn: dict
    probes: dict
    output: dict
    sha256: str


def _canonical(tree: dict) -> str:
    return json.dumps(tree, sort_keys=True, separators=(",", ":"))


def _merge_defaults(tree: dict) -> dict:
    """Missing sections and keys fall back to the defaults; the result
    shares no list or dict with DEFAULT_CONFIG."""
    merged = copy.deepcopy(DEFAULT_CONFIG)
    for key, uval in tree.items():
        sub = merged.get(key)
        if not (isinstance(sub, dict) and isinstance(uval, dict)):
            merged[key] = uval
            continue
        for k, v in uval.items():
            if isinstance(sub.get(k), dict) and isinstance(v, dict):
                sub[k].update(v)
            else:
                sub[k] = v
    return merged


def _is_num(v) -> bool:
    """A finite int or float: json parses NaN, Infinity and 1e400 as floats,
    and an integer literal may lie beyond the float range."""
    return (
        isinstance(v, (int, float))
        and not isinstance(v, bool)
        and abs(v) <= sys.float_info.max
    )


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _check_keys(out, tree, section):
    """Report each key of tree that the section's entry in DEFAULT_CONFIG
    lacks (section is a dotted path such as "sw.init"); False, reported,
    when tree is not an object."""
    if not isinstance(tree, dict):
        out.append(f"{section}: expected an object")
        return False
    allowed = DEFAULT_CONFIG
    for part in section.split("."):
        allowed = allowed[part]
    for k in tree:
        if k not in allowed:
            out.append(f"{section}.{k}: unknown key")
    return True


def _check_eps_list(out, lst, where):
    if not isinstance(lst, list) or not lst or not all(_is_num(e) for e in lst):
        out.append(f"{where}: must be a non-empty list of numbers")
        return
    if any(not 0.0 < e < 1.0 for e in lst):
        out.append(f"{where}: entries must lie in (0, 1)")
    if any(b >= a for a, b in zip(lst, lst[1:])):
        out.append(f"{where}: must be strictly decreasing")


def korn_m_grid(mg: dict) -> np.ndarray:
    """The Korn sweep's M values: count points spaced geometrically over
    [min, max]."""
    return np.geomspace(mg["min"], mg["max"], mg["count"])


def validate_tree(tree: dict) -> list:
    """All schema violations in the parsed config; empty means valid."""
    out: list[str] = []
    if not isinstance(tree, dict):
        return ["top level: expected an object"]
    for key in tree:
        if key not in DEFAULT_CONFIG:
            out.append(f"{key}: unknown section")
    t = _merge_defaults(tree)

    d = t["domain"]
    if _check_keys(out, d, "domain"):
        if not _is_int(d["n"]) or d["n"] not in (1, 2):
            out.append("domain.n: must be 1 or 2")
        if not _is_int(d["N"]) or d["N"] < 8 or d["N"] & (d["N"] - 1):
            out.append("domain.N: must be a power of two >= 8")
        if not _is_num(d["L"]) or d["L"] <= 0.0:
            out.append("domain.L: must be positive")
        elif d["n"] == 2 and float(d["L"]) * float(d["L"]) == math.inf:
            out.append("domain.L: L ** n overflows")

    p = t["params"]
    if _check_keys(out, p, "params"):
        for name in ("F", "Re"):
            if not _is_num(p[name]) or p[name] <= 0.0:
                out.append(f"params.{name}: must be positive")
        if _is_num(p["F"]) and p["F"] > 0.0 and p["F"] * p["F"] == 0.0:
            out.append("params.F: F * F underflows to 0")
        if _is_num(p["F"]) and float(p["F"]) * float(p["F"]) == float("inf"):
            out.append("params.F: F * F overflows")
        if not _is_num(p["gamma_bar"]) or p["gamma_bar"] < 0.0:
            out.append("params.gamma_bar: must be nonnegative")

    s = t["sw"]
    if _check_keys(out, s, "sw"):
        init = s["init"]
        if _check_keys(out, init, "sw.init"):
            amp = init["amplitude"]
            if not _is_num(amp) or not 0.0 <= amp < 1.0:
                out.append("sw.init.amplitude: must lie in [0, 1) to avoid vacuum")
            wn = init["wavenumber"]
            if not _is_int(wn) or wn < 1:
                out.append("sw.init.wavenumber: must be a positive integer")
            elif wn > sys.float_info.max or not math.isfinite(2.0 * math.pi * wn):
                out.append("sw.init.wavenumber: 2 pi wavenumber must be a finite float")
            if not _is_num(init["velocity_amplitude"]):
                out.append("sw.init.velocity_amplitude: must be a number")
        for name in ("T", "dt"):
            if not _is_num(s[name]) or s[name] <= 0.0:
                out.append(f"sw.{name}: must be positive")
        if _is_num(s.get("T")) and _is_num(s.get("dt")) and s["dt"] > 0.0:
            steps = s["T"] / s["dt"]
            if not math.isfinite(steps):
                out.append("sw.dt: sw.T / sw.dt overflows")
            elif abs(round(steps) * s["dt"] - s["T"]) > 1e-9 * max(1.0, s["T"]):
                out.append("sw.T: must be an integer multiple of sw.dt")

    st = t["study"]
    if _check_keys(out, st, "study"):
        _check_eps_list(out, st["eps_list"], "study.eps_list")
        eps = st["eps_list"]
        if isinstance(eps, list) and 0 < len(eps) < 4:
            out.append("study.eps_list: need at least 4 aspect ratios")
        if isinstance(eps, list) and any(_is_num(e) and 0.0 < e < STUDY_EPS_MIN for e in eps):
            out.append(f"study.eps_list: entries must be >= {STUDY_EPS_MIN:g}")
        if not _is_num(st["t_eval"]) or st["t_eval"] <= 0.0:
            out.append("study.t_eval: must be positive")
        if not _is_int(st["nz"]) or st["nz"] < 4:
            out.append("study.nz: must be an integer >= 4")

    k = t["korn"]
    if _check_keys(out, k, "korn"):
        mg = k["M_grid"]
        if _check_keys(out, mg, "korn.M_grid"):
            ok = all(_is_num(mg[q]) for q in ("min", "max")) and _is_int(mg["count"])
            if not ok or mg["min"] <= 0.0 or mg["max"] <= mg["min"]:
                out.append("korn.M_grid: need 0 < min < max")
            elif mg["count"] >= 2:
                try:
                    grid = korn_m_grid(mg)
                except (ValueError, MemoryError, OverflowError):  # numpy refuses the size
                    out.append("korn.M_grid.count: too large to build the grid")
                else:
                    if np.any(np.diff(grid) <= 0.0):
                        out.append(
                            "korn.M_grid: min and max are too close for count distinct points"
                        )
            if not _is_int(mg["count"]) or mg["count"] < 2:
                out.append("korn.M_grid.count: must be an integer >= 2")
        if not _is_int(k["sigma_count"]) or k["sigma_count"] < 1:
            out.append("korn.sigma_count: must be a positive integer")
        if not _is_int(k["quad_nodes"]) or k["quad_nodes"] < 64:
            out.append("korn.quad_nodes: must be an integer >= 64")

    pr = t["probes"]
    if _check_keys(out, pr, "probes"):
        eps = pr["eps_list"]
        _check_eps_list(out, eps, "probes.eps_list")
        if isinstance(eps, list) and any(
            _is_num(e) and 0.0 < e < PROBE_EPS_MIN for e in eps
        ):
            out.append(f"probes.eps_list: entries must be >= {PROBE_EPS_MIN:g}")
        if not _is_int(pr["samples"]) or pr["samples"] < 50:
            out.append("probes.samples: must be an integer >= 50")
        if not _is_int(pr["seed"]) or pr["seed"] < 0:
            out.append("probes.seed: must be a nonnegative integer")

    o = t["output"]
    if _check_keys(out, o, "output"):
        if not isinstance(o["dir"], str) or not o["dir"]:
            out.append("output.dir: must be a non-empty string")
        fmts = o["formats"]
        if (
            not isinstance(fmts, list)
            or not fmts
            or any(f not in ("csv", "json") for f in fmts)
        ):
            out.append("output.formats: must be a non-empty subset of [csv, json]")
    return out


def _parse(path):
    """The parsed file at path; ConfigError if it cannot be read or parsed."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError([f"cannot read {path}: {exc}"]) from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            [f"parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"]
        ) from exc
    except ValueError as exc:  # an integer literal longer than int_max_str_digits
        raise ConfigError([f"parse error: {exc}"]) from exc


def validate_config(path) -> list:
    """Violations for the file at path; parse errors become diagnostics."""
    try:
        tree = _parse(path)
    except ConfigError as exc:
        return exc.violations
    return validate_tree(tree)


def load_config(path) -> Config:
    """Parse once, validate, merge defaults; raises ConfigError on violations."""
    tree = _parse(path)
    violations = validate_tree(tree)
    if violations:
        raise ConfigError(violations)
    tree = _merge_defaults(tree)
    canon = _canonical(tree)
    return Config(**tree, sha256=sha256(canon.encode()).hexdigest())
