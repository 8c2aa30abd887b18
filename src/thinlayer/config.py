"""Structured run configuration: parsing, validation, canonical hashing.

The config file is JSON with a fixed key schema (see docs/schema.md). All
range checks happen at load time and are pure arithmetic, never numerics:
`validate` can run on a machine that will never execute a study. Loading
re-serializes the parsed tree in canonical form and hashes it, so two
configs that differ only in whitespace or key order share a hash and
therefore a manifest identity.
"""
from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

__all__ = ["Config", "ConfigError", "load_config", "validate_config", "DEFAULT_CONFIG"]


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
    """Validated run configuration plus its canonical hash."""

    raw: dict
    sha256: str

    @property
    def domain(self) -> dict:
        return self.raw["domain"]

    @property
    def params(self) -> dict:
        return self.raw["params"]

    @property
    def sw(self) -> dict:
        return self.raw["sw"]

    @property
    def study(self) -> dict:
        return self.raw["study"]

    @property
    def korn(self) -> dict:
        return self.raw["korn"]

    @property
    def probes(self) -> dict:
        return self.raw["probes"]

    @property
    def output(self) -> dict:
        return self.raw["output"]


def _canonical(tree: dict) -> str:
    return json.dumps(tree, sort_keys=True, separators=(",", ":"))


def _merge_defaults(tree: dict) -> dict:
    """Missing sections and keys fall back to the defaults."""
    merged = {}
    for key, dval in DEFAULT_CONFIG.items():
        uval = tree.get(key, {})
        if isinstance(dval, dict):
            sub = dict(dval)
            if isinstance(uval, dict):
                for k, v in uval.items():
                    if isinstance(sub.get(k), dict) and isinstance(v, dict):
                        sub[k] = {**sub[k], **v}
                    else:
                        sub[k] = v
            else:
                sub = uval
            merged[key] = sub
        else:
            merged[key] = uval
    for key in tree:
        if key not in DEFAULT_CONFIG:
            merged[key] = tree[key]
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


def _check_keys(out, tree, section, allowed):
    if not isinstance(tree, dict):
        out.append(f"{section}: expected an object")
        return False
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
    if _check_keys(out, d, "domain", {"n", "N", "L"}):
        if not _is_int(d["n"]) or d["n"] not in (1, 2):
            out.append("domain.n: must be 1 or 2")
        if not _is_int(d["N"]) or d["N"] < 8 or d["N"] & (d["N"] - 1):
            out.append("domain.N: must be a power of two >= 8")
        if not _is_num(d["L"]) or d["L"] <= 0.0:
            out.append("domain.L: must be positive")

    p = t["params"]
    if _check_keys(out, p, "params", {"F", "Re", "gamma_bar"}):
        for name in ("F", "Re"):
            if not _is_num(p[name]) or p[name] <= 0.0:
                out.append(f"params.{name}: must be positive")
        if _is_num(p["F"]) and p["F"] > 0.0 and p["F"] * p["F"] == 0.0:
            out.append("params.F: F * F underflows to 0")
        if not _is_num(p["gamma_bar"]) or p["gamma_bar"] < 0.0:
            out.append("params.gamma_bar: must be nonnegative")

    s = t["sw"]
    if _check_keys(out, s, "sw", {"init", "T", "dt"}):
        init = s["init"]
        if _check_keys(
            out, init, "sw.init", {"amplitude", "wavenumber", "velocity_amplitude"}
        ):
            amp = init["amplitude"]
            if not _is_num(amp) or not 0.0 <= amp < 1.0:
                out.append("sw.init.amplitude: must lie in [0, 1) to avoid vacuum")
            if not _is_int(init["wavenumber"]) or init["wavenumber"] < 1:
                out.append("sw.init.wavenumber: must be a positive integer")
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
    if _check_keys(out, st, "study", {"eps_list", "t_eval", "nz"}):
        _check_eps_list(out, st["eps_list"], "study.eps_list")
        if isinstance(st["eps_list"], list) and 0 < len(st["eps_list"]) < 4:
            out.append("study.eps_list: need at least 4 aspect ratios")
        if not _is_num(st["t_eval"]) or st["t_eval"] <= 0.0:
            out.append("study.t_eval: must be positive")
        if not _is_int(st["nz"]) or st["nz"] < 4:
            out.append("study.nz: must be an integer >= 4")

    k = t["korn"]
    if _check_keys(out, k, "korn", {"M_grid", "sigma_count", "quad_nodes"}):
        mg = k["M_grid"]
        if _check_keys(out, mg, "korn.M_grid", {"min", "max", "count"}):
            ok = all(_is_num(mg[q]) for q in ("min", "max")) and _is_int(mg["count"])
            if not ok or mg["min"] <= 0.0 or mg["max"] <= mg["min"]:
                out.append("korn.M_grid: need 0 < min < max")
            if not _is_int(mg["count"]) or mg["count"] < 2:
                out.append("korn.M_grid.count: must be an integer >= 2")
        if not _is_int(k["sigma_count"]) or k["sigma_count"] < 1:
            out.append("korn.sigma_count: must be a positive integer")
        if not _is_int(k["quad_nodes"]) or k["quad_nodes"] < 64:
            out.append("korn.quad_nodes: must be an integer >= 64")

    pr = t["probes"]
    if _check_keys(out, pr, "probes", {"eps_list", "samples", "seed"}):
        _check_eps_list(out, pr["eps_list"], "probes.eps_list")
        if not _is_int(pr["samples"]) or pr["samples"] < 50:
            out.append("probes.samples: must be an integer >= 50")
        if not _is_int(pr["seed"]) or pr["seed"] < 0:
            out.append("probes.seed: must be a nonnegative integer")

    o = t["output"]
    if _check_keys(out, o, "output", {"dir", "formats"}):
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


def validate_config(path) -> list:
    """Violations for the file at path; parse errors become diagnostics."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        return [f"cannot read {path}: {exc}"]
    try:
        tree = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"]
    except ValueError as exc:  # an integer literal longer than int_max_str_digits
        return [f"parse error: {exc}"]
    return validate_tree(tree)


def load_config(path) -> Config:
    """Parse, merge defaults, validate; raises ConfigError on violations."""
    violations = validate_config(path)
    if violations:
        raise ConfigError(violations)
    tree = _merge_defaults(json.loads(Path(path).read_text(encoding="utf-8")))
    canon = _canonical(tree)
    return Config(raw=tree, sha256=hashlib.sha256(canon.encode()).hexdigest())
