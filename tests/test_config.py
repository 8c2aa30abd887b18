"""Config schema: validation diagnostics, defaults, canonical hashing."""
import dataclasses
import hashlib
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import schema_names
from thinlayer import config
from thinlayer.config import (
    DEFAULT_CONFIG,
    ConfigError,
    korn_m_grid,
    load_config,
    validate_config,
    validate_tree,
)
from thinlayer.grids import Grid
from thinlayer.korn import SIGMA_LINE, korn_sweep
from thinlayer.shallow_water import Params, initial_wave


def _write(tmp_path, tree, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(tree), encoding="utf-8")
    return path


def test_default_config_is_valid(tmp_path):
    assert validate_tree(DEFAULT_CONFIG) == []
    path = _write(tmp_path, DEFAULT_CONFIG)
    assert validate_config(path) == []
    cfg = load_config(path)
    assert cfg.domain["N"] == 64
    assert len(cfg.sha256) == 64


def test_default_config_file_mirrors_default_config():
    # README points at configs/default.json; the program merges DEFAULT_CONFIG
    path = Path(__file__).resolve().parent.parent / "configs" / "default.json"
    tree = json.loads(path.read_text(encoding="utf-8"))
    assert json.dumps(tree, sort_keys=True) == json.dumps(DEFAULT_CONFIG, sort_keys=True)


def test_partial_config_inherits_defaults(tmp_path):
    path = _write(tmp_path, {"params": {"Re": 2.5}})
    cfg = load_config(path)
    assert cfg.params["Re"] == 2.5
    assert cfg.params["F"] == 1.0
    assert cfg.korn["quad_nodes"] == 96


def test_loaded_config_shares_nothing_with_the_defaults(tmp_path):
    # a pipeline that edits its config must not edit the next one's defaults
    path = _write(tmp_path, {})
    want = json.loads(json.dumps(DEFAULT_CONFIG))
    cfg = load_config(path)
    cfg.study["eps_list"].append(0.001)
    cfg.korn["M_grid"]["count"] = 3
    fresh = load_config(path)
    assert {key: getattr(fresh, key) for key in DEFAULT_CONFIG} == want
    assert DEFAULT_CONFIG == want


def test_hash_ignores_formatting(tmp_path):
    a = _write(tmp_path, {"params": {"Re": 2.0, "F": 1.0}}, "a.json")
    b = tmp_path / "b.json"
    b.write_text('{\n  "params": {"F": 1.0,   "Re": 2.0}\n}\n', encoding="utf-8")
    assert load_config(a).sha256 == load_config(b).sha256


def test_hash_is_the_sha256_of_the_canonical_text(tmp_path):
    # the digest is standard SHA-256 of the merged tree with sorted keys and
    # no whitespace, whichever SHA-256 implementation computes it
    path = Path(__file__).resolve().parent.parent / "configs" / "default.json"
    tree = json.loads(path.read_text(encoding="utf-8"))
    canonical_text = json.dumps(tree, sort_keys=True, separators=(",", ":"))
    want = hashlib.sha256(canonical_text.encode()).hexdigest()
    assert load_config(path).sha256 == want

    def reordered(node):
        if isinstance(node, dict):
            return {k: reordered(node[k]) for k in reversed(list(node))}
        return node

    copy = _write(tmp_path, reordered(tree))
    assert copy.read_text(encoding="utf-8") != json.dumps(tree)
    assert load_config(copy).sha256 == want


def test_eps_list_must_decrease(tmp_path):
    path = _write(tmp_path, {"study": {"eps_list": [0.01, 0.02, 0.04, 0.08]}})
    msgs = validate_config(path)
    assert any("strictly decreasing" in m for m in msgs)


def test_negative_friction_rejected(tmp_path):
    path = _write(tmp_path, {"params": {"gamma_bar": -0.1}})
    msgs = validate_config(path)
    assert any("gamma_bar" in m for m in msgs)


def test_unknown_keys_reported(tmp_path):
    path = _write(tmp_path, {"params": {"Rey": 2.0}, "plotting": {}})
    msgs = validate_config(path)
    assert any("params.Rey" in m for m in msgs)
    assert any("plotting" in m for m in msgs)


@pytest.mark.parametrize("change", ["rewrite", "remove"])
def test_load_returns_the_tree_it_validated(tmp_path, monkeypatch, change):
    # the file changes right after it validates: load_config reads it once,
    # so it returns the validated values and never reads the new file
    path = _write(tmp_path, {"sw": {"T": 0.5}})
    validate = config.validate_tree

    def validate_then_change(tree):
        violations = validate(tree)
        if change == "rewrite":
            path.write_text(json.dumps({"sw": {"T": -1.0}, "bogus": 1}), encoding="utf-8")
        else:
            path.unlink()
        return violations

    monkeypatch.setattr(config, "validate_tree", validate_then_change)
    cfg = load_config(path)
    assert cfg.sw["T"] == 0.5 and "bogus" not in dataclasses.asdict(cfg)


def test_parse_error_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "domain": {,}\n}', encoding="utf-8")
    msgs = validate_config(path)
    assert len(msgs) == 1 and "line 2" in msgs[0]


def test_missing_file_is_a_diagnostic(tmp_path):
    msgs = validate_config(tmp_path / "nope.json")
    assert len(msgs) == 1 and "cannot read" in msgs[0]


def test_load_raises_with_all_violations(tmp_path):
    path = _write(
        tmp_path,
        {"params": {"Re": -1.0}, "study": {"nz": 2}, "probes": {"samples": 3}},
    )
    with pytest.raises(ConfigError) as err:
        load_config(path)
    text = str(err.value)
    assert "params.Re" in text and "study.nz" in text and "probes.samples" in text


def test_value_range_checks(tmp_path):
    bad = {
        "domain": {"n": 3, "N": 7, "L": -1.0},
        "sw": {"init": {"amplitude": 1.5, "wavenumber": 0}, "T": 1.0, "dt": 0.3},
        "korn": {"M_grid": {"min": 2.0, "max": 1.0, "count": 1}},
        "output": {"dir": "", "formats": ["pdf"]},
    }
    msgs = validate_tree(bad)
    for needle in (
        "domain.n",
        "domain.N",
        "domain.L",
        "amplitude",
        "wavenumber",
        "integer multiple",
        "korn.M_grid",
        "output.dir",
        "output.formats",
    ):
        assert any(needle in m for m in msgs), needle


def test_schema_config_table_names_every_key():
    def leaves(tree, prefix=""):
        for k, v in tree.items():
            yield from leaves(v, f"{prefix}{k}.") if isinstance(v, dict) else [prefix + k]

    assert schema_names("Config file") == set(leaves(DEFAULT_CONFIG))


def test_grid_size_check_matches_grid():
    for N in range(1, 140):
        try:
            Grid(1, N)
            grid_ok = True
        except ValueError:
            grid_ok = False
        msgs = validate_tree({"domain": {"N": N}})
        assert grid_ok == (not any(m.startswith("domain.N") for m in msgs)), N


def test_period_check_matches_grid():
    # L ** n must be finite, as Grid.volume is L ** n and HField.integral
    # scales by dx ** n; an int L beyond int64 must not reach np.isfinite
    Lmax = 1.3407807929942596e154  # the largest L whose square is finite
    for n in (1, 2):
        for L in (1.0, 10**23, Lmax, 1.35e154, 2 * 10**154, 1e200, 1e308):
            try:
                Grid(n, 8, L)
                grid_ok = True
            except ValueError:
                grid_ok = False
            msgs = validate_tree({"domain": {"n": n, "L": L}})
            assert grid_ok == (not any(m.startswith("domain.L") for m in msgs)), (n, L)
    assert not validate_tree({"domain": {"n": 1, "L": 1e200}})
    assert not validate_tree({"domain": {"n": 2, "L": Lmax}})
    assert validate_tree({"domain": {"n": 2, "L": 1.35e154}}) == ["domain.L: L ** n overflows"]


def test_froude_check_matches_params():
    # F * F must neither underflow to 0 (Params divides by it) nor overflow
    for F in (1.0, 1e-150, 1e-154, 1e-162, 5e-324, 1.3e154, 1.4e154, 1e300):
        try:
            Params(F=F, Re=1.0, gamma_bar=1.0, eps=0.1)
            params_ok = True
        except ValueError:
            params_ok = False
        msgs = validate_tree({"params": {"F": F}})
        assert params_ok == (not any(m.startswith("params.F") for m in msgs)), F
    assert not validate_tree({"params": {"F": 1e-154}})
    assert validate_tree({"params": {"F": 1e-162}}) == ["params.F: F * F underflows to 0"]
    assert not validate_tree({"params": {"F": 1.3e154}})
    assert validate_tree({"params": {"F": 1.4e154}}) == ["params.F: F * F overflows"]
    assert validate_tree({"params": {"F": 2 * 10**154}}) == ["params.F: F * F overflows"]


def test_wavenumber_check_matches_initial_wave():
    # 2 pi k must be a finite float: beyond it initial_wave raises an
    # OverflowError or builds a NaN state
    for k in (1, 2**60, 2**1021, 2**1022, 2**1023, 10**400):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                initial_wave(Grid(1, 8), wavenumber=k)
            wave_ok = True
        except (OverflowError, RuntimeWarning):
            wave_ok = False
        msgs = validate_tree({"sw": {"init": {"wavenumber": k}}})
        assert wave_ok == (not msgs), k
    assert validate_tree({"sw": {"init": {"wavenumber": 10**400}}}) == [
        "sw.init.wavenumber: 2 pi wavenumber must be a finite float"
    ]


def test_undecodable_file_is_a_diagnostic(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'\xff{"domain": {}}')
    msgs = validate_config(path)
    assert len(msgs) == 1 and "cannot read" in msgs[0]


def test_study_eps_floor():
    # below about 5.6e-309 the residuals' 1/eps overflows
    assert not validate_tree({"study": {"eps_list": [0.1, 0.05, 0.025, 1e-300]}})
    for eps in (1e-301, 1e-308, 1e-309):
        assert validate_tree({"study": {"eps_list": [0.1, 0.05, 0.025, eps]}}) == [
            "study.eps_list: entries must be >= 1e-300"
        ]


def test_korn_m_grid_check_matches_korn_sweep():
    # validate rejects exactly the grids of the korn pipeline that
    # korn_sweep would refuse
    mg = {"min": 1.0, "max": 1.0000000000000004, "count": 10}
    assert np.any(np.diff(korn_m_grid(mg)) <= 0.0)
    with pytest.raises(ValueError, match="ascending"):
        korn_sweep(korn_m_grid(mg), SIGMA_LINE)
    assert validate_tree({"korn": {"M_grid": mg}}) == [
        "korn.M_grid: min and max are too close for count distinct points"
    ]
    assert not validate_tree({"korn": {"M_grid": {**mg, "count": 2}}})
    assert not validate_tree({"korn": {"M_grid": {**mg, "max": 1.001}}})


def test_korn_m_grid_count_beyond_the_float_range_is_invalid():
    # geomspace cannot convert such a count to a float; unchecked, the
    # OverflowError ended validate and every pipeline in a traceback
    assert validate_tree({"korn": {"M_grid": {"count": 10**400}}}) == [
        "korn.M_grid.count: too large to build the grid"
    ]
