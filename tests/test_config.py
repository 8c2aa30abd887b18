"""Config schema: validation diagnostics, defaults, canonical hashing."""
import json

import pytest

from thinlayer.config import (
    DEFAULT_CONFIG,
    ConfigError,
    load_config,
    validate_config,
    validate_tree,
)
from thinlayer.grids import Grid
from thinlayer.shallow_water import Params


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


def test_partial_config_inherits_defaults(tmp_path):
    path = _write(tmp_path, {"params": {"Re": 2.5}})
    cfg = load_config(path)
    assert cfg.params["Re"] == 2.5
    assert cfg.params["F"] == 1.0
    assert cfg.korn["quad_nodes"] == 96


def test_hash_ignores_formatting(tmp_path):
    a = _write(tmp_path, {"params": {"Re": 2.0, "F": 1.0}}, "a.json")
    b = tmp_path / "b.json"
    b.write_text('{\n  "params": {"F": 1.0,   "Re": 2.0}\n}\n', encoding="utf-8")
    assert load_config(a).sha256 == load_config(b).sha256


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


def test_grid_size_check_matches_grid():
    for N in range(1, 140):
        try:
            Grid(1, N)
            grid_ok = True
        except ValueError:
            grid_ok = False
        msgs = validate_tree({"domain": {"N": N}})
        assert grid_ok == (not any(m.startswith("domain.N") for m in msgs)), N


def test_froude_check_matches_params():
    # F * F must not underflow to 0: Params divides by it
    for F in (1.0, 1e-150, 1e-154, 1e-162, 5e-324):
        try:
            Params(F=F, Re=1.0, gamma_bar=1.0, eps=0.1)
            params_ok = True
        except ValueError:
            params_ok = False
        msgs = validate_tree({"params": {"F": F}})
        assert params_ok == (not any(m.startswith("params.F") for m in msgs)), F
    assert not validate_tree({"params": {"F": 1e-154}})
    assert validate_tree({"params": {"F": 1e-162}}) == ["params.F: F * F underflows to 0"]


def test_undecodable_file_is_a_diagnostic(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'\xff{"domain": {}}')
    msgs = validate_config(path)
    assert len(msgs) == 1 and "cannot read" in msgs[0]
