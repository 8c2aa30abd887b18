"""Driver pipelines: exit codes, emitted artifacts, rerun determinism."""
import csv
import json
import math
import re
import threading
import warnings

import pytest

from thinlayer import cli, grids, lagrangian
from thinlayer.cli import main, run
from thinlayer.residuals import convergence_study
from thinlayer.reports import MANIFEST_NAME, file_sha256

# Small domain and short horizons so the whole battery stays quick; every
# pipeline still runs its full code path.
FAST = {
    "domain": {"N": 32},
    "sw": {"T": 0.05, "dt": 0.005},
    "study": {"eps_list": [0.1, 0.05, 0.025, 0.0125], "t_eval": 0.05, "nz": 12},
    "korn": {
        "M_grid": {"min": 0.5, "max": 5.0, "count": 5},
        "sigma_count": 4,
        "quad_nodes": 64,
    },
    "probes": {"samples": 50},
}


def _config(tmp_path, tree=None, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(tree if tree is not None else FAST), encoding="utf-8")
    return path


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def test_validate_subcommand_exit_codes(tmp_path, capsys):
    good = _config(tmp_path)
    assert run("validate", good) == 0
    bad = _config(tmp_path, {"study": {"eps_list": [0.01, 0.1]}}, "bad.json")
    assert run("validate", bad) == 2
    assert "strictly decreasing" in capsys.readouterr().err


def test_invalid_config_blocks_pipelines(tmp_path):
    bad = _config(tmp_path, {"params": {"Re": 0.0}}, "bad.json")
    assert run("sw", bad, out=tmp_path / "out") == 2
    assert not (tmp_path / "out").exists()


def test_unknown_subcommand_is_usage_error(tmp_path):
    assert run("frobnicate", _config(tmp_path)) == 64
    with pytest.raises(SystemExit) as err:
        main(["--config", "x.json"])
    assert err.value.code == 64


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_numerical_failure_maps_to_exit_3(tmp_path, capsys):
    # every pencil cell overflows at these layer depths
    cfg = _config(
        tmp_path,
        {"korn": {"M_grid": {"min": 600.0, "max": 700.0, "count": 2}, "quad_nodes": 64}},
    )
    assert run("korn", cfg, out=tmp_path / "out") == 3
    assert "numerical failure" in capsys.readouterr().err


def test_validate_rejects_what_grid_rejects(tmp_path, capsys):
    cfg = _config(tmp_path, {"domain": {"N": 48}})
    assert run("validate", cfg) == 2
    assert "domain.N: must be a power of two >= 8" in capsys.readouterr().err
    assert run("sw", cfg, out=tmp_path / "out") == 2


def test_validate_requires_four_study_eps(tmp_path, capsys):
    # the order fit of the residual study needs four aspect ratios
    cfg = _config(tmp_path, {"study": {"eps_list": [0.9, 0.5]}})
    assert run("validate", cfg) == 2
    assert capsys.readouterr().err.splitlines() == [
        "study.eps_list: need at least 4 aspect ratios"
    ]
    assert run("study", cfg, out=tmp_path / "out") == 2
    assert len(capsys.readouterr().err.splitlines()) == 1


@pytest.mark.parametrize("tree", [{"sw": {"dt": 0.1}}, {"params": {"Re": 1e-3}}])
def test_stability_breach_maps_to_exit_3(tmp_path, capsys, tree):
    assert run("sw", _config(tmp_path, tree), out=tmp_path / "out") == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert "exceeds the stability bound" in err[0]


def test_probe_pipeline_tiny_eps(tmp_path):
    cfg = _config(tmp_path, {"probes": {"eps_list": [0.1, 1e-5]}})
    assert main(["probe", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0


def test_sw_pipeline_diagnostics(tmp_path):
    cfg = _config(tmp_path)
    out = tmp_path / "out"
    assert main(["sw", "--config", str(cfg), "--out", str(out)]) == 0
    rows = _read_csv(out / "sw_diagnostics.csv")
    assert len(rows) == 11  # t = 0 .. T inclusive
    mass = [float(r["mass"]) for r in rows]
    energy = [float(r["energy"]) for r in rows]
    assert abs(mass[-1] - mass[0]) <= 1e-12 * abs(mass[0])
    assert all(b <= a + 1e-12 for a, b in zip(energy, energy[1:]))


def test_korn_pipeline_cluster_structure(tmp_path):
    cfg = _config(tmp_path)
    out = tmp_path / "out"
    assert run("korn", cfg, out=out) == 0
    rows = _read_csv(out / "korn_sweep.csv")
    assert len(rows) == 10  # 5 depths x 2 line directions
    for row in rows:
        eigs = [float(row[f"eig{i}"]) for i in range(1, 7)]
        lam = float(row["lam"])
        assert 0.0 < lam <= 1.0 and lam == eigs[0]
        for mid in eigs[1:5]:
            assert abs(mid - 1.0) <= 1e-6
        assert abs(eigs[5] - 2.0) <= 1e-6
    summary = json.loads((out / "korn_summary.json").read_text())
    assert summary["inf_lambda"] > 0.0


def test_laplace_pipeline_ratios(tmp_path):
    out = tmp_path / "out"
    assert run("laplace", _config(tmp_path), out=out) == 0
    rows = _read_csv(out / "laplace_modes.csv")
    assert len(rows) == 24  # k = 1..8 x three eps
    for row in rows:
        k, eps = int(row["k"]), float(row["eps"])
        assert abs(float(row["dirichlet_ratio"]) - math.tanh(k * eps)) <= 1e-10
        assert float(row["max_residual"]) <= 1e-10
    summary = json.loads((out / "laplace_summary.json").read_text())
    assert summary["max_tanh_deviation"] <= 1e-10


def test_probe_pipeline_bounded_spreads(tmp_path):
    out = tmp_path / "out"
    assert run("probe", _config(tmp_path), out=out) == 0
    rows = _read_csv(out / "probe_ratios.csv")
    tags = {row["tag"] for row in rows}
    assert tags == {"L6", "Agmon", "trace_zero", "trace_general", "korn"}
    assert all(int(row["n_samples"]) >= 50 for row in rows)
    summary = json.loads((out / "probe_summary.json").read_text())
    for tag in tags:
        assert summary[tag]["verdict"] == "bounded"


def test_lagrangian_pipeline_identities(tmp_path):
    out = tmp_path / "out"
    assert run("lagrangian", _config(tmp_path), out=out) == 0
    summary = json.loads((out / "lagrangian_summary.json").read_text())
    assert summary["height_identity_sup"] <= 1e-10
    assert summary["volume_identity_sup"] <= 1e-10


def test_equilibrium_study_flags_degenerate(tmp_path):
    quiet = dict(FAST)
    quiet["sw"] = {
        "init": {"amplitude": 0.0, "velocity_amplitude": 0.0},
        "T": 0.05,
        "dt": 0.005,
    }
    out = tmp_path / "out"
    assert run("study", _config(tmp_path, quiet), out=out) == 0
    summary = json.loads((out / "study_summary.json").read_text())
    assert len(summary["flags"]) == 5
    assert all("degenerate" in flag for flag in summary["flags"])
    assert summary["discrepancy_count"] == 0
    assert not (out / "claim_discrepancy.json").exists()


def test_manifest_covers_every_artifact(tmp_path):
    out = tmp_path / "out"
    assert run("all", _config(tmp_path), out=out) == 0
    manifest = json.loads((out / MANIFEST_NAME).read_text())
    on_disk = sorted(p.name for p in out.iterdir() if p.name != MANIFEST_NAME)
    listed = sorted(entry["name"] for entry in manifest["files"])
    assert listed == on_disk
    for entry in manifest["files"]:
        assert entry["sha256"] == file_sha256(out / entry["name"])
    assert len(manifest["config_sha256"]) == 64


def test_all_computes_the_convergence_study_once(tmp_path, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return convergence_study(*args, **kwargs)

    monkeypatch.setattr(cli, "convergence_study", counted)
    out = tmp_path / "out"
    assert run("all", _config(tmp_path), out=out) == 0
    assert len(calls) == 1
    residual = (out / "residual_records.csv").read_bytes()
    assert residual and residual == (out / "study_records.csv").read_bytes()


# columns whose cells are labels; every other CSV cell is a number
LABEL_COLUMNS = {"tag", "kind", "component", "term", "cond_flag"}


def test_every_csv_cell_is_a_number_or_a_label(tmp_path):
    out = tmp_path / "out"
    assert run("all", _config(tmp_path), out=out) == 0
    paths = sorted(out.glob("*.csv"))
    assert paths
    for path in paths:
        for row in _read_csv(path):
            for col, cell in row.items():
                if col in LABEL_COLUMNS:
                    assert re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*|", cell), (path.name, col, cell)
                else:
                    float(cell)  # raises on a non-number such as np.float64(...)


def test_rerun_is_byte_identical_across_threads(tmp_path):
    cfg = _config(tmp_path)
    digests = []
    for label, threads in (("a", None), ("b", 4)):
        out = tmp_path / label
        args = ["korn", "--config", str(cfg), "--out", str(out)]
        if threads:
            args += ["--threads", str(threads)]
        assert main(args) == 0
        digests.append(
            {
                p.name: file_sha256(p)
                for p in out.iterdir()
                if p.name != MANIFEST_NAME
            }
        )
    assert digests[0] == digests[1]


def test_all_starts_no_thread(tmp_path, monkeypatch):
    # HField.spec fills its lazy cache without a lock, which is safe only
    # while every pipeline stays on the calling thread
    def refuse(self):
        raise AssertionError(f"a pipeline started thread {self.name}")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    assert run("all", _config(tmp_path), out=tmp_path / "out", threads=4) == 0


def test_probe_without_friction_reports_an_unbounded_floor(tmp_path, capsys):
    # at gamma_bar = 0 the rigid translation has Korn ratio 0: the run
    # completes and reports the floor instead of ending in a traceback
    tree = {
        "params": {"gamma_bar": 0.0},
        "probes": {"samples": 50, "eps_list": [0.1, 0.01]},
    }
    cfg, out = _config(tmp_path, tree), tmp_path / "out"
    assert run("validate", cfg) == 0
    assert main(["probe", "--config", str(cfg), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    summary = json.loads((out / "probe_summary.json").read_text())
    assert summary["korn"] == {"spread": None, "verdict": "unbounded trend"}
    rows = _read_csv(out / "probe_ratios.csv")
    assert [float(r["min_ratio"]) for r in rows if r["tag"] == "korn"] == [0.0, 0.0]


def test_probe_anchors_survive_thin_strips(tmp_path):
    # the degeneracy floors scale with the strip area L*eps, so the
    # closed-form anchors stay finite on strips far thinner than 1e-12
    tree = {"probes": {"eps_list": [0.1, 1e-14, 1e-30]}, "params": {"gamma_bar": 0.7}}
    out = tmp_path / "out"
    assert run("probe", _config(tmp_path, tree), out=out) == 0
    summary = json.loads((out / "probe_summary.json").read_text())
    assert {tag: s["verdict"] for tag, s in summary.items()} == {
        tag: "bounded" for tag in ("L6", "Agmon", "trace_zero", "trace_general", "korn")
    }
    rows = _read_csv(out / "probe_ratios.csv")
    floors = [float(r["min_ratio"]) for r in rows if r["tag"] == "korn"]
    assert len(floors) == 3
    assert all(abs(f - 0.7) <= 1e-12 for f in floors)


def test_underflowing_froude_number_is_invalid(tmp_path, capsys):
    cfg = _config(tmp_path, {"params": {"F": 1e-162}})
    assert run("validate", cfg) == 2
    assert capsys.readouterr().err.splitlines() == ["params.F: F * F underflows to 0"]
    for sub in ("sw", "ansatz", "study", "lagrangian"):
        assert main([sub, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "Traceback" not in err


@pytest.mark.parametrize("Re", [1e-306, 5e-324])
def test_study_without_a_finite_step_count_maps_to_exit_3(tmp_path, capsys, Re):
    cfg = _config(tmp_path, {"params": {"Re": Re}})
    assert run("validate", cfg) == 0
    assert main(["study", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert "no finite step count" in err


def test_unstable_step_fails_before_any_tendency(tmp_path, capsys):
    # 1/Re = inf: the step bound rejects dt before sw_rhs multiplies by it
    cfg = _config(tmp_path, {"params": {"Re": 5e-324}})
    assert run("validate", cfg) == 0
    for sub in ("sw", "ansatz", "lagrangian"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([sub, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert "exceeds the stability bound" in err


# json parses NaN, Infinity and overflowing literals; none of them is a number
# the pipelines can use, and T / dt must not overflow either
NON_FINITE_CONFIGS = [
    '{"domain": {"n": 2.0}}',
    '{"domain": {"n": true}}',
    '{"domain": {"L": 1e400}}',
    '{"domain": {"L": 1' + "0" * 400 + '}}',
    '{"domain": {"L": 1' + "0" * 5000 + '}}',
    '{"params": {"Re": 1e400}}',
    '{"params": {"F": NaN}}',
    '{"params": {"gamma_bar": Infinity}}',
    '{"korn": {"M_grid": {"max": Infinity}}}',
    '{"study": {"t_eval": NaN}}',
    '{"sw": {"dt": 5e-324}}',
    '{"sw": {"T": Infinity}}',
]


@pytest.mark.parametrize(
    "text", NON_FINITE_CONFIGS, ids=lambda t: t if len(t) < 60 else f"{t[:24]}..{len(t)}"
)
def test_non_finite_config_values_are_invalid(tmp_path, capsys, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text, encoding="utf-8")
    for sub in ("validate", "sw"):
        assert main([sub, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_lagrangian_pipeline_evaluates_h0_once_per_state(tmp_path, monkeypatch):
    seen = []
    eval_at, xjacobian = grids.HField.eval_at, lagrangian._xjacobian
    monkeypatch.setattr(grids.HField, "eval_at", lambda f, x: seen.append("h") or eval_at(f, x))
    monkeypatch.setattr(lagrangian, "_xjacobian", lambda c, i: seen.append("J") or xjacobian(c, i))
    out = tmp_path / "out"
    assert run("lagrangian", _config(tmp_path), out=out) == 0
    states = round(FAST["sw"]["T"] / FAST["sw"]["dt"]) + 1
    assert seen.count("h") == seen.count("J") == states
    rows = _read_csv(out / "lagrangian_chart.csv")
    assert len(rows) == states * FAST["domain"]["N"]
    summary = json.loads((out / "lagrangian_summary.json").read_text())
    worst = max(abs(float(r["det_h0_minus_1"])) for r in rows)
    assert worst == summary["volume_identity_sup"]
