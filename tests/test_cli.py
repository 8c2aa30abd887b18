"""Driver pipelines: exit codes, emitted artifacts, rerun determinism."""
import csv
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import schema_names
from thinlayer import cli, elliptic, grids, korn, lagrangian, residuals, shallow_water
from thinlayer.cli import main, run
from thinlayer.failures import NumericalFailure
from thinlayer.korn import SIGMA_LINE, korn_sweep
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


@pytest.mark.parametrize("subcommand", ["sw", "study"])
def test_initial_vacuum_maps_to_exit_3_at_t0(tmp_path, capsys, subcommand):
    # validate accepts the amplitude, but the initial trough 1 - 0.95 is
    # already below the vacuum floor: the run fails at t = 0, not a step on
    cfg = _config(tmp_path, {**FAST, "sw": {**FAST["sw"], "init": {"amplitude": 0.95}}})
    assert run("validate", cfg) == 0
    assert run(subcommand, cfg, out=tmp_path / "out") == 3
    assert capsys.readouterr().err.splitlines() == [
        f"numerical failure in {subcommand}: "
        "min h0 = 0.05 at t = 0 breached the vacuum floor"
    ]
    # sw fails inside write_csv, at the first state: no partial file is left
    assert not (tmp_path / "out" / "sw_diagnostics.csv").exists()
    assert not list((tmp_path / "out").glob("*.part"))


def test_vacuum_mid_run_keeps_the_previous_sw_file(tmp_path, capsys):
    # a diverging flow empties the trough after a few hundred steps, while
    # sw is already streaming its rows: the earlier run's file stays as it was
    tree = {
        "domain": {"N": 32},
        "params": {"Re": 100.0},
        "sw": {"T": 0.7, "dt": 0.001, "init": {"amplitude": 0.85, "velocity_amplitude": -1.0}},
    }
    out = tmp_path / "out"
    out.mkdir()
    (out / "sw_diagnostics.csv").write_bytes(b"earlier run\n")
    assert run("sw", _config(tmp_path, tree), out=out) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "at t = 0.608 breached the vacuum floor" in err[0]
    assert (out / "sw_diagnostics.csv").read_bytes() == b"earlier run\n"
    assert not list(out.glob("*.part"))


def test_allocation_failure_exits_1_with_one_line(tmp_path, capsys, monkeypatch):
    def exhausted(cfg, out):
        raise MemoryError("Unable to allocate 32.0 GiB for an array")

    monkeypatch.setitem(cli.PIPELINES, "sw", exhausted)
    assert run("sw", _config(tmp_path), out=tmp_path / "out") == 1
    assert capsys.readouterr().err.splitlines() == [
        "out of memory in sw: Unable to allocate 32.0 GiB for an array"
    ]
    assert not (tmp_path / "out" / MANIFEST_NAME).exists()


# each exception that maps to exit 3, with the ValueError/RuntimeError base
# that it keeps next to NumericalFailure
NUMERICAL_FAILURES = [
    (shallow_water.DegenerateStateError, ValueError),
    (shallow_water.BlowupError, RuntimeError),
    (shallow_water.StabilityError, ValueError),
    (korn.ConditioningError, RuntimeError),
    (korn.QuadratureError, RuntimeError),
    (elliptic.SolverError, RuntimeError),
]


@pytest.mark.parametrize("exc, base", NUMERICAL_FAILURES, ids=lambda e: e.__name__)
def test_each_numerical_failure_exits_3_with_one_line(tmp_path, capsys, monkeypatch, exc, base):
    def failing(cfg, out):
        raise exc("the solve went wrong")

    assert issubclass(exc, base) and issubclass(exc, NumericalFailure)
    monkeypatch.setitem(cli.PIPELINES, "sw", failing)
    assert run("sw", _config(tmp_path), out=tmp_path / "out") == 3
    assert capsys.readouterr().err.splitlines() == [
        "numerical failure in sw: the solve went wrong"
    ]
    assert not (tmp_path / "out" / MANIFEST_NAME).exists()


def test_failed_write_exits_1_with_one_line(tmp_path, capsys, full_disk):
    out = tmp_path / "out"
    assert run("laplace", _config(tmp_path), out=out) == 1
    assert capsys.readouterr().err.splitlines() == [
        "I/O failure: [Errno 28] No space left on device"
    ]
    assert list(out.iterdir()) == []


def test_out_under_a_regular_file_exits_1_with_one_line(tmp_path, capsys):
    (tmp_path / "file").write_bytes(b"")
    assert run("laplace", _config(tmp_path), out=tmp_path / "file" / "out") == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("output directory not writable: ")


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


def test_failed_korn_cells_keep_the_header_width(tmp_path):
    # beyond M ~ 350 the cells fail, and their cond_flag holds commas
    tree = {"korn": {"M_grid": {"min": 100.0, "max": 1000.0, "count": 4}}}
    out = tmp_path / "out"
    assert run("korn", _config(tmp_path, tree), out=out) == 0
    with open(out / "korn_sweep.csv", newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    assert len(header) == 11 and [len(r) for r in rows] == [11] * 8
    sweep = korn_sweep(np.geomspace(100.0, 1000.0, 4), SIGMA_LINE)
    flags = [row["cond_flag"] for row in sweep.rows]
    assert sum("," in f for f in flags) == 4
    assert [r[-1] for r in rows] == flags


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


def test_schema_files_table_names_every_file_all_writes(tmp_path):
    # claim_discrepancy.json is written only when a fitted order falls short
    out = tmp_path / "out"
    assert run("all", _config(tmp_path), out=out) == 0
    written = {p.name for p in out.iterdir()} | {"claim_discrepancy.json"}
    assert schema_names("Emitted files") == written


def test_all_computes_the_convergence_study_once(tmp_path, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return convergence_study(*args, **kwargs)

    monkeypatch.setattr(residuals, "convergence_study", counted)
    out = tmp_path / "out"
    assert run("all", _config(tmp_path), out=out) == 0
    assert len(calls) == 1
    residual = (out / "residual_records.csv").read_bytes()
    assert residual and residual == (out / "study_records.csv").read_bytes()


def test_study_artifacts_are_the_report(tmp_path, monkeypatch):
    reports = []

    def kept(*args, **kwargs):
        reports.append(convergence_study(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(residuals, "convergence_study", kept)
    out = tmp_path / "out"
    assert run("study", _config(tmp_path), out=out) == 0
    (report,) = reports
    summary = json.loads((out / "study_summary.json").read_text())
    assert summary == json.loads(json.dumps(report.summary()))

    def parsed(name):
        with open(out / name, newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        return [
            tuple(c if col in LABEL_COLUMNS else float(c) for col, c in zip(header, row))
            for row in rows
        ]

    assert parsed("study_records.csv") == report.records
    assert parsed("study_terms.csv") == report.term_records


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


@pytest.mark.skipif(
    not any(importlib.util.find_spec(m) for m in ("_sha2", "_sha256")),
    reason="no built-in SHA-256 module: checksums fall back to hashlib",
)
def test_pipelines_do_not_load_openssl(tmp_path):
    """Every pipeline but probe runs in a fresh process without importing
    _hashlib, which maps OpenSSL's libcrypto: checksums come from CPython's
    built-in SHA-256 module. probe is left out because numpy.random imports
    secrets, which loads _hashlib through hmac."""
    script = (
        "import json, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from thinlayer.cli import run\n"
        "subs = ('validate', 'sw', 'ansatz', 'lagrangian', 'residuals', 'study', 'korn', 'laplace')\n"
        "rcs = {s: run(s, sys.argv[2], out=sys.argv[3]) for s in subs}\n"
        "print(json.dumps({'rcs': rcs, '_hashlib': '_hashlib' in sys.modules}))\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", script, src, str(_config(tmp_path)), str(tmp_path / "out")],
        capture_output=True, text=True, timeout=300, check=True,
    )
    report = json.loads(proc.stdout.splitlines()[-1])
    assert set(report["rcs"].values()) == {0}
    assert report["_hashlib"] is False


@pytest.mark.skipif(
    not Path("/proc/self/status").exists() or (os.cpu_count() or 1) < 2,
    reason="needs /proc/self/status and two CPUs",
)
@pytest.mark.parametrize("pin, threads", [(None, 1), ("2", 2)])
def test_cli_runs_one_blas_thread_unless_asked(pin, threads):
    """A fresh process that imports the CLI runs on its main thread alone:
    OpenBLAS starts no worker unless OPENBLAS_NUM_THREADS asks for one. The
    variables OpenBLAS falls back to are removed, so only the CLI's own
    default can pin it."""
    blas_vars = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in blas_vars}
    if pin is not None:
        env["OPENBLAS_NUM_THREADS"] = pin
    script = (
        "import re, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import thinlayer.cli\n"
        "status = open('/proc/self/status').read()\n"
        "print(re.search(r'^Threads:\\s*(\\d+)$', status, re.M)[1])\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", script, src], env=env,
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert int(proc.stdout) == threads


# The thinlayer modules a fresh process has loaded after one subcommand,
# besides the package root: the driver, the config, the emitters and the
# failure base, and then only the modules the pipeline runs.
DRIVER = {"cli", "config", "reports", "failures"}
SOLVER = {"grids", "shallow_water"}
STRIP = {"grids", "thinfields", "chebyshev"}
STUDY = DRIVER | SOLVER | STRIP | {"ansatz", "norms", "residuals"}
LOADED = {
    "validate": DRIVER,
    "sw": DRIVER | SOLVER,
    "ansatz": DRIVER | SOLVER | STRIP | {"ansatz"},
    "residuals": STUDY,
    "study": STUDY,
    "lagrangian": DRIVER | SOLVER | STRIP | {"lagrangian"},
    "korn": DRIVER | {"korn"},
    "laplace": DRIVER | STRIP | {"elliptic"},
    "probe": DRIVER | STRIP | {"probes"},
    "all": STUDY | {"lagrangian", "korn", "elliptic", "probes"},
}


def test_import_sets_cover_every_subcommand():
    assert set(LOADED) == set(cli.SUBCOMMANDS)
    package = {p.stem for p in Path(cli.__file__).parent.glob("*.py")} - {"__init__"}
    assert LOADED["all"] == package


@pytest.mark.parametrize("subcommand", list(LOADED))
def test_each_subcommand_loads_only_its_modules(tmp_path, subcommand):
    """One subcommand in a fresh process loads exactly its thinlayer modules:
    cli imports a pipeline's modules when it runs, so korn never pays for
    the solver, nor probe for korn."""
    script = (
        "import json, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from thinlayer.cli import run\n"
        "rc = run(sys.argv[2], sys.argv[3], out=sys.argv[4])\n"
        "loaded = sorted(m.partition('.')[2] for m in sys.modules if m.startswith('thinlayer.'))\n"
        "print(json.dumps({'rc': rc, 'loaded': loaded}))\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    cmd = [sys.executable, "-c", script, src, subcommand, str(_config(tmp_path)), str(tmp_path / "out")]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300, check=True)
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["rc"] == 0
    assert report["loaded"] == sorted(LOADED[subcommand])


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


def test_probe_keeps_every_sample_at_eps_1e_100(tmp_path, capsys):
    # the Agmon and Korn ratios scale their fields by a power of two before
    # squaring, so no square overflows and no sample is lost
    tree = {"probes": {"eps_list": [0.1, 1e-14, 1e-100]}, "params": {"gamma_bar": 0.7}}
    out = tmp_path / "out"
    assert main(["probe", "--config", str(_config(tmp_path, tree)), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    rows = _read_csv(out / "probe_ratios.csv")
    assert [int(r["n_samples"]) for r in rows if r["tag"] == "korn"] == [67, 67, 67]
    assert all(float(r["min_ratio"]) > 0.0 for r in rows if r["tag"] == "Agmon")


def test_probe_keeps_every_sample_at_the_eps_floor(tmp_path, capsys):
    tree = {"probes": {"eps_list": [0.1, 1e-150]}, "params": {"gamma_bar": 0.7}}
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run("probe", _config(tmp_path, tree), out=out) == 0
    assert not caught and capsys.readouterr().err == ""
    rows = _read_csv(out / "probe_ratios.csv")
    assert len(rows) == 10 and all(int(r["n_samples"]) >= 64 for r in rows)


@pytest.mark.parametrize("eps", [1e-152, 1e-155, 1e-170])
def test_probe_eps_below_the_floor_is_invalid(tmp_path, capsys, eps):
    # unchecked, 1e-155 ends probe in a ValueError traceback and 1e-170 in a
    # ZeroDivisionError; 1e-152 is refused to keep a margin to the overflow
    # that starts near 1e-154
    cfg = _config(tmp_path, {"probes": {"eps_list": [0.1, 1e-14, eps]}})
    assert run("validate", cfg) == 2
    assert capsys.readouterr().err.splitlines() == [
        "probes.eps_list: entries must be >= 1e-150"
    ]
    assert run("probe", cfg, out=tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_underflowing_froude_number_is_invalid(tmp_path, capsys):
    cfg = _config(tmp_path, {"params": {"F": 1e-162}})
    assert run("validate", cfg) == 2
    assert capsys.readouterr().err.splitlines() == ["params.F: F * F underflows to 0"]
    for sub in ("sw", "ansatz", "study", "lagrangian"):
        assert main([sub, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "Traceback" not in err


@pytest.mark.parametrize("F", [1.4e154, 2 * 10**154], ids=["float", "int"])
def test_overflowing_froude_number_is_invalid(tmp_path, capsys, F):
    # unchecked, F * F = inf passes validate and p.F**2 ends the pipelines
    # in an OverflowError traceback
    cfg = _config(tmp_path, {"params": {"F": F}})
    assert run("validate", cfg) == 2
    assert capsys.readouterr().err.splitlines() == ["params.F: F * F overflows"]
    for sub in ("sw", "ansatz", "study", "lagrangian"):
        assert main([sub, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.splitlines() == ["params.F: F * F overflows"]


@pytest.mark.parametrize("L", [1.35e154, 1e200])
def test_overflowing_2d_period_is_invalid(tmp_path, capsys, L):
    # unchecked, L ** 2 or dx ** 2 overflows and sw, ansatz, study and
    # lagrangian end in an OverflowError traceback or a RuntimeWarning
    cfg = _config(tmp_path, {"domain": {"n": 2, "N": 8, "L": L}})
    for sub in ("validate", "sw"):
        assert main([sub, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.splitlines() == ["domain.L: L ** n overflows"]
    assert not (tmp_path / "out").exists()


def test_largest_2d_period_runs(tmp_path, capsys):
    # the largest period whose square is finite
    L = 1.3407807929942596e154
    above = math.nextafter(L, math.inf)
    assert math.isfinite(L * L) and above * above == math.inf
    tree = {**FAST, "domain": {"n": 2, "N": 8, "L": L}}
    cfg = _config(tmp_path, tree)
    for sub in ("validate", "sw", "ansatz", "study", "lagrangian"):
        assert main([sub, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err == ""


@pytest.mark.parametrize("wavenumber", [10**400, 2**1023], ids=["10^400", "2^1023"])
def test_wavenumber_beyond_the_float_range_is_invalid(tmp_path, capsys, wavenumber):
    # unchecked, both passed validate; sw then ended in an OverflowError
    # traceback (10^400) or blamed a blowup at t = 0.001 on a state that was
    # NaN at t = 0 (2^1023)
    cfg = _config(tmp_path, {"sw": {"init": {"wavenumber": wavenumber}}})
    want = ["sw.init.wavenumber: 2 pi wavenumber must be a finite float"]
    assert run("validate", cfg) == 2
    assert capsys.readouterr().err.splitlines() == want
    assert main(["sw", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.splitlines() == want


@pytest.mark.parametrize(
    "tree",
    [
        {"sw": {"init": {"velocity_amplitude": 1.4e154}}},
        {"sw": {"init": {"velocity_amplitude": 1e300}}},
        {"params": {"gamma_bar": 1e300}},
        {"params": {"F": 1e-100}},
    ],
    ids=["1.4e+154", "1e+300", "gamma_bar-1e+300", "F-1e-100"],
)
def test_overflowing_velocity_maps_to_exit_3_with_one_line(tmp_path, capsys, tree):
    # at these amplitudes the squares of max_speed overflow to inf, so the
    # stability bound is 0; at this friction or Froude number an RK4 stage
    # overflows and the next state fails its depth check. Either way the
    # pipelines report it in one line, with no numpy warning before it
    cfg = _config(tmp_path, tree)
    assert run("validate", cfg) == 0
    for sub in ("sw", "ansatz", "study", "lagrangian"):
        assert main([sub, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"numerical failure in {sub}: "), err


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


# sw.dt = 0.0019 sits just below the default grid's stability bound, 0.001928
@pytest.mark.parametrize(
    "t_eval,steps", [(0.0027, 2), (0.0038, 2), (0.001, 1)]
)
def test_ansatz_steps_at_most_sw_dt(tmp_path, monkeypatch, t_eval, steps):
    # the fewest steps of at most sw.dt; rounding 0.0027 / 0.0019 to one
    # step of 0.0027 broke the bound and exited 3
    cfg = _config(tmp_path, {"sw": {"T": 0.019, "dt": 0.0019}, "study": {"t_eval": t_eval}})
    assert run("validate", cfg) == 0
    assert run("sw", cfg, out=tmp_path / "sw") == 0
    seen = []
    sw_step = shallow_water.sw_step
    monkeypatch.setattr(
        shallow_water, "sw_step", lambda s, p, dt, **kw: seen.append(dt) or sw_step(s, p, dt, **kw)
    )
    assert run("ansatz", cfg, out=tmp_path / "ansatz") == 0
    assert seen == [t_eval / steps] * steps


def test_ansatz_without_a_finite_step_count_maps_to_exit_3(tmp_path, capsys):
    # t_eval / sw.dt overflows; unchecked, ansatz ended in an OverflowError
    # traceback
    cfg = _config(tmp_path, {"sw": {"T": 1.0, "dt": 1e-300}, "study": {"t_eval": 1e10}})
    assert run("validate", cfg) == 0
    assert main(["ansatz", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err.splitlines() == [
        "numerical failure in ansatz: step 1e-300 allows no finite step count over T = 1e+10"
    ]


def test_study_eps_below_the_floor_is_invalid(tmp_path, capsys):
    # unchecked, 1/eps overflows and the study wrote nan norms
    cfg = _config(tmp_path, {"study": {"eps_list": [0.1, 0.05, 0.025, 1e-309]}})
    assert run("validate", cfg) == 2
    assert capsys.readouterr().err.splitlines() == [
        "study.eps_list: entries must be >= 1e-300"
    ]
    for sub in ("study", "residuals"):
        assert main([sub, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_repeating_korn_m_grid_is_invalid(tmp_path, capsys):
    # geomspace repeats a value between two adjacent floats; unchecked,
    # korn_sweep ended korn in a ValueError traceback
    tree = {"korn": {"M_grid": {"min": 1.0, "max": 1.0000000000000004, "count": 10}}}
    cfg = _config(tmp_path, tree)
    assert run("validate", cfg) == 2
    assert capsys.readouterr().err.splitlines() == [
        "korn.M_grid: min and max are too close for count distinct points"
    ]
    assert main(["korn", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err


@pytest.mark.parametrize("count", [2**61, 10**19, pytest.param(10**400, id="10^400")])
def test_korn_m_grid_numpy_cannot_build_is_invalid(tmp_path, capsys, count):
    # numpy refuses these sizes before it allocates; unchecked, validate
    # ended in a ValueError traceback with exit 1, or an OverflowError one
    # for a count beyond the float range
    cfg = _config(tmp_path, {"korn": {"M_grid": {"count": count}}})
    assert run("validate", cfg) == 2
    assert capsys.readouterr().err.splitlines() == [
        "korn.M_grid.count: too large to build the grid"
    ]
    assert main(["korn", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err


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
    monkeypatch.setattr(lagrangian, "_xjacobian", lambda g, d: seen.append("J") or xjacobian(g, d))
    out = tmp_path / "out"
    assert run("lagrangian", _config(tmp_path), out=out) == 0
    states = round(FAST["sw"]["T"] / FAST["sw"]["dt"]) + 1
    assert seen.count("h") == seen.count("J") == states
    rows = _read_csv(out / "lagrangian_chart.csv")
    assert len(rows) == states * FAST["domain"]["N"]
    summary = json.loads((out / "lagrangian_summary.json").read_text())
    worst = max(abs(float(r["det_h0_minus_1"])) for r in rows)
    assert worst == summary["volume_identity_sup"]


@pytest.mark.parametrize("subcommand", ["sw", "lagrangian"])
def test_sw_pipeline_memory_does_not_grow_with_steps(tmp_path, subcommand):
    # sw and lagrangian stream their states: the rows of each state are
    # written as the solver yields it, so the traced peak is that of a few
    # states, whatever T is. Holding the trajectory read 1.15 MB at T = 0.04
    # and 3.50 MB at 0.16 in sw; holding the whole chart read 1.13 and
    # 2.15 MB in lagrangian.
    def peak(T):
        tree = {"domain": {"n": 2, "N": 16}, "sw": {"T": T, "dt": 0.001}}
        cfg = _config(tmp_path, tree, f"{T}.json")
        tracemalloc.start()
        try:
            assert run(subcommand, cfg, out=tmp_path / f"out_{T}") == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(0.04)  # cached grid symbols, first-call imports
    assert peak(0.16) <= peak(0.04) + 0.1 * 2**20
