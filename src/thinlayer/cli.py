"""Batch driver: every study as a subcommand over one structured config.

    thinlayer <subcommand> --config <path> [--out <dir>] [--threads <n>]

Each pipeline reads only the config (plus --out), writes CSV/JSON through
the deterministic emitters, and finishes by writing a manifest that
checksums every emitted file. Exit codes: 0 success, 2 config validation
failure, 3 numerical failure (vacuum, blowup, step above the stability
bound, conditioning, uncertified solve), 64 usage error, 1 I/O failure.
--threads is accepted for compatibility and has no effect: every pipeline
runs serially.
"""
from __future__ import annotations

import argparse
import sys
from operator import itemgetter
from pathlib import Path

import numpy as np

from . import __version__
from .ansatz import build_ansatz
from .config import ConfigError, load_config, validate_config
from .elliptic import (
    SolverError,
    mode_pressure_dirichlet_top,
    mode_pressure_neumann_bottom,
)
from .grids import Grid
from .korn import (
    SIGMA_LINE,
    ConditioningError,
    QuadratureError,
    korn_probe,
    korn_sweep,
    sigma_circle,
)
from .lagrangian import DegenerateChartError, chart_check, chart_records, integrate_chart
from .probes import PROBE_TAGS, anisotropy_probe
from .reports import write_csv, write_json, write_manifest
from .residuals import convergence_study
from .shallow_water import (
    BlowupError,
    DegenerateStateError,
    Params,
    StabilityError,
    initial_wave,
    sw_solve,
)

SUBCOMMANDS = (
    "sw",
    "ansatz",
    "residuals",
    "study",
    "korn",
    "laplace",
    "probe",
    "lagrangian",
    "all",
    "validate",
)

NUMERICAL_FAILURES = (
    DegenerateStateError,
    BlowupError,
    StabilityError,
    ConditioningError,
    QuadratureError,
    SolverError,
    DegenerateChartError,
)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage, which collides with "config invalid"
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(64, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="thinlayer", description=__doc__.splitlines()[0])
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", required=True, help="path to the JSON config")
    parser.add_argument("--out", default=None, help="override output.dir")
    parser.add_argument("--threads", type=int, help="accepted for compatibility; no effect")
    return parser


# -- shared construction ---------------------------------------------------------


def _grid(cfg) -> Grid:
    d = cfg.domain
    return Grid(d["n"], d["N"], d["L"])


def _params(cfg, eps: float) -> Params:
    p = cfg.params
    return Params(F=p["F"], Re=p["Re"], gamma_bar=p["gamma_bar"], eps=eps)


def _initial_state(cfg, flat: bool = False):
    init = cfg.sw["init"]
    return initial_wave(
        _grid(cfg),
        amplitude=0.0 if flat else init["amplitude"],
        wavenumber=init["wavenumber"],
        velocity_amplitude=init["velocity_amplitude"],
    )


def _evolved_state(cfg, t_eval: float):
    sw = cfg.sw
    dt = min(sw["dt"], t_eval)
    steps = max(1, int(round(t_eval / dt)))
    dt = t_eval / steps
    traj = sw_solve(_initial_state(cfg), _params(cfg, cfg.study["eps_list"][0]), t_eval, dt)
    return traj.states[-1]


def _component_columns(n: int, base: str):
    if n == 1:
        return [base]
    return [f"{base}_{i + 1}" for i in range(n)]


# -- pipelines -------------------------------------------------------------------


def _run_sw(cfg, out: Path) -> list:
    sw = cfg.sw
    p = _params(cfg, cfg.study["eps_list"][0])
    traj = sw_solve(_initial_state(cfg), p, sw["T"], sw["dt"])
    header = ["t", "mass", "energy", "min_h", "max_u"]
    rows = map(itemgetter(*header), traj.diagnostics(p))
    return [write_csv(out / "sw_diagnostics.csv", header, rows)]


def _run_ansatz(cfg, out: Path) -> list:
    state = _evolved_state(cfg, cfg.study["t_eval"])
    eps = cfg.study["eps_list"][0]
    a = build_ansatz(state, _params(cfg, eps))
    grid = state.grid
    n = grid.n
    header = _component_columns(n, "x")
    for name in ("u0", "u1", "u2"):
        header += _component_columns(n, name)
    header += ["w1", "w2", "w3"]
    cols = [np.broadcast_to(c, grid.shape).reshape(-1) for c in grid.coords()]
    for fld in (a.u0, a.u1, a.u2):
        vals = fld.values if fld.is_vector else fld.values[None]
        cols += [vals[i].reshape(-1) for i in range(n)]
    for fld in (a.w1, a.w2, a.w3):
        cols.append(fld.values.reshape(-1))
    return [write_csv(out / "ansatz_coefficients.csv", header, zip(*cols))]


def _study_report(cfg):
    base = _params(cfg, cfg.study["eps_list"][0])
    return convergence_study(
        _initial_state(cfg),
        base,
        cfg.study["eps_list"],
        t_eval=cfg.study["t_eval"],
        nz=cfg.study["nz"],
    )


RECORD_HEADER = ["eps", "kind", "component", "norm_sup", "norm_l2"]
TERM_HEADER = ["eps", "term", "component", "norm_sup"]


def _run_residuals(report, out: Path) -> list:
    rows = map(itemgetter(*RECORD_HEADER), report.records)
    return [write_csv(out / "residual_records.csv", RECORD_HEADER, rows)]


def _run_study(report, out: Path) -> list:
    files = [
        write_csv(
            out / "study_records.csv",
            RECORD_HEADER,
            map(itemgetter(*RECORD_HEADER), report.records),
        ),
        write_csv(
            out / "study_terms.csv",
            TERM_HEADER,
            map(itemgetter(*TERM_HEADER), report.term_records),
        ),
        write_json(
            out / "study_summary.json",
            {
                **report.summary(),
                "component_slopes": report.component_slopes,
                "discrepancy_count": len(report.discrepancies),
            },
        ),
    ]
    if report.discrepancies:
        files.append(
            write_json(out / "claim_discrepancy.json", report.discrepancies)
        )
    return files


def _run_korn(cfg, out: Path) -> list:
    kc = cfg.korn
    mg = kc["M_grid"]
    m_grid = np.geomspace(mg["min"], mg["max"], mg["count"])
    sigma = SIGMA_LINE if cfg.domain["n"] == 1 else sigma_circle(kc["sigma_count"])
    sweep = korn_sweep(m_grid, sigma, quad_nodes=kc["quad_nodes"])
    header = ["M", "c", "s", "lam"] + [f"eig{j}" for j in range(1, 7)] + ["cond_flag"]
    return [
        write_csv(out / "korn_sweep.csv", header, map(itemgetter(*header), sweep.rows)),
        write_json(out / "korn_summary.json", sweep.summary()),
    ]


def _run_laplace(cfg, out: Path) -> list:
    rows = []
    worst_tanh = 0.0
    ratios = []
    for eps in cfg.probes["eps_list"]:
        for k in range(1, 9):
            top = mode_pressure_dirichlet_top(k, eps, h_k=1.0)
            bot = mode_pressure_neumann_bottom(k, eps, g_k=1.0)
            worst_tanh = max(worst_tanh, abs(top.ratio - np.tanh(k * eps)))
            ratios.append(bot.ratio)
            rows.append(
                (k, eps, top.ratio, bot.ratio, max(top.residual, bot.residual))
            )
    summary = {
        "max_tanh_deviation": worst_tanh,
        "neumann_ratio_spread": max(ratios) / min(ratios),
    }
    header = ["k", "eps", "dirichlet_ratio", "neumann_ratio", "max_residual"]
    return [
        write_csv(out / "laplace_modes.csv", header, rows),
        write_json(out / "laplace_summary.json", summary),
    ]


def _run_probe(cfg, out: Path) -> list:
    pc = cfg.probes
    reports = [
        anisotropy_probe(tag, pc["eps_list"], pc["samples"], seed=pc["seed"])
        for tag in PROBE_TAGS
    ]
    reports.append(
        korn_probe(pc["eps_list"], cfg.params["gamma_bar"], pc["samples"], seed=pc["seed"])
    )
    summaries = [rep.summary() for rep in reports]
    verdicts = {s["tag"]: {"verdict": s["verdict"], "spread": s["spread"]} for s in summaries}
    rows = [
        (s["tag"], r["eps"], r["n_samples"], r["max_ratio"], r["min_ratio"])
        for s in summaries
        for r in s["rows"]
    ]
    header = ["tag", "eps", "n_samples", "max_ratio", "min_ratio"]
    return [
        write_csv(out / "probe_ratios.csv", header, rows),
        write_json(out / "probe_summary.json", verdicts),
    ]


def _run_lagrangian(cfg, out: Path) -> list:
    # chart identity runs presuppose a flat initial height; the configured
    # velocity perturbation supplies the motion
    sw = cfg.sw
    eps = cfg.study["eps_list"][0]
    p = _params(cfg, eps)
    traj = sw_solve(_initial_state(cfg, flat=True), p, sw["T"], sw["dt"])
    chart = integrate_chart(traj, eps)
    ids, defect = chart_check(chart, traj)
    return [
        write_csv(out / "lagrangian_chart.csv", *chart_records(chart, defect)),
        write_json(
            out / "lagrangian_summary.json",
            {"height_identity_sup": ids["height"], "volume_identity_sup": ids["volume"]},
        ),
    ]


# Pipelines that write the convergence study; they take its report, which
# one run computes once, instead of the config.
STUDY_PIPELINES = ("residuals", "study")

PIPELINES = {
    "sw": _run_sw,
    "ansatz": _run_ansatz,
    "residuals": _run_residuals,
    "study": _run_study,
    "korn": _run_korn,
    "laplace": _run_laplace,
    "probe": _run_probe,
    "lagrangian": _run_lagrangian,
}


def run(subcommand: str, config_path, out=None, threads=None) -> int:
    """Execute one pipeline (or all) and write the manifest; returns exit code.

    threads is accepted for compatibility and ignored.
    """
    if subcommand == "validate":
        violations = validate_config(config_path)
        for v in violations:
            print(v, file=sys.stderr)
        return 2 if violations else 0
    if subcommand not in PIPELINES and subcommand != "all":
        print(f"unknown subcommand: {subcommand}", file=sys.stderr)
        return 64
    try:
        cfg = load_config(config_path)
    except ConfigError as exc:
        for v in exc.violations:
            print(v, file=sys.stderr)
        return 2

    out_dir = Path(out) if out is not None else Path(cfg.output["dir"])
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        probe_file = out_dir / ".write_test"
        probe_file.write_text("")
        probe_file.unlink()
    except OSError as exc:
        print(f"output directory not writable: {exc}", file=sys.stderr)
        return 1

    names = list(PIPELINES) if subcommand == "all" else [subcommand]
    emitted = []
    report = None
    try:
        for name in names:
            if name in STUDY_PIPELINES:
                if report is None:
                    report = _study_report(cfg)
                emitted += PIPELINES[name](report, out_dir)
            else:
                emitted += PIPELINES[name](cfg, out_dir)
    except NUMERICAL_FAILURES as exc:
        print(f"numerical failure in {subcommand}: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"I/O failure: {exc}", file=sys.stderr)
        return 1
    write_manifest(out_dir, cfg.sha256, __version__, emitted)
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    return run(args.subcommand, args.config, out=args.out, threads=args.threads)


if __name__ == "__main__":
    sys.exit(main())
