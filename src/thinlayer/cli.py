"""Batch driver: every study as a subcommand over one structured config.

    thinlayer <subcommand> --config <path> [--out <dir>] [--threads <n>]

Each pipeline reads only the config (plus --out), writes CSV/JSON through
the deterministic emitters, and finishes by writing a manifest that
checksums every emitted file. Exit codes: 0 success, 2 config validation
failure, 3 numerical failure (vacuum, blowup, step above the stability
bound, conditioning, uncertified solve), 64 usage error, 1 I/O failure or
an allocation that failed.
--threads is accepted for compatibility and has no effect: every pipeline
runs serially, and OpenBLAS on one thread unless OPENBLAS_NUM_THREADS is
set before the CLI starts (an explicit value wins).

Only the config, the emitters and the leaf `failures` module load with
this one. Each pipeline imports the modules it runs when it runs, so a
process that runs `korn` never loads the solver, and `all` loads them all.
Exit 3 catches `NumericalFailure`, the base that every numerical failure
of `shallow_water`, `korn` and `elliptic` shares, so catching it loads
none of them.
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # read once, as numpy loads OpenBLAS
import numpy as np

from . import __version__
from .config import ConfigError, korn_m_grid, load_config, validate_config
from .failures import NumericalFailure
from .reports import write_csv, write_json, write_manifest


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


def _grid(cfg):
    from .grids import Grid

    d = cfg.domain
    return Grid(d["n"], d["N"], d["L"])


def _params(cfg):
    """The run's parameters; the first study eps labels them."""
    from .shallow_water import Params

    p = cfg.params
    eps = cfg.study["eps_list"][0]
    return Params(F=p["F"], Re=p["Re"], gamma_bar=p["gamma_bar"], eps=eps)


def _initial_state(cfg, flat: bool = False):
    from .shallow_water import initial_wave

    init = cfg.sw["init"]
    return initial_wave(
        _grid(cfg),
        amplitude=0.0 if flat else init["amplitude"],
        wavenumber=init["wavenumber"],
        velocity_amplitude=init["velocity_amplitude"],
    )


def _component_columns(n: int, base: str):
    if n == 1:
        return [base]
    return [f"{base}_{i + 1}" for i in range(n)]


# -- pipelines -------------------------------------------------------------------


def _run_sw(cfg, out: Path) -> list:
    from .shallow_water import sw_diagnostics, sw_steps

    sw = cfg.sw
    p = _params(cfg)
    steps = sw_steps(_initial_state(cfg), p, sw["T"], sw["dt"])
    rows = (sw_diagnostics(s, p) for s, _ in steps)
    header = ["t", "mass", "energy", "min_h", "max_u"]
    return [write_csv(out / "sw_diagnostics.csv", header, rows)]


def _run_ansatz(cfg, out: Path) -> list:
    from .ansatz import build_ansatz
    from .shallow_water import sw_steps

    p = _params(cfg)
    for state, _ in sw_steps(_initial_state(cfg), p, cfg.study["t_eval"], cfg.sw["dt"]):
        pass
    a = build_ansatz(state, p)
    grid = state.grid
    n = grid.n
    header = _component_columns(n, "x")
    for name in ("u0", "u1", "u2"):
        header += _component_columns(n, name)
    header += ["w1", "w2", "w3"]
    cols = list(grid.mesh.reshape(n, -1))
    for fld in (a.u0, a.u1, a.u2):
        cols += list(fld.values.reshape(n, -1))
    for fld in (a.w1, a.w2, a.w3):
        cols.append(fld.values.reshape(-1))
    return [write_csv(out / "ansatz_coefficients.csv", header, zip(*cols))]


def _study_report(cfg):
    from .residuals import convergence_study

    return convergence_study(
        _initial_state(cfg),
        _params(cfg),
        cfg.study["eps_list"],
        t_eval=cfg.study["t_eval"],
        nz=cfg.study["nz"],
    )


def _run_residuals(report, out: Path) -> list:
    from .residuals import RECORD_HEADER

    return [write_csv(out / "residual_records.csv", RECORD_HEADER, report.records)]


def _run_study(report, out: Path) -> list:
    from .residuals import RECORD_HEADER, TERM_HEADER

    files = [
        write_csv(out / "study_records.csv", RECORD_HEADER, report.records),
        write_csv(out / "study_terms.csv", TERM_HEADER, report.term_records),
        write_json(out / "study_summary.json", report.summary()),
    ]
    if report.discrepancies:
        files.append(
            write_json(out / "claim_discrepancy.json", report.discrepancies)
        )
    return files


def _run_korn(cfg, out: Path) -> list:
    from .korn import SIGMA_LINE, SWEEP_HEADER, korn_sweep, sigma_circle

    kc = cfg.korn
    sigma = SIGMA_LINE if cfg.domain["n"] == 1 else sigma_circle(kc["sigma_count"])
    sweep = korn_sweep(korn_m_grid(kc["M_grid"]), sigma, quad_nodes=kc["quad_nodes"])
    return [
        write_csv(out / "korn_sweep.csv", SWEEP_HEADER, map(dict.values, sweep.rows)),
        write_json(out / "korn_summary.json", sweep.summary()),
    ]


def _run_laplace(cfg, out: Path) -> list:
    from .elliptic import mode_pressure_dirichlet_top, mode_pressure_neumann_bottom

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
    from .probes import PROBE_TAGS, anisotropy_probe

    pc = cfg.probes
    summaries = [
        anisotropy_probe(
            tag, pc["eps_list"], pc["samples"], pc["seed"], cfg.params["gamma_bar"]
        ).summary()
        for tag in PROBE_TAGS
    ]
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
    from .lagrangian import chart_header, chart_records, integrate_chart
    from .shallow_water import sw_steps

    sw = cfg.sw
    p = _params(cfg)
    steps = sw_steps(_initial_state(cfg, flat=True), p, sw["T"], sw["dt"])
    last = {}

    def rows():
        for chart, defect, ids in integrate_chart(steps, sw["dt"], p.eps):
            last.update(ids)
            yield from chart_records(chart, defect)

    header = chart_header(cfg.domain["n"])
    return [
        write_csv(out / "lagrangian_chart.csv", header, rows()),
        write_json(
            out / "lagrangian_summary.json",
            {"height_identity_sup": last["height"], "volume_identity_sup": last["volume"]},
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

SUBCOMMANDS = (*PIPELINES, "all", "validate")


def run(subcommand: str, config_path, out=None, threads=None) -> int:
    """Execute one pipeline (or all) and write the manifest; returns exit code.

    threads is accepted for compatibility and ignored.
    """
    if subcommand == "validate":
        violations = validate_config(config_path)
        for v in violations:
            print(v, file=sys.stderr)
        return 2 if violations else 0
    if subcommand not in SUBCOMMANDS:
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
    except NumericalFailure as exc:
        print(f"numerical failure in {subcommand}: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"I/O failure: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"out of memory in {subcommand}: {exc}", file=sys.stderr)
        return 1
    write_manifest(out_dir, cfg.sha256, __version__, emitted)
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    return run(args.subcommand, args.config, out=args.out, threads=args.threads)


if __name__ == "__main__":
    sys.exit(main())
