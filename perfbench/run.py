"""End-to-end benchmark of the thinlayer CLI pipelines.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Every pipeline invocation is a fresh
Python process (perfbench/pipeline.py) that imports thinlayer from ``src``
and calls ``thinlayer.cli.run``, because every CLI user pays import and
first-call costs. One iteration runs the workload's pipelines in order; the
benchmark repeats iterations while the next one is expected to end within
``--seconds``, and reports medians over them. Every invocation's outputs are checked
(perfbench/checks.py); an invocation that exits non-zero or fails a check
counts in ``failed``.

With ``--trace 0`` the last line of stdout is a JSON object whose metrics
are the end-to-end ones. With ``--trace 1`` untraced and traced iterations
alternate; the metrics are the per-layer ones from the traced iterations
(perfbench/tracer.py), plus the tracing overhead and each pipeline's share
of the untraced wall time.
"""
from __future__ import annotations

import argparse
import contextlib
import copy
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PIPELINE = HERE / "pipeline.py"

# configs/default.json at the commit that defined this benchmark, spelled out
# so that a later change to the shipped default does not change the workloads.
BASE_CONFIG = {
    "domain": {"n": 1, "N": 64, "L": 6.283185307179586},
    "params": {"F": 1.0, "Re": 1.0, "gamma_bar": 1.0},
    "sw": {
        "init": {"amplitude": 0.05, "wavenumber": 1, "velocity_amplitude": 0.05},
        "T": 1.0,
        "dt": 0.001,
    },
    "study": {"eps_list": [0.1, 0.05, 0.025, 0.0125], "t_eval": 0.25, "nz": 24},
    "korn": {"M_grid": {"min": 0.01, "max": 50.0, "count": 48}, "sigma_count": 8, "quad_nodes": 96},
    "probes": {"eps_list": [0.1, 0.01, 0.001], "samples": 64, "seed": 0},
    "output": {"dir": "out", "formats": ["csv", "json"]},
}

# Why each workload exists is recorded in BENCHMARK.json. Lengths are cut
# from the default config (sw.T, study.t_eval) so that one run of
# --seconds holds several iterations.
WORKLOADS = {
    "evolve-1d": {
        "config": {"sw": {"T": 0.1}, "study": {"t_eval": 0.1}},
        "pipelines": ("sw", "ansatz", "lagrangian"),
        "threads": None,
    },
    "evolve-2d": {
        "config": {"domain": {"n": 2, "N": 32}, "sw": {"T": 0.05}},
        "pipelines": ("sw", "study"),
        "threads": 2,
    },
    "inequality": {
        "config": {},
        "pipelines": ("korn", "probe", "laplace"),
        "threads": 2,
        "seeded": True,
    },
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

CHILD_TIMEOUT_S = 60.0
# Iterations stop by this time whatever --seconds says, so that a run ends
# well inside the 180 s a run may take.
LAST_START_S = 120.0


@contextlib.contextmanager
def scratch(name: str):
    """A fresh directory under .perfbench/ in the checkout, removed afterwards."""
    work = ROOT / ".perfbench" / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()


def pipeline_command(sub, config_path, out, threads, result_path, traced=False) -> list:
    """The command that runs one pipeline in a fresh process (see pipeline.py)."""
    return [sys.executable, str(PIPELINE), sub, str(config_path), str(out),
            "-" if threads is None else str(threads), str(result_path)] + (
        ["--trace"] if traced else [])


def workload_config(name: str, seed: int) -> dict:
    cfg = copy.deepcopy(BASE_CONFIG)
    for section, values in WORKLOADS[name]["config"].items():
        cfg[section].update(values)
    if WORKLOADS[name].get("seeded"):
        cfg["probes"]["seed"] = seed
    return cfg


# -- per-layer metrics ------------------------------------------------------------


class Totals:
    """Span totals of one traced iteration, summed over its processes."""

    def __init__(self, it: dict):
        self.wall = it["wall"]
        self.spans: dict[str, dict] = {}
        self.counters: dict[str, float] = {}
        for res in it["results"]:
            for key, agg in res["spans"].items():
                into = self.spans.setdefault(key, dict.fromkeys(agg, 0.0))
                for field, value in agg.items():
                    into[field] += value
            for key, value in res["counters"].items():
                self.counters[key] = self.counters.get(key, 0) + value

    def get(self, field: str, name: str, site: str | None = None) -> float:
        return sum(
            agg[field]
            for key, agg in self.spans.items()
            if key.partition("@")[0] == name and (site is None or key.endswith("@" + site))
        )

    def calls(self, name, site=None):
        return self.get("calls", name, site)

    def time(self, name, site=None):
        return self.get("time", name, site)

    def share(self, seconds: float) -> float:
        """Seconds as a share of the iteration's wall time."""
        return seconds / self.wall


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


SW, GR, KO = "shallow_water", "grids", "korn"
MODES = ("elliptic.mode_pressure_dirichlet_top", "elliptic.mode_pressure_neumann_bottom")

# name -> (unit, better, repeats exactly, value from Totals).
# A layer's time is reported as its share of the traced iteration's wall
# time (trace.wall_s), and a per-call cost as calls per second of the
# layer's own time, so that a layer a workload does not run reads 0 in a
# unit that is not a time. Only times that every workload spends are in s.
PER_LAYER = {
    "shallow_water.rhs_calls": ("count", "lower", True, lambda t: t.calls(f"{SW}.sw_rhs")),
    "shallow_water.rhs_per_step": ("calls/step", "lower", True, lambda t: _ratio(
        t.calls(f"{SW}.sw_rhs", SW), t.calls(f"{SW}.sw_step"))),
    "shallow_water.rhs_per_s": ("1/s", "higher", False, lambda t: _ratio(
        t.calls(f"{SW}.sw_rhs"), t.time(f"{SW}.sw_rhs"))),
    "shallow_water.step_self_share": ("share", "lower", False, lambda t: t.share(
        t.get("self", f"{SW}.sw_step"))),
    "shallow_water.solve_share": ("share", "lower", False, lambda t: t.share(
        t.time(f"{SW}.sw_solve"))),
    "shallow_water.energy_share": ("share", "lower", False, lambda t: t.share(
        t.time(f"{SW}.sw_energy"))),
    "grids.fft_calls": ("count", "lower", True, lambda t: t.counters["fft_calls"]),
    "grids.fft_calls_per_rhs": ("calls/rhs", "lower", True, lambda t: _ratio(
        t.get("fft", f"{SW}.sw_rhs"), t.calls(f"{SW}.sw_rhs"))),
    "grids.fft_bytes_computed": ("bytes", "lower", True, lambda t: t.counters["fft_bytes"]),
    "grids.eval_at_calls": ("count", "lower", True, lambda t: t.calls(f"{GR}.HField.eval_at")),
    "grids.eval_at_share": ("share", "lower", False, lambda t: t.share(
        t.time(f"{GR}.HField.eval_at"))),
    "lagrangian.chart_share": ("share", "lower", False, lambda t: t.share(
        t.time("lagrangian.integrate_chart"))),
    "lagrangian.chart_self_share": ("share", "lower", False, lambda t: t.share(
        t.get("self", "lagrangian.integrate_chart"))),
    "lagrangian.div_calls": ("count", "lower", True, lambda t: t.calls(f"{GR}.div", "lagrangian")),
    "lagrangian.interpolate_calls": ("count", "lower", True, lambda t: t.calls(
        f"{SW}.SWTrajectory.interpolate")),
    "lagrangian.identities_share": ("share", "lower", False, lambda t: t.share(
        t.time("lagrangian.chart_identities"))),
    "lagrangian.records_share": ("share", "lower", False, lambda t: t.share(
        t.time("lagrangian.chart_records"))),
    "ansatz.build_share": ("share", "lower", False, lambda t: t.share(
        t.time("ansatz.build_ansatz"))),
    "ansatz.rate_share": ("share", "lower", False, lambda t: t.share(
        t.time("ansatz.ansatz_rate"))),
    "residuals.study_self_share": ("share", "lower", False, lambda t: t.share(
        t.get("self", "residuals.convergence_study"))),
    "residuals.evolve_share": ("share", "lower", False, lambda t: t.share(
        t.time(f"{SW}.sw_solve", "residuals"))),
    "residuals.parallelism": ("cpu_s/wall_s", "higher", False, lambda t: _ratio(
        t.get("cpu", "residuals.convergence_study"), t.time("residuals.convergence_study"))),
    "norms.calls": ("count", "lower", True, lambda t: t.calls("norms.norm")),
    "norms.share": ("share", "lower", False, lambda t: t.share(t.time("norms.norm"))),
    "korn.sweep_share": ("share", "lower", False, lambda t: t.share(t.time(f"{KO}.korn_sweep"))),
    "korn.cells": ("count", "higher", True, lambda t: t.calls(f"{KO}._sweep_cell")),
    "korn.pencil_calls": ("count", "lower", True, lambda t: t.calls(f"{KO}.korn_pencil")),
    "korn.gram_calls": ("count", "lower", True, lambda t: t.calls(f"{KO}.korn_gram")),
    "korn.linalg_calls_per_cell": ("calls/cell", "lower", True, lambda t: _ratio(
        t.get("linalg", f"{KO}._sweep_cell"), t.calls(f"{KO}._sweep_cell"))),
    "korn.sweep_parallelism": ("cpu_s/wall_s", "higher", False, lambda t: _ratio(
        t.get("cpu", f"{KO}.korn_sweep"), t.time(f"{KO}.korn_sweep"))),
    "korn.cond_failures": ("count", "lower", True, lambda t: t.get(
        "observed", f"{KO}._sweep_cell")),
    "korn.probe_share": ("share", "lower", False, lambda t: t.share(t.time(f"{KO}.korn_probe"))),
    "probes.anisotropy_share": ("share", "lower", False, lambda t: t.share(
        t.time("probes.anisotropy_probe"))),
    "probes.samples_per_s": ("1/s", "higher", False, lambda t: _ratio(
        t.calls("probes._scaled_ratio"), t.time("probes.anisotropy_probe"))),
    "probes.kept_ratio": ("ratio", "higher", True, lambda t: _ratio(
        t.get("observed", "probes._scaled_ratio"), t.calls("probes._scaled_ratio"))),
    "elliptic.mode_calls": ("count", "lower", True, lambda t: sum(t.calls(m) for m in MODES)),
    "elliptic.modes_per_s": ("1/s", "higher", False, lambda t: _ratio(
        sum(t.calls(m) for m in MODES), sum(t.time(m) for m in MODES))),
    "config.load_s": ("s", "lower", False, lambda t: t.time("config.load_config")),
    "reports.write_s": ("s", "lower", False, lambda t: t.time("reports.write_csv")
                        + t.time("reports.write_json", "cli") + t.time("reports.write_manifest")),
    "reports.bytes": ("bytes", "lower", True, lambda t: t.get("observed", "reports.write_csv")
                      + t.get("observed", "reports.write_json")),
    "trace.wall_s": ("s", "lower", False, lambda t: t.wall),
}
PIPELINE_METRICS = ("sw", "ansatz", "lagrangian", "study", "korn", "probe")
# computed from the untraced iterations next to the traced ones
EXTRA_PER_LAYER = {"trace.overhead_s": ("s", "lower")} | {
    f"pipeline.{p}_share": ("share", "lower") for p in PIPELINE_METRICS
}


# -- running ----------------------------------------------------------------------


class Bench:
    def __init__(self, workload: str, seed: int, work: Path):
        spec = WORKLOADS[workload]
        self.pipelines = spec["pipelines"]
        self.threads = spec["threads"]
        self.cfg = workload_config(workload, seed)
        self.reference = checks.load_reference()[workload]
        self.work = work
        self.config_path = work / "config.json"
        self.config_path.write_text(json.dumps(self.cfg, indent=2))
        # Pipelines import the package from cached bytecode, as an installed
        # package would; the untimed first invocation writes the cache.
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
        self.attempted = 0
        self.failed = 0
        self.invocations = 0

    def invoke(self, sub: str, traced: bool):
        """Run one pipeline process; returns (wall s, result dict or None, problems)."""
        self.invocations += 1
        out = self.work / f"out-{self.invocations}"
        result_path = self.work / f"result-{self.invocations}.json"
        log_path = self.work / "stderr.log"
        cmd = pipeline_command(sub, self.config_path, out, self.threads, result_path, traced)
        with log_path.open("w") as log:
            t0 = time.monotonic()
            try:
                proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=log,
                                      timeout=CHILD_TIMEOUT_S, cwd=ROOT, env=self.env)
                rc = proc.returncode
            except subprocess.TimeoutExpired:
                rc = None
            wall = time.monotonic() - t0
        problems = []
        result = None
        if rc != 0:
            tail = log_path.read_text(errors="replace").strip().splitlines()[-3:]
            problems.append(f"{sub}: exit {rc}: " + " | ".join(tail))
        elif not result_path.exists():
            problems.append(f"{sub}: no result file")
        else:
            result = json.loads(result_path.read_text())
            if sub != "validate":
                result["setup_s"] = result["loaded"] - t0
                problems += checks.check(sub, out, self.cfg, self.reference.get(sub))
        shutil.rmtree(out, ignore_errors=True)
        result_path.unlink(missing_ok=True)
        return wall, result, problems

    def iteration(self, traced: bool) -> dict:
        it = {"traced": traced, "wall": 0.0, "pipe": {}, "setup": [], "rss": 0.0, "results": []}
        for sub in self.pipelines:
            wall, result, problems = self.invoke(sub, traced)
            self.attempted += 1
            if problems:
                self.failed += 1
                for p in problems:
                    print(f"FAILED {p}", file=sys.stderr)
            it["wall"] += wall
            it["pipe"][sub] = wall
            if result is not None:
                it["setup"].append(result["setup_s"])
                it["rss"] = max(it["rss"], result["peak_rss_mb"])
                if traced:
                    it["results"].append(result)
        return it


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def end_to_end(iters: list[dict]) -> dict:
    """Samples of each end-to-end metric; the metric is their median."""
    return {
        "wall_s": [it["wall"] for it in iters],
        "setup_s": [s for it in iters for s in it["setup"]],
        "peak_rss_mb": [it["rss"] for it in iters],
    }


def per_layer(plain: list[dict], traced: list[dict]) -> tuple[dict, list[str]]:
    per_iter = [Totals(it) for it in traced]
    values, problems = {}, []
    for name, (_, _, exact, fn) in PER_LAYER.items():
        seen = [float(fn(t)) for t in per_iter]
        if exact and len(set(seen)) > 1:
            problems.append(f"count {name} differs between traced iterations: {seen}")
        values[name] = _median(seen)
    values["trace.overhead_s"] = values["trace.wall_s"] - _median([it["wall"] for it in plain])
    for p in PIPELINE_METRICS:
        values[f"pipeline.{p}_share"] = _median(
            [it["pipe"][p] / it["wall"] for it in plain if p in it["pipe"]]
        )
    return values, problems


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def metadata(seed: int) -> dict:
    import numpy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.partition(":")[2].strip()
                break
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "commit": _git_commit(),
        "seed": seed,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "thinlayer" / "cli.py").is_file():
        print(f"no thinlayer sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    print("meta " + json.dumps(metadata(args.seed)))
    with scratch(f"{args.workload}-{os.getpid()}") as work:
        bench = Bench(args.workload, args.seed, work)
        # untimed: validates the config and writes the package's bytecode cache
        _, _, problems = bench.invoke("validate", False)
        if problems:
            print("\n".join(problems), file=sys.stderr)
            return 1
        start = time.monotonic()
        iters = []
        while True:
            traced = bool(args.trace) and len(iters) % 2 == 1
            iters.append(bench.iteration(traced))
            if len(iters) < 1 + args.trace:
                continue
            # no iteration starts that would end after --seconds
            if time.monotonic() - start + iters[-1]["wall"] > min(args.seconds, LAST_START_S):
                break

    plain = [it for it in iters if not it["traced"]]
    traced = [it for it in iters if it["traced"]]
    e2e = end_to_end(plain)
    problems = []
    print(f"workload {args.workload}: {len(plain)} untraced, {len(traced)} traced iterations")
    print("iteration walls (s): " + " ".join(
        f"{it['wall']:.3f}{'t' if it['traced'] else ''}" for it in iters))
    for name, unit in END_TO_END.items():
        v = e2e[name]
        print(f"{name} {_median(v):.6g} {unit} (median of {len(v)}; "
              f"min {min(v, default=0):.6g}, max {max(v, default=0):.6g})")
    print(f"error_rate {_ratio(bench.failed, bench.attempted):.6g} "
          f"({bench.failed} of {bench.attempted} invocations)")
    for p in bench.pipelines:
        print(f"{p}_s {_median([it['pipe'][p] for it in plain]):.6g} s")
    if args.trace:
        values, problems = per_layer(plain, traced)
        for p in problems:
            print(f"FAILED {p}", file=sys.stderr)
        units = {name: spec[0] for name, spec in PER_LAYER.items()}
        units |= {name: spec[0] for name, spec in EXTRA_PER_LAYER.items()}
        metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    else:
        metrics = {
            name: {"value": _median(e2e[name]), "unit": unit} for name, unit in END_TO_END.items()
        }
    print(json.dumps({
        "correct": bench.failed == 0 and not problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
