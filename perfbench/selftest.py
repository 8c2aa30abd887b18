"""Self-test of the benchmark: correct outputs pass, perturbed outputs fail.

    python3 perfbench/selftest.py

Runs every pipeline of every workload once (seed 0) and checks that the
outputs pass. Then, for each pipeline, it applies perturbations a wrong
program could produce (a summary value moved by a few parts per million, an
energy uptick, a broken identity, an eigenvalue off the Korn structure, an
unbounded probe verdict), rewrites the manifest so that its checksums still
match, and requires that the check reports every one. A file changed
without its manifest must fail as well. Last, BENCHMARK.json must name
exactly the workloads and metrics that run.py reports. Exits 0 when all of
this holds.
"""
from __future__ import annotations

import csv
import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import checks
import run


def _edit_csv(row: int, col: str, fn):
    def edit(path: Path):
        with path.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        header = list(rows[0])
        rows[row][col] = repr(fn(float(rows[row][col])))
        with path.open("w", newline="") as fh:
            writer = csv.DictWriter(fh, header, lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)

    return edit


def _edit_column(col: str, factor: float):
    def edit(path: Path):
        with path.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        for r in rows:
            r[col] = repr(float(r[col]) * factor)
        with path.open("w", newline="") as fh:
            writer = csv.DictWriter(fh, list(rows[0]), lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)

    return edit


def _edit_json(fn):
    def edit(path: Path):
        obj = json.loads(path.read_text())
        obj = fn(obj) or obj
        path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")

    return edit


def _set(key, value):
    return lambda obj: obj.__setitem__(key, value)


def _drop_traction(entries):
    return [e for e in entries if e["kind"] != "traction"]


def _fewer_discrepancies(summary):
    summary["discrepancy_count"] -= 1


def _unbounded(verdicts):
    verdicts["L6"]["verdict"] = "unbounded trend"


def _scale_slope(summary):
    summary["slopes"]["kinematic"] *= 1.0 + 1e-5


def _move_inf(summary):
    summary["inf_lambda"] *= 1.0 + 1e-6


def _move_spread(summary):
    summary["neumann_ratio_spread"] *= 1.0 + 1e-6


# pipeline -> [(description, file, edit)]
PERTURBATIONS = {
    "sw": [
        ("final energy +1e-6 relative", "sw_diagnostics.csv", _edit_csv(-1, "energy", lambda v: v * (1 + 1e-6))),
        ("energy uptick", "sw_diagnostics.csv", _edit_csv(10, "energy", lambda v: v + 1e-2)),
        ("mass drift 1e-9", "sw_diagnostics.csv", _edit_csv(5, "mass", lambda v: v * (1 + 1e-9))),
    ],
    "ansatz": [
        ("u0 column x (1 + 1e-6)", "ansatz_coefficients.csv", _edit_column("u0", 1 + 1e-6)),
    ],
    "lagrangian": [
        ("height identity 2e-7", "lagrangian_summary.json", _edit_json(_set("height_identity_sup", 2e-7))),
        ("final position +1e-6", "lagrangian_chart.csv", _edit_csv(-1, "X0_1", lambda v: v + 1e-6)),
    ],
    "study": [
        ("kinematic slope +1e-5 relative", "study_summary.json", _edit_json(_scale_slope)),
        ("traction discrepancy dropped", "claim_discrepancy.json", _edit_json(_drop_traction)),
        ("discrepancy count off by one", "study_summary.json", _edit_json(_fewer_discrepancies)),
    ],
    "korn": [
        ("eig6 = 2.001", "korn_sweep.csv", _edit_csv(3, "eig6", lambda v: 2.001)),
        ("inf_lambda +1e-6 relative", "korn_summary.json", _edit_json(_move_inf)),
        ("one conditioning failure", "korn_summary.json", _edit_json(_set("failures", 1))),
    ],
    "probe": [
        ("L6 verdict unbounded", "probe_summary.json", _edit_json(_unbounded)),
        ("min ratio zero", "probe_ratios.csv", _edit_csv(0, "min_ratio", lambda v: 0.0)),
    ],
    "laplace": [
        ("tanh deviation 1e-9", "laplace_summary.json", _edit_json(_set("max_tanh_deviation", 1e-9))),
        ("neumann spread +1e-6 relative", "laplace_summary.json", _edit_json(_move_spread)),
    ],
}


def _rewrite_manifest(out: Path):
    path = out / "manifest.json"
    manifest = json.loads(path.read_text())
    for entry in manifest["files"]:
        data = (out / entry["name"]).read_bytes()
        entry["bytes"] = len(data)
        entry["sha256"] = hashlib.sha256(data).hexdigest()
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _benchmark_json_problems() -> list[str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    want_e2e = {name: unit for name, unit in run.END_TO_END.items()}
    want_layer = {name: (v[0], v[1]) for name, v in run.PER_LAYER.items()}
    want_layer |= dict(run.EXTRA_PER_LAYER)
    problems = []
    if {w["name"] for w in spec["workloads"]} != set(run.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.WORKLOADS")
    if {m["name"]: m["unit"] for m in spec["end_to_end"]} != want_e2e:
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} != want_layer:
        problems.append("BENCHMARK.json per_layer differs from run.PER_LAYER")
    return problems


def main() -> int:
    problems = _benchmark_json_problems()
    reference = checks.load_reference()
    with run.scratch("selftest") as work:
        for name, spec in run.WORKLOADS.items():
            cfg = run.workload_config(name, 0)
            cfg_path = work / f"{name}.json"
            cfg_path.write_text(json.dumps(cfg))
            for sub in spec["pipelines"]:
                out = work / f"{name}-{sub}"
                subprocess.run(
                    run.pipeline_command(sub, cfg_path, out, spec["threads"], work / "result.json"),
                    check=True, cwd=run.ROOT,
                )
                ref = reference[name].get(sub)
                found = checks.check(sub, out, cfg, ref)
                if found:
                    problems.append(f"{name}/{sub}: correct outputs rejected: {found}")
                for what, fname, edit in PERTURBATIONS[sub] + [("file changed, manifest kept", None, None)]:
                    bad = work / "perturbed"
                    shutil.rmtree(bad, ignore_errors=True)
                    shutil.copytree(out, bad)
                    if edit is None:
                        target = bad / json.loads((bad / "manifest.json").read_text())["files"][0]["name"]
                        target.write_bytes(target.read_bytes() + b"\n")
                    else:
                        edit(bad / fname)
                        _rewrite_manifest(bad)
                    found = checks.check(sub, bad, cfg, ref)
                    status = "caught" if found else "MISSED"
                    print(f"{name}/{sub}: {what}: {status}" + (f" ({found[0]})" if found else ""))
                    if not found:
                        problems.append(f"{name}/{sub}: perturbation not caught: {what}")
    for p in problems:
        print(f"FAILED {p}", file=sys.stderr)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
