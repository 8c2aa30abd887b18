"""Record reference.json: the deterministic summary values of every workload.

    python3 perfbench/record_reference.py

Runs each pipeline of each workload once, refuses to record outputs that
break an invariant, and writes perfbench/reference.json. Seeded outputs
(the probe pipeline) are checked by their invariants only and get no entry.
Re-record only when a workload's config changes, never to make a changed
program pass.
"""
from __future__ import annotations

import json
import subprocess
import sys

import checks
from run import ROOT, WORKLOADS, pipeline_command, scratch, workload_config


def main() -> int:
    reference = {}
    with scratch("record") as work:
        for name, spec in WORKLOADS.items():
            cfg = workload_config(name, 0)
            cfg_path = work / f"{name}.json"
            cfg_path.write_text(json.dumps(cfg))
            reference[name] = {}
            for sub in spec["pipelines"]:
                out = work / f"{name}-{sub}"
                subprocess.run(
                    pipeline_command(sub, cfg_path, out, spec["threads"], work / "result.json"),
                    check=True, cwd=ROOT,
                )
                problems, values = checks.summarize(sub, out, cfg)
                if problems:
                    print("\n".join(problems), file=sys.stderr)
                    return 1
                if values is not None:
                    reference[name][sub] = values
    checks.REFERENCE.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
