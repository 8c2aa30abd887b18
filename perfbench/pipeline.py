"""Run one thinlayer pipeline in this (fresh) process and report on it.

    python3 perfbench/pipeline.py <subcommand> <config> <out_dir> <threads|-> <result.json> [--trace]

The pipeline runs through ``thinlayer.cli.run`` from the checkout's ``src``.
The result file gets the exit code, the monotonic time at which the config
had been loaded (the parent compares it with the time it spawned this
process), the run time, the peak resident set size and, with ``--trace``,
the span totals of perfbench/tracer.py. The exit code is the pipeline's.
"""
from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv) -> int:
    sub, config, out_dir, threads, result_path = argv[:5]
    trace = "--trace" in argv[5:]
    sys.path.insert(0, str(ROOT / "src"))
    import thinlayer
    import thinlayer.cli as cli

    tracer = None
    if trace:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(thinlayer)

    marks = {}
    load_config = cli.load_config

    def marked_load_config(path):
        cfg = load_config(path)
        marks["loaded"] = time.monotonic()
        return cfg

    cli.load_config = marked_load_config
    t0 = time.perf_counter()
    rc = cli.run(sub, config, out=out_dir, threads=None if threads == "-" else int(threads))
    run_s = time.perf_counter() - t0
    result = {
        "rc": rc,
        "loaded": marks.get("loaded"),
        "run_s": run_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["spans"] = tracer.totals()
        result["counters"] = tracer.counters()
    Path(result_path).write_text(json.dumps(result))
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
