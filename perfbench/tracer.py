"""In-memory span tracer installed around thinlayer from outside the package.

Every public function of every thinlayer module is replaced by a wrapper
that records a span (name, call site, start, end, parent). The wrapper is
installed in the defining module and in every thinlayer module that
imported the name, so ``cli.sw_solve`` and ``residuals.sw_solve`` are both
traced, and the call site (the module whose binding was called) is kept.
A few public methods and private per-item functions are wrapped too,
because the per-layer metrics count them.

``numpy.fft`` and ``numpy.linalg`` calls are counted, not spanned: each
span carries the counts made on its thread while it was open. FFT bytes are
computed from the input and output array sizes, not measured.

Worker threads of the package's thread pools adopt the span that submitted
the work as their parent, so self time (duration minus the union of the
child spans) stays meaningful when children run in parallel.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import math
import pkgutil
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# Observers turn a span's return value into a number summed per span name.
# The two private functions are wrapped only to be observed: one Korn sweep
# cell (1 if it failed) and one probe sample (1 if it was kept).
OBSERVERS = {
    "korn._sweep_cell": lambda row: 1.0 if row["cond_flag"] else 0.0,
    "probes._scaled_ratio": lambda r: 1.0 if math.isfinite(r) else 0.0,
    "reports.write_csv": lambda path: float(path.stat().st_size),
    "reports.write_json": lambda path: float(path.stat().st_size),
}
METHODS = (("grids", "HField", "eval_at"), ("shallow_water", "SWTrajectory", "interpolate"))
# Spans that also record process CPU time, for CPU s / wall s.
CPU_SPANS = {"residuals.convergence_study", "korn.korn_sweep"}
FFT_FUNCS = (
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft",
    "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft",
)


class Span:
    __slots__ = (
        "name", "site", "parent", "t0", "t1", "nested", "fft0", "fft1",
        "bytes0", "bytes1", "la0", "la1", "cpu", "observed",
    )


class _ThreadState:
    """Open spans and numpy call counts of one thread."""

    def __init__(self):
        self.stack: list[Span] = []
        self.names: list[str] = []
        self.adopted: Span | None = None
        self.fft_calls = 0
        self.fft_bytes = 0
        self.linalg_calls = 0


class Tracer:
    """Collects spans and call counts for one process."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._states: list = []

    # -- per-thread state ---------------------------------------------------------

    def _state(self) -> "_ThreadState":
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadState()
            self._states.append(st)
        return st

    def current(self):
        loc = self._state()
        return loc.stack[-1] if loc.stack else loc.adopted

    # -- wrappers -----------------------------------------------------------------

    def _span_wrapper(self, fn, name: str, site: str):
        tracer = self
        observe = OBSERVERS.get(name)
        cpu = name in CPU_SPANS
        perf = time.perf_counter
        ptime = time.process_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            loc = tracer._state()
            sp = Span()
            sp.name = name
            sp.site = site
            sp.parent = loc.stack[-1] if loc.stack else loc.adopted
            sp.nested = name in loc.names
            sp.observed = 0.0
            tracer.spans.append(sp)
            loc.stack.append(sp)
            loc.names.append(name)
            sp.fft0, sp.bytes0, sp.la0 = loc.fft_calls, loc.fft_bytes, loc.linalg_calls
            c0 = ptime() if cpu else 0.0
            sp.t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                sp.t1 = perf()
                sp.cpu = ptime() - c0 if cpu else 0.0
                sp.fft1, sp.bytes1, sp.la1 = loc.fft_calls, loc.fft_bytes, loc.linalg_calls
                loc.stack.pop()
                loc.names.pop()
            if observe is not None:
                sp.observed = observe(result)
            return result

        return wrapper

    def _fft_counter(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(a, *args, **kwargs):
            out = fn(a, *args, **kwargs)
            loc = tracer._state()
            loc.fft_calls += 1
            loc.fft_bytes += np.asarray(a).nbytes + out.nbytes
            return out

        return counted

    def _linalg_counter(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer._state().linalg_calls += 1
            return fn(*args, **kwargs)

        return counted

    def _adopting_pool(self):
        tracer = self

        class AdoptingPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                parent = tracer.current()

                def adopted(*a, **k):
                    loc = tracer._state()
                    saved, loc.adopted = loc.adopted, parent
                    try:
                        return fn(*a, **k)
                    finally:
                        loc.adopted = saved

                return super().submit(adopted, *args, **kwargs)

        return AdoptingPool

    # -- installation -------------------------------------------------------------

    def install(self, package):
        """Wrap the package's functions and count numpy.fft/linalg calls."""
        modules = {package.__name__: package}
        for info in pkgutil.iter_modules(package.__path__):
            full = f"{package.__name__}.{info.name}"
            modules[full] = importlib.import_module(full)

        def short(modname):
            return modname.rpartition(".")[2]

        targets = {}  # id(original function) -> span name
        for modname, mod in modules.items():
            for attr, obj in vars(mod).items():
                if not inspect.isfunction(obj) or obj.__module__ != modname:
                    continue
                name = f"{short(modname)}.{attr}"
                if not attr.startswith("_") or name in OBSERVERS:
                    targets[id(obj)] = name
        for modname, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in targets:
                    wrapped = self._span_wrapper(obj, targets[id(obj)], short(modname))
                    setattr(mod, attr, wrapped)
                elif obj is ThreadPoolExecutor:
                    setattr(mod, attr, self._adopting_pool())
        for modname, cls_name, meth in METHODS:
            cls = getattr(modules[f"{package.__name__}.{modname}"], cls_name)
            name = f"{modname}.{cls_name}.{meth}"
            setattr(cls, meth, self._span_wrapper(getattr(cls, meth), name, modname))

        for attr in FFT_FUNCS:
            setattr(np.fft, attr, self._fft_counter(getattr(np.fft, attr)))
        for attr in np.linalg.__all__:
            obj = getattr(np.linalg, attr)
            if callable(obj) and not isinstance(obj, type):
                setattr(np.linalg, attr, self._linalg_counter(obj))

    # -- aggregation --------------------------------------------------------------

    def totals(self) -> dict:
        """Sums per (span name, call site), plus process-wide counters.

        time excludes spans nested in a span of the same name, so recursive
        calls are not counted twice; self is duration minus the union of the
        child spans' intervals.
        """
        children: dict[int, list] = {}
        for sp in self.spans:
            if sp.parent is not None:
                children.setdefault(id(sp.parent), []).append((sp.t0, sp.t1))
        out: dict[str, dict] = {}
        for sp in self.spans:
            key = f"{sp.name}@{sp.site}"
            agg = out.get(key)
            if agg is None:
                agg = out[key] = dict.fromkeys(
                    ("calls", "time", "self", "fft", "fft_bytes", "linalg", "cpu", "observed"),
                    0.0,
                )
            dur = sp.t1 - sp.t0
            agg["calls"] += 1
            agg["observed"] += sp.observed
            agg["self"] += dur - _covered(children.get(id(sp), ()), sp.t0, sp.t1)
            if not sp.nested:
                agg["time"] += dur
                agg["cpu"] += sp.cpu
                agg["fft"] += sp.fft1 - sp.fft0
                agg["fft_bytes"] += sp.bytes1 - sp.bytes0
                agg["linalg"] += sp.la1 - sp.la0
        return out

    def counters(self) -> dict:
        """Process-wide numpy.fft/linalg counts, summed over every thread."""
        return {
            key: sum(getattr(loc, key) for loc in self._states)
            for key in ("fft_calls", "fft_bytes", "linalg_calls")
        }


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals clipped to [lo, hi]."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total
