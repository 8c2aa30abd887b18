"""Every function in src/thinlayer is entered by a pipeline or named here.

`thinlayer all` runs under sys.setprofile on a cut 1D config (written to
its configured output.dir, as the CLI does without --out) and on a 2D
N = 16 config, and an invalid config runs once through the exit-2 path of
a pipeline and once through `thinlayer validate`.
The functions that none of these runs enters must be exactly ALLOWLIST,
and each entry names what still calls it. So a helper that no pipeline
calls fails here until it is deleted or its reason is written down, and
an entry that a pipeline starts to call fails until it is taken out.

The same parse checks that each name is declared once: no module assigns
__all__, and the package root binds only __version__. It also checks that
each exception the CLI maps to exit 3, every subclass of NumericalFailure,
is raised outside the allowlist, that the methods and functions
perfbench/tracer.py wraps by name exist, and that each function a
perfbench/run.py metric reads a span of is a plain function of the
package, apart from a listed set of stale names.
"""
import ast
import importlib
import json
import pkgutil
import sys
from pathlib import Path

import thinlayer
from thinlayer import cli
from thinlayer.failures import NumericalFailure

PACKAGE = Path(thinlayer.__file__).resolve().parent

GATE = "gate: tests/test_acceptance.py"
PAPER = "paper-bearing, no artifact reports it yet"

ALLOWLIST = {
    # the acceptance gate
    "residuals.interior_residual": GATE + " (criterion 4)",
    # test oracles
    "korn.korn_basis_eval": "oracle: the Gram matrices against the literal basis",
    "grids.HField.mask_two_thirds": "oracle: _rhs_reference of the sw_rhs tests",
    "ansatz.AnsatzFields.pressure_poly": "oracle: _unguarded_interior",
    "thinfields.Strip.dz": "oracle: _unguarded_interior; "
    + PAPER + " (chain_rule_check, divergence_lift)",
    "ansatz.ZPoly.at_z": "oracle: the checks of the ZPoly calculus",
    # test fixtures
    "grids.HField.from_function": "fixture",
    "thinfields.ThinField.from_function": "fixture",
    # guard rails
    "grids.HField.__setattr__": "guard: an HField never changes after its spectrum is cached",
    # CLI entry points; the runs below go through cli.run
    "cli.main": "CLI entry",
    "cli._build_parser": "CLI entry",
    "cli._Parser.error": "CLI entry: usage errors exit 64",
    # paper-bearing code
    "elliptic.divergence_lift": PAPER + ": the lift behind the Stokes regularity in thin strips",
    "grids.HField.from_coefficients": PAPER + " (divergence_lift)",
    "lagrangian.chain_rule_check": PAPER + ": the change of variable that fixes the fluid domain",
    "lagrangian.Chart.heights": PAPER + " (chain_rule_check)",
    "residuals.solved_form_residual": PAPER + ": its sign disagrees with the standard elimination",
    "grids.HField.__rsub__": PAPER + " (solved_form_residual)",
}

# sw.T = study.t_eval = 0.1 keeps both runs to a few seconds under the profiler
CUT = {"sw": {"T": 0.1}, "study": {"t_eval": 0.1}}


def _trees() -> dict:
    """The parsed source of every module in the package, by module name."""
    return {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in PACKAGE.glob("*.py")
    }


def _functions() -> dict:
    """The def node of every function in the package, nested ones included,
    by module.qualname."""
    defs = {}

    def walk(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs[f"{module}.{prefix}{child.name}"] = child
                walk(child, module, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, module, f"{prefix}{child.name}.")

    for module, tree in _trees().items():
        walk(tree, module, "")
    return defs


def _own_nodes(fn):
    """The nodes of fn's own body, outside its nested defs and classes."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def _raised_names(fn) -> set:
    """The names that the raise statements of fn's own body raise."""
    names = set()
    for node in _own_nodes(fn):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            names.add(exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None))
    return names


def _bound(tree) -> set:
    """Every name that an import, def, class or assignment in tree binds,
    function locals included."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {(a.asname or a.name).partition(".")[0] for a in node.names}
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
    return names


def test_each_name_is_declared_once():
    """A name is imported from the module that defines it: no module lists
    __all__, and the package root binds nothing but __version__."""
    trees = _trees()
    listing = sorted(module for module, tree in trees.items() if "__all__" in _bound(tree))
    assert listing == [], "modules that assign __all__"
    assert _bound(trees["__init__"]) == {"__version__"}


def _numerical_failures() -> list:
    """Every subclass of NumericalFailure, read after importing every module
    of the package, since cli itself loads only the modules a pipeline runs."""
    for info in pkgutil.iter_modules(thinlayer.__path__):
        importlib.import_module(f"thinlayer.{info.name}")
    family, stack = [], NumericalFailure.__subclasses__()
    while stack:
        exc = stack.pop()
        family.append(exc)
        stack += exc.__subclasses__()
    return family


def test_every_numerical_failure_has_a_raise_site():
    """cli maps each subclass of NumericalFailure to exit 3; a class that only
    allowlisted code raises never reaches that mapping from a pipeline."""
    family = _numerical_failures()
    assert family, "no class subclasses NumericalFailure"
    raised = set()
    for qualname, fn in _functions().items():
        if qualname not in ALLOWLIST:
            raised |= _raised_names(fn)
    unraised = [exc.__name__ for exc in family if exc.__name__ not in raised]
    assert unraised == [], "exit-3 failures that no pipeline function raises"


def _perfbench_value(module: str, name: str):
    """The value node of perfbench/<module>.py's one top-level assignment to
    name; in a tuple assignment, the value matching name's position."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / f"{module}.py"
    values = []
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            if isinstance(target, ast.Name) and target.id == name:
                values.append(node.value)
            elif isinstance(target, ast.Tuple):
                values += [
                    v for t, v in zip(target.elts, node.value.elts)
                    if isinstance(t, ast.Name) and t.id == name
                ]
    assert len(values) == 1, f"perfbench/{module}.py assigns {name} once"
    return values[0]


def test_perfbench_methods_exist():
    """perfbench/tracer.py wraps these methods by name; a rename in the package
    would end a traced benchmark run in an AttributeError."""
    missing = [
        f"{module}.{cls}.{method}"
        for module, cls, method in ast.literal_eval(_perfbench_value("tracer", "METHODS"))
        if not hasattr(getattr(importlib.import_module(f"thinlayer.{module}"), cls, None), method)
    ]
    assert missing == [], "methods that perfbench/tracer.py wraps and the package lacks"


def test_perfbench_observers_exist():
    """perfbench/tracer.py observes these module-level functions by name; a
    missing one is never wrapped and its per-layer metrics silently read 0."""
    observed = [ast.literal_eval(key) for key in _perfbench_value("tracer", "OBSERVERS").keys]
    defined = {
        f"{module}.{node.name}"
        for module, tree in _trees().items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    missing = sorted(set(observed) - defined)
    assert observed, "perfbench/tracer.py observes no function"
    assert missing == [], "functions that perfbench/tracer.py observes and the package lacks"


# Span names that perfbench/run.py reads although no plain function of the
# package has them; ROADMAP item 1 re-points or drops each metric that reads
# one, and takes the name out of this set.
STALE_SPANS = {
    "shallow_water.sw_solve",  # deleted
    "lagrangian.chart_identities",  # deleted
    "korn.korn_gram",  # deleted
    "korn.korn_probe",  # deleted
    "lagrangian.integrate_chart",  # a generator function
}


def _run_spans() -> set:
    """The function names whose spans the metrics of perfbench/run.py read:
    the name argument of every t.calls, t.time and t.get in PER_LAYER, with
    SW, GR and KO resolved, and the names in MODES."""
    prefixes = {k: ast.literal_eval(_perfbench_value("run", k)) for k in ("SW", "GR", "KO")}

    def resolved(node):
        if isinstance(node, ast.Constant):
            return node.value
        if isinstance(node, ast.JoinedStr):
            return "".join(resolved(v) for v in node.values)
        if isinstance(node, ast.FormattedValue):
            return prefixes[node.value.id]
        return None  # a comprehension variable over MODES

    names = set(ast.literal_eval(_perfbench_value("run", "MODES")))
    for node in ast.walk(_perfbench_value("run", "PER_LAYER")):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "t"
            and node.func.attr in ("calls", "time", "get")
        ):
            name = resolved(node.args[1 if node.func.attr == "get" else 0])
            if name is not None:
                names.add(name)
    return names


def _is_generator(fn) -> bool:
    return any(isinstance(node, (ast.Yield, ast.YieldFrom)) for node in _own_nodes(fn))


def test_perfbench_spans_exist():
    """A metric that reads the span of a missing function reads 0, and one
    that reads a generator function's span times only its creation. Every
    such name must be in STALE_SPANS, and every entry of STALE_SPANS must
    still be such a name, so the set shrinks as the metrics are repaired."""
    defs = _functions()
    spans = _run_spans()
    stale = {name for name in spans if name not in defs or _is_generator(defs[name])}
    assert "ansatz.ansatz_rate" in spans and "residuals.convergence_study" in spans
    assert sorted(stale - STALE_SPANS) == [], "perfbench/run.py spans of no plain function"
    assert sorted(STALE_SPANS - stale) == [], "listed as stale but no longer stale"


def _clear_caches():
    """Empty every functools cache in the package: a cached function is then
    entered whatever earlier tests left in its cache."""
    for name, module in list(sys.modules.items()):
        if name.startswith("thinlayer."):
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()


def _entered(runs) -> set:
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    _clear_caches()
    sys.setprofile(profile)
    try:
        exits = [cli.run(*args, **kwargs) for args, kwargs in runs]
    finally:
        sys.setprofile(None)
    assert exits == [0, 0, 2, 2]
    return {
        f"{Path(co.co_filename).stem}.{co.co_qualname}"
        for co in codes
        if Path(co.co_filename).resolve().parent == PACKAGE
    }


def test_every_function_is_entered_or_allowlisted(tmp_path):
    trees = {
        "1d": {**CUT, "output": {"dir": str(tmp_path / "out_1d")}},
        "2d": {**CUT, "domain": {"n": 2, "N": 16}},
        "bad": {"params": {"Re": 0.0}},
    }
    paths = {}
    for name, tree in trees.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(tree), encoding="utf-8")
    runs = [
        (("all", paths["1d"]), {}),
        (("all", paths["2d"]), {"out": tmp_path / "out_2d"}),
        (("sw", paths["bad"]), {"out": tmp_path / "out_bad"}),
        (("validate", paths["bad"]), {}),
    ]
    defined = set(_functions())
    never = defined - _entered(runs)
    assert sorted(set(ALLOWLIST) - defined) == [], "allowlisted names that no longer exist"
    assert sorted(never - set(ALLOWLIST)) == [], "entered by no pipeline and not allowlisted"
    assert sorted(set(ALLOWLIST) - never) == [], "allowlisted but entered by a pipeline"
