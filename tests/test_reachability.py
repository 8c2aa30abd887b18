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
__all__, and the package root binds only __version__.
"""
import ast
import json
import sys
from pathlib import Path

import thinlayer
from thinlayer import cli

PACKAGE = Path(thinlayer.__file__).resolve().parent

GATE = "gate: tests/test_acceptance.py"
PAPER = "paper-bearing, no artifact reports it yet; kept until it is reported or removed"

ALLOWLIST = {
    # the acceptance gate
    "residuals.interior_residual": GATE + " (criterion 4)",
    # test oracles
    "korn.korn_basis_eval": "oracle: the Gram matrices against the literal basis",
    "grids.HField.mask_two_thirds": "oracle: _rhs_reference of the sw_rhs tests",
    "grids.HField.constant": "oracle: AnsatzFields.pressure_poly",
    "ansatz.AnsatzFields.pressure_poly": "oracle: _unguarded_interior",
    "thinfields.ThinField.dz": "oracle: _unguarded_interior",
    "thinfields.ThinField.dzeta": "oracle: ThinField.dz",
    "ansatz.ZPoly.at_z": "oracle: the checks of the ZPoly calculus",
    "ansatz.ZPoly.degree": "oracle: the checks of the ZPoly calculus",
    "ansatz.ZPoly.bottom": "oracle: u_V vanishes at the bottom",
    # test fixtures
    "grids.HField.from_function": "fixture",
    "thinfields.ThinField.from_function": "fixture",
    "thinfields.ThinField.z_coords": "fixture: ThinField.from_function",
    "thinfields.ThinField.zeta": "fixture: ThinField.z_coords",
    # guard rails
    "grids.HField.__setattr__": "guard: an HField never changes after its spectrum is cached",
    # CLI entry points; the runs below go through cli.run
    "cli.main": "CLI entry",
    "cli._build_parser": "CLI entry",
    "cli._Parser.error": "CLI entry: usage errors exit 64",
    # paper-bearing code
    "elliptic.divergence_lift": PAPER,
    "elliptic.divergence_lift.<locals>.dz": PAPER,
    "elliptic.divergence_lift.<locals>.strip_norm_sq": PAPER,
    "grids.HField.from_coefficients": PAPER + " (divergence_lift)",
    "grids.HField.deriv": PAPER + " (divergence_lift)",
    "grids.HField.__rsub__": PAPER + " (solved_form_residual)",
    "lagrangian.jacobian": PAPER + ": the change-of-variable matrix A of one chart",
    "lagrangian.JacobianField.__post_init__": PAPER + " (jacobian)",
    "lagrangian.transformed_deformation": PAPER + ": the deformation tensor under A",
    "lagrangian.chain_rule_check": PAPER + ": the chain rule through one chart",
    "lagrangian.bottom_slip_residual": PAPER + ": the Navier slip condition through one chart",
    "lagrangian.Chart.nlev": PAPER + " (jacobian, chain_rule_check)",
    "lagrangian.Chart.heights": PAPER + " (chain_rule_check)",
    "residuals.solved_form_residual": PAPER,
}

# sw.T = study.t_eval = 0.1 keeps both runs to a few seconds under the profiler
CUT = {"sw": {"T": 0.1}, "study": {"t_eval": 0.1}}


def _trees() -> dict:
    """The parsed source of every module in the package, by module name."""
    return {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in PACKAGE.glob("*.py")
    }


def _defined() -> set:
    """module.qualname of every def in the package, nested ones included."""
    names = set()

    def walk(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(f"{module}.{prefix}{child.name}")
                walk(child, module, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, module, f"{prefix}{child.name}.")

    for module, tree in _trees().items():
        walk(tree, module, "")
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
    defined = _defined()
    never = defined - _entered(runs)
    assert sorted(set(ALLOWLIST) - defined) == [], "allowlisted names that no longer exist"
    assert sorted(never - set(ALLOWLIST)) == [], "entered by no pipeline and not allowlisted"
    assert sorted(set(ALLOWLIST) - never) == [], "allowlisted but entered by a pipeline"
