import pathlib
import re

import numpy as np
import pytest

from thinlayer import grids
from thinlayer.grids import HField
from thinlayer.shallow_water import SWState

SCHEMA = pathlib.Path(__file__).resolve().parents[1] / "docs" / "schema.md"


def loglog_slope(xs, ys):
    """Least-squares slope of log ys against log xs (test-side fit)."""
    lx = np.log(np.asarray(xs, dtype=float))
    ly = np.log(np.asarray(ys, dtype=float))
    return float(np.polyfit(lx, ly, 1)[0])


def stacked_state(t, h0, u0):
    """SWState of a separate depth h0 and velocity u0, stacked into q."""
    return SWState(t, HField(h0.grid, np.concatenate([h0.values[None], u0.values])))


def split_tendency(dtq):
    """(dt h0, dt u0), the rows of the stacked tendency sw_rhs returns."""
    return HField(dtq.grid, dtq.values[0]), HField(dtq.grid, dtq.values[1:])


def per_axis_dx(f, a):
    """d f / d x_a one axis at a time, with the symbol built per call: the
    reference of the stacked first derivatives of grids."""
    return HField.from_spec(f.grid, f.spec * grids._symbol(f.grid, 1)[a])


def per_axis_grad(f):
    """Gradient of a scalar field, one per_axis_dx per axis."""
    return HField.stack([per_axis_dx(f, a) for a in range(f.grid.n)])


def bit_equal(got, want):
    """Equal values with equal signs, so -0.0 is told from 0.0."""
    return np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


@pytest.fixture
def transforms(monkeypatch):
    """A list that grows by one entry per call of grids._rfft or grids._irfft,
    the only transforms of the package."""
    calls = []
    for name in ("_rfft", "_irfft"):
        real = getattr(grids, name)
        monkeypatch.setattr(grids, name, lambda *a, _real=real: calls.append(1) or _real(*a))
    return calls


def schema_names(section: str) -> set:
    """The backquoted names in the first column of the table under the
    "## <section>" heading of docs/schema.md; a.{b,c} names a.b and a.c."""
    text = SCHEMA.read_text(encoding="utf-8").split(f"\n## {section}\n")[1]
    names = set()
    for cell in re.findall(r"^\| `([^`]+)` \|", text.split("\n## ")[0], re.M):
        stem, _, fields = cell.partition("{")
        names |= {stem + f for f in fields.rstrip("}").split(",")} if fields else {cell}
    return names


class _FullDisk:
    """An open text file whose writes fail as on a full disk."""

    def __init__(self, fh):
        self._fh = fh

    def write(self, text):
        raise OSError(28, "No space left on device")

    writelines = write

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


@pytest.fixture
def full_disk(monkeypatch):
    """Every write fails to a ".part" file that Path.open opens: the file
    each artifact is written to before its rename."""
    real_open = pathlib.Path.open

    def open_(self, mode="r", *args, **kwargs):
        fh = real_open(self, mode, *args, **kwargs)
        return _FullDisk(fh) if self.suffix == ".part" else fh

    monkeypatch.setattr(pathlib.Path, "open", open_)
