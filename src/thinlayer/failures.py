"""The one base of every numerical failure that the CLI maps to exit 3.

Vacuum, blowup and a step above the stability bound (`shallow_water`), a
degenerate pencil and a node-doubling disagreement (`korn`) and an
uncertified solve (`elliptic`) each subclass `NumericalFailure` next to
their `ValueError`/`RuntimeError` base. The module imports nothing, so the
CLI catches the whole family without loading the modules that raise it.
"""


class NumericalFailure(Exception):
    """A computation that cannot produce a trustworthy result."""
