"""The benchmark's traced run still finds every klsc name it wraps."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_name_resolves():
    """perfbench/tracing.py wraps klsc functions and methods by name; a
    refactor that renames one (RowSpace.add, EdgeRing.reduce,
    MatroidIHSheaf.__init__, ...) makes check_targets raise."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracing.check_targets()
