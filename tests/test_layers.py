"""bench/layers.py imports a commit's package beside the session's own."""

import importlib.util
import sys
from pathlib import Path

from carleman import CoefficientTable

ROOT = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location("layers", ROOT / "bench" / "layers.py")
layers = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(layers)


def ours() -> dict:
    return {name: module for name, module in sys.modules.items()
            if name.partition(".")[0] == "carleman"}


def test_load_imports_a_second_package_and_leaves_the_session_as_found():
    modules, path = ours(), sys.path[:]
    other = layers.load(ROOT / "src")
    assert other.coefficients is not modules["carleman.coefficients"]
    assert ours() == modules
    assert sys.path == path
    mine, theirs = CoefficientTable.from_recurrence(30), other.CoefficientTable.from_recurrence(30)
    assert theirs.numerators == mine.numerators
    assert theirs.denominator == mine.denominator
