"""No module of the package has a `while` statement.

Every loop in src/carleman ends by its own range or iterable.  A mutant
that removes an exit test or a counter step from a `while` loop runs for
ever, and the mutation sweep (tests/mutation_sweep.py) can only time it
out; with a `for` over a bounded range the same mutant ends, and a test
can kill it.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "carleman"


def while_lines(source: str) -> list[int]:
    """The line of each `while` statement in source."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.While)]


def test_detector_finds_a_while_loop():
    source = "for k in range(3):\n    pass\nwhile True:\n    break\n"
    assert while_lines(source) == [3]


def test_no_module_has_a_while_loop():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    found = {path.name: lines for path in modules
             if (lines := while_lines(path.read_text(encoding="utf-8")))}
    assert found == {}
