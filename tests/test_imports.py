"""Every name a module imports is read somewhere in that module.

The package's `__init__.py` is exempt: its imports are the re-exports.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    path for folder in ("src/carleman", "tests", "bench") for path in (ROOT / folder).glob("*.py")
    if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """`line N: name` for each name an import binds and no expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in read]


def test_detector_finds_an_unused_import():
    source = "import math\nimport os.path\nfrom json import dumps as d, loads\nos.sep\nloads\n"
    assert unused_imports(source) == ["line 1: math", "line 3: d"]


def test_no_module_imports_a_name_it_never_uses():
    assert len(MODULES) > 20
    unused = {
        str(path.relative_to(ROOT)): found
        for path in MODULES
        if (found := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert unused == {}
