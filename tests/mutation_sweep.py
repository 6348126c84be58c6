"""Mutation sweep: which `if` tests, statements and clauses of the package no test needs.

    python tests/mutation_sweep.py [MODULE ...]

The script copies the repository to a temporary directory and runs three
sweeps over src/carleman/*.py (not __init__.py), or over the modules named,
as in `python tests/mutation_sweep.py coefficients`, one mutant at a time:

- the test of each `if` statement replaced by False;
- each statement in a function body, docstrings and `pass` aside, replaced
  by pass;
- each clause: the test of each `if` statement replaced by True, the test
  of each conditional expression by True and by False, each `and`/`or`
  with one operand dropped, and each chained comparison with one link
  dropped.

Each mutant gets one Tier-1 run (pytest -x, 120 s timeout).  Tests that
already fail on the unmutated copy are deselected, so a mutant is killed
when a test that passes without it fails.  Every survivor and every timeout
is printed as `file:line source`, then the counts.  The exit status is 1
when any mutant timed out, since a loop that a one-line change keeps from
ending hangs whatever calls it; tests/test_loops.py keeps `while` out of
the package for that reason.  Survivors leave it at 0, as a few are
equivalent rewrites.  The runs never overlap; a full sweep takes about an
hour on a 2-vCPU x86-64 host.  pytest does not collect this file.
"""

import ast
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 120


def if_tests(tree):
    """The test expression of every `if` statement, with its replacement."""
    return [(node.test, "False") for node in ast.walk(tree) if isinstance(node, ast.If)]


def body_statements(tree):
    """Every statement inside a function body but its docstring, with its replacement."""
    inside, docstrings = set(), set()
    for func in ast.walk(tree):
        if isinstance(func, ast.FunctionDef):
            inside.update(id(node) for node in ast.walk(func) if node is not func)
            if ast.get_docstring(func) is not None:
                docstrings.add(id(func.body[0]))
    return [(node, "pass") for node in ast.walk(tree) if isinstance(node, ast.stmt)
            and not isinstance(node, ast.Pass) and id(node) in inside - docstrings]


def clauses(tree):
    """Each `if` test as True, each conditional test as True and as False, each
    `and`/`or` less one operand and each chained comparison less one link."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.If):
            found.append((node.test, ast.Constant(True)))
        elif isinstance(node, ast.IfExp):
            found += [(node.test, ast.Constant(True)), (node.test, ast.Constant(False))]
        elif isinstance(node, ast.BoolOp):
            for i in range(len(node.values)):
                rest = node.values[:i] + node.values[i + 1:]
                found.append((node, ast.BoolOp(node.op, rest) if len(rest) > 1 else rest[0]))
        elif isinstance(node, ast.Compare) and len(node.ops) > 1:
            operands = [node.left, *node.comparators]
            for i in range(len(node.ops)):
                # the chain splits at link i into two shorter chains, either maybe empty
                parts = [ast.Compare(operands[0], node.ops[:i], operands[1:i + 1]),
                         ast.Compare(operands[i + 1], node.ops[i + 1:], operands[i + 2:])]
                parts = [part for part in parts if part.ops]
                found.append((node, ast.BoolOp(ast.And(), parts) if len(parts) > 1 else parts[0]))
    return [(node, f"({ast.unparse(new)})") for node, new in found]


def mutate(source: bytes, node, replacement: str) -> bytes:
    """source with the text of node replaced; ast columns count UTF-8 bytes."""
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    begin = starts[node.lineno - 1] + node.col_offset
    end = starts[node.end_lineno - 1] + node.end_col_offset
    return source[:begin] + replacement.encode() + source[end:]


def tier1(copy: Path, *options: str):
    """Exit code of one Tier-1 run in copy, or None when it outlives TIMEOUT."""
    path = os.pathsep.join(filter(None, [str(copy / "src"), os.environ.get("PYTHONPATH")]))
    # no bytecode: a mutant of the same size and second must not load a stale .pyc
    env = dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.Popen(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", *options],
        cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    try:
        return proc.wait(timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return None


def standing_failures(copy: Path) -> list:
    """Node ids of the tests that fail on the unmutated copy."""
    cache = copy / ".sweep_cache"
    if tier1(copy, "-o", f"cache_dir={cache}") is None:
        sys.exit("the unmutated suite outlives the timeout")
    lastfailed = cache / "v" / "cache" / "lastfailed"
    return sorted(json.loads(lastfailed.read_text())) if lastfailed.exists() else []


def sweep(copy: Path, modules: list, name: str, mutants, deselect: list) -> int:
    """Run every mutant that mutants(tree) lists in modules, print survivors, timeouts and counts.

    Returns the number of mutants that timed out.
    """
    counts = {"killed": 0, "survived": 0, "timed out": 0}
    for module in modules:
        path = copy / "src" / "carleman" / f"{module}.py"
        source = path.read_bytes()
        lines = source.decode().splitlines()
        tree = ast.parse(source)
        try:
            for node, replacement in sorted(mutants(tree), key=lambda mutant: mutant[0].lineno):
                path.write_bytes(mutate(source, node, replacement))
                code = tier1(copy, "-x", "-p", "no:cacheprovider", *deselect)
                verdict = "killed" if code else "timed out" if code is None else "survived"
                counts[verdict] += 1
                if verdict != "killed":
                    where = f"{path.relative_to(copy)}:{node.lineno}"
                    print(f"{verdict}: {where} {lines[node.lineno - 1].strip()}", flush=True)
        finally:
            path.write_bytes(source)
    print(f"{name}: {sum(counts.values())} mutants, "
          + ", ".join(f"{n} {verdict}" for verdict, n in counts.items()), flush=True)
    return counts["timed out"]


def main() -> None:
    package = ROOT / "src" / "carleman"
    modules = sys.argv[1:] or sorted(
        path.stem for path in package.glob("*.py") if path.name != "__init__.py")
    unknown = [module for module in modules if not (package / f"{module}.py").is_file()]
    if unknown:
        sys.exit(f"no module {', '.join(unknown)} in src/carleman")
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis"))
        failing = standing_failures(copy)
        print("deselected, failing without a mutant:", *failing or ["none"], sep="\n  ")
        deselect = [f"--deselect={node_id}" for node_id in failing]
        if tier1(copy, "-x", "-p", "no:cacheprovider", *deselect) != 0:
            sys.exit("the unmutated suite fails with its failing tests deselected")
        timeouts = sweep(copy, modules, "if tests set to False", if_tests, deselect)
        timeouts += sweep(copy, modules, "statements set to pass", body_statements, deselect)
        timeouts += sweep(copy, modules, "clauses", clauses, deselect)
    if timeouts:
        sys.exit(1)


if __name__ == "__main__":
    main()
