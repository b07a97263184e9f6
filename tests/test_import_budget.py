"""Starting the CLI imports none of the slow standard-library modules.

Every ``gridscore`` run pays its imports before any work, and a short run
is mostly start-up. ``dataclasses`` pulls in ``inspect``, ``ast``, ``dis``
and ``tokenize``; ``statistics`` pulls in ``fractions`` and ``decimal``.
gridscore's records are written by hand (``gridscore._record``), and
gridscore computes its standard deviation and normal CDF itself, so a fresh
``import gridscore.cli`` loads none of them, and no module imports
``statistics`` at all.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gridscore"

SLOW = ("dataclasses", "decimal", "fractions", "inspect", "statistics")


def imported(node):
    """The top-level module name of each absolute import ``node`` makes."""
    if isinstance(node, ast.Import):
        return [alias.name.partition(".")[0] for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [node.module.partition(".")[0]]
    return []


def import_time_imports(path):
    """The top-level module name of each absolute import that runs when
    the module at ``path`` is imported: every one outside a function."""
    stack = list(ast.parse(path.read_text(encoding="utf-8")).body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        yield from imported(node)
        stack.extend(ast.iter_child_nodes(node))


def test_no_module_imports_a_slow_module_at_import_time():
    sources = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "_record.py" in sources
    found = {
        path.name: sorted(set(import_time_imports(path)) & set(SLOW)) for path in sources
    }
    assert {name: slow for name, slow in found.items() if slow} == {}


def test_no_module_imports_statistics_anywhere():
    found = [
        path.name for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if "statistics" in imported(node)
    ]
    assert found == []


def test_a_fresh_cli_import_loads_no_slow_module():
    probe = (
        "import sys\n"
        "import gridscore.cli\n"
        f"print(sorted(set({SLOW!r}) & set(sys.modules)))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, timeout=60, check=True,
        env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)),
    )
    assert done.stdout == "[]\n"
