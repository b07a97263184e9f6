"""The runtime imports nothing outside the standard library.

scipy, numpy and hypothesis are installed for the test oracles, so a stray
runtime import of one of them would pass every other test.
"""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gridscore"


def absolute_imports(path):
    """The top-level module name of each absolute import in a source file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_runtime_imports_only_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "cli.py" in sources
    outside = {
        path.name: sorted(set(absolute_imports(path)) - sys.stdlib_module_names)
        for path in sources
    }
    assert {name: names for name, names in outside.items() if names} == {}
