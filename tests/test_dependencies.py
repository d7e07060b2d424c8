"""The package imports nothing outside the standard library and itself."""

import ast
import sys
from pathlib import Path

import gfpp

SRC = Path(gfpp.__file__).parent


def test_runtime_imports_are_stdlib_or_gfpp():
    # sympy, networkx and hypothesis may serve the tests as oracles only
    foreign = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "gfpp" and top not in sys.stdlib_module_names:
                    foreign.append((path.name, name))
    assert len(list(SRC.glob("*.py"))) > 1
    assert foreign == []
