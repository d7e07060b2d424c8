"""The package imports nothing outside the standard library and itself,
and `import gfpp` loads only the field arithmetic."""

import ast
import os
import subprocess
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


def test_import_gfpp_loads_only_the_field():
    # A fresh interpreter, since this one has long imported every module.
    code = ("import sys, gfpp; print(' '.join(sorted("
            "m for m in sys.modules if m.startswith('gfpp'))))")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    assert "gfpp.field" in out
    assert not {"gfpp.permpoly", "gfpp.criterion", "gfpp.graphs",
                "gfpp.cli"} & set(out)
