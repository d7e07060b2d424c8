"""The package imports nothing outside the standard library and itself,
each stage module imports only `gfpp.field` from it, `import gfpp` loads
only the field, `import gfpp.cli` and a cache hit load no stage module (and
the cli no pathlib), a plain sweep loads neither criterion nor graphs, a
skipped stage loads nothing, no stage clock times an import, CI installs
exactly the test extra, pyproject.toml's version is `gfpp.__version__`,
and the benchmark finds what it runs: the functions its tracer wraps, the
options of its workloads and the `Field(p, e, cap=...)` its setup child
builds."""

import ast
import json
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import gfpp
from gfpp import cli

SRC = Path(gfpp.__file__).parent
TESTS = Path(__file__).parent
ROOT = TESTS.parent
PERFBENCH = ROOT / "perfbench"


def _top_level_imports(path):
    """The top-level package of every absolute import in the source at
    `path`, at any depth of its code."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            out.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(node.module.split(".")[0])
    return out


def _foreign_imports(paths, allowed):
    return [(path.name, top) for path in sorted(paths)
            for top in sorted(_top_level_imports(path))
            if top not in allowed and top not in sys.stdlib_module_names]


def test_runtime_imports_are_stdlib_or_gfpp():
    # sympy, networkx and hypothesis may serve the tests as oracles only
    assert len(list(SRC.glob("*.py"))) > 1
    assert _foreign_imports(SRC.glob("*.py"), {"gfpp"}) == []


def _test_extra():
    """The requirement names of pyproject.toml's `test` extra, read without
    tomllib, which Python 3.10 lacks."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    extras = text.split("[project.optional-dependencies]\n", 1)[1].split("\n[", 1)[0]
    (listed,) = re.findall(r"^test\s*=\s*\[([^\]]*)\]", extras, re.M)
    return {re.match(r"[\w.-]+", req).group().lower()
            for req in re.findall(r'"([^"]+)"', listed)}


def test_test_imports_are_in_the_test_extra():
    # pip install -e ".[test]" brings everything the tests import: each
    # package the extra names is imported under that name, and lucas is
    # the tests' own helper module.
    extra = _test_extra()
    assert "pytest" in extra
    assert _foreign_imports(TESTS.glob("*.py"), extra | {"gfpp", "lucas"}) == []


def test_ci_installs_exactly_the_test_extra():
    # CI names the packages rather than running pip install -e ".[test]",
    # which would install gfpp itself and so let the plain-checkout step
    # pass even if pyproject.toml's pythonpath = ["src"] broke.
    text = (ROOT / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    (listed,) = re.findall(r"- name: Install the test-only dependencies\n"
                           r"\s+run: python -m pip install (.+)", text)
    assert set(listed.split()) == _test_extra()


def test_version_is_the_pyproject_version():
    # pip's metadata reads pyproject.toml's version, while the report and
    # every cache key read gfpp.__version__; if only the former were bumped,
    # stale cache entries would still be served.
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    project = text.split("[project]\n", 1)[1].split("\n[", 1)[0]
    (version,) = re.findall(r'^version\s*=\s*"([^"]+)"', project, re.M)
    assert version == gfpp.__version__


def test_readme_layout_has_one_row_per_module():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    table = text.split("\n## Library layout\n\n", 1)[1].split("\n\n", 1)[0]
    rows = re.findall(r"^\| `(gfpp\.\w+)`", table, re.M)
    modules = ["gfpp." + path.stem for path in SRC.glob("*.py") if path.stem != "__init__"]
    assert sorted(rows) == sorted(modules)


def _imported_gfpp_modules(path):
    """The gfpp modules that the source at `path` imports, at any depth of
    its code, lazy imports included."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            out.update(a.name for a in node.names if a.name.startswith("gfpp"))
        elif isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                out.add("gfpp." + node.module)
            else:
                out.update("gfpp." + a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("gfpp"):
            out.add(node.module)
            if node.module == "gfpp":
                out.update("gfpp." + a.name for a in node.names)
    return out


def test_stage_modules_import_only_the_field():
    # Each stage module stands on the base modules alone: the sweep knows
    # nothing of the checks that judge its rows, and no check imports
    # another stage; the command line runs them as stages.
    imported = {name: _imported_gfpp_modules(SRC / (name + ".py"))
                for name in ("permpoly", "criterion", "graphs")}
    assert all(mods == {"gfpp.field"} for mods in imported.values()), imported


STAGE_MODULES = {"gfpp.permpoly", "gfpp.criterion", "gfpp.graphs"}


def _loaded_after(code):
    # The gfpp modules loaded once `code` ran in a fresh interpreter, since
    # this one has long imported every module.
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    code += ("; import sys; print(' '.join(sorted("
             "m for m in sys.modules if m.startswith('gfpp'))))")
    return set(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                              capture_output=True, text=True).stdout.split())


def test_import_gfpp_loads_only_the_field():
    assert _loaded_after("import gfpp") == {"gfpp", "gfpp.field"}


def test_import_cli_loads_no_stage_module():
    loaded = _loaded_after("import gfpp.cli")
    assert "gfpp.cli" in loaded
    assert not STAGE_MODULES & loaded


def test_import_cli_leaves_pathlib_out():
    # A cache hit imports gfpp.cli; its file work needs only os.path.  -S
    # keeps out what the site module imports for .pth files.
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    code = "import gfpp.cli, sys; print('pathlib' in sys.modules)"
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["False"]


def test_cache_hit_loads_no_stage_module(tmp_path):
    run = ("import gfpp.cli; gfpp.cli.main(['verify-all', '--q-max', '9', "
           "'--jobs', '1', '--cache', %r, '--json', %r])"
           % (str(tmp_path / "cache"), str(tmp_path / "out.json")))
    assert STAGE_MODULES <= _loaded_after(run)  # the miss computes
    assert not STAGE_MODULES & _loaded_after(run)  # the hit does not


def test_sweep_alone_loads_neither_criterion_nor_graphs(tmp_path):
    run = ("import gfpp.cli; gfpp.cli.main(['sweep', '--q', '9', '--jobs', '1', "
           "'--json', %r])" % str(tmp_path / "out.json"))
    loaded = _loaded_after(run)
    assert "gfpp.permpoly" in loaded
    assert not {"gfpp.criterion", "gfpp.graphs"} & loaded


def test_a_skipped_stage_loads_no_module(tmp_path):
    # The identity grid does not serve q = 25 (e = 2), so its modules are
    # never imported.
    run = ("import gfpp.cli; gfpp.cli.main(['identities', '--q', '25', '--jobs', '1', "
           "'--json', %r])" % str(tmp_path / "out.json"))
    assert "gfpp.criterion" not in _loaded_after(run)
    (verdict,) = json.loads((tmp_path / "out.json").read_text())["verdicts"]
    assert verdict["skipped"] == "ParamDomain: e = 2 < 3"


def test_stage_clocks_leave_module_imports_out(tmp_path):
    # An import hook makes each stage module take 0.2 s to import.  The
    # stages at q = 3, the first field, still take well under 0.1 s, as
    # the modules are imported before their clocks start.
    code = ("import json, sys, time\n"
            "class Slow:\n"
            "    def find_spec(self, name, path, target=None):\n"
            "        if name in %r:\n"
            "            time.sleep(0.2)\n"
            "sys.meta_path.insert(0, Slow())\n"
            "import gfpp.cli\n"
            "gfpp.cli.main(['verify-all', '--q-max', '5', '--jobs', '1', '--json', %r])\n"
            % (sorted(STAGE_MODULES), str(tmp_path / "out.json")))
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    subprocess.run([sys.executable, "-c", code], env=env, check=True, capture_output=True)
    stages = json.loads((tmp_path / "out.json").read_text())["timing"]["stages"]
    assert set(stages) == {"3", "5"}
    # The identity grid does not serve e = 1, so it is neither run nor timed.
    assert set(stages["3"]) == {"field", "sweep", "criterion", "girth", "encode"}
    assert max(t for secs in stages.values() for t in secs.values()) < 0.1, stages


def test_tracer_targets_resolve():
    # The benchmark's tracer wraps library functions by name, and a name
    # that no longer resolves is silently recorded as absent.  The tracer
    # is compiled from its source, so no bytecode is written next to it.
    path = PERFBENCH / "tracer.py"
    tracer = types.ModuleType("tracer")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), tracer.__dict__)
    names = [(module, attr, name) for module, attr, name, _ in tracer.TARGETS]
    names += tracer.COUNTED
    unresolved = {name for module, attr, name in names
                  if tracer._resolve(module, attr) == (None, None)}
    # Names of code that is gone; each is still listed in the tracer.
    assert unresolved == {"field.power_table", "field.sub_table",
                          "permpoly.a_value_table", "permpoly.b_value_table",
                          "permpoly.is_permutation", "digits.lucas_binom",
                          "graphs.monomial_tables",
                          "criterion.inverse_pp_criterion"}


def test_benchmark_workloads_parse(tmp_path):
    # Every workload's argv, with the --cache and --json that the runner
    # adds, is a command line that gfpp accepts.
    spec = json.loads((PERFBENCH / "workloads.json").read_text(encoding="utf-8"))
    parser = cli.build_parser()
    runner_args = ["--cache", str(tmp_path / "cache"), "--json", str(tmp_path / "out.json")]
    for name, workload in spec["workloads"].items():
        args = parser.parse_args(workload["argv"] + runner_args)
        assert args.command == workload["argv"][0], name


def test_benchmark_setup_child_builds_fields():
    # The benchmark's setup_s times this call: import gfpp, then
    # Field(p, e, cap=...) for each pair, in a fresh interpreter.
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, str(PERFBENCH / "child.py"), "setup", "1000000",
                          "3:6,1327:1"], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert float(out.stdout) > 0
