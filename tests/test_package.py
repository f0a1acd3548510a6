import ast
import json
import os
import pkgutil
import subprocess
import sys

import pytest

import qcopt

# run in a fresh interpreter, so that what pytest and the other tests have
# imported does not hide an import; modules loaded before qcopt (site hooks
# and the like) are left out
_PROBE = """
import importlib, json, sys
before = set(sys.modules)
for name in json.loads(sys.argv[1]):
    importlib.import_module(name)
loaded = {m.split(".")[0] for m in set(sys.modules) - before}
print(json.dumps(sorted(loaded - sys.stdlib_module_names - {"qcopt"})))
"""


def test_src_depends_on_numpy_alone():
    modules = [f"qcopt.{m.name}" for m in pkgutil.iter_modules(qcopt.__path__)]
    assert {"qcopt.cli", "qcopt.dvae", "qcopt.harness"} <= set(modules)
    src = os.path.dirname(os.path.dirname(qcopt.__file__))
    out = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(modules)],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True,
    ).stdout
    assert json.loads(out) == ["numpy"]


def unused_imports(source: str) -> list[str]:
    """The names a module imports and never reads, except on a line marked
    ``# noqa: F401``; a dotted ``import a.b`` binds ``a``."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in read)


def test_unused_import_scan_flags_only_unread_unmarked_names():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path\n"
        "import numpy as np\n"
        "from json import (\n    dumps,\n    loads,  # noqa: F401\n)\n"
        "def f(x: np.ndarray):\n    return os\n"
    )
    assert unused_imports(source) == ["dumps (line 5)"]


def test_src_imports_no_unused_name():
    src = os.path.dirname(qcopt.__file__)
    found = {}
    for m in pkgutil.iter_modules(qcopt.__path__):
        with open(os.path.join(src, f"{m.name}.py"), encoding="utf-8") as fh:
            unused = unused_imports(fh.read())
        if unused:
            found[m.name] = unused
    assert found == {}


def test_tier1_workflow_parses_with_a_command_in_every_step():
    # the workflow is checked here, where the tests run, before it first runs
    # on a CI host: it must parse, every step must do something, and each job
    # keeps its time limit and read-only token
    yaml = pytest.importorskip("yaml")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, ".github", "workflows", "tier1.yml"), encoding="utf-8") as fh:
        doc = yaml.safe_load(fh)
    assert doc["jobs"]
    for name, job in doc["jobs"].items():
        assert isinstance(job.get("timeout-minutes"), int) and job["timeout-minutes"] > 0, name
        assert job.get("permissions", doc.get("permissions")) == {"contents": "read"}, name
        assert job["steps"], name
        for step in job["steps"]:
            command = step.get("run") or step.get("uses")
            assert isinstance(command, str) and command.strip(), (name, step)
