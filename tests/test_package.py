import json
import os
import pkgutil
import subprocess
import sys

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
