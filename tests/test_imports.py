"""The package imports without its test-only dependencies."""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")
TEST_ONLY = ("sympy", "hypothesis", "pytest")
MODULES = {"classify", "cli", "expr", "invariants", "kernels", "parser",
           "special", "symmetry", "transform"}


def test_every_module_imports_without_test_only_packages():
    # a None entry in sys.modules makes `import name` raise ImportError
    code = "\n".join([
        "import importlib, pkgutil, sys",
        "for name in %r:" % (TEST_ONLY,),
        "    sys.modules[name] = None",
        "import parasym",
        "for m in pkgutil.iter_modules(parasym.__path__):",
        "    importlib.import_module('parasym.' + m.name)",
        "    print(m.name)",
    ])
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=SRC),
                         timeout=120)
    assert res.returncode == 0, res.stderr
    assert set(res.stdout.split()) >= MODULES
