"""The package imports without its test-only dependencies, and the commands
that need no quadrature `I`, `G` or Bessel value run without scipy."""

import json
import os
import subprocess
import sys

from parasym import kernels as K

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")
TEST_ONLY = ("sympy", "hypothesis", "pytest", "mpmath")
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


EQDIR = os.path.join(os.path.dirname(SRC), "equations")
# runs each argv list through cli.main in one interpreter, with warnings as
# errors, and prints, as JSON, each exit code with its stdout and stderr,
# then the scipy modules loaded; with "blocked", `import scipy` raises
# ImportError
RUNNER = "\n".join([
    "import contextlib, io, json, sys",
    "if sys.argv[1] == 'blocked':",
    "    sys.modules['scipy'] = None",
    "import parasym.cli",
    "results = []",
    "for argv in json.loads(sys.argv[2]):",
    "    out, err = io.StringIO(), io.StringIO()",
    "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):",
    "        try:",
    "            code = parasym.cli.main(argv)",
    "        except SystemExit as exc:",
    "            code = exc.code",
    "    results.append([code, out.getvalue(), err.getvalue()])",
    "loaded = sorted(m for m, v in sys.modules.items()",
    "                if m.split('.')[0] == 'scipy' and v is not None)",
    "print(json.dumps({'results': results, 'scipy': loaded}))",
])


def _run_cli(mode, argvs):
    res = subprocess.run([sys.executable, "-W", "error", "-c", RUNNER, mode,
                          json.dumps(argvs)],
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=SRC), timeout=300)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout)


def _symbolic(report):
    """Whether the analysis needs no quadrature: a symbolic I and, where
    there is a transform, a symbolic G."""
    transform = report["transform"]
    return (report["invariants"]["I_mode"] == "symbolic"
            and (transform is None or transform["G"] is not None))


def test_symbolic_commands_run_without_scipy():
    corpus = sorted(os.path.join(EQDIR, f) for f in os.listdir(EQDIR)
                    if f.endswith(".eq"))
    analyses = [["--json", "analyze", f] for f in corpus]
    full = _run_cli("normal", analyses)["results"]
    assert all(code == 0 for code, _, _ in full)
    symbolic = [argv for argv, (_, out, _) in zip(analyses, full)
                if _symbolic(json.loads(out))]
    quadrature = {os.path.basename(argv[-1]) for argv in analyses
                  if argv not in symbolic}
    assert quadrature == {"brownian.eq", "cir_reducible.eq",
                          "divergence_brownian.eq"}

    argvs = [["--help"], ["kernels", "list"]] + symbolic
    normal = _run_cli("normal", argvs)
    blocked = _run_cli("blocked", argvs)
    assert normal["scipy"] == blocked["scipy"] == []
    assert all(code == 0 for code, _, _ in blocked["results"])
    assert blocked["results"] == normal["results"]


def test_quadrature_analysis_loads_scipy():
    # the positive control: a quadrature G imports scipy.integrate
    loaded = _run_cli("normal", [["analyze", os.path.join(
        EQDIR, "brownian.eq")]])
    assert loaded["results"][0][0] == 0
    assert "scipy.integrate" in loaded["scipy"]


# the catalog entries whose kernels hold a Bessel function
BESSEL = ("radial", "second_canonical")


def test_kernel_catalog_runs_without_scipy_integrate():
    # the catalog integrates by its own quadrature: the entries without a
    # Bessel value need no scipy, and those with one only scipy.special
    argvs = [["--json", "kernels", "verify", name]
             for name in K.list_kernels() if name not in BESSEL]
    assert len(argvs) == 10
    normal = _run_cli("normal", argvs)
    blocked = _run_cli("blocked", argvs)
    assert normal["scipy"] == blocked["scipy"] == []
    assert all(code == 0 for code, _, _ in blocked["results"])
    assert blocked["results"] == normal["results"]
    bessel = _run_cli("normal", [["kernels", "verify", name]
                                 for name in BESSEL])
    assert [code for code, _, _ in bessel["results"]] == [0, 0]
    assert "scipy.special" in bessel["scipy"]
    assert not any(m.startswith("scipy.integrate") for m in bessel["scipy"])
