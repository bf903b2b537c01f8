"""Every function of src/parasym is one the command line reaches.

COMMANDS run through `parasym.cli.main` in a fresh interpreter (so no memo
of an earlier test hides a call) under `sys.setprofile`, which records each
code object entered; class bodies run on import.  A function none of them
enters must be in ALLOWED, as code that only tests call belongs in the
tests.  Dunders other than `__call__` and generated code are skipped.
"""

import json
import os
import subprocess
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
COMMANDS = [["selftest"], ["kernels", "list"],
            ["analyze", str(ROOT / "equations" / "tanh_drift.eq")],
            ["kernels", "verify", "heat_1d", "--y", "0.5"]]
ALLOWED = {}
_TRACE = """
import io, json, sys, contextlib
seen = set()
sys.setprofile(lambda frame, event, arg: event == "call" and seen.add(
    (frame.f_code.co_filename, frame.f_code.co_firstlineno)))
import parasym.cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [parasym.cli.main(argv) for argv in json.loads(sys.argv[1])]
sys.setprofile(None)
print(json.dumps([codes, sorted(seen)]))
"""


def _functions(code, prefix):
    """(first line, name) of each def and class body compiled in `code`."""
    for c in code.co_consts:
        if isinstance(c, types.CodeType) and not c.co_name.startswith("<"):
            name = prefix + c.co_name
            if c.co_name == "__call__" or not (c.co_name.startswith("__")
                                               and c.co_name.endswith("__")):
                yield c.co_firstlineno, name
            yield from _functions(c, name + ".")


def test_every_function_is_reached_by_the_command_line():
    res = subprocess.run([sys.executable, "-c", _TRACE, json.dumps(COMMANDS)],
                         capture_output=True, text=True, timeout=300,
                         env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert res.returncode == 0, res.stderr
    codes, seen = json.loads(res.stdout.splitlines()[-1])
    assert codes == [0] * len(COMMANDS)
    seen = {tuple(key) for key in seen}
    unreached = set()
    for path in (SRC / "parasym").glob("*.py"):
        code = compile(path.read_text(), str(path), "exec")
        unreached |= {name for line, name in _functions(code, path.stem + ".")
                      if (str(path), line) not in seen}
    assert unreached == set(ALLOWED)
