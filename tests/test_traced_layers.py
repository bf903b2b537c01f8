"""The benchmark's tracer wraps parasym functions by name; a renamed or
deleted layer would make its per-layer metric read 0 without an error."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


_T = _tracing()


@pytest.mark.parametrize("qual", _T.SPANS + _T.COUNTERS + (_T.ROOT,))
def test_traced_name_is_a_public_function(qual):
    mod_name, fn_name = qual.split(".")
    assert not fn_name.startswith("_")
    fn = getattr(importlib.import_module("parasym." + mod_name), fn_name,
                 None)
    assert callable(fn), qual
