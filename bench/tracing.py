"""Layer tracing for the benchmark, applied from outside the program.

`Tracer.install` replaces public functions of the parasym modules with
timing wrappers, both in the defining module and wherever another module
imported them by name (`cli.classify`, `transform.pde_residual`, ...);
`uninstall` puts the originals back.  Layer calls become spans (name, start,
end, parent, operation id) kept in memory.  The hottest functions
(`expr.evaluate`, ~3e5 calls per dim-6 analysis) are counters with
accumulated time instead: one span each would cost more than the call.
"""

from __future__ import annotations

import importlib
import sys
from contextlib import contextmanager
from time import perf_counter

SPANS = (
    "parser.parse_file",
    "invariants.compute_invariants",
    "classify.classify",
    "transform.build_heat_transform",
    "transform.verify_pullback",
    "transform.pde_residual",
    "symmetry.emit_basis",
    "symmetry.check_determining",
    "symmetry.commutator_table",
    "symmetry.verify_table",
    "kernels.kernel",
    "kernels.verify_pde_residual",
    "kernels.verify_normalization",
    "kernels.verify_delta_limit",
)
COUNTERS = (
    "expr.evaluate",
    "expr.simplify",
    "expr.differentiate",
    "special.iv",
)
ROOT = "cli.main"


class Tracer:
    def __init__(self):
        self.spans = []           # (id, op, name, start, end, parent)
        self.counters = {name: [0, 0.0] for name in COUNTERS}
        self._stack = []
        self._patched = []        # (module, attribute, original)
        self._op = None

    # -- installing ----------------------------------------------------------

    def install(self):
        originals = {}
        for qual in SPANS + COUNTERS:
            mod_name, fn_name = qual.split(".")
            originals[qual] = getattr(
                importlib.import_module("parasym." + mod_name), fn_name)
        mods = [m for n, m in sorted(sys.modules.items())
                if n == "parasym" or n.startswith("parasym.")]
        for qual, orig in originals.items():
            wrap = (self._counter(qual, orig) if qual in COUNTERS
                    else self._span(qual, orig))
            for m in mods:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        self._patched.append((m, attr, orig))
                        setattr(m, attr, wrap)

    def uninstall(self):
        for m, attr, orig in reversed(self._patched):
            setattr(m, attr, orig)
        self._patched = []

    def _span(self, name, fn):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = (sid, self._op, name, start, end, parent)
        return wrapper

    def _counter(self, name, fn):
        stat = self.counters[name]
        active = [False]

        def wrapper(*args, **kwargs):
            if active[0]:                 # recursion: count the outer call
                return fn(*args, **kwargs)
            active[0] = True
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                stat[1] += perf_counter() - start
                stat[0] += 1
                active[0] = False
        return wrapper

    @contextmanager
    def operation(self, op_id):
        """Root span of one operation; layer spans inside it are children."""
        self._op = op_id
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, op_id, ROOT, start, end, None)
            self._op = None

    # -- summaries -----------------------------------------------------------

    def summary(self):
        """{span name: {"calls", "s", "self_s"}} and the counters."""
        child = [0.0] * len(self.spans)
        for sid, _op, _name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = {}
        for sid, _op, name, start, end, _parent in self.spans:
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - child[sid]
        for name, (calls, secs) in self.counters.items():
            out[name] = {"calls": calls, "s": secs}
        return out
