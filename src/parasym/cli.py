"""Command-line front end and JSON report emitter.

Subcommands:

    parasym analyze FILE.eq     full pipeline: invariants -> classification
                                -> (transform, generator basis, commutators)
    parasym kernels list        catalog names and descriptions
    parasym kernels verify NAME numeric verification of one catalog entry;
                                constants via flags, e.g. --sigma 0.4 --r 0.06
    parasym selftest            golden corpus + kernel catalog, pass/fail matrix

Exit codes: 0 success, 1 error, 2 classification is the trivial 2-dim
algebra and --require-nontrivial was given.  Reports go to stdout,
diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys

from . import __version__
from . import expr as E
from . import kernels as KN
from . import symmetry as S
from .classify import classify
from .expr import Check, ParasymError
from .invariants import (ParabolicEquation, compute_invariants, probe_window,
                         values_at)
from .parser import parse_file
from .transform import build_heat_transform, verify_pullback

SCHEMA_VERSION = "1"
DEFAULT_SEED = 20250823
# check_determining holds n-by-n arrays of max(1, 4096 // n^2) fields at a
# time, one field's at 1024 (250 MB in all); at 1e5 one would be 75 GB
MAX_GRID = 1024


# ---------------------------------------------------------------------------
# helpers

def _expr_dict(e):
    """Serialize an Expr as both pretty text and s-expression form."""
    return {"text": E.to_text(e), "sexpr": E.to_sexpr(e)}


def _round(v):
    """Round to 12 decimals for byte-stable JSON across platforms."""
    if not isinstance(v, float):
        return v
    return round(v, 12) if math.isfinite(v) else str(v)   # inf, -inf, nan


def _config_hash(cfg):
    blob = json.dumps(cfg, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _emit(report, as_json, human_lines):
    if as_json:
        print(json.dumps(report, indent=2, sort_keys=False))
    else:
        for line in human_lines:
            print(line)


# ---------------------------------------------------------------------------
# analyze

def _invariant_section(inv):
    sec = {
        "sqrt_a": _expr_dict(inv.sqrt_a),
        "J": _expr_dict(inv.J),
        "K": _expr_dict(inv.K),
        "I": _expr_dict(inv.I.expr) if inv.symbolic_I else None,
        "I_mode": "symbolic" if inv.symbolic_I else "quadrature",
        "time_reversed": bool(inv.flipped),
    }
    sec["samples"] = []
    for x in E.grid(*probe_window(inv.domain), 5):
        try:
            i, k = values_at([("I", inv.I), ("K", inv.K)], [x])[0].tolist()
        except E.DomainError:
            i = k = None
        sec["samples"].append({"x": _round(x), "I": _round(i), "K": _round(k)})
    return sec


def _classification_section(cls):
    # every verdict comes from the least-squares fits at the probe points;
    # the key stays because report readers (bench/run.py) index it
    out = {"dim": cls.dim, "fit_mode": "numeric",
           "residual": _round(cls.residual)}
    out["constants"] = {k: _round(float(v))
                        for k, v in sorted(cls.constants.items())}
    out["shift"] = _round(cls.shift) if cls.shift is not None else None
    return out


def _transform_section(ht):
    q2, q1, q0 = ht.q
    return {"branch": ht.mobius.branch, "T": E.to_text(ht.mobius.expr),
            "omega": E.to_text(ht.omega_expr),
            "q2": _round(q2), "q1": _round(q1), "q0": _round(q0),
            "G": E.to_text(ht.G.expr) if ht.G.expr is not None else None,
            "t_interval": [_round(v) for v in ht.t_interval]}


def _exceeded(checks):
    """The warning of each record over its bound."""
    return ["%s %.3g exceeds %.3g" % c for c in checks if not c.ok]


def _generator_section(cls, inv, grid_n):
    """The generators section, its determining records and its warnings."""
    if cls.dim not in (4, 6):
        return None, [], []
    basis = S.emit_basis(cls, inv)
    gens, checks = [], []
    for vf, res in zip(basis, S.check_determining(inv, basis, n=grid_n)):
        d = vf.describe()
        d["determining_residual"] = _round(res["max"])
        gens.append(d)
        checks.append(Check("determining residual of " + vf.label,
                            res["max"], S.DETERMINING_TOL))
    warnings = _exceeded(checks)
    table = S.commutator_table(basis)
    struct = {"%d,%d" % ij: {str(k): _round(v) for k, v in sorted(cs.items())}
              for ij, cs in sorted(table.structure.items())}
    c = cls.constants
    expected = S.published_table(cls.dim, c.get("c2", 0.0),
                                 c.get("c1", 0.0), c.get("c0", 0.0))
    rep = S.verify_table(table, expected)
    flagged = []
    for (i, j, exp, got, diff) in rep.flagged:
        flagged.append({"pair": "%d,%d" % (i, j),
                        "published": {str(k): _round(v)
                                      for k, v in sorted(exp.items())},
                        "computed": {str(k): _round(v)
                                     for k, v in sorted(got.items())},
                        "max_difference": _round(diff)})
        warnings.append("published commutator line [v%d, v%d] differs from "
                        "the symbolic bracket (max difference %.3g)"
                        % (i, j, diff))
    if not math.isfinite(table.residual):
        warnings.append("bracket residual is %s: the bracket triples are "
                        "not finite at the bracket times" % table.residual)
    sec = {
        "basis": gens,
        "commutators": struct,
        "bracket_residual": _round(table.residual),
        "jacobi_residual": _round(S.jacobi_residual(table, len(basis))),
        "published_table": {"matched": len(rep.matched),
                            "flagged": flagged},
    }
    return sec, checks, warnings


def analyze_report(args):
    """The `analyze` report of args.file, the classification it rests on
    and the records of its bounded checks: the determining residual of each
    generator, then the pullback.  Raises ParasymError or OSError."""
    prog = parse_file(args.file)
    eq = ParabolicEquation.from_program(prog)
    inv = compute_invariants(eq)
    cls = classify(inv, args.tol_classify)
    ht = build_heat_transform(cls, inv) if cls.dim == 6 else None
    gens, checks, warnings = _generator_section(cls, inv, args.grid)
    verification = None
    if ht is not None:
        pb = verify_pullback(ht)
        verification = {"pullback_residuals": {k: _round(v)
                                               for k, v in sorted(pb.items())}}
        checks.append(Check("pullback residual", max(pb.values()),
                            args.tol_residual))
        warnings += _exceeded(checks[-1:])
    cfg = {"tol_classify": args.tol_classify,
           "tol_residual": args.tol_residual,
           "grid": args.grid, "seed": args.seed}
    report = {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "parasym", "version": __version__},
        "seed": args.seed,
        "config": dict(cfg, hash=_config_hash(cfg)),
        "input": {
            "path": args.file,
            "a": _expr_dict(eq.a), "b": _expr_dict(eq.b),
            "c": _expr_dict(eq.c),
            "constants": {k: _round(float(v))
                          for k, v in sorted(eq.bindings.items())},
            "domain": [_round(float(v)) for v in eq.domain],
        },
        "invariants": _invariant_section(inv),
        "classification": _classification_section(cls),
        "transform": _transform_section(ht) if ht is not None else None,
        "generators": gens,
        "verification": verification,
        "warnings": warnings,
    }
    return report, cls, checks


def _analyze_lines(report, cls, checks):
    """The text summary of an `analyze` report."""
    lines = ["%s: symmetry algebra dimension %d"
             % (report["input"]["path"], cls.dim)]
    if cls.constants:
        lines.append("  constants: " + ", ".join(
            "%s = %g" % (k, v) for k, v in sorted(cls.constants.items())))
    transform, gens = report["transform"], report["generators"]
    if transform:
        lines.append("  reducible to the heat equation: T = %s (%s branch)"
                     % (transform["T"], transform["branch"]))
    if gens:
        lines.append("  %d generators emitted, worst determining residual %.2e"
                     % (len(gens["basis"]),
                        max(c.value for c in checks[:len(gens["basis"])])))
        if gens["published_table"]["flagged"]:
            lines.append("  flagged %d published commutator line(s)"
                         % len(gens["published_table"]["flagged"]))
    return lines + ["  warning: " + w for w in report["warnings"]]


def cmd_analyze(args):
    if not (0 < args.tol_classify < math.inf
            and 0 < args.tol_residual < math.inf):
        print("error: --tol-classify and --tol-residual must be positive "
              "and finite",
              file=sys.stderr)
        return 1
    if not 2 <= args.grid <= MAX_GRID:
        print("error: --grid must be from 2 to %d, got %d"
              % (MAX_GRID, args.grid), file=sys.stderr)
        return 1
    try:
        report, cls, checks = analyze_report(args)
    except (ParasymError, OSError) as exc:
        print("error: %s: %s" % (args.file, exc), file=sys.stderr)
        return 1
    _emit(report, args.json, _analyze_lines(report, cls, checks))
    if cls.dim == 2 and args.require_nontrivial:
        return 2
    return 0


# ---------------------------------------------------------------------------
# kernels

def _parse_constant(text):
    if "," in text:
        return tuple(float(p) for p in text.split(","))
    return float(text)


def cmd_kernels(args, extra):
    if args.verb == "list":
        rows = []
        for name in KN.list_kernels():
            entry = KN.kernel(name)
            rows.append({"name": name, "description": entry.description,
                         "equation": entry.equation,
                         "constants": {k: (list(v) if isinstance(v, tuple)
                                           else _round(float(v)))
                                       for k, v in sorted(entry.constants.items())}})
        lines = ["%-22s %s" % (r["name"], r["description"]) for r in rows]
        _emit({"schema_version": SCHEMA_VERSION, "kernels": rows},
              args.json, lines)
        return 0

    # verb == verify
    constants = {}
    for i in range(0, len(extra), 2):
        tok = extra[i]
        if not tok.startswith("--") or i + 1 >= len(extra):
            print("error: expected --NAME VALUE constant pairs, got %r"
                  % " ".join(extra[i:]), file=sys.stderr)
            return 1
        if tok[2:] in constants:
            print("error: constant %s is given twice" % tok, file=sys.stderr)
            return 1
        try:
            constants[tok[2:]] = _parse_constant(extra[i + 1])
        except ValueError:
            print("error: constant %s needs a numeric value, got %r"
                  % (tok, extra[i + 1]), file=sys.stderr)
            return 1
    try:
        rep = KN.verify_entry(args.name, constants or None)
    except (ParasymError, OSError) as exc:
        print("error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 1
    report = {
        "schema_version": SCHEMA_VERSION,
        "name": rep["name"],
        "constants": rep["constants"],
        "residual": _round(rep["residual"]),
        "normalization": [_round(v) for v in rep["normalization"]],
        "delta_limit": [_round(v) for v in rep["delta_limit"]],
        "pass": bool(rep["pass"]),
    }
    lines = [
        "%s: %s" % (rep["name"], "pass" if rep["pass"] else "FAIL"),
        "  PDE residual          %.3e" % rep["residual"],
        "  normalization         " + "  ".join("%.3e" % v
                                               for v in rep["normalization"]),
        "  delta-limit sequence  " + "  ".join("%.3e" % v
                                               for v in rep["delta_limit"]),
    ]
    _emit(report, args.json, lines)
    return 0 if rep["pass"] else 1


# ---------------------------------------------------------------------------
# selftest

CORPUS_EXPECT = {
    # file stem of equations/*.eq -> (dim, {constant: value})
    "heat": (6, {"c2": 0.0, "c1": 0.0, "c0": 0.0}),
    "brownian": (6, {"c2": 0.0, "c1": 0.0, "c0": 1.0}),
    "quartic_diffusion": (6, {"c2": 0.0, "c1": 0.0, "c0": 0.0}),
    "squared_diffusion": (6, {"c2": 0.0, "c1": 0.0, "c0": -0.25}),
    "power_gamma3": (4, {"mu": 0.1875}),
    "radial": (4, {"mu": -3.75}),
    "radial_k2": (6, {"c2": 0.0, "c1": 0.0, "c0": 0.0}),
    "tanh_drift": (6, {"c2": 0.0, "c1": 0.0, "c0": -0.25}),
    "linear_drift": (6, {"c2": -0.25, "c1": 0.0, "c0": -0.5}),
    "linear_drift_steep": (6, {"c2": -1.0, "c1": 0.0, "c0": 1.0}),
    "black_scholes": (6, {"c2": 0.0, "c1": 0.0, "c0": -0.06125}),
    "cir_reducible": (6, {"c2": -0.0625, "c1": 0.0, "c0": 0.25}),
    "cir_generic": (4, {"mu": 0.25}),
    "divergence_brownian": (6, {"c2": 0.0, "c1": 0.0, "c0": -1.0}),
    "harmonic_potential": (6, {"c2": -1.0, "c1": 0.0, "c0": 0.0}),
    "harmonic_stiff": (6, {"c2": -1.21, "c1": 1.0, "c0": 0.0}),
    "generic_dim2": (2, {}),
    "inverse_square_translated": (4, {"mu": 2.0}),
    "inverse_square_harmonic": (4, {"mu": 2.0, "c2": 1.0}),
}


def _corpus_dir():
    here = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    cand = os.path.join(here, "equations")
    if os.path.isdir(cand):
        return cand
    return os.path.join(os.getcwd(), "equations")


def _corpus_checks(stem):
    """The records of `parasym analyze` on the corpus file at its defaults,
    and one per expected constant.  Raises on a wrong dim."""
    want_dim, want_consts = CORPUS_EXPECT[stem]
    _, cls, checks = analyze_report(build_parser().parse_args(
        ["analyze", os.path.join(_corpus_dir(), stem + ".eq")]))
    if cls.dim != want_dim:
        raise ParasymError("dim %d, want %d" % (cls.dim, want_dim))
    return checks + [Check("constant " + k, abs(cls.constants[k] - v)
                           / (1.0 + abs(v)), 1e-7)
                     for k, v in want_consts.items()]


def _kernel_checks(name):
    """verify_entry's records; raises on delta limits that do not decrease."""
    rep = KN.verify_entry(name)
    if not rep["pass"] and all(c.ok for c in rep["checks"]):
        raise ParasymError("delta limits %r do not decrease"
                           % rep["delta_limit"])
    return rep["checks"]


def _appell_checks(name):
    return [Check("ratio spread", KN.appell_spread(name), 1e-7)]


def cmd_selftest(args):
    oks = []
    for kind, checks_of, names in (
            ("analyze", _corpus_checks, sorted(CORPUS_EXPECT)),
            ("kernel", _kernel_checks, KN.list_kernels()),
            ("appell", _appell_checks, KN.APPELL_ENTRIES)):
        for name in names:
            try:
                checks = checks_of(name)
                ok = all(c.ok for c in checks)
                # the record nearest its bound, a failing one first
                worst = min(checks, key=lambda c: (c.ok, -c.value / c.bound),
                            default=None)
                detail = ("%s %.2e (bound %.0e)" % worst if worst
                          else "no bounded check")
            except Exception as exc:  # selftest reports, never crashes
                ok, detail = False, "%s: %s" % (type(exc).__name__, exc)
            oks.append(ok)
            print("%s  %-38s %s" % ("PASS" if ok else "FAIL",
                                    kind + " " + name, detail))
    print("%d/%d checks passed" % (sum(oks), len(oks)))
    return 0 if all(oks) else 1


# ---------------------------------------------------------------------------

@functools.cache
def build_parser():
    """The argument parser, built by the first main() call and reused: a
    parser is a web of cyclic references, garbage once dropped."""
    ap = argparse.ArgumentParser(
        prog="parasym",
        description="Lie point-symmetry classification of 1-D linear "
                    "parabolic PDEs, heat-equation reductions, and a "
                    "verified heat-kernel catalog.")
    ap.add_argument("--json", action="store_true",
                    help="emit a JSON report instead of a text summary")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help="seed recorded in the analyze report; no result "
                         "depends on it (default %d)" % DEFAULT_SEED)
    sub = ap.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="classify an equation file")
    pa.add_argument("file")
    pa.add_argument("--tol-classify", type=float, default=1e-7,
                    help="relative residual tolerance for the profile fits")
    pa.add_argument("--tol-residual", type=float, default=1e-6,
                    help="pullback residual threshold that raises a warning")
    pa.add_argument("--grid", type=int, default=16,
                    help="per-axis grid size for determining-equation "
                    "checks, 2 to %d" % MAX_GRID)
    pa.add_argument("--require-nontrivial", action="store_true",
                    help="exit with code 2 when only the trivial 2-dim "
                         "algebra is found")

    pk = sub.add_parser("kernels", help="heat-kernel catalog operations")
    pk.add_argument("verb", choices=["list", "verify"])
    pk.add_argument("name", nargs="?",
                    help="catalog entry (required for verify)")

    sub.add_parser("selftest", help="run the golden corpus and kernel catalog")
    return ap


def main(argv=None):
    args, extra = build_parser().parse_known_args(argv)
    verify = args.command == "kernels" and args.verb == "verify"
    if args.command == "kernels" and args.verb == "list" and args.name:
        extra = [args.name] + extra
    if extra and not verify:      # only `kernels verify` takes --NAME VALUE
        print("error: unrecognized arguments: %s" % " ".join(extra),
              file=sys.stderr)
        return 1
    if verify and not args.name:
        print("error: kernels verify needs a catalog entry name",
              file=sys.stderr)
        return 1
    try:
        if args.command == "analyze":
            code = cmd_analyze(args)
        elif args.command == "kernels":
            code = cmd_kernels(args, extra)
        else:
            code = cmd_selftest(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed early: send what is left to os.devnull, so the
        # interpreter's last flush cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
