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
from .expr import ParasymError
from .invariants import ParabolicEquation, compute_invariants, probe_window
from .parser import parse_file
from .transform import build_heat_transform, verify_pullback

SCHEMA_VERSION = "1"
DEFAULT_SEED = 20250823


# ---------------------------------------------------------------------------
# helpers

def _expr_dict(e):
    """Serialize an Expr as both pretty text and s-expression form."""
    return {"text": E.to_text(e), "sexpr": E.to_sexpr(e)}


def _round(v):
    """Round to 12 decimals for byte-stable JSON across platforms."""
    if isinstance(v, float):
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        if math.isnan(v):
            return "nan"
        return round(v, 12)
    return v


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
    lo, hi = probe_window(inv.domain)
    samples = []
    for i in range(5):
        x = lo + (hi - lo) * i / 4
        try:
            samples.append({"x": _round(x),
                            "I": _round(inv.I(x)),
                            "K": _round(E.evaluate(inv.K, {"x": x}))})
        except E.DomainError:
            samples.append({"x": _round(x), "I": None, "K": None})
    sec["samples"] = samples
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
    d = ht.describe()
    sec = {"branch": d["branch"], "T": d["T"], "omega": d["omega"],
           "q2": _round(d["q2"]), "q1": _round(d["q1"]),
           "q0": _round(d["q0"]),
           "G": d.get("G"),
           "t_interval": [_round(v) for v in ht.t_interval]}
    return sec


def _generator_section(cls, inv, grid_n):
    if cls.dim not in (4, 6):
        return None, []
    warnings = []
    basis = S.emit_basis(cls, inv)
    gens = []
    for vf, res in zip(basis, S.check_determining(inv, basis, n=grid_n)):
        d = vf.describe()
        d["determining_residual"] = _round(res["max"])
        gens.append(d)
        if res["max"] > S.DETERMINING_TOL:
            warnings.append("determining residual of %s %.3g exceeds %.3g"
                            % (vf.label, res["max"], S.DETERMINING_TOL))
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
    return sec, warnings


def analyze_report(args):
    """The `analyze` report of args.file and the classification it rests
    on.  Raises ParasymError or OSError."""
    prog = parse_file(args.file)
    eq = ParabolicEquation.from_program(prog)
    inv = compute_invariants(eq)
    cls = classify(inv, args.tol_classify)
    ht = build_heat_transform(cls, inv) if cls.dim == 6 else None
    gens, warnings = _generator_section(cls, inv, args.grid)
    verification = None
    if ht is not None:
        pb = verify_pullback(ht)
        worst = max(pb.values())
        verification = {"pullback_residuals": {k: _round(v)
                                               for k, v in sorted(pb.items())}}
        if worst > args.tol_residual:
            warnings.append("pullback residual %.3g exceeds %.3g"
                            % (worst, args.tol_residual))
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
    return report, cls


def _analyze_lines(report, cls):
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
                        max(g["determining_residual"] for g in gens["basis"])))
        if gens["published_table"]["flagged"]:
            lines.append("  flagged %d published commutator line(s)"
                         % len(gens["published_table"]["flagged"]))
    return lines + ["  warning: " + w for w in report["warnings"]]


def cmd_analyze(args):
    if not (args.tol_classify > 0 and args.tol_residual > 0):
        print("error: --tol-classify and --tol-residual must be positive",
              file=sys.stderr)
        return 1
    if args.grid < 2:
        print("error: --grid must be at least 2, got %d" % args.grid,
              file=sys.stderr)
        return 1
    try:
        report, cls = analyze_report(args)
    except (ParasymError, OSError) as exc:
        print("error: %s: %s" % (args.file, exc), file=sys.stderr)
        return 1
    _emit(report, args.json, _analyze_lines(report, cls))
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
    i = 0
    while i < len(extra):
        tok = extra[i]
        if not tok.startswith("--") or i + 1 >= len(extra):
            print("error: expected --NAME VALUE constant pairs, got %r"
                  % " ".join(extra[i:]), file=sys.stderr)
            return 1
        try:
            constants[tok[2:]] = _parse_constant(extra[i + 1])
        except ValueError:
            print("error: constant %s needs a numeric value, got %r"
                  % (tok, extra[i + 1]), file=sys.stderr)
            return 1
        i += 2
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
}


def _corpus_dir():
    here = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    cand = os.path.join(here, "equations")
    if os.path.isdir(cand):
        return cand
    return os.path.join(os.getcwd(), "equations")


def cmd_selftest(args):
    rows = []

    def row(name, ok, detail=""):
        rows.append((name, ok, detail))
        print("%s  %-38s %s" % ("PASS" if ok else "FAIL", name, detail))

    corpus = _corpus_dir()
    for stem, (want_dim, want_consts) in sorted(CORPUS_EXPECT.items()):
        path = os.path.join(corpus, stem + ".eq")
        try:
            # the report `parasym analyze FILE` prints, at its defaults
            report, cls = analyze_report(
                build_parser().parse_args(["analyze", path]))
            ok = cls.dim == want_dim
            detail = "dim %d" % cls.dim
            for k, v in want_consts.items():
                got = cls.constants.get(k)
                if got is None or abs(got - v) > 1e-7 * (1.0 + abs(v)):
                    ok = False
                    detail += " %s=%r (want %g)" % (k, got, v)
            if ok and report["verification"]:
                worst = max(report["verification"]
                            ["pullback_residuals"].values())
                detail += ", pullback %.1e" % worst
                ok = worst <= 1e-6
            if ok and report["generators"]:
                worst = max(g["determining_residual"]
                            for g in report["generators"]["basis"])
                detail += ", deteq %.1e" % worst
                ok = worst <= S.DETERMINING_TOL
            row("analyze " + stem, ok, detail)
        except Exception as exc:  # selftest reports, never crashes
            row("analyze " + stem, False, "%s: %s" % (type(exc).__name__, exc))

    for name in KN.list_kernels():
        try:
            rep = KN.verify_entry(name)
            row("kernel " + name, bool(rep["pass"]),
                "residual %.1e" % rep["residual"])
        except Exception as exc:
            row("kernel " + name, False, "%s: %s" % (type(exc).__name__, exc))

    try:
        spread = KN.mehler_transform_consistency()[0]
        row("kernel mehler-vs-transform", spread <= 1e-7,
            "ratio spread %.1e" % spread)
    except Exception as exc:
        row("kernel mehler-vs-transform", False, str(exc))

    n_fail = sum(1 for _, ok, _ in rows if not ok)
    print("%d/%d checks passed" % (len(rows) - n_fail, len(rows)))
    return 0 if n_fail == 0 else 1


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
                    help="per-axis grid size for determining-equation checks")
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
