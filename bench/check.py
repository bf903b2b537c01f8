"""Check one parasym answer against the benchmark's closed-form reference.

`check` returns (reason, wrong).  `reason` is None when the operation
succeeded, and otherwise a one-line description of why it failed.  `wrong`
is True when the answer contradicts the reference (a wrong dimension,
constant, exit code or check value); it is False when the program refused
(an error exit or an exception) or when its own verification did not pass
(a pullback or determining residual over its threshold, a kernel check that
fails for a correct kernel).  Both kinds count as failed operations.
"""

from __future__ import annotations

import json

CONST_TOL = 1e-7          # |got - want| <= CONST_TOL * (1 + |want|)
PULLBACK_MAX = 1e-6
DETERMINING_MAX = 1e-8
KERNEL_RESIDUAL_MAX = 1e-9
KERNEL_NORM_MAX = 1e-6
DELTA_LAST_MAX = 1e-3
# the program's quadrature against the closed-form check values
CLOSED_FORM_TOL = {"delta_limit": 1e-7, "normalization": 1e-9}


def check(draw, code, stdout):
    """Compare exit code and JSON report with `draw.expect`."""
    if code == 1 and not stdout:
        return "refused: exit code 1", False
    try:
        rep = json.loads(stdout)
    except ValueError:
        return "exit code %r without one JSON report" % code, True
    if draw.workload == "catalog":
        return _check_kernel(draw, code, rep)
    return _check_analysis(draw.expect, code, rep)


def _check_analysis(exp, code, rep):
    cls = rep["classification"]
    if cls["dim"] != exp["dim"]:
        return "dim %d, expected %d" % (cls["dim"], exp["dim"]), True
    for k, want in exp["constants"].items():
        got = cls["constants"].get(k)
        if got is None or abs(got - want) > CONST_TOL * (1 + abs(want)):
            return "%s = %r, expected %.12g" % (k, got, want), True
    if code != exp["exit"]:
        return "exit code %r, expected %d" % (code, exp["exit"]), True
    if exp["dim"] == 6:
        worst = max(rep["verification"]["pullback_residuals"].values())
        if worst > PULLBACK_MAX:
            return "pullback residual %.3g > %g" % (worst, PULLBACK_MAX), False
    if exp["dim"] in (4, 6):
        worst = max(g["determining_residual"]
                    for g in rep["generators"]["basis"])
        if worst > DETERMINING_MAX:
            return ("determining residual %.3g > %g"
                    % (worst, DETERMINING_MAX), False)
    if rep["warnings"]:
        return "warning: %s" % rep["warnings"][0], False
    return None, False


def _criteria(rep):
    """The documented pass criteria of `kernels verify`, one per check."""
    delta = rep["delta_limit"]
    return {
        "residual": rep["residual"] <= KERNEL_RESIDUAL_MAX,
        "normalization": max(rep["normalization"]) <= KERNEL_NORM_MAX,
        "delta_limit": (all(a > b for a, b in zip(delta, delta[1:]))
                        and delta[-1] <= DELTA_LAST_MAX),
    }


def _check_kernel(draw, code, rep):
    if rep["name"] != draw.family:
        return "report for %r" % rep["name"], True
    for flag, text in zip(draw.argv[3::2], draw.argv[4::2]):
        got = rep["constants"].get(flag[2:])
        got = got if isinstance(got, list) else [got]
        if got != [float(v) for v in text.split(",")]:
            return "constant %s = %r, sent %s" % (flag[2:], got, text), True
    closed = draw.expect.get("closed_form", {})
    for name, want in closed.items():
        for got, ref in zip(rep[name], want):
            if abs(got - ref) > CLOSED_FORM_TOL[name]:
                return "%s %.6g, closed form %.6g" % (name, got, ref), True
    criteria = _criteria(rep)
    if rep["pass"] != all(criteria.values()) or code != (0 if rep["pass"]
                                                         else 1):
        return ("pass = %s with exit code %r disagrees with the checks"
                % (rep["pass"], code), True)
    failing = [k for k, ok in criteria.items() if not ok]
    if not failing:
        return None, False
    if set(failing) <= set(closed):
        return ("%s fails for a correct kernel, as the closed form %s "
                "predicts: the checked times do not scale with the constants"
                % ("/".join(failing), "; ".join(
                    "%s %s" % (k, ", ".join("%.4g" % v for v in closed[k]))
                    for k in failing)), False)
    return "%s fails: %s" % ("/".join(failing),
                             "; ".join(str(rep[k]) for k in failing)), False
