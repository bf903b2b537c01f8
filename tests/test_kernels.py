"""Heat-kernel catalog verification, cross-checks between independently
stated kernels, and heat polynomials."""

import contextlib
import io
import json
import math
import re
import warnings
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from parasym import cli
from parasym import expr as E
from parasym import kernels as K
from parasym import special
from parasym.classify import classify
from parasym.invariants import ParabolicEquation, compute_invariants
from parasym.parser import parse_expression as P
from parasym.transform import build_heat_transform, map_solution

ALL_NAMES = K.list_kernels()


class TestCatalogShape:
    def test_twelve_entries(self):
        assert len(ALL_NAMES) == 12

    def test_unknown_kernel(self):
        with pytest.raises(K.UnknownKernel):
            K.kernel("nosuch")

    def test_unknown_constant(self):
        with pytest.raises(K.ConstraintViolation):
            K.kernel("heat_1d", {"zeta": 1.0})

    def test_constraint_enforced(self):
        with pytest.raises(K.ConstraintViolation):
            K.kernel("second_canonical", {"mu": 1.0})  # needs mu <= 1/4

    def test_entry_metadata(self):
        e = K.kernel("black_scholes")
        assert e.equation
        assert e.description
        assert e.domain[0] == 0.0


class TestCatalogVerification:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_entry_passes(self, name):
        rep = K.verify_entry(name)
        assert rep["residual"] <= 1e-9
        assert max(rep["normalization"]) <= 1e-6
        deltas = rep["delta_limit"]
        assert all(a > b for a, b in zip(deltas, deltas[1:]))
        assert deltas[-1] <= 1e-3
        assert rep["pass"]

    def test_black_scholes_other_constants(self):
        rep = K.verify_entry("black_scholes", {"sigma": 0.25, "r": 0.03})
        assert rep["pass"]

    def test_ou_fp_other_constants(self):
        rep = K.verify_entry("ou_fp", {"b": 0.7, "sigma": 1.3})
        assert rep["pass"]

    @pytest.mark.parametrize("name", ["mehler_hyperbolic",
                                      "mehler_trigonometric"])
    def test_source_on_a_second_breakpoint(self, name):
        # the mass window breaks at the source and at 0: one breakpoint
        assert K.verify_entry(name, {"y": 0.0})["pass"]

    def test_pass_is_derived_from_the_records(self, monkeypatch):
        rep = K.verify_entry("heat_1d")
        assert [(c.name, c.bound) for c in rep["checks"]] == [
            ("PDE residual", 1e-9), ("normalization", 1e-6),
            ("delta limit", 1e-3)]
        assert [c.value for c in rep["checks"]] == [
            rep["residual"], max(rep["normalization"]), rep["delta_limit"][-1]]
        # a nan never passes
        monkeypatch.setattr(K, "verify_pde_residual", lambda e: math.nan)
        rep = K.verify_entry("heat_1d")
        assert [c.ok for c in rep["checks"]] == [False, True, True]
        assert not rep["pass"]

    @pytest.mark.parametrize("args, cause", [
        (("radial_gaussian", "--k", "600"), "OverflowError"),
        (("radial", "--n", "600"), "OverflowError"),
        (("mehler_trigonometric", "--y", "600"), "OverflowError"),
        (("black_scholes", "--r", "1e6"), "OverflowError"),
        # these overflow inside a compiled tree
        (("radial", "--n", "1e6"), "OverflowError"),
        (("mehler_trigonometric", "--y", "1e200"), "OverflowError"),
        (("black_scholes", "--sigma", "1e200"), "OverflowError"),
        (("ou_fp", "--b", "1e200"), "OverflowError"),
        (("second_canonical", "--y", "1e-300"), "OverflowError"),
        # special.iv past the float range, inside a compiled tree
        (("second_canonical", "--y", "600"), "OverflowError"),
        (("radial", "--y", "800"), "OverflowError"),
        (("mehler_hyperbolic", "--y", "600"), "ZeroDivisionError"),
        (("linear_potential", "--y", "-1e6"), "ZeroDivisionError"),
    ], ids=lambda a: " ".join(a) if isinstance(a, tuple) else a)
    def test_float_range_is_one_error_line(self, capsys, args, cause):
        # a closed form that leaves the floats is refused, naming the
        # entry and the constant that took it there
        name, flag, value = args
        assert cli.main(["kernels", "verify", *args]) == 1
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        assert err.startswith("error: OutOfFloatRange: %s with " % name)
        assert "%s = %r" % (flag[2:], float(value)) in err and cause in err
        assert "(34, " not in err        # the reason, not the errno tuple

    def test_bessel_calls_are_seen_by_a_later_wrapper(self, monkeypatch):
        # a profiler replaces special.iv by name: a tree compiled before
        # that must call the replacement
        K.verify_entry("second_canonical")
        calls = []
        iv = special.iv
        monkeypatch.setattr(special, "iv",
                            lambda nu, z: calls.append(z) or iv(nu, z))
        K.verify_entry("second_canonical")
        assert calls

    @pytest.mark.parametrize("args", [
        ("heat_1d", "--y", "1e12"), ("ou_fp", "--y", "1e12"),
        ("ou_nonfp", "--x", "1e12"), ("radial", "--x", "600"),
        ("heat2d_timedep", "--x0", "1e10", "--y0", "-1e9"),
        ("heat2d_timedep", "--x0", "1e11"), ("heat2d_timedep", "--x0", "1e12"),
    ], ids=" ".join)
    def test_quadrature_warning_is_one_error_line(self, capsys, args):
        # far from the origin the nodes are rounded by a sizeable share of
        # the kernel's width: the quadrature cannot reach its tolerance, or
        # its nodes collapse, and that is a refusal, not a warning beside a
        # report or a report of a rounded mass
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["kernels", "verify", *args]) == 1
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        assert re.match(r"error: NonconvergentQuadrature: quadrature (error "
                        r"\S+ for value|nodes on \[\S+, \S+\] collapse)", err)

    def test_far_source_within_the_tolerance_passes(self, capsys):
        # at y = 1e9 the rounding of the nodes stays within 1e-7
        assert cli.main(["kernels", "verify", "heat_1d", "--y", "1e9"]) == 0


def _constants(name):
    """Any subset of the entry's constants, each a finite float (1 to 4 of
    them for a tuple constant; linear_potential_nd's n also 1..4)."""
    num = st.floats(allow_nan=False, allow_infinity=False)
    optional = {}
    for key, default in K._CATALOG[name][1].items():
        if isinstance(default, tuple):
            optional[key] = st.lists(num, min_size=1, max_size=4).map(tuple)
        elif (name, key) == ("linear_potential_nd", "n"):
            optional[key] = st.sampled_from([1.0, 2.0, 3.0, 4.0]) | num
        else:
            optional[key] = num
    return st.fixed_dictionaries({}, optional=optional)


class TestAnyConstants:
    @pytest.mark.parametrize("name", ALL_NAMES)
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_report_or_one_error_line(self, name, data):
        # any finite constants give a report (exit 0, or 1 on a failed
        # check) or one error line, never a traceback or a warning
        args = []
        for key, v in data.draw(_constants(name)).items():
            args += ["--" + key, ",".join(map(repr, v))
                     if isinstance(v, tuple) else repr(v)]
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = cli.main(["kernels", "verify", name, *args])
        if err.getvalue():
            assert code == 1 and out.getvalue() == ""
            assert len(err.getvalue().splitlines()) == 1
            assert err.getvalue().startswith("error: ")
        else:
            assert code in (0, 1) and out.getvalue()


class TestGenericVerifier:
    """Check values of the generic verifier against closed forms."""

    def test_heat2d_delta_limit(self):
        entry = K.kernel("heat2d_timedep", {"t0": 0.5})
        bump = K._bump(entry.delta_width)
        want = [1.0 - _heat2d_closed_mass(entry, t, bump)
                for t in entry.delta_t_list]
        got = K.verify_delta_limit(entry)
        assert got == pytest.approx(want, rel=0, abs=1e-13)

    def test_linear_potential_nd_delta_limit(self):
        # per axis, int exp(-A d^2 + B d) dd = sqrt(pi/A) exp(B^2/(4A)) with
        # A = 1/(4t) + 1/(2 w^2), B = b t/2, and the factor
        # exp(b t y + b^2 t^3/12) of the offset-free exponent terms
        b, y, w = (1.0, 0.7), (0.3, -0.2), 0.5
        entry = K.kernel("linear_potential_nd", {"n": 2, "b": b, "y": y})
        want = []
        for t in entry.delta_t_list:
            A = 1 / (4 * t) + 1 / (2 * w * w)
            prod = 1.0
            for bk, yk in zip(b, y):
                B = bk * t / 2
                prod *= (math.sqrt(math.pi / A / (4 * math.pi * t))
                         * math.exp(B * B / (4 * A) + bk * t * yk
                                    + bk * bk * t ** 3 / 12))
            want.append(abs(prod - 1.0))
        got = K.verify_delta_limit(entry)
        assert got == pytest.approx(want, rel=0, abs=1e-13)

    @pytest.mark.parametrize("name", [
        "heat_1d", "linear_potential", "mehler_hyperbolic",
        "mehler_trigonometric", "ou_fp", "radial_gaussian",
        "linear_potential_nd", "heat2d_timedep"])
    def test_gaussian_mass_matches_closed_form(self, name):
        # the Gaussian kernels' masses have closed forms, the normalization
        # targets, at the default and the drawn constants
        for constants in (None, _drawn_constants(name)):
            entry = K.kernel(name, constants)
            assert max(K.verify_normalization(entry)) <= 1e-13, constants

    def test_non_finite_residual_names_the_point(self):
        # at (x, t) = (2, 1): K_t = 1, b K_x = 1e308 * 10 = inf and
        # c K = -1e308 * 21 = -inf, so the residual is 1 - inf + inf = nan
        with pytest.raises(E.DomainError, match="t = 1, x = 2"):
            K._pde_residual(P("10*x + t"), {"x": (E.num(1.0), E.num(1e308))},
                            E.num(-1e308), [{"x": 2.0, "t": 1.0}])

    def test_first_point_fault_wins_over_a_later_tree_fault(self):
        # K_xx = exp(x): at x = 700 the term 1e300 * e^700 overflows though
        # each tree is finite; at x = 800 exp itself overflows.  The points
        # are checked in order, so the first one is named.
        points = [{"x": 700.0, "t": 0.5}, {"x": 800.0, "t": 0.5}]
        with pytest.raises(E.DomainError, match="t = 0.5, x = 700"):
            K._pde_residual(P("exp(x)"), {"x": (E.num(1e300), E.ZERO)},
                            E.ZERO, points)
        with pytest.raises(E.DomainError, match="math range error"):
            K._pde_residual(P("exp(x)"), {"x": (E.num(1e300), E.ZERO)},
                            E.ZERO, points[::-1])

    @pytest.mark.parametrize("name, drawn", [
        ("radial", {"n": 4.5, "y": 1.4, "x": 0.8}),
        ("second_canonical", {"mu": -1.1, "y": 1.6}),
        ("ou_nonfp", {"b": 1.6, "sigma": 0.9, "x": 1.1})],
        ids=["radial", "second_canonical", "ou_nonfp"])
    def test_stable_form_matches_tree(self, name, drawn):
        # the mass and delta checks use the stable form, the residual check
        # differentiates the tree: both must be the same kernel, at the
        # defaults and at constants drawn inside the bench ranges
        for constants in ({}, drawn):
            entry = K.kernel(name, constants)
            assert entry.stable is not None
            for env in entry.residual_points:
                want = E.evaluate(entry.expr, {**entry.bindings, **env})
                got = entry.stable(*(env[s] for s in entry.args))
                assert abs(got - want) <= 1e-12 * abs(want), (constants, env)

    def test_second_canonical_normalization(self):
        # mass = 1 + mu t / y^2 + O((t/y^2)^2) on the half line
        mu, y = -2.0, 1.0
        entry = K.kernel("second_canonical", {"mu": mu, "y": y})
        want = [abs(mu) * t / (y * y) for t in entry.norm_t_list]
        got = K.verify_normalization(entry)
        assert got == pytest.approx(want, rel=0, abs=1e-9)


def _gl_quad(f, lo, hi):
    """One axis of the nested scalar 120-node Gauss-Legendre rule over the
    full node grid, the reference that heat2d's per-axis mass must match."""
    nodes, weights = np.polynomial.legendre.leggauss(120)
    x = (0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)).tolist()
    w = (0.5 * (hi - lo) * weights).tolist()
    return float(sum(wi * f(xi) for xi, wi in zip(x, w)))


def _heat2d_closed_mass(entry, t, phi=None):
    """heat2d's mass in closed form: Gaussians of variance vx = 2s in x and
    vy = 2s/(t0 t) in y, s = t - t0, integrate to 1, and against the product
    of two bumps exp(-d^2/(2 w^2)) to w^2 / sqrt((w^2 + vx) (w^2 + vy))."""
    t0, w2 = entry.constants["t0"], entry.delta_width ** 2
    if phi is None:
        return 1.0
    vx = 2 * (t - t0)
    vy = 2 * (t - t0) / (t0 * t)
    return w2 / math.sqrt((w2 + vx) * (w2 + vy))


def _heat2d_reference_mass(entry, t, phi=None):
    """heat2d's mass by the nested rule over scalar evaluation."""
    c = entry.constants
    t0, x0, y0 = c["t0"], c["x0"], c["y0"]
    wx = 25 * math.sqrt(t - t0)
    wy = 25 * math.sqrt((t - t0) / (t0 * t))

    def fy(yv):
        def fx(xv):
            v = entry.evaluate(xv, yv, t)
            return v * (phi(xv - x0) * phi(yv - y0)) if phi else v
        return _gl_quad(fx, x0 - wx, x0 + wx)
    return _gl_quad(fy, y0 - wy, y0 + wy)


# the default, the known defect t0 = 0.33, a source far from the origin,
# and 5 draws in the benchmark's ranges
_HEAT2D_FAR = {"x0": 1e10, "y0": -1e9}
_HEAT2D_DRAWS = [{}, {"t0": 0.33}, _HEAT2D_FAR] + [
    dict(zip(("t0", "x0", "y0"), v)) for v in np.round(
        np.random.default_rng(14).uniform((0.4, -1.0, -1.0), (2.0, 1.0, 1.0),
                                          (5, 3)), 3).tolist()]


class TestTensorQuadrature:
    @pytest.mark.parametrize("constants", _HEAT2D_DRAWS,
                             ids=lambda c: ",".join("%s=%g" % kv
                                                    for kv in c.items())
                             or "default")
    def test_heat2d_mass_matches_nested_scalar_rule(self, constants):
        entry = K.kernel("heat2d_timedep", constants)
        bump = K._bump(entry.delta_width)
        refused = []
        for t, phi in ([(t, None) for t in entry.norm_t_list]
                       + [(t, bump) for t in entry.delta_t_list]):
            if constants is not _HEAT2D_FAR:
                want = _heat2d_reference_mass(entry, t, phi)
                assert abs(entry.mass(t, phi) - want) <= 1e-13
                continue
            # far from the origin the nodes are rounded by a sizeable share
            # of the kernel's width, and the nested rule is off by up to
            # 3.3e-7: a mass is right within the error it accepts, or refused
            try:
                got = entry.mass(t, phi)
            except E.NonconvergentQuadrature:
                refused.append(t)
                continue
            want = _heat2d_closed_mass(entry, t, phi)
            assert abs(got - want) <= 1e-7 * (1 + abs(want))
        assert refused or constants is not _HEAT2D_FAR


def _drawn_constants(name):
    """The constants of the committed drawn-constants report of an entry."""
    path = (Path(__file__).parent / "data" / "kernels_drawn"
            / ("%s.json" % name))
    return {k: tuple(v) if isinstance(v, list) else v
            for k, v in json.loads(path.read_text())["constants"].items()}


def _per_point_array_function_of(e, name, bindings=None):
    """expr.array_function_of as an evaluate per element."""
    return lambda v: np.array([E.evaluate(e, {**(bindings or {}), name: x})
                               for x in np.asarray(v).tolist()])


def _catalog_trees(entry):
    """The kernel and coefficient trees of an entry, and radial_gaussian's
    mass integrand, the kernel times S_k x^k."""
    if entry.name == "radial_gaussian":
        return _trees(entry) + [K._TREES["radial_gaussian"][2]]
    return _trees(entry)


def _jittered(entry, rng):
    """(environment, symbol, values) at every fifth residual point of the
    entry: values of each argument near its value there, and 0 and its
    negative, some of them outside the domain."""
    for p in entry.residual_points[::5]:
        for s in entry.args:
            c = p[s]
            values = c * rng.uniform(0.8, 1.2, 6) + rng.uniform(-0.05, 0.05, 6)
            yield {**entry.bindings, **p}, s, [*values.tolist(), 0.0, -c]


def _mpmath_reference(F, lo, hi, points):
    """The integral of an array function F by mpmath's tanh-sinh rule on
    each segment between breakpoints, and that rule's error estimate."""
    edges = [lo, *sorted({p for p in points or () if lo < p < hi}), hi]
    with mpmath.workdps(20):
        value, error = mpmath.quad(
            lambda v: float(F(np.array([float(v)]))[0]), edges, error=True,
            maxdegree=10)
    return float(value), float(error)


class TestBoundIntegrands:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_verify_entry_is_bit_identical_to_per_point_evaluate(
            self, name, monkeypatch):
        # the residual, which evaluates no array form, bit for bit; each
        # mass behind the normalization and delta-limit deviations within
        # the array form's 1e-13 relative contract (the largest difference
        # of the deviations seen is 2.4e-16)
        for constants in (None, _drawn_constants(name)):
            got = K.verify_entry(name, constants)
            with monkeypatch.context() as m:
                m.setattr(E, "array_function_of", _per_point_array_function_of)
                want = K.verify_entry(name, constants)
            assert got["residual"] == want["residual"], constants
            target = abs(K.kernel(name, constants).normalization_target(0.0))
            for key, scale in (("normalization", 1.0),
                               ("delta_limit", target)):
                assert (np.abs(np.subtract(got[key], want[key]))
                        <= 1e-13 * scale).all(), (constants, key)

    @pytest.mark.parametrize("constants", [{}, _drawn_constants(
        "heat2d_timedep")], ids=["default", "drawn"])
    def test_batched_gauss_legendre_equals_the_per_point_sum(self,
                                                             constants):
        # heat2d's integrand along each axis, with and without the bump,
        # evaluated in one call of its array form on the nodes of the
        # 120-node rule, sums to the nested reference rule's per-point sum
        entry = K.kernel("heat2d_timedep", constants)
        c, bump = entry.constants, K._bump(entry.delta_width)
        nodes, weights = np.polynomial.legendre.leggauss(120)
        for t in entry.norm_t_list + entry.delta_t_list:
            env = {**entry.bindings, "x": c["x0"], "y": c["y0"], "t": t}
            for s in ("x", "y"):
                src = env[s]
                lo, hi = src - 25 * math.sqrt(t - c["t0"]), src + 0.5
                x = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
                w = (0.5 * (hi - lo) * weights).tolist()
                k = E.array_function_of(entry.expr, s, env)(x)
                for phi in (None, bump):
                    def f(v, s=s, phi=phi, src=src):
                        k = E.evaluate(entry.expr, {**env, s: v})
                        return k * float(phi(v - src)) if phi else k
                    vals = (k * phi(x - src) if phi else k).tolist()
                    got = sum(wi * vi for wi, vi in zip(w, vals))
                    want = _gl_quad(f, lo, hi)
                    assert abs(got - want) <= 1e-13 * abs(want), (t, s, phi)

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_array_form_matches_scalar_evaluate(self, name):
        # every tree of the formula, along each of its arguments: the same
        # values within 1e-13 relative, and DomainError at the same inputs
        rng = np.random.default_rng(34)
        for constants in (None, _drawn_constants(name)):
            entry = K.kernel(name, constants)
            for tree in _catalog_trees(entry):
                for env, s, values in _jittered(entry, rng):
                    f = E.array_function_of(tree, s, env)
                    ok, want = [], []
                    for v in values:
                        try:
                            want.append(E.evaluate(tree, {**env, s: v}))
                            ok.append(v)
                        except E.DomainError:
                            with pytest.raises(E.DomainError):
                                f(np.array([v]))
                    if len(ok) < len(values):
                        with pytest.raises(E.DomainError):
                            f(np.array(values))
                    got = f(np.array(ok))
                    assert got.shape == (len(ok),)
                    assert (np.abs(got - want)
                            <= 1e-13 * np.abs(want)).all(), (tree, env, s)

    @pytest.mark.parametrize("name", sorted(
        set(ALL_NAMES) - {"heat2d_timedep", "linear_potential_nd"}))
    def test_line_mass_matches_mpmath(self, name, monkeypatch):
        # each integral of the normalization and delta-limit checks, at the
        # default and the drawn constants, against mpmath's quadrature of
        # the same integrand over the same window
        calls, quad = [], K._quad

        def recorded(F, lo, hi, points=None):
            calls.append((F, lo, hi, points, quad(F, lo, hi, points)))
            return calls[-1][-1]
        monkeypatch.setattr(K, "_quad", recorded)
        for constants in (None, _drawn_constants(name)):
            entry = K.kernel(name, constants)
            K.verify_normalization(entry)
            K.verify_delta_limit(entry)
        assert len(calls) == 12
        for F, lo, hi, points, got in calls:
            want, error = _mpmath_reference(F, lo, hi, points)
            assert error <= 1e-13 * (1 + abs(want))    # well inside 1e-12
            assert abs(got - want) <= 1e-12 * (1 + abs(want)), (lo, hi)

    def test_formula_is_parsed_once_and_shared_by_every_draw(self):
        # the trees hold the constants as symbols and are built once per
        # process: a draw binds their values and builds no tree
        for name in ALL_NAMES:
            first, other = K.kernel(name), K.kernel(name, _other_draw(name))
            assert all(a is b for a, b in zip(_trees(first), _trees(other)))
            assert other.bindings != first.bindings
        text = ("(b/(pi*sigma^2))^(1/2) * (1 - exp(-2*b*t))^(-1/2) * "
                "exp(-b*(x - y*exp(-b*t))^2 / (sigma^2*(1 - exp(-2*b*t))))")
        assert K.kernel("ou_fp").expr == P(text, declared={
            "x", "t", "y", "b", "sigma"})

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_a_later_draw_derives_and_compiles_nothing(self, name,
                                                       monkeypatch):
        K.verify_entry(name)
        calls = []
        for attr in ("differentiate", "_compile"):
            def counted(*args, _f=getattr(E, attr), _attr=attr, **kw):
                calls.append(_attr)
                return _f(*args, **kw)
            monkeypatch.setattr(E, attr, counted)
        K.verify_entry(name, _other_draw(name))
        assert calls == []

    def test_residual_cache_holds_one_entry_per_formula(self):
        # keyed on the per-process trees; per-draw trees would add an
        # entry, and their derivatives and code, on every draw
        K._residual_function.cache_clear()
        rng = np.random.default_rng(31)
        formulas = set()
        for i in range(50):
            name = ALL_NAMES[i % len(ALL_NAMES)]
            c = {k: tuple(v * rng.uniform(0.9, 1.1) for v in vs)
                 if isinstance(vs, tuple) else vs * rng.uniform(0.9, 1.1)
                 for k, vs in _drawn_constants(name).items()}
            formula = name
            if name == "linear_potential_nd":      # one formula per n
                c["n"] = float(rng.integers(1, 3))
                formula = name, c["n"]
            K.verify_entry(name, c)
            formulas.add(formula)
        assert K._residual_function.cache_info().currsize == len(formulas)
        assert len(formulas) <= 16

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_bound_constants_agree_with_substituted_ones(self, name,
                                                         monkeypatch):
        for constants in (None, _drawn_constants(name)):
            got = K.verify_entry(name, constants)
            want = _substituted_report(name, constants, monkeypatch)
            for key, w in zip(("residual", "normalization", "delta_limit"),
                              want):
                assert np.max(np.abs(np.subtract(got[key], w))) <= 1e-13, (
                    constants, key)


def _other_draw(name):
    """Constants other than the defaults with the same formula."""
    c = _drawn_constants(name)
    return dict(c, n=2.0) if name == "linear_potential_nd" else c


def _trees(entry):
    """The kernel and coefficient trees of an entry."""
    return [entry.expr, entry.potential,
            *(f for ab in entry.diffusion.values() for f in ab)]


def _substituted_report(name, constants, monkeypatch):
    """(residual, normalization, delta limits) of verify_entry with the
    draw's constants substituted into every tree before it is evaluated,
    the reference for binding them at evaluation."""
    entry = K.kernel(name, constants)
    memo = {}

    def sub(e):
        if id(e) not in memo:
            memo[id(e)] = e, E.substitute(e, entry.bindings)
        return memo[id(e)][1]
    residual = K._pde_residual(
        sub(entry.expr), {s: (sub(a), sub(b))
                          for s, (a, b) in entry.diffusion.items()},
        sub(entry.potential), entry.residual_points)
    array_function_of, evaluate, evaluate_many = (
        E.array_function_of, E.evaluate, E.evaluate_many)
    with monkeypatch.context() as m:
        m.setattr(E, "array_function_of",
                  lambda e, v, env=None: array_function_of(sub(e), v, env))
        m.setattr(E, "evaluate", lambda e, env=None: evaluate(sub(e), env))
        m.setattr(E, "evaluate_many", lambda trees, envs: evaluate_many(
            [sub(e) for e in trees], envs))
        return (residual, K.verify_normalization(entry),
                K.verify_delta_limit(entry))


def _log_evaluate(e, env):
    """ln of a product of powers and exponentials, free of underflow."""
    if e.kind == "mul":
        return sum(_log_evaluate(a, env) for a in e.args)
    if e.kind == "pow":
        return E.evaluate(e.args[1], env) * _log_evaluate(e.args[0], env)
    if e.kind == "exp":
        return E.evaluate(e.args[0], env)
    return math.log(E.evaluate(e, env))


# the catalog formulas of the kernels with a movable source y
_MOVABLE_SOURCE = {
    "heat_1d": "(4*pi*t)^(-1/2) * exp(-((x - y)^2 / (4*t)))",
    "ou_fp": "(b/(pi*sigma^2))^(1/2) * (1 - exp(-2*b*t))^(-1/2) * "
             "exp(-b*(x - y*exp(-b*t))^2 / (sigma^2*(1 - exp(-2*b*t))))",
}


class TestCrossChecks:
    def test_mehler_matches_transformed_heat_kernel(self):
        # u_t = u_xx - x^2 u written out by hand, not read from the catalog:
        # the constant heat solution pulled back through its kernel-mode
        # transform seeded at 0.5 is the catalog Mehler kernel up to a
        # constant factor
        y = 0.5
        inv = compute_invariants(ParabolicEquation(
            a=E.ONE, b=E.ZERO, c=E.neg(E.pow_(E.sym("x"), 2)),
            domain=(-math.inf, math.inf)))
        ht = build_heat_transform(classify(inv), inv, mode="kernel",
                                  source_point=y)
        u = map_solution(ht, lambda X, T: 1.0)
        entry = K.kernel("mehler_hyperbolic", {"y": y})
        ratios = np.array([u(x, t) / entry.evaluate(x, t)
                           for t in E.grid(0.15, 0.45, 3)
                           for x in E.grid(-1.5, 1.5, 4)])
        assert np.max(np.abs(ratios / ratios.mean() - 1.0)) <= 1e-7

    @pytest.mark.parametrize("name", K.APPELL_ENTRIES)
    def test_appell_route_matches_catalog_kernel(self, name, monkeypatch):
        # the constant heat solution pulled back through the kernel-mode
        # transform seeded at the source is the catalog kernel up to a
        # constant factor; a source off 0 gives omega(0) != 0
        assert K.appell_spread(name) <= 1e-7
        # against the catalog kernel with its source moved by 0.01, the
        # ratio is not constant (spreads 4.9e-2 to 1.0e-1)
        catalog = K.kernel
        monkeypatch.setattr(K, "kernel", lambda n, c: catalog(
            n, {"y": c["y"] + 0.01}))
        assert K.appell_spread(name) >= 1e-3

    def test_radial_kernels_from_canonical_form(self):
        # radial_n = (x/y)^((1-n)/2) second_canonical, mu = -(n-1)(n-3)/4,
        # at y = 1
        for n in (2, 4, 5):
            rad = K.kernel("radial", {"n": float(n), "y": 1.0})
            can = K.kernel("second_canonical",
                           {"mu": -(n - 1) * (n - 3) / 4.0, "y": 1.0})
            for t in (0.2, 0.6):
                for x in E.grid(0.4, 2.2, 7):
                    a = rad.evaluate(x, t, 1.0)
                    b = x ** ((1 - n) / 2.0) * can.evaluate(x, t)
                    assert abs(a - b) / (abs(a) + 1e-300) <= 1e-9

    @pytest.mark.parametrize("name", ["heat_1d", "ou_fp"])
    def test_semigroup_property(self, name):
        # Chapman-Kolmogorov at 5 seeded draws of (x, t, s, y), moving the
        # catalog formula's source y (at the entry's own y it is the kernel)
        entry = K.kernel(name)
        consts = {c: v for c, v in entry.constants.items() if c != "y"}
        tree = P(_MOVABLE_SOURCE[name], declared={"x", "t", "y"} | set(consts))

        def k(x, t, y):
            return E.evaluate(tree, dict(consts, x=x, t=t, y=y))
        for x, t in ((-1.0, 0.1), (0.2, 0.3), (1.5, 0.6)):
            want = entry.evaluate(x, t)
            assert abs(k(x, t, entry.constants["y"]) / want - 1) <= 1e-14
        rng = np.random.default_rng(K._SEED)
        for _ in range(5):
            t, s = rng.uniform(0.1, 0.6), rng.uniform(0.1, 0.6)
            y, x = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
            kx = E.array_function_of(tree, "y", dict(consts, x=x, t=t))
            ky = E.array_function_of(tree, "x", dict(consts, t=s, y=y))
            lhs = K._quad(lambda z: kx(z) * ky(z), -30.0, 30.0, points=[y, x])
            rhs = k(x, t + s, y)
            assert abs(lhs - rhs) / (1.0 + abs(rhs)) <= 1e-6

    def test_varadhan_small_time_limit(self):
        # -4 t ln K(x,t,0) -> x^2 as t drops; the prefactor's relative error
        # 2t ln(1/(4 pi t)) / x^2 is small at x = 2.5, where K underflows
        x, heat = 2.5, K.kernel("heat_1d", {"y": 0.0})
        errs = [abs(-4 * t * _log_evaluate(heat.expr,
                                           {**heat.bindings, "x": x, "t": t})
                    - x * x) / (x * x) for t in (1e-2, 1e-3)]
        assert errs[0] <= 2e-2
        assert errs[1] <= 2e-3

    def test_invariant_solutions_solve_their_equations(self):
        # u_t = u_xx + c u: the scale-invariant elementary solutions with
        # c = mu/x^2, mu = -2(a+1)(2a+1) = -2 and -3/4 at a = -3/2 and
        # -5/4; the trigonometric ones at mu = -2; and the heat polynomial
        heat = {"x": (E.ONE, E.ZERO)}
        half_line = (E.grid(0.2, 1.0, 5), E.grid(0.4, 2.5, 9))
        trig = (E.grid(0.1, 1.0, 5), E.grid(0.4, 2.8, 9))
        line = (E.grid(0.1, 1.0, 5), E.grid(-2.0, 2.0, 7))
        cases = [
            ("x^2 * t^(-5/2) * exp(-(x^2/(4*t)))", "-2/x^2", half_line),
            ("x^(3/2) * t^(-2) * exp(-(x^2/(4*t)))", "-0.75/x^2", half_line),
            ("exp(-t)*(cos(x) - sin(x)/x)", "-2/x^2", trig),
            ("exp(-t)*(sin(x) + cos(x)/x)", "-2/x^2", trig),
            ("x^3 + 6*x*t", "0", line)]
        for u, c, axes in cases:
            points = K._grid_points(("t", "x"), *axes)
            assert K._pde_residual(P(u), heat, P(c), points) <= 1e-9, u


@dataclass
class HeatPolynomial:
    coefficients: dict             # (i, j) -> Fraction, term x^i t^j

    def __call__(self, x, t):
        return float(sum(c * x ** i * t ** j
                         for (i, j), c in self.coefficients.items()))


def heat_polynomial(n):
    """u_n(x,t) = n! sum_j x^(n-2j)/(n-2j)! t^j/j!, exact coefficients."""
    if not 0 <= n <= 30:
        raise K.ConstraintViolation("heat_polynomial supports 0 <= n <= 30")
    nf = math.factorial(n)
    return HeatPolynomial({
        (n - 2 * j, j): Fraction(nf, math.factorial(n - 2 * j)
                                 * math.factorial(j))
        for j in range(n // 2 + 1)})


def biorthogonality(m, n):
    """Integral u_m(x,-1) v_n(x,1) dx by Gauss-Hermite; the exact value is
    2^n n! when m == n and 0 otherwise."""
    um, un = heat_polynomial(m), heat_polynomial(n)
    return sum(w * um(2.0 * s, -1.0) * un(2.0 * s, -1.0) for s, w in
               zip(*np.polynomial.hermite.hermgauss(40))) * math.pi ** -0.5


class TestHeatPolynomials:
    def test_closed_form_exact(self):
        # u_0..u_4 against hand-expanded forms
        expected = {
            0: {(0, 0): 1},
            1: {(1, 0): 1},
            2: {(2, 0): 1, (0, 1): 2},
            3: {(3, 0): 1, (1, 1): 6},
            4: {(4, 0): 1, (2, 1): 12, (0, 2): 12},
        }
        for n, coeffs in expected.items():
            un = heat_polynomial(n)
            assert un.coefficients == {k: Fraction(v)
                                       for k, v in coeffs.items()}

    @pytest.mark.parametrize("n", range(11))
    def test_solves_heat_equation_exactly(self, n):
        un = heat_polynomial(n)
        # d/dt u_n = d2/dx2 u_n termwise on exact coefficients
        lhs = {}
        for (i, j), c in un.coefficients.items():
            if j >= 1:
                lhs[(i, j - 1)] = lhs.get((i, j - 1), 0) + c * j
        rhs = {}
        for (i, j), c in un.coefficients.items():
            if i >= 2:
                rhs[(i - 2, j)] = rhs.get((i - 2, j), 0) + c * i * (i - 1)
        assert lhs == rhs

    @pytest.mark.parametrize("n", range(11))
    def test_parabolic_homogeneity(self, n):
        # u_n(lam x, lam^2 t) = lam^n u_n(x, t), exact on coefficients
        un = heat_polynomial(n)
        for (i, j) in un.coefficients:
            assert i + 2 * j == n

    def test_degree_cap(self):
        with pytest.raises(K.ConstraintViolation):
            heat_polynomial(31)

    @pytest.mark.parametrize("m", range(6))
    @pytest.mark.parametrize("n", range(6))
    def test_biorthogonality(self, m, n):
        val = biorthogonality(m, n)
        want = 2.0 ** n * math.factorial(n) if m == n else 0.0
        assert abs(val - want) <= 1e-6 * 2.0 ** n * math.factorial(n)

    def test_associated_function_solves_heat_equation(self):
        # v_3(x,t) = K(x,t) u_3(x,-t) t^-3 with K the origin heat kernel
        u3 = heat_polynomial(3)

        def v3(x, t):
            return ((4 * math.pi * t) ** -0.5 * math.exp(-x * x / (4 * t))
                    * u3(x, -t) * t ** -3)
        h = 1e-5
        for x in (0.4, 1.2):
            for t in (0.6, 1.1):
                ut = (v3(x, t + h) - v3(x, t - h)) / (2 * h)
                uxx = (v3(x + h, t) - 2 * v3(x, t) + v3(x - h, t)) / (h * h)
                assert ut == pytest.approx(uxx, rel=1e-4, abs=1e-7)


class TestRuntime:
    def test_catalog_within_budget(self):
        import time
        t0 = time.time()
        for name in ALL_NAMES:
            assert K.verify_entry(name)["pass"]
        assert time.time() - t0 <= 60.0
