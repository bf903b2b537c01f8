"""Heat-equation reductions: Schwarzian time maps, multiplier assembly,
and pullback of reference heat solutions."""

import dataclasses
import gc
import math
import os
import weakref

import pytest

from parasym import expr as E
from parasym import transform
from parasym.classify import classify
from parasym.cli import CORPUS_EXPECT
from parasym.invariants import (DegenerateTransform, ParabolicEquation,
                                compute_invariants, normalize, probe_window)
from parasym.parser import parse_expression as P, parse_file
from parasym.transform import (HEAT_SOLUTIONS, HeatTransform, MobiusMap,
                               NotReducible, SingularOnInterval,
                               build_heat_transform, map_solution,
                               pde_residual, solve_schwarzian,
                               verify_pullback)

EQDIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "equations")


def eq(a, b="0", c="0", domain=(-math.inf, math.inf)):
    return ParabolicEquation(P(a), P(b), P(c), domain=domain)


def corpus_eq(stem):
    return ParabolicEquation.from_program(
        parse_file(os.path.join(EQDIR, stem + ".eq")))


DIM6_CORPUS = sorted(s for s, (dim, _) in CORPUS_EXPECT.items() if dim == 6)


def difference_jet(ufun, hx, ht):
    """(x, t) -> (u, u_x, u_xx, u_t) of a plain callable by 4th-order central
    differences with steps hx and ht: the reference for the exact jets."""
    def d1(f, x, h):
        return (-f(x + 2 * h) + 8 * f(x + h) - 8 * f(x - h)
                + f(x - 2 * h)) / (12 * h)

    def d2(f, x, h):
        return (-f(x + 2 * h) + 16 * f(x + h) - 30 * f(x)
                + 16 * f(x - h) - f(x - 2 * h)) / (12 * h * h)

    def jet(x, t):
        return (ufun(x, t),
                d1(lambda s: ufun(s, t), x, hx),
                d2(lambda s: ufun(s, t), x, hx),
                d1(lambda s: ufun(x, s), t, ht))
    return jet


def transform_for(e, mode="default", **kw):
    inv = compute_invariants(e)
    cls = classify(inv)
    return build_heat_transform(cls, inv, mode=mode, **kw), inv, cls


class TestSchwarzian:
    @pytest.mark.parametrize("q2", [0.0, 0.3, 1.0, -0.5, -2.0])
    def test_schwarzian_value_and_orientation(self, q2):
        mob = solve_schwarzian(q2)
        worst, tp_min = mob.check()
        assert worst <= 1e-9
        assert tp_min > 0.0

    @pytest.mark.parametrize("q2", [0.0, 1.0, -1.0])
    def test_default_map_is_regular_at_zero(self, q2):
        # the 16 check nodes skip t = 0, so a pole there would pass check()
        mob = solve_schwarzian(q2)
        assert math.isfinite(mob(0.0))
        assert mob.d(0.0) > 0.0

    def test_rational_branch_is_identity_like(self):
        mob = solve_schwarzian(0.0)
        assert mob.branch == "rational"
        assert mob(0.3) == pytest.approx(0.3)

    def test_kernel_mode_q2_zero_is_appell_inversion(self):
        mob = solve_schwarzian(0.0, mode="kernel")
        assert mob(0.5) == pytest.approx(-2.0)

    def test_kernel_mode_positive_q2_is_coth(self):
        q2 = 1.0
        mob = solve_schwarzian(q2, mode="kernel")
        k = math.sqrt(q2)
        for t in (0.2, 0.7):
            want = -1.0 / (math.tanh(2 * k * t) * 2 * k)
            assert mob(t) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("q2", [-0.25, -1.0, -4.0, -25.0])
    def test_kernel_mode_negative_q2_is_cot(self, q2):
        mob = solve_schwarzian(q2, mode="kernel")
        k = math.sqrt(-q2)
        lo, hi = mob.t_interval
        assert lo == 0.05
        assert hi == pytest.approx(min(1.0, 0.9 * math.pi / (2 * k)))
        for t in (lo, 0.5 * (lo + hi), hi):
            want = -1.0 / (math.tan(2 * k * t) * 2 * k)
            assert mob(t) == pytest.approx(want, rel=1e-12)
        assert mob.check()[0] <= 1e-8 * (1 + 8 * abs(q2))

    def test_kernel_mode_empty_window_is_refused(self):
        # 0.9 pi/(2 kappa) <= 0.05 from kappa = 9 pi on
        with pytest.raises(SingularOnInterval, match="empty"):
            solve_schwarzian(-(9.5 * math.pi) ** 2, mode="kernel")

    def test_trigonometric_branch_for_negative_q2(self):
        mob = solve_schwarzian(-1.0)
        assert mob.branch == "trigonometric"


class TestPullback:
    @pytest.mark.parametrize("coeffs", [
        ("1", "0", "0"),
        ("(1 + x^2)^2", "0", "0"),
        ("1", "tanh(x/2)", "0"),
        ("1", "x", "0"),
        ("1", "0", "-(x^2)"),
    ])
    def test_residual_small(self, coeffs):
        a, b, c = coeffs
        res = verify_pullback(transform_for(eq(a, b, c))[0])
        assert max(res.values()) <= 1e-6

    def test_half_line_example(self):
        ht, _, _ = transform_for(eq("x^4", domain=(0.0, math.inf)))
        res = verify_pullback(ht)
        assert max(res.values()) <= 1e-6

    def test_nonsolution_rejected(self):
        # x^2 (without the +2t partner) is not a heat solution
        inv = compute_invariants(eq("1"))
        bad = pde_residual(inv, lambda x, t: (x * x, 2.0 * x, 2.0, 0.0))
        assert bad >= 1e-3


class TestExactDerivatives:
    """The chain-rule jet of a pulled-back heat solution against finite
    differences of the same pulled-back function, and against transforms
    built from wrong constants."""

    @pytest.mark.parametrize("stem", DIM6_CORPUS)
    def test_jet_agrees_with_small_step_differences(self, stem):
        e = corpus_eq(stem)
        ht, _, _ = transform_for(e)
        a, b, c, _ = normalize(e)
        lo, hi = ht.t_interval
        t0, t1 = lo + 0.25 * (hi - lo), hi - 0.25 * (hi - lo)
        x0, x1 = probe_window(e.domain)
        n = 11
        grid = [(x0 + (x1 - x0) * i / (n - 1), t0 + (t1 - t0) * j / (n - 1))
                for i in range(n) for j in range(n)]
        # each derivative's difference as it enters the residual, and the
        # difference of the two residuals, over the residual's scale
        worst_term = worst_sum = 0.0
        for _, v_jet in HEAT_SOLUTIONS:
            exact = ht.pullback_jet(v_jet)
            u = map_solution(ht, lambda X, T: v_jet(X, T)[0])
            fd = difference_jet(u, 0.002, 0.001 * (t1 - t0))
            for x, t in grid:
                av, bv, cv = (E.evaluate(f, {"x": x}) for f in (a, b, c))
                uv, ux, uxx, ut = exact(x, t)
                _, dx, dxx, dt = fd(x, t)
                scale = abs(ut) + abs(av * uxx) + abs(bv * ux) \
                    + abs(cv * uv) + abs(uv) + 1.0
                terms = (ut - dt, av * (uxx - dxx), bv * (ux - dx))
                worst_term = max(worst_term, max(map(abs, terms)) / scale)
                worst_sum = max(worst_sum,
                                abs(terms[0] - terms[1] - terms[2]) / scale)
        # differences are truncation error of the stencils: largest (1.0e-6
        # per term, 3.9e-7 summed) on divergence_brownian next to x = 1
        assert worst_sum <= 1e-6
        assert worst_term <= 1e-5

    @pytest.mark.parametrize("stem", DIM6_CORPUS)
    def test_corpus_residual_is_rounding_level(self, stem):
        ht, _, _ = transform_for(corpus_eq(stem))
        assert max(verify_pullback(ht).values()) <= 1e-12

    @pytest.mark.parametrize("key", ["c0", "c1", "c2"])
    @pytest.mark.parametrize("stem", ["linear_drift", "harmonic_potential",
                                      "brownian"])
    def test_wrong_constants_are_caught(self, stem, key):
        e = corpus_eq(stem)
        inv = compute_invariants(e)
        cls = classify(inv)
        consts = dict(cls.constants)
        consts[key] += 1e-3
        ht = build_heat_transform(dataclasses.replace(cls, constants=consts),
                                  inv)
        assert max(verify_pullback(ht).values()) >= 1e-5


class TestKnownClosedForms:
    def test_tanh_drift_multiplier(self):
        # mapping the constant heat solution yields a multiple of
        # e^{-t/4} sech(x/2)
        ht, inv, _ = transform_for(eq("1", "tanh(x/2)"))
        u = map_solution(ht, lambda x, t: 1.0)
        vals = []
        for x in (-1.0, 0.0, 0.8, 2.0):
            for t in (-0.2, 0.0, 0.3):
                ref = math.exp(-t / 4) / math.cosh(x / 2)
                vals.append(u(x, t) / ref)
        spread = max(vals) - min(vals)
        assert spread <= 1e-9 * max(abs(v) for v in vals)

    def test_brownian_x_map_is_arctan(self):
        ht, _, _ = transform_for(eq("(1 + x^2)^2"))
        offset = ht.x_tilde(0.0, 0.0)
        for x in (-1.5, 0.4, 2.0):
            assert ht.x_tilde(x, 0.0) - offset == pytest.approx(
                math.atan(x), rel=1e-9)

    def test_heat_is_identity_transform(self):
        ht, _, _ = transform_for(eq("1"))
        for x, t in [(0.3, 0.1), (-1.0, 0.4)]:
            assert ht.t_tilde(t) == pytest.approx(t)
            assert ht.x_tilde(x, t) == pytest.approx(x)
            assert ht.theta(x, t) == pytest.approx(ht.theta(0.0, 0.0))

    def test_black_scholes_x_map_is_log(self):
        sigma = 0.4
        ht, _, _ = transform_for(
            eq("1/2*(2/5)^2*x^2", "3/50*x", "-3/50", domain=(0.0, math.inf)))
        base = ht.x_tilde(1.0, 0.0)
        for x in (0.5, 2.0, 4.0):
            assert ht.x_tilde(x, 0.0) - base == pytest.approx(
                math.sqrt(2.0) / sigma * math.log(x), rel=1e-9)


class TestKernelMode:
    def test_source_seeded_transform_still_maps_solutions(self):
        e = eq("1", "0", "-(x^2)")
        inv = compute_invariants(e)
        cls = classify(inv)
        ht = build_heat_transform(cls, inv, mode="kernel", source_point=0.5)
        lo, hi = ht.t_interval
        t_int = (lo + 0.3 * (hi - lo), hi - 0.3 * (hi - lo))
        jet = ht.pullback_jet(lambda x, t: (x, 1.0, 0.0, 0.0))
        assert pde_residual(inv, jet, t_interval=t_int) <= 1e-6


class TestErrors:
    def test_dim4_not_reducible(self):
        inv = compute_invariants(eq("1", "5/x", domain=(0.0, math.inf)))
        cls = classify(inv)
        with pytest.raises(NotReducible):
            build_heat_transform(cls, inv)

    def test_describe_fields(self):
        ht, _, _ = transform_for(eq("(1 + x^2)^2"))
        d = ht.describe()
        assert {"T", "omega", "branch", "q2", "q1", "q0"} <= set(d)
        assert d["q0"] == pytest.approx(-1.0)


class TestFactorRecords:
    """theta, x~ and t~ read per-t and per-x records; the records hold the
    same floats as the formula in the module docstring."""

    # name -> (equation, build options, Moebius branch, symbolic I)
    CASES = {
        "exponential": (lambda: ParabolicEquation.from_program(
            parse_file(os.path.join(EQDIR, "linear_drift.eq"))), {},
            "exponential", True),
        "trigonometric": (lambda: eq("1", "0", "x^2"), {},
                          "trigonometric", True),
        "quadrature_I": (lambda: eq("1 + x^2", "0", "-3/(4*(1 + x^2))"), {},
                         "rational", False),
        # omega' != 0 and the nu integral by quadrature
        "source_seeded": (lambda: eq("1", "0", "-(x^2)"),
                          {"mode": "kernel", "source_point": 0.5},
                          "exponential", True),
    }

    @staticmethod
    def points(ht):
        lo, hi = ht.t_interval
        ts = [lo + (hi - lo) * f for f in (0.2, 1 / 3, 0.5, 0.77)]
        xs = (-math.sqrt(2.0), -1 / 7, 0.0, math.e / 4, math.pi / 1.5)
        return [(x, t) for x in xs for t in ts]

    @staticmethod
    def values(ht, points):
        return [(ht.theta(x, t), ht.x_tilde(x, t), ht.t_tilde(t))
                for x, t in points]

    @staticmethod
    def docstring_values(ht, points):
        out = []
        for x, t in points:
            dT = ht.mobius.d(t, 1)
            A = ht.mobius.d(t, 2) / (8.0 * dT)
            w = E.evaluate(ht.omega_expr, {"t": t})
            dw = E.evaluate(ht.domega_expr, {"t": t})
            nu = dT ** -0.25 * math.exp(-A * w * w - 0.25 * ht._Q(t))
            Iv = ht.inv.I(x)
            expo = -0.5 * ht.G(x) - A * Iv * Iv - 0.5 * (dw + 4.0 * A * w) * Iv
            out.append((nu * math.exp(expo), math.sqrt(dT) * (Iv + w),
                        ht.mobius(t)))
        return out

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_records_hold_exact_values(self, name):
        make, opts, branch, symbolic_I = self.CASES[name]
        fresh, inv, _ = transform_for(make(), **opts)
        assert (fresh.mobius.branch, inv.symbolic_I) == (branch, symbolic_I)
        pts = self.points(fresh)
        got = self.values(fresh, pts)
        warmed, _, _ = transform_for(make(), **opts)
        self.values(warmed, pts[::-1])
        assert self.values(warmed, pts) == got
        assert self.docstring_values(fresh, pts) == got

    def test_degenerate_time_raises_and_is_not_recorded(self, monkeypatch):
        _, inv, cls = transform_for(eq("1"))
        reversed_time = MobiusMap((-1.0, 0.0, 0.0, 1.0), "rational", 0.0,
                                  (-0.5, 0.5))          # T = -t, T' = -1
        monkeypatch.setattr(transform, "solve_schwarzian",
                            lambda q2, mode: reversed_time)
        bad = HeatTransform(cls, inv)
        for _ in range(2):
            with pytest.raises(DegenerateTransform):
                bad.x_tilde(0.3, 0.1)
        assert not bad._t_records

    def test_transform_is_freed_after_verification(self):
        e = eq("1", "x")
        ht, _, _ = transform_for(e)
        verify_pullback(ht, n=5)
        ref = weakref.ref(ht)
        del ht
        gc.collect()
        assert ref() is None
