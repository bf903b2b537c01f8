"""Symmetry-dimension classification: golden verdicts, gauge robustness,
and the log-diffusion Fokker-Planck family."""

import math

import numpy as np
import pytest

from parasym import classify as C
from parasym import expr as E
from parasym import symmetry as S
from parasym import cli
from parasym.classify import (IllConditionedFit, SymmetryClassification,
                              classify)
from parasym.expr import DomainError, chebyshev_points
from parasym.invariants import (Fn1, ParabolicEquation, compute_invariants,
                                probe_window)
from parasym.parser import parse_expression as P


def eq(a, b="0", c="0", domain=(-math.inf, math.inf)):
    return ParabolicEquation(P(a), P(b), P(c), domain=domain)


class TestDimensionSix:
    def test_heat(self):
        cls = classify(eq("1"))
        assert cls.dim == 6
        assert cls.constants == {"c2": 0.0, "c1": 0.0, "c0": 0.0}

    def test_brownian(self):
        cls = classify(eq("(1 + x^2)^2"))
        assert cls.dim == 6
        assert cls.constants["c0"] == pytest.approx(1.0, abs=1e-9)

    def test_tanh_drift_constants(self):
        cls = classify(eq("1", "tanh(x/2)"))
        assert cls.dim == 6
        assert cls.constants["c2"] == pytest.approx(0.0, abs=1e-8)
        assert cls.constants["c1"] == pytest.approx(0.0, abs=1e-8)
        assert cls.constants["c0"] == pytest.approx(-0.25, abs=1e-8)

    def test_black_scholes_constant(self):
        sigma, r = 0.4, 0.06
        cls = classify(eq("1/2*(2/5)^2*x^2", "3/50*x", "-3/50",
                          domain=(0.0, math.inf)))
        ell = r - sigma ** 2 / 2
        assert cls.dim == 6
        assert cls.constants["c0"] == pytest.approx(
            -ell ** 2 / (2 * sigma ** 2) - r, abs=1e-9)

    def test_drift_constants_are_not_snapped_off_the_fit(self):
        # b = 0.567 x: the nearest fraction to c2 with denominator <= 10^6,
        # -95/1182, lies 4e-10 from -beta^2/4, and generators built from it
        # fail the 1e-8 determining check
        beta = 0.567
        inv = compute_invariants(eq("1", "0.567*x"))
        cls = classify(inv)
        assert cls.dim == 6
        want = {"c2": -beta ** 2 / 4, "c1": 0.0, "c0": -beta / 2}
        for k, v in want.items():
            assert abs(cls.constants[k] - v) <= 1e-13, k
        worst = max(r["max"] for r in
                    S.check_determining(inv, S.emit_basis(cls, inv)))
        assert worst <= 1e-8

    def test_cir_reducible_branch(self):
        # sigma = 2, f = 1 - x: 3 sigma^2 - 8 a0 sigma + 4 a0^2 = 0 at a0 = 1
        cls = classify(eq("2*x", "1 - x", domain=(0.0, math.inf)))
        assert cls.dim == 6


class TestDimensionFour:
    def test_power_gamma3(self):
        cls = classify(eq("x^6", domain=(0.0, math.inf)))
        assert cls.dim == 4
        assert cls.constants["mu"] == pytest.approx(3.0 / 16.0, abs=1e-9)

    def test_radial_drift_k5(self):
        cls = classify(eq("1", "5/x", domain=(0.0, math.inf)))
        assert cls.dim == 4
        assert cls.constants["mu"] == pytest.approx(-15.0 / 4.0, abs=1e-9)

    def test_cir_generic(self):
        cls = classify(eq("x", "1 - x", domain=(0.0, math.inf)))
        assert cls.dim == 4

    def test_mu_floor_keeps_verdicts_disjoint(self):
        # K = 1e-9/I^2 fits the dim-4 form with |mu| under MU_FLOOR, where
        # mu snaps to 0: no dim-4 verdict may carry the dim-6 value mu = 0
        cls = classify(eq("1", "0", "1e-9/x^2", domain=(0.0, 1.0)))
        assert not (cls.dim == 4 and cls.constants["mu"] == 0.0)


class TestDimensionTwo:
    def test_exponential_potential(self):
        inv = compute_invariants(eq("1", "0", "exp(x)"))
        assert classify(inv).dim == 2
        # the linear start lies 0.18 off the best shift (s = -5.96), which
        # the Gauss-Newton steps must reach
        Iv, Kv = C._samples(inv, 0.0)
        s = C._shift(Iv, Kv)

        def cost(t):
            r, _ = C._projection(Iv, Kv, t)
            return r @ r

        for d in (1e-3, 1e-5):
            assert cost(s) < min(cost(s - d), cost(s + d))

    def test_sine_potential(self):
        cls = classify(eq("1", "0", "sin(x)"))
        assert cls.dim == 2

    @pytest.mark.parametrize("c", ["tanh(x/10)", "tanh(x/100)",
                                   "x^2 + 1e-6*x^3", "x^3"])
    def test_close_impostor_is_not_quadratic(self, c):
        # the first three K are within 5e-3 of a quadratic in I = x on the
        # probe points, but outside the fit tolerance.  No dim-4 form fits
        # any of them better: x^3 sends the shift fit off toward |s| = 1e13,
        # where the dim-4 form tends to a quadratic, so the reported
        # residual is the quadratic fit's
        inv = compute_invariants(eq("1", "0", c))
        cls = classify(inv)
        assert cls.dim == 2
        assert cls.residual == C._fit_quadratic(*C._samples(inv, 0.0))[1]


class TestGaugeRobustness:
    # the additive constant of I is free, so no offset size may change a
    # verdict
    @pytest.mark.parametrize("shift", [-1e3, -50.0, -12.0, -2.0, -0.5, 0.0,
                                       1.0, 3.0, 12.0, 50.0, 1e3])
    def test_verdict_invariant_under_i_shift(self, shift):
        for e, want in [(eq("1", "tanh(x/2)"), 6),
                        (eq("1", "5/x", domain=(0.0, math.inf)), 4),
                        (eq("1", "0", "exp(x)"), 2)]:
            cls = classify(compute_invariants(e), i_offset=shift)
            assert cls.dim == want
        # K = -1/4 is constant, so no offset may move its dim-6 constants
        tanh = compute_invariants(eq("1", "tanh(x/2)"))
        assert classify(tanh, i_offset=shift).constants == \
            classify(tanh).constants

    def test_dim4_mu_invariant_under_i_shift(self):
        # (equation, mu, shift at offset 0): a pole of K at I = 0, with K
        # from the drift, from the diffusion, and from a translated potential
        for e, mu, shift in [
                (eq("1", "5/x", domain=(0.0, math.inf)), -3.75, 0.0),
                (eq("x^6", domain=(0.0, math.inf)), 3.0 / 16.0, 0.0),
                (eq("1", "0", "2/(x-50)^2", domain=(50.0, math.inf)), 2.0,
                 -50.0)]:
            inv = compute_invariants(e)
            for s in (-1e3, -30.0, -1.0, 0.0, 2.0, 12.0, 1e3):
                cls = classify(inv, i_offset=s)
                assert cls.dim == 4
                assert cls.constants["mu"] == pytest.approx(mu, abs=1e-8)
                assert cls.shift == pytest.approx(shift - s, abs=1e-8)

    @pytest.mark.filterwarnings("error")
    def test_shift_fit_on_a_probe_point_is_no_dim4_fit(self, monkeypatch):
        # both K start the shift fit at s = 0 exactly, which puts the probe
        # point I = 0 on the pole of mu/(I+s)^2
        Iv = np.linspace(-1.0, 1.0, 65)
        spike = np.where(Iv == 0.0, 1.0, 0.0)
        assert C._shift(Iv, np.zeros_like(Iv)) is None
        assert C._shift(Iv, spike) is None
        monkeypatch.setattr(C, "_samples", lambda inv, i_offset: (Iv, spike))
        cls = classify(compute_invariants(eq("1")))
        assert (cls.dim, cls.shift) == (2, None)


class TestDegenerateInput:
    def test_nearly_constant_I_raises(self):
        inv = compute_invariants(eq("1"))
        flat = Fn1(E.ZERO, sampler=lambda x: 0.0)
        inv2 = type(inv)(I=flat, J=inv.J, K=inv.K, symbolic_I=False,
                         sqrt_a=inv.sqrt_a, a=inv.a, b=inv.b, c=inv.c,
                         domain=inv.domain, flipped=False)
        with pytest.raises(IllConditionedFit):
            classify(inv2)

    def test_undefined_K_names_the_first_probe_point(self):
        x0 = chebyshev_points(*probe_window((-math.inf, math.inf)), 64)[0]
        with pytest.raises(DomainError) as exc:
            classify(eq("1", "0", "log(x)"))
        assert str(exc.value) == ("K undefined at x=%g: log of non-positive"
                                  % x0)


def fokker_planck_equation(p, q, domain=(-math.inf, math.inf)):
    """u_t = (p u_x)_x + (q u)_x: a = p, b = p' + q, c = q'."""
    b = E.simplify(E.add(E.differentiate(p, "x"), q))
    return ParabolicEquation(E.simplify(p), b, E.differentiate(q, "x"),
                             domain)


def check_fp_logdiffusion(A, B):
    """Classify u_t + [(4 x^2 ln x) u_x + (A x + B x ln x) u]_x = 0 on (0, 1):
    K = -(A^2-4)/(16 ln x) - (B-4)^2 ln x / 16 - (A-4)(B-4)/8 (the drift is
    B x ln x, not the B ln x printed elsewhere), so dim 6 iff A = +-2.  The
    source's opposite time orientation negates c0, so (A, B) = (0, 0) gives
    (mu, c2, c0) = (1/4, -1, -2)."""
    q = P("-(%r*x + %r*x*log(x))" % (A, B))
    cls = classify(fokker_planck_equation(P("-4*x^2*log(x)"), q, (0.0, 1.0)))
    if "c0" in cls.constants:
        cls.constants["c0"] = -cls.constants["c0"]
    return cls


class TestLogDiffusionFamily:
    def test_a0_is_dim4_with_pinned_constants(self):
        cls = check_fp_logdiffusion(0.0, 0.0)
        assert cls.dim == 4
        assert cls.constants["c2"] == pytest.approx(-1.0, abs=1e-7)
        assert cls.constants["c0"] == pytest.approx(-2.0, abs=1e-7)

    @pytest.mark.parametrize("A", [2.0, -2.0])
    def test_a_pm2_is_dim6(self, A):
        assert check_fp_logdiffusion(A, 1.0).dim == 6

    def test_generic_a_is_dim4(self):
        assert check_fp_logdiffusion(1.0, 3.0).dim == 4


class TestReportShape:
    def test_as_dict_roundtrip(self):
        # the analyze report's "classification" section
        d = cli._classification_section(classify(eq("(1 + x^2)^2")))
        assert d["dim"] == 6
        assert set(d) >= {"dim", "fit_mode", "residual"}
        assert set(d["constants"]) >= {"c0", "c1", "c2"}
