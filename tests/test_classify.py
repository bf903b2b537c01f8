"""Symmetry-dimension classification: golden verdicts, gauge robustness,
and the log-diffusion Fokker-Planck family."""

import math

import numpy as np
import pytest

from parasym import classify as C
from parasym import symmetry as S
from parasym import cli
from parasym.classify import (IllConditionedFit, SymmetryClassification,
                              check_fp_logdiffusion, classify)
from parasym.expr import DomainError, chebyshev_points
from parasym.invariants import (ParabolicEquation, compute_invariants,
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
        cls = classify(eq("1", "0", "exp(x)"))
        assert cls.dim == 2

    def test_sine_potential(self):
        cls = classify(eq("1", "0", "sin(x)"))
        assert cls.dim == 2

    @pytest.mark.parametrize("c", ["tanh(x/10)", "tanh(x/100)",
                                   "x^2 + 1e-6*x^3"])
    def test_close_impostor_is_not_quadratic(self, c):
        # each K is within 5e-3 of a quadratic in I = x on the probe
        # points, but outside the fit tolerance
        assert classify(eq("1", "0", c)).dim == 2


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

    def test_dim4_mu_invariant_under_i_shift(self):
        inv = compute_invariants(eq("1", "5/x", domain=(0.0, math.inf)))
        for s in (-1e3, -30.0, -1.0, 0.0, 2.0, 12.0, 1e3):
            cls = classify(inv, i_offset=s)
            assert cls.constants["mu"] == pytest.approx(-3.75, abs=1e-8)
            assert cls.shift == pytest.approx(-s, abs=1e-8)

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

        class Flat:
            def __call__(self, x):
                return 0.0

        inv2 = type(inv)(I=Flat(), J=inv.J, K=inv.K, symbolic_I=False,
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
