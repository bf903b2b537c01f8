"""CLI subcommands, JSON report schema, determinism, and exit codes."""

import gc
import json
import os
import re
import subprocess
import sys
import warnings

import pytest
from scipy.integrate import IntegrationWarning

from parasym import cli
from parasym import kernels as KN
from parasym import symmetry as S
from parasym.classify import classify
from parasym.invariants import ParabolicEquation, compute_invariants
from parasym.parser import parse_file

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EQDIR = os.path.join(ROOT, "equations")


def eqpath(stem):
    return os.path.join(EQDIR, stem + ".eq")


def run(capsys, *argv):
    rc = cli.main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


class TestAnalyze:
    def test_brownian_report(self, capsys):
        rc, out, _ = run(capsys, "--json", "analyze", eqpath("brownian"))
        assert rc == 0
        rep = json.loads(out)
        assert rep["schema_version"] == "1"
        assert rep["classification"]["dim"] == 6
        assert rep["classification"]["constants"]["c0"] == pytest.approx(1.0)
        assert rep["transform"]["branch"] == "rational"
        assert len(rep["generators"]["basis"]) == 6
        # x~ = arctan x up to gauge: the invariant I is printed symbolically
        assert "arctan" in rep["invariants"]["I"]["text"]

    def test_heat_identity_transform(self, capsys):
        rc, out, _ = run(capsys, "--json", "analyze", eqpath("heat"))
        rep = json.loads(out)
        assert rc == 0
        assert rep["transform"]["T"] == "t"
        assert rep["generators"]["published_table"]["flagged"] == []

    def test_radial_dim4(self, capsys):
        rc, out, _ = run(capsys, "--json", "analyze", eqpath("radial"))
        rep = json.loads(out)
        assert rc == 0
        assert rep["classification"]["dim"] == 4
        assert rep["classification"]["constants"]["mu"] == pytest.approx(-3.75)
        assert rep["transform"] is None

    def test_deterministic_output(self, capsys):
        _, out1, _ = run(capsys, "--json", "analyze", eqpath("tanh_drift"))
        _, out2, _ = run(capsys, "--json", "analyze", eqpath("tanh_drift"))
        assert out1 == out2

    def test_seed_recorded(self, capsys):
        _, out, _ = run(capsys, "--json", "--seed", "7", "analyze",
                        eqpath("heat"))
        rep = json.loads(out)
        assert rep["seed"] == 7
        assert rep["config"]["hash"]

    def test_require_nontrivial_exit_2(self, capsys):
        rc, _, _ = run(capsys, "analyze", eqpath("generic_dim2"),
                       "--require-nontrivial")
        assert rc == 2

    def test_dim2_without_flag_is_success(self, capsys):
        rc, _, _ = run(capsys, "analyze", eqpath("generic_dim2"))
        assert rc == 0

    def test_missing_file_exit_1(self, capsys):
        rc, _, err = run(capsys, "analyze", "/nonexistent.eq")
        assert rc == 1
        assert "error" in err

    def test_syntax_error_reported_with_position(self, capsys, tmp_path):
        bad = tmp_path / "bad.eq"
        bad.write_text("var x\na = (1 +\nb = 0\nc = 0\n")
        rc, _, err = run(capsys, "analyze", str(bad))
        assert rc == 1
        assert "line" in err

    @pytest.mark.parametrize("text", [
        "var x\na = 1\nb = 1e6*x\nc = 0\n",                 # SingularOnInterval
        "var x\na = x^2\nb = 0\nc = 0\ndomain = (-inf, inf)\n",  # NonparabolicError
        "var x\na = 1e-12\nb = 0\nc = 0\ndomain = (-inf, inf)\n",  # DomainError
        "var x\na = 1\nb = 0\nc = log(x)\ndomain = (-inf, inf)\n",  # DomainError
        "var x\na = 1 + ²\nb = 0\nc = 0\n",        # ² is no decimal digit
        "var x\na = 1\nb = 0\nc = %sx%s\n" % ("(" * 1000, ")" * 1000),
        "var x\na = 1\nb = %sx\nc = 0\n" % ("-" * 1000),
        "var x\na = 1\nb = %sx\nc = 0\n" % ("x^" * 1000),
        "var x\na = 1\nb = 0\nc = 0\nd = x^2\n",   # only a, b, c are read
    ])
    def test_analysis_error_is_one_line(self, capsys, tmp_path, text):
        path = tmp_path / "case.eq"
        path.write_text(text)
        rc, _, err = run(capsys, "analyze", str(path))
        assert rc == 1
        assert sum(ln.startswith("error:") for ln in err.splitlines()) == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("text, reason", [
        ("var x\na = 1 + 3²*x^2\nb = 0\nc = 0\n",
         "trailing input '²' (line 2, col 10)"),
        ("var x\na = 1\nb = 0\nc = %sx%s\n" % ("sin(" * 1000, ")" * 1000),
         "expression nested deeper than 100 levels (line 4, col 405)"),
        ("var x\na = inf\nb = 0\nc = 0\n",
         "a undefined at x=-3.99518: non-finite result"),
        ("var x\na = 1\nb = 3/x\nc = -200000*x^2\ndomain = (0, inf)\n",
         "check_determining: generator jets at t in [0.05, 0.45]: "
         "non-finite result"),
    ], ids=["superscript", "nesting", "inf", "generator-jets"])
    def test_refusal_names_its_reason(self, capsys, tmp_path, text, reason):
        path = tmp_path / "case.eq"
        path.write_text(text, encoding="utf-8")
        assert run(capsys, "analyze", str(path)) == (
            1, "", "error: %s: %s\n" % (path, reason))

    @pytest.mark.parametrize("op", ["+", "*", "/"])
    def test_three_thousand_terms_get_a_verdict(self, capsys, tmp_path, op):
        path = tmp_path / "case.eq"
        path.write_text("var x\na = 1 %s %s\nb = 0\nc = 0\ndomain = (-1, 1)\n"
                        % (op, (" %s " % op).join(["(1 + x^2/10000)"] * 3000)))
        rc, out, err = run(capsys, "analyze", str(path))
        assert (rc, err) == (0, "")
        assert "symmetry algebra dimension" in out

    @pytest.mark.parametrize("lines, cause", [
        ("c = 0\ndomain = (0, 1e160)", "I^2 overflows on the probe grid"),
        ("c = 0\ndomain = (-1e308, 1e308)",
         "domain (-1e+308, 1e+308) is wider than the largest float"),
        ("c = sin(1e308*x)", "math domain error"),
        ("c = exp(x)*1e307*cosh(x) - sinh(x)*1e307*exp(x)\n"
         "domain = (0, inf)", "-inf + inf in fsum"),
    ], ids=["I-squared", "domain-width", "sin", "fsum"])
    def test_float_range_fault_is_named_in_one_line(self, capsys, tmp_path,
                                                    lines, cause):
        path = tmp_path / "case.eq"
        path.write_text("var x\na = 1\nb = 0\n%s\n" % lines)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc, out, err = run(capsys, "analyze", str(path))
        assert rc == 1 and out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: %s: " % path) and cause in err
        assert not caught

    def test_underflowing_pullback_is_one_line_or_verified(self, capsys,
                                                          tmp_path):
        # the pullback's normalization nu underflows to 0 at b = x - 300:
        # refused in one line until ROADMAP item 9 verifies it as dim 6
        path = tmp_path / "case.eq"
        path.write_text("var x\na = 1\nb = x - 300\nc = 0\n"
                        "domain = (-inf, inf)\n")
        rc, out, err = run(capsys, "--json", "analyze", str(path))
        if rc == 1:
            assert out == "" and len(err.splitlines()) == 1
            assert err.startswith("error: %s: " % path)
        else:
            assert rc == 0
            assert json.loads(out)["classification"]["dim"] == 6

    @pytest.mark.parametrize("b, c", [
        ("18*x", "0"), ("-18*x", "0"), ("40*x", "0"), ("700*x", "0"),
        ("0", "x - 100*x^2"),
    ])
    def test_stiff_drift_is_verified_as_dim6(self, capsys, tmp_path, b, c):
        # T' spans many decades on the time window here; the closed-form
        # jet of T keeps the Moebius branch and its pullback exact
        path = tmp_path / "case.eq"
        path.write_text("var x\na = 1\nb = %s\nc = %s\n" % (b, c))
        rc, out, _ = run(capsys, "--json", "analyze", str(path))
        assert rc == 0
        rep = json.loads(out)
        assert rep["classification"]["dim"] == 6
        pullback = rep["verification"]["pullback_residuals"]
        assert max(pullback.values()) <= 1e-6
        assert not [w for w in rep["warnings"]
                    if w.startswith("pullback residual")]

    @pytest.mark.filterwarnings("error")
    def test_overflowing_brackets_give_strict_json(self, capsys, tmp_path):
        # b = 700x's brackets overflow at BRACKET_TIMES (ROADMAP item 2):
        # the report says so in a warning and stays valid JSON
        path = tmp_path / "case.eq"
        path.write_text("var x\na = 1\nb = 700*x\nc = 0\n")
        rc, out, err = run(capsys, "--json", "analyze", str(path))
        assert rc == 0 and err == ""

        def bad(token):
            raise ValueError("%s token in the report" % token)
        rep = json.loads(out, parse_constant=bad)
        assert rep["classification"]["dim"] == 6
        assert rep["generators"]["bracket_residual"] == "nan"
        assert "bracket residual is nan: the bracket triples are not " \
               "finite at the bracket times" in rep["warnings"]

    def test_interior_zero_of_a_named_without_quadrature(self, capsys,
                                                         tmp_path):
        # a polynomial, or a polynomial factor of a that the 32-point
        # sampling misses, before quadrature fails on I' = 1/sqrt(a)
        path = tmp_path / "case.eq"
        for a, domain, where in [("x^2", "(-inf, inf)", "0"),
                                 ("x^2*exp(x)", "(-3, 3)", "0"),
                                 ("(x-1)^2*(2 + sin(x))", "(-3, 3)", "1")]:
            path.write_text("var x\na = %s\nb = 0\nc = 0\ndomain = %s\n"
                            % (a, domain))
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                rc, _, err = run(capsys, "analyze", str(path))
            assert rc == 1
            assert err.splitlines() == ["error: %s: a vanishes at x=%s"
                                        % (path, where)]
            assert not [w for w in caught
                        if issubclass(w.category, IntegrationWarning)]

    @pytest.mark.parametrize("a", ["(2 + sin(3000*x))^2"],
                             ids=["oscillating"])
    def test_nonconvergent_quadrature_of_I_is_one_line(self, capsys, tmp_path,
                                                       a):
        # quad does not converge on I' = 1/sqrt(a) over 3000 periods;
        # refused, not warned
        path = tmp_path / "case.eq"
        path.write_text("var x\na = %s\nb = 0\nc = 0\ndomain = (-3, 3)\n" % a)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, out, err = run(capsys, "analyze", str(path))
        assert rc == 1 and out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: %s: quadrature of " % path)
        assert "The maximum number of subdivisions (200)" in err

    def test_human_summary(self, capsys):
        rc, out, _ = run(capsys, "analyze", eqpath("brownian"))
        assert rc == 0
        assert "dimension 6" in out

    def test_summary_reads_the_unrounded_determining_residual(self, capsys):
        # the JSON report rounds it to 0.0; the summary prints the value
        rc, out, _ = run(capsys, "analyze", eqpath("cir_reducible"))
        assert rc == 0
        inv = compute_invariants(ParabolicEquation.from_program(
            parse_file(eqpath("cir_reducible"))))
        basis = S.emit_basis(classify(inv), inv)
        worst = max(r["max"] for r in S.check_determining(inv, basis))
        assert worst > 0
        assert ("worst determining residual %.2e\n" % worst) in out

    @pytest.mark.parametrize("option", [
        ("--grid", "1"), ("--grid", "0"), ("--grid", "-3"),
        ("--grid", "1025"),
        ("--tol-classify", "-1"), ("--tol-classify", "0"),
        ("--tol-classify", "nan"), ("--tol-residual", "-0.5"),
        ("--tol-classify", "inf"), ("--tol-residual", "inf"),
        ("--tol-residual", "1e400"),
    ], ids=" ".join)
    def test_bad_option_value_is_one_error_line(self, capsys, option):
        rc, out, err = run(capsys, "analyze", eqpath("heat"), *option)
        assert rc == 1
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:")
        assert option[0] in err

    def test_huge_grid_is_refused_before_any_analysis(self, capsys,
                                                      monkeypatch):
        # at 100000 one grid array alone would need 75 GB
        monkeypatch.setattr(cli, "analyze_report", lambda args: pytest.fail(
            "analysis started"))
        rc, out, err = run(capsys, "analyze", eqpath("heat"),
                           "--grid", "100000")
        assert (rc, out) == (1, "")
        assert err == ("error: --grid must be from 2 to %d, got 100000\n"
                       % cli.MAX_GRID)

    def test_grid_of_two_is_accepted(self, capsys):
        rc, out, _ = run(capsys, "--json", "analyze", eqpath("heat"),
                         "--grid", "2")
        assert rc == 0
        assert len(json.loads(out)["generators"]["basis"]) == 6

    def test_determining_residual_over_bound_warns(self, capsys, tmp_path):
        # b = -17 x gets a right dim-6 analysis, but on the t-grid
        # [0.05, 0.45] its v2 misses the determining bound
        path = tmp_path / "case.eq"
        path.write_text("var x\na = 1\nb = -17*x\nc = 0\n")
        rc, out, _ = run(capsys, "--json", "analyze", str(path))
        assert rc == 0
        rep = json.loads(out)
        v2 = rep["generators"]["basis"][1]["determining_residual"]
        assert v2 > S.DETERMINING_TOL
        assert [w for w in rep["warnings"]
                if w.startswith("determining residual of v2 ")
                and w.endswith("exceeds %.3g" % S.DETERMINING_TOL)]

    def test_reader_closing_early_leaves_no_traceback(self):
        p = subprocess.Popen(
            [sys.executable, "-m", "parasym.cli", "--json", "analyze",
             eqpath("heat")], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")))
        p.stdout.close()
        with p.stderr:
            err = p.stderr.read().decode()
        assert p.wait(timeout=120) == 1
        assert "Traceback" not in err
        assert "BrokenPipeError" not in err


class TestKernels:
    def test_list(self, capsys):
        rc, out, _ = run(capsys, "--json", "kernels", "list")
        assert rc == 0
        rep = json.loads(out)
        assert len(rep["kernels"]) == 12

    def test_verify_heat(self, capsys):
        rc, out, _ = run(capsys, "--json", "kernels", "verify", "heat_1d")
        assert rc == 0
        rep = json.loads(out)
        assert rep["pass"] is True
        assert rep["residual"] <= 1e-9

    def test_verify_black_scholes_with_constants(self, capsys):
        rc, out, _ = run(capsys, "--json", "kernels", "verify",
                         "black_scholes", "--sigma", "0.4", "--r", "0.06")
        assert rc == 0
        assert json.loads(out)["pass"] is True

    def test_unknown_kernel_exit_1(self, capsys):
        rc, _, err = run(capsys, "kernels", "verify", "nosuch")
        assert rc == 1
        assert "UnknownKernel" in err

    def test_bad_constant_value(self, capsys):
        rc, _, err = run(capsys, "kernels", "verify", "heat_1d",
                         "--y", "zero")
        assert rc == 1

    @pytest.mark.parametrize("args, named", [
        pytest.param(("radial", "--n", "1e6"),
                     "n = 1000000.0, x = 1.0, y = 1.0", id="radial --n 1e6"),
        pytest.param(("mehler_trigonometric", "--y", "1e200"), "y = 1e+200",
                     id="mehler_trigonometric --y 1e200"),
    ])
    def test_overflow_reads_as_its_reason(self, capsys, args, named):
        # the entry and its constants, then the reason, not the errno tuple
        rc, out, err = run(capsys, "kernels", "verify", *args)
        assert rc == 1 and out == ""
        assert err == ("error: OutOfFloatRange: %s with %s: OverflowError: "
                       "Numerical result out of range\n" % (args[0], named))

    def test_repeated_constant_is_refused(self, capsys):
        rc, out, err = run(capsys, "kernels", "verify", "heat_1d",
                           "--y", "1", "--y", "2")
        assert (rc, out) == (1, "")
        assert err == "error: constant --y is given twice\n"

    @pytest.mark.parametrize("args", [("heat_1d", "--y", "1e308"),
                                      ("heat2d_timedep", "--x0", "1e17")],
                             ids=" ".join)
    def test_window_the_floats_cannot_resolve_is_refused(self, capsys, args):
        # a correct kernel whose mass window or tensor nodes collapse in
        # floats: refused, not judged (both read FAIL with deviations of 1)
        rc, out, err = run(capsys, "kernels", "verify", *args)
        assert rc == 1 and out == ""
        assert err.startswith("error: NonconvergentQuadrature: ")
        assert len(err.splitlines()) == 1

    def test_verify_without_name(self, capsys):
        rc, _, err = run(capsys, "kernels", "verify")
        assert rc == 1

    @pytest.mark.parametrize("extra", [("--foo", "1"), ("heat_1d",)],
                             ids=" ".join)
    def test_list_rejects_extra_arguments(self, capsys, extra):
        rc, out, err = run(capsys, "kernels", "list", *extra)
        assert rc == 1
        assert out == ""
        assert err == "error: unrecognized arguments: %s\n" % " ".join(extra)

    @pytest.mark.parametrize("constants", [
        ("--b", "1"),                       # one value, n = 2
        ("--n", "3", "--y", "0.1,0.2"),     # two values, n = 3
        ("--n", "2.5"), ("--n", "0"), ("--n", "5"), ("--n", "1,2"),
    ], ids=" ".join)
    def test_linear_potential_nd_constraints(self, capsys, constants):
        rc, out, err = run(capsys, "kernels", "verify",
                           "linear_potential_nd", *constants)
        assert rc == 1
        assert out == ""
        assert err.startswith("error: ConstraintViolation: ")
        assert len(err.splitlines()) == 1

    def test_linear_potential_nd_one_dimension(self, capsys):
        rc, out, _ = run(capsys, "--json", "kernels", "verify",
                         "linear_potential_nd", "--n", "1", "--b", "0.5",
                         "--y", "0.2")
        assert rc == 0
        assert json.loads(out)["pass"] is True

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    @pytest.mark.parametrize("name", KN.list_kernels())
    def test_non_finite_constant(self, capsys, name, bad):
        # the first constant of each entry; a tuple-valued one gets the bad
        # value in its first element
        key, default = sorted(KN.kernel(name).constants.items())[0]
        value = (",".join([bad] + ["1"] * (len(default) - 1))
                 if isinstance(default, tuple) else bad)
        rc, out, err = run(capsys, "kernels", "verify", name,
                           "--" + key, value)
        assert rc == 1
        assert out == ""
        assert err.startswith("error: ConstraintViolation: constant %s of %s "
                              "must be finite" % (key, name))
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("name, key", [
        (name, key) for name in KN.list_kernels()
        for key, default in sorted(KN.kernel(name).constants.items())
        if not isinstance(default, tuple)])
    def test_comma_list_for_scalar_constant(self, capsys, name, key):
        rc, out, err = run(capsys, "kernels", "verify", name,
                           "--" + key, "1,2")
        assert rc == 1
        assert out == ""
        assert err.startswith("error: ConstraintViolation: constant %s of %s "
                              "takes one value" % (key, name))
        assert len(err.splitlines()) == 1


class TestSelftest:
    def test_every_check_passes(self, capsys):
        assert cli.main(["selftest"]) == 0
        lines = capsys.readouterr().out.splitlines()
        n = (len(cli.CORPUS_EXPECT) + len(KN.list_kernels())
             + len(KN.APPELL_ENTRIES))
        assert n == 36
        assert [ln.split()[0] for ln in lines[:-1]] == ["PASS"] * n
        assert lines[-1] == "%d/%d checks passed" % (n, n)
        # each row prints its worst record unrounded
        row, = [ln for ln in lines if ln.split()[2] == "cir_reducible"]
        value = re.search(r" determining residual of v\d (\S+) ", row)
        assert float(value.group(1)) > 0

    @staticmethod
    def selftest(capsys, monkeypatch, stems=(), kernels=(), appell=()):
        """Run selftest on the given rows only; its exit code and rows."""
        monkeypatch.setattr(cli, "CORPUS_EXPECT",
                            {s: cli.CORPUS_EXPECT[s] for s in stems})
        monkeypatch.setattr(KN, "list_kernels", lambda: list(kernels))
        monkeypatch.setattr(KN, "APPELL_ENTRIES", tuple(appell))
        rc = cli.main(["selftest"])
        return rc, capsys.readouterr().out.splitlines()[:-1]

    def test_determining_record_over_its_bound_fails_the_row(
            self, capsys, monkeypatch):
        monkeypatch.setattr(S, "DETERMINING_TOL", 1e-15)
        rc, rows = self.selftest(capsys, monkeypatch,
                                 stems=("heat", "cir_reducible"))
        assert rc == 1
        # heat's residuals are exactly 0, so only cir_reducible fails
        assert rows[0].startswith("FAIL  analyze cir_reducible ")
        assert "determining residual of v2 " in rows[0]
        assert rows[0].endswith("(bound 1e-15)")
        assert rows[1].startswith("PASS  analyze heat ")

    def test_corpus_constant_over_its_bound_fails_the_row(
            self, capsys, monkeypatch):
        dim, consts = cli.CORPUS_EXPECT["brownian"]
        monkeypatch.setitem(cli.CORPUS_EXPECT, "brownian",
                            (dim, dict(consts, c0=consts["c0"] + 1e-6)))
        rc, rows = self.selftest(capsys, monkeypatch, stems=("brownian",))
        assert rc == 1
        assert rows == ["FAIL  %-38s constant c0 5.00e-07 (bound 1e-07)"
                        % "analyze brownian"]

    def test_wrong_dim_fails_the_row(self, capsys, monkeypatch):
        monkeypatch.setitem(cli.CORPUS_EXPECT, "radial", (6, {}))
        rc, rows = self.selftest(capsys, monkeypatch, stems=("radial",))
        assert rc == 1
        assert rows == ["FAIL  %-38s ParasymError: dim 4, want 6"
                        % "analyze radial"]

    def test_kernel_record_over_its_bound_fails_the_row(
            self, capsys, monkeypatch):
        monkeypatch.setattr(KN, "verify_normalization",
                            lambda entry: [0.0, 2e-6, 0.0])
        rc, rows = self.selftest(capsys, monkeypatch, kernels=("heat_1d",))
        assert rc == 1
        assert rows == ["FAIL  %-38s normalization 2.00e-06 (bound 1e-06)"
                        % "kernel heat_1d"]

    def test_delta_limits_that_do_not_decrease_fail_the_row(
            self, capsys, monkeypatch):
        # every record is ok, but the sequence does not decrease
        monkeypatch.setattr(KN, "verify_delta_limit",
                            lambda entry: [1e-4, 1e-4, 1e-5])
        rc, rows = self.selftest(capsys, monkeypatch, kernels=("heat_1d",))
        assert rc == 1
        assert rows == ["FAIL  %-38s ParasymError: delta limits [0.0001, "
                        "0.0001, 1e-05] do not decrease" % "kernel heat_1d"]

    def test_appell_record_over_its_bound_fails_the_row(
            self, capsys, monkeypatch):
        monkeypatch.setattr(KN, "appell_spread", lambda name: float("nan"))
        rc, rows = self.selftest(capsys, monkeypatch, appell=("ou_fp",))
        assert rc == 1
        assert rows == ["FAIL  %-38s ratio spread nan (bound 1e-07)"
                        % "appell ou_fp"]


class TestReportCompleteness:
    def test_every_field_computed_or_null(self, capsys):
        _, out, _ = run(capsys, "--json", "analyze", eqpath("generic_dim2"))
        rep = json.loads(out)
        for key in ("schema_version", "tool", "seed", "config", "input",
                    "invariants", "classification", "transform",
                    "generators", "verification", "warnings"):
            assert key in rep
        assert rep["transform"] is None
        assert rep["generators"] is None

    def test_expressions_have_both_forms(self, capsys):
        _, out, _ = run(capsys, "--json", "analyze", eqpath("heat"))
        rep = json.loads(out)
        for coeff in ("a", "b", "c"):
            assert set(rep["input"][coeff]) == {"text", "sexpr"}

    def test_keys_the_benchmark_reads(self, capsys):
        # bench/run.py and bench/check.py index these keys on every answer
        _, out, _ = run(capsys, "--json", "analyze", eqpath("heat"))
        rep = json.loads(out)
        assert set(rep["classification"]) >= {"dim", "constants", "fit_mode"}
        assert "I_mode" in rep["invariants"]
        assert rep["verification"]["pullback_residuals"]
        assert all("determining_residual" in g
                   for g in rep["generators"]["basis"])
        assert "warnings" in rep
        _, out, _ = run(capsys, "--json", "kernels", "verify", "heat_1d")
        assert set(json.loads(out)) >= {"name", "constants", "residual",
                                        "normalization", "delta_limit",
                                        "pass"}


class TestArgumentParser:
    @staticmethod
    def from_argparse(obj):
        return "argparse" in (type(obj).__module__,
                              getattr(obj, "__module__", None))

    def test_repeated_calls_leave_no_argparse_garbage(self, capsys):
        argvs = (["kernels", "list"],
                 ["--json", "analyze", eqpath("generic_dim2")])
        for argv in argvs:
            cli.main(argv)
        gc.collect()
        gc.garbage.clear()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            for _ in range(3):
                for argv in argvs:
                    cli.main(argv)
            gc.collect()
            left = [type(o).__name__ for o in gc.garbage
                    if self.from_argparse(o)]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        capsys.readouterr()
        assert left == []
