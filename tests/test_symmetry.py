"""Generator bases, determining equations and commutator tables."""

import dataclasses
import math
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from parasym import expr as E
from parasym import symmetry as S
from parasym.classify import classify
from parasym.cli import CORPUS_EXPECT
from parasym.expr import chebyshev_points
from parasym.invariants import (ParabolicEquation, compute_invariants,
                                probe_window, values_at)
from parasym.parser import parse_expression as P, parse_file

EQDIR = Path(__file__).resolve().parent.parent / "equations"


def setup_case(a, b="0", c="0", domain=(-math.inf, math.inf)):
    e = ParabolicEquation(P(a), P(b), P(c), domain=domain)
    inv = compute_invariants(e)
    cls = classify(inv)
    basis = S.emit_basis(cls, inv)
    return e, inv, cls, basis


def random_binding_potentials():
    """20 dim-6 potentials -(c2 x^2 + c1 x + c0) over random bindings."""
    rng = random.Random(20250823)
    out = []
    for _ in range(20):
        c1 = rng.uniform(-2.0, 2.0)
        c0 = rng.uniform(-2.0, 2.0)
        c2 = rng.choice([0.0, 1.0, -1.0]) * rng.uniform(0.25, 2.0)
        out.append("-(%r)*x^2 - (%r)*x - (%r)" % (c2, c1, c0))
    return out


def _dx(e, inv):
    """x-derivative with the chain rule d(Ivar)/dx = 1/sqrt(a)."""
    out = E.differentiate(e, "x")
    if E.contains_symbol(e, S.IVAR):
        chain = E.simplify(E.div(E.ONE, inv.sqrt_a))
        out = E.simplify(E.add(out, E.mul(E.differentiate(e, S.IVAR), chain)))
    return out


def field_env(vf, x, t):
    """The environment of vf's coefficients at (x, t): Ivar is I(x) shifted
    by the field's gauge offset."""
    env = {"x": x, "t": t}
    if vf.inv is not None:
        env[S.IVAR] = vf.inv.I(x) + vf.i_offset
    return env


# ---------------------------------------------------------------------------
# reference determining check: each field's printed tau, xi and phi
# differentiated symbolically and evaluated point by point

def reference_determining(inv, vf, n=16):
    """Scaled residuals of deteq1, deteq2 and xieq (S.check_determining)
    from the printed coefficients."""
    a, b, c = inv.a, inv.b, inv.c
    ap = E.differentiate(a, "x")
    app = E.differentiate(ap, "x")
    bp = E.differentiate(b, "x")
    cp = E.differentiate(c, "x")
    taud = S._dt(vf.tau)
    xi_x = _dx(vf.xi, inv)
    xi_t = S._dt(vf.xi)
    phi_x = _dx(vf.phi, inv)
    phi_xx = _dx(phi_x, inv)
    phi_t = S._dt(vf.phi)

    lo, hi = probe_window(inv.domain)
    ts = [0.05 + 0.4 * j / (n - 1) for j in range(n)]
    worst = {"deteq1": 0.0, "deteq2": 0.0, "xieq": 0.0}
    for x in chebyshev_points(lo, hi, n):
        for t in ts:
            env = field_env(vf, x, t)
            av, bv, cv, apv, appv, bpv, cpv, tdv, xv, xtv, xxv, pxv, pxxv, \
                ptv = (E.evaluate(e, env) for e in (
                    a, b, c, ap, app, bp, cp, taud, vf.xi, xi_t, xi_x,
                    phi_x, phi_xx, phi_t))
            for key, terms in (
                    ("deteq1", (8 * av * av * pxv,
                                (apv - 2 * bv) * (xv * apv - av * tdv),
                                -av * (2 * xv * appv - 4 * xtv
                                       - 4 * xv * bpv))),
                    ("deteq2", (cv * tdv, -ptv, xv * cpv, bv * pxv,
                                av * pxxv)),
                    ("xieq", (xxv, -apv / (2 * av) * xv, -0.5 * tdv))):
                worst[key] = max(worst[key], abs(sum(terms))
                                 / (sum(abs(u) for u in terms) + 1.0))
    worst["max"] = max(worst.values())
    return worst


def worst_determining(inv, basis):
    return max(r["max"] for r in S.check_determining(inv, basis))


# ---------------------------------------------------------------------------
# reference structure constants: brackets taken symbolically on the
# (tau, xi, phi) coefficients over {x, t, Ivar}, sampled on an x-t grid and
# decomposed there by least squares

def lie_bracket(v, w):
    """[v, w] computed symbolically component-wise."""
    inv = v.inv or w.inv

    def act(f, e):
        """Apply f = tau d_t + xi d_x to scalar Expr e."""
        parts = []
        if f.tau is not E.ZERO and E.contains_symbol(e, S.T):
            parts.append(E.mul(f.tau, S._dt(e)))
        if f.xi is not E.ZERO:
            dxe = _dx(e, inv)
            if dxe is not E.ZERO:
                parts.append(E.mul(f.xi, dxe))
        return E.Expr("add", parts) if parts else E.ZERO

    return S.VectorField(
        tau=E.simplify(E.add(act(v, w.tau), E.neg(act(w, v.tau)))),
        xi=E.simplify(E.add(act(v, w.xi), E.neg(act(w, v.xi)))),
        phi=E.simplify(E.add(act(v, w.phi), E.neg(act(w, v.phi)))),
        inv=inv, i_offset=v.i_offset)


def components(vf, x, t):
    env = field_env(vf, x, t)
    return [E.evaluate(e, env) if e is not E.ZERO else 0.0
            for e in (vf.tau, vf.xi, vf.phi)]


def reference_structure(basis):
    lo, hi = probe_window(basis[0].inv.domain)
    grid = [(x, 0.07 + (0.41 - 0.07) * j / 3)
            for x in chebyshev_points(lo, hi, 6) for j in range(4)]

    def sampled(vf):
        return np.array([v for x, t in grid for v in components(vf, x, t)])

    A = np.column_stack([sampled(vf) for vf in basis])
    structure = {}
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            y = sampled(lie_bracket(basis[i], basis[j]))
            coef, *_ = np.linalg.lstsq(A, y, rcond=None)
            entry = {k + 1: float(c) for k, c in enumerate(coef)
                     if abs(c) > 1e-9}
            if entry:
                structure[(i + 1, j + 1)] = entry
    return structure


def _corpus_case(stem):
    inv = compute_invariants(ParabolicEquation.from_program(
        parse_file(EQDIR / (stem + ".eq"))))
    return S.emit_basis(classify(inv), inv)


def _coefficient_case(a, b="0", c="0", domain=(-math.inf, math.inf)):
    return setup_case(a, b, c, domain)[3]


DIFFERENTIAL_CASES = (
    [pytest.param(_corpus_case, (stem,), id="corpus-" + stem)
     for stem, (dim, _) in sorted(CORPUS_EXPECT.items()) if dim in (4, 6)]
    + [pytest.param(_coefficient_case, ("1", "0", pot), id="binding-%d" % n)
       for n, pot in enumerate(random_binding_potentials())]
    # dim 4, the last three in a shifted gauge (I + s, s = 2, -1, 3)
    + [pytest.param(_coefficient_case, (a, b, c, (lo, math.inf)),
                    id="dim4-%s-%s-%s" % (a, b, c))
       for a, b, c, lo in [("x^6", "0", "0", 0.0), ("1", "5/x", "0", 0.0),
                           ("x", "1 - x", "0", 0.0),
                           ("1", "3/x", "0.7*x^2 - 0.2", 0.0),
                           ("1", "3/(x+2)", "0", -2.0),
                           ("1", "3/(x-1)", "0.7*(x-1)^2", 1.0),
                           ("1", "5/(x+3)", "-0.5*(x+3)^2 + 0.3", -3.0)]])


class TestDeterminingEquations:
    @pytest.mark.parametrize("coeffs,want_dim", [
        (("1", "0", "0"), 6),
        (("(1 + x^2)^2", "0", "0"), 6),
        (("1", "0", "-(x^2)"), 6),
        (("1", "0", "x^2"), 6),
        (("1", "0", "-x"), 6),
    ])
    def test_basis_satisfies_determining_equations(self, coeffs, want_dim):
        a, b, c = coeffs
        _, inv, cls, basis = setup_case(a, b, c)
        assert cls.dim == want_dim
        assert len(basis) == want_dim
        assert worst_determining(inv, basis) <= 1e-8

    @pytest.mark.parametrize("coeffs", [
        ("x^6", "0", "0"), ("1", "5/x", "0"), ("x", "1 - x", "0"),
    ])
    def test_dim4_bases(self, coeffs):
        a, b, c = coeffs
        _, inv, cls, basis = setup_case(a, b, c, domain=(0.0, math.inf))
        assert cls.dim == 4
        assert len(basis) == 4
        assert worst_determining(inv, basis) <= 1e-8

    def test_non_symmetry_rejected(self):
        # the printed tau no longer matches the field's triple
        _, inv, _, basis = setup_case("1")
        fake = dataclasses.replace(basis[0], tau=P("t^2"), label="fake")
        (res,) = S.check_determining(inv, [fake])
        assert res["tree"] >= 1e-3
        assert res["max"] >= 1e-3
        assert reference_determining(inv, fake)["max"] >= 1e-3

    def test_perturbed_generator_rejected(self):
        _, inv, _, basis = setup_case("(1 + x^2)^2")
        v = basis[2]
        fake = dataclasses.replace(
            v, phi=E.simplify(E.add(v.phi, P("x/100"))))
        (res,) = S.check_determining(inv, [fake])
        assert res["tree"] >= 1e-3
        assert res["max"] >= 1e-3
        assert reference_determining(inv, fake)["max"] >= 1e-3

    def test_one_residual_dict_per_field(self):
        _, inv, _, basis = setup_case("1", "0", "-x")
        res = S.check_determining(inv, basis, n=5)
        assert len(res) == len(basis)
        for r in res:
            assert set(r) == {"deteq1", "deteq2", "xieq", "tree", "max"}
            assert r["max"] == max(v for k, v in r.items() if k != "max")

    @pytest.mark.parametrize("build,args", DIFFERENTIAL_CASES)
    def test_matches_symbolic_reference(self, build, args):
        basis = build(*args)
        inv = basis[0].inv
        assert worst_determining(inv, basis) <= 1e-8
        for vf in basis:
            assert reference_determining(inv, vf)["max"] <= 1e-8

    def test_wrong_constant_fails_in_both(self):
        # harmonic_potential's basis built from c2 off by 1e-3: both checks
        # see the same defect in the same equation
        inv = compute_invariants(ParabolicEquation.from_program(
            parse_file(EQDIR / "harmonic_potential.eq")))
        cls = classify(inv)
        cls.constants["c2"] += 1e-3
        basis = S.emit_basis(cls, inv)
        got = S.check_determining(inv, basis)
        for vf, res in zip(basis, got):
            want = reference_determining(inv, vf)
            for key in ("deteq1", "deteq2", "xieq"):
                assert res[key] == pytest.approx(want[key], rel=1e-6,
                                                 abs=1e-12), (vf.label, key)
        assert max(r["max"] for r in got) >= 1e-4


class TestBrackets:
    def test_heat_table_closes(self):
        _, inv, cls, basis = setup_case("1")
        table = S.commutator_table(basis)
        assert table.residual <= 1e-10
        assert S.jacobi_residual(table, 6) <= 1e-10

    def test_bracket_antisymmetry_accessor(self):
        # the structure holds [X_i, X_j] for i < j; on the reversed basis,
        # X_i is X'_{n+1-i}, so the same bracket is stored as
        # [X'_{n+1-j}, X'_{n+1-i}] = -[X_i, X_j] at mirrored indices
        _, _, _, basis = setup_case("1", "0", "-(x^2)")
        n = len(basis)
        got = S.commutator_table(basis).structure
        rev = S.commutator_table(basis[::-1]).structure
        assert all(i < j for i, j in got)
        assert set(rev) == {(n + 1 - j, n + 1 - i) for i, j in got}
        for (i, j), entry in got.items():
            mirrored = rev[(n + 1 - j, n + 1 - i)]
            assert set(mirrored) == {n + 1 - k for k in entry}
            for k, c in entry.items():
                assert mirrored[n + 1 - k] == pytest.approx(-c, abs=1e-12)

    def test_bracket_of_commuting_pair(self):
        # time translation and the u-scaling M commute
        _, inv, _, basis = setup_case("1")
        br = lie_bracket(basis[0], basis[-1])
        for x in (-1.0, 0.5):
            for t in (0.1, 0.4):
                assert max(abs(v) for v in components(br, x, t)) <= 1e-12

    @pytest.mark.parametrize("build,args", DIFFERENTIAL_CASES)
    def test_table_matches_sampled_symbolic_brackets(self, build, args):
        basis = build(*args)
        want = reference_structure(basis)
        got = S.commutator_table(basis).structure
        assert set(got) == set(want)
        for ij, entry in want.items():
            assert set(got[ij]) == set(entry), ij
            for k, c in entry.items():
                assert abs(got[ij][k] - c) <= 1e-12 * (1.0 + abs(c)), (ij, k)


class TestPublishedTables:
    def test_heat_family_matches(self):
        _, _, cls, basis = setup_case("1")
        expected = S.published_table(6, 0.0, 0.0, 0.0)
        rep = S.verify_table(S.commutator_table(basis), expected)
        assert not rep.flagged
        assert len(rep.matched) == 15

    def test_exponential_family_matches(self):
        _, _, cls, basis = setup_case("1", "0", "-(x^2)")
        c = cls.constants
        rep = S.verify_table(S.commutator_table(basis), S.published_table(
            6, c["c2"], c["c1"], c["c0"]))
        assert not rep.flagged

    def test_linear_potential_flags_known_line(self):
        # c1 != 0 exposes the published [v1, v5] coefficient 2 c1 where the
        # symbolic bracket gives c1
        _, _, cls, basis = setup_case("1", "0", "-x")
        c = cls.constants
        rep = S.verify_table(S.commutator_table(basis), S.published_table(
            6, c["c2"], c["c1"], c["c0"]))
        flagged_pairs = {(i, j) for (i, j, *_rest) in rep.flagged}
        assert flagged_pairs == {(1, 5)}

    def test_trigonometric_family_flags_sign_lines(self):
        _, _, cls, basis = setup_case("1", "0", "x^2")
        c = cls.constants
        rep = S.verify_table(S.commutator_table(basis), S.published_table(
            6, c["c2"], c["c1"], c["c0"]))
        flagged_pairs = {(i, j) for (i, j, *_rest) in rep.flagged}
        assert flagged_pairs == {(1, 4), (1, 5), (3, 4), (3, 5), (4, 5)}

    def test_dim4_families_match(self):
        for coeffs in [("x^6", "0", "0"), ("1", "5/x", "0")]:
            a, b, c = coeffs
            _, _, cls, basis = setup_case(a, b, c, domain=(0.0, math.inf))
            cc = cls.constants
            table = S.commutator_table(basis)
            rep = S.verify_table(table, S.published_table(
                4, cc.get("c2", 0.0), 0.0, cc.get("c0", 0.0)))
            assert not rep.flagged

    def test_flagging_never_raises(self):
        # a deliberately wrong expected table must flag, not crash
        _, _, _, basis = setup_case("1")
        wrong = S.published_table(6, 0.0, 0.0, 0.0)
        wrong.structure[(1, 2)] = {1: 5.0}
        rep = S.verify_table(S.commutator_table(basis), wrong)
        assert rep.flagged


class TestRandomBindings:
    def test_scalar_families_reproduce_tables_over_bindings(self):
        checked = 0
        for pot in random_binding_potentials():
            _, inv, cls, basis = setup_case("1", "0", pot)
            assert cls.dim == 6
            assert S.commutator_table(basis).residual <= 1e-7
            checked += 1
        assert checked == 20


class TestJet:
    """Each structured field carries its triple's t-derivatives, taken once
    by field_from_scalars; the checks read their values."""

    @pytest.mark.parametrize("stem", ["harmonic_stiff", "radial"])
    def test_checks_take_no_t_derivative(self, monkeypatch, stem):
        basis = _corpus_case(stem)
        taken = []
        differentiate = E.differentiate

        def counting(e, var="x", order=1):
            taken.append(var)
            return differentiate(e, var, order)

        monkeypatch.setattr(E, "differentiate", counting)
        S.check_determining(basis[0].inv, basis)
        S.commutator_table(basis)
        assert set(taken) == {"x"}     # the x-functions' derivatives only

    @pytest.mark.parametrize("stem", [
        stem for stem, (dim, _) in sorted(CORPUS_EXPECT.items())
        if dim in (4, 6)])
    def test_jet_is_the_triples_derivatives(self, stem):
        inv = compute_invariants(ParabolicEquation.from_program(
            parse_file(EQDIR / (stem + ".eq"))))
        cls = classify(inv)
        c = cls.constants
        triples = S._scalar_families(
            cls.dim, c.get("c2", 0.0), c.get("c1", 0.0), c.get("c0", 0.0))
        triples.append((E.ZERO, E.ZERO, E.ONE))
        basis = S.emit_basis(cls, inv)
        assert len(basis) == len(triples) == cls.dim
        d = lambda e, k=1: E.differentiate(e, "t", k)
        for vf, triple in zip(basis, triples):
            tau, rho, sigma = (E.simplify(e) for e in triple)
            want = (tau, d(tau), d(tau, 2), d(tau, 3), rho, d(rho),
                    d(rho, 2), sigma, d(sigma))
            assert len(vf.jet) == len(S.JET)
            for name, got, w in zip(S.JET, vf.jet, want):
                assert got == w, (vf.label, name)
            assert vf.tau == tau


# ---------------------------------------------------------------------------
# reference per-field checks: the loop over the fields that check_determining
# and commutator_table ran before they took the whole basis in one pass; the
# batched pass must give the same floats, bit for bit

def reference_jet_values(vf, rows, ts):
    envs = [{"t": t} for t in ts]
    return np.array([E.evaluate_many((vf.jet[S.JET.index(r)],), envs)
                     for r in rows]).reshape(len(rows), len(ts))


def reference_scaled(*terms):
    u = np.stack(np.broadcast_arrays(*terms))
    return float((np.abs(u.sum(axis=0)) / (np.abs(u).sum(axis=0) + 1.0)).max())


def reference_check_determining(inv, basis, n=16):
    xs = chebyshev_points(*probe_window(inv.domain), n)
    ts = E.grid(0.05, 0.45, n)
    d = lambda e: E.differentiate(e, "x")
    sp, Jp, ap = d(inv.sqrt_a), d(inv.J), d(inv.a)
    fx = (inv.sqrt_a, sp, inv.J, Jp, d(Jp), inv.a, ap, d(ap),
          inv.b, d(inv.b), inv.c, d(inv.c))
    envs = [{"x": x} for x in xs]
    s, sp, J, Jp, Jpp, a, ap, app, b, bp, c, cp = (
        np.array(E.evaluate_many((e,), envs)) for e in fx)
    I0 = values_at([("I", inv.I)], xs)
    out = []
    for vf in basis:
        I = I0 + vf.i_offset
        tau, tau1, tau2, tau3, rho, rho1, rho2, sigma, sigma1 = \
            reference_jet_values(vf, S.JET, ts)
        xi = s * (tau1 * I / 2 + rho)
        xi_x = sp * (tau1 * I / 2 + rho) + tau1 / 2
        xi_t = s * (tau2 * I / 2 + rho1)
        A = -tau2 * I / 4 - rho1 / 2 + tau1 * J / 4
        B = tau1 * I / 4 + rho / 2
        phi = -tau2 * I ** 2 / 8 - rho1 * I / 2 + tau1 * I * J / 4 \
            + rho * J / 2 + sigma
        phi_x = A / s + Jp * B
        phi_xx = (-tau2 / (4 * s) + tau1 * Jp / 4) / s - A * sp / s ** 2 \
            + Jpp * B + Jp * tau1 / (4 * s)
        phi_t = -tau3 * I ** 2 / 8 - rho2 * I / 2 + tau2 * I * J / 4 \
            + rho1 * J / 2 + sigma1
        res = {
            "deteq1": reference_scaled(
                8 * a * a * phi_x, (ap - 2 * b) * (xi * ap - a * tau1),
                -a * (2 * xi * app - 4 * xi_t - 4 * xi * bp)),
            "deteq2": reference_scaled(c * tau1, -phi_t, xi * cp, b * phi_x,
                                       a * phi_xx),
            "xieq": reference_scaled(xi_x, -ap / (2 * a) * xi, -tau1 / 2),
        }
        want = np.column_stack([tau, xi.diagonal(), phi.diagonal()])
        got = np.array(E.evaluate_many(
            (vf.tau, vf.xi, vf.phi),
            [{"x": x, "t": t, S.IVAR: float(i)}
             for x, t, i in zip(xs, ts, I[:, 0])]))
        res["tree"] = float((np.abs(want - got)
                             / (np.abs(want) + np.abs(got) + 1.0)).max())
        res["max"] = max(res.values())
        out.append(res)
    return out


@np.errstate(over="ignore", invalid="ignore")
def reference_commutator_table(basis):
    rows = ("tau", "rho", "sigma", "tau1", "rho1", "sigma1")
    vals = [reference_jet_values(vf, rows, S.BRACKET_TIMES) for vf in basis]
    A = np.column_stack([v[:3].T.ravel() for v in vals])
    n = len(basis)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    brackets = []
    for i, j in pairs:
        tv, rv, sv, tv1, rv1, sv1 = vals[i]
        tw, rw, sw, tw1, rw1, sw1 = vals[j]
        brackets.append(np.column_stack([
            tv * tw1 - tw * tv1,
            tv * rw1 - tw * rv1 + (rv * tw1 - rw * tv1) / 2,
            tv * sw1 - tw * sv1 - (rv * rw1 - rw * rv1) / 2]).ravel())
    Y = np.column_stack(brackets)
    coef, *_ = np.linalg.lstsq(A, Y, rcond=None)
    scale = 1.0 + np.abs(Y).max(axis=0)
    worst = float(np.max(np.abs(A @ coef - Y).max(axis=0) / scale))
    structure = {}
    for col, (i, j) in enumerate(pairs):
        entry = {k + 1: float(c) for k, c in enumerate(coef[:, col])
                 if abs(c) > 1e-9}
        if entry:
            structure[(i + 1, j + 1)] = entry
    return structure, worst


def _two_offset_basis():
    """radial's dim-4 basis (gauge I + s) with its last two fields moved
    to the gauge I + s + 0.5: the tree check makes one call per offset."""
    basis = _corpus_case("radial")
    return basis[:2] + [dataclasses.replace(vf, i_offset=vf.i_offset + 0.5)
                        for vf in basis[2:]]


def _fake_tau_basis():
    _, _, _, basis = setup_case("1")
    return [dataclasses.replace(basis[0], tau=P("t^2"), label="fake")]


def _fake_phi_basis():
    _, _, _, basis = setup_case("(1 + x^2)^2")
    v = basis[2]
    return [dataclasses.replace(v, phi=E.simplify(E.add(v.phi, P("x/100"))))]


BATCHED_CASES = (
    [pytest.param(_corpus_case, (stem,), id=stem)
     for stem, (dim, _) in sorted(CORPUS_EXPECT.items()) if dim in (4, 6)]
    + [pytest.param(_two_offset_basis, (), id="two-offsets")])


class TestBatchedPass:
    # n = 40 and 64 split a basis into uneven chunks of 2 and 1 fields
    @pytest.mark.parametrize("build,args", BATCHED_CASES)
    def test_same_floats_as_the_per_field_loop(self, build, args):
        basis = build(*args)
        inv = basis[0].inv
        for n in (2, 5, 16, 17, 40, 64):
            want = reference_check_determining(inv, basis, n)
            assert S.check_determining(inv, basis, n) == want, n
        table = S.commutator_table(basis)
        assert (table.structure, table.residual) == \
            reference_commutator_table(basis)

    @pytest.mark.parametrize("build", [_fake_tau_basis, _fake_phi_basis])
    def test_same_floats_on_a_faked_field(self, build):
        (fake,) = build()
        inv = fake.inv
        basis = [fake] + S.emit_basis(classify(inv), inv)
        for fields in ([fake], basis):
            for n in (2, 16, 40):
                assert S.check_determining(inv, fields, n) == \
                    reference_check_determining(inv, fields, n)
        table = S.commutator_table(basis)
        assert (table.structure, table.residual) == \
            reference_commutator_table(basis)

    def test_memory_stays_at_one_fields_arrays(self):
        # at n = 256 a pass holds one field, so the whole basis peaks
        # where a single field does
        basis = _corpus_case("harmonic_potential")
        inv = basis[0].inv

        def peak(fields):
            S.check_determining(inv, fields, n=256)
            tracemalloc.start()
            try:
                S.check_determining(inv, fields, n=256)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one = peak(basis[:1])
        assert one > 256 * 256 * 8 * 10    # the n-by-n arrays are traced
        assert peak(basis) <= 1.1 * one

    def test_compiles_once_per_call_on_a_fresh_basis(self, monkeypatch):
        basis = _corpus_case("harmonic_stiff")
        assert len(basis) == 6
        roots = []
        compile_ = E._compile

        def counting(trees):
            roots.append(len(trees))
            return compile_(trees)

        monkeypatch.setattr(E, "_compile", counting)
        S.check_determining(basis[0].inv, basis)
        # at most the 12 x-functions one at a time, then every field's jet
        # (9 rows) and every printed (tau, xi, phi) in one function each
        assert [k for k in roots if k > 1] == [9 * 6, 3 * 6]
        assert len(roots) <= 12 + 2
        roots.clear()
        S.commutator_table(basis)
        assert roots == [6 * 6]
