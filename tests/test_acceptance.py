"""Acceptance criteria for the toolkit, one pass/fail line per criterion.

Each criterion prints exactly one line "criterion N (<name>): PASS|FAIL"
(visible with pytest -s / -rP, and always shown on failure).  Tolerances and
time budgets are pinned here and must not be loosened to make a run green.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

from parasym import expr as E
from parasym import kernels as KK
from parasym import symmetry as S
from parasym.classify import classify
from parasym.cli import CORPUS_EXPECT as CORPUS
from parasym.invariants import ParabolicEquation, compute_invariants
from parasym.parser import parse_expression as P, parse_file
from parasym.transform import build_heat_transform, verify_pullback

EQDIR = Path(__file__).resolve().parent.parent / "equations"


@contextmanager
def criterion(n, name):
    try:
        yield
    except BaseException:
        print("criterion %d (%s): FAIL" % (n, name))
        raise
    print("criterion %d (%s): PASS" % (n, name))


def load(stem):
    return ParabolicEquation.from_program(parse_file(EQDIR / (stem + ".eq")))


def transform_of(eq):
    inv = compute_invariants(eq)
    return build_heat_transform(classify(inv), inv)


def test_criterion_1_corpus_classification():
    with criterion(1, "corpus classification"):
        assert len(CORPUS) >= 12
        t0 = time.perf_counter()
        for stem, (dim, consts) in CORPUS.items():
            cls = classify(compute_invariants(load(stem)))
            assert cls.dim == dim, stem
            for key, want in consts.items():
                got = cls.constants[key]
                assert abs(got - want) <= 1e-7 * (1 + abs(want)), (stem, key)
        assert time.perf_counter() - t0 <= 10.0


def test_criterion_2_pullback_of_heat_solutions():
    with criterion(2, "heat-solution pullback"):
        t0 = time.perf_counter()
        n_checked = 0
        for stem, (dim, _) in CORPUS.items():
            if dim != 6:
                continue
            res = verify_pullback(transform_of(load(stem)))
            assert len(res) == 4, stem
            assert max(res.values()) <= 1e-6, (stem, res)
            n_checked += 1
        assert n_checked >= 5
        assert time.perf_counter() - t0 <= 20.0


def test_criterion_3_determining_equations():
    with criterion(3, "determining equations"):
        import dataclasses
        for stem in ("heat", "brownian", "radial"):
            inv = compute_invariants(load(stem))
            cls = classify(inv)
            basis = S.emit_basis(cls, inv)
            for res in S.check_determining(inv, basis, n=16):
                assert res["max"] <= 1e-8
        inv = compute_invariants(load("heat"))
        basis = S.emit_basis(classify(inv), inv)
        fake = dataclasses.replace(basis[0], tau=P("t^2"), label="fake")
        assert S.check_determining(inv, [fake], n=16)[0]["max"] >= 1e-3


# per family: equation builder and the table lines our symbolic bracket
# cannot reconcile with the published tables (reproduced verbatim,
# including their typos)
_KNOWN_FLAGS = {
    "dim6_poly": {(1, 5)},          # published 2*c1, bracket gives c1
    "dim6_exp": set(),
    "dim6_trig": {(1, 4), (1, 5), (3, 4), (3, 5), (4, 5)},  # sign flips
    "dim4_poly": set(),
    "dim4_exp": set(),
    "dim4_trig": {(1, 2), (1, 3)},  # published swaps the v2/v3 images
}


def _family_case(fam, rng):
    c1 = rng.uniform(-1.5, 1.5)
    c0 = rng.uniform(-1.5, 1.5)
    mag = rng.uniform(0.3, 1.5)
    if fam.startswith("dim6"):
        c2 = {"dim6_poly": 0.0, "dim6_exp": mag, "dim6_trig": -mag}[fam]
        pot = "-(%r)*x^2 - (%r)*x - (%r)" % (c2, c1, c0)
        eq = ParabolicEquation(P("1"), P("0"), P(pot))
    else:
        mu = rng.uniform(-3.0, -0.2)
        beta = 1 + math.sqrt(1 - 4 * mu)
        c2 = {"dim4_poly": 0.0, "dim4_exp": -mag, "dim4_trig": mag}[fam]
        pot = "(%r)*x^2 + (%r)" % (c2, c0)
        eq = ParabolicEquation(P("1"), P("%r/x" % beta), P(pot),
                               domain=(0.0, math.inf))
    return eq


def test_criterion_4_commutator_tables_over_random_bindings():
    with criterion(4, "commutator tables vs published families"):
        rng = random.Random(20250823)
        fams = list(_KNOWN_FLAGS)
        cases = [fams[i % 6] for i in range(20)]
        saw_flags = set()
        for fam in cases:
            eq = _family_case(fam, rng)
            inv = compute_invariants(eq)
            cls = classify(inv)
            assert cls.dim == int(fam[3])
            basis = S.emit_basis(cls, inv)
            cc = cls.constants
            table = S.commutator_table(basis)
            rep = S.verify_table(table, S.published_table(
                cls.dim, cc.get("c2", 0.0), cc.get("c1", 0.0),
                cc.get("c0", 0.0)))
            assert table.residual <= 1e-7, fam
            flagged = {(i, j) for (i, j, *_rest) in rep.flagged}
            # publication typos are flagged, never raised, and every
            # non-typo line must match to 1e-7
            assert flagged <= _KNOWN_FLAGS[fam], (fam, flagged)
            saw_flags |= flagged
        assert {(1, 5), (1, 2)} <= saw_flags  # typos were actually exercised


def test_criterion_5_kernel_catalog():
    with criterion(5, "heat-kernel catalog"):
        t0 = time.perf_counter()
        names = KK.list_kernels()
        assert len(names) == 12
        for name in names:
            rep = KK.verify_entry(name)
            assert rep["residual"] <= 1e-9, name
            assert len(rep["normalization"]) == 3
            assert max(rep["normalization"]) <= 1e-6, name
            deltas = rep["delta_limit"]
            assert all(a > b for a, b in zip(deltas, deltas[1:])), name
            assert deltas[-1] <= 1e-3, name
        assert KK.appell_spread("mehler_hyperbolic") <= 1e-7
        assert time.perf_counter() - t0 <= 60.0


def test_criterion_6_heat_polynomials():
    with criterion(6, "heat polynomials"):
        from test_kernels import biorthogonality, heat_polynomial
        for n in range(11):
            un = heat_polynomial(n)
            lhs, rhs = {}, {}
            for (i, j), c in un.coefficients.items():
                assert isinstance(c, (int, Fraction))
                assert i + 2 * j == n          # exact parabolic homogeneity
                if j >= 1:
                    lhs[(i, j - 1)] = lhs.get((i, j - 1), 0) + c * j
                if i >= 2:
                    rhs[(i - 2, j)] = rhs.get((i - 2, j), 0) + c * i * (i - 1)
            assert lhs == rhs                  # exact heat-equation identity
        for m in range(6):
            for n in range(6):
                val = biorthogonality(m, n)
                want = 2.0 ** n * math.factorial(n) if m == n else 0.0
                assert abs(val - want) <= 1e-6 * 2.0 ** n * math.factorial(n)


def test_criterion_7_property_suites():
    with criterion(7, "property suites"):
        import test_properties as props
        props.TestDerivativeVsFiniteDifference().test_corpus()
        props.TestSimplifyIdempotence().test_corpus()
        props.TestGaugeInvarianceOfK().test_twenty_random_gauges()
        # classification shift invariance at fixed offsets
        inv = compute_invariants(
            ParabolicEquation(P("1"), P("tanh(x/2)"), P("0")))
        for s in (-4.0, -1.0, 0.0, 2.5):
            cls = classify(inv, i_offset=s)
            assert cls.dim == 6
            assert cls.constants["c2"] == pytest.approx(0.0, abs=1e-7)
            assert cls.constants["c1"] == pytest.approx(0.0, abs=1e-7)
            assert cls.constants["c0"] == pytest.approx(-0.25, abs=1e-7)
