"""Tests of the benchmark itself: references, seeding, checker, tracer and
host-speed calibration.

    python3 -m pytest -q bench/test_bench.py
"""

import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads as W           # noqa: E402
from check import check         # noqa: E402
from hostspeed import NOMINAL_SLICE_S, WINDOW_S, HostSpeed  # noqa: E402
from tracing import Tracer      # noqa: E402


def _consts(family_result):
    return family_result[1]["constants"]


@pytest.mark.parametrize("got, want", [
    (_consts(W.linear_drift(1.0)), {"c2": -0.25, "c1": 0.0, "c0": -0.5}),
    (_consts(W.harmonic(1.0, 0.0)), {"c2": -1.0, "c1": 0.0, "c0": 0.0}),
    (_consts(W.black_scholes(0.4, 0.06)), {"c2": 0.0, "c1": 0.0,
                                           "c0": -0.06125}),
    (_consts(W.brownian(1.0)), {"c2": 0.0, "c1": 0.0, "c0": 1.0}),
    (_consts(W.radial_drift(5.0)), {"mu": -3.75}),
    (_consts(W.power_diffusion(3.0)), {"mu": 0.1875}),
])
def test_formulas_reproduce_corpus_values(got, want):
    assert got == pytest.approx(want, abs=1e-15)


def _inputs(workload, seed):
    return [(d.argv[1:], d.eq_text) for r in range(3)
            for d in W.make_round(workload, seed, r, "work")]


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    assert repr(_inputs(workload, 7)) == repr(_inputs(workload, 7))
    assert _inputs(workload, 7) != _inputs(workload, 8)


def test_every_round_has_the_stated_mix():
    for workload, families in (("reduce", W.REDUCE), ("screen", W.SCREEN),
                               ("catalog", W.CATALOG)):
        for r in range(4):
            got = [d.family for d in W.make_round(workload, 3, r, "work")]
            assert got == list(families)


def _run(draw, tmp_path):
    from parasym import cli
    if draw.eq_text is not None:
        draw.argv[1] = str(tmp_path / os.path.basename(draw.argv[1]))
        with open(draw.argv[1], "w") as fh:
            fh.write(draw.eq_text)
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(["--json"] + draw.argv)
    return code, out.getvalue()


def _draw(workload, family, seed=5):
    return next(d for d in W.make_round(workload, seed, 1, "work")
                if d.family == family)


def test_checker_rejects_a_changed_dimension_or_constant(tmp_path):
    draw = _draw("screen", "radial_drift")
    code, stdout = _run(draw, tmp_path)
    assert check(draw, code, stdout) == (None, False)

    rep = json.loads(stdout)
    rep["classification"]["dim"] = 6
    reason, wrong = check(draw, code, json.dumps(rep))
    assert wrong and reason.startswith("dim 6")

    rep = json.loads(stdout)
    rep["classification"]["constants"]["mu"] *= 1 + 1e-6
    reason, wrong = check(draw, code, json.dumps(rep))
    assert wrong and reason.startswith("mu =")


def test_checker_rejects_a_changed_kernel_check_value(tmp_path):
    draw = _draw("catalog", "second_canonical")
    code, stdout = _run(draw, tmp_path)
    assert check(draw, code, stdout)[1] is False
    rep = json.loads(stdout)
    rep["normalization"][0] += 1e-8
    reason, wrong = check(draw, code, json.dumps(rep))
    assert wrong and reason.startswith("normalization")


@pytest.mark.parametrize("workload", ["reduce", "catalog"])
def test_known_defects_stay_visible_failures(workload, tmp_path):
    # each fixed draw past a range's edge fails parasym's own check while
    # its answer is right; heat2d_timedep at t0 = 0.33 is the one the
    # closed form predicts at 1.017e-3 > 1e-3
    draws = W.known_defect_draws(workload, str(tmp_path))
    assert draws
    for draw in draws:
        code, stdout = _run(draw, tmp_path)
        reason, wrong = check(draw, code, stdout)
        assert reason and not wrong, draw.family
        if draw.family == "heat2d_timedep":
            assert code == 1
            assert "delta_limit fails for a correct kernel" in reason


def test_tracer_records_layers_and_restores_the_program(tmp_path):
    from parasym import cli, expr, transform
    before = (cli.classify, transform.pde_residual, expr.evaluate)
    draw = _draw("screen", "power_diffusion")
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.operation(0):
            code, stdout = _run(draw, tmp_path)
    finally:
        tracer.uninstall()
    assert (cli.classify, transform.pde_residual, expr.evaluate) == before
    assert check(draw, code, stdout) == (None, False)
    layers = tracer.summary()
    assert layers["classify.classify"]["calls"] >= 1
    assert layers["expr.evaluate"]["calls"] > 0
    assert "transform.pde_residual" not in layers
    root = layers["cli.main"]
    assert root["calls"] == 1 and 0 < root["self_s"] < root["s"]
    assert all(s[5] is not None for s in tracer.spans if s[2] != "cli.main")


def test_samples_beyond_the_tail_percentile():
    from run import percentile, samples_beyond
    for n, p, want in ((24, 55, 11), (108, 93, 8), (144, 93, 11)):
        values = list(range(n))
        assert samples_beyond(n, p) == want
        assert sum(v > percentile(values, p) for v in values) == want


def test_host_speed_factor_uses_the_slices_near_an_interval():
    host = HostSpeed()
    # slices ending at t = 0, 1, 2, 10 s; the last one ran twice as slow
    host.ends = [0.0, 1.0, 2.0, 10.0]
    host.sums = [0.0, 1e-3, 2e-3, 3e-3, 5e-3]
    assert host.factor() == pytest.approx(NOMINAL_SLICE_S * 4 / 5e-3)
    assert WINDOW_S < 1.0       # the slices 1 s apart are separate
    assert host.factor(1.0, 2.0) == pytest.approx(NOMINAL_SLICE_S / 1e-3)
    assert host.factor(9.8, 9.9) == pytest.approx(NOMINAL_SLICE_S / 2e-3)
    assert host.busy(0.5, 2.0) == pytest.approx(2e-3)


def test_host_speed_samples_while_active():
    with HostSpeed() as host:
        deadline = perf_counter() + 0.3
        while perf_counter() < deadline:
            pass
    assert len(host.ends) >= 4
    assert 0 < host.busy(host.ends[0], host.ends[-1]) < 0.3
