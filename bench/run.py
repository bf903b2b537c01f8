"""parasym benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload reduce --seed 1 --seconds 30 --trace 0

Run from the root of a parasym source tree.  The run generates its inputs
from the seed, drives them through `parasym.cli.main` in this process
(closed loop, one caller, one thread), checks every answer against the
closed-form reference in `workloads.py`, and prints one JSON result as the
last line of stdout.  The line before it is a JSON record of the run: the
tail percentile and sample count, the workload mix, every failed operation
with its reason, and, in a `--trace 1` run, the known defects: after the
measured operations, that run executes the fixed draws of
`workloads.KNOWN_DEFECTS` and lists those that still fail, with their
reasons.  They do not count in `attempted` or `failed`; a wrong answer among
them makes `correct` false.

`--trace 0` measures the end-to-end metrics over whole blocks of rounds of
draws for about `--seconds`; latency and throughput are scaled to a nominal host
speed (see hostspeed.py), and the record keeps the raw values.
`--trace 1` runs a fixed number of rounds, each operation once untraced and
once traced, and reports per-layer metrics per operation; the work is fixed
so that call counts repeat exactly.  Spans are written to bench/out/ when
the run ends.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

# one thread: the BLAS under numpy would otherwise start a pool per core
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import workloads as W           # noqa: E402
from check import check         # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from tracing import Tracer      # noqa: E402

SETUP_REPEATS = 5
# The tail is a fixed percentile per workload, so that a faster program
# (more operations per run) is compared at the same percentile.  Each is the
# highest that leaves at least ten samples beyond it in a 30 s run on a
# 2-vCPU Xeon, and a timed run goes on until it does: `catalog`'s p93 needs
# four blocks, and lies among the heat2d_timedep operations, the slowest
# twelfth, only with more than ten of them.
TAIL_PERCENTILE = {"reduce": 55, "screen": 97, "catalog": 93}
TRACE_ROUNDS = {"reduce": 1, "screen": 50, "catalog": 4}

LAYER_METRICS = (
    ("expr.evaluate.calls", "calls/op"), ("expr.evaluate.s", "s/op"),
    ("expr.simplify.calls", "calls/op"), ("expr.simplify.s", "s/op"),
    ("expr.differentiate.calls", "calls/op"),
    ("expr.differentiate.s", "s/op"),
    ("transform.verify_pullback.s", "s/op"),
    ("transform.pde_residual.calls", "calls/op"),
    ("transform.pde_residual.s", "s/op"),
    ("transform.build_heat_transform.s", "s/op"),
    ("classify.classify.s", "s/op"),
    ("invariants.compute_invariants.s", "s/op"),
    ("parser.parse_file.s", "s/op"),
    ("symmetry.emit_basis.s", "s/op"),
    ("symmetry.check_determining.s", "s/op"),
    ("symmetry.commutator_table.s", "s/op"),
    ("symmetry.verify_table.s", "s/op"),
    ("kernels.kernel.s", "s/op"),
    ("kernels.verify_pde_residual.s", "s/op"),
    ("kernels.verify_normalization.s", "s/op"),
    ("kernels.verify_delta_limit.s", "s/op"),
    ("special.iv.calls", "calls/op"),
    ("cli.self_s", "s/op"),
    ("trace.overhead_ratio", "ratio"),
)


def measure_setup(root):
    """Median wall time of a fresh interpreter importing parasym.cli."""
    code = ("import sys; sys.path.insert(0, %r); import parasym.cli"
            % os.path.join(root, "src"))
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        # no timeout: with one, wait() polls in steps of up to 50 ms
        subprocess.run([sys.executable, "-c", code], cwd=root, check=True,
                       stdout=subprocess.DEVNULL)
        times.append(perf_counter() - start)
    return statistics.median(times)


def percentile(values, p):
    """Linear interpolation between closest ranks."""
    v = sorted(values)
    k = (len(v) - 1) * p / 100.0
    lo = int(k)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (k - lo)


class Run:
    def __init__(self, cli, workload, seed, workdir):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.attempted = 0
        self.failures = []
        self.mix = {}

    def op(self, draw, tracer=None):
        """Run and check one operation; returns its start and end times."""
        if draw.eq_text is not None:
            with open(draw.argv[1], "w") as fh:
                fh.write(draw.eq_text)
        out = io.StringIO()
        code = error = None
        start = perf_counter()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            try:
                if tracer is None:
                    code = self.cli.main(["--json"] + draw.argv)
                else:
                    with tracer.operation(self.attempted):
                        code = self.cli.main(["--json"] + draw.argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a crash is a failed operation
                error = "%s: %s" % (type(exc).__name__, exc)
        end = perf_counter()
        self.attempted += 1
        reason, wrong = (error, False) if error else check(draw, code,
                                                           out.getvalue())
        if reason:
            self.failures.append({"family": draw.family,
                                  "args": draw.argv[1:],
                                  "reason": reason, "wrong_answer": wrong})
        self._count(draw, None if wrong or error else out.getvalue())
        return start, end

    def _count(self, draw, stdout):
        props = {"family": draw.family}
        props.update(draw.props)
        if stdout and draw.workload != "catalog":
            rep = json.loads(stdout)
            props["I_quadrature"] = rep["invariants"]["I_mode"] == "quadrature"
            props["numeric_fit"] = (rep["classification"]["fit_mode"]
                                    == "numeric")
        for key, val in props.items():
            if val is True or not isinstance(val, bool):
                label = key if val is True else "%s=%s" % (key, val)
                self.mix[label] = self.mix.get(label, 0) + 1

    def draws(self, round_no):
        return W.make_round(self.workload, self.seed, round_no, self.workdir)

    def record(self, counted, **extra):
        rec = {"workload": self.workload, "seed": self.seed,
               "operations": counted,
               "mix": {k: {"count": n, "share": round(n / counted, 4)}
                       for k, n in sorted(self.mix.items())},
               "fail_ratio": len(self.failures) / self.attempted,
               "failures": self.failures}
        rec.update(extra)
        return rec


def samples_beyond(n, p):
    """How many of n distinct samples lie above their p-th percentile."""
    return n - 1 - int((n - 1) * p / 100.0)


def run_timed(run, seconds):
    """Whole blocks of W.STRATA rounds, so that every run has the stated mix
    and covers every stratum of every parameter, for about `seconds`: a
    block starts only if half a block more ends before the deadline, or if
    fewer than ten samples lie beyond the tail percentile.  (With
    single rounds, a `reduce` run on a slow host stopped after two of a
    block's three rounds, and its throughput depended on which strata those
    were.)  Returns the end-to-end metrics at the nominal host speed and the
    record, which also has the raw times."""
    tail_p = TAIL_PERCENTILE[run.workload]
    spans = []
    by_family = {}
    round_no = 0
    with HostSpeed() as host:
        start = perf_counter()
        while True:
            for draw in run.draws(round_no):
                spans.append(run.op(draw))
                by_family.setdefault(draw.family, []).append(len(spans) - 1)
            round_no += 1
            elapsed = perf_counter() - start
            if round_no % W.STRATA == 0:
                block = elapsed * W.STRATA / round_no
                if (elapsed + block / 2 >= seconds
                        and samples_beyond(len(spans), tail_p) >= 10):
                    break
    n = len(spans)
    raw = [e - s - host.busy(s, e) for s, e in spans]
    latencies = [v * host.factor(*span) for v, span in zip(raw, spans)]
    # the loop's time between operations (writing inputs, checking) is
    # scaled by the run's mean factor
    factor = host.factor()
    loop = elapsed - host.busy(start, start + elapsed)
    nominal = sum(latencies) + (loop - sum(raw)) * factor
    tail = percentile(latencies, tail_p)
    metrics = {
        "latency_s.p50": (percentile(latencies, 50), "s"),
        "latency_s.tail": (tail, "s"),
        "throughput_ops_s": (n / nominal, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    rec = run.record(n, rounds=round_no, tail_percentile=tail_p,
                     samples=n,
                     samples_beyond_tail=sum(1 for v in latencies if v > tail),
                     host_factor=factor,
                     raw={"latency_s.p50": percentile(raw, 50),
                          "latency_s.tail": percentile(raw, tail_p),
                          "throughput_ops_s": n / loop},
                     family_p50_s={f: percentile([latencies[i] for i in ix], 50)
                                   for f, ix in by_family.items()})
    return metrics, rec


def run_traced(run, out_dir):
    """Fixed rounds, each operation untraced then traced; per-layer metrics."""
    tracer = Tracer()
    plain = traced = 0.0
    n = 0
    for round_no in range(TRACE_ROUNDS[run.workload]):
        for draw in run.draws(round_no):
            start, end = run.op(draw)
            plain += end - start
            tracer.install()
            try:
                start, end = run.op(draw, tracer)
            finally:
                tracer.uninstall()
            traced += end - start
            n += 1
    summary = tracer.summary()
    metrics = {}
    for name, unit in LAYER_METRICS:
        if name == "trace.overhead_ratio":
            value = traced / plain
        elif name == "cli.self_s":
            value = summary["cli.main"]["self_s"] / n
        else:
            layer, _, field = name.rpartition(".")
            value = summary.get(layer, {}).get(field, 0) / n
        metrics[name] = (value, unit)
    path = os.path.join(out_dir, "trace-%s-%d.json" % (run.workload,
                                                       run.seed))
    with open(path, "w") as fh:
        json.dump({"spans": tracer.spans, "layers": summary}, fh)
    # the untraced pass of each draw is checked too, so mix counts double
    return metrics, run.record(2 * n, rounds=TRACE_ROUNDS[run.workload],
                               traced_operations=n, spans_file=path)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "parasym", "cli.py")):
        print("error: run from the root of a parasym source tree "
              "(no src/parasym/cli.py under %s)" % root, file=sys.stderr)
        return 2
    setup_s = None if args.trace else measure_setup(root)
    sys.path.insert(0, os.path.join(root, "src"))
    from parasym import cli

    out_dir = os.path.join(root, "bench", "out")
    workdir = os.path.join(out_dir, "%s-%d-%d" % (args.workload, args.seed,
                                                  os.getpid()))
    os.makedirs(workdir)
    try:
        run = Run(cli, args.workload, args.seed, workdir)
        run.op(W.warmup_draw(args.workload, args.seed, workdir))
        run.mix.clear()
        if args.trace:
            metrics, rec = run_traced(run, out_dir)
        else:
            metrics, rec = run_timed(run, args.seconds)
            # the imports ran just before the timed loop; its mean factor
            # follows the drift between runs, not the noise within one
            metrics["setup_s"] = (setup_s * rec["host_factor"], "s")
            rec["raw"]["setup_s"] = setup_s
        # in the per-layer run only, where they do not lengthen the timed
        # runs that make up most of a benchmark's time
        defects = Run(cli, args.workload, args.seed, workdir)
        if args.trace:
            for draw in W.known_defect_draws(args.workload, workdir):
                defects.op(draw)
            rec["known_defects"] = {"probed": defects.attempted,
                                    "failing": defects.failures}
    finally:
        shutil.rmtree(workdir)
    print(json.dumps({"record": rec}))
    print(json.dumps({
        "correct": not any(f["wrong_answer"]
                           for f in run.failures + defects.failures),
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
