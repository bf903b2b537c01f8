"""`parasym --json analyze` on every corpus file, and `parasym --json kernels
list` and `kernels verify NAME` at each entry's default constants and at the
constants of DRAWN, byte for byte against the reports committed in
tests/data/, tests/data/kernels/ and tests/data/kernels_drawn/.  After a
change meant to alter a report, regenerate them from the repository root with

    PYTHONPATH=src python -m parasym.cli --json analyze equations/NAME.eq \\
        > tests/data/NAME.json
    PYTHONPATH=src python -m parasym.cli --json kernels list \\
        > tests/data/kernels/list.json
    PYTHONPATH=src python -m parasym.cli --json kernels verify NAME \\
        > tests/data/kernels/NAME.json
    PYTHONPATH=src python -m parasym.cli --json kernels verify NAME \\
        --CONSTANT VALUE ... > tests/data/kernels_drawn/NAME.json
"""

from pathlib import Path

import pytest

from parasym import cli
from parasym import kernels as KN

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
STEMS = sorted(p.stem for p in (ROOT / "equations").glob("*.eq"))
# fixed non-default constants inside the ranges that bench/workloads.py draws
DRAWN = {
    "black_scholes": "--sigma 0.25 --r 0.03 --x 1.7",
    "heat2d_timedep": "--t0 1.2 --x0 -0.6 --y0 0.8",
    "heat_1d": "--y 0.37",
    "linear_potential": "--beta -1.3 --y 0.42",
    "linear_potential_nd": "--n 1 --b 0.4,-0.8,0.2,0.9 "
                           "--y -0.25,0.35,0.1,-0.4",
    "mehler_hyperbolic": "--y -0.61",
    "mehler_trigonometric": "--y 0.73",
    "ou_fp": "--b 0.7 --sigma 1.3 --y -0.45",
    "ou_nonfp": "--b 1.6 --sigma 0.9 --x 1.1",
    "radial": "--n 4.5 --y 1.4 --x 0.8",
    "radial_gaussian": "--k 3.3",
    "second_canonical": "--mu -1.1 --y 1.6",
}


def test_every_corpus_file_has_a_report():
    assert sorted(p.stem for p in DATA.glob("*.json")) == STEMS


def test_every_catalog_entry_has_a_report():
    assert sorted(p.stem for p in (DATA / "kernels").glob("*.json")) \
        == sorted(KN.list_kernels() + ["list"])
    assert sorted(p.stem for p in (DATA / "kernels_drawn").glob("*.json")) \
        == sorted(DRAWN) == KN.list_kernels()


@pytest.mark.parametrize("stem", STEMS)
def test_analyze_json_is_byte_identical(stem, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)          # so that input.path reads equations/...
    assert cli.main(["--json", "analyze", "equations/%s.eq" % stem]) == 0
    assert capsys.readouterr().out == (DATA / (stem + ".json")).read_text()


@pytest.mark.parametrize("argv", [["list"]] + [
    ["verify", name] for name in KN.list_kernels()] + [
    ["verify", name] + DRAWN[name].split() for name in sorted(DRAWN)],
    ids=" ".join)
def test_kernels_json_is_byte_identical(argv, capsys):
    assert cli.main(["--json", "kernels"] + argv) == 0
    folder = "kernels_drawn" if len(argv) > 2 else "kernels"
    want = (DATA / folder / (argv[:2][-1] + ".json")).read_text()
    assert capsys.readouterr().out == want
