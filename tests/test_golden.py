"""`parasym --json analyze` on every corpus file, and `parasym --json kernels
list` and `kernels verify NAME` at each entry's default constants, byte for
byte against the reports committed in tests/data/ and tests/data/kernels/.
After a change meant to alter a report, regenerate them from the repository
root with

    PYTHONPATH=src python -m parasym.cli --json analyze equations/NAME.eq \\
        > tests/data/NAME.json
    PYTHONPATH=src python -m parasym.cli --json kernels list \\
        > tests/data/kernels/list.json
    PYTHONPATH=src python -m parasym.cli --json kernels verify NAME \\
        > tests/data/kernels/NAME.json
"""

from pathlib import Path

import pytest

from parasym import cli
from parasym import kernels as KN

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
STEMS = sorted(p.stem for p in (ROOT / "equations").glob("*.eq"))


def test_every_corpus_file_has_a_report():
    assert sorted(p.stem for p in DATA.glob("*.json")) == STEMS


def test_every_catalog_entry_has_a_report():
    assert sorted(p.stem for p in (DATA / "kernels").glob("*.json")) \
        == sorted(KN.list_kernels() + ["list"])


@pytest.mark.parametrize("stem", STEMS)
def test_analyze_json_is_byte_identical(stem, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)          # so that input.path reads equations/...
    assert cli.main(["--json", "analyze", "equations/%s.eq" % stem]) == 0
    assert capsys.readouterr().out == (DATA / (stem + ".json")).read_text()


@pytest.mark.parametrize("argv", [["list"]] + [
    ["verify", name] for name in KN.list_kernels()], ids=" ".join)
def test_kernels_json_is_byte_identical(argv, capsys):
    assert cli.main(["--json", "kernels"] + argv) == 0
    want = (DATA / "kernels" / (argv[-1] + ".json")).read_text()
    assert capsys.readouterr().out == want
