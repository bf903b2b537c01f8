"""`parasym --json analyze` on every corpus file, byte for byte against the
reports committed in tests/data/.  After a change meant to alter a report,
regenerate them from the repository root with

    PYTHONPATH=src python -m parasym.cli --json analyze equations/NAME.eq \\
        > tests/data/NAME.json
"""

from pathlib import Path

import pytest

from parasym import cli

ROOT = Path(__file__).resolve().parent.parent
STEMS = sorted(p.stem for p in (ROOT / "equations").glob("*.eq"))


def test_every_corpus_file_has_a_report():
    assert sorted(p.stem for p in (ROOT / "tests" / "data").glob("*.json")) \
        == STEMS


@pytest.mark.parametrize("stem", STEMS)
def test_analyze_json_is_byte_identical(stem, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)          # so that input.path reads equations/...
    assert cli.main(["--json", "analyze", "equations/%s.eq" % stem]) == 0
    want = (ROOT / "tests" / "data" / (stem + ".json")).read_text()
    assert capsys.readouterr().out == want
