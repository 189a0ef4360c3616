"""Every report in the committed corpus regenerates to its recorded bytes.

See ``report_corpus.py`` for the cases, the host policy and how to
re-record the corpus after a deliberate, declared change of values.
"""

from __future__ import annotations

import json
import math
import shutil

import pytest

import report_corpus
from report_corpus import CASES, REPORTS, ForeignHostWarning, mismatches, to_text


def test_reports_match_corpus(tmp_path):
    found = mismatches(tmp_path)
    assert not found, "reports moved from the corpus:\n" + "\n".join(found)


def test_corpus_covers_every_command_and_oracle():
    commands = {argv[0] for argv in report_corpus.CLI_CASES.values()}
    assert commands == {"bound", "exact", "sample", "charfn", "constants", "verify"}
    assert sorted(p.stem for p in REPORTS.glob("*.json")) == sorted(CASES)


def _moved_copy(tmp_path, name, move):
    """A copy of the recorded reports where ``move`` has changed ``name``'s first float."""
    folder = tmp_path / "recorded"
    shutil.copytree(REPORTS, folder)
    path = folder / f"{name}.json"
    payload = json.loads(path.read_text())
    move(payload)
    path.write_text(to_text(payload))
    return folder


def _one_ulp(payload):
    payload["c1"] = math.nextafter(payload["c1"], math.inf)


def _drop_key(payload):
    del payload["c1_published"]


def _relative_1e6(payload):
    payload["c1"] *= 1.0 + 1e-6


@pytest.mark.parametrize("move", [_one_ulp, _drop_key])
def test_a_moved_report_is_named(tmp_path, move):
    recorded = _moved_copy(tmp_path, "constants-default", move)
    (tmp_path / "out").mkdir()
    found = mismatches(tmp_path / "out", ("bound-gauss7", "constants-default"), recorded)
    assert len(found) == 1
    assert found[0].startswith("constants-default: ")


def test_foreign_host_compares_at_tolerance(tmp_path, monkeypatch):
    monkeypatch.setattr(report_corpus, "host_stamp", lambda: {"numpy": "0.0", "machine": "elsewhere"})
    names = ("bound-gauss7", "constants-default")
    (tmp_path / "out").mkdir()
    # One ulp is within the tolerance: announced, compared, and accepted.
    recorded = _moved_copy(tmp_path / "ulp", "constants-default", _one_ulp)
    with pytest.warns(ForeignHostWarning, match="rtol"):
        assert mismatches(tmp_path / "out", names, recorded) == []
    # A missing key or a relative move of 1e-6 still fails, naming the report.
    for move in (_drop_key, _relative_1e6):
        recorded = _moved_copy(tmp_path / move.__name__, "constants-default", move)
        with pytest.warns(ForeignHostWarning):
            found = mismatches(tmp_path / "out", names, recorded)
        assert [line.split(":")[0] for line in found] == ["constants-default"]
