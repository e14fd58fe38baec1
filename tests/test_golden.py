"""Every golden report renders byte for byte as stored (see
golden_reports.py for the cases and how to rewrite them)."""

import json

import pytest

from golden_reports import CASES, GOLDEN, case_id, render


def test_no_stray_files():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(case_id(*case) for case in CASES)


@pytest.mark.parametrize("case", CASES, ids=[case_id(*case) for case in CASES])
def test_report_matches_golden(case):
    assert render(*case) == (GOLDEN / case_id(*case)).read_text()


@pytest.mark.parametrize("case", [case for case in CASES if case[0].endswith("-tampered") and case[2]],
                         ids=lambda case: case[0])
def test_tampered_artifacts_fail(case):
    assert json.loads((GOLDEN / case_id(*case)).read_text())["ok"] is False
