"""Acceptance gate: every criterion runs at its stated tolerance and prints
one pass/fail line.  Heavy statistical cells use frozen master seeds, so the
whole suite is deterministic up to worker scheduling (which never affects
results)."""

import os

import pytest

from hxplore import acceptance
from hxplore.acceptance import CheckResult, Record, format_line

WORKERS = min(os.cpu_count() or 1, 4)
_IDS = [f"criterion_{num:02d}" for num, _ in acceptance.CRITERIA]


@pytest.mark.parametrize("number,fn", acceptance.CRITERIA, ids=_IDS)
def test_criterion(number, fn, capsys):
    res = fn(workers=WORKERS)
    with capsys.disabled():
        print(f"\n{format_line(res)}")
    assert res.passed, res.details


def test_record_judges_its_band():
    assert Record("x", 0.5, 0.0, 1.0).passed
    assert not Record("x", 1.5, 0.0, 1.0).passed
    assert not Record("x", -0.5, 0.0, 1.0).passed
    # closed edges pass, strict edges fail
    assert Record("x", 1.0, 0.0, 1.0).passed and Record("x", 0.05, hi=0.05).passed
    assert not Record("x", 1.0, 0.0, 1.0, strict=True).passed
    assert not Record("x", 0.05, hi=0.05, strict=True).passed
    assert not Record("x", 0.001, lo=0.001, strict=True).passed
    # None and NaN fail, even in an unbounded band
    assert not Record("x", None, hi=1.0).passed
    assert not Record("x", float("nan")).passed
    assert Record("x", True, True, True).passed and not Record("x", False, True, True).passed


def test_grid_record_is_the_worst_case():
    cases = [("(r=2)", 1e-13), ("(r=3)", 5e-12), ("(r=4)", 2e-13)]
    rec = acceptance._extreme("max residual", cases, hi=1e-12, strict=True)
    assert rec == Record("max residual at (r=3)", 5e-12, hi=1e-12, strict=True)
    assert acceptance._extreme("min ratio", cases, min, lo=0.0).name == "min ratio at (r=2)"
    rec = acceptance._extreme("max residual", cases + [("(r=7)", float("nan"))], hi=1e-12)
    assert rec.name == "max residual at (r=7)" and not rec.passed


def test_details_name_each_failing_statistic_its_value_and_band():
    records = (Record("KS z1", 0.0712, hi=0.05, strict=True), Record("corr", 0.7661, 0.7146, 0.8346),
               Record("duality correlation", None, lo=0.9))
    res = CheckResult(5, "demo", 1.25, records)
    assert not res.passed
    assert res.details == ("KS z1 = 0.0712 (want (-inf, 0.05)); "
                           "duality correlation = None (want [0.9, inf])")
    assert format_line(res) == f"criterion  5 [FAIL] demo (1.2s) -- {res.details}"
    passing = CheckResult(5, "demo", 1.25, records[1:2])
    assert passing.passed and passing.details == "corr = 0.7661 (want [0.7146, 0.8346])"
