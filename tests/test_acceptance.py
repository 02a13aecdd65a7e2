"""Acceptance suite: every criterion runs at its stated tolerance and
prints one pass/fail line.  `primearcs verify-all` runs the same checks
from the command line.
"""

import time

from primearcs import acceptance


def report(result):
    flag = "PASS" if result.passed else "FAIL"
    print(f"[{flag}] {result.name}: {result.detail} ({result.elapsed:.1f} s)")
    assert result.passed, f"{result.name}: {result.detail}"


def test_criterion_01_lp_closed_form():
    report(acceptance.criterion_lp_closed_form())


def test_criterion_02_parseval(table_large):
    res = acceptance.criterion_parseval(table_large)
    report(res)
    # the detail line names the measured number and the fixed gate it met
    assert "max relative deviation" in res.detail
    assert "(tol 1e-9)" in res.detail


def test_criterion_03_fourier_pair():
    report(acceptance.criterion_fourier_pair())


def test_criterion_04_meansquare_oracle(table_large):
    report(acceptance.criterion_meansquare_oracle(table_large))


def test_criterion_05_search_oracle(table_large):
    report(acceptance.criterion_search_oracle(table_large))


def test_criterion_06_counting_identity(table_large):
    report(acceptance.criterion_counting_identity(table_large))


def test_criterion_07_telescoping(table_large):
    report(acceptance.criterion_telescoping(table_large))


def test_criterion_08_l2_shape(table_large):
    frozen = acceptance.load_frozen()
    assert "truncated_l2_ratio_max" in frozen, \
        "frozen monitor constants missing from package data"
    report(acceptance.criterion_l2_shape(table_large, frozen=frozen))


def test_criterion_08_missing_constant_fails_and_writes_nothing(table_large):
    # a missing frozen constant is a FAIL; the criterion never records its
    # own measurement as the constant it is checked against
    before = acceptance._FROZEN_PATH.read_bytes()
    frozen = acceptance.load_frozen()
    del frozen["truncated_l2_ratio_max"]
    res = acceptance.criterion_l2_shape(table_large, frozen=frozen)
    assert not res.passed and "--record-monitors" in res.detail
    assert "truncated_l2_ratio_max" not in frozen
    assert acceptance._FROZEN_PATH.read_bytes() == before


def test_criterion_08_records_only_on_request(table_large, tmp_path,
                                              monkeypatch):
    path = tmp_path / "data" / "frozen_monitors.json"
    monkeypatch.setattr(acceptance, "_FROZEN_PATH", path)
    res = acceptance.criterion_l2_shape(table_large, frozen={}, record=True)
    assert res.passed and "recorded" in res.detail
    assert acceptance.load_frozen()["truncated_l2_ratio_max"] > 0


def test_criterion_09_bound_monitors(table_large):
    report(acceptance.criterion_bound_monitors(table_large))


def test_criterion_10_convergent_law():
    report(acceptance.criterion_convergent_law())


def test_criterion_11_solutions_at_scale(table_large):
    report(acceptance.criterion_solutions_at_scale(table_large))


def test_criterion_11_detail_prints_the_row(table_large):
    # the first solution as its (p1, p2, p3, residual) numbers, not the
    # repr of the record class that holds them
    detail = acceptance.criterion_solutions_at_scale(table_large).detail
    assert "(first: (" in detail and "Record" not in detail


def test_criterion_past_budget_fails():
    # a check that passes but runs past its runtime budget is a FAIL, and
    # its detail keeps the check's own line
    slow = acceptance._criterion("slow", 0.01)(
        lambda: (time.sleep(0.05), (True, "checked"))[1])
    res = slow()
    assert not res.passed and res.elapsed >= 0.05 and res.budget == 0.01
    assert res.detail.startswith("checked; RUNTIME")
