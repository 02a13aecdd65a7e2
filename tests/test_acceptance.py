"""Acceptance suite: every criterion runs at its stated tolerance and
prints one pass/fail line.  `primearcs verify-all` runs the same checks
from the command line.
"""

import logging
import math
import re
import time

import numpy as np
import pytest

from primearcs import acceptance, circle


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


def test_criterion_03_reports_estimate():
    # the detail carries the largest quadrature estimate of the six pairs
    res = acceptance.criterion_fourier_pair()
    m = re.search(r"largest quadrature estimate (\S+)$", res.detail)
    ests = [circle.verify_fourier_pair(eta, t, 1e4)[1]
            for eta in (0.1, 1.0) for t in (0.0, eta / 2.0, 2.0 * eta)]
    assert m.group(1) == f"{max(ests):.2e}" and 0.0 < max(ests) < 1e-12


def test_criterion_04_meansquare_oracle(table_large):
    report(acceptance.criterion_meansquare_oracle(table_large))


def test_criterion_05_search_oracle(table_large):
    report(acceptance.criterion_search_oracle(table_large))


def test_criterion_06_counting_identity(table_large):
    report(acceptance.criterion_counting_identity(table_large))


def test_criterion_06_panel_count(table_large, caplog):
    # criterion 6 integrates [-2000, 2000] at tol 0.2 as one midpoint pass
    # over [0, 2000], used twice, at step 1/(c F), F the signed spectral
    # bound max |t| + eta, which a triple attains, and c = 1.05, the first
    # step factor, whose one-sided bound 1.2e-4 meets half the piece's tol:
    # 1 997 291 nodes, where one GL12 pass over [0, 2000] on the same bound
    # took 810 438 panels of 12 nodes
    with caplog.at_level(logging.DEBUG, logger="primearcs.circle"):
        report(acceptance.criterion_counting_identity(table_large))
    assert not any("GL12" in r.getMessage() for r in caplog.records)
    (m,) = [m for m in (re.search(r"gauss panels on \[0, 2000\]: (\d+) "
                                  r"panels, GL1, bound (\S+), .*"
                                  r"\(spectral bound ([^,]+), phase bound",
                                  r.getMessage()) for r in caplog.records) if m]
    n, spectral = int(m.group(1)), float(m.group(3))
    inst, w, eta = acceptance._criterion6_instance()
    facs = circle.window_factors(inst, table_large, w)
    t = np.add.outer(np.add.outer(facs[0].freqs, facs[1].freqs), facs[2].freqs)
    assert spectral == pytest.approx(np.max(np.abs(t)) + eta, rel=1e-12)
    c = circle.MIDPOINT_C[0]
    assert c == 1.05
    assert n == math.ceil(2000.0 * c * spectral) == 1_997_291
    m_p = math.prod(f.mass for f in facs)
    assert float(m.group(2)) == pytest.approx(
        circle.midpoint_bound(2000.0, spectral, m_p, c)[1], rel=1e-3)
    assert float(m.group(2)) <= 0.05
    gl12 = circle.gl12_panels(0.0, 2000.0, spectral, m_p * eta ** 2, 0.1)[0]
    assert gl12 == 810_438 and n < 12 * gl12


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
