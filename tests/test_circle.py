import cmath
import logging
import math
import re
import tracemalloc

import numpy as np
import pytest

from primearcs.circle import (ProblemInstance, arc_params,
                              bound_ghosh, bound_vaughan, classify_minor,
                              eta_exponent, integrand, integrate_I,
                              major_arc_split, minor_arc_l2, trivial_tails, V,
                              window_factors)
from primearcs.errors import ValidationError
from primearcs.expsums import WindowSpec, fejer_K, prime_window
from primearcs.numutil import powk_extended
from primearcs.rational import parse_hireal


@pytest.fixture(scope="module")
def inst():
    return ProblemInstance(1.0, -math.sqrt(2.0), -1.0, k=1.05, varpi=0.0,
                           lambda_ratio=parse_hireal("-1/sqrt(2)"))


@pytest.fixture(scope="module")
def w500():
    return WindowSpec(X=500.0, k=1.05, delta=0.1)


class TestInstance:
    def test_zero_coefficient_rejected(self):
        with pytest.raises(ValidationError):
            ProblemInstance(0.0, 1.0, -1.0, k=1.05)

    def test_same_sign_flagged_not_rejected(self):
        bad = ProblemInstance(1.0, 2.0, 3.0, k=1.05)
        assert not bad.sign_ok
        assert any("sign" in w for w in bad.warnings)

    def test_k_range_warning(self):
        out = ProblemInstance(1.0, -1.0, 1.0, k=2.0)
        assert not out.k_in_range
        assert any("outside" in w for w in out.warnings)
        good = ProblemInstance(1.0, -1.0, 1.0, k=1.1)
        assert good.k_in_range and good.warnings == []

    def test_ratio_derived_when_missing(self):
        inst = ProblemInstance(1.0, -2.0, 1.0, k=1.05)
        assert inst.lambda_ratio.to_float() == pytest.approx(-0.5)


class TestArcParams:
    def test_exponent_arithmetic_k11(self):
        inst = ProblemInstance(1.0, -1.0, 1.0, k=1.1, eps=0.01)
        arc = arc_params(inst, 10**6)
        assert arc.P == pytest.approx(10 ** (6 * (4 / 5.5 - 0.01)), rel=1e-12)
        assert arc.eta == pytest.approx(
            10 ** (6 * (-(33 - 29 * 1.1) / (72 * 1.1) + 0.01)), rel=1e-12)
        assert arc.eta == pytest.approx(0.9477, rel=1e-3)
        assert arc.R == pytest.approx(
            arc.eta ** -2 * (10**6) ** (0.1 / 4.4) * math.log(10**6) ** 3,
            rel=1e-12)

    def test_eta_exponent_vanishes_at_boundary(self):
        from fractions import Fraction
        assert eta_exponent(Fraction(33, 29), 0) == 0

    def test_partition_covers_line(self, inst):
        arc = arc_params(inst, 500.0)
        cut = arc.major[1]
        assert arc.major == (-cut, cut)
        assert arc.minor[0][1] == -cut and arc.minor[1][0] == cut
        assert arc.minor[0][0] == -arc.R and arc.minor[1][1] == arc.R
        assert str(arc.R) in arc.trivial or "alpha" in arc.trivial
        assert cut < arc.R

    def test_degenerate_decomposition_rejected(self):
        weird = ProblemInstance(1.0, -1.0, 1.0, k=0.2, eps=1.0)
        with pytest.raises(ValidationError):
            arc_params(weird, 100.0)


class TestIntegrand:
    def test_alpha_zero_real_product(self, inst, table, w500):
        eta = 0.5
        val = integrand(inst, table, w500, eta, 0.0)
        fac = window_factors(inst, table, w500)
        want = (fac[0].eval(np.array([0.0]))[0].real
                * fac[1].eval(np.array([0.0]))[0].real
                * fac[2].eval(np.array([0.0]))[0].real * eta ** 2)
        assert val.imag == 0
        assert val.real == pytest.approx(want, rel=1e-12)

    def test_conjugate_symmetry(self, inst, table, w500):
        a = integrand(inst, table, w500, 0.5, 0.37)
        b = integrand(inst, table, w500, 0.5, -0.37)
        assert b == pytest.approx(a.conjugate(), rel=1e-10)

    def test_brute_triple_sum(self, inst, table):
        # tiny instance: direct triple sum over the window
        w = WindowSpec(X=100.0, k=1.05, delta=0.1)
        alpha, eta = 0.3, 0.5
        val = integrand(inst, table, w, eta, alpha)
        lo, hi = 10.0, 100.0
        total = 0j
        p1s, lg1 = prime_window(table, 1.0, lo, hi)
        p2s, lg2 = prime_window(table, 2.0, lo, hi)
        p3s, lg3 = prime_window(table, 1.05, lo, hi)
        for p1, l1 in zip(p1s, lg1):
            for p2, l2 in zip(p2s, lg2):
                for p3, l3 in zip(p3s, lg3):
                    phase = (inst.lambda1 * float(p1)
                             + inst.lambda2 * float(p2) ** 2
                             + inst.lambda3 * float(powk_extended(p3, 1.05)))
                    total += l1 * l2 * l3 * cmath.exp(2j * math.pi * phase * alpha)
        total *= fejer_K(eta, alpha)
        assert val == pytest.approx(total, rel=1e-9)


class TestExpSumFactor:
    def test_panels_match_extended_eval(self, inst, table_large):
        # criterion-6 lambda1 factor at X = 1e6: f*alpha reaches 5e9 cycles.
        # Dyadic centres and offsets make every node c + o exact in float64;
        # 100 centres span four blocks of 2^21 phases.
        fac = window_factors(inst, table_large, WindowSpec(X=1e6, k=1.05))[0]
        offs = np.array([-2.0 ** -12, 0.0, 2.0 ** -11])
        for alpha in (100.0, 5000.0):
            centers = alpha + 2.0 ** -10 * np.arange(100)
            got = fac.eval_panels(centers, offs)
            want = fac.eval((centers[:, None] + offs[None, :]).ravel())
            assert np.max(np.abs(got.ravel() - want)) <= 1e-9 * fac.mass


class TestIntegrateI:
    def test_empty_set(self, inst, table, w500):
        assert integrate_I(inst, table, w500, 0.5, []) == 0j

    def test_symmetric_is_real(self, inst, table, w500):
        val = integrate_I(inst, table, w500, 0.5, [(-2.0, 2.0)], tol=1e-3)
        assert val.imag == 0.0

    def test_asymmetric_pieces_sum(self, inst, table, w500):
        whole = integrate_I(inst, table, w500, 0.5, [(-1.0, 2.0)], tol=1e-6)
        parts = (integrate_I(inst, table, w500, 0.5, [(-1.0, 0.5)], tol=5e-7)
                 + integrate_I(inst, table, w500, 0.5, [(0.5, 2.0)], tol=5e-7))
        assert parts == pytest.approx(whole, abs=5e-5)

    def test_logs_panels_and_error(self, inst, table, w500, caplog):
        with caplog.at_level(logging.DEBUG, logger="primearcs.circle"):
            integrate_I(inst, table, w500, 0.5, [(0.0, 2.0)], tol=1e-9)
        msgs = [r.getMessage() for r in caplog.records]
        # one line per pass, then integrate_I's summary
        assert msgs[-1].startswith("integrate_I: 1 pieces")
        passes = [re.search(r"(\d+) panels, GL8 vs GL12, est error (\S+)", m)
                  for m in msgs[:-1]]
        assert len(passes) >= 2 and all(passes)
        panels = [int(m.group(1)) for m in passes]
        errors = [float(m.group(2)) for m in passes]
        assert panels == [panels[0] * 2 ** i for i in range(len(panels))]
        assert errors[-1] <= 1e-9 < errors[-2]

    def test_symmetric_range_one_pass(self, inst, table, w500, caplog):
        # (-2, 2) folds onto two copies of (0, 2): one doubling sequence,
        # and the value is exactly 2 Re of the half range at half the tol
        tol = 2e-9
        with caplog.at_level(logging.DEBUG, logger="primearcs.circle"):
            whole = integrate_I(inst, table, w500, 0.5, [(-2.0, 2.0)], tol=tol)
        panels = [int(m.group(1)) for m in
                  (re.search(r"(\d+) panels, GL8", r.getMessage())
                   for r in caplog.records) if m]
        assert len(panels) >= 2
        assert panels == [panels[0] * 2 ** i for i in range(len(panels))]
        half = integrate_I(inst, table, w500, 0.5, [(0.0, 2.0)], tol=tol / 2)
        assert whole == complex(2.0 * half.real, 0.0)

    def test_logs_summed_error(self, inst, table, w500, caplog):
        tol = 1e-6
        with caplog.at_level(logging.DEBUG, logger="primearcs.circle"):
            integrate_I(inst, table, w500, 0.5, [(-1.0, 1.0), (1.0, 2.0)],
                        tol=tol)
        errors = [float(m.group(1)) for m in
                  (re.search(r"GL12, est error (\S+)", r.getMessage())
                   for r in caplog.records) if m]
        (m,) = [m for m in (re.search(
            r"integrate_I: (\d+) pieces, (\d+) reused by symmetry, summed "
            r"est error (\S+)", r.getMessage()) for r in caplog.records) if m]
        assert (int(m.group(1)), int(m.group(2))) == (3, 1)
        # (0, 1) integrated once and counted twice, (1, 2) once: within
        # tol, and at least the last pass's own estimate
        assert errors[-1] <= float(m.group(3)) <= tol

    def test_unbounded_interval_rejected(self, inst, table, w500):
        with pytest.raises(ValidationError):
            integrate_I(inst, table, w500, 0.5, [(0.0, math.inf)])

    def test_small_counting_identity(self, inst, table):
        # scaled-down version of the full acceptance check
        from primearcs.search import weighted_solution_sum
        w = WindowSpec(X=120.0, k=1.05, delta=0.1)
        eta = 0.5
        enum_val = weighted_solution_sum(inst, table, 120.0, eta)
        a_cut = 400.0 / eta
        val = integrate_I(inst, table, w, eta, [(-a_cut, a_cut)], tol=0.05)
        assert val.real == pytest.approx(enum_val, rel=2e-2)
        # truncation-tail bound: |I - enum| <= (triple l1 mass) * 2/(pi^2 A)
        fac = window_factors(inst, table, w)
        mass = math.prod(f.mass for f in fac)
        assert abs(val.real - enum_val) <= mass * 2.0 / (math.pi ** 2 * a_cut)


class TestMajorArc:
    def test_telescoping_and_dominance(self, inst, table):
        # scaled-down instance; the full X=500 case runs in acceptance
        w = WindowSpec(X=300.0, k=1.05, delta=0.1)
        out = major_arc_split(inst, table, w, 0.5, tol=2e-3)
        gap = abs(out["J1"] + out["J2"] + out["J3"] + out["J4"] - out["I_M"])
        assert gap <= 4e-3
        assert abs(out["J1"]) > max(abs(out["J2"]), abs(out["J3"]),
                                    abs(out["J4"]))
        lower = out["J1"] / (0.5 ** 2 * 300.0 ** (0.5 + 1 / 1.05))
        assert lower > 0  # recorded ratio of the main-term lower bound


class TestMinorArc:
    def test_V_definition(self, inst, table, w500):
        fac = window_factors(inst, table, w500)
        for alpha in (0.0, 0.3, 1.4):
            s1 = abs(fac[0].eval(np.array([alpha]))[0])
            s2 = abs(fac[1].eval(np.array([alpha]))[0])
            v = V(inst, table, w500, alpha)
            assert v == pytest.approx(min(math.sqrt(s1), s2), rel=1e-12)
            assert v <= s2 + 1e-12
            assert v ** 2 <= s1 + 1e-9

    def test_sup_monitor_on_grid(self, inst, table, w500):
        arc = arc_params(inst, 500.0)
        grid = np.linspace(arc.major[1], min(arc.R, 20.0), 64)
        sup_v = max(V(inst, table, w500, float(a)) for a in grid)
        comparator = 500.0 ** ((29 * 1.05 + 3) / (72 * 1.05) + inst.eps)
        assert 0 < sup_v / comparator < math.inf

    def test_partition_classify(self, inst, table, w500):
        grid = np.linspace(0.25, 5.0, 101)
        mask = classify_minor(inst, table, w500, grid)
        assert mask.dtype == bool
        assert int(mask.sum()) + int((~mask).sum()) == len(grid)

    def test_l2_monitors(self, inst, table, w500):
        arc = arc_params(inst, 500.0)
        rows = minor_arc_l2(inst, table, w500, 0.5, arc)
        assert len(rows) == 3
        for row in rows:
            assert row["value"] > 0 and row["comparator"] > 0
            assert row["ratio"] == row["value"] / row["comparator"]


class TestBounds:
    def test_vaughan_small_q(self, table):
        ratio = bound_vaughan(table, 1e5, 1e-7, 0, 1)
        assert 0 < ratio < 1

    def test_vaughan_exact_rational(self, table):
        ratio = bound_vaughan(table, 1e5, 2 / 7, 2, 7)
        assert math.isfinite(ratio) and ratio >= 0

    def test_ghosh_small_q(self, table):
        ratio = bound_ghosh(table, 1e5, 1e-7, 0, 1, eps=0.05)
        assert 0 < ratio < 1

    def test_precondition_violations(self, table):
        with pytest.raises(ValidationError):
            bound_vaughan(table, 1e5, 0.5, 2, 4)       # gcd != 1
        with pytest.raises(ValidationError):
            bound_vaughan(table, 1e5, 0.9, 1, 2)       # too far from a/q

    def test_ghosh_bracket_minimum_near_sqrt_x(self):
        # comparator bracket (1/q + X^-1/4 + q/X)^(1/4): decreasing then
        # increasing in q, minimal near q = sqrt(X)
        X = 1e5

        def bracket(q):
            return 1 / q + X ** -0.25 + q / X

        qs = np.logspace(0, 4.5, 200)
        vals = [bracket(q) for q in qs]
        qmin = qs[int(np.argmin(vals))]
        assert 0.3 * math.sqrt(X) < qmin < 3 * math.sqrt(X)


class TestTrivialTails:
    def test_huge_R_vanishes(self, inst, table, w500):
        rep = trivial_tails(inst, table, w500, 1e7, tol=1e-3)
        assert all(v < 1e-2 for v in rep.values)

    def test_k1_unit_interval_parseval(self, table, w500, inst):
        # for the k=1 sum the unit-interval integral is exactly sum log^2 p
        ps, logs = prime_window(table, 1.0, 50.0, 500.0)
        want = float((logs ** 2).sum())
        from primearcs.numutil import exp_pair_integral
        for n in (400, 1000):
            got = exp_pair_integral(ps.astype(float), logs, float(n),
                                    float(n + 1))
            assert got == pytest.approx(want, rel=1e-9)

    def test_ratio_monitor_across_scales(self, inst, table):
        for X in (300.0, 700.0, 1500.0):
            w = WindowSpec(X=X, k=1.05, delta=0.1)
            arc = arc_params(inst, X)
            rep = trivial_tails(inst, table, w, arc.R, tol=3.0)
            a_ratio = rep.values[0] * abs(inst.lambda1) * arc.R / (X * math.log(X))
            assert 0 < a_ratio < 50.0

    def test_block_memory_bounded(self, table):
        # 4096 slices by ~8000 pair frequencies per tail at X = 900: the
        # block's phases go in row slices, not as one 270 MB matrix
        inst = ProblemInstance(1.0, -math.sqrt(2.0), -1.0, k=1.05, varpi=0.3)
        w = WindowSpec(X=900.0, k=1.05, delta=0.1)
        arc = arc_params(inst, 900.0)
        tracemalloc.start()
        try:
            rep = trivial_tails(inst, table, w, arc.R, tol=1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64 * 2 ** 20
        assert rep.slices == (8192, 8192, 4096)

    def test_requires_R(self, inst, table, w500):
        with pytest.raises(ValidationError):
            trivial_tails(inst, table, w500, 0.5)
