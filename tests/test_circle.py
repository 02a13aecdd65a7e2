import cmath
import logging
import math
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import sici

from primearcs import circle
from primearcs.circle import (ExpSumFactor, ProblemInstance, _slice_pairs,
                              _trigamma_upper, _unit_slices, arc_params,
                              bound_ghosh, bound_vaughan, eta_exponent,
                              gauss_panels, gl12_panels, integrate_I,
                              major_arc_split, minor_arc_l2, trivial_tails,
                              verify_fourier_pair, window_factors)
from primearcs.errors import ConvergenceError, ValidationError
from primearcs.expsums import (WindowSpec, eval_T_grid, s_minus_u_weights,
                               window)
from primearcs.numutil import (exp_pair_integral, expand_square, frac_phase,
                               gl_rule, grid_sum, powk_extended)
from pointwise import factor_values, fejer_K, integrand


@pytest.fixture(scope="module")
def inst():
    return ProblemInstance(1.0, -math.sqrt(2.0), -1.0, k=1.05, varpi=0.0)


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
        want = (factor_values(fac[0], np.array([0.0]))[0].real
                * factor_values(fac[1], np.array([0.0]))[0].real
                * factor_values(fac[2], np.array([0.0]))[0].real * eta ** 2)
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
        p1s, _, lg1 = window(1.0, lo, hi, table)
        p2s, _, lg2 = window(2.0, lo, hi, table)
        p3s, _, lg3 = window(1.05, lo, hi, table)
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
        # the 68 906 frequencies on 100 centres span ten blocks of Q.
        fac = window_factors(inst, table_large, WindowSpec(X=1e6, k=1.05))[0]
        offs = np.array([-2.0 ** -12, 0.0, 2.0 ** -11])
        for alpha in (100.0, 5000.0):
            centers = alpha + 2.0 ** -10 * np.arange(100)
            got = fac.eval_panels(centers, offs)
            nodes = (centers[:, None] + offs[None, :]).ravel()
            want = factor_values(fac, nodes)
            assert np.max(np.abs(got.ravel() - want)) <= 1e-9 * fac.mass

    def test_two_level_panels_match_extended_eval(self, inst, table, caplog):
        # lambda1 and lambda3 factors at X = 1e4 (f*alpha reaches 5e7 cycles
        # at alpha = 5000); centres a + (2i+1) hw and GL12 offsets as
        # gauss_panels makes them; n = 1, 2, fewer centres than offsets,
        # and R both dividing n and not.  The oracle is a per-node
        # extended reduction, with the nodes themselves in extended
        # precision: rounding c + o to float64 alone moves the sum by up to
        # 1e-8 of its mass here.  With R > 1 the nodes are c_{Rq} + r h + o,
        # within 2 ulps of c_i + o on these centres.
        facs = window_factors(inst, table, WindowSpec(X=1e4, k=1.05))
        offs_unit = gl_rule(12)[0]
        m = len(offs_unit)
        ld = np.longdouble
        seen = set()
        for fac in (facs[0], facs[2]):
            hw = 0.37 / max(map(abs, fac.freq_range))
            for alpha in (100.0, 5000.0):
                for n in (1, 2, 7, 120, 121):
                    centers = alpha + (2.0 * np.arange(n) + 1.0) * hw
                    offs = offs_unit * hw
                    caplog.clear()
                    with caplog.at_level(logging.DEBUG, logger="primearcs.numutil"):
                        got = fac.eval_panels(centers, offs)
                    (log,) = [re.search(r"R = (\d+), (\d+) anchors, (\d+) phases",
                                        r.getMessage()) for r in caplog.records]
                    R, phases = int(log.group(1)), int(log.group(3))
                    assert phases == (-(-n // R) + R * m) * len(fac.freqs)
                    seen.add((n, R))
                    h = (centers[-1] - centers[0]) / max(n - 1, 1)
                    r = np.arange(n) % R
                    base = centers[np.arange(n) - r].astype(ld) + r * ld(h)
                    assert np.max(np.abs(base - centers)) <= 2 * np.spacing(alpha)
                    nodes = (base[:, None] + offs.astype(ld)[None, :]).ravel()
                    want = np.exp(2j * np.pi * frac_phase(fac.freqs[None, :],
                                                          nodes[:, None])) @ fac.weights
                    assert got.shape == (n, m)
                    assert np.max(np.abs(got.ravel() - want)) <= 1e-9 * fac.mass
        assert {(1, 1), (2, 1), (7, 1)} <= seen
        assert any(R > 1 and n % R == 0 for n, R in seen)
        assert any(R > 1 and n % R for n, R in seen)

    def test_panel_callers_go_through_eval_panels(self, inst, table,
                                                  monkeypatch):
        # the benchmark's layer trace times and counts factor sums by
        # wrapping ExpSumFactor.eval_panels, so every panel caller must
        # evaluate its factors there
        from primearcs.meansquare import l2_diff
        calls = []
        original = ExpSumFactor.eval_panels

        def spy(factor, centers, offs):
            calls[-1] += 1
            return original(factor, centers, offs)

        monkeypatch.setattr(ExpSumFactor, "eval_panels", spy)
        trapezoid = circle._trapezoid_I
        ran = []
        monkeypatch.setattr(circle, "_trapezoid_I",
                            lambda *a: ran.append(1) or trapezoid(*a))
        w = WindowSpec(X=300.0, k=1.05)
        for run in (
                lambda: integrate_I(inst, table, w, 0.5, [(0.0, 1.0)], 1e-3),
                lambda: integrate_I(inst, table, w, 0.5, [(-50.0, 50.0)], 0.2),
                lambda: major_arc_split(inst, table, w, 0.5, 1e-2),
                lambda: l2_diff(table, w, 0.01, method="grid")):
            calls.append(0)
            run()
        assert all(n > 0 for n in calls), calls
        assert ran == [1]  # the symmetric call took the trapezoid

    def test_frequency_blocks_bounded(self):
        # 2^18 frequencies on 20 offsets would make an 84 MB Q at R = 1; in
        # blocks of 2^17 / 20 frequencies the call peaks near 4 MB, and
        # the blocks' partial sums match the per-node extended oracle
        rng = np.random.default_rng(7)
        freqs = rng.uniform(-500.0, 500.0, 1 << 18)
        coeffs = rng.uniform(0.5, 1.5, 1 << 18)
        centers = 0.1 + 0.01 * np.arange(3)
        offs = np.linspace(-0.004, 0.004, 20)
        tracemalloc.start()
        try:
            got = grid_sum(freqs, coeffs, centers, offs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.shape == (3, 20) and peak <= 64 * 2 ** 20
        mass = float(np.sum(coeffs))
        for i, j in ((0, 0), (1, 7), (2, 19)):
            node = centers[i] + offs[j]
            want = np.exp(2j * np.pi * frac_phase(freqs, node)) @ coeffs
            assert abs(got[i, j] - want) <= 1e-12 * mass

    def test_few_centres_stay_small(self):
        # a wide window on 20 centres, as the truncated-L2 grid's first
        # pass makes it: Q's 2^17-entry frequency blocks keep P and Q near
        # 2 MiB each, where one block would hold 6.5 MB of each
        rng = np.random.default_rng(11)
        freqs = np.sort(rng.uniform(3.6e4, 7.2e4, 20433))
        coeffs = rng.uniform(-1.0, 1.0, 20433)
        centers = 1e-3 * (2.0 * np.arange(20) + 1.0)
        offs = np.linspace(-9e-4, 9e-4, 20)
        tracemalloc.start()
        try:
            got = grid_sum(freqs, coeffs, centers, offs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.shape == (20, 20) and peak <= 8 * 2 ** 20
        mass = float(np.sum(np.abs(coeffs)))
        for i, j in ((0, 0), (9, 11), (19, 19)):
            node = centers[i] + offs[j]
            want = np.exp(2j * np.pi * frac_phase(freqs, node)) @ coeffs
            assert abs(got[i, j] - want) <= 1e-12 * mass

    def test_jittered_centres_rejected(self, inst, table, w500):
        fac = window_factors(inst, table, w500)[2]
        centers = 0.3 + 0.01 * np.arange(50)
        offs = gl_rule(8)[0] * 0.005
        assert fac.eval_panels(centers, offs).shape == (50, 8)
        jittered = centers.copy()
        jittered[17] += 1e-9
        with pytest.raises(ValidationError, match="evenly spaced"):
            fac.eval_panels(jittered, offs)


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
        msgs = [r.getMessage() for r in caplog.records
                if r.levelno == logging.DEBUG
                and not r.getMessage().startswith("grid sum:")]
        # one pass on the fewest panels whose bound is within tol, then
        # integrate_I's summary (the rounding floor lifts the estimate over
        # tol, which test_estimate_over_tol_warns reads)
        (line, summary) = msgs
        m = re.search(r"(\d+) panels, GL12, bound ([^,]+), est error (\S+) "
                      r"\(spectral bound ([^,]+), phase bound ([^)]+)\)", line)
        n, bound, est = int(m.group(1)), float(m.group(2)), float(m.group(3))
        facs = window_factors(inst, table, w500)
        # the panels on the signed spectrum (varpi = 0 here): the larger of
        # |sum of the factor minima| and |sum of the maxima|, plus eta; the
        # rounding floor on the largest phase frequency, the old box
        f_max = max(abs(sum(float(np.min(f.freqs)) for f in facs)),
                    abs(sum(float(np.max(f.freqs)) for f in facs))) + 0.5
        phase_max = sum(float(np.max(np.abs(f.freqs))) for f in facs) + 0.5
        assert float(m.group(4)) == pytest.approx(f_max, rel=1e-15)
        assert float(m.group(5)) == pytest.approx(phase_max, rel=1e-15)
        assert f_max < 0.7 * phase_max
        mass = math.prod(f.mass for f in facs) * 0.25
        want, r = gl12_panels(0.0, 2.0, f_max, mass, 1e-9)
        assert n == want
        assert (r / (n - 1)) ** 24 > 1e-9 >= bound
        assert bound == pytest.approx((r / n) ** 24, rel=1e-3)
        assert bound < est  # the rounding floor
        assert summary.startswith("integrate_I: 1 pieces")
        assert summary.endswith(f"summed est error {m.group(3)}")

    def test_symmetric_range_one_pass(self, inst, table, w500, caplog):
        # (-2, 2) folds onto two copies of (0, 2): one pass, and the value
        # is exactly 2 Re of the half range at half the tol
        tol = 2e-9
        with caplog.at_level(logging.DEBUG, logger="primearcs.circle"):
            whole = integrate_I(inst, table, w500, 0.5, [(-2.0, 2.0)], tol=tol)
        bounds = [float(m.group(1)) for m in
                  (re.search(r"panels, GL12, bound ([^,]+)", r.getMessage())
                   for r in caplog.records) if m]
        assert len(bounds) == 1 and bounds[0] <= tol / 2
        half = integrate_I(inst, table, w500, 0.5, [(0.0, 2.0)], tol=tol / 2)
        assert whole == complex(2.0 * half.real, 0.0)

    def test_logs_summed_error(self, inst, table, w500, caplog):
        tol = 1e-6
        with caplog.at_level(logging.DEBUG, logger="primearcs.circle"):
            integrate_I(inst, table, w500, 0.5, [(-1.0, 1.0), (1.0, 2.0)],
                        tol=tol)
        passes = [(m.group(1), float(m.group(2)), float(m.group(3))) for m in
                  (re.search(r"on \[([^]]+)\]: \d+ panels, GL12, bound ([^,]+), "
                             r"est error (\S+)", r.getMessage())
                   for r in caplog.records) if m]
        (m,) = [m for m in (re.search(
            r"integrate_I: (\d+) pieces, (\d+) reused by symmetry, summed "
            r"est error (\S+)", r.getMessage()) for r in caplog.records) if m]
        assert (int(m.group(1)), int(m.group(2))) == (3, 1)
        # (0, 1) integrated once and counted twice, (1, 2) once, each on
        # a bound within a third of tol, and the sum within tol
        assert [p[0] for p in passes] == ["0, 1", "1, 2"]
        assert all(bound <= tol / 3 for _, bound, _ in passes)
        assert float(m.group(3)) == pytest.approx(
            2 * passes[0][2] + passes[1][2], rel=1e-3)
        assert float(m.group(3)) <= tol

    def test_estimate_over_tol_warns(self, inst, table, w500, caplog):
        # on [0, 2] at tol 1e-9 the bound is 9.9e-10 and the rounding floor
        # lifts the estimate to 1.12e-9: a WARNING says so; at 1e-6 none
        with caplog.at_level(logging.WARNING, logger="primearcs.circle"):
            integrate_I(inst, table, w500, 0.5, [(0.0, 2.0)], tol=1e-9)
        (rec,) = caplog.records
        assert (rec.levelno, rec.name) == (logging.WARNING, "primearcs.circle")
        m = re.fullmatch(r"integrate_I: estimated error (\S+) exceeds tol "
                         r"1e-09", rec.getMessage())
        assert 1e-9 < float(m.group(1)) == pytest.approx(1.117e-9, rel=1e-3)
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="primearcs.circle"):
            integrate_I(inst, table, w500, 0.5, [(0.0, 2.0)], tol=1e-6)
            integrate_I(inst, table, w500, 0.5, [(-50.0, 50.0)], tol=0.2)
        assert caplog.records == []

    @pytest.mark.parametrize("intervals, tol, want", [
        ([(-1.0, 2.0)], 1e-6, 293.6011325461516 - 23.66677551755322j),
        ([(-1.0, 1.0), (1.0, 2.0)], 1e-6,
         293.6011325461492 - 23.666775517557742j),
        ([(-2.0, 2.0)], 1e-8, 291.2447113381803 + 0j),
        ([(-50.0, 50.0)], 1e-8, 298.03127745043224 + 0j)])
    def test_gl12_paths_keep_values(self, inst, table, w500, caplog,
                                    intervals, tol, want):
        # asymmetric, multi-interval and symmetric calls whose tol no
        # trapezoid step meets run GL12 alone, with the values GL12 gave
        # before the trapezoid path was added
        with caplog.at_level(logging.DEBUG, logger="primearcs.circle"):
            val = integrate_I(inst, table, w500, 0.5, intervals, tol=tol)
        msgs = [r.getMessage() for r in caplog.records]
        assert not any("trapezoid" in m for m in msgs)
        assert any("panels, GL12" in m for m in msgs)
        assert val == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_symmetric_range_takes_trapezoid(self, inst, table, w500, caplog):
        # |alpha| <= 50 at tol 0.2, as the arcs benchmark runs it: no GL12
        # pass, and the first step factor whose bound meets tol/2
        with caplog.at_level(logging.DEBUG, logger="primearcs.circle"):
            val = integrate_I(inst, table, w500, 0.5, [(-50.0, 50.0)],
                              tol=0.2)
        msgs = [r.getMessage() for r in caplog.records]
        assert not any("GL12" in m for m in msgs)
        (m,) = [m for m in (re.search(
            r"trapezoid on \[-50, 50\]: (\d+) nodes, c = (\S+), step (\S+), "
            r"bound (\S+), est error (\S+) \(spectral bound ([^,]+)", msg)
            for msg in msgs) if m]
        n, c, h = int(m.group(1)), float(m.group(2)), float(m.group(3))
        f_max = float(m.group(6))
        mass = math.prod(f.mass for f in window_factors(inst, table, w500))
        bounds = [circle.trapezoid_bound(50.0, f_max, mass, cc)[2]
                  for cc in circle.TRAPEZOID_C]
        first = next(i for i, b in enumerate(bounds) if b <= 0.1)
        assert c == circle.TRAPEZOID_C[first] and first > 0
        assert n == math.ceil(50.0 * c * f_max) + 1 and h * f_max < 1 / c
        assert float(m.group(4)) == pytest.approx(bounds[first], rel=1e-3)
        assert val.imag == 0.0
        assert val.real == pytest.approx(298.03127745043224, abs=0.1)

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


def _truncated_kernel_integral(t, eta, A):
    """int_{-A}^{A} K_eta(a) e(t a) da in closed form.

    K_eta = (1 - cos 2 pi eta a)/(2 pi^2 a^2) gives
    pi^-2 [H(2 pi (t+eta))/2 + H(2 pi (t-eta))/2 - H(2 pi t)] with
    H(w) = |w| Si(|w| A) - (1 - cos w A)/A.  The |w| pi/2 part of H sums to
    the tent max(0, eta - |t|) and is taken out, so the rest,
    Hr(w) = -|w| (pi/2 - Si(x)) - (1 - cos x)/A at x = |w| A, is about
    -1/A per term.  Past x = 200 it comes from the asymptotic series of
    pi/2 - Si(x) = f(x) cos x + g(x) sin x (A&S 5.2.34-35, to x^-10) as
    -(1 + (x f - 1) cos x + x g sin x)/A, without the cancellation of
    pi/2 - Si(x) in float64 (|w| eps per term, 2.5e-10 on the whole sum
    below).
    """
    def hr(w):
        x = np.abs(w) * A
        out = np.empty_like(x)
        big = x > 200.0
        xb = x[big]
        z = 1.0 / (xb * xb)
        xf1 = -2 * z * (1 - 12 * z * (1 - 30 * z * (1 - 56 * z * (1 - 90 * z))))
        xg = (1 - 6 * z * (1 - 20 * z * (1 - 42 * z * (1 - 72 * z)))) / xb
        out[big] = -(1.0 + xf1 * np.cos(xb) + xg * np.sin(xb)) / A
        xs = x[~big]
        out[~big] = (-np.abs(w[~big]) * (math.pi / 2 - sici(xs)[0])
                     - (1.0 - np.cos(xs)) / A)
        return out

    t = np.asarray(t, dtype=np.float64)
    osc = (0.5 * hr(2 * np.pi * (t + eta)) + 0.5 * hr(2 * np.pi * (t - eta))
           - hr(2 * np.pi * t))
    return np.maximum(0.0, eta - np.abs(t)) + osc / math.pi ** 2


class TestClosedFormOracle:
    """integrate_I over [-A, A] against the closed form summed over all
    window triples (t = l1 p1 + l2 p2^2 + l3 p3^k + varpi, weight
    log p1 log p2 log p3) on the arcs benchmark's instance with varpi
    fixed, and on criterion 6's (varpi = 0).  The closed form is within
    1e-13 of a 40-digit evaluation at A = 2 and 50; GL12 is within 2e-11
    of it at every tol."""

    ETA = 0.5

    @staticmethod
    def triples(table, inst, w):
        f1, f2, f3 = window_factors(inst, table, w)
        t = (f1.freqs[:, None, None] + f2.freqs[None, :, None]
             + f3.freqs[None, None, :]).ravel() + inst.varpi
        wt = (f1.weights[:, None, None] * f2.weights[None, :, None]
              * f3.weights[None, None, :]).ravel()
        assert len(t) == 19200
        return inst, w, t, wt

    @pytest.fixture(scope="class")
    def setup(self, table):
        inst = ProblemInstance(1.0, -math.sqrt(2.0), -1.0, k=1.05, varpi=0.123)
        return self.triples(table, inst, WindowSpec(X=500.0, k=1.05, delta=0.1))

    def closed_form(self, setup, A):
        _, _, t, wt = setup
        return math.fsum(wt * _truncated_kernel_integral(t, self.ETA, A))

    def value_and_estimate(self, table, setup, A, tol, caplog):
        inst, w, _, _ = setup
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="primearcs.circle"):
            val = integrate_I(inst, table, w, self.ETA, [(-A, A)], tol=tol)
        (est,) = [float(m.group(1)) for m in (
            re.search(r"summed est error (\S+)", r.getMessage())
            for r in caplog.records) if m]
        return val, est

    def test_kernel_integral_against_quad(self):
        # one t at a time, beside an adaptive quadrature of 2 int_0^A K cos
        for t in (0.0, 0.3, -0.5, 0.7, 3.3, -41.9):
            for A in (2.0, 50.0):
                want = 2.0 * quad(lambda a: fejer_K(self.ETA, a)
                                  * math.cos(2 * math.pi * t * a), 0.0, A,
                                  limit=2000, epsabs=1e-13, epsrel=1e-13)[0]
                got = _truncated_kernel_integral([t], self.ETA, A)[0]
                assert got == pytest.approx(want, abs=1e-11), (t, A)

    def test_short_truncation_within_tol(self, table, setup):
        inst, w, _, _ = setup
        val = integrate_I(inst, table, w, self.ETA, [(-2.0, 2.0)], tol=1e-8)
        assert abs(val.real - self.closed_form(setup, 2.0)) <= 1e-8

    def test_error_below_tenth_of_estimate(self, table, setup, caplog):
        # the summed estimate (about 0.2) is the a priori bound: the value
        # must be well inside it
        val, est = self.value_and_estimate(table, setup, 50.0, 0.2, caplog)
        assert 0.0 < est <= 0.2
        assert abs(val.real - self.closed_form(setup, 50.0)) <= 0.1 * est

    @pytest.mark.parametrize("A", [2.0, 50.0])
    @pytest.mark.parametrize("tol", [0.2, 1e-6, 1e-8, 1e-11])
    def test_estimate_covers_error(self, table, setup, caplog, A, tol):
        # at 1e-11 the rounding floor (about 1e-10) is over tol, and the
        # estimate must still cover the error (1e-12 to 2e-11)
        val, est = self.value_and_estimate(table, setup, A, tol, caplog)
        assert abs(val.real - self.closed_form(setup, A)) <= est

    @pytest.mark.parametrize("tol", [0.2, 1e-11])
    def test_estimate_covers_error_criterion6(self, table, caplog, tol):
        # criterion 6's instance and truncation, A = 2000: 810 438 panels
        # at tol 0.2, 2.18M at 1e-11 (1.28M and 3.44M on the box of the
        # factor frequencies)
        from primearcs.acceptance import _criterion6_instance
        inst, w, eta = _criterion6_instance()
        assert eta == self.ETA
        setup = self.triples(table, inst, w)
        val, est = self.value_and_estimate(table, setup, 2000.0, tol, caplog)
        assert abs(val.real - self.closed_form(setup, 2000.0)) <= est


    @pytest.mark.parametrize("A", [50.0, 2000.0])
    @pytest.mark.parametrize("c", circle.TRAPEZOID_C)
    def test_trapezoid_bound_covers_error(self, table, setup, caplog,
                                          monkeypatch, A, c):
        # the rule at each step factor alone, at a tol every factor meets
        # (its bound is 0.41 at A = 50 and c = 1.05): the logged bound
        # covers the error against the closed form, and the estimate adds
        # only the rounding floor to it
        monkeypatch.setattr(circle, "TRAPEZOID_C", (c,))
        val, est = self.value_and_estimate(table, setup, A, 1.0, caplog)
        (m,) = [m for m in (re.search(
            r"nodes, c = (\S+), step \S+, bound (\S+), est error (\S+)",
            r.getMessage()) for r in caplog.records) if m]
        assert float(m.group(1)) == c
        bound = float(m.group(2))
        assert float(m.group(3)) == pytest.approx(est, rel=1e-3)
        assert abs(val.real - self.closed_form(setup, A)) <= bound <= est


class TestTrapezoidBound:
    """sup |E| on the strip the trapezoid's step confines the tail terms
    to, and the refusal of any step at or past the Nyquist rate."""

    @staticmethod
    def E(w):
        return 0.5 / np.tanh(w / 2.0) - 1.0 / w

    @pytest.mark.parametrize("c", [*circle.TRAPEZOID_C, 1.01, 3.0, 10.0])
    def test_sup_E_covers_boundary(self, c):
        # the vertical side and both horizontal sides, x to 200 (where
        # |E - 1/2| < 1e-2): the helper is at least every value there, and
        # attains the corner value or the limit 1/2
        Y = 2.0 * math.pi / c
        ys = np.linspace(-Y, Y, 200_001)
        ys = ys[ys != 0.0]
        xs = np.concatenate([np.linspace(0.0, 20.0, 200_001),
                             np.geomspace(20.0, 200.0, 20_001)])
        side = np.abs(self.E(1j * ys))
        top = np.abs(self.E(xs + 1j * Y))
        bottom = np.abs(self.E(xs - 1j * Y))
        dense = max(side.max(), top.max(), bottom.max())
        sup = circle.trapezoid_sup_E(c)
        assert sup >= dense * (1.0 + 1e-12) or sup == pytest.approx(dense,
                                                                   rel=1e-12)
        corner = abs(self.E(1j * Y))
        assert sup == pytest.approx(max(0.5, corner), rel=1e-12)
        assert sup >= 0.5 > abs(self.E(200.0 + 1j * Y)) - 1e-2

    def test_sup_E_interior(self):
        # a grid inside the half-strip stays below the boundary's sup
        for c in circle.TRAPEZOID_C:
            Y = 2.0 * math.pi / c
            x, y = np.meshgrid(np.linspace(1e-6, 30.0, 601),
                               np.linspace(-Y, Y, 601))
            inside = np.max(np.abs(self.E(x + 1j * y)))
            assert inside <= circle.trapezoid_sup_E(c)

    @pytest.mark.parametrize("c", [1.0, 0.99, 0.5, math.nan])
    def test_step_at_nyquist_refused(self, inst, table, w500, monkeypatch, c):
        # hF >= 1 aliases the spectrum's ends onto the rule: the helper, and
        # so integrate_I, refuse any c <= 1 (at c = 1.0001 criterion 6's
        # value already moves by about 1e-6)
        with pytest.raises(ValidationError, match="c > 1"):
            circle.trapezoid_sup_E(c)
        monkeypatch.setattr(circle, "TRAPEZOID_C", (c,))
        with pytest.raises(ValidationError, match="c > 1"):
            integrate_I(inst, table, w500, 0.5, [(-50.0, 50.0)], tol=0.2)

    def test_step_factors(self):
        cs = circle.TRAPEZOID_C
        assert list(cs) == sorted(set(cs)) and cs[0] > 1.0
        # the bound falls as c rises: a larger c meets any tol a smaller did
        bounds = [circle.trapezoid_bound(50.0, 951.0, 1.6e6, c)[2] for c in cs]
        assert bounds == sorted(bounds, reverse=True)

    def test_rule_exact_on_band_limited(self):
        # an integrand with all its mass at the band's edge, s = F:
        # g = K_eta(a) e((F - eta) a) on [-A, A] against its closed form;
        # the bound (mass 1) covers the error at each step factor
        eta, F, A = 0.5, 10.0, 20.0
        t = F - eta

        def parts(centers, offs):
            a = centers[:, None] + offs[None, :]
            return {"I": fejer_K(eta, a) * np.exp(2j * math.pi * t * a)}

        want = _truncated_kernel_integral([t], eta, A)[0]
        for c in circle.TRAPEZOID_C:
            val, est = circle._trapezoid_I(parts, A, F, F, 1.0, c, 1e6)
            bound = circle.trapezoid_bound(A, F, 1.0, c)[2]
            assert abs(val.real - want) <= bound <= est


class TestConvergenceStalls:
    """Each adaptive quadrature raises ConvergenceError with its best value and
    a finite error estimate when it runs out of budget (exit code 3)."""

    def test_gauss_panels(self):
        # cos(100 a) on [0, 3] at tol 1e-12 needs 27 panels (324 nodes):
        # a 120-node budget runs 10, and best is their GL12 value with
        # their bound as the estimate
        def parts(centers, offs):
            return {"f": np.cos(100.0 * (centers[:, None] + offs[None, :])) + 0j}

        f_max = 100.0 / (2.0 * math.pi)
        n, r = gl12_panels(0.0, 3.0, f_max, 1.0, 1e-12)
        assert n == 27
        with pytest.raises(ConvergenceError, match="10 panels") as info:
            gauss_panels(parts, 0.0, 3.0, f_max, f_max, 1.0, 1e-12, 120)
        exc = info.value
        x12, w12 = gl_rule(12)
        hw = 3.0 / 20
        nodes = (2.0 * np.arange(10) + 1.0)[:, None] * hw + x12[None, :] * hw
        want = math.fsum((np.cos(100.0 * nodes) @ (w12 * hw)).tolist())
        assert exc.best["f"] == pytest.approx(want, rel=1e-14)
        bound = (r / 10) ** 24
        assert bound <= exc.est_error <= bound * (1.0 + 1e-9)
        assert abs(exc.best["f"] - math.sin(300.0) / 100.0) <= exc.est_error

    def test_trapezoid(self, inst, table, w500, monkeypatch):
        # |alpha| <= 50 needs 59 437 nodes at tol 0.2; a budget of 20 000
        # stops the rule at A' = 19 999 h.  best is that rule's value, and
        # the estimate holds its bound and the dropped |alpha| in (A', 50),
        # so it covers the gap to the closed form
        monkeypatch.setattr(circle, "PRODUCT_NODE_BUDGET", 20_000)
        with pytest.raises(ConvergenceError, match="trapezoid needs") as info:
            integrate_I(inst, table, w500, 0.5, [(-50.0, 50.0)], tol=0.2)
        exc = info.value
        assert math.isfinite(exc.est_error) and exc.best.imag == 0.0
        setup = TestClosedFormOracle.triples(table, inst, w500)
        want = math.fsum(setup[3] * _truncated_kernel_integral(setup[2], 0.5,
                                                               50.0))
        assert abs(exc.best.real - want) <= exc.est_error

    def test_tail_slicing(self, inst, table, w500, monkeypatch):
        # one 4096-slice block of tail A, then the budget: best is that
        # block's sum, est_error the remainder bound past it
        arc = arc_params(inst, 500.0)
        full = trivial_tails(inst, table, w500, arc.R, tol=1.0).values[0]
        monkeypatch.setattr(circle, "MAX_TAIL_SLICES", 4096)
        with pytest.raises(ConvergenceError, match="after 4096 slices") as info:
            trivial_tails(inst, table, w500, arc.R, tol=1e-9)
        exc = info.value
        assert 0.0 < exc.best <= full * (1.0 + 1e-12)
        assert math.isfinite(exc.est_error)
        assert exc.best + exc.est_error >= full


@pytest.mark.parametrize("piece", ["T", "major", "trivial"])
def test_nan_tol_rejected_at_once(inst, table, w500, piece):
    # a nan tol never satisfies err <= tol: without require_tol the tail
    # slicing runs to its cap and no panel count meets a nan bound
    run = {"T": lambda: eval_T_grid(1.05, 50.0, 500.0, [0.1], [0.0],
                                    tol=math.nan),
           "major": lambda: major_arc_split(inst, table, w500, 0.5,
                                            tol=math.nan),
           "trivial": lambda: trivial_tails(inst, table, w500, 1e3,
                                            tol=math.nan)}[piece]
    t0 = time.perf_counter()
    with pytest.raises(ValidationError,
                       match="tol must be positive and finite"):
        run()
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("tol", [1e-3, 1e-8, 1e-12])
def test_gauss_panels_estimate_on_top_frequency(tol):
    # all the mass at f_max, where the remainder bound is attained up to
    # the panels' phase rotation: GL12's error is within the estimate, an
    # 8-point rule's on the same panels is not
    s, b = 37.3, 2.0

    def parts(centers, offs):
        return {"e": np.exp(2j * math.pi * s * (centers[:, None] + offs[None, :]))}

    vals, est = gauss_panels(parts, 0.0, b, s, s, 1.0, tol, 1e6)
    exact = (cmath.exp(2j * math.pi * s * b) - 1.0) / (2j * math.pi * s)
    assert abs(vals["e"] - exact) <= est <= 1.01 * tol


def test_gauss_panels_logs_both_bounds(caplog):
    # the DEBUG line names the spectral bound, which alone sets the panel
    # count, and the phase bound, which moves only the rounding floor
    s, b, tol = 37.3, 2.0, 1e-8

    def parts(centers, offs):
        return {"e": np.exp(2j * math.pi * s * (centers[:, None] + offs[None, :]))}

    seen = []
    for phase_max in (s, 1e6):
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="primearcs.circle"):
            _, est = gauss_panels(parts, 0.0, b, s, phase_max, 1.0, tol, 1e6)
        (line,) = [r.getMessage() for r in caplog.records]
        m = re.fullmatch(r"gauss panels on \[0, 2\]: (\d+) panels, GL12, bound "
                         r"(\S+), est error (\S+) \(spectral bound (\S+), "
                         r"phase bound (\S+)\)", line)
        assert int(m.group(1)) == gl12_panels(0.0, b, s, 1.0, tol)[0]
        assert (float(m.group(4)), float(m.group(5))) == (s, phase_max)
        assert float(m.group(3)) == pytest.approx(est, rel=1e-3)
        seen.append((int(m.group(1)), float(m.group(2)), est))
    (n, bound, est), (n_wide, bound_wide, est_wide) = seen
    assert (n, bound) == (n_wide, bound_wide)
    assert est < est_wide


class TestSpectrumBounds:
    """Each gauss_panels caller passes a spectral bound f_max that every
    frequency of its integrand stays within (attains, where the bound is
    signed), a phase bound at least every frequency it hands grid_sum,
    and a mass at least its spectrum's L1 mass, all computed here from the
    window arrays, T's density and the tent."""

    @pytest.fixture
    def calls(self, monkeypatch):
        from primearcs import meansquare
        seen = []

        def spy(parts, a, b, f_max, phase_max, mass, tol, max_nodes):
            seen.append((f_max, phase_max, mass))
            return gauss_panels(parts, a, b, f_max, phase_max, mass, tol,
                                max_nodes)

        monkeypatch.setattr(circle, "gauss_panels", spy)
        monkeypatch.setattr(meansquare, "gauss_panels", spy)
        return seen

    @staticmethod
    def arrays(inst, table, w):
        """(frequencies, weights) of S_1, S_2, S_k on the window."""
        lo, hi = w.delta * w.X, w.X
        return [(lam * np.asarray(win.powers[0], dtype=np.float64),
                 np.asarray(win.weights))
                for lam, win in ((lam, window(kj, lo, hi, table)) for lam, kj in
                                 zip(inst.lambdas, (1.0, 2.0, inst.k)))]

    @staticmethod
    def triple_freqs(arrays, varpi):
        """Every frequency l1 p1 + l2 p2^2 + l3 p3^k + varpi of the product."""
        (f1, _), (f2, _), (f3, _) = arrays
        return np.add.outer(np.add.outer(f1, f2), f3) + varpi

    def test_integrate_I(self, table, calls):
        inst = ProblemInstance(1.0, -math.sqrt(2.0), -1.0, k=1.05, varpi=-0.3)
        w, eta = WindowSpec(X=300.0, k=1.05), 0.5
        integrate_I(inst, table, w, eta, [(0.0, 1.0)], tol=1e-3)
        arrays = self.arrays(inst, table, w)
        t = self.triple_freqs(arrays, inst.varpi)
        c = np.multiply.outer(np.multiply.outer(*(c for _, c in arrays[:2])),
                              arrays[2][1])
        ((f_max, phase_max, mass),) = calls
        # the signed bound is attained by a triple, and the phase bound is
        # the box of the factor frequencies, the kernel's and varpi's
        assert f_max == pytest.approx(np.max(np.abs(t)) + eta, rel=1e-12)
        assert phase_max == pytest.approx(
            sum(np.max(np.abs(f)) for f, _ in arrays) + 0.3 + eta, rel=1e-12)
        assert f_max < 0.7 * phase_max
        assert mass >= math.fsum(np.abs(c).ravel()) * eta ** 2 * (1 - 1e-12)

    def test_major_arc_split(self, table, calls):
        inst = ProblemInstance(1.0, -math.sqrt(2.0), -1.0, k=1.05, varpi=0.2)
        w, eta = WindowSpec(X=100.0, k=1.05), 0.5
        major_arc_split(inst, table, w, eta, tol=1e-2)
        lo, hi = w.delta * w.X, w.X
        # T_j = int_lo^hi (1/k) u^(1/k - 1) e(l_j u a) du
        t_mass = [quad(lambda u: u ** (1 / kj - 1) / kj, lo, hi)[0]
                  for kj in (1.0, 2.0, inst.k)]
        arrays = self.arrays(inst, table, w)
        s_mass = [math.fsum(np.abs(c)) for _, c in arrays]
        s_t = [s + t for s, t in zip(s_mass, t_mass)]
        factor_masses = [t_mass, [s_t[0], *t_mass[1:]],
                         [s_mass[0], s_t[1], t_mass[2]],
                         [s_mass[0], s_mass[1], s_t[2]], s_mass]
        ((f_max, phase_max, mass),) = calls
        # every S and T frequency of factor j lies in l_j [lo, hi]; the
        # largest |t| over that box's corners is attained by T's spectra
        corners = self.triple_freqs(
            [(np.array([lam * lo, lam * hi]), None) for lam in inst.lambdas],
            0.2)
        assert f_max == pytest.approx(np.max(np.abs(corners)) + eta, rel=1e-12)
        assert np.max(np.abs(self.triple_freqs(arrays, 0.2))) + eta <= f_max
        box = sum(abs(l) * hi for l in inst.lambdas) + 0.2 + eta
        assert phase_max == pytest.approx(box, rel=1e-12)
        assert f_max <= box
        # twice the real part: twice the mass
        assert mass >= (2 * eta ** 2 * max(map(math.prod, factor_masses))
                        * (1 - 1e-12))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(mag=st.tuples(*[st.floats(0.3, 3.0)] * 3),
           signs=st.tuples(*[st.sampled_from([-1, 1])] * 3),
           k=st.floats(1.0, 1.3), shift=st.floats(-0.5, 1.5),
           X=st.sampled_from([20.0, 60.0, 150.0]),
           delta=st.sampled_from([0.1, 0.5, 0.9]))
    def test_signed_bound_property(self, table, mag, signs, k, shift, X,
                                   delta):
        # one-sign lambdas included; varpi = -(lowest sum) - shift * (its
        # spread) puts the range of sums astride zero for 0 < shift < 1;
        # delta = 0.9 (and 0.5 at X = 20) leaves S_2 empty
        inst = ProblemInstance(*(s * m for s, m in zip(signs, mag)), k=k)
        w, eta = WindowSpec(X=X, k=k, delta=delta), 0.5
        arrays = self.arrays(inst, table, w)
        low = sum(np.min(f) for f, _ in arrays if len(f))
        high = sum(np.max(f) for f, _ in arrays if len(f))
        inst = ProblemInstance(*inst.lambdas, k=k,
                               varpi=-low - shift * (high - low))
        seen = []

        def spy(parts, a, b, f_max, phase_max, mass, tol, max_nodes):
            seen.append(f_max)
            return gauss_panels(parts, a, b, f_max, phase_max, mass, tol,
                                max_nodes)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(circle, "gauss_panels", spy)
            integrate_I(inst, table, w, eta, [(0.0, 0.01)], tol=1e3)
        (f_max,) = seen
        if all(len(f) for f, _ in arrays):
            t = self.triple_freqs(arrays, inst.varpi)
            assert f_max == pytest.approx(np.max(np.abs(t)) + eta, rel=1e-12)
        else:  # an empty factor adds the range (0, 0)
            assert f_max == pytest.approx(
                max(abs(low + inst.varpi), abs(high + inst.varpi)) + eta,
                rel=1e-12)

    def test_l2_grid(self, table, calls):
        from primearcs.meansquare import l2_diff
        w = WindowSpec(X=2000.0, k=1.05)
        l2_diff(table, w, 0.01, method="grid")
        win, coeffs = s_minus_u_weights(table, w)
        freqs = np.asarray(win.powers[0], dtype=np.float64)
        # |S|^2 = sum_ij c_i c_j e((f_i - f_j) a), while grid_sum forms the
        # phases of the f_i themselves, near twice the spread here
        pairs = np.abs(np.multiply.outer(coeffs, coeffs)).ravel()
        ((f_max, phase_max, mass),) = calls
        assert f_max >= np.max(np.subtract.outer(freqs, freqs))
        assert phase_max >= np.max(np.abs(freqs)) > 1.9 * f_max
        assert mass >= math.fsum(pairs) * (1 - 1e-12)

    def test_fourier_pair(self, calls):
        for eta, t in ((0.1, 0.0), (1.0, -0.5)):
            verify_fourier_pair(eta, t, 1e3)
        # K_eta e(t a): the tent of area eta^2 moved to t
        assert calls[0] == (0.1, 0.1, 0.1 ** 2)
        assert calls[1] == (1.5, 1.5, 1.0)


class TestMajorArc:
    def test_telescoping_and_dominance(self, inst, table):
        # scaled-down instance; the full X=500 case runs in acceptance
        w = WindowSpec(X=300.0, k=1.05, delta=0.1)
        out = major_arc_split(inst, table, w, 0.5, tol=2e-3)
        gap = abs(out["J1"] + out["J2"] + out["J3"] + out["J4"] - out["I_M"])
        assert gap <= 4e-3
        assert 0.0 < out["t_est_error"] <= 1e-10
        assert abs(out["J1"]) > max(abs(out["J2"]), abs(out["J3"]),
                                    abs(out["J4"]))
        lower = out["J1"] / (0.5 ** 2 * 300.0 ** (0.5 + 1 / 1.05))
        assert lower > 0  # recorded ratio of the main-term lower bound

    def test_t_tol_scales_with_range(self, inst, table):
        # |T| reaches the t-range length, about 5e4 for k = 1 at X = 1e5;
        # an absolute 1e-10 sits below T's own rounding bound there
        w = WindowSpec(X=1e5, k=1.05, delta=0.1)
        out = major_arc_split(inst, table, w, 0.5, tol=1e-2)
        assert 1e-10 < out["t_est_error"] <= 1e-10 * (1e5 - 1e4)
        gap = abs(out["J1"] + out["J2"] + out["J3"] + out["J4"] - out["I_M"])
        assert gap <= 1e-2


class TestMinorArc:
    def test_l2_monitors(self, inst, table, w500):
        arc = arc_params(inst, 500.0)
        rows = minor_arc_l2(inst, table, w500, 0.5, arc)
        assert len(rows) == 3
        cut = min(arc.R, max(arc.major[1], 1.0 / 0.5))
        for row in rows:
            assert row["value"] > 0 and row["comparator"] > 0
            assert row["ratio"] == row["value"] / row["comparator"]
            # [cut, floor(cut) + 1], the whole slices, then [floor(R), R]
            assert row["slices"] == math.ceil(arc.R) - math.floor(cut)

    def test_benchmark_instance_pinned(self, table):
        # the arcs benchmark instance (its seeded varpi plays no part);
        # values of the per-slice exp_pair_integral loop this replaced
        inst = ProblemInstance(1.0, -math.sqrt(2.0), -1.0, k=1.05)
        w = WindowSpec(X=500.0, k=1.05, delta=0.1)
        arc = arc_params(inst, 500.0)
        rows = minor_arc_l2(inst, table, w, arc.eta, arc)
        assert [r["value"] for r in rows] == pytest.approx(
            [1952.5608605982263, 1220.9870932933206, 1378.117330992822],
            rel=1e-12, abs=0)
        rep = trivial_tails(inst, table, w, arc.R, tol=1.0)
        assert rep.values == pytest.approx(
            (6.3327097302039075, 2.680732735560773, 4.250999502305229),
            rel=1e-12, abs=0)
        assert rep.start == (348, 491, 348)


class TestUnitSlices:
    @pytest.mark.parametrize("which", ["lambda3", "square"])
    def test_matches_pair_integral(self, inst, table, which):
        # lambda3 p^1.05 (~17k pairs) and the expand_square list of the
        # lambda2 factor at X = 2000, near the start of the minor arc and
        # out in the tails; 300 slices take R > 1
        facs = window_factors(inst, table, WindowSpec(X=2000.0, k=1.05))
        if which == "lambda3":
            freqs, coeffs = facs[2].freqs, facs[2].weights
        else:
            freqs, coeffs = expand_square(facs[1].freqs, facs[1].weights)
        mass = float(np.sum(np.abs(coeffs))) ** 2
        pairs = _slice_pairs(freqs, coeffs)
        for first_mid in (2.5, 8000.5):
            got = _unit_slices(pairs, first_mid, 300)
            want = [exp_pair_integral(freqs, coeffs, mid - 0.5, mid + 0.5)
                    for mid in first_mid + np.arange(300)]
            assert np.max(np.abs(got - want)) <= 1e-12 * mass


class TestBounds:
    def test_vaughan_small_q(self, table):
        ratio = bound_vaughan(table, 1e5, 1e-7, 0, 1)
        assert 0 < ratio < 1

    def test_vaughan_exact_rational(self, table):
        ratio = bound_vaughan(table, 1e5, 2 / 7, 2, 7)
        assert math.isfinite(ratio) and ratio >= 0

    def test_ghosh_small_q(self, table):
        ratio = bound_ghosh(table, 1e5, 1e-7, 0, 1)
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
        ps, _, logs = window(1.0, 50.0, 500.0, table)
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

    def test_trigamma_is_an_upper_bound(self):
        # the remainder bound of the slicing must not fall below the true
        # one, so psi1 may round up but never down
        from scipy.special import polygamma
        for x in (0.5, 1.0, 2.0, 19.5, 20.0, 20.5, 399.0, 4095.0, 1e5, 3e5,
                  1e7):
            want = float(polygamma(1, x))
            assert want <= _trigamma_upper(x) <= want * (1.0 + 2e-12), x

    def test_requires_R(self, inst, table, w500):
        with pytest.raises(ValidationError):
            trivial_tails(inst, table, w500, 0.5)
