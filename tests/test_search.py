import decimal
import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from primearcs import expsums, search
from primearcs.circle import ProblemInstance
from primearcs.errors import ValidationError
from primearcs.search import (_BLOCK, _SLACK_MARGIN, _band_centres,
                              _band_error_bound, brute_force_solutions,
                              find_solutions, admissible_threshold,
                              weighted_solution_sum)


@pytest.fixture(scope="module")
def exact_inst():
    return ProblemInstance(1.0, 2.0, -1.0, k=2.0, varpi=0.0)


def triples(report):
    return [(r.p1, r.p2, r.p3) for r in report.records]


def rows(report):
    return [(r.p1, r.p2, r.p3, r.residual) for r in report.records]


class TestFindSolutions:
    def test_exact_hit(self, exact_inst, table):
        rep = find_solutions(exact_inst, table, 40.0, 0.0)
        assert (17, 2, 5) in triples(rep)
        for r in rep.records:
            assert r.residual == 0.0

    def test_integer_residuals_exact(self, exact_inst, table):
        rep = find_solutions(exact_inst, table, 40.0, 0.0)
        for r in rep.records:
            assert r.p1 + 2 * r.p2 ** 2 - r.p3 ** 2 == 0

    def test_exact_hit_measure_zero_for_irrational(self, table):
        inst = ProblemInstance(1.0, -math.sqrt(2.0), -1.0, k=1.37, varpi=0.0)
        rep = find_solutions(inst, table, 800.0, 0.0)
        assert rep.count == 0

    def test_same_sign_no_solutions(self, table):
        inst = ProblemInstance(1.0, 2.0, 1.0, k=1.1, varpi=0.0)
        thr = 0.9 * inst.delta * 300.0  # below delta X min|lambda|
        rep = find_solutions(inst, table, 300.0, thr)
        assert rep.count == 0

    def test_one_sign_instance_can_have_solutions(self, table):
        # one sign gives at most finitely many solutions, not none:
        # 17 + 3^2 + 11^1.1 - 40 = -0.0192
        inst = ProblemInstance(1.0, 1.0, 1.0, k=1.1, varpi=-40.0)
        rep = find_solutions(inst, table, 60.0, 0.5)
        residuals = {r[:3]: r.residual for r in rep.records}
        assert residuals[(17, 3, 11)] == pytest.approx(-0.0192, abs=1e-4)
        assert not inst.sign_ok
        assert [w for w in inst.warnings if "sign" in w]
        assert not [w for w in inst.warnings if "no solutions" in w]

    def test_empty_window_diagnostic(self, table):
        inst = ProblemInstance(1.0, -1.0, 1.0, k=1.05, varpi=0.0, delta=0.9)
        rep = find_solutions(inst, table, 4.0, 0.1)
        assert rep.count == 0 and rep.records == ()

    def test_cap_truncation(self, table):
        inst = ProblemInstance(1.0, -math.sqrt(2.0), -1.0, k=1.05, varpi=0.0)
        full = find_solutions(inst, table, 2000.0, 0.5)
        capped = find_solutions(inst, table, 2000.0, 0.5, cap=3)
        assert full.count > 3
        assert capped.count == full.count
        assert len(capped.records) == 3 and capped.truncated
        # the cap keeps the lexicographically smallest triples
        assert capped.records == full.records[:3]

    def test_wide_threshold_matches_brute(self, table, monkeypatch):
        # 2 * 600 + 1 integers for each of ~1500 (p2, p3) pairs: one tile
        # of _BLOCK pairs would hold every pair, so the join cuts its tiles
        # to bound their candidate integers, one residual call per tile
        inst = ProblemInstance(1.0, -math.sqrt(2.0), -1.0, k=1.05, varpi=0.3)
        calls = []
        residual_arrays = search._residual_arrays

        def counting(*args):
            calls.append(len(args[1]))
            return residual_arrays(*args)

        monkeypatch.setattr(search, "_residual_arrays", counting)
        fast = find_solutions(inst, table, 2000.0, 600.0)
        monkeypatch.undo()
        brute = brute_force_solutions(inst, table, 2000.0, 600.0)
        assert fast.pairs < _BLOCK and len(calls) > 1
        assert sum(calls) == fast.candidates and max(calls) <= 16 * _BLOCK
        assert rows(fast) == rows(brute)

    def test_criterion11_instance_pinned(self, table):
        # criterion 11's instance at X = 1e5, with the values that the
        # independent (p1, p2)-pair join found, bit for bit
        inst = ProblemInstance(1.0, -math.sqrt(2.0), -1.0, k=1.05, varpi=0.0)
        rep = find_solutions(inst, table, 1e5, 0.1)
        assert (rep.count, rep.truncated) == (1345, False)
        assert rows(rep)[0] == (24683, 101, 6607, -0.018610201422839312)
        assert rows(rep)[-1] == (99961, 179, 32507, -0.0009060472601813974)
        assert math.fsum(r.residual for r in rep.records) == 0.442937590936636
        assert sum(r.p1 + r.p2 + r.p3 for r in rep.records) == 122902457
        # every record is within the admissible width at its largest prime,
        # max(p1, p2, p3)^(-(33 - 29k)/(72k) + eps)
        power = -(33 - 29 * 1.05) / (72 * 1.05) + inst.eps
        assert all(abs(r.residual) <= max(r.p1, r.p2, r.p3) ** power
                   for r in rep.records)

    def test_p3_range_beyond_table_rejected(self, table):
        inst = ProblemInstance(1.0, -1.0, 1.0, k=0.5, varpi=0.0)
        # p1 and p2^2 fit the table, p3 up to 2000^2 does not
        with pytest.raises(ValidationError, match=r"p\^0\.5"):
            find_solutions(inst, table, 2000.0, 0.5)

    def test_threshold_monotonicity(self, table):
        inst = ProblemInstance(1.0, -math.sqrt(2.0), -1.0, k=1.05, varpi=0.3)
        counts = [find_solutions(inst, table, 1500.0, thr).count
                  for thr in (0.01, 0.05, 0.2, 0.5, 1.0)]
        assert counts == sorted(counts)

    def test_residual_reevaluation_50_digits(self, table):
        inst = ProblemInstance(1.0, -math.sqrt(2.0), -1.0, k=1.05, varpi=0.0)
        rep = find_solutions(inst, table, 2000.0, 0.5)
        ctx = decimal.Context(prec=50)
        lam2 = decimal.Decimal(inst.lambda2)
        for r in rep.records[:20]:
            p3k = ctx.power(decimal.Decimal(r.p3),
                            decimal.Decimal(inst.k))
            exact = (decimal.Decimal(r.p1) + lam2 * decimal.Decimal(r.p2) ** 2
                     - p3k)
            assert abs(float(exact) - r.residual) < 1e-9

    def test_residuals_exact_at_irrational_lambda1(self, table):
        # lambda1 p1 + varpi was rounded to float64: 4.0e-11 off at X = 1e5
        inst = ProblemInstance(math.pi, -math.sqrt(2.0), -math.e, k=1.05,
                               varpi=0.3)
        rep = find_solutions(inst, table, 1e5, 0.05)
        assert rep.count == len(rep.records) > 500
        with mpmath.workdps(60):
            l1, l2, l3, k, varpi = map(mpmath.mpf, (
                inst.lambda1, inst.lambda2, inst.lambda3, inst.k, inst.varpi))
            worst = max(abs(l1 * r.p1 + l2 * r.p2 ** 2 + l3 * mpmath.power(r.p3, k)
                            + varpi - r.residual) for r in rep.records)
        assert worst < 1e-12

    def test_band_ends_within_rounding_bound(self, table):
        # 4000 sampled (p2, p3) pairs at X = 1e5: the float64 band ends
        # c -/+ width against c in exact Fractions (p3^k to 50 digits).
        # The worst end was 2.0 2^-53 S off (c itself 1.6 2^-53 S), inside
        # the bound's 10 2^-53 (S + width)
        l1, l2, l3, k, varpi = math.pi, -math.sqrt(2.0), -math.e, 1.05, 0.3
        X, threshold = 1e5, 0.05
        (p2s, (p2sq, _), _), (p3s, (p3k_hi, _), _) = (
            expsums.window(kj, 0.1 * X, X, table) for kj in (2.0, k))
        width = threshold / abs(l1)
        bound = _band_error_bound(l1, l2, l3, varpi, X, width)
        width += _SLACK_MARGIN * bound
        q2, q3 = _band_centres(l1, l2, l3, varpi, p2sq, p3k_hi)
        rng = np.random.default_rng(11)
        worst = 0
        with mpmath.workdps(50):
            for i, j in zip(rng.integers(len(p2s), size=4000),
                            rng.integers(len(p3s), size=4000)):
                p3k = Fraction(mpmath.nstr(mpmath.power(int(p3s[j]),
                                                        mpmath.mpf(k)), 50))
                exact = -(Fraction(l2) * int(p2s[i]) ** 2 + Fraction(l3) * p3k
                          + Fraction(varpi)) / Fraction(l1)
                c, w = q2[i] + q3[j], Fraction(width)
                worst = max(worst, abs(Fraction(c - width) - (exact - w)),
                            abs(Fraction(c + width) - (exact + w)))
        assert 0 < worst <= bound

    def test_negated_instance_symmetry(self, table):
        inst = ProblemInstance(1.3, -math.sqrt(2.0), -0.7, k=1.08, varpi=0.4)
        neg = ProblemInstance(-1.3, math.sqrt(2.0), 0.7, k=1.08, varpi=-0.4)
        a = find_solutions(inst, table, 1200.0, 0.3)
        b = find_solutions(neg, table, 1200.0, 0.3)
        assert triples(a) == triples(b)

    def test_dyadic_window(self, exact_inst, table):
        # 17 + 2*4 = 25: in the dyadic convention all of p1, p2^2, p3^2
        # must lie in [X, 2X]; at X=20 only p1=17... p2^2=4 < 20 excludes it
        rep = find_solutions(exact_inst, table, 20.0, 0.0, window="dyadic")
        assert (17, 2, 5) not in triples(rep)

    def test_windows_built_once(self, table, monkeypatch):
        inst = ProblemInstance(1.0, -math.sqrt(2.0), -1.0, k=1.05, varpi=0.3)
        first = find_solutions(inst, table, 1700.0, 0.2)
        lo, hi = inst.delta * 1700.0, 1700.0
        for kj in (1.0, 2.0, 1.05):
            assert (kj, lo, hi) in table.windows
        build, builds = expsums._build_window, []

        def counting(*args):
            builds.append(args[:3])
            return build(*args)

        monkeypatch.setattr(expsums, "_build_window", counting)
        second = find_solutions(inst, table, 1700.0, 0.2)
        assert builds == []
        assert second.records == first.records
        assert (second.count, second.pairs, second.candidates) == \
            (first.count, first.pairs, first.candidates)

    def test_threshold_negative_rejected(self, exact_inst, table):
        with pytest.raises(ValidationError):
            find_solutions(exact_inst, table, 40.0, -0.1)
        with pytest.raises(ValidationError):
            find_solutions(exact_inst, table, 40.0, 0.1, cap=-1)


class TestBruteForce:
    def test_matches_fast_on_battery(self, table):
        rng = random.Random(8712)
        for _ in range(12):
            lam = [rng.choice([-1, 1]) * rng.uniform(0.4, 3.0)
                   for _ in range(3)]
            if all(l > 0 for l in lam) or all(l < 0 for l in lam):
                lam[1] = -lam[1]
            inst = ProblemInstance(lam[0], lam[1], lam[2],
                                   k=rng.uniform(1.0, 1.3),
                                   varpi=rng.uniform(-2, 2))
            X = rng.uniform(150.0, 2000.0)
            thr = rng.uniform(0.0, 0.6)
            fast = find_solutions(inst, table, X, thr)
            brute = brute_force_solutions(inst, table, X, thr)
            assert triples(fast) == triples(brute)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(mag=st.tuples(*[st.floats(0.4, 3.0)] * 3),
           signs=st.tuples(*[st.sampled_from([-1, 1])] * 3),
           k=st.floats(1.0, 1.3), varpi=st.floats(-2.0, 2.0),
           thr=st.floats(0.0, 0.5), X=st.floats(200.0, 1e4),
           window=st.sampled_from(["delta", "dyadic"]))
    def test_property_matches_brute(self, table, mag, signs, k, varpi, thr,
                                    X, window):
        lam = [s * m for s, m in zip(signs, mag)]
        if all(l > 0 for l in lam) or all(l < 0 for l in lam):
            lam[2] = -lam[2]
        inst = ProblemInstance(*lam, k=k, varpi=varpi)
        fast = find_solutions(inst, table, X, thr, window=window)
        brute = brute_force_solutions(inst, table, X, thr, window=window)
        assert fast.count == brute.count
        assert rows(fast) == rows(brute)
        if fast.records:
            # a threshold equal to a record's |residual| still reports it
            r = fast.records[len(fast.records) // 2]
            tie = find_solutions(inst, table, X, abs(r.residual), window=window)
            assert r in tie.records

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(l1=st.floats(0.01, 3.0),
           mag=st.tuples(*[st.floats(0.4, 3.0)] * 2),
           signs=st.tuples(*[st.sampled_from([-1, 1])] * 3),
           k=st.floats(1.0, 1.3), varpi=st.floats(-2.0, 2.0),
           band=st.floats(0.0, 40.0), X=st.floats(200.0, 3000.0),
           window=st.sampled_from(["delta", "dyadic"]))
    def test_wide_band_matches_brute(self, table, l1, mag, signs, k, varpi,
                                     band, X, window):
        # p1 within threshold/|lambda1| of the solving value: up to 40 on
        # either side, from |lambda1| = 0.01 at small thresholds to
        # threshold 20 at |lambda1| >= 0.5
        lam = [s * m for s, m in zip(signs, (l1,) + mag)]
        if all(l > 0 for l in lam) or all(l < 0 for l in lam):
            lam[2] = -lam[2]
        inst = ProblemInstance(*lam, k=k, varpi=varpi)
        thr = min(20.0, band * l1)
        fast = find_solutions(inst, table, X, thr, window=window)
        brute = brute_force_solutions(inst, table, X, thr, window=window)
        assert (fast.count, fast.truncated) == (brute.count, False)
        assert fast.records == brute.records

    @pytest.mark.parametrize("lam,X,window,hit", [
        ((1.0, 2.0, -1.0), 40.0, "delta", (17, 2, 5)),
        ((1.0, 2.0, -1.0), 900.0, "delta", (191, 13, 23)),
        ((-2.0, 1.0, 1.0), 1500.0, "dyadic", (2029, 43, 47)),
        ((-2.0, 1.0, 1.0), 5000.0, "dyadic", (5641, 71, 79))])
    def test_exact_hits_at_threshold_zero(self, table, lam, X, window, hit):
        # integer residuals at k = 2: threshold 0 keeps the exact hits,
        # 17 + 2*2^2 - 5^2 = 0 and -2*2029 + 43^2 + 47^2 = 0 among them
        inst = ProblemInstance(*lam, k=2.0, varpi=0.0)
        fast = find_solutions(inst, table, X, 0.0, window=window)
        brute = brute_force_solutions(inst, table, X, 0.0, window=window)
        assert hit in triples(fast)
        assert fast.records == brute.records
        assert all(r.residual == 0.0 for r in fast.records)

    @pytest.mark.parametrize("lambda3,X,window,ends", [
        (1.0, 1999.0, "delta", (211, 1999)),
        (0.5, 1009.0, "dyadic", (1009, 2017))])
    def test_p1_at_window_ends(self, table, lambda3, X, window, ends):
        # the first and last primes of the p1 window are solutions, and the
        # bands of their pairs reach past the window's ends
        inst = ProblemInstance(1.0, -math.sqrt(2.0), lambda3, k=1.05,
                               varpi=0.3)
        p1s = expsums.window(1.0, *((0.1 * X, X) if window == "delta"
                                    else (X, 2 * X)), table)[0]
        assert (p1s[0], p1s[-1]) == ends
        fast = find_solutions(inst, table, X, 3.0, window=window)
        brute = brute_force_solutions(inst, table, X, 3.0, window=window)
        assert {ends[0], ends[-1]} <= {r.p1 for r in fast.records}
        assert fast.records == brute.records

    def test_guard(self, exact_inst, table):
        with pytest.raises(ValidationError):
            brute_force_solutions(exact_inst, table, 10**5, 0.1)


class TestThreshold:
    def test_k1_formal_value(self):
        inst = ProblemInstance(1.0, -1.0, 1.0, k=1.0, eps=0.0)
        assert admissible_threshold(inst, 10**6) == pytest.approx(
            10 ** (-1.0 / 3.0), rel=1e-12)

    def test_boundary_k(self):
        inst = ProblemInstance(1.0, -1.0, 1.0, k=33.0 / 29.0, eps=0.0)
        assert admissible_threshold(inst, 10**6) == pytest.approx(1.0, rel=1e-9)

    def test_monotone_in_eps(self):
        vals = [admissible_threshold(
            ProblemInstance(1.0, -1.0, 1.0, k=1.05, eps=e), 10**5)
            for e in (0.0, 0.01, 0.05, 0.2)]
        assert vals == sorted(vals)


def test_weighted_sum_consistency(table):
    inst = ProblemInstance(1.0, -math.sqrt(2.0), -1.0, k=1.05, varpi=0.0)
    eta = 0.5
    total = weighted_solution_sum(inst, table, 500.0, eta)
    rep = find_solutions(inst, table, 500.0, eta)
    manual = sum(math.log(r.p1) * math.log(r.p2) * math.log(r.p3)
                 * (eta - abs(r.residual)) for r in rep.records)
    assert total == pytest.approx(manual, rel=1e-12)
