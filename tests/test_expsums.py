import math

import numpy as np
import pytest

from primearcs.errors import ValidationError
from primearcs.expsums import (WindowSpec, eval_S, eval_T,
                               eval_T_grid, eval_T_range, eval_U,
                               eval_U_range, fejer_K, fejer_hat,
                               fourth_moment_S2, integer_window, prime_window,
                               s_minus_u_l1_bound, verify_fourier_pair)
from primearcs.numutil import exp_pair_integral

# |T - U| <= C (1 + |alpha| X) on matched windows; fitted once on the grid
# below and frozen.
TU_FROZEN_C = 3.2


def brute_T(k, u_lo, u_hi, alpha, n=200001):
    """Independent oracle: dense Simpson rule in the t domain."""
    t_lo, t_hi = u_lo ** (1.0 / k), u_hi ** (1.0 / k)
    ts = np.linspace(t_lo, t_hi, n)
    vals = np.exp(2j * math.pi * alpha * ts ** k)
    h = (t_hi - t_lo) / (n - 1)
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return complex((vals * w).sum() * h / 3.0)


class TestS:
    def test_window_examples(self, table):
        w = WindowSpec(X=100, k=2, delta=0.1)
        val = eval_S(table, w, 0.0)
        assert val == pytest.approx(math.log(11) + math.log(13), rel=1e-14)

    def test_half_integer_phase(self, table):
        w = WindowSpec(X=10, k=1, delta=0.1)
        val = eval_S(table, w, 0.5)
        want = -sum(math.log(p) for p in (11, 13, 17, 19))
        assert val.real == pytest.approx(want, rel=1e-13)
        assert abs(val.imag) < 1e-12

    def test_triangle_bound(self, table):
        w = WindowSpec(X=5000, k=1.05, delta=0.1)
        peak = eval_S(table, w, 0.0).real
        for alpha in (0.01, 0.37, 2.5, 41.7):
            assert abs(eval_S(table, w, alpha)) <= peak + 1e-9

    def test_conjugate_symmetry(self, table):
        w = WindowSpec(X=3000, k=1.3, delta=0.1)
        for alpha in (0.21, 1.7, 19.3):
            a = eval_S(table, w, alpha)
            b = eval_S(table, w, -alpha)
            assert b == pytest.approx(a.conjugate(), rel=1e-12, abs=1e-12)

    def test_periodicity_k1(self, table):
        w = WindowSpec(X=500, k=1, delta=0.1)
        a = eval_S(table, w, 0.137)
        b = eval_S(table, w, 1.137)
        assert b == pytest.approx(a, rel=1e-11)

    def test_table_too_small(self, table):
        w = WindowSpec(X=float(table.limit) ** 2, k=1, delta=0.1)
        with pytest.raises(ValidationError):
            eval_S(table, w, 0.0)


class TestU:
    def test_count_k2(self):
        w = WindowSpec(X=100, k=2, delta=0.1)
        assert eval_U(w, 0.0) == pytest.approx(5.0)      # n = 10..14
        assert eval_U(w, 1.0) == pytest.approx(5.0)      # e(integer) = 1

    def test_count_fractional_k(self):
        w = WindowSpec(X=100, k=1.5, delta=0.1)
        assert eval_U(w, 0.0) == pytest.approx(13.0)     # n = 22..34

    def test_s_minus_u_pointwise_bound(self, table):
        w = WindowSpec(X=400, k=1.2, delta=0.1)
        bound = s_minus_u_l1_bound(table, w)
        for alpha in (0.0, 0.31, 2.7, 15.1):
            diff = abs(eval_S(table, w, alpha) - eval_U(w, alpha))
            assert diff <= bound + 1e-9


class TestT:
    def test_alpha_zero_exact(self):
        w = WindowSpec(X=100, k=2, delta=0.01)
        assert eval_T(w, 0.0) == complex(10.0 - 1.0)

    def test_against_brute_quadrature(self):
        w = WindowSpec(X=100, k=2, delta=0.01)
        val = eval_T(w, 0.03, tol=1e-11)
        oracle = brute_T(2, 1.0, 100.0, 0.03)
        assert abs(val - oracle) < 1e-9

    def test_more_windows_against_oracle(self):
        for k, X, delta, alpha in ((1.0, 50, 0.1, 0.8), (1.05, 200, 0.1, -0.11),
                                   (2.0, 400, 0.05, 0.007), (1.3, 80, 0.2, 2.2)):
            val = eval_T(WindowSpec(X=X, k=k, delta=delta), alpha, tol=1e-11)
            oracle = brute_T(k, delta * X, float(X), alpha)
            assert abs(val - oracle) < 1e-8

    def test_oscillation_sized_start(self):
        # thousands of cycles on u in [1e4, 1e5]: the oracle is Gauss-Legendre
        # in u, 16 nodes on each quarter cycle, on e(u a) u^(1/k-1)/k
        k, u_lo, u_hi = 1.05, 1e4, 1e5
        x, wgt = np.polynomial.legendre.leggauss(16)
        for alpha in (0.04, 0.07, 0.10):
            n = int(math.ceil(4 * alpha * (u_hi - u_lo)))
            hw = (u_hi - u_lo) / (2 * n)
            u = (u_lo + (2 * np.arange(n) + 1)[:, None] * hw
                 + x[None, :] * hw)
            vals = np.exp(2j * math.pi * alpha * u) * u ** (1 / k - 1) / k
            oracle = complex(np.sum(vals @ wgt) * hw)
            val = eval_T(WindowSpec(X=u_hi, k=k, delta=0.1), alpha, tol=1e-9)
            assert abs(val - oracle) < 1e-9

    def test_conjugate(self):
        w = WindowSpec(X=100, k=1.5, delta=0.1)
        a = eval_T(w, 0.4, tol=1e-11)
        b = eval_T(w, -0.4, tol=1e-11)
        assert b == pytest.approx(a.conjugate(), rel=1e-10, abs=1e-12)

    def test_magnitude_decay_bound(self):
        # |T_k(alpha)| <= min(range length, C/|alpha| X^(1/k - 1));
        # C is empirical, logged in the assertion message scale
        w = WindowSpec(X=100, k=2, delta=0.01)
        length = 10.0 - 1.0
        for alpha in (0.05, 0.3, 1.7, 8.0):
            mag = abs(eval_T(w, alpha, tol=1e-10))
            assert mag <= length + 1e-9
            assert mag <= 4.0 / abs(alpha) * 100 ** (1 / 2 - 1) + 1e-9

    def test_grid_matches_scalar(self):
        w = WindowSpec(X=300, k=1.05, delta=0.1)
        alphas = np.array([0.0, 0.013, -0.2, 0.44])
        grid = eval_T_grid(w.k, w.delta * w.X, w.X, alphas)
        for a, g in zip(alphas, grid):
            assert g == pytest.approx(eval_T(w, float(a), tol=1e-11),
                                      rel=1e-8, abs=1e-8)

    def test_tu_comparator_matched_windows(self, table):
        """Euler-summation comparator |T - U| <= C (1 + |alpha| X) with the
        frozen constant, on matched windows (same n^k range for both)."""
        worst = 0.0
        for k in (1.0, 1.2, 2.0):
            for X in (50.0, 500.0, 5000.0):
                for alpha in (0.0, 1e-4, 0.01, 0.3, 0.9):
                    t_val = eval_T_range(k, X, 2.0 * X, alpha, tol=1e-10)
                    u_val = eval_U_range(k, X, 2.0 * X, alpha)
                    ratio = abs(t_val - u_val) / (1.0 + alpha * X)
                    worst = max(worst, ratio)
        assert worst <= TU_FROZEN_C


class TestFejer:
    def test_values(self):
        eta = 0.1
        assert fejer_K(eta, 0.0) == pytest.approx(eta ** 2)
        assert fejer_K(eta, 1 / (2 * eta)) == pytest.approx((2 * eta / math.pi) ** 2)
        assert fejer_K(eta, 1 / eta) == pytest.approx(0.0, abs=1e-30)

    def test_nonnegative_and_bounded(self):
        alphas = np.linspace(-50, 50, 2001)
        vals = fejer_K(0.35, alphas)
        assert np.all(vals >= 0)
        nz = alphas[np.abs(alphas) > 1e-9]
        assert np.all(fejer_K(0.35, nz) <= 1.0 / nz ** 2 + 1e-15)
        assert np.all(vals <= 0.35 ** 2 + 1e-15)

    def test_domain_error(self):
        with pytest.raises(ValidationError):
            fejer_K(0.0, 1.0)

    def test_hat(self):
        assert fejer_hat(2.0, 0.0) == 2.0
        assert fejer_hat(2.0, 5.0) == 0.0
        assert fejer_hat(2.0, -1.0) == 1.0
        assert fejer_hat(1.0, 0.5) == 0.5

    def test_fourier_pair(self):
        assert verify_fourier_pair(0.1, 0.0, 1e4) <= 3e-5
        assert verify_fourier_pair(0.1, 0.2, 1e4) <= 3e-5
        assert verify_fourier_pair(1.0, 0.5, 1e4) <= 3e-5

    def test_fourier_pair_precondition(self):
        with pytest.raises(ValidationError):
            verify_fourier_pair(0.1, 0.0, 50.0)


class TestFourthMoment:
    def test_degenerate(self, table):
        w = WindowSpec(X=100, k=2, delta=0.1)
        assert fourth_moment_S2(table, w, 0.7, 0.7) == 0.0

    def test_parseval_oracle(self, table):
        # X=100: primes 11, 13; over [0,1] the integral collapses to the
        # squared-coefficient sum of S_2^2
        w = WindowSpec(X=100, k=2, delta=0.1)
        val = fourth_moment_S2(table, w, 0.0, 1.0)
        l11, l13 = math.log(11), math.log(13)
        want = l11 ** 4 + 4 * (l11 * l13) ** 2 + l13 ** 4
        assert val == pytest.approx(want, rel=1e-9)

    def test_quadrature_cross_check(self, table):
        # generic interval: compare the pairwise closed form against a
        # dense direct quadrature of |S_2|^4
        w = WindowSpec(X=60, k=2, delta=0.1)
        lo, hi = 0.2, 0.9
        val = fourth_moment_S2(table, w, lo, hi)
        ps, logs = prime_window(table, 2.0, 60.0, 120.0)
        alphas = np.linspace(lo, hi, 200001)
        s = np.zeros_like(alphas, dtype=complex)
        for p, lg in zip(ps, logs):
            s += lg * np.exp(2j * math.pi * float(p) ** 2 * alphas)
        h = (hi - lo) / (len(alphas) - 1)
        w_s = np.ones(len(alphas))
        w_s[1:-1:2] = 4
        w_s[2:-1:2] = 2
        oracle = float((np.abs(s) ** 4 * w_s).sum() * h / 3)
        assert val == pytest.approx(oracle, rel=1e-6)

    def test_ratio_monitor_logged(self, table):
        # ratio to X log^2 X recorded across scales: finite and positive
        for X in (100.0, 1000.0, 10000.0):
            w = WindowSpec(X=X, k=2, delta=0.1)
            val = fourth_moment_S2(table, w, 0.0, 1.0)
            ratio = val / (X * math.log(X) ** 2)
            assert 0 < ratio < math.inf

    def test_requires_k2(self, table):
        with pytest.raises(ValidationError):
            fourth_moment_S2(table, WindowSpec(X=100, k=1, delta=0.1), 0, 1)


def test_window_selectors(table):
    ps, _ = prime_window(table, 2.0, 100.0, 200.0)
    assert ps.tolist() == [11, 13]
    assert integer_window(2.0, 100.0, 200.0).tolist() == [10, 11, 12, 13, 14]
    assert integer_window(1.5, 100.0, 200.0).tolist() == list(range(22, 35))


def test_exp_pair_integral_against_quadrature():
    freqs = np.array([1.0, 2.5, 4.0, 7.3])
    coeffs = np.array([0.7, -1.1, 0.4, 2.0])
    a, b = -0.3, 0.8
    val = exp_pair_integral(freqs, coeffs, a, b)
    xs = np.linspace(a, b, 400001)
    s = sum(c * np.exp(2j * math.pi * f * xs) for f, c in zip(freqs, coeffs))
    w_s = np.ones(len(xs))
    w_s[1:-1:2] = 4
    w_s[2:-1:2] = 2
    oracle = float((np.abs(s) ** 2 * w_s).sum() * (b - a) / (len(xs) - 1) / 3)
    assert val == pytest.approx(oracle, rel=1e-10)
