import logging
import math
import re
import time
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy.special import sici

from primearcs import circle, expsums
from primearcs.circle import verify_fourier_pair
from primearcs.errors import ConvergenceError, ValidationError
from primearcs.expsums import (WINDOW_CACHE_SIZE, WindowSpec,
                               _legendre_fraction, _power_series,
                               eval_S, eval_T, eval_T_grid, eval_T_range,
                               eval_U, eval_U_range, fejer_hat,
                               s_minus_u_weights, window)
from primearcs.numutil import (TWO_PI, e_of, exp_pair_integral, expand_square,
                               frac_phase, fsum_complex, powk_extended)
from primearcs.primes import build_table
from pointwise import fejer_K

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


def gl_T(k, u_lo, u_hi, alpha, max_hw=1.0):
    """Independent oracle for T, free of the closed form: Gauss-Legendre in
    u with 16 nodes on panels of a dyadic half-width under 1/16 cycle and
    at most max_hw, so every centre is exact and its phase is reduced per
    panel."""
    x, wgt = np.polynomial.legendre.leggauss(16)
    hw = min(max_hw, 2.0 ** math.floor(math.log2(1 / (16 * abs(alpha)))))
    n = round((u_hi - u_lo) / (2 * hw))
    total = 0j
    for i in range(0, n, 1 << 16):
        c = u_lo + (2 * np.arange(i, min(n, i + (1 << 16))) + 1) * hw
        phase = frac_phase(c, alpha)[:, None] + (alpha * hw) * x[None, :]
        amp = (c[:, None] + hw * x[None, :]) ** (1 / k - 1) / k
        total += complex(np.sum((np.exp(2j * math.pi * phase) * amp) @ wgt) * hw)
    return total


def closed_T(k, u_lo, u_hi, alpha):
    """T in closed form at 30 digits: u = t^k and v = s u, s = -2 pi i alpha,
    give (1/k) s^(-1/k) Gamma(1/k; s u_lo, s u_hi), the incomplete gamma
    integral of v^(1/k-1) e^-v along the ray through s."""
    with mpmath.workdps(30):
        s = -2j * mpmath.pi * mpmath.mpf(alpha)
        a = 1 / mpmath.mpf(k)
        return complex(a * s ** -a * mpmath.gammainc(a, s * u_lo, s * u_hi))


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
        for _ in range(3):      # refused on every call: errors are not cached
            with pytest.raises(ValidationError):
                eval_S(table, w, 0.0)
        assert (1.0, w.X, 2.0 * w.X) not in table.windows


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
        bound = math.fsum(np.abs(s_minus_u_weights(table, w)[1]))
        for alpha in (0.0, 0.31, 2.7, 15.1):
            diff = abs(eval_S(table, w, alpha) - eval_U(w, alpha))
            assert diff <= bound + 1e-9


def cold_S(table, k, lo, hi, alpha):
    """S on lo <= p^k <= hi from the table's primes, without the cache."""
    ps = table.primes_in_range(2, min(table.limit, hi ** (1.0 / k) + 2))
    pk = powk_extended(ps, k)
    keep = (pk >= lo) & (pk <= hi)
    return fsum_complex(np.log(ps[keep].astype(np.float64)) * e_of(pk[keep], alpha))


def cold_U(k, lo, hi, alpha):
    ns = np.arange(1, math.ceil(hi ** (1.0 / k)) + 2, dtype=np.int64)
    nk = powk_extended(ns, k)
    return fsum_complex(e_of(nk[(nk >= lo) & (nk <= hi)], alpha))


class TestWindowCache:
    def test_cached_sums_equal_cold_oracle(self, table):
        # more distinct windows than the cache holds, visited in turn, so
        # entries are evicted and rebuilt; then two windows interleaved
        s_wins = [(1.0 + 0.05 * i, 300.0 * (i + 1)) for i in range(WINDOW_CACHE_SIZE + 2)]
        u_wins = [(1.1 + 0.05 * i, 211.0 * (i + 1)) for i in range(WINDOW_CACHE_SIZE + 2)]
        for alpha in (0.0, 0.37, 1.9):
            for (k, X), (ku, Xu) in zip(s_wins, u_wins):
                assert eval_S(table, WindowSpec(X, k), alpha) == \
                    cold_S(table, k, X, 2.0 * X, alpha)
                assert eval_U(WindowSpec(Xu, ku), alpha) == \
                    cold_U(ku, Xu, 2.0 * Xu, alpha)
        X = 1e4
        rhs = (X / math.sqrt(3) + math.sqrt(X * 3) + X ** 0.8) * math.log(X) ** 4
        for alpha in np.linspace(1 / 3 - 0.04, 1 / 3 + 0.04, 9):
            assert circle.bound_vaughan(table, X, alpha, 1, 3) == \
                abs(cold_S(table, 1.0, X, 2.0 * X, alpha)) / rhs
            assert eval_S(table, WindowSpec(X, 1.05), alpha) == \
                cold_S(table, 1.05, X, 2.0 * X, alpha)
        assert len(table.windows) <= WINDOW_CACHE_SIZE
        assert len(expsums._integer_windows) <= WINDOW_CACHE_SIZE

    def test_window_arrays_read_only(self, table):
        win = window(1.05, 1e3, 2e3, table)
        for arr in (win.values, *win.powers, win.weights,
                    window(1.05, 1e3, 2e3).values):
            with pytest.raises(ValueError):
                arr[0] = 1

    def test_one_build_per_window(self, monkeypatch):
        calls = []

        def counting(n, k):
            calls.append(k)
            return powk_extended(n, k)

        monkeypatch.setattr(expsums, "powk_extended", counting)
        fresh = build_table(10_000)
        w = WindowSpec(X=2718.5, k=1.07)
        for alpha in np.linspace(0.0, 3.0, 50):
            eval_S(fresh, w, alpha)
            eval_U(w, alpha)
        assert calls == [1.07, 1.07]

    def test_sum_temporaries_below_mmap_threshold(self):
        # S and U work in blocks of 2^13 terms (64 KiB per float64 array),
        # below glibc's 128 KiB mmap threshold, so no temporary is mapped
        # and faulted in again on every call; whole-window temporaries of
        # the 54 044-term U window (0.86 MB per longdouble or complex
        # array) pass 1 MiB together
        w = WindowSpec(1e5, 1.05)
        eval_U(w, 1.2345)  # builds and caches the window
        tracemalloc.start()
        try:
            eval_U(w, 1.2345)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(window(1.05, 1e5, 2e5).values) == 54_044
        assert peak <= 1 << 20

    def test_build_logged_once(self, caplog):
        w = WindowSpec(X=3141.5, k=1.09)
        with caplog.at_level(logging.DEBUG, logger="primearcs.expsums"):
            for alpha in np.linspace(0.0, 1.0, 20):
                eval_U(w, alpha)
        builds = [re.search(r"integer window 3141.5 <= n\^1.09 <= 6283: "
                            r"(\d+) terms in (\S+) s", r.getMessage())
                  for r in caplog.records]
        assert len(builds) == 1 and builds[0]
        assert int(builds[0].group(1)) == round(eval_U(w, 0.0).real)


class TestT:
    def test_alpha_zero_exact(self):
        w = WindowSpec(X=100, k=2, delta=0.01)
        assert eval_T(w, 0.0) == complex(10.0 - 1.0)

    def test_against_brute_quadrature(self):
        w = WindowSpec(X=100, k=2, delta=0.01)
        val = eval_T(w, 0.03, tol=1e-11)
        oracle = brute_T(2, 1.0, 100.0, 0.03)
        assert abs(val - oracle) < 1e-9

    def test_stall_keeps_best(self):
        # tol 1e-16 is below the closed form's rounding floor: it raises
        # with the values, which a reachable tol reproduces
        with pytest.raises(ConvergenceError, match="error bound") as info:
            eval_T_grid(1.05, 100.0, 1e3, [0.3], [0.0], 1e-16)
        exc = info.value
        assert exc.best.shape == (1, 1)
        assert math.isfinite(exc.est_error) and exc.est_error > 1e-16
        want = eval_T_range(1.05, 100.0, 1e3, 0.3, tol=1e-10)
        assert abs(exc.best[0, 0] - want) <= 1e-9

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
        # the nodes take in 0, 0.013, -0.2 and 0.44
        w = WindowSpec(X=300, k=1.05, delta=0.1)
        centers = np.array([-0.2, 0.0, 0.2, 0.4])
        offs = np.array([0.0, 0.013, 0.04])
        grid, est = eval_T_grid(w.k, w.delta * w.X, w.X, centers, offs)
        assert grid.shape == (4, 3) and 0.0 <= est <= 1e-10
        nodes = centers[:, None] + offs[None, :]
        for a, g in zip(nodes.ravel(), grid.ravel()):
            assert g == pytest.approx(eval_T(w, float(a), tol=1e-11),
                                      rel=1e-8, abs=1e-8)

    def test_grid_against_quadrature_oracle(self):
        # gl_T is independent of the closed form.  |alpha| = 0.1 makes 9000
        # cycles; 0 takes the exact path.
        k, u_lo, u_hi = 1.05, 1e4, 1e5
        for alpha in (-0.1, -0.0371, -4e-4, 0.0, 4e-4, 0.013, 0.0707, 0.1):
            val = eval_T_range(k, u_lo, u_hi, alpha)
            if alpha == 0.0:
                assert val == u_hi ** (1 / k) - u_lo ** (1 / k)
                continue
            assert abs(val - gl_T(k, u_lo, u_hi, alpha)) < 1e-11, alpha
        # the grid path on panel grids as gauss_panels makes them, about
        # two cycles of u_hi per panel: centres a + (2i+1) hw and offsets
        # of few bits, so every node c + o is exact in float64 (rounding it
        # would move T by ~|dT/dalpha| ulp(alpha), up to 6e-12 here).
        hw = 2.0 ** -17
        offs = np.round(np.polynomial.legendre.leggauss(8)[0][::2] * 256) / 256 * hw
        for a in (-0.1, 4e-4, 0.0707):
            centers = round(a / hw) * hw + (2 * np.arange(3) + 1) * hw
            grid, est = eval_T_grid(k, u_lo, u_hi, centers, offs, tol=1e-11)
            nodes = centers[:, None] + offs[None, :]
            assert np.all(nodes - centers[:, None] == offs[None, :])
            for alpha, val in zip(nodes.ravel(), grid.ravel()):
                assert abs(val - gl_T(k, u_lo, u_hi, alpha)) < 1e-11, alpha

    def test_grid_estimate_bounds_its_error(self):
        # k = 2, u in [1, 100]: the amplitude falls tenfold, where one fixed
        # Filon step with Richardson extrapolation was 1.9e-9 off at
        # alpha = -2 with no estimate
        grid, est = eval_T_grid(2.0, 1.0, 100.0, np.array([-2.0, 0.7]),
                                np.array([0.0]))
        errs = [abs(grid[i, 0] - gl_T(2.0, 1.0, 100.0, a, max_hw=2.0 ** -5))
                for i, a in enumerate((-2.0, 0.7))]
        assert max(errs) < 1e-10
        assert est >= max(errs)

    def test_one_node_at_large_X(self):
        # 64 000 cycles, where the endpoint phases need their extended
        # reduction: quadratures of this T stalled or drifted 1.6e-9 off
        w = WindowSpec(X=1e6, k=1.05, delta=0.1)
        val = eval_T(w, 0.0707, tol=1e-10)
        assert abs(val - gl_T(w.k, w.delta * w.X, w.X, 0.0707)) < 1e-10

    def test_against_closed_form(self):
        # the incomplete-gamma closed form, itself checked against the
        # Simpson oracle on a short window; gl_T cannot replace it at
        # X = 1e6, where it is 1.5e-11 from the closed form
        assert abs(closed_T(2.0, 1.0, 100.0, 0.03)
                   - brute_T(2, 1.0, 100.0, 0.03)) < 1e-9
        w = WindowSpec(X=1e6, k=1.05, delta=0.1)
        for alpha in (0.0123, -0.0371, 0.0707):
            val = eval_T(w, alpha, tol=1e-10)
            want = closed_T(w.k, w.delta * w.X, w.X, alpha)
            assert abs(val - want) <= 1e-11, alpha

    @pytest.mark.parametrize("k", [1.0, 1.05, 33 / 29, 2.0])
    def test_fraction_against_gammainc(self, k):
        # Legendre's fraction from |z| = 4 up: each value within its last
        # Lentz step plus its per-step rounding of 30-digit mpmath
        a = 1 / k
        s = np.array([4.0, 4.001, 5.0, 8.0, 40.0, 1e3, 1e6])
        z = np.concatenate((-1j * s, 1j * s))
        got, last, steps = _legendre_fraction(z, a)
        assert np.all(steps <= 45)
        eps = np.finfo(float).eps
        with mpmath.workdps(30):
            for zi, ci, li, ni in zip(z, got, last, steps):
                zz = mpmath.mpc(0, zi.imag)
                want = complex(mpmath.exp(zz) * zz ** -a * mpmath.gammainc(a, zz))
                assert abs(ci - want) <= (li + ni * eps) * abs(want), zi

    def test_fraction_stops_nan_at_cap(self):
        # a nan step never has |Delta - 1| < 1e-15 nor below inf, so the
        # loop ran forever; at _LENTZ_CAP every z left stops
        z = np.array([complex(np.nan, np.nan), -1j * np.inf, -40j])
        with np.errstate(invalid="ignore"):
            _, last, steps = _legendre_fraction(z, 1.0)
        assert list(steps[:2]) == [expsums._LENTZ_CAP] * 2 and steps[2] < 45
        assert np.isnan(last[:2]).all() and last[2] < 1e-15

    @pytest.mark.parametrize("alpha", [math.inf, -math.inf, math.nan])
    def test_non_finite_alpha_raises_at_once(self, alpha):
        # inf hung in the fraction, and nan took the alpha = 0 value
        w = WindowSpec(X=100, k=1.0)
        t0 = time.perf_counter()
        with pytest.raises(ValidationError, match="finite alpha"):
            eval_T(w, alpha)
        with pytest.raises(ValidationError, match="finite alpha"):
            eval_T_grid(1.0, 10.0, 100.0, [0.0, 0.5], [0.0, alpha])
        assert time.perf_counter() - t0 < 1.0

    @pytest.mark.parametrize("k", [1.0, 1.05, 33 / 29, 2.0])
    def test_series_against_gammainc(self, k):
        # int_r^1 y^(a-1) e^(i x y) dy = (-i x)^-a (gamma(a, -i x r) -
        # gamma(a, -i x)) below |z| = 4, within the series' tail bound
        # and its rounding floor
        a = 1 / np.longdouble(k)
        for x in (1e-8, 0.5, 3.0, 3.999, 4.0):
            for r in (1e-3, 0.3, 0.999):
                got, tail = _power_series(np.array([x]),
                                          np.array([r], dtype=np.longdouble), a)
                with mpmath.workdps(30):
                    s = mpmath.mpc(0, -x)
                    want = complex(s ** (-1 / mpmath.mpf(k))
                                   * mpmath.gammainc(1 / mpmath.mpf(k), s * r, s))
                err = abs(complex(got[0]) - want)
                assert err <= tail[0] + expsums._SERIES_FLOOR_EPS * abs(want)
                assert tail[0] < 1e-16

    @pytest.mark.parametrize("k", [1.0, 1.05, 33 / 29, 2.0])
    def test_switch_against_gammainc(self, k):
        # T where |z| = 2 pi alpha u crosses 4 just below, at and just above
        # an endpoint or inside the range: the bound holds the true error
        for u_lo, u_hi in ((1.0, 100.0), (10.0, 1e4)):
            for u in (u_lo, math.sqrt(u_lo * u_hi), u_hi):
                for zs in (3.0, 3.999, 4.0, 4.001, 5.0):
                    alpha = zs / (2 * math.pi * u)
                    (val,), est = eval_T_grid(k, u_lo, u_hi, [alpha], [0.0])
                    err = abs(val[0] - closed_T(k, u_lo, u_hi, alpha))
                    assert err <= est <= 1e-12 * max(1.0, abs(val[0]))
        # k = 1 on [10, 1e4] at alpha = 1e-4: the series and the fraction
        # (about 2.9e3 each) cancel to |T| near 10, where a series summed in
        # float64 is 1.6e-11 off
        (val,), est = eval_T_grid(1.0, 10.0, 1e4, [1e-4], [0.0])
        err = abs(val[0] - closed_T(1.0, 10.0, 1e4, 1e-4))
        assert abs(val[0]) == pytest.approx(10.0, rel=0.01)
        assert err <= est < 2e-11 and err < 2e-12

    def test_grid_logs_its_record(self, caplog):
        # one record per call: nodes, nodes by fraction and by series, the
        # most Lentz steps and the bound; on [10, 1e3] the series covers
        # |alpha| < 4 / (2 pi 10) = 0.064, the fraction |alpha| > 4 / (2 pi 1e3)
        centers, offs = np.array([0.0, 0.03, -0.5]), np.array([0.0, 2e-4])
        with caplog.at_level(logging.DEBUG, logger="primearcs.expsums"):
            vals, est = eval_T_grid(1.05, 10.0, 1e3, centers, offs)
        (msg,) = [r.getMessage() for r in caplog.records
                  if r.getMessage().startswith("T on")]
        m = re.fullmatch(r"T on \[10, 1000\]: 6 nodes, (\d+) by fraction, (\d+) "
                         r"by series, (\d+) Lentz steps at most, bound (\S+)", msg)
        assert (int(m.group(1)), int(m.group(2))) == (4, 3)
        assert 1 <= int(m.group(3)) <= 45
        assert 0 < est <= 1e-10 and float(m.group(4)) == pytest.approx(est, rel=1e-3)
        assert vals[0, 0] == 1e3 ** (1 / 1.05) - 10.0 ** (1 / 1.05)

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

    @pytest.mark.parametrize("eta", [0.1, 0.37, 1.0])
    @pytest.mark.parametrize("A", [1e3, 2500.3, 1e4])
    def test_fourier_pair_tail_closed_form(self, eta, A):
        # at t = 0 the discrepancy is the two-sided tail of K_eta past A:
        # (2/pi^2) [sin^2(pi eta A)/A + pi eta (pi/2 - Si(2 pi eta A))]
        si, _ = sici(2.0 * math.pi * eta * A)
        tail = 2.0 / math.pi ** 2 * (math.sin(math.pi * eta * A) ** 2 / A
                                     + math.pi * eta * (math.pi / 2.0 - si))
        assert verify_fourier_pair(eta, 0.0, A) == pytest.approx(tail, rel=0,
                                                                 abs=1e-14)

    def test_fourier_pair_precondition(self):
        with pytest.raises(ValidationError):
            verify_fourier_pair(0.1, 0.0, 50.0)


class TestFourthMoment:
    """int |S_2|^4 = int |S_2^2|^2 in the closed form that minor_arc_l2 and
    trivial_tails use: exp_pair_integral of expand_square's S_2^2."""

    # an empty range, and at X = 50 an empty window: no prime in [8, 10]
    @pytest.mark.parametrize("X,lo,hi", [(100, 0.7, 0.7), (50, 0.0, 1.0)])
    def test_degenerate(self, table, X, lo, hi):
        win = window(2.0, X, 2.0 * X, table)
        assert exp_pair_integral(*expand_square(win.powers[0], win.weights),
                                 lo, hi) == 0.0

    def test_parseval_oracle(self, table):
        # X=100: primes 11, 13; over [0,1] the integral collapses to the
        # squared-coefficient sum of S_2^2
        win = window(2.0, 100.0, 200.0, table)
        val = exp_pair_integral(*expand_square(win.powers[0], win.weights),
                                0.0, 1.0)
        l11, l13 = math.log(11), math.log(13)
        want = l11 ** 4 + 4 * (l11 * l13) ** 2 + l13 ** 4
        assert val == pytest.approx(want, rel=1e-9)

    def test_quadrature_cross_check(self, table):
        # generic interval: compare the pairwise closed form against a
        # dense direct quadrature of |S_2|^4
        lo, hi = 0.2, 0.9
        ps, (p2, _), logs = window(2.0, 60.0, 120.0, table)
        val = exp_pair_integral(*expand_square(p2, logs), lo, hi)
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


def test_window_selectors(table):
    assert window(2.0, 100.0, 200.0, table).values.tolist() == [11, 13]
    assert window(2.0, 100.0, 200.0).values.tolist() == [10, 11, 12, 13, 14]
    assert window(1.5, 100.0, 200.0).values.tolist() == list(range(22, 35))


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
