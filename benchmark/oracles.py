"""Reference computations for the benchmark's output checks.

Nothing here imports primearcs.  Every check recomputes a job's output by
another route -- a plain sieve, an enumeration that inverts on p1 by a
sorted search, mpmath at 30 or 50 digits, closed-form pair sums, direct
quadrature, exact integer sums -- so that a wrong result cannot agree
with a copy of itself.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

_LD = np.longdouble


# ------------------------------- primes -------------------------------------

class Primes:
    """Primes up to ``limit`` with theta and psi as exact prefix sums.

    ``theta[n]`` and ``psi[n]`` hold theta(n) and psi(n) for every integer
    0 <= n <= limit, accumulated in extended precision.
    """

    def __init__(self, limit: int):
        self.limit = int(limit)
        flags = np.ones(self.limit + 1, dtype=bool)
        flags[:2] = False
        for p in range(2, math.isqrt(self.limit) + 1):
            if flags[p]:
                flags[p * p::p] = False
        self.flags = flags
        self.primes = np.flatnonzero(flags)
        self._theta = None
        self._psi = None

    def is_prime(self, n: int) -> bool:
        return 0 <= n <= self.limit and bool(self.flags[n])

    def in_range(self, lo: float, hi: float) -> np.ndarray:
        p = self.primes
        return p[(p >= lo) & (p <= hi)]

    @property
    def theta(self) -> np.ndarray:
        if self._theta is None:
            lam = np.zeros(self.limit + 1, dtype=_LD)
            lam[self.primes] = np.log(self.primes.astype(_LD))
            self._theta = np.cumsum(lam)
        return self._theta

    @property
    def psi(self) -> np.ndarray:
        if self._psi is None:
            lam = np.zeros(self.limit + 1, dtype=_LD)
            logs = np.log(self.primes.astype(_LD))
            power = self.primes.copy()
            live = np.ones(len(power), dtype=bool)
            while live.any():
                lam[power[live]] = logs[live]
                power[live] *= self.primes[live]
                live &= power <= self.limit
            self._psi = np.cumsum(lam)
        return self._psi


def mp_power(n, k, dps: int):
    import mpmath
    with mpmath.workdps(dps):
        return mpmath.power(mpmath.mpf(int(n)), mpmath.mpf(k))


def kth_power_window(primes: Primes, k: float, lo: float, hi: float,
                     candidates: np.ndarray | None = None) -> np.ndarray:
    """Integers (primes by default) n with lo <= n^k <= hi.

    Float powers decide every n whose n^k sits clear of both ends;
    mpmath at 30 digits settles the ones within 1e-9 relative of an end.
    """
    if candidates is None:
        top = hi ** (1.0 / k) + 2.0
        candidates = primes.primes[primes.primes <= top]
    nk = candidates.astype(np.float64) ** k
    keep = (nk >= lo) & (nk <= hi)
    near = (np.abs(nk - lo) <= 1e-9 * lo) | (np.abs(nk - hi) <= 1e-9 * hi)
    for i in np.flatnonzero(near):
        v = mp_power(candidates[i], k, 30)
        keep[i] = lo <= v <= hi
    return candidates[keep]


# ----------------------------- triple search --------------------------------

def mp_residual(lams, k: float, varpi: float, p1: int, p2: int, p3: int):
    """lambda1 p1 + lambda2 p2^2 + lambda3 p3^k + varpi at 50 digits, from
    the same float coefficients the program receives."""
    import mpmath
    with mpmath.workdps(50):
        l1, l2, l3 = (mpmath.mpf(x) for x in lams)
        return (l1 * p1 + l2 * (p2 * p2)
                + l3 * mpmath.power(mpmath.mpf(p3), mpmath.mpf(k))
                + mpmath.mpf(varpi))


def enumerate_triples(primes: Primes, lams, k: float, varpi: float,
                      lo: float, hi: float, thr: float) -> dict:
    """Every prime triple of the window with |residual| <= thr.

    For each p2 the values lambda2 p2^2 + lambda3 p3^k + varpi are formed
    over all p3 at once and the matching p1 are read off a sorted array of
    lambda1 p1 by binary search.  Float residuals decide every candidate
    further than a rounding margin from the threshold; mpmath at 50
    digits settles the rest.  Returns {(p1, p2, p3): residual}.
    """
    l1, l2, l3 = lams
    p1 = primes.in_range(lo, hi)
    p2 = primes.primes[(primes.primes ** 2 >= lo) & (primes.primes ** 2 <= hi)]
    p3 = kth_power_window(primes, k, lo, hi)
    out = {}
    if len(p1) == 0 or len(p2) == 0 or len(p3) == 0:
        return out
    order = np.argsort(l1 * p1.astype(np.float64), kind="stable")
    p1s = p1[order]
    key = l1 * p1s.astype(np.float64)
    p3k = l3 * p3.astype(np.float64) ** k
    # every term is at most |lambda| hi in size, so 64 ulps of their sum
    # bounds the float error of a residual with room to spare
    margin = 64 * np.finfo(np.float64).eps * (
        (abs(l1) + abs(l2) + abs(l3)) * hi + abs(varpi))
    for q in p2.tolist():
        v = l2 * float(q * q) + p3k + varpi
        i0 = np.searchsorted(key, -v - thr - margin, side="left")
        i1 = np.searchsorted(key, -v + thr + margin, side="right")
        n = i1 - i0
        if not n.any():
            continue
        j3 = np.repeat(np.arange(len(p3)), n)
        starts = np.repeat(i0 - (np.cumsum(n) - n), n)
        j1 = starts + np.arange(len(j3))
        r = key[j1] + v[j3]
        for a, c, res in zip(p1s[j1].tolist(), p3[j3].tolist(), r.tolist()):
            if abs(abs(res) - thr) <= margin:
                exact = mp_residual(lams, k, varpi, a, q, c)
                if abs(exact) <= thr:
                    out[(a, q, c)] = float(exact)
            elif abs(res) <= thr:
                out[(a, q, c)] = res
    return out


def check_search_records(primes: Primes, lams, k: float, varpi: float,
                         lo: float, hi: float, thr: float, records) -> list[str]:
    """Primality, window membership and a 50-digit residual per record."""
    problems = []
    for rec in records:
        p1, p2, p3 = rec[:3]
        tag = f"record {(p1, p2, p3)}"
        if not (primes.is_prime(p1) and primes.is_prime(p2) and primes.is_prime(p3)):
            problems.append(f"{tag}: not three primes")
            continue
        if not (lo <= p1 <= hi and lo <= p2 * p2 <= hi
                and lo <= mp_power(p3, k, 30) <= hi):
            problems.append(f"{tag}: outside the window [{lo}, {hi}]")
        exact = mp_residual(lams, k, varpi, p1, p2, p3)
        if abs(exact) > thr:
            problems.append(f"{tag}: |residual| {float(abs(exact)):.3e} > {thr}")
        if abs(rec[3] - float(exact)) > 1e-9:
            problems.append(f"{tag}: residual {rec[3]!r} vs 50-digit "
                            f"{float(exact)!r}")
        if len(problems) > 20:
            break
    return problems


# ------------------------- exponential sums ---------------------------------

def _sum_e(weights, phases) -> complex:
    """sum w_j e(phase_j) for phases already reduced mod 1, summed exactly."""
    ang = 2.0 * math.pi * np.asarray(phases, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    return complex(math.fsum((w * np.cos(ang)).tolist()),
                   math.fsum((w * np.sin(ang)).tolist()))


def ld_sum(freqs_ld: np.ndarray, weights: np.ndarray, alpha: float) -> complex:
    """sum w_j e(f_j alpha) with the phase reduced mod 1 in extended
    precision before it is scaled by 2 pi."""
    return _sum_e(weights, np.mod(freqs_ld * _LD(alpha), _LD(1.0)).astype(np.float64))


def powers_ld(ns: np.ndarray, k: float) -> np.ndarray:
    """n^k in extended precision as exp(k log n)."""
    return np.exp(_LD(k) * np.log(ns.astype(_LD)))


def mp_sum(ns, weights, k: float, alpha: float, dps: int = 30) -> complex:
    """sum w_j e(n_j^k alpha) with n^k alpha reduced mod 1 at ``dps`` digits."""
    import mpmath
    with mpmath.workdps(dps):
        a = mpmath.mpf(alpha)
        kk = mpmath.mpf(k)
        phases = []
        for n in ns.tolist():
            x = mpmath.power(mpmath.mpf(n), kk) * a
            phases.append(float(x - mpmath.floor(x)))
    return _sum_e(weights, phases)


def exact_int_sum(ns, weights, alpha: float) -> complex:
    """sum w_j e(n_j alpha) for integer n_j, reducing n alpha mod 1 exactly
    in integer arithmetic (alpha is a binary fraction m / 2^e)."""
    frac = Fraction(alpha)
    num, den = frac.numerator, frac.denominator
    return _sum_e(weights, [(n * num % den) / den for n in ns.tolist()])


def mp_T(X: float, k: float, delta: float, alpha: float) -> complex:
    """int over delta X <= t^k <= X of e(t^k alpha) dt in closed form.

    With u = t^k it is (1/k) int u^(1/k-1) e^(i w u) du, w = 2 pi alpha,
    which equals (1/k) (-i w)^(-1/k) times the incomplete gamma integral
    of order 1/k between -i w delta X and -i w X.
    """
    import mpmath
    with mpmath.workdps(30):
        kk = mpmath.mpf(k)
        s = 1 / kk
        lo = mpmath.mpf(delta) * mpmath.mpf(X)
        hi = mpmath.mpf(X)
        if alpha == 0.0:
            return complex(mpmath.power(hi, s) - mpmath.power(lo, s))
        z = -1j * 2 * mpmath.pi * mpmath.mpf(alpha)
        return complex(mpmath.power(z, -s) * mpmath.gammainc(s, z * lo, z * hi) / kk)


# ------------------------------ pair sums -----------------------------------

class PairSum:
    """int_a^b |sum_j c_j e(f_j alpha)|^2 d alpha by closed-form pair terms.

    The pair (j, l) contributes c_j c_l [sin(2 pi d b) - sin(2 pi d a)] /
    (2 pi d) with d = f_j - f_l.  Writing sin(2 pi d x) by the addition
    formula turns the sum over pairs at one endpoint x into two products
    with the matrix 1 / (f_j - f_l), so no trigonometric function is
    evaluated per pair.  Frequencies must be distinct.
    """

    def __init__(self, freqs, coeffs, block: int = 256):
        self.freqs = np.asarray(freqs, dtype=np.float64)
        self.coeffs = np.asarray(coeffs, dtype=np.float64)
        if len(np.unique(self.freqs)) != len(self.freqs):
            raise ValueError("PairSum needs distinct frequencies")
        self.mass = float(np.dot(self.coeffs, self.coeffs))
        self.block = block

    def _trig(self, xs):
        ph = np.mod(np.asarray(self.freqs, dtype=_LD)[:, None]
                    * np.asarray(xs, dtype=_LD)[None, :], _LD(1.0))
        ang = 2.0 * math.pi * ph.astype(np.float64)
        return np.sin(ang), np.cos(ang)

    def G(self, xs) -> np.ndarray:
        """G(x) = sum_{j != l} c_j c_l sin(2 pi (f_j - f_l) x) / (2 pi (f_j - f_l))."""
        xs = np.atleast_1d(np.asarray(xs, dtype=np.float64))
        s, c = self._trig(xs)
        cs = self.coeffs[:, None] * s
        cc = self.coeffs[:, None] * c
        out = np.zeros(len(xs))
        f = self.freqs
        for i in range(0, len(f), self.block):
            d = f[i:i + self.block, None] - f[None, :]
            rows = np.arange(d.shape[0])
            d[rows, i + rows] = np.inf
            inv = 1.0 / d
            a_part = inv @ cc
            b_part = inv @ cs
            out += np.sum(cs[i:i + self.block] * a_part
                          - cc[i:i + self.block] * b_part, axis=0)
        return out / (2.0 * math.pi)

    def integral(self, a: float, b: float) -> float:
        g = self.G([a, b])
        return self.mass * (b - a) + float(g[1] - g[0])

    def osc_bound(self) -> float:
        """sum_{j != l} |c_j c_l sin(pi d) / (pi d)|: bounds |P(n-1, n) - mass|."""
        f = self.freqs
        total = 0.0
        for i in range(0, len(f), self.block):
            d = f[i:i + self.block, None] - f[None, :]
            rows = np.arange(d.shape[0])
            d[rows, i + rows] = 1.0
            kern = np.abs(np.sin(math.pi * d) / (math.pi * d))
            kern[rows, i + rows] = 0.0
            total += float(np.abs(self.coeffs[i:i + self.block]) @ kern
                           @ np.abs(self.coeffs))
        return total


def square_expansion(ps: np.ndarray, logs: np.ndarray):
    """Integer frequencies p^2 + q^2 and coefficients of (sum log p e(p^2 a))^2."""
    acc: dict[int, float] = {}
    pl = ps.tolist()
    ll = logs.tolist()
    for i, p in enumerate(pl):
        for j in range(i, len(pl)):
            f = p * p + pl[j] * pl[j]
            acc[f] = acc.get(f, 0.0) + ll[i] * ll[j] * (1.0 if i == j else 2.0)
    fs = sorted(acc)
    return np.array(fs, dtype=np.float64), np.array([acc[f] for f in fs])


def trigamma(x: float) -> float:
    import mpmath
    return float(mpmath.psi(1, x))


# ------------------------------ quadrature ----------------------------------

def product_quadrature(factors, eta: float, varpi: float, b: float,
                       per_cycle: float = 0.5, n_gl: int = 16) -> float:
    """2 Re int_0^b prod_j (sum w e(f alpha)) K_eta(alpha) e(varpi alpha).

    Composite Gauss-Legendre with n_gl nodes on panels of at most
    ``per_cycle`` cycles of the fastest combined phase; every factor is
    summed directly at every node with extended-precision reduction.
    ``factors`` is a list of (freqs, weights).
    """
    f_max = sum(float(np.max(np.abs(f))) for f, _ in factors) + abs(varpi) + eta
    n_panels = max(8, int(math.ceil(f_max * b / per_cycle)))
    x, w = np.polynomial.legendre.leggauss(n_gl)
    hw = b / (2.0 * n_panels)
    centers = (2.0 * np.arange(n_panels) + 1.0) * hw
    nodes = (centers[:, None] + x[None, :] * hw).ravel()
    weights = np.tile(w, n_panels) * hw
    prod = np.ones(len(nodes), dtype=complex)
    for freqs, wts in factors:
        vals = np.zeros(len(nodes), dtype=complex)
        for i in range(0, len(nodes), 2048):
            ph = np.mod(np.asarray(nodes[i:i + 2048], dtype=_LD)[:, None]
                        * np.asarray(freqs, dtype=_LD)[None, :], _LD(1.0))
            ang = 2.0 * math.pi * ph.astype(np.float64)
            vals[i:i + 2048] = np.cos(ang) @ wts + 1j * (np.sin(ang) @ wts)
        prod *= vals
    safe = np.where(nodes == 0.0, 1.0, nodes)
    kern = np.where(nodes == 0.0, eta * eta,
                    (np.sin(math.pi * eta * safe) / (math.pi * safe)) ** 2)
    ph = np.mod(np.asarray(nodes, dtype=_LD) * _LD(varpi), _LD(1.0)).astype(np.float64)
    prod *= kern * np.exp(2j * math.pi * ph)
    return 2.0 * math.fsum((prod.real * weights).tolist())


def riemann(integrand, x_lo: float, x_hi: float, step: float,
            chunk: int = 1 << 20) -> float:
    """Midpoint Riemann sum of a vectorised integrand over [x_lo, x_hi]."""
    n = int(round((x_hi - x_lo) / step))
    total = 0.0
    for i in range(0, n, chunk):
        xs = x_lo + (np.arange(i, min(i + chunk, n)) + 0.5) * step
        total += float(np.sum(integrand(xs)))
    return total * step
