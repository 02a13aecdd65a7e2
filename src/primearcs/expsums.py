"""Exponential sums over prime powers, their integral/integer-sum
approximations, and the Fejér kernel with its transform.

Window conventions, carried verbatim per operation: the prime sum S and
the integer sum U run over the dyadic condition X <= n^k <= 2X, while the
oscillatory integral T runs over t in [(delta X)^(1/k), X^(1/k)].  The
range-parameterized variants (suffix ``_range``) accept an explicit
window for n^k and serve the arc-decomposition module, which needs all
three objects on one common window.

A window (the primes or integers n with lo <= n^k <= hi, their k-th
powers as float64 hi + lo pairs and their weights) comes from one place,
``window``, which the sums here, the arc factors of circle and the triple
search of search.find_solutions share.  Each distinct window is built
once and reused: prime windows
are kept on their PrimeTable, integer windows in a module cache, each
holding the WINDOW_CACHE_SIZE most recently used, with read-only arrays.
So S and U on many alpha pay only for the phases and the exact sum.
Errors (table too small, inverted bounds, an integer window over the
memory budget) are raised on every call; nothing is cached for them.
"""

from __future__ import annotations

import logging
import math
import threading
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (ConvergenceError, ResourceLimitError, ValidationError,
                     require_tol)
from .numutil import TWO_PI, e_of, phase_sum, powk_extended
from .primes import MEMORY_BUDGET, PrimeTable

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class WindowSpec:
    """Scale X, exponent k and lower-edge constant delta of one window."""

    X: float
    k: float
    delta: float = 0.1

    def __post_init__(self):
        if not self.X >= 2:
            raise ValidationError(f"WindowSpec: X must be >= 2, got {self.X}")
        if not 0 < self.delta < 1:
            raise ValidationError(f"WindowSpec: delta must be in (0,1), got {self.delta}")
        if not self.k > 0:
            raise ValidationError(f"WindowSpec: k must be positive, got {self.k}")


# Windows kept per prime table, and integer windows kept by the module;
# 16 holds the 9 windows of the benchmark's search round and the 6 of
# its arcs round, so no window is rebuilt within a round.
WINDOW_CACHE_SIZE = 16
# An integer window's build holds each candidate as int64 with its 16-byte
# extended power, and then the kept int64 and the power's float64 hi and lo.
_BYTES_PER_CANDIDATE = 48

_integer_windows: dict = {}
_cache_lock = threading.Lock()


class Window(NamedTuple):
    """Ascending n with lo <= n^k <= hi, the powers n^k as an exact (hi, lo)
    pair of float64 arrays, and the weights: log p on a prime window, None
    (unit weights) on an integer window.  The arrays are read-only because
    the cache hands the same ones to every caller."""

    values: np.ndarray
    powers: tuple[np.ndarray, np.ndarray]
    weights: np.ndarray | None


def window(k: float, lo: float, hi: float,
           table: PrimeTable | None = None) -> Window:
    """The prime window of table (integer window without one), built on
    first use and then taken from the cache."""
    cache = _integer_windows if table is None else table.windows
    key = (float(k), float(lo), float(hi))
    with _cache_lock:
        win = cache.pop(key, None)
        if win is not None:
            cache[key] = win        # most recently used last
            return win
    win = _build_window(k, lo, hi, table)
    with _cache_lock:
        cache.pop(key, None)
        while len(cache) >= WINDOW_CACHE_SIZE:
            del cache[next(iter(cache))]
        cache[key] = win
    return win


def _build_window(k: float, lo: float, hi: float,
                  table: PrimeTable | None) -> Window:
    t0 = time.perf_counter()
    if table is None:
        n_lo = max(1, math.floor(max(lo, 0.0) ** (1.0 / k)) - 1)
        n_hi = math.ceil(hi ** (1.0 / k)) + 1
        count = n_hi - n_lo + 1
        if count * _BYTES_PER_CANDIDATE > MEMORY_BUDGET:
            raise ResourceLimitError(
                f"integer window {lo:g} <= n^{k:g} <= {hi:g}: {count} "
                f"candidates exceed the {MEMORY_BUDGET}-byte budget")
        cand = np.arange(n_lo, n_hi + 1, dtype=np.int64)
    else:
        if hi < lo:
            raise ValidationError("window: inverted bounds")
        table.require(k, hi, f"prime window [{lo:g}, {hi:g}]")
        cand = table.primes_in_range(max(2.0, math.floor(lo ** (1.0 / k)) - 1),
                                     min(table.limit,
                                         math.ceil(hi ** (1.0 / k)) + 1))
    pk = powk_extended(cand, k)
    mask = np.asarray((pk >= lo) & (pk <= hi))
    values, pk = cand[mask], pk[mask]
    pk -= (p_hi := pk.astype(np.float64))  # exact, in place: no third copy
    weights = None if table is None else np.log(values.astype(np.float64))
    win = Window(values, (p_hi, pk.astype(np.float64)), weights)
    for arr in (values, *win.powers, weights):
        if arr is not None:
            arr.flags.writeable = False
    _log.debug("%s window %g <= n^%g <= %g: %d terms in %.4f s",
               "integer" if table is None else "prime", lo, k, hi,
               len(win.values), time.perf_counter() - t0)
    return win


def eval_S_range(table: PrimeTable, k: float, lo: float, hi: float,
                 alpha: float) -> complex:
    """sum over lo <= p^k <= hi of log p * e(p^k alpha)."""
    win = window(k, lo, hi, table)
    return phase_sum(*win.powers, win.weights, alpha)


def eval_U_range(k: float, lo: float, hi: float, alpha: float) -> complex:
    win = window(k, lo, hi)
    return phase_sum(*win.powers, None, alpha)


def eval_S(table: PrimeTable, w: WindowSpec, alpha: float) -> complex:
    """S_k(alpha) = sum_{X <= p^k <= 2X} log p e(p^k alpha)."""
    return eval_S_range(table, w.k, w.X, 2.0 * w.X, alpha)


def eval_U(w: WindowSpec, alpha: float) -> complex:
    """U_k(alpha) = sum_{X <= n^k <= 2X} e(n^k alpha) over integers n."""
    return eval_U_range(w.k, w.X, 2.0 * w.X, alpha)


# ------------------------ T (incomplete-gamma form) -------------------------

# The series runs below |z| = _SWITCH_Z, the fraction from there (40 Lentz
# steps at 4, 72 at 2).  Rounding floors, in units of a term's size, are
# about twice the largest error seen against 30-digit mpmath: an endpoint
# term takes 8 eps (u^a, e(alpha u) past its reduction, the products) plus
# 1 eps per Lentz step (18 eps seen after 40), the series 4 eps (1 seen).
_SWITCH_Z, _LENTZ_STOP, _LENTZ_CAP = 4.0, 1e-15, 400
_EPS = float(np.finfo(np.float64).eps)
_FLOOR_EPS, _SERIES_FLOOR_EPS = 8 * _EPS, 4 * _EPS


def _legendre_fraction(z: np.ndarray, a: float):
    """C(z) = e^z z^(-a) Gamma(a, z) = 1/(z+1-a- 1(1-a)/(z+3-a- ...)) (DLMF
    8.9.2) by modified Lentz (Gautschi, ACM TOMS 5, 1979) on every z at
    once, each until its step Delta has |Delta - 1| < 1e-15 (at 1e-16 some
    never stop) or _LENTZ_CAP steps, where every z left stops, a nan one
    too.  Returns (C, last |Delta - 1|, steps)."""
    out, last, steps = (np.empty(len(z), dtype=complex), np.ones(len(z)),
                        np.zeros(len(z), dtype=int))
    act, b = np.arange(len(z)), z + (1.0 - a)
    h = d = 1.0 / b
    c, i = np.inf, 0  # Lentz's tiny start: an / c = 0
    while len(act):
        i += 1
        an, b = -i * (i - a), b + 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        delta = c * d
        h = h * delta
        dev = np.abs(delta - 1.0)
        done = (dev < _LENTZ_STOP) | (i >= _LENTZ_CAP)
        if done.any():
            j = act[done]
            out[j], last[j], steps[j] = h[done], dev[done], i
            act, b, c, d, h = (v[~done] for v in (act, b, c, d, h))
    return out, last, steps


def _power_series(x: np.ndarray, r: np.ndarray, a):
    """sum_n (i x)^n/n! (1 - r^(a+n))/(a+n) = u1^(-a) int_{r u1}^{u1}
    v^(a-1) e^(i x v/u1) dv for 0 <= x <= _SWITCH_Z, 0 < r <= 1 (DLMF 8.7),
    which raises u1 to no power but a.  The terms, e^x / a in all, sum to
    about 1, so they are summed in extended precision, until
    max(x)^n/n! < 2^-60.  Returns (sum, bound on the tail and rounding)."""
    x = x.astype(np.longdouble)
    term, rp = np.ones(len(x), dtype=np.clongdouble), r ** a
    total = (1 - rp) / a + 0j
    xmax, mag, n = float(np.max(x, initial=0.0)), 1.0, 0
    while mag >= 2.0 ** -60:
        n, mag = n + 1, mag * xmax / (n + 1)
        term *= 1j * x / n
        rp *= r
        total += term * ((1 - rp) / (a + n))
    # later terms fall by x/(n + 1) <= 1/2: the tail is twice the next one
    tail = 2 * np.abs(term) * x / ((n + 1) * (a + n + 1))
    return total, tail + 2.0 ** -60 * np.exp(x) / a


def eval_T_range(k: float, u_lo: float, u_hi: float, alpha: float,
                 tol: float = 1e-10) -> complex:
    """int over u_lo <= t^k <= u_hi of e(t^k alpha) dt: eval_T_grid at one
    node, tol absolute (|T| reaches u_hi^(1/k) - u_lo^(1/k) near alpha = 0)."""
    vals, _ = eval_T_grid(k, u_lo, u_hi, [float(alpha)], [0.0], tol)
    return complex(vals[0, 0])


def eval_T(w: WindowSpec, alpha: float, tol: float = 1e-10) -> complex:
    """T_k(alpha) = int_{(delta X)^(1/k)}^{X^(1/k)} e(t^k alpha) dt, to the
    absolute tol of eval_T_range."""
    return eval_T_range(w.k, w.delta * w.X, w.X, alpha, tol)


def eval_T_grid(k: float, u_lo: float, u_hi: float, centers: np.ndarray,
                offs: np.ndarray, tol: float = 1e-10):
    """T on the nodes centers[:, None] + offs[None, :], in closed form.

    u = t^k and a = 1/k give T = (1/k) (F(u_lo) - F(u_hi)), F(u) =
    int_u^inf v^(a-1) e(alpha v) dv = u^a e(alpha u) C(-2 pi i alpha u): C
    from _legendre_fraction, e(alpha u) from numutil.e_of, alpha < 0 by
    conjugation, 0 exactly; _power_series takes [u_lo, u1] instead, u1 =
    clip(_SWITCH_Z / (2 pi |alpha|), u_lo, u_hi).  Returns (values,
    est_error), est_error the largest a priori bound over the nodes: the
    last Lentz step times |F|, the series tail, and rounding floors on the
    series and each endpoint term (with frac_phase's 2^-54 cycles on
    float64 alpha u), summed, as at k = 1 the endpoint terms cancel.
    ConvergenceError (values as best) when est_error > tol; ValidationError
    unless 0 < tol < inf or on a non-finite node."""
    require_tol(tol)
    nodes = np.add.outer(np.asarray(centers, dtype=np.float64),
                         np.asarray(offs, dtype=np.float64))
    if not np.isfinite(nodes).all():
        raise ValidationError("T needs finite alpha nodes")
    if u_hi <= u_lo:
        return np.zeros(nodes.shape, dtype=complex), 0.0
    flat = nodes.ravel()
    idx = np.flatnonzero(np.abs(flat) >= 1e-300)
    al = np.abs(flat[idx])
    u1 = np.clip(_SWITCH_Z / (TWO_PI * al), u_lo, u_hi)
    ser, cf = np.flatnonzero(u1 > u_lo), np.flatnonzero(u1 < u_hi)
    a = 1 / np.longdouble(k)  # u^a in extended: a's rounding costs ln u ulps
    s, tail = _power_series(TWO_PI * al[ser] * u1[ser],
                            np.longdouble(u_lo) / u1[ser], a)
    scale = u1[ser] ** a
    total, err = np.zeros(len(idx), dtype=complex), np.zeros(len(idx))
    total[ser], err[ser] = scale * s, scale * (tail + _SERIES_FLOOR_EPS * np.abs(s))
    u, alu = np.concatenate((u1[cf], np.full(len(cf), u_hi))), np.tile(al[cf], 2)
    C, last, steps = _legendre_fraction(-1j * TWO_PI * alu * u, float(a))
    uu, inv = np.unique(u, return_inverse=True)  # u_lo, u_hi: one power each
    F = (uu ** a).astype(np.float64)[inv] * e_of(u, alu) * C
    floor = TWO_PI * 2.0 ** -54 + _FLOOR_EPS + steps * _EPS + last
    total[cf] += F[:len(cf)] - F[len(cf):]
    err[cf] += (np.abs(F) * floor).reshape(2, -1).sum(axis=0)
    vals = np.full(len(flat), u_hi ** (1.0 / k) - u_lo ** (1.0 / k), dtype=complex)
    vals[idx] = np.where(flat[idx] < 0, total.conj(), total) / k
    vals, est = vals.reshape(nodes.shape), float(np.max(err, initial=0.0)) / k
    _log.debug("T on [%g, %g]: %d nodes, %d by fraction, %d by series, %d "
               "Lentz steps at most, bound %.3e", u_lo, u_hi, nodes.size,
               len(cf), len(ser), steps.max(initial=0), est)
    if not est <= tol:
        raise ConvergenceError(f"T closed form: error bound {est:.3e} above "
                               f"tol {tol:.3e}", best=vals, est_error=est)
    return vals, est


# ------------------------------ Fejér kernel ---------------------------------

def fejer_K(eta: float, alpha: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """K_eta(alpha) = (sin(pi eta alpha) / (pi alpha))^2, with K(0) = eta^2,
    from sin, which holds sin(pi eta alpha) on the array alpha."""
    if eta <= 0:
        raise ValidationError("eta must be positive")
    safe = np.where(alpha == 0.0, 1.0, alpha)
    return np.where(alpha == 0.0, eta * eta, (sin / (math.pi * safe)) ** 2)


def fejer_hat(eta: float, t: float) -> float:
    """The tent max(0, eta - |t|): Fourier transform of K_eta."""
    if eta <= 0:
        raise ValidationError("eta must be positive")
    return max(0.0, eta - abs(t))


def s_minus_u_weights(table: PrimeTable, w: WindowSpec):
    """The integer window X <= n^k <= 2X and the weights l(n) - 1 of
    S_k - U_k (l(n) = log n at primes, 0 elsewhere)."""
    win = window(w.k, w.X, 2.0 * w.X)
    ns = win.values
    if len(ns) == 0:
        return win, np.array([])
    table.require(w.k, 2.0 * w.X, "S - U weights")
    prime_mask = np.isin(ns, table.primes_in_range(2, float(ns[-1])))
    ell = np.where(prime_mask, np.log(ns.astype(np.float64)), 0.0)
    return win, ell - 1.0
