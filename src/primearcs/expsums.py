"""Exponential sums over prime powers, their integral/integer-sum
approximations, and the Fejér kernel with its transform.

Window conventions, carried verbatim per operation: the prime sum S and
the integer sum U run over the dyadic condition X <= n^k <= 2X, while the
oscillatory integral T runs over t in [(delta X)^(1/k), X^(1/k)].  The
range-parameterized variants (suffix ``_range``) accept an explicit
window for n^k and serve the arc-decomposition module, which needs all
three objects on one common window.

A window (the primes or integers n with lo <= n^k <= hi, their k-th
powers in extended precision and their weights) has one builder,
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
from .numutil import (TWO_PI, e_of, exp_pair_integral, expand_square,
                      fsum_complex, fsum_real, grid_sum, powk_extended)
from .primes import MEMORY_BUDGET, PrimeTable

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class WindowSpec:
    """Scale X, exponent k and lower-edge constant delta of one window."""

    X: float
    k: float
    delta: float = 0.1

    def __post_init__(self):
        if self.X < 2:
            raise ValidationError(f"WindowSpec: X must be >= 2, got {self.X}")
        if not 0 < self.delta < 1:
            raise ValidationError(f"WindowSpec: delta must be in (0,1), got {self.delta}")
        if self.k <= 0:
            raise ValidationError(f"WindowSpec: k must be positive, got {self.k}")


def _kth_root(v: float, k: float) -> float:
    return v ** (1.0 / k)


# Windows kept per prime table, and integer windows kept by the module.
WINDOW_CACHE_SIZE = 4
# An integer window's build holds each candidate as int64 with its 16-byte
# extended power, and then the kept copies of both.
_BYTES_PER_CANDIDATE = 48

_integer_windows: dict = {}
_cache_lock = threading.Lock()


class Window(NamedTuple):
    """Ascending n with lo <= n^k <= hi, the powers n^k in extended
    precision, and the weights: log p on a prime window, None (unit
    weights) on an integer window.  The arrays are read-only because the
    cache hands the same ones to every caller."""

    values: np.ndarray
    powers: np.ndarray
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
        n_lo = max(1, math.floor(_kth_root(max(lo, 0.0), k)) - 1)
        n_hi = math.ceil(_kth_root(hi, k)) + 1
        count = n_hi - n_lo + 1
        if count * _BYTES_PER_CANDIDATE > MEMORY_BUDGET:
            raise ResourceLimitError(
                f"integer window {lo:g} <= n^{k:g} <= {hi:g}: {count} "
                f"candidates exceed the {MEMORY_BUDGET}-byte budget")
        cand = np.arange(n_lo, n_hi + 1, dtype=np.int64)
    else:
        if hi < lo:
            raise ValidationError("window: inverted bounds")
        p_lo = _kth_root(lo, k)
        p_hi = _kth_root(hi, k)
        if p_hi > table.limit * (1 + 1e-12):
            raise ValidationError(
                f"prime table limit {table.limit} too small; need primes up "
                f"to {p_hi:.0f}")
        cand = table.primes_in_range(max(2.0, math.floor(p_lo) - 1),
                                     min(table.limit, math.ceil(p_hi) + 1))
    pk = powk_extended(cand, k)
    mask = np.asarray((pk >= lo) & (pk <= hi))
    values = cand[mask]
    weights = None if table is None else np.log(values.astype(np.float64))
    win = Window(values, pk[mask], weights)
    for arr in win:
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
    if len(win.values) == 0:
        return 0j
    return fsum_complex(win.weights * e_of(win.powers, alpha))


def eval_U_range(k: float, lo: float, hi: float, alpha: float) -> complex:
    win = window(k, lo, hi)
    if len(win.values) == 0:
        return 0j
    return fsum_complex(e_of(win.powers, alpha))


def eval_S(table: PrimeTable, w: WindowSpec, alpha: float) -> complex:
    """S_k(alpha) = sum_{X <= p^k <= 2X} log p e(p^k alpha)."""
    return eval_S_range(table, w.k, w.X, 2.0 * w.X, alpha)


def eval_U(w: WindowSpec, alpha: float) -> complex:
    """U_k(alpha) = sum_{X <= n^k <= 2X} e(n^k alpha) over integers n."""
    return eval_U_range(w.k, w.X, 2.0 * w.X, alpha)


# ------------------------------- T (Filon) ----------------------------------

def _filon_moments(theta: np.ndarray):
    """mu0 = int_{-1}^{1} e^(i theta s) ds and mu1 = int s e^(i theta s) ds.

    Series branch below |theta| = 1e-3 avoids the catastrophic cancellation
    of the closed forms.
    """
    small = np.abs(theta) < 1e-3
    ts = np.where(small, 1.0, theta)
    sin_t, cos_t = np.sin(ts), np.cos(ts)
    mu0 = np.where(small,
                   2.0 - theta**2 / 3.0 + theta**4 / 60.0,
                   2.0 * sin_t / ts)
    mu1_im = np.where(small,
                      2.0 * theta / 3.0 - theta**3 / 15.0 + theta**5 / 420.0,
                      2.0 * (sin_t - ts * cos_t) / (ts * ts))
    return mu0, 1j * mu1_im


def eval_T_range(k: float, u_lo: float, u_hi: float, alpha: float,
                 tol: float = 1e-10) -> complex:
    """int over u_lo <= t^k <= u_hi of e(t^k alpha) dt: eval_T_grid at the
    one node alpha."""
    vals, _ = eval_T_grid(k, u_lo, u_hi, [float(alpha)], [0.0], tol)
    return complex(vals[0, 0])


def eval_T(w: WindowSpec, alpha: float, tol: float = 1e-10) -> complex:
    """T_k(alpha) = int_{(delta X)^(1/k)}^{X^(1/k)} e(t^k alpha) dt."""
    return eval_T_range(w.k, w.delta * w.X, w.X, alpha, tol)


def eval_T_grid(k: float, u_lo: float, u_hi: float, centers: np.ndarray,
                offs: np.ndarray, tol: float = 1e-10):
    """Adaptive Filon rule for T on the nodes centers[:, None] + offs[None, :]
    (evenly spaced centres, as circle.gauss_panels makes them).

    u = t^k gives the phase e(u alpha) and the smooth amplitude
    u^(1/k-1)/k.  The panels start at eight per cycle of the fastest node
    (64 panels, sized by the amplitude alone, agree with themselves falsely
    at X = 1e5, k = 1.05, tol 1e-9, alpha in [0.04, 0.10], 4e-6 off) and
    double; one Richardson step removes the O(n^-2) interpolation error.
    Returns (values, est_error) once two steps agree within tol at every
    node, est_error the largest difference; ConvergenceError when a failed
    comparison would double past 2^22 panels (a start above 2^20 runs three
    passes past it: alpha = 0.3 at X = 1e6 reaches 8.6 M panels),
    ValidationError unless 0 < tol < inf.
    """
    require_tol(tol)
    centers = np.asarray(centers, dtype=np.float64)
    offs = np.asarray(offs, dtype=np.float64)
    if u_hi <= u_lo:
        return np.zeros((len(centers), len(offs)), dtype=complex), 0.0
    amax = float(np.max(np.abs(centers[:, None] + offs[None, :]), initial=0.0))
    n = max(64, int(math.ceil(8.0 * amax * (u_hi - u_lo))))
    prev = rich_prev = None
    while True:
        val = _t_grid_pass(k, u_lo, u_hi, centers, n, offs)
        if prev is not None:
            rich = val + (val - prev) / 3.0
            if rich_prev is not None:
                err = float(np.max(np.abs(rich - rich_prev), initial=0.0))
                if err <= tol:
                    _log.debug("T on [%g, %g]: %d nodes, %d panels, est error "
                               "%.3e", u_lo, u_hi, val.size, n, err)
                    return rich, err
                if 2 * n > 1 << 22:
                    raise ConvergenceError(
                        f"T quadrature stalled at {n} panels "
                        f"(est error {err:.3e})", best=rich, est_error=err)
            rich_prev = rich
        prev = val
        n *= 2


def _t_grid_pass(k: float, u_lo: float, u_hi: float, centers: np.ndarray,
                 n_panels: int, offs: np.ndarray) -> np.ndarray:
    """One Filon pass, n_panels equal panels, on the nodes
    alpha = centers[:, None] + offs[None, :].

    A panel with centre c, half-width hw and end amplitudes wa, wb gives
    e(c alpha) (mu0 g0 + mu1 g1): moments mu(2 pi alpha hw) of the node,
    g0 = hw (wa + wb)/2 and g1 = hw (wb - wa)/2 of the panel.  On a node
    grid hw is half each edge gap, so the panels tile [u_lo, u_hi]
    exactly, and the sums over c are one numutil.grid_sum on the edges'
    midpoints.  One node takes the exact centres c_j = u_lo + (2j + 1) hw
    (hw extended) and splits j = R q + r, R = round(sqrt(n)), so that
    e(c_j alpha) = P[q] Q[r] with P = e(c_{Rq} alpha) and Q = e(2 hw r
    alpha) from numutil.e_of, about 2 sqrt(n) phases; the sums are
    (hw/2) (G @ Q) @ P, G the panels' wa + wb and wb - wa.  Its error:
    each phase's extended reduction, one rounded P Q per panel, float64 sums.
    """
    edges = np.linspace(u_lo, u_hi, n_panels + 1)
    amp = np.ones_like(edges) if k == 1.0 else edges ** (1.0 / k - 1.0) / k
    hw = 0.5 * (u_hi - u_lo) / n_panels
    nodes = centers[:, None] + offs[None, :]
    if nodes.size == 1:
        R = round(math.sqrt(n_panels))
        rows = -(-n_panels // R)
        G = np.zeros((2, rows * R))
        np.add(amp[:-1], amp[1:], out=G[0, :n_panels])
        np.subtract(amp[1:], amp[:-1], out=G[1, :n_panels])
        hwx = (np.longdouble(u_hi) - np.longdouble(u_lo)) / (2 * n_panels)
        P = e_of(u_lo + (2 * R * np.arange(rows) + 1) * hwx, nodes[0, 0])
        Q = e_of(2 * hwx * np.arange(R), nodes[0, 0])
        GQ = G.reshape(2 * rows, R) @ Q.view(np.float64).reshape(R, 2)
        sums = (0.5 * hw) * (GQ.view(complex).reshape(1, 1, 2, rows) @ P)
    else:
        h = 0.5 * np.diff(edges)
        g = np.stack((h * 0.5 * (amp[:-1] + amp[1:]),
                      h * 0.5 * (amp[1:] - amp[:-1])), axis=1)
        sums = grid_sum(0.5 * (edges[:-1] + edges[1:]), g, centers, offs)
    mu0, mu1 = _filon_moments(TWO_PI * nodes * hw)
    vals = mu0 * sums[..., 0] + mu1 * sums[..., 1]
    exact = np.abs(nodes) < 1e-300
    return np.where(exact, _kth_root(u_hi, k) - _kth_root(u_lo, k), vals)


# ------------------------------ Fejér kernel ---------------------------------

def fejer_K(eta: float, alpha) -> np.ndarray | float:
    """K_eta(alpha) = (sin(pi eta alpha) / (pi alpha))^2, with K(0) = eta^2."""
    if eta <= 0:
        raise ValidationError("eta must be positive")
    arr = np.asarray(alpha, dtype=np.float64)
    safe = np.where(arr == 0.0, 1.0, arr)
    vals = np.where(arr == 0.0, eta * eta,
                    (np.sin(math.pi * eta * safe) / (math.pi * safe)) ** 2)
    return float(vals) if np.isscalar(alpha) else vals


def fejer_hat(eta: float, t: float) -> float:
    """The tent max(0, eta - |t|): Fourier transform of K_eta."""
    if eta <= 0:
        raise ValidationError("eta must be positive")
    return max(0.0, eta - abs(t))


# ------------------------------ fourth moment --------------------------------

def fourth_moment_S2(table: PrimeTable, w: WindowSpec, lo: float,
                     hi: float) -> float:
    """int_lo^hi |S_2(alpha)|^4 d alpha, exact pairwise evaluation.

    |S_2|^4 = |S_2^2|^2 and S_2^2 is again a finite exponential sum, so the
    integral reduces to closed-form pairwise terms.
    """
    if w.k != 2:
        raise ValidationError("fourth_moment_S2 requires k = 2")
    if hi < lo:
        raise ValidationError("inverted integration bounds")
    if hi == lo:
        return 0.0
    win = window(2.0, w.X, 2.0 * w.X, table)
    if len(win.values) == 0:
        return 0.0
    f2, c2 = expand_square(win.powers.astype(np.float64), win.weights)
    return exp_pair_integral(f2, c2, lo, hi)


def s_minus_u_weights(table: PrimeTable, w: WindowSpec):
    """The integer window X <= n^k <= 2X and the weights l(n) - 1 of
    S_k - U_k (l(n) = log n at primes, 0 elsewhere)."""
    win = window(w.k, w.X, 2.0 * w.X)
    ns = win.values
    if len(ns) == 0:
        return win, np.array([])
    if ns[-1] > table.limit:
        raise ValidationError(
            f"table limit {table.limit} below the window's largest integer {ns[-1]}")
    prime_mask = np.isin(ns, table.primes_in_range(2, float(ns[-1])))
    ell = np.where(prime_mask, np.log(ns.astype(np.float64)), 0.0)
    return win, ell - 1.0


def s_minus_u_l1_bound(table: PrimeTable, w: WindowSpec) -> float:
    """sum over the window of |l(n) - 1|: pointwise bound for |S_k - U_k|."""
    return fsum_real(np.abs(s_minus_u_weights(table, w)[1]))
