"""Exponential sums over prime powers, their integral/integer-sum
approximations, and the Fejér kernel pair.

Window conventions, carried verbatim per operation: the prime sum S and
the integer sum U run over the dyadic condition X <= n^k <= 2X, while the
oscillatory integral T runs over t in [(delta X)^(1/k), X^(1/k)].  The
range-parameterized variants (suffix ``_range``) accept an explicit
window for n^k and serve the arc-decomposition module, which needs all
three objects on one common window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ValidationError
from .numutil import (TWO_PI, e_of, frac_phase, fsum_complex, fsum_real,
                      gl_rule, powk_extended)
from .primes import PrimeTable


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


def prime_window(table: PrimeTable, k: float, lo: float, hi: float):
    """Primes p with lo <= p^k <= hi plus their log weights."""
    if hi < lo:
        raise ValidationError("prime_window: inverted bounds")
    p_lo = _kth_root(lo, k)
    p_hi = _kth_root(hi, k)
    if p_hi > table.limit * (1 + 1e-12):
        raise ValidationError(
            f"prime table limit {table.limit} too small; need primes up to "
            f"{p_hi:.0f}")
    cand = table.primes_in_range(max(2.0, math.floor(p_lo) - 1),
                                 min(table.limit, math.ceil(p_hi) + 1))
    pk = powk_extended(cand, k)
    mask = (pk >= lo) & (pk <= hi)
    sel = cand[np.asarray(mask)]
    return sel, np.log(sel.astype(np.float64))


def integer_window(k: float, lo: float, hi: float) -> np.ndarray:
    """Integers n >= 1 with lo <= n^k <= hi."""
    n_lo = max(1, math.floor(_kth_root(max(lo, 0.0), k)) - 1)
    n_hi = math.ceil(_kth_root(hi, k)) + 1
    cand = np.arange(n_lo, n_hi + 1, dtype=np.int64)
    nk = powk_extended(cand, k)
    return cand[np.asarray((nk >= lo) & (nk <= hi))]


def eval_S_range(table: PrimeTable, k: float, lo: float, hi: float,
                 alpha: float) -> complex:
    """sum over lo <= p^k <= hi of log p * e(p^k alpha)."""
    ps, logs = prime_window(table, k, lo, hi)
    if len(ps) == 0:
        return 0j
    return fsum_complex(logs * e_of(powk_extended(ps, k), alpha))


def eval_U_range(k: float, lo: float, hi: float, alpha: float) -> complex:
    ns = integer_window(k, lo, hi)
    if len(ns) == 0:
        return 0j
    return fsum_complex(e_of(powk_extended(ns, k), alpha))


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
    theta = np.asarray(theta, dtype=np.float64)
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
                 tol: float = 1e-10, max_panels: int = 1 << 22) -> complex:
    """int over u_lo <= t^k <= u_hi of e(t^k alpha) dt, adaptive Filon rule.

    Substituting u = t^k gives a linear phase e(u alpha) with the smooth
    amplitude u^(1/k-1)/k; each panel interpolates the amplitude linearly
    and integrates the oscillation exactly.  The panel count starts at
    eight per oscillation cycle and doubles until two Richardson values
    agree: a start sized by the amplitude's curvature alone (64 panels)
    agrees with itself falsely at X = 1e5, k = 1.05, tol 1e-9 for alpha
    between 0.04 and 0.10, with errors up to 4e-6.
    """
    if u_hi <= u_lo:
        return 0j
    if alpha == 0.0:
        return complex(_kth_root(u_hi, k) - _kth_root(u_lo, k))
    cycles = abs(alpha) * (u_hi - u_lo)
    n = max(64, int(math.ceil(8.0 * cycles)))
    prev = None
    rich_prev = None
    while True:
        val = _t_grid_pass(k, u_lo, u_hi, np.array([alpha]), n)[0]
        if prev is not None:
            # amplitude interpolation error is O(n^-2): one Richardson step
            rich = val + (val - prev) / 3.0
            if rich_prev is not None:
                err = abs(rich - rich_prev)
                if err <= tol:
                    return rich
                if 2 * n > max_panels:
                    raise ConvergenceError(
                        f"T quadrature stalled at {n} panels "
                        f"(est error {err:.3e})", best=rich, est_error=err)
            rich_prev = rich
        prev = val
        n *= 2


def eval_T(w: WindowSpec, alpha: float, tol: float = 1e-10) -> complex:
    """T_k(alpha) = int_{(delta X)^(1/k)}^{X^(1/k)} e(t^k alpha) dt."""
    if tol <= 0:
        raise ValidationError("tol must be positive")
    return eval_T_range(w.k, w.delta * w.X, w.X, alpha, tol)


def eval_T_grid(k: float, u_lo: float, u_hi: float, alphas: np.ndarray,
                n_panels: int | None = None) -> np.ndarray:
    """Vectorized Filon evaluation of T on a grid of alpha values.

    One panel layout (sized for max |alpha|) serves the whole grid, which
    lets the per-panel moments broadcast across alpha; one Richardson step
    removes the leading amplitude-interpolation error.
    """
    alphas = np.asarray(alphas, dtype=np.float64)
    if u_hi <= u_lo:
        return np.zeros(len(alphas), dtype=complex)
    amax = float(np.max(np.abs(alphas))) if len(alphas) else 0.0
    if n_panels is None:
        n_panels = max(128, int(math.ceil(16.0 * amax * (u_hi - u_lo))))
    coarse = _t_grid_pass(k, u_lo, u_hi, alphas, n_panels)
    fine = _t_grid_pass(k, u_lo, u_hi, alphas, 2 * n_panels)
    return fine + (fine - coarse) / 3.0


def _t_grid_pass(k: float, u_lo: float, u_hi: float, alphas: np.ndarray,
                 n_panels: int) -> np.ndarray:
    edges = np.linspace(u_lo, u_hi, n_panels + 1)
    amp = np.ones_like(edges) if k == 1.0 else edges ** (1.0 / k - 1.0) / k
    a, b = edges[:-1], edges[1:]
    wa, wb = amp[:-1], amp[1:]
    hw = 0.5 * (b - a)
    centers = 0.5 * (a + b)
    out = np.empty(len(alphas), dtype=complex)
    chunk = max(1, (1 << 22) // max(1, n_panels))
    for i in range(0, len(alphas), chunk):
        al = alphas[i:i + chunk, None]
        mu0, mu1 = _filon_moments(TWO_PI * al * hw[None, :])
        phase = np.exp(2j * math.pi * frac_phase(centers[None, :], al))
        vals = hw * phase * (0.5 * (wa + wb) * mu0 + 0.5 * (wb - wa) * mu1)
        exact = np.abs(al[:, 0]) < 1e-300
        out[i:i + chunk] = np.where(
            exact, _kth_root(u_hi, k) - _kth_root(u_lo, k), vals.sum(axis=1))
    return out


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


def verify_fourier_pair(eta: float, t: float, truncation: float) -> float:
    """|int_{-A}^{A} K_eta(a) e(t a) da  -  max(0, eta - |t|)|.

    The truncation tail is at most 2/(pi^2 A) since K_eta(a) <= 1/(pi a)^2,
    so the returned discrepancy is bounded by that plus quadrature error.
    """
    if truncation < 10.0 / eta:
        raise ValidationError("truncation must be at least 10/eta")
    a_max = float(truncation)
    # even integrand: 2 * int_0^A K_eta(a) cos(2 pi t a) da
    freq = eta + abs(t) + 0.05
    n_panels = int(math.ceil(8.0 * freq * a_max))
    x, wgt = gl_rule(12)
    hw = a_max / (2.0 * n_panels)
    total = 0.0
    chunk = 1 << 16
    for i in range(0, n_panels, chunk):
        centers = (2.0 * np.arange(i, min(i + chunk, n_panels)) + 1.0) * hw
        nodes = (centers[:, None] + x[None, :] * hw).ravel()
        vals = fejer_K(eta, nodes) * np.cos(TWO_PI * frac_phase(t, nodes))
        total += float(np.sum(vals.reshape(-1, 12) @ wgt))
    integral = 2.0 * total * hw
    return abs(integral - fejer_hat(eta, t))


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
    from .numutil import exp_pair_integral, expand_square
    ps, logs = prime_window(table, 2.0, w.X, 2.0 * w.X)
    if len(ps) == 0:
        return 0.0
    freqs = (ps.astype(np.int64) ** 2).astype(np.float64)
    f2, c2 = expand_square(freqs, logs)
    return exp_pair_integral(f2, c2, lo, hi)


def s_minus_u_weights(table: PrimeTable, w: WindowSpec):
    """Integers n with X <= n^k <= 2X and the weights l(n) - 1 of S_k - U_k
    (l(n) = log n at primes, 0 elsewhere)."""
    ns = integer_window(w.k, w.X, 2.0 * w.X)
    if len(ns) == 0:
        return ns, np.array([])
    if ns[-1] > table.limit:
        raise ValidationError(
            f"table limit {table.limit} below the window's largest integer {ns[-1]}")
    prime_mask = np.isin(ns, table.primes_in_range(2, float(ns[-1])))
    ell = np.where(prime_mask, np.log(ns.astype(np.float64)), 0.0)
    return ns, ell - 1.0


def s_minus_u_l1_bound(table: PrimeTable, w: WindowSpec) -> float:
    """sum over the window of |l(n) - 1|: pointwise bound for |S_k - U_k|."""
    return fsum_real(np.abs(s_minus_u_weights(table, w)[1]))
