"""Shared numerical kernels: extended-precision phases, compensated sums,
double-double arithmetic, Gauss-Legendre panel quadrature, and exact
pairwise integrals of squared exponential sums.

Phase accuracy is the dominant correctness risk of the whole package:
n^k * alpha routinely exceeds 2^40, where naive float64 reduction mod 1
destroys the phase.  All e(x) = exp(2*pi*i*x) evaluations therefore go
through 80-bit extended arithmetic (numpy longdouble) with reduction
performed *before* the multiplication by 2*pi.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import PrecisionError

TWO_PI = 2.0 * math.pi
_LD = np.longdouble


def require_extended_longdouble() -> None:
    """Fail loudly where numpy's longdouble lacks the 64-bit mantissa of the
    80-bit extended format: every phase guarantee rests on it."""
    nmant = np.finfo(_LD).nmant
    if nmant < 63:
        raise PrecisionError(
            f"numpy longdouble has a {nmant}-bit mantissa; primearcs needs "
            "at least 63 (80-bit extended, as on x86-64 Linux)")


require_extended_longdouble()


# ----------------------------- double-double --------------------------------
# Dekker / Knuth error-free transforms on float64 scalars or arrays.  The
# search module's residuals use them to stay exact to ~2^-100 near the
# threshold.

_SPLITTER = 134217729.0  # 2**27 + 1


def two_sum(a: float, b: float) -> tuple[float, float]:
    s = a + b
    v = s - a
    e = (a - (s - v)) + (b - v)
    return s, e


def two_prod(a: float, b: float) -> tuple[float, float]:
    p = a * b
    ca = _SPLITTER * a
    ahi = ca - (ca - a)
    alo = a - ahi
    cb = _SPLITTER * b
    bhi = cb - (cb - b)
    blo = b - bhi
    e = ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo
    return p, e


def dd_add(x: tuple[float, float], y: tuple[float, float]) -> tuple[float, float]:
    s, e = two_sum(x[0], y[0])
    e += x[1] + y[1]
    s, e = two_sum(s, e)
    return s, e


def dd_mul_scalar(x: tuple[float, float], c: float) -> tuple[float, float]:
    p, e = two_prod(x[0], c)
    e += x[1] * c
    p, e = two_sum(p, e)
    return p, e


def dd_from_longdouble(x) -> tuple[np.ndarray, np.ndarray]:
    """Float64 high and low parts of extended-precision values."""
    hi = np.asarray(x).astype(np.float64)
    return hi, (x - hi.astype(_LD)).astype(np.float64)


# ------------------------------- powers -------------------------------------

def powk_extended(n, k: float):
    """n**k in 80-bit extended precision.

    ``n`` may be a scalar or ndarray of positive values.  Integer k gets an
    exact integer-power fast path (still returned as longdouble).
    """
    arr = np.asarray(n, dtype=_LD)
    if float(k).is_integer():
        return arr ** int(k)
    return np.power(arr, _LD(k))


def frac_phase(values, alpha: float):
    """frac(values * alpha) computed in extended precision, as float64."""
    prod = np.asarray(values, dtype=_LD) * _LD(alpha)
    return np.mod(prod, _LD(1.0)).astype(np.float64)


def e_of(values, alpha: float):
    """e(values * alpha) = exp(2*pi*i*values*alpha) with safe reduction."""
    return np.exp((2j * math.pi) * frac_phase(values, alpha))


def e_scalar(x: float) -> complex:
    """e(x) for a plain float64 argument (no extended carry needed)."""
    return complex(math.cos(TWO_PI * math.fmod(x, 1.0)),
                   math.sin(TWO_PI * math.fmod(x, 1.0)))


# ----------------------------- summation ------------------------------------

def fsum_complex(values) -> complex:
    """Exactly rounded sum of a complex array (Shewchuk fsum per part)."""
    arr = np.asarray(values)
    return complex(math.fsum(arr.real.tolist()), math.fsum(arr.imag.tolist()))


def fsum_real(values) -> float:
    return math.fsum(np.asarray(values, dtype=np.float64).tolist())


class KahanAccumulator:
    """Sequential compensated accumulator for chunked reductions."""

    __slots__ = ("s", "c")

    def __init__(self):
        self.s = 0.0
        self.c = 0.0

    def add(self, term: float):
        y = term - self.c
        t = self.s + y
        self.c = (t - self.s) - y
        self.s = t

    @property
    def value(self) -> float:
        return self.s


def compensated_cumsum(values) -> np.ndarray:
    """Cumulative sum whose per-entry error stays within one rounding unit.

    Accumulates in 80-bit extended precision and rounds each prefix to
    float64, which keeps the relative error of prefix i below ~i * 2^-64.
    """
    return np.cumsum(np.asarray(values, dtype=_LD)).astype(np.float64)


# ----------------------- Gauss-Legendre panel quadrature ---------------------

_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def gl_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    if n not in _GL_CACHE:
        _GL_CACHE[n] = leggauss(n)
    return _GL_CACHE[n]


def panel_nodes(a: float, b: float, n_panels: int, n_gl: int):
    """Nodes and weights of a composite Gauss-Legendre rule on [a, b].

    Returns (centers, offsets, weights, halfwidth): the physical nodes are
    centers[:, None] + offsets[None, :] and the weight of each node is
    weights * halfwidth.
    """
    x, w = gl_rule(n_gl)
    hw = (b - a) / (2.0 * n_panels)
    centers = a + (2.0 * np.arange(n_panels) + 1.0) * hw
    return centers, x * hw, w, hw


def integrate_panels(f, a: float, b: float, n_panels: int, n_gl: int) -> complex:
    """Composite GL quadrature of a vectorized integrand f(alpha_array)."""
    centers, offs, w, hw = panel_nodes(a, b, n_panels, n_gl)
    total = KahanAccumulator()
    total_im = KahanAccumulator()
    chunk = max(1, (1 << 22) // max(1, n_gl))
    for i in range(0, n_panels, chunk):
        nodes = (centers[i:i + chunk, None] + offs[None, :]).ravel()
        vals = np.asarray(f(nodes)).reshape(-1, n_gl)
        part = vals @ (w * hw)
        total.add(float(np.sum(part.real)))
        total_im.add(float(np.sum(part.imag)) if np.iscomplexobj(part) else 0.0)
    return complex(total.value, total_im.value)


def adaptive_oscillatory(f, a: float, b: float, max_freq: float, tol: float,
                         base_gl: int = 8, refine_gl: int = 12,
                         max_nodes: float = 2e8):
    """Integrate an oscillatory integrand with frequencies up to max_freq.

    Panels are sized to one cycle of the fastest phase; the error estimate
    is the difference between the base and refined Gauss orders on the same
    panels.  Panel count doubles until the estimate meets tol.

    Returns (value, est_error).  Raises ConvergenceError past the node
    budget.
    """
    from .errors import ConvergenceError

    if b <= a:
        return 0.0 + 0.0j, 0.0
    cycles = max_freq * (b - a)
    n_panels = max(8, int(math.ceil(cycles)))
    best = None
    err = math.inf
    while True:
        lo = integrate_panels(f, a, b, n_panels, base_gl)
        hi = integrate_panels(f, a, b, n_panels, refine_gl)
        err = abs(hi - lo)
        best = hi
        if err <= tol:
            return best, err
        if n_panels * (base_gl + refine_gl) * 2 > max_nodes:
            raise ConvergenceError(
                f"oscillatory quadrature stalled at {n_panels} panels "
                f"(est error {err:.3e} > tol {tol:.3e})",
                best=best, est_error=err)
        n_panels *= 2


# ------------------- exact integrals of products of e(f a) ------------------

def exp_pair_integral(freqs: np.ndarray, coeffs: np.ndarray,
                      a: float, b: float) -> float:
    """Exact value of  int_a^b | sum_j coeffs_j e(freqs_j alpha) |^2 d alpha.

    Uses the closed form of every pairwise term; the result is exact up to
    rounding, independent of how wildly the sum oscillates.  coeffs must be
    real.
    """
    freqs = np.asarray(freqs, dtype=np.float64)
    coeffs = np.asarray(coeffs, dtype=np.float64)
    length = b - a
    diag = float(np.dot(coeffs, coeffs)) * length
    n = len(freqs)
    if n < 2:
        return diag
    total = KahanAccumulator()
    total.add(diag)
    # int_a^b e(d alpha) = e(d (a+b)/2) * sin(pi d L) / (pi d); pairs (j<l)
    # combine with their conjugates into a purely real contribution.
    mid = 0.5 * (a + b)
    chunk = max(1, (1 << 22) // n)
    for i in range(0, n - 1, chunk):
        hiidx = min(i + chunk, n - 1)
        fi = freqs[i:hiidx, None]
        d = fi - freqs[None, :]
        c = coeffs[i:hiidx, None] * coeffs[None, :]
        mask = np.triu(np.ones(d.shape, dtype=bool), k=i + 1)
        d = d[mask]
        c = c[mask]
        if len(d) == 0:
            continue
        small = np.abs(d) < 1e-300
        d_safe = np.where(small, 1.0, d)
        kern = np.where(small, length,
                        np.sin(math.pi * d_safe * length) / (math.pi * d_safe))
        vals = 2.0 * c * np.cos(TWO_PI * d * mid) * kern
        total.add(float(np.sum(vals)))
    return total.value


def expand_square(freqs: np.ndarray, coeffs: np.ndarray):
    """Frequencies and coefficients of (sum_j c_j e(f_j a))^2, collected.

    Needed for fourth-moment integrals: |S^2|^2 reuses exp_pair_integral on
    the expanded list.
    """
    freqs = np.asarray(freqs, dtype=np.float64)
    coeffs = np.asarray(coeffs, dtype=np.float64)
    n = len(freqs)
    iu, ju = np.triu_indices(n)
    f2 = freqs[iu] + freqs[ju]
    c2 = coeffs[iu] * coeffs[ju] * np.where(iu == ju, 1.0, 2.0)
    order = np.argsort(f2, kind="stable")
    f2, c2 = f2[order], c2[order]
    # merge numerically identical frequencies
    out_f, out_c = [], []
    for f, c in zip(f2, c2):
        if out_f and abs(f - out_f[-1]) <= 1e-9 * max(1.0, abs(f)):
            out_c[-1] += c
        else:
            out_f.append(f)
            out_c.append(c)
    return np.asarray(out_f), np.asarray(out_c)
