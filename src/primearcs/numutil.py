"""Shared numerical kernels: extended-precision phases, exactly rounded
and compensated sums, double-double error-free transforms, cached
Gauss-Legendre rules, and exact pairwise integrals of squared exponential
sums.

Phase accuracy is the dominant correctness risk of the whole package:
n^k * alpha routinely exceeds 2^40, where naive float64 reduction mod 1
destroys the phase.  frac_phase therefore reduces in 80-bit extended
arithmetic (numpy longdouble) *before* the multiplication by 2*pi; every
phase sum takes its phase from it.  circle.grid_sum takes it once per
block of an evenly spaced grid and adds the in-block offsets in float64:
the panel factors of circle.ExpSumFactor.eval_panels, the e(varpi a)
kernel phase (circle._kernel_panels), T's Filon sums on a grid of alpha
(expsums.eval_T_grid), and the unit slices of circle.trivial_tails and
circle.minor_arc_l2.  T at one alpha anchors once per cycle of its panel
centres (expsums._t_grid_pass).  exp_pair_integral forms each pair's
phase as the difference of two reduced phases.

The pointwise sums S and U are rounded once, exactly: fsum_complex and
fsum_real return math.fsum's value bit for bit.  Error-free vector
extraction (Rump, Ogita & Oishi, SIAM J. Sci. Comput. 31, 2008) splits
the terms, a few numpy passes per level, into level sums that np.sum
gets exactly; math.fsum (Shewchuk 1997) rounds those and what is left.
Chunked reductions use a Kahan accumulator or extended-precision
prefix sums instead.
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


def frac_phase(values, alpha):
    """frac(values * alpha) computed in extended precision, as float64.

    Both arguments broadcast.  The error is about 2^-64 |values * alpha|
    plus the final rounding to float64.
    """
    prod = np.asarray(values, dtype=_LD) * np.asarray(alpha, dtype=_LD)
    return np.mod(prod, _LD(1.0)).astype(np.float64)


def e_of(values, alpha: float):
    """e(values * alpha) = exp(2*pi*i*values*alpha) with safe reduction."""
    return np.exp((2j * math.pi) * frac_phase(values, alpha))


# ----------------------------- summation ------------------------------------

# Extraction levels before the entries still left go to math.fsum as they
# are.  Any cap gives the same value; two or three levels clear the S and U
# windows at X = 1e5.
_EXTRACT_LEVELS = 4


def _exact_sum(p: np.ndarray) -> float:
    """math.fsum of the float64 vector p, bit for bit (see fsum_complex)."""
    shift = (p.size + 1).bit_length()  # M = ceil(log2(n + 2))
    hi, lo = p.max(initial=0.0), p.min(initial=0.0)
    if not (math.isfinite(hi) and math.isfinite(lo)) \
            or math.frexp(max(hi, -lo))[1] + shift > 1023:
        return math.fsum(p.tolist())
    if hi == lo == 0.0:  # all zero (or empty): the distinct zeros held
        neg = np.signbit(p)
        return math.fsum(([] if neg.all() else [0.0])
                         + ([-0.0] if neg.any() else []))
    taus = []
    for _ in range(_EXTRACT_LEVELS):
        sigma = math.ldexp(1.0, math.frexp(max(hi, -lo))[1] + shift)
        q = p + sigma
        q -= sigma
        p = p - q
        taus.append(float(q.sum()))
        hi, lo = p.max(), p.min()
        if hi == lo == 0.0:
            break
    return math.fsum(taus + p[p != 0.0].tolist())


def fsum_complex(values) -> complex:
    """Exactly rounded sum of a complex array: per part, math.fsum's value
    bit for bit, from a few numpy passes.

    Each part p (n entries) runs error-free vector extraction, one level at
    a time.  A level takes sigma = 2^(e + M), with max|p| < 2^e and
    2^M >= n + 2, and splits p into q = (sigma + p) - sigma and p - q.  Both
    steps are exact.  Every q is a multiple of 2^-53 sigma with
    |q| <= 2^-M sigma, so every partial sum of the q is a multiple of
    2^-53 sigma below sigma in size: np.sum adds them exactly in any order.
    The levels stop when p is all zero, or after _EXTRACT_LEVELS.  math.fsum
    then rounds the level sums together with the nonzero entries still
    left; their exact total is that of the part, so the cap sets only the
    speed.

    A part with a non-finite entry, or whose sigma would overflow, goes to
    math.fsum whole, which keeps its values and exceptions (nan, inf,
    intermediate overflow).  An all-zero part goes as the distinct zeros it
    holds, which keeps the sign math.fsum gives, without a list of the
    part's length.
    """
    arr = np.asarray(values).ravel()
    # contiguous parts: the level passes run faster than on strided views
    return complex(_exact_sum(np.ascontiguousarray(arr.real, np.float64)),
                   _exact_sum(np.ascontiguousarray(arr.imag, np.float64)))


def fsum_real(values) -> float:
    """Exactly rounded sum of a real array: math.fsum bit for bit."""
    return _exact_sum(np.asarray(values, dtype=np.float64).ravel())


class KahanAccumulator:
    """Sequential compensated accumulator for chunked reductions (float
    terms, or complex ones summed part by part)."""

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


# --------------------------- Gauss-Legendre rules ----------------------------

_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def gl_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    if n not in _GL_CACHE:
        _GL_CACHE[n] = leggauss(n)
    return _GL_CACHE[n]


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
    # combine with their conjugates into a purely real contribution.  The
    # phase d*mid is the difference of the per-frequency reductions.
    mid_phase = frac_phase(freqs, 0.5 * (a + b))
    chunk = max(1, (1 << 22) // n)
    for i in range(0, n - 1, chunk):
        hiidx = min(i + chunk, n - 1)
        d = freqs[i:hiidx, None] - freqs[None, :]
        ph = mid_phase[i:hiidx, None] - mid_phase[None, :]
        c = coeffs[i:hiidx, None] * coeffs[None, :]
        mask = np.triu(np.ones(d.shape, dtype=bool), k=i + 1)
        d = d[mask]
        ph = ph[mask]
        c = c[mask]
        if len(d) == 0:
            continue
        small = np.abs(d) < 1e-300
        d_safe = np.where(small, 1.0, d)
        kern = np.where(small, length,
                        np.sin(math.pi * d_safe * length) / (math.pi * d_safe))
        vals = 2.0 * c * np.cos(TWO_PI * ph) * kern
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
