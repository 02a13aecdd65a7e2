"""Shared numerical kernels: phase reduction, the grid phase kernel
grid_sum, exactly rounded sums, double-double error-free transforms,
cached Gauss-Legendre rules, and exact pairwise integrals of squared
exponential sums.

Phase accuracy is the dominant correctness risk of the whole package:
n^k * alpha routinely exceeds 2^40, where naive float64 reduction mod 1
destroys the phase.  frac_phase therefore reduces in double-double
float64 (Dekker's exact product) *before* the multiplication by 2*pi:
per term in e_of and phase_sum (S and U, in cache-sized blocks), and
once per block of an evenly spaced grid in grid_sum, which adds the
in-block offsets in float64 (the panel factors, kernel phases and unit
slices of circle).  exp_pair_integral forms each pair's phase as the
difference of two reduced phases; it and the unit slices take their pair
terms from pair_blocks.

k-th powers come in 80-bit extended precision (powk_extended), or
rounded to float64 (powk_float64) from a float64 power corrected by two
longdouble logs, within y0 (2^-64 (5 k ln n + 4) + delta^2) of the
extended power, which is taken only where that bound leaves the
rounding in doubt.

Sums are rounded once, exactly, to math.fsum's value bit for bit:
error-free vector extraction (Rump, Ogita & Oishi, SIAM J. Sci. Comput.
31, 2008) splits the terms into level sums that np.sum gets exactly, and
math.fsum (Shewchuk 1997) rounds those and what is left.
"""

from __future__ import annotations

import logging
import math

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import PrecisionError, ValidationError

TWO_PI = 2.0 * math.pi
_LD = np.longdouble
_log = logging.getLogger(__name__)


def require_extended_longdouble() -> None:
    """Fail loudly where numpy's longdouble lacks the 64-bit mantissa of the
    80-bit extended format: k-th powers and prefix sums rest on it."""
    nmant = np.finfo(_LD).nmant
    if nmant < 63:
        raise PrecisionError(
            f"numpy longdouble has a {nmant}-bit mantissa; primearcs needs "
            "at least 63 (80-bit extended, as on x86-64 Linux)")


require_extended_longdouble()


# ----------------------------- double-double --------------------------------
# Dekker / Knuth error-free transforms on float64 scalars or arrays.  The
# search module's residuals use them: every term but the extended-precision
# lambda3 n^k is carried exactly, so a residual is off by a few 2^-64 of
# |lambda3| n^k plus half an ulp of its own.

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
    return hi, (x - hi).astype(np.float64)


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


_U = _LD(2.0 ** -64)  # unit roundoff of the 64-bit longdouble mantissa


def powk_float64(n, k: float) -> tuple[np.ndarray, int]:
    """n**k rounded to float64, bit for bit the float64 rounding of
    powk_extended(n, k), and the count of elements that powk_extended
    itself powered.  n is an int64 array of positive integers below 2^53.

    Integer k powers the int64 values exactly and rounds once, as
    powk_extended's exact longdouble power does; a power past 2^63 would
    wrap, so then every element goes to powk_extended.

    Other k take y0 = float64 np.power(n, k) and correct it (Ziv's
    rounding test, ACM TOMS 17, 1991): with delta = k ln n - ln y0, both
    logs in longdouble, y1 = y0 + y0 delta is powk_extended's value up to

        |y1 - powk_extended(n, k)| <= y0 (u (5 k ln n + 4) + delta^2),

    u = 2^-64.  The k ln n term is the two logs at 1 ulp (2u of their
    size) each and the product k ln n at u; the difference is exact
    (Sterbenz) or off by u |delta|.  The 4u are y1's rounding (u) and
    powl's 1 ulp (2u), with u to spare; delta^2 bounds the dropped terms
    of y0 exp(delta).  Where y1 is farther than that from both float64
    rounding midpoints beside it, y1 and powk_extended's value round to
    the same float64; the rest (5.4% of the primes below 2.25e6 at
    k = 1.05, 8.4% at k = 1.7) go to powk_extended.  The two logs cost a
    sixth of a longdouble power.
    """
    n = np.asarray(n)
    if float(k).is_integer():
        if n.size == 0 or int(n.max()).bit_length() * k <= 63:
            return (n ** int(k)).astype(np.float64), 0
        return np.asarray(powk_extended(n, k), np.float64), n.size
    y0 = np.power(n.astype(np.float64), k)
    y0l = y0.astype(_LD)
    kln = _LD(k) * np.log(n.astype(_LD))
    delta = kln - np.log(y0l)
    y1 = y0l + y0l * delta
    out = y1.astype(np.float64)
    bound = y0l * (_U * (5.0 * kln + 4.0) + delta * delta)
    t = y1 - out  # exact: out is y1 rounded
    # clear of both midpoints; nan (a power out of range) fails and falls back
    safe = (t + bound < 0.5 * (np.nextafter(out, np.inf) - out)) & \
        (bound - t < 0.5 * (out - np.nextafter(out, 0.0)))
    near = np.flatnonzero(~safe)
    if len(near):
        out[near] = np.asarray(powk_extended(n[near], k), np.float64)
    return out, len(near)


def _dd(x):
    """x as float64 (hi, lo): a pair as it is, lo None for float64."""
    if isinstance(x, tuple):
        return x
    x = np.asarray(x)
    return (x, None) if x.dtype == np.float64 else \
        dd_from_longdouble(x.astype(_LD))


def frac_phase(values, alpha):
    """values * alpha reduced mod 1 into [-1/2, 1/2], as float64.

    Both arguments broadcast; either may be a (hi, lo) pair of float64
    arrays.  two_prod splits hi * hi exactly into p + e, the cross terms
    hi * lo join e, and p - rint(p), e - rint(e) are exact and centred, so
    neither wraps around 1: the result is off by 2^-54 at any size of
    values * alpha (2^-53 for pairs, whose cross terms round).
    """
    vh, vl = _dd(values)
    ah, al = _dd(alpha)
    p, e = two_prod(vh, ah)
    for x, lo in ((vh, al), (ah, vl)):
        if lo is not None:
            e = e + x * lo
    e = e - np.rint(e)
    e += p - np.rint(p)
    e -= np.rint(e)
    return e


def _cis(phase: np.ndarray) -> np.ndarray:
    """cos(phase) + i sin(phase)."""
    out = np.empty(np.shape(phase), dtype=complex)
    np.cos(phase, out=out.real)
    np.sin(phase, out=out.imag)
    return out


def e_of(values, alpha: float):
    """e(values * alpha) = exp(2*pi*i*values*alpha), reduced by frac_phase."""
    return _cis(TWO_PI * frac_phase(values, alpha))


def _grid_step(centers: np.ndarray) -> float:
    """Spacing of evenly spaced centres; ValidationError if they are not."""
    n = len(centers)
    if n < 2:
        return 0.0
    h = (centers[-1] - centers[0]) / (n - 1)
    dev = np.max(np.abs(centers - (centers[0] + h * np.arange(n))))
    ulp = np.spacing(max(abs(centers[0]), abs(centers[-1])))
    if not dev <= 8.0 * ulp:
        raise ValidationError(
            f"grid_sum needs evenly spaced centres: {n} centres stray "
            f"{dev:.3e} from the line through the ends")
    return h


def grid_sum(freqs: np.ndarray, coeffs: np.ndarray, centers: np.ndarray,
             offs: np.ndarray) -> np.ndarray:
    """sum_j coeffs_j e(freqs_j (centers_i + offs_o)) as an (n, m) array.

    The n centres are evenly spaced, c_i = c_0 + i h.  Writing i = R q + r
    splits each phase in two levels, f (c_{Rq} + r h + o), so the sum is
    P @ Q with P[q, j] = coeffs_j e(f_j c_{Rq}) (n/R rows) and
    Q[j, (r, o)] = e(f_j (r h + o)) (R m columns): (n/R + R m) N phases
    for N frequencies in place of n N, and the product has the size of
    the direct one.  R is the integer nearest sqrt(n/m), or 1 where that
    saves no phases or Q would pass 2^21 entries; the frequencies go in
    blocks of 2^17 / max(R m, n/R), so Q stays within 2 MiB and so does
    P below 2^17 rows.  P's rows go in blocks of about 2^21 / N centres
    for the N frequencies of a block: f c at the block's first centre is reduced
    by frac_phase and f (c - c0) added in float64, so the phase error is
    bounded by the block's width in cycles, not by the size of c.  Q's
    phases span at most R h + max|o|.  With R > 1 the nodes are
    c_{Rq} + r h + o, which the spacing check keeps within 8 ulps of
    c_i + o.
    """
    freqs = np.asarray(freqs, dtype=np.float64)
    coeffs = np.asarray(coeffs, dtype=np.float64)
    centers = np.asarray(centers, dtype=np.float64)
    offs = np.asarray(offs, dtype=np.float64)
    n, m, nf = len(centers), len(offs), max(1, len(freqs))
    h = _grid_step(centers)
    if n == 0 or m == 0:
        return np.zeros((n, m), dtype=complex)
    R = max(1, round(math.sqrt(n / m)))
    if R > 1 and (-(-n // R) + R * m >= n + m or nf * R * m > 1 << 21):
        R = 1
    inner = (h * np.arange(R))[:, None] + offs[None, :]
    fb = max(1, (1 << 17) // max(R * m, -(-n // R)))  # frequencies per block
    rows = max(1, ((1 << 21) // min(nf, fb)) // R)
    chunk = R * rows
    out = np.zeros((n, m), dtype=complex)
    for f0 in range(0, nf, fb):
        fs = freqs[f0:f0 + fb]
        tf = TWO_PI * fs
        qmat = _cis(np.multiply.outer(tf, inner.ravel()))
        for i in range(0, n, chunk):
            c = centers[i:i + chunk:R]
            phase = np.multiply.outer(c - c[0], tf)
            phase += frac_phase(fs, c[0]) * TWO_PI
            pmat = _cis(phase)
            pmat *= coeffs[f0:f0 + fb]
            k = min(chunk, n - i)
            out[i:i + k] += (pmat @ qmat).reshape(-1, m)[:k]
        del qmat  # before the next block's Q is formed
    _log.debug("grid sum: %d centres x %d offsets x %d freqs, R = %d, "
               "%d anchors, %d phases", n, m, len(freqs), R,
               -(-n // chunk) * -(-nf // fb), (-(-n // R) + R * m) * len(freqs))
    return out


# ----------------------------- summation ------------------------------------

# Extraction levels before the entries still left go to math.fsum as they
# are.  Any cap gives the same value; two or three levels clear the S and U
# windows at X = 1e5.
_EXTRACT_LEVELS = 4
_BLOCK = 1 << 13  # entries per block: 64 KiB, below glibc's mmap threshold


class _Ladder:
    """Exact running sum of n entries below top in size, fed block by block
    (see fsum_real); no levels where top is not finite or sigma overflows."""

    def __init__(self, n: int, top: float):
        shift = (n + 1).bit_length()  # M = ceil(log2(n + 2))
        e = math.frexp(top)[1] + shift
        levels = _EXTRACT_LEVELS if math.isfinite(top) and e <= 1023 else 0
        self.sigmas = [math.ldexp(1.0, e - i * (52 - shift))
                       for i in range(levels)]
        self.levels, self.left = [0.0] * levels, []

    def add(self, p: np.ndarray) -> None:
        for i, sigma in enumerate(self.sigmas):
            q = p + sigma
            q -= sigma
            p = p - q
            self.levels[i] += float(q.sum())
            if not p.any():
                return
        self.left += p[p != 0.0].tolist()

    def total(self) -> float:
        return math.fsum(self.levels + self.left)


def fsum_complex(values) -> complex:
    """Exactly rounded sum of a complex array: fsum_real per part."""
    arr = np.asarray(values).ravel()
    # contiguous parts: the level passes run faster than on strided views
    return complex(fsum_real(np.ascontiguousarray(arr.real, np.float64)),
                   fsum_real(np.ascontiguousarray(arr.imag, np.float64)))


def fsum_real(values) -> float:
    """Exactly rounded sum of a real array: math.fsum's value bit for bit.

    The entries p (n of them) run error-free vector extraction in blocks of
    _BLOCK, one level at a time.  Level 1 takes sigma = 2^(e + M), with
    max|p| < 2^e and 2^M >= n + 2, and splits p into q = (sigma + p) - sigma
    and p - q, both exact.  Every q is a multiple of 2^-53 sigma with
    |q| <= 2^-M sigma, so every partial sum of the q, over all blocks, is a
    multiple of 2^-53 sigma below sigma in size: np.sum and one float per
    level add them exactly in any order.  What is left is at most
    2^-53 sigma, so each next sigma is 2^(M - 52) times the last.  A block
    leaves the levels when it is all zero, or after _EXTRACT_LEVELS.
    math.fsum then rounds the level sums and the nonzero entries still
    left; their exact total is that of p.

    A non-finite entry or an overflowing sigma sends the entries to
    math.fsum as they are (no levels), with its values and exceptions (nan,
    inf, intermediate overflow).  All-zero entries go as the distinct zeros
    they hold, which keeps math.fsum's sign, without a list of them all.
    """
    p = np.asarray(values, dtype=np.float64).ravel()
    hi, lo = p.max(initial=0.0), p.min(initial=0.0)
    if hi == lo == 0.0:  # all zero (or empty): the distinct zeros held
        neg = np.signbit(p)
        return math.fsum(([] if neg.all() else [0.0])
                         + ([-0.0] if neg.any() else []))
    acc = _Ladder(p.size, max(hi, -lo))
    for i in range(0, p.size, _BLOCK):
        acc.add(p[i:i + _BLOCK])
    return acc.total()


def phase_sum(hi: np.ndarray, lo: np.ndarray, weights: np.ndarray | None,
              alpha: float) -> complex:
    """sum_j weights_j e(alpha (hi_j + lo_j)), unit weights where None, as
    math.fsum per part of weights * e_of((hi, lo), alpha), bit for bit.

    Each block of _BLOCK terms takes frac_phase, cos, sin and the weights
    and feeds one ladder per part, sigma from max|weights| (see fsum_real).
    """
    top = 1.0 if weights is None else \
        float(max(weights.max(initial=0.0), -weights.min(initial=0.0)))
    re, im = _Ladder(len(hi), top), _Ladder(len(hi), top)
    for i in range(0, len(hi), _BLOCK):
        j = slice(i, i + _BLOCK)
        phase = TWO_PI * frac_phase((hi[j], lo[j]), alpha)
        w = 1.0 if weights is None else weights[j]
        re.add(np.cos(phase) * w)
        im.add(np.sin(phase) * w)
    return complex(re.total(), im.total())


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

def pair_blocks(freqs: np.ndarray, coeffs: np.ndarray, length: float):
    """The pairs i < j of a sum of c e(f a), row by row in blocks of at
    most about 2^22 pairs: (i, j, d, kappa) per block, with d = f_i - f_j
    and kappa = 2 c_i c_j sin(pi d L)/(pi d) (2 c_i c_j L where
    |d| < 1e-300), so that

        int_{mid-L/2}^{mid+L/2} |sum c e(f a)|^2 da
            = L sum c^2 + sum_pairs kappa cos(2 pi d mid).
    """
    freqs = np.asarray(freqs, dtype=np.float64)
    coeffs = np.asarray(coeffs, dtype=np.float64)
    n = len(freqs)
    rows = max(1, (1 << 22) // max(n, 1))
    for r0 in range(0, n - 1, rows):
        r = np.arange(r0, min(r0 + rows, n - 1))
        cnt = n - 1 - r
        iu = np.repeat(r, cnt)
        ju = np.arange(len(iu)) - np.repeat(np.cumsum(cnt) - cnt - r - 1, cnt)
        d = freqs[iu] - freqs[ju]
        small = np.abs(d) < 1e-300
        d_safe = np.where(small, 1.0, d)
        kern = np.where(small, length,
                        np.sin(math.pi * d_safe * length) / (math.pi * d_safe))
        yield iu, ju, d, 2.0 * coeffs[iu] * coeffs[ju] * kern


def exp_pair_integral(freqs: np.ndarray, coeffs: np.ndarray,
                      a: float, b: float) -> float:
    """Exact value of  int_a^b | sum_j coeffs_j e(freqs_j alpha) |^2 d alpha.

    Uses the closed form of every pairwise term (pair_blocks); the result
    is exact up to rounding, independent of how wildly the sum oscillates.
    coeffs must be real.  Each pair's phase d * (a+b)/2 is the difference
    of the per-frequency reductions, and the diagonal and the block sums
    are rounded once, by fsum_real.
    """
    freqs = np.asarray(freqs, dtype=np.float64)
    coeffs = np.asarray(coeffs, dtype=np.float64)
    mid_phase = frac_phase(freqs, 0.5 * (a + b))
    parts = [float(np.dot(coeffs, coeffs)) * (b - a)]
    for i, j, _, kappa in pair_blocks(freqs, coeffs, b - a):
        ph = mid_phase[i] - mid_phase[j]
        parts.append(float(np.sum(kappa * np.cos(TWO_PI * ph))))
    return fsum_real(parts)


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
