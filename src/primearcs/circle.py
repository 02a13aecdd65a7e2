"""Arc decomposition of the frequency line and the counting integral.

The integrand S_1(l1 a) S_2(l2 a) S_k(l3 a) K_eta(a) e(w a) ties weighted
prime triples to an integral over the real line, split into a major arc
around zero, a pair of intermediate arcs, and the trivial tail.  All
exponential sums in this module run over the window delta*X <= p^k <= X
(the window the counting identity and the T integrals live on; the
verbatim dyadic sums stay in expsums).  A factor sum w_j e(f_j alpha) is
an ExpSumFactor, summed on panel nodes by its eval_panels only.

The bounded arcs are integrated by gauss_panels, one GL12 pass sized by
the rule's remainder bound on their band-limited spectra, which meansquare's
truncated-L2 grid and the Fejér-pair check verify_fourier_pair share.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, ValidationError, require_tol
from .expsums import (WindowSpec, eval_S_range, eval_T_grid, fejer_K,
                      fejer_hat, window)
from .numutil import (exp_pair_integral, expand_square, fsum_complex,
                      fsum_real, gl_rule, grid_sum, pair_blocks)
from .primes import PrimeTable

K_RANGE = (1.0, 33.0 / 29.0)
# Nodes of one counting-integral piece and unit slices of one trivial tail
# before ConvergenceError.
PRODUCT_NODE_BUDGET, MAX_TAIL_SLICES = 6e8, 300_000
_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ProblemInstance:
    """Coefficients and parameters of one inequality instance."""

    lambda1: float
    lambda2: float
    lambda3: float
    k: float
    varpi: float = 0.0
    eps: float = 0.01
    delta: float = 0.1

    def __post_init__(self):
        if 0.0 in (self.lambda1, self.lambda2, self.lambda3):
            raise ValidationError("all three coefficients must be nonzero")
        if not self.k > 0:
            raise ValidationError("k must be positive")
        if not 0 < self.delta < 1:
            raise ValidationError("delta must lie in (0, 1)")
        if not (abs(self.varpi) < math.inf and abs(self.eps) < math.inf):
            raise ValidationError("varpi and eps must be finite")

    @property
    def lambdas(self) -> tuple[float, float, float]:
        return (self.lambda1, self.lambda2, self.lambda3)

    @property
    def sign_ok(self) -> bool:
        """True when the coefficients are not all of one sign."""
        ls = self.lambdas
        return not (all(l > 0 for l in ls) or all(l < 0 for l in ls))

    @property
    def k_in_range(self) -> bool:
        return K_RANGE[0] < self.k < K_RANGE[1]

    @property
    def warnings(self) -> list[str]:
        out = []
        if not self.sign_ok:
            out.append("coefficients all share one sign: at most finitely "
                       "many solutions")
        if not self.k_in_range:
            out.append(f"k={self.k} outside the supported range "
                       f"({K_RANGE[0]}, {K_RANGE[1]:.6f})")
        return out


@dataclass(frozen=True)
class ArcParams:
    """Arc boundaries at one scale X."""

    X: float
    P: float
    eta: float
    R: float
    major: tuple[float, float]
    minor: tuple[tuple[float, float], tuple[float, float]]
    trivial: str


def eta_exponent(k, eps=0):
    """Exponent of the kernel width: eta = X^(-(33-29k)/(72k) + eps).

    Works on Fractions as well as floats (exact cross-checks against the
    optimizer use Fractions).
    """
    return -(33 - 29 * k) / (72 * k) + eps


def p_exponent(k, eps=0):
    """Exponent of the major-arc cut: P = X^(4/(5k) - eps)."""
    return 4 / (5 * k) - eps


def arc_params(inst: ProblemInstance, X: float) -> ArcParams:
    """Arc boundaries P/X and R with the kernel width eta at scale X."""
    if X < 10:
        raise ValidationError("arc_params requires X >= 10")
    k, eps = inst.k, inst.eps
    P = X ** p_exponent(k, eps)
    eta = X ** eta_exponent(k, eps)
    R = eta ** -2.0 * X ** ((k - 1.0) / (4.0 * k)) * math.log(X) ** 3
    cut = P / X
    if cut >= R:
        raise ValidationError(
            f"degenerate decomposition: P/X = {cut:.6g} >= R = {R:.6g}")
    return ArcParams(X=X, P=P, eta=eta, R=R,
                     major=(-cut, cut),
                     minor=((-R, -cut), (cut, R)),
                     trivial=f"|alpha| > {R:.9g}")


# --------------------------- exponential-sum factors -------------------------

class ExpSumFactor(NamedTuple):
    """One factor sum w_j e(f_j alpha): its scaled frequencies and weights."""

    freqs: np.ndarray
    weights: np.ndarray

    @property
    def max_freq(self) -> float:
        return float(np.max(np.abs(self.freqs))) if len(self.freqs) else 0.0

    @property
    def mass(self) -> float:
        return float(np.sum(np.abs(self.weights)))

    def eval_panels(self, centers: np.ndarray, offs: np.ndarray) -> np.ndarray:
        """Values on nodes centers[:, None] + offs[None, :]; the centres must
        be evenly spaced (gauss_panels' are), so grid_sum shares phases."""
        return grid_sum(self.freqs, self.weights, centers, offs)


def window_factors(inst: ProblemInstance, table: PrimeTable, w: WindowSpec,
                   scales=None) -> list[ExpSumFactor]:
    """S_1, S_2 and S_k on the common window delta*X <= p^kj <= X, the
    frequencies of factor j scaled by scales[j] (the lambdas by default)."""
    wins = (window(kj, w.delta * w.X, w.X, table) for kj in (1.0, 2.0, inst.k))
    return [ExpSumFactor(win.powers[0] * scale, win.weights)
            for scale, win in zip(scales or inst.lambdas, wins)]


# ------------------------------ panel quadrature -----------------------------

# int f - GL12(f) = C f^(24)(xi) on [-1, 1] (DLMF 3.5.19, n = 12)
_GL12_C = (2 ** 25 * math.factorial(12) ** 4) / (25 * math.factorial(24) ** 3)


def gl12_panels(a: float, b: float, f_max: float, mass: float,
                tol: float) -> tuple[int, float]:
    """(n, r): the fewest equal panels of [a, b] on which GL12 errs by at
    most (r/n)^24 = mass (b-a)/2 sqrt(2) C (2 pi f_max hw)^24 <= tol for a
    spectrum in |s| <= f_max of L1 mass <= mass (C on Re and Im e(s a))."""
    r = math.pi * f_max * (b - a) * (
        mass * (b - a) / math.sqrt(2.0) * _GL12_C) ** (1.0 / 24.0)
    n = max(1, math.ceil(r / tol ** (1.0 / 24.0)))
    return n + ((r / n) ** 24 > tol), r


def gauss_panels(parts, a: float, b: float, f_max: float, mass: float,
                 tol: float, max_nodes: float):
    """One composite GL12 pass over [a, b] on gl12_panels' count for named
    integrands whose spectra lie in |s| <= f_max with L1 mass <= mass.

    parts(centers, offs) returns {name: values} on the nodes
    centers[:, None] + offs[None, :], 2048 panels a call (8192 ran arcs
    15% faster, but its peak RSS rose from 39.4 to 44.8 MiB).  est_error
    adds to the bound 0.25 2^-53 int|f| (over all names) times one call's
    phase span in cycles for grid_sum's float64 in-block phases: 13x the
    largest such error on the closed-form counting integral.  Returns
    ({name: value}, est_error); ValidationError unless 0 < tol < inf;
    ConvergenceError past max_nodes nodes, best the pass they allow.
    """
    require_tol(tol)
    x12, w12 = gl_rule(12)
    n_panels, r = gl12_panels(a, b, f_max, mass, tol)
    over = 12 * n_panels > max_nodes
    n_panels = max(1, int(max_nodes // 12)) if over else n_panels
    hw = (b - a) / (2.0 * n_panels)
    chunk, partials, absint = 2048, {}, 0.0
    for i in range(0, n_panels, chunk):
        centers = a + (2.0 * np.arange(i, min(i + chunk, n_panels)) + 1.0) * hw
        for name, vals in parts(centers, x12 * hw).items():
            partials.setdefault(name, []).append(np.sum(vals @ (w12 * hw)))
            absint += float(np.sum(np.abs(vals) @ (w12 * hw)))
    bound = (r / n_panels) ** 24
    err = bound + 0.25 * 2.0 ** -53 * absint * max(
        1.0, f_max * 2.0 * hw * min(n_panels, chunk))
    vals = {name: fsum_complex(p) for name, p in partials.items()}
    _log.debug("gauss panels on [%g, %g]: %d panels, GL12, bound %.3e, "
               "est error %.3e", a, b, n_panels, bound, err)
    if over:
        raise ConvergenceError(f"panel quadrature needs over {max_nodes:.3g} "
                               f"nodes; {n_panels} panels err by {err:.3e}",
                               best=vals, est_error=err)
    return vals, err


def _kernel_panels(eta: float, varpi: float, centers: np.ndarray,
                   offs: np.ndarray) -> np.ndarray:
    """K_eta(a) e(varpi a) on the panel nodes, e(varpi a) and
    sin(pi eta a) = Im e(eta a / 2) as one-frequency grid_sums."""
    sin = grid_sum([0.5 * eta], [1.0], centers, offs).imag
    return (fejer_K(eta, centers[:, None] + offs[None, :], sin)
            * grid_sum([varpi], [1.0], centers, offs))


def verify_fourier_pair(eta: float, t: float, truncation: float) -> float:
    """|int_{-A}^{A} K_eta(a) e(t a) da  -  max(0, eta - |t|)|.

    K_eta is even, so the integral is twice the real part of one
    gauss_panels pass over [0, A] of _kernel_panels (absolute tol 1e-15).
    The truncation tail is at most 2/(pi^2 A) since K_eta(a) <= 1/(pi a)^2,
    so the returned discrepancy is bounded by that plus quadrature error.
    """
    if truncation < 10.0 / eta:
        raise ValidationError("truncation must be at least 10/eta")

    def parts(centers, offs):
        return {"K": _kernel_panels(eta, t, centers, offs)}

    vals, _ = gauss_panels(parts, 0.0, float(truncation), eta + abs(t),
                           eta * eta, 1e-15, 1e8)
    return abs(2.0 * vals["K"].real - fejer_hat(eta, t))


def _product_on_interval(parts, a: float, b: float, f_max: float,
                         mass: float, tol: float):
    """integrate_I's traced layer: gauss_panels' ("I" value, est_error)."""
    vals, err = gauss_panels(parts, a, b, f_max, mass, tol,
                             PRODUCT_NODE_BUDGET)
    return vals["I"], err


def integrate_I(inst: ProblemInstance, table: PrimeTable, w: WindowSpec,
                eta: float, intervals, tol: float = 1e-6) -> complex:
    """The counting integral over a finite union of bounded intervals.

    Negative half-axis pieces are folded onto the positive side through
    the Hermitian symmetry of the integrand, so only alpha >= 0 is ever
    sampled.  The trivial tail (unbounded pieces) is out of scope here;
    use trivial_tails for its majorant.
    """
    factors = window_factors(inst, table, w)
    f_max = sum(f.max_freq for f in factors) + abs(inst.varpi) + eta
    mass = math.prod(f.mass for f in factors) * eta * eta

    def parts(centers, offs):
        prod = math.prod(f.eval_panels(centers, offs) for f in factors)
        return {"I": prod * _kernel_panels(eta, inst.varpi, centers, offs)}

    pieces = []
    for (a, b) in intervals:
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ValidationError(
                "integrate_I needs bounded intervals; the trivial arc is "
                "handled by trivial_tails")
        if a > b:
            raise ValidationError(f"inverted interval ({a}, {b})")
        if a < 0:
            pieces.append(("conj", max(-b, 0.0), -a))
        if b > 0:
            pieces.append(("plain", max(a, 0.0), b))
    total = 0j
    per_piece_tol = tol / max(1, len(pieces))
    done = {}  # (a, b) -> (value, est_error): a symmetric range is one pass
    est_error = 0.0
    for kind, a, b in pieces:
        if (a, b) not in done:
            done[(a, b)] = _product_on_interval(parts, a, b, f_max, mass,
                                                per_piece_tol)
        val, err = done[(a, b)]
        est_error += err
        total += val.conjugate() if kind == "conj" else val
    _log.debug("integrate_I: %d pieces, %d reused by symmetry, summed est "
               "error %.3e", len(pieces), len(pieces) - len(done), est_error)
    return total


def major_arc_split(inst: ProblemInstance, table: PrimeTable, w: WindowSpec,
                    eta: float, tol: float = 1e-6):
    """The four-term telescoping split of the major-arc integral.

    Evaluates, on one shared node set over the major arc,
        J1 = int T1 T2 Tk K e(w a),
        J2 = int (S1 - T1) T2 Tk K e(w a),
        J3 = int S1 (S2 - T2) Tk K e(w a),
        J4 = int S1 S2 (Sk - Tk) K e(w a),
    plus the direct integral I_M of S1 S2 Sk K e(w a); the five values
    satisfy J1+J2+J3+J4 = I_M identically up to quadrature rounding.

    Returns dict with J1..J4, I_M, the quadrature's est_error, and
    t_est_error, the largest eval_T_grid bound.
    """
    arc = arc_params(inst, w.X)
    cut = arc.major[1]
    factors = window_factors(inst, table, w)
    lo, hi = w.delta * w.X, w.X
    ks = (1.0, 2.0, inst.k)
    # |T_j| and its L1 mass are at most its t-range length, which T's tol
    # scales with; the J_(j+2) masses (S before j, S - T at j, T after)
    # bound J1's and I_M's
    t = [hi ** (1 / kj) - lo ** (1 / kj) for kj in ks]
    t_tols = [1e-10 * max(1.0, m) for m in t]
    s = [f.mass for f in factors]
    mass = 2.0 * eta * eta * max(math.prod(s[:j]) * (s[j] + t[j])
                                 * math.prod(t[j + 1:]) for j in range(3))
    f_max = sum(abs(lam) for lam in inst.lambdas) * hi + abs(inst.varpi) + eta
    t_est = [0.0]  # largest eval_T_grid bound so far

    def parts(centers, offs):
        svals = [f.eval_panels(centers, offs) for f in factors]
        tvals, ests = zip(*(eval_T_grid(kj, lo, hi, lam * centers, lam * offs,
                                        t_tol)
                            for kj, lam, t_tol in zip(ks, inst.lambdas, t_tols)))
        t_est[0] = max(t_est[0], *ests)
        kern = _kernel_panels(eta, inst.varpi, centers, offs)
        terms = {
            "J1": tvals[0] * tvals[1] * tvals[2],
            "J2": (svals[0] - tvals[0]) * tvals[1] * tvals[2],
            "J3": svals[0] * (svals[1] - tvals[1]) * tvals[2],
            "J4": svals[0] * svals[1] * (svals[2] - tvals[2]),
            "I_M": svals[0] * svals[1] * svals[2],
        }
        # Hermitian symmetry: the full major arc is twice the real part.
        return {name: 2.0 * (vals * kern).real for name, vals in terms.items()}

    vals, err = gauss_panels(parts, 0.0, cut, f_max, mass, tol, 2e8)
    out = {name: v.real for name, v in vals.items()}
    out["est_error"] = err
    out["t_est_error"] = t_est[0]
    return out


# ------------------------------ minor-arc bounds -----------------------------

def bound_vaughan(table: PrimeTable, X: float, alpha: float, a: int,
                  q: int) -> float:
    """|S_1(alpha)| over the dyadic window divided by the classical
    rational-approximation bound (X/sqrt(q) + sqrt(Xq) + X^(4/5)) log^4 X."""
    _check_rational_approx(alpha, a, q)
    s1 = abs(eval_S_range(table, 1.0, X, 2.0 * X, alpha))
    rhs = (X / math.sqrt(q) + math.sqrt(X * q) + X ** 0.8) * math.log(X) ** 4
    return s1 / rhs


def bound_ghosh(table: PrimeTable, X: float, alpha: float, a: int,
                q: int) -> float:
    """|S_2(alpha)| over the dyadic window divided by
    X^(1/2+eps) (1/q + X^(-1/4) + q/X)^(1/4) at eps = 0.05."""
    _check_rational_approx(alpha, a, q)
    s2 = abs(eval_S_range(table, 2.0, X, 2.0 * X, alpha))
    rhs = X ** 0.55 * (1.0 / q + X ** -0.25 + q / X) ** 0.25
    return s2 / rhs


def _check_rational_approx(alpha: float, a: int, q: int):
    if q < 1:
        raise ValidationError("q must be a positive integer")
    if math.gcd(abs(a), q) != 1:
        raise ValidationError(f"gcd({a}, {q}) != 1")
    if abs(alpha - a / q) >= 1.0 / (q * q):
        raise ValidationError(
            f"|alpha - {a}/{q}| = {abs(alpha - a / q):.3e} not below q^-2")


# ------------------------------- trivial tails -------------------------------

@dataclass(frozen=True)
class TailReport:
    values: tuple[float, float, float]        # A, B, C
    comparators: tuple[float, float, float]
    ratios: tuple[float, float, float]
    start: tuple[int, int, int]               # first sliced integer per tail
    slices: tuple[int, int, int]


def _slice_pairs(freqs: np.ndarray, coeffs: np.ndarray):
    """(M, d, kappa) of the unit-slice closed form

        int_{mid-1/2}^{mid+1/2} |sum c e(f a)|^2 da
            = M + sum_pairs kappa cos(2 pi d mid),

    with M = sum c^2 and the pair_blocks terms of width 1 (d = f_i - f_j,
    kappa = 2 c_i c_j sin(pi d)/(pi d) over the pairs i < j).  Pair terms
    at or below 1e-17 M are dropped.
    """
    coeffs = np.asarray(coeffs, dtype=np.float64)
    m_diag = float(np.dot(coeffs, coeffs))
    floor = 1e-17 * max(m_diag, 1e-300)
    ds, kappas = [np.empty(0)], [np.empty(0)]
    for _, _, d, kpair in pair_blocks(freqs, coeffs, 1.0):
        keep = np.abs(kpair) > floor
        ds.append(d[keep])
        kappas.append(kpair[keep])
    return m_diag, np.concatenate(ds), np.concatenate(kappas)


def _unit_slices(pairs, first_mid: float, count: int) -> np.ndarray:
    """Unit-slice integrals of _slice_pairs' sum at the midpoints
    first_mid + i, i < count: M plus the real part of one grid_sum over
    the pair differences."""
    m_diag, d, kpair = pairs
    mids = first_mid + np.arange(count, dtype=np.float64)
    return m_diag + grid_sum(d, kpair, mids, [0.0])[:, 0].real


def _trigamma_upper(x: float) -> float:
    """psi1(x), x > 0, rounded up by 1e-12: psi1(x) = x^-2 + psi1(x + 1) up
    to x >= 20, then A&S 6.4.12 through z^-11 (over by < 1e-16 there)."""
    head = 0.0
    while x < 20.0:
        head, x = head + 1.0 / (x * x), x + 1.0
    z2 = 1.0 / (x * x)
    bern = 1 / 6 - z2 * (1 / 30 - z2 * (1 / 42 - z2 * (1 / 30 - z2 * 5 / 66)))
    return (head + (1.0 + 0.5 / x + z2 * bern) / x) * (1.0 + 1e-12)


def _sliced_tail(freqs: np.ndarray, coeffs: np.ndarray, n0: int,
                 tol: float) -> tuple[float, int]:
    """sum_{n >= n0} (n-1)^-2 int_{n-1}^{n} |sum c e(f a)|^2 da.

    Each unit-interval integral has the closed form of _slice_pairs,
    M + sum_pairs 2 c_i c_j cos(2 pi d (n - 1/2)) sin(pi d)/(pi d),
    so the whole tail is a cosine series over the pair differences,
    evaluated 4096 slices at a time by _unit_slices (one grid_sum with
    centres n - 1/2); the remainder past N is bounded by
    (M + sum|pair terms|) * psi1(N-1), psi1 rounded up by _trigamma_upper.
    The block sums are rounded once, by fsum_real; ConvergenceError past
    MAX_TAIL_SLICES slices.
    """
    pairs = _slice_pairs(freqs, coeffs)
    m_diag, _, kpair = pairs
    osc_bound = float(np.sum(np.abs(kpair)))
    parts = []  # block sums
    n = max(n0, 2)
    used = 0
    block = 4096
    while True:
        remaining = (m_diag + osc_bound) * _trigamma_upper(n - 1.0)
        if remaining < tol:
            return fsum_real(parts), used
        if used >= MAX_TAIL_SLICES:
            raise ConvergenceError(
                f"tail slicing budget exceeded after {used} slices "
                f"(remaining bound {remaining:.3e})", best=fsum_real(parts),
                est_error=remaining)
        ns = np.arange(n, n + block, dtype=np.float64)
        vals = _unit_slices(pairs, n - 0.5, block)
        parts.append(float(np.sum(vals / (ns - 1.0) ** 2)))
        n += block
        used += block


def trivial_tails(inst: ProblemInstance, table: PrimeTable, w: WindowSpec,
                  R: float, tol: float = 1.0) -> TailReport:
    """Majorants of the three tail integrals beyond the trivial-arc cut.

    A slices |S_1(a)|^2 / a^2 from |l1| R, B does |S_2|^4, C does |S_k|^2,
    each by unit intervals weighted (n-1)^-2, exactly per slice, until the
    remainder bound drops below tol (ValidationError unless 0 < tol < inf).
    """
    if R <= 1:
        raise ValidationError("trivial_tails needs R > 1")
    require_tol(tol)
    X, k = w.X, inst.k
    values, starts, slices = [], [], []
    f1, f2, fk = window_factors(inst, table, w, (1.0,) * 3)
    for lam, (freqs, coeffs) in zip(
            inst.lambdas, (f1, ExpSumFactor(*expand_square(*f2)), fk)):
        n0 = max(2, math.ceil(abs(lam) * R))
        val, used = _sliced_tail(freqs, coeffs, n0, tol)
        values.append(val)
        starts.append(n0)
        slices.append(used)
    logx = math.log(X)
    comps = (X * logx / (abs(inst.lambda1) * R),
             X * logx ** 2 / R,
             X ** (1.0 / k) * logx ** 3 / R)
    ratios = tuple(v / c if c > 0 else math.inf for v, c in zip(values, comps))
    return TailReport(tuple(values), comps, ratios, tuple(starts), tuple(slices))


def minor_arc_l2(inst: ProblemInstance, table: PrimeTable, w: WindowSpec,
                 eta: float, arc: ArcParams):
    """Kernel-weighted minor-arc L2 majorants with their comparators.

    For each of |S_1(l1 a)|^2, |S_2(l2 a)|^4, |S_k(l3 a)|^2 integrates the
    kernel majorant min(eta^2, 1/(pi a)^2) over the positive minor arc:
    exactly on [P/X, cut] with weight eta^2, then by unit slices with
    weight 1/(pi a)^2 at each slice's left end a up to R.  Comparators:
    eta X log^j X for j = 1, 2 and eta X^(1/k) log^3 X.  Each row also
    counts the slices between cut and R.
    """
    a0 = arc.major[1]
    R = arc.R
    X, k = w.X, inst.k
    rows = []
    f1, f2, fk = window_factors(inst, table, w)
    for (freqs, coeffs), comp in zip(
            (f1, ExpSumFactor(*expand_square(*f2)), fk),
            (eta * X * math.log(X), eta * X * math.log(X) ** 2,
             eta * X ** (1.0 / k) * math.log(X) ** 3)):
        cut = min(R, max(a0, 1.0 / eta))
        value = eta * eta * exp_pair_integral(freqs, coeffs, a0, cut)
        slices = 0
        if cut < R:
            # the first slice [cut, floor(cut) + 1] and the last partial
            # one [floor(R), R] exactly; the whole slices [n, n + 1]
            # between them by _unit_slices
            b = min(math.floor(cut) + 1.0, R)
            value += exp_pair_integral(freqs, coeffs, cut, b) / (math.pi * cut) ** 2
            slices = 1
            if b < R:
                last = float(math.floor(R))
                ns = np.arange(b, last)
                vals = _unit_slices(_slice_pairs(freqs, coeffs), b + 0.5, len(ns))
                value += float(np.sum(vals / (math.pi * ns) ** 2))
                slices += len(ns)
                if last < R:
                    value += (exp_pair_integral(freqs, coeffs, last, R)
                              / (math.pi * last) ** 2)
                    slices += 1
        rows.append({"value": value, "comparator": comp,
                     "ratio": value / comp if comp > 0 else math.inf,
                     "slices": slices})
    return rows
