"""Arc decomposition of the frequency line and the counting integral.

The integrand S_1(l1 a) S_2(l2 a) S_k(l3 a) K_eta(a) e(w a) ties weighted
prime triples to an integral over the real line, split into a major arc
around zero, a pair of intermediate arcs, and the trivial tail.  All
exponential sums in this module run over the window delta*X <= p^k <= X
(the window the counting identity and the T integrals live on; the
verbatim dyadic sums stay in expsums).

The bounded arcs are integrated by one Gauss-Legendre panel driver,
gauss_panels, which meansquare's truncated-L2 grid shares.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
import numpy as np
from scipy.special import polygamma

from .errors import ConvergenceError, ValidationError
from .expsums import WindowSpec, eval_S_range, eval_T_grid, fejer_K, prime_window
from .numutil import (TWO_PI, KahanAccumulator, e_of, exp_pair_integral,
                      expand_square, frac_phase, gl_rule, powk_extended)
from .primes import PrimeTable
from .rational import HiReal

K_RANGE = (1.0, 33.0 / 29.0)
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
    lambda_ratio: HiReal | None = None

    def __post_init__(self):
        if 0.0 in (self.lambda1, self.lambda2, self.lambda3):
            raise ValidationError("all three coefficients must be nonzero")
        if self.k <= 0:
            raise ValidationError("k must be positive")
        if not 0 < self.delta < 1:
            raise ValidationError("delta must lie in (0, 1)")
        if self.lambda_ratio is None:
            object.__setattr__(
                self, "lambda_ratio",
                HiReal.from_decimal_literal(_to_decimal_string(self.lambda1 / self.lambda2), 17))

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
            out.append("coefficients all share one sign: no solutions exist")
        if not self.k_in_range:
            out.append(f"k={self.k} outside the supported range "
                       f"({K_RANGE[0]}, {K_RANGE[1]:.6f})")
        return out


def _to_decimal_string(x: float) -> str:
    s = repr(float(x))
    if "e" in s or "E" in s:
        s = f"{x:.17f}"
    return s


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

class ExpSumFactor:
    """One factor sum w_j e(f_j alpha), with a panel-factorized grid path."""

    def __init__(self, freqs: np.ndarray, weights: np.ndarray):
        self.freqs = np.asarray(freqs, dtype=np.float64)
        self.weights = np.asarray(weights, dtype=np.float64)

    @property
    def max_freq(self) -> float:
        return float(np.max(np.abs(self.freqs))) if len(self.freqs) else 0.0

    @property
    def mass(self) -> float:
        return float(np.sum(np.abs(self.weights)))

    def eval(self, alphas: np.ndarray) -> np.ndarray:
        alphas = np.atleast_1d(np.asarray(alphas, dtype=np.float64))
        out = np.empty(len(alphas), dtype=complex)
        chunk = max(1, (1 << 21) // max(1, len(self.freqs)))
        for i in range(0, len(alphas), chunk):
            ph = frac_phase(self.freqs[None, :], alphas[i:i + chunk, None])
            out[i:i + chunk] = _cis(ph * TWO_PI) @ self.weights.astype(complex)
        return out

    def eval_panels(self, centers: np.ndarray, offs_cat: np.ndarray) -> np.ndarray:
        """Values on nodes centers[:, None] + offs_cat[None, :].

        The phase splits as e(f c) * e(f o); the (panels x freqs) factor is
        the expensive part and is shared by every offset column.  Each block
        of about 2^21 phases reduces f*c0 at its first centre c0 in extended
        precision and adds f*(c - c0) in float64, so the phase error is
        bounded by the block's width in cycles, not by the size of alpha.
        """
        tf = TWO_PI * self.freqs
        bmat = _cis(np.multiply.outer(tf, offs_cat))
        out = np.empty((len(centers), len(offs_cat)), dtype=complex)
        chunk = max(1, (1 << 21) // max(1, len(self.freqs)))
        for i in range(0, len(centers), chunk):
            c = centers[i:i + chunk]
            a_phase = np.multiply.outer(c - c[0], tf)
            a_phase += frac_phase(self.freqs, c[0]) * TWO_PI
            amat = _cis(a_phase)
            amat *= self.weights[None, :]
            out[i:i + chunk] = amat @ bmat
        return out


def _cis(phase: np.ndarray) -> np.ndarray:
    out = np.empty(phase.shape, dtype=complex)
    out.real = np.cos(phase)
    out.imag = np.sin(phase)
    return out


def window_factors(inst: ProblemInstance, table: PrimeTable,
                   w: WindowSpec) -> list[ExpSumFactor]:
    """The three scaled factors on the common window delta*X <= p^kj <= X."""
    lo, hi = w.delta * w.X, w.X
    out = []
    for lam, kj in zip(inst.lambdas, (1.0, 2.0, inst.k)):
        ps, logs = prime_window(table, kj, lo, hi)
        freqs = np.asarray(powk_extended(ps, kj), dtype=np.float64) * lam
        out.append(ExpSumFactor(freqs, logs))
    return out


def integrand(inst: ProblemInstance, table: PrimeTable, w: WindowSpec,
              eta: float, alpha: float) -> complex:
    """Pointwise S_1(l1 a) S_2(l2 a) S_k(l3 a) K_eta(a) e(varpi a)."""
    k = inst.k
    lo, hi = w.delta * w.X, w.X
    s1 = eval_S_range(table, 1.0, lo, hi, inst.lambda1 * alpha)
    s2 = eval_S_range(table, 2.0, lo, hi, inst.lambda2 * alpha)
    sk = eval_S_range(table, k, lo, hi, inst.lambda3 * alpha)
    kern = fejer_K(eta, alpha)
    return s1 * s2 * sk * kern * complex(e_of(inst.varpi, alpha))


# ------------------------------ panel quadrature -----------------------------

def start_panels(f_max: float, a: float, b: float) -> int:
    """Panel count of gauss_panels' first pass: two cycles of f_max each."""
    return max(8, int(math.ceil(max(f_max * (b - a), 1.0) / 2.0)))


def gauss_panels(parts, a: float, b: float, f_max: float, tol: float,
                 max_nodes: float):
    """Composite Gauss-Legendre quadrature of named integrands over [a, b].

    parts(centers, offs) returns {name: values} on the nodes
    centers[:, None] + offs[None, :]; offs holds the 8-point offsets, then
    the 12-point ones, so both rules share the per-panel factors and the
    error estimate is nearly free.  Panels start at two cycles of the
    fastest phase f_max and double until the largest GL8-GL12 difference
    is within tol, or raise ConvergenceError past max_nodes nodes.
    Returns ({name: GL12 value}, est_error).
    """
    x8, w8 = gl_rule(8)
    x12, w12 = gl_rule(12)
    n_panels = start_panels(f_max, a, b)
    chunk = 2048
    while True:
        hw = (b - a) / (2.0 * n_panels)
        offs = np.concatenate((x8, x12)) * hw
        sums = {}  # name -> (GL8 sum, GL12 sum)
        for i in range(0, n_panels, chunk):
            centers = a + (2.0 * np.arange(i, min(i + chunk, n_panels)) + 1.0) * hw
            for name, vals in parts(centers, offs).items():
                accs = sums.setdefault(name, (KahanAccumulator(), KahanAccumulator()))
                for acc, p in zip(accs, (vals[:, :8] @ (w8 * hw),
                                         vals[:, 8:] @ (w12 * hw))):
                    acc.add(complex(float(np.sum(p.real)), float(np.sum(p.imag))))
        v12 = {name: acc12.value for name, (_, acc12) in sums.items()}
        err = max(abs(acc12.value - acc8.value) for acc8, acc12 in sums.values())
        _log.debug("gauss panels on [%g, %g]: %d panels, GL8 vs GL12, "
                   "est error %.3e", a, b, n_panels, err)
        if err <= tol:
            return v12, err
        if n_panels * 40 > max_nodes:
            raise ConvergenceError(
                f"panel quadrature stalled at {n_panels} panels "
                f"(est error {err:.3e} > tol {tol:.3e})", best=v12, est_error=err)
        n_panels *= 2


def _product_on_interval(factors, kernel, a: float, b: float, f_max: float,
                         tol: float, max_node_budget: float = 6e8):
    """Quadrature of prod(factors) * kernel over [a, b] with 0 <= a < b.

    Returns (value, est_error).
    """
    if b <= a:
        return 0j, 0.0

    def parts(centers, offs):
        prod = math.prod(f.eval_panels(centers, offs) for f in factors)
        return {"I": prod * kernel(centers[:, None] + offs[None, :])}

    vals, err = gauss_panels(parts, a, b, f_max, tol, max_node_budget)
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
    varpi = inst.varpi

    def kernel(alpha):
        kern = fejer_K(eta, alpha)
        return kern * _cis(frac_phase(varpi, alpha) * TWO_PI)

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
            done[(a, b)] = _product_on_interval(factors, kernel, a, b, f_max,
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

    Returns dict with J1..J4, I_M, and the error estimate.
    """
    arc = arc_params(inst, w.X)
    cut = arc.major[1]
    factors = window_factors(inst, table, w)
    f_max = sum(f.max_freq for f in factors) + abs(inst.varpi) + eta
    lo, hi = w.delta * w.X, w.X
    ks = (1.0, 2.0, inst.k)
    varpi = inst.varpi

    def parts(centers, offs):
        nodes = centers[:, None] + offs[None, :]
        flat = nodes.ravel()
        svals = [f.eval_panels(centers, offs) for f in factors]
        tvals = [eval_T_grid(kj, lo, hi, lam * flat).reshape(nodes.shape)
                 for kj, lam in zip(ks, inst.lambdas)]
        kern = fejer_K(eta, nodes) * _cis(frac_phase(varpi, nodes) * TWO_PI)
        terms = {
            "J1": tvals[0] * tvals[1] * tvals[2],
            "J2": (svals[0] - tvals[0]) * tvals[1] * tvals[2],
            "J3": svals[0] * (svals[1] - tvals[1]) * tvals[2],
            "J4": svals[0] * svals[1] * (svals[2] - tvals[2]),
            "I_M": svals[0] * svals[1] * svals[2],
        }
        # Hermitian symmetry: the full major arc is twice the real part.
        return {name: 2.0 * (vals * kern).real for name, vals in terms.items()}

    vals, err = gauss_panels(parts, 0.0, cut, f_max, tol, 2e8)
    out = {name: v.real for name, v in vals.items()}
    out["est_error"] = err
    out["arc"] = arc
    return out


# ------------------------------ minor-arc pieces -----------------------------

def V(inst: ProblemInstance, table: PrimeTable, w: WindowSpec,
      alpha: float) -> float:
    """min(|S_1(l1 a)|^(1/2), |S_2(l2 a)|) on the common window."""
    lo, hi = w.delta * w.X, w.X
    s1 = abs(eval_S_range(table, 1.0, lo, hi, inst.lambda1 * alpha))
    s2 = abs(eval_S_range(table, 2.0, lo, hi, inst.lambda2 * alpha))
    return min(math.sqrt(s1), s2)


def classify_minor(inst: ProblemInstance, table: PrimeTable, w: WindowSpec,
                   alphas: np.ndarray) -> np.ndarray:
    """True where |S_1|^(1/2) <= |S_2| (first piece of the minor-arc split)."""
    factors = window_factors(inst, table, w)
    s1 = np.abs(factors[0].eval(alphas))
    s2 = np.abs(factors[1].eval(alphas))
    return np.sqrt(s1) <= s2


def bound_vaughan(table: PrimeTable, X: float, alpha: float, a: int,
                  q: int) -> float:
    """|S_1(alpha)| over the dyadic window divided by the classical
    rational-approximation bound (X/sqrt(q) + sqrt(Xq) + X^(4/5)) log^4 X."""
    _check_rational_approx(alpha, a, q)
    s1 = abs(eval_S_range(table, 1.0, X, 2.0 * X, alpha))
    rhs = (X / math.sqrt(q) + math.sqrt(X * q) + X ** 0.8) * math.log(X) ** 4
    return s1 / rhs


def bound_ghosh(table: PrimeTable, X: float, alpha: float, a: int, q: int,
                eps: float = 0.05) -> float:
    """|S_2(alpha)| over the dyadic window divided by
    X^(1/2+eps) (1/q + X^(-1/4) + q/X)^(1/4)."""
    _check_rational_approx(alpha, a, q)
    s2 = abs(eval_S_range(table, 2.0, X, 2.0 * X, alpha))
    rhs = X ** (0.5 + eps) * (1.0 / q + X ** -0.25 + q / X) ** 0.25
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


def _sliced_tail(freqs: np.ndarray, coeffs: np.ndarray, n0: int, tol: float,
                 max_slices: int) -> tuple[float, int]:
    """sum_{n >= n0} (n-1)^-2 int_{n-1}^{n} |sum c e(f a)|^2 da.

    Each unit-interval integral has the closed form
    M + sum_pairs 2 c_i c_j cos(2 pi d (n - 1/2)) sin(pi d)/(pi d),
    so the whole tail is a cosine series over the pair differences;
    the remainder past N is bounded by (M + sum|pair terms|) * psi1(N-1).
    """
    freqs = np.asarray(freqs, dtype=np.float64)
    coeffs = np.asarray(coeffs, dtype=np.float64)
    m_diag = float(np.dot(coeffs, coeffs))
    iu, ju = np.triu_indices(len(freqs), k=1)
    d = freqs[iu] - freqs[ju]
    small = np.abs(d) < 1e-300
    d_safe = np.where(small, 1.0, d)
    kern = np.where(small, 1.0, np.sin(math.pi * d_safe) / (math.pi * d_safe))
    kpair = 2.0 * coeffs[iu] * coeffs[ju] * kern
    keep = np.abs(kpair) > 1e-17 * max(m_diag, 1e-300)
    d, kpair = d[keep], kpair[keep]
    osc_bound = float(np.sum(np.abs(kpair)))
    td = TWO_PI * d
    total = KahanAccumulator()
    n = max(n0, 2)
    used = 0
    block = 4096
    while True:
        remaining = (m_diag + osc_bound) * float(polygamma(1, n - 1))
        if remaining < tol:
            return total.value, used
        if used >= max_slices:
            raise ConvergenceError(
                f"tail slicing budget exceeded after {used} slices "
                f"(remaining bound {remaining:.3e})", best=total.value,
                est_error=remaining)
        ns = np.arange(n, n + block, dtype=np.float64)
        vals = np.full(len(ns), m_diag)
        if len(d):
            # d (n - 1/2) reduced at the block's first slice, as in
            # eval_panels; the block's rows go in slices of about 2^20 phases
            anchor = frac_phase(d, n - 0.5) * TWO_PI
            rows = max(1, (1 << 20) // len(d))
            for j in range(0, block, rows):
                phase = np.multiply.outer(ns[j:j + rows] - n, td)
                phase += anchor
                vals[j:j + rows] += np.cos(phase, out=phase) @ kpair
        total.add(float(np.sum(vals / (ns - 1.0) ** 2)))
        n += block
        used += block


def trivial_tails(inst: ProblemInstance, table: PrimeTable, w: WindowSpec,
                  R: float, tol: float = 1.0,
                  max_slices: int = 300000) -> TailReport:
    """Majorants of the three tail integrals beyond the trivial-arc cut.

    A slices |S_1(a)|^2 / a^2 from |l1| R, B does |S_2|^4, C does |S_k|^2,
    each by unit intervals weighted (n-1)^-2, exactly per slice, until the
    remainder bound drops below tol.
    """
    if R <= 1:
        raise ValidationError("trivial_tails needs R > 1")
    lo, hi = w.delta * w.X, w.X
    X, k = w.X, inst.k
    specs = []
    for lam, kj, fourth in ((inst.lambda1, 1.0, False),
                            (inst.lambda2, 2.0, True),
                            (inst.lambda3, k, False)):
        ps, logs = prime_window(table, kj, lo, hi)
        freqs = np.asarray(powk_extended(ps, kj), dtype=np.float64)
        if fourth:
            freqs, coeffs = expand_square(freqs, logs)
        else:
            coeffs = logs
        specs.append((abs(lam), freqs, coeffs))
    values, starts, slices = [], [], []
    for lam, freqs, coeffs in specs:
        n0 = max(2, math.ceil(lam * R))
        val, used = _sliced_tail(freqs, coeffs, n0, tol, max_slices)
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
                 eta: float, arc: ArcParams | None = None):
    """Kernel-weighted minor-arc L2 majorants with their comparators.

    For each of |S_1(l1 a)|^2, |S_2(l2 a)|^4, |S_k(l3 a)|^2 integrates the
    kernel majorant min(eta^2, 1/(pi a)^2) over the positive minor arc:
    exactly on [P/X, cut] with weight eta^2, then by unit slices with
    weight 1/(pi floor(a))^2 up to R.  Comparators: eta X log^j X for
    j = 1, 2 and eta X^(1/k) log^3 X.
    """
    if arc is None:
        arc = arc_params(inst, w.X)
    a0 = arc.major[1]
    R = arc.R
    X, k = w.X, inst.k
    rows = []
    for f, fourth, comp in zip(
            window_factors(inst, table, w), (False, True, False),
            (eta * X * math.log(X), eta * X * math.log(X) ** 2,
             eta * X ** (1.0 / k) * math.log(X) ** 3)):
        freqs, coeffs = f.freqs, f.weights
        if fourth:
            freqs, coeffs = expand_square(freqs, coeffs)
        cut = min(R, max(a0, 1.0 / eta))
        value = eta * eta * exp_pair_integral(freqs, coeffs, a0, cut)
        a = cut
        while a < R:
            b = min(math.floor(a) + 1.0, R)
            if b <= a:
                b = min(a + 1.0, R)
            value += exp_pair_integral(freqs, coeffs, a, b) / (math.pi * a) ** 2
            a = b
        rows.append({"value": value, "comparator": comp,
                     "ratio": value / comp if comp > 0 else math.inf})
    return rows
