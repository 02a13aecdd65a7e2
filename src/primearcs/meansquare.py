"""Mean-square integrals of prime-counting errors in short intervals,
with the truncated L2 integral that links them to exponential sums.

Everything here is an integral of (step - smooth)^2 over an x-range,
mostly [X, 2X], where the step part only changes at k-th powers of primes
(or prime powers).  Between breakpoints the step part is constant, and a
piece takes one of two rules (see _piecewise_square).  An affine smooth
part c0 + c1 x (k = 1 in selberg_J and selberg_J_relative, whose
substituted form is always at k = 1, and 0 in theta_psi_discrepancy) is
integrated in closed form.  Any other smooth part is analytic off
(-inf, 0]; with gaps cut to 1/64 of the range, a 6-point Gauss rule per
piece, run node by node over all pieces, is exact to rounding.  The
breakpoints come in runs, one per end and PrimeTable.jumps table (theta;
psi - theta; both for psi), and the step on a piece is counted from
them: each run's F value after its crossings below the midpoint, with no
root or search.  Only the q whose k-th powers can fall inside the
x-range are powered, in float64 with an exact fallback
(numutil.powk_float64).
"""

from __future__ import annotations

import logging
import math
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .circle import ExpSumFactor, gauss_panels, gl12_panels
from .errors import ValidationError
from .expsums import WindowSpec, s_minus_u_weights
from .numutil import exp_pair_integral, gl_rule, powk_float64
from .primes import PrimeTable

PAIRWISE_CAP = 20_000  # max window size for the O(N^2) exact method
# _piecewise_square: Gauss nodes per piece, and pieces per x-range at least
PIECE_GL, MAX_PIECES_FRAC = 6, 64
# Huxley's zero-density exponent C: the unconditional comparator holds for
# X^(1 - 2/(C k)) <= h <= X
C_DENSITY = 12 / 5
_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class MeanSquareQuery:
    """One mean-square request: exactly one of h, rel_delta, Y is set."""

    X: float
    k: float
    h: float | None = None
    rel_delta: float | None = None
    Y: float | None = None
    use_psi: bool = False
    rh_mode: bool = False

    def __post_init__(self):
        if not self.X >= 2:
            raise ValidationError("MeanSquareQuery: X must be >= 2")
        if not self.k > 0:
            raise ValidationError("MeanSquareQuery: k must be positive")
        given = [v is not None for v in (self.h, self.rel_delta, self.Y)]
        if sum(given) != 1:
            raise ValidationError(
                "exactly one of h, rel_delta, Y must be given")
        if self.Y is not None and not 0 < self.Y <= 0.5:
            raise ValidationError("Y must lie in (0, 1/2]")


@dataclass(frozen=True)
class MeanSquareReport:
    value: float
    comparator: float
    ratio: float
    method: str
    note: str = ""
    substituted: float | None = None
    est_error: float | None = None  # the L2 grid's estimate; None if exact


# --------------------------- piecewise machinery -----------------------------

def _breakpoints(table: PrimeTable, k: float, x_lo: float, x_hi: float,
                 shift: float = 0.0, factor: float = 1.0,
                 tables: tuple[bool, ...] = (False,),
                 counts: Counter | None = None):
    """Where F(x^(1/k)) (end 0) and F((x*factor + shift)^(1/k)) (end 1)
    jump in (x_lo, x_hi), F the sum of the tables (PrimeTable.jumps, proper
    or not): at x = q^k and (q^k - shift)/factor, from one powering of the
    q from one below the smaller range's lower root up.  Returns them and
    a run (end, F from its crossings at or below x_lo on, the view of the
    breakpoints holding its crossings) per table and end.  Refuses
    (PrimeTable.require) a table short of the larger upper end.  Adds the
    q powered and those powk_float64 left to powk_extended to counts.
    """
    ends = (x_lo, x_lo * factor + shift, x_hi, x_hi * factor + shift)
    table.require(k, max(ends[2:]), "mean square")
    root = max(ends[2:]) ** (1.0 / k)
    lo = math.floor(min(ends[:2]) ** (1.0 / k)) - 1
    parts, runs = [], []
    for proper in tables:
        qs, F = table.jumps(lo, min(float(table.limit), root + 1), proper)
        qk, exact = powk_float64(qs, k)
        if counts is not None:
            counts.update(powered=len(qs), exact=exact)
        for end, x in enumerate((qk, (qk - shift) / factor)):
            c = np.searchsorted(x, x_lo, side="right")
            parts.append(x[c:np.searchsorted(x, x_hi)])
            runs.append((end, F[c:]))
    bkpts = np.concatenate(parts)
    views = np.split(bkpts, np.cumsum([len(x) for x in parts[:-1]]))
    return bkpts, [(end, F, xs) for (end, F), xs in zip(runs, views)]


def _piecewise_square(step_fn, smooth, bkpts: np.ndarray,
                      x_lo: float, x_hi: float) -> float:
    """int_{x_lo}^{x_hi} (step_fn(x) - smooth(x))^2 dx.

    step_fn must be constant between consecutive breakpoints and is
    called once, on all midpoints.  Gaps longer than 1/MAX_PIECES_FRAC of
    the range are cut, so on [X, 2X] a piece [a, b] has b - a <= a/64.
    smooth is one of two forms, and each takes its own piece rule:

    - a pair (c0, c1), the affine smooth part c0 + c1 x: a piece of width
      w and midpoint m, where the step is d, integrates in closed form to
      w ((d - c0 - c1 m)^2 + c1^2 w^2 / 12), with no Gauss node.
    - a vectorized callable, called once per Gauss node on all pieces: a
      6-point Gauss rule.  The integrand is analytic off (-inf, 0], so the
      n-point rule errs by about rho^(-2n) with rho ~ 4a/(b - a) >= 256.
      6 nodes also hold rounding on ranges that start near 0: on
      (3, 1000) at k = 1.3, h = 40, 4 nodes err 1.5e-11, 5 nodes 9.6e-14,
      6 nodes 6e-16.
    """
    edges = np.unique(np.concatenate((bkpts, [x_lo, x_hi])))
    edges = edges[(edges >= x_lo) & (edges <= x_hi)]
    # merge nearly-identical breakpoints (width below rounding resolution)
    keep = np.concatenate(([True], np.diff(edges) > 1e-12 * max(1.0, x_hi)))
    edges = edges[keep]
    if edges[-1] != x_hi:
        edges = np.append(edges, x_hi)
    max_len = (x_hi - x_lo) / MAX_PIECES_FRAC
    long = np.flatnonzero(np.diff(edges) > max_len)
    cuts = [np.linspace(a, b, math.ceil((b - a) / max_len) + 1)[1:-1]
            for a, b in zip(edges[long], edges[long + 1])]
    cuts = np.concatenate([np.empty(0)] + cuts)
    edges = np.insert(edges, np.searchsorted(edges, cuts), cuts)
    half = 0.5 * np.diff(edges)
    mids = edges[:-1] + half
    d = step_fn(mids)
    if not callable(smooth):
        c0, c1 = smooth
        sq = d - c0
        sq -= c1 * mids
        sq *= sq
        sq += (c1 * half) ** 2 / 3.0  # c1^2 w^2 / 12 with w = 2 half
        return 2.0 * float(np.dot(sq, half))
    acc = np.zeros_like(mids)
    for x_j, w_j in zip(*gl_rule(PIECE_GL)):
        acc += w_j * (d - smooth(mids + half * x_j)) ** 2
    return float(np.dot(acc, half))


def _increment_square(table: PrimeTable, k: float, smooth, x_lo: float,
                      x_hi: float, shift: float = 0.0, factor: float = 1.0,
                      tables: tuple[bool, ...] = (False,)) -> float:
    """int_{x_lo}^{x_hi} (F((x*factor+shift)^(1/k)) - F(x^(1/k)) - smooth(x))^2 dx
    for F the sum of the tables (_breakpoints), smooth in either form of
    _piecewise_square.  On a piece each run's F is the entry at its count
    of crossings below the midpoint, so the step is constant between
    breakpoints by construction.  Logs one DEBUG line: the pieces, the
    piece rule, the q powered, those powered by powk_extended, and the
    seconds taken."""
    start = time.perf_counter()
    counts = Counter()
    bkpts, runs = _breakpoints(table, k, x_lo, x_hi, shift, factor, tables,
                               counts)

    def step(mids):
        counts["pieces"] = len(mids)
        d = np.zeros((2, len(mids)))
        for end, F, xs in runs:
            d[end] += F[np.searchsorted(xs, mids)]
        return d[1] - d[0]

    value = _piecewise_square(step, smooth, bkpts, x_lo, x_hi)
    _log.debug("mean square on [%r, %r]: %d pieces, %s, %d powered, "
               "%d by powk_extended, %.3g s", x_lo, x_hi, counts["pieces"],
               f"{PIECE_GL}-point Gauss" if callable(smooth)
               else "affine closed form", counts["powered"], counts["exact"],
               time.perf_counter() - start)
    return value


def _report(value, comparator, note="", method="piecewise-exact", **extra):
    return MeanSquareReport(value, comparator,
                            value / comparator if comparator > 0 else math.inf,
                            method, note, **extra)


# ------------------------------- operations ----------------------------------

def selberg_J(table: PrimeTable, q: MeanSquareQuery) -> MeanSquareReport:
    """J_k(X, h) = int_X^2X (F((x+h)^(1/k)) - F(x^(1/k)) - drift)^2 dx.

    F is theta (or psi when the query says so) and drift is the smooth
    increment (x+h)^(1/k) - x^(1/k).  The comparator follows the
    conditional / unconditional short-interval bound selected by rh_mode.
    """
    if q.h is None:
        raise ValidationError("selberg_J needs an additive increment h")
    if not q.h >= 0:
        raise ValidationError("h must be nonnegative")
    X, k, h = q.X, q.k, q.h
    rt = 1.0 / k

    def smooth(x):
        return (x + h) ** rt - x ** rt

    value = _increment_square(table, k, (h, 0.0) if k == 1.0 else smooth,
                              X, 2.0 * X, h, 1.0,
                              (False, True) if q.use_psi else (False,))
    return _report(value, *_short_interval_comparator(q))


def _short_interval_comparator(q: MeanSquareQuery) -> tuple[float, str]:
    X, k = q.X, q.k
    h = q.h if q.h is not None else q.rel_delta * X
    if h <= 0:
        return 0.0, "degenerate increment"
    if q.rh_mode:
        comp = h * X ** (1.0 / k) * math.log(2.0 * X / h) ** 2
        lo = X ** (1.0 - 1.0 / k)
    else:
        log_log = math.log(math.log(X))
        if log_log <= 0:  # X <= e: the decay factor is undefined
            return 0.0, "comparator-out-of-range"
        decay = math.exp(-((math.log(X) / log_log) ** (1.0 / 3.0)))
        comp = h * h * X ** (2.0 / k - 1.0) * decay
        lo = X ** (1.0 - 2.0 / (C_DENSITY * k))
    note = "" if lo <= h <= X else "comparator-out-of-range"
    return comp, note


def theta_psi_discrepancy(table: PrimeTable, q: MeanSquareQuery) -> MeanSquareReport:
    """Mean square of the proper-prime-power mass difference
    (psi - theta)((x+h)^(1/k)) - (psi - theta)(x^(1/k)).
    """
    X, k = q.X, q.k
    if q.Y is not None:
        raise ValidationError("theta_psi_discrepancy takes h or rel_delta")
    relative = q.rel_delta is not None
    h = q.rel_delta if relative else q.h
    if h is None or h < 0:
        raise ValidationError("increment must be nonnegative")
    factor = 1.0 + h if relative else 1.0
    shift = 0.0 if relative else h
    value = _increment_square(table, k, (0.0, 0.0), X, 2.0 * X,
                              shift, factor, (True,))
    comparator = (h * X ** (1.0 / k + 1.0)) if relative else (h * X ** (1.0 / k))
    return _report(value, comparator)


def selberg_J_relative(table: PrimeTable, q: MeanSquareQuery) -> MeanSquareReport:
    """Relative-increment variant: increment delta*x instead of h.

    Also evaluates the k = 1 substituted form X^(1-1/k) * Jtilde(X^(1/k),
    Delta) with Delta = (1+delta)^(1/k) - 1, reported in ``substituted``
    (the two agree up to a k-dependent constant, not exactly).
    """
    if q.rel_delta is None:
        raise ValidationError("selberg_J_relative needs rel_delta")
    if not 0 <= q.rel_delta <= 1:
        raise ValidationError("rel_delta must lie in [0, 1]")

    def value(X, k, delta):
        rt = 1.0 / k
        fac = 1.0 + delta
        big_delta = fac ** rt - 1.0

        def smooth(x):
            return big_delta * x ** rt

        return _increment_square(table, k,
                                 (0.0, big_delta) if k == 1.0 else smooth,
                                 X, 2.0 * X, 0.0, fac,
                                 (False, True) if q.use_psi else (False,))

    X, rt = q.X, 1.0 / q.k
    plain = value(X, q.k, q.rel_delta)
    inner = value(X ** rt, 1.0, (1.0 + q.rel_delta) ** rt - 1.0)
    return _report(plain, *_short_interval_comparator(q),
                   substituted=X ** (1.0 - rt) * inner)


# ------------------------------ truncated L2 ---------------------------------

def l2_diff(table: PrimeTable, w: WindowSpec, Y: float,
            method: str = "auto") -> MeanSquareReport:
    """int_{-Y}^{Y} |S_k(alpha) - U_k(alpha)|^2 d alpha.

    pairwise-exact expands the square into closed-form pair terms (refused
    above PAIRWISE_CAP window integers); grid runs the Gauss panel driver
    shared with the arc integrals (circle.gauss_panels).  auto takes the
    method with less work: pairwise costs N(N-1)/2 pair terms, the grid
    12 nodes per a priori panel (_l2_grid) for each of the N frequencies.
    The comparator is the three-term truncated-L2 bound with unit
    constants, its short-interval integral computed by selberg_J.
    """
    if not 0 < Y <= 0.5:
        raise ValidationError("Y must lie in (0, 1/2]")
    win, coeffs = s_minus_u_weights(table, w)
    factor, n = ExpSumFactor(win.powers[0], coeffs), len(win.values)
    if method == "auto":
        cheaper = n < 2 or (n - 1) / 2.0 <= 12 * gl12_panels(
            0.0, Y, *_l2_spectrum(factor, Y))[0]
        method = "pairwise-exact" if n <= PAIRWISE_CAP and cheaper else "grid"
    if method == "pairwise-exact":
        if n > PAIRWISE_CAP:
            raise ValidationError(
                f"pairwise method refused for {n} > {PAIRWISE_CAP} integers")
        value, est_error = exp_pair_integral(*factor, -Y, Y), None
    elif method == "grid":
        value, est_error = _l2_grid(factor, Y)
    else:
        raise ValidationError(f"unknown method {method!r}")
    comparator = _truncated_l2_comparator(table, w, Y)
    return _report(value, comparator, method=method, est_error=est_error)


def _l2_spectrum(factor: ExpSumFactor, Y: float):
    """(f_max, mass, tol) of |S|^2 on [0, Y]: the frequency spread, (sum
    |c|)^2, and 1e-9 of the diagonal (Parseval) term 2Y sum c^2."""
    return (float(np.ptp(factor.freqs)), factor.mass ** 2,
            2e-9 * Y * float(np.dot(factor.weights, factor.weights)))


def _l2_grid(factor: ExpSumFactor, Y: float) -> tuple[float, float]:
    """2 * int_0^Y |sum c_j e(f_j a)|^2 da by gauss_panels on _l2_spectrum,
    whose bound fixes the panel count, so no node budget applies.  Returns
    the value and the driver's error estimate, both doubled."""
    if len(factor.freqs) == 0:
        return 0.0, 0.0

    def parts(centers, offs):
        s = factor.eval_panels(centers, offs)
        return {"L2": s.real ** 2 + s.imag ** 2}

    vals, err = gauss_panels(parts, 0.0, Y, *_l2_spectrum(factor, Y),
                             math.inf)
    return 2.0 * vals["L2"].real, 2.0 * err


def _truncated_l2_comparator(table: PrimeTable, w: WindowSpec, Y: float) -> float:
    X, k = w.X, w.k
    h = 1.0 / (2.0 * Y)
    jq = MeanSquareQuery(X=X, k=k, h=h)
    j_val = selberg_J(table, jq).value
    return (X ** (2.0 / k - 2.0) * math.log(X) ** 2 / Y
            + Y * Y * X + Y * Y * j_val)
