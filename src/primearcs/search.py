"""Enumeration of prime triples satisfying the target inequality.

find_solutions joins the three prime windows of expsums.window (p1, p2
and p3 with p_j^(k_j) in the range, their powers as double-double
(hi, lo) pairs, ascending) by solving for p1, in which the inequality is
linear: each (p2, p3) pair gives the integers in the threshold band of
the solving p1, and a bitmap of the p1 window keeps the primes among
them.  Those candidates are re-checked with a double-double residual,
so near-threshold classifications are stable and completeness follows
from the band, not from a guard.  A solution record is the (p1, p2, p3,
residual) row that ``primearcs search`` writes.  brute_force_solutions is
the exhaustive triple loop used as the completeness oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import expsums
from .circle import ProblemInstance, eta_exponent
from .errors import ValidationError
from .numutil import dd_from_longdouble, powk_extended, two_prod, two_sum
from .primes import PrimeTable

_BLOCK = 1 << 14  # (p2, p3) pairs joined at a time: bounds the working set
_SLACK_MARGIN = 2.0 ** 10  # find_solutions' band slack over _band_error_bound


class SolutionRecord(NamedTuple):
    """One triple within the threshold and its double-double residual."""

    p1: int
    p2: int
    p3: int
    residual: float


@dataclass(frozen=True)
class SearchReport:
    """count: triples within the threshold (the join's hits); records: the
    smallest of them in ascending (p1, p2, p3) order, the search CSV's rows;
    truncated: records holds fewer than count; pairs: (p2, p3) pairs joined;
    candidates: prime p1 values whose residual was re-checked.  An empty
    variable window gives count 0 and no records."""
    X: float
    threshold: float
    count: int
    records: tuple[SolutionRecord, ...]
    truncated: bool = False
    pairs: int = 0
    candidates: int = 0


def _window_bounds(inst: ProblemInstance, X: float,
                   window: str) -> tuple[float, float]:
    if window == "delta":
        return inst.delta * X, X
    if window == "dyadic":
        return X, 2.0 * X
    raise ValidationError(f"unknown window {window!r}")


def _residual_arrays(l1: float, p1, l2: float, p2sq: np.ndarray,
                     l3: float, nk_hi: np.ndarray, nk_lo: np.ndarray,
                     varpi: float) -> np.ndarray:
    """lambda1 p1 + lambda2 p2^2 + lambda3 n^k + varpi in double-double."""
    s, e = two_prod(l2, p2sq)
    t, te = two_prod(l3, nk_hi)
    te = te + l3 * nk_lo
    hi, lo = two_sum(s, t)
    c, ce = two_prod(l1, p1)
    c, ve = two_sum(c, varpi)
    hi2, lo2 = two_sum(hi, c)
    return hi2 + (lo + e + te + ce + ve + lo2)


def _band_centres(l1: float, l2: float, l3: float, varpi: float,
                  p2sq: np.ndarray, p3k_hi: np.ndarray):
    """(q2, q3): p1 = q2_i + q3_j solves lambda1 p1 + lambda2 p2_i^2 +
    lambda3 p3_j^k + varpi = 0, in float64."""
    return -(l2 * p2sq + varpi) / l1, -(l3 / l1) * p3k_hi


def _band_error_bound(l1: float, l2: float, l3: float, varpi: float,
                      hi: float, width: float) -> float:
    """10 2^-53 (S + width), a bound on |fl(c -/+ width) - (c_exact -/+
    width)| for c = q2 + q3 of _band_centres.  S = ((|l2| + |l3|) hi +
    |varpi|)/|l1| bounds |c| and its terms, so each of ten roundings errs
    by at most 2^-53 (S + width): l2 p2^2, + varpi and / l1; l3 / l1 and
    its product; p2^2 and p3^k to float64; the extended p3^k (a few
    2^-64); q2 + q3; c -/+ width.  Second-order terms are left out."""
    size = ((abs(l2) + abs(l3)) * hi + abs(varpi)) / abs(l1) + width
    return 10 * 2.0 ** -53 * size


def admissible_threshold(inst: ProblemInstance, X: float) -> float:
    """X^(-(33-29k)/(72k) + eps): the admissible width at the window top.

    Using X rather than max_j p_j gives the smallest (hardest) width a
    solution in the window must meet.
    """
    return X ** eta_exponent(inst.k, inst.eps)


def find_solutions(inst: ProblemInstance, table: PrimeTable, X: float,
                   threshold: float, cap: int = 1 << 20,
                   window: str = "delta") -> SearchReport:
    """Complete enumeration of triples with |residual| <= threshold.

    p1 runs over primes with p1 in the window, p2 over primes with p2^2
    in it, p3 over primes with p3^k in it.  Each (p2, p3) pair is joined
    to the integers within threshold/|lambda1|, widened by a rounding
    slack, of c = -(lambda2 p2^2 + lambda3 p3^k + varpi)/lambda1; only
    the primes of the p1 window among them get the double-double residual.
    Ties at the threshold count as solutions.  Records come in ascending
    (p1, p2, p3) order, so a capped report keeps the cap smallest triples.
    """
    if threshold < 0 or cap < 0:
        raise ValidationError("threshold and cap must be nonnegative")
    lo, hi = _window_bounds(inst, X, window)
    k = inst.k
    l1, l2, l3, varpi = inst.lambda1, inst.lambda2, inst.lambda3, inst.varpi
    (p1s, _, _), (p2s, (p2sq, _), _), (p3s, (p3k_hi, p3k_lo), _) = (
        expsums.window(kj, lo, hi, table) for kj in (1.0, 2.0, k))
    if len(p1s) == 0 or len(p2s) == 0 or len(p3s) == 0:
        return SearchReport(X, threshold, 0, ())
    # a slack of _SLACK_MARGIN times the band ends' rounding bound, about
    # 1.1e-12 (S + width), keeps every triple within the threshold a candidate
    width = threshold / abs(l1)
    width += _SLACK_MARGIN * _band_error_bound(l1, l2, l3, varpi, hi, width)
    p1_min, p1_max = int(p1s[0]), int(p1s[-1])
    is_p1 = np.zeros(p1_max - p1_min + 1, dtype=bool)
    is_p1[p1s - p1_min] = True
    # c = q2 + q3 for (p2, p3).  A tile holds at most _BLOCK pairs, fewer at
    # a wide threshold, so that its ranges hold at most 16 _BLOCK integers
    q2, q3 = _band_centres(l1, l2, l3, varpi, p2sq, p3k_hi)
    n2, n3 = len(p2s), len(p3s)
    tile = int(max(1, min(_BLOCK, 16 * _BLOCK // (2 * width + 1))))
    cols, rows = min(n3, tile), max(1, tile // n3)
    hits, candidates = [], 0
    for r0 in range(0, n2, rows):
        for j0 in range(0, n3, cols):
            c = q2[r0:r0 + rows, None] + q3[j0:j0 + cols]
            a = c - width
            np.ceil(a, out=a)  # the pair's integers: a ... floor(c + width)
            np.floor(np.add(c, width, out=c), out=c)
            live = np.flatnonzero((a <= c) & (a <= p1_max) & (c >= p1_min))
            a = np.maximum(a.take(live), p1_min).astype(np.int64)
            n = np.minimum(c.take(live), p1_max).astype(np.int64) - a + 1
            pair = np.repeat(np.arange(len(live)), n)
            p1 = np.arange(len(pair)) + (a + n - np.cumsum(n))[pair]
            keep = np.nonzero(is_p1[p1 - p1_min])[0]
            p1, f = p1[keep], live[pair[keep]]
            i2, j3 = r0 + f // c.shape[1], j0 + f % c.shape[1]
            res = _residual_arrays(l1, p1.astype(np.float64), l2, p2sq[i2],
                                   l3, p3k_hi[j3], p3k_lo[j3], varpi)
            good = np.abs(res) <= threshold
            candidates += len(p1)
            hits.append((p1[good], p2s[i2[good]], p3s[j3[good]], res[good]))
    p1, p2, p3, res = (np.concatenate(h) for h in zip(*hits))
    order = np.lexsort((p3, p2, p1))[:cap]
    records = tuple(map(SolutionRecord._make,
                        zip(*(x[order].tolist() for x in (p1, p2, p3, res)))))
    return SearchReport(X, threshold, len(p1), records, len(p1) > cap,
                        pairs=n2 * n3, candidates=candidates)


def brute_force_solutions(inst: ProblemInstance, table: PrimeTable, X: float,
                          threshold: float,
                          window: str = "delta") -> SearchReport:
    """Exhaustive triple loop; the completeness oracle for find_solutions."""
    if X > 10**4:
        raise ValidationError("brute force is guarded to X <= 10^4")
    lo, hi = _window_bounds(inst, X, window)
    k = inst.k
    p1s = table.primes_in_range(max(2.0, lo), hi)
    p2s = table.primes_in_range(max(2.0, math.sqrt(lo)), math.sqrt(hi))
    p3s_all = table.primes_in_range(2.0, hi ** (1.0 / k) + 2)
    p3k = powk_extended(p3s_all, k)
    inside = (p3k >= lo) & (p3k <= hi)
    p3s = p3s_all[np.asarray(inside)]
    p3k = p3k[inside]
    nk_hi_f, nk_lo_f = dd_from_longdouble(p3k)
    records = []
    for p1 in p1s.tolist():
        for j2, p2 in enumerate(p2s.tolist()):
            p2sq = np.full(len(p3s), float(p2) ** 2)
            res = _residual_arrays(inst.lambda1, float(p1), inst.lambda2,
                                   p2sq, inst.lambda3, nk_hi_f, nk_lo_f,
                                   inst.varpi)
            good = np.abs(res) <= threshold
            for j in np.nonzero(good)[0]:
                records.append(SolutionRecord(p1, p2, int(p3s[j]),
                                              float(res[j])))
    records.sort()
    return SearchReport(X, threshold, len(records), tuple(records))


def weighted_solution_sum(inst: ProblemInstance, table: PrimeTable, X: float,
                          eta: float) -> float:
    """sum over triples of log p1 log p2 log p3 * max(0, eta - |residual|).

    This is the exact value the counting integral converges to as its
    truncation grows; the enumeration side of that identity.
    """
    rep = find_solutions(inst, table, X, eta, cap=1 << 24)
    total = 0.0
    for r in rep.records:
        total += (math.log(r.p1) * math.log(r.p2) * math.log(r.p3)
                  * max(0.0, eta - abs(r.residual)))
    return total
