"""The four workloads: inputs drawn from the seed, the jobs that call
primearcs, and each job's check against ``oracles``.

A job's ``run`` makes the call the matching CLI subcommand makes and
nothing else, so the timed phase holds only program work; ``value``
turns its output into plain numbers, and ``check`` returns the problems
it finds in them (an empty list when the output is correct).  Every
module function is looked up on its module at call time, so the trace
can wrap it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import oracles
from primearcs import circle, expsums, meansquare, search
from primearcs.circle import ProblemInstance
from primearcs.expsums import WindowSpec
from primearcs.meansquare import MeanSquareQuery

SQRT2 = math.sqrt(2.0)


@dataclass
class Job:
    name: str
    run: Callable[[], Any]
    value: Callable[[Any], Any]
    check: Callable[[Any], list]


class References:
    """Oracle prime tables, built once per process when a check needs one."""

    def __init__(self):
        self._primes: dict[int, oracles.Primes] = {}

    def primes(self, limit: int) -> oracles.Primes:
        if limit not in self._primes:
            self._primes[limit] = oracles.Primes(limit)
        return self._primes[limit]


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _cplx(z) -> tuple[float, float]:
    return (float(z.real), float(z.imag))


# --------------------------------- search ------------------------------------

SEARCH_X = 1e5          # the criterion 11 instance
SEARCH_RANDOM_X = 2e4   # the seeded instances
SEARCH_RANDOM = 4
SEARCH_DELTA = 0.1
SEARCH_TABLE_LIMIT = 2 * int(SEARCH_X)


def _draw_search_instance(rng: random.Random):
    """Coefficients, k, varpi and threshold drawn as acceptance criterion 5
    draws them."""
    lam = [rng.choice([-1, 1]) * rng.uniform(0.4, 3.0) for _ in range(3)]
    if all(v > 0 for v in lam) or all(v < 0 for v in lam):
        lam[2] = -lam[2]
    k = rng.uniform(1.0, 1.3)
    varpi = rng.uniform(-2.0, 2.0)
    thr = rng.uniform(0.0, 0.5)
    return tuple(lam), k, varpi, thr


def _reaches_every_p1(primes: oracles.Primes, lams, varpi: float, thr: float,
                      lo: float, hi: float) -> bool:
    """True when for every p1 of the window some p2 leaves a value of
    lambda3 p3^k within the threshold band inside the window."""
    l1, l2, l3 = lams
    p1 = primes.in_range(lo, hi).astype(np.float64)
    p2 = primes.in_range(math.sqrt(lo), math.sqrt(hi)).astype(np.float64)
    t = -(l1 * p1[:, None] + l2 * p2[None, :] ** 2 + varpi) / l3
    band = thr / abs(l3)
    return bool(np.all(np.any((t + band >= lo) & (t - band <= hi), axis=1)))


def search_jobs(rng: random.Random, table, refs: References) -> list[Job]:
    specs = [("criterion11", SEARCH_X, (1.0, -SQRT2, -1.0), 1.05, 0.0, 0.1)]
    primes = refs.primes(SEARCH_TABLE_LIMIT)
    X = SEARCH_RANDOM_X
    draws = 0
    while len(specs) < 1 + SEARCH_RANDOM:
        draws += 1
        if draws > 10_000:
            raise RuntimeError("no instance reaching every p1 in 10000 draws")
        lams, k, varpi, thr = _draw_search_instance(rng)
        # keep the work of a round independent of the seed: an instance
        # that leaves most p1 without a candidate pair costs a fraction
        # of one that reaches them all
        if _reaches_every_p1(primes, lams, varpi, thr, SEARCH_DELTA * X, X):
            specs.append((f"random{len(specs)}", X, lams, k, varpi, thr))
    jobs = []
    for name, X, lams, k, varpi, thr in specs:
        inst = ProblemInstance(*lams, k=k, varpi=varpi, delta=SEARCH_DELTA)
        jobs.append(Job(
            f"find_solutions.{name}",
            lambda inst=inst, X=X, thr=thr: search.find_solutions(
                inst, table, X, thr, cap=1 << 24),
            lambda rep: (rep.count, rep.truncated,
                         tuple((r.p1, r.p2, r.p3, r.residual) for r in rep.records)),
            lambda v, X=X, lams=lams, k=k, varpi=varpi, thr=thr: _check_search(
                v, refs.primes(SEARCH_TABLE_LIMIT), lams, k, varpi, thr,
                SEARCH_DELTA * X, X)))
    return jobs


def _check_search(v, primes, lams, k, varpi, thr, lo, hi) -> list[str]:
    count, truncated, records = v
    problems = []
    if truncated or count != len(records):
        problems.append(f"count {count} with {len(records)} records, "
                        f"truncated={truncated}")
    want = oracles.enumerate_triples(primes, lams, k, varpi, lo, hi, thr)
    got = {r[:3] for r in records}
    if count != len(want) or got != set(want):
        problems.append(f"count {count} vs enumeration {len(want)}; "
                        f"missing {sorted(set(want) - got)[:3]}, "
                        f"extra {sorted(got - set(want))[:3]}")
    problems += oracles.check_search_records(primes, lams, k, varpi, lo, hi,
                                             thr, records)
    return problems


# ---------------------------------- arcs -------------------------------------

ARCS_X = 500.0          # criterion 6 scale: integrate_I, minor arcs, tails
ARCS_MAJOR_X = 100.0    # major_arc_split (about 26 s at X = 500)
ARCS_ETA = 0.5
ARCS_TRUNCATION = 50.0
ARCS_I_TOL = 0.2        # criterion 6
ARCS_MAJOR_TOL = 1e-3   # criterion 7
ARCS_TAIL_TOL = 1.0     # the arcs subcommand's default --tol times 1e3
ARCS_TABLE_LIMIT = 2 * int(ARCS_X)


def _window_primes(primes: oracles.Primes, inst, w):
    """(lambda, k_j, primes, log weights) of the three factors on the
    common window delta X <= p^k_j <= X."""
    out = []
    for lam, kj in zip(inst.lambdas, (1.0, 2.0, inst.k)):
        ps = oracles.kth_power_window(primes, kj, w.delta * w.X, w.X)
        out.append((lam, kj, ps, np.log(ps.astype(np.float64))))
    return out


def arcs_jobs(rng: random.Random, table, refs: References) -> list[Job]:
    varpi = round(rng.uniform(-0.5, 0.5), 6)
    lams = (1.0, -SQRT2, -1.0)
    inst = ProblemInstance(*lams, k=1.05, varpi=varpi)
    w = WindowSpec(X=ARCS_X, k=inst.k, delta=inst.delta)
    w_major = WindowSpec(X=ARCS_MAJOR_X, k=inst.k, delta=inst.delta)
    primes = lambda: refs.primes(ARCS_TABLE_LIMIT)  # noqa: E731

    def run_minor():
        arc = circle.arc_params(inst, w.X)
        return circle.minor_arc_l2(inst, table, w, arc.eta, arc)

    def run_tails():
        arc = circle.arc_params(inst, w.X)
        return circle.trivial_tails(inst, table, w, arc.R, tol=ARCS_TAIL_TOL)

    return [
        Job("integrate_I",
            lambda: circle.integrate_I(inst, table, w, ARCS_ETA,
                                       [(-ARCS_TRUNCATION, ARCS_TRUNCATION)],
                                       tol=ARCS_I_TOL),
            _cplx,
            lambda v: _check_counting(v, primes(), inst, w)),
        Job("major_arc_split",
            lambda: circle.major_arc_split(inst, table, w_major, ARCS_ETA,
                                           tol=ARCS_MAJOR_TOL),
            lambda out: tuple(float(out[n]) for n in
                              ("J1", "J2", "J3", "J4", "I_M", "est_error")),
            lambda v: _check_major(v, primes(), inst, w_major)),
        Job("minor_arc_l2", run_minor,
            lambda rows: tuple(float(r["value"]) for r in rows),
            lambda v: _check_minor(v, primes(), inst, w)),
        Job("trivial_tails", run_tails,
            lambda rep: (tuple(rep.values), tuple(rep.start)),
            lambda v: _check_tails(v, primes(), inst, w)),
    ]


def _check_counting(v, primes, inst, w) -> list[str]:
    """integrate_I against sum log p1 log p2 log p3 max(0, eta - |r|)."""
    sols = oracles.enumerate_triples(primes, inst.lambdas, inst.k, inst.varpi,
                                     w.delta * w.X, w.X, ARCS_ETA)
    weighted = math.fsum(math.log(a) * math.log(b) * math.log(c)
                         * max(0.0, ARCS_ETA - abs(r))
                         for (a, b, c), r in sols.items())
    rel = _rel(v[0], weighted)
    if rel > 1e-2:
        return [f"integral {v[0]:.6f} vs weighted enumeration {weighted:.6f} "
                f"(relative {rel:.2e} > 1e-2)"]
    return []


def _check_major(v, primes, inst, w) -> list[str]:
    j1, j2, j3, j4, i_m, _ = v
    problems = []
    gap = abs(j1 + j2 + j3 + j4 - i_m)
    if gap > 2 * ARCS_MAJOR_TOL:
        problems.append(f"|J1+J2+J3+J4 - I_M| = {gap:.3e} > {2 * ARCS_MAJOR_TOL}")
    cut = _major_cut(inst, w.X)
    factors = [(lam * ps.astype(np.float64) ** kj, logs)
               for lam, kj, ps, logs in _window_primes(primes, inst, w)]
    direct = oracles.product_quadrature(factors, ARCS_ETA, inst.varpi, cut)
    if abs(i_m - direct) > 2 * ARCS_MAJOR_TOL:
        problems.append(f"I_M {i_m:.9f} vs direct quadrature {direct:.9f}")
    return problems


def _major_cut(inst, X: float) -> float:
    """P / X with P = X^(4/(5k) - eps): the major-arc half-width."""
    return X ** (4.0 / (5.0 * inst.k) - inst.eps) / X


def _arc_scales(inst, X: float) -> tuple[float, float]:
    """(eta, R) of the arc decomposition at scale X."""
    k, eps = inst.k, inst.eps
    eta = X ** (-(33 - 29 * k) / (72 * k) + eps)
    R = eta ** -2.0 * X ** ((k - 1.0) / (4.0 * k)) * math.log(X) ** 3
    return eta, R


def _l2_factors(primes, inst, w, scaled: bool):
    """(freqs, coeffs) of |S_1|^2, |S_2|^4 (as |S_2^2|^2) and |S_k|^2."""
    out = []
    for lam, kj, ps, logs in _window_primes(primes, inst, w):
        if kj == 2.0:
            freqs, coeffs = oracles.square_expansion(ps, logs)
        else:
            freqs, coeffs = ps.astype(np.float64) ** kj, logs
        out.append(((lam if scaled else 1.0) * freqs, coeffs))
    return out


def _check_minor(v, primes, inst, w) -> list[str]:
    """Kernel-weighted minor-arc integrals from closed-form pair sums on
    the same slices: [P/X, cut] with weight eta^2, then unit slices up to
    R, each weighted 1/(pi a)^2 at its left end a."""
    eta, R = _arc_scales(inst, w.X)
    a0 = _major_cut(inst, w.X)
    cut = min(R, max(a0, 1.0 / eta))
    ends = [cut]
    while ends[-1] < R:
        a = ends[-1]
        b = min(math.floor(a) + 1.0, R)
        ends.append(b if b > a else min(a + 1.0, R))
    problems = []
    for i, (freqs, coeffs) in enumerate(_l2_factors(primes, inst, w, True)):
        ps = oracles.PairSum(freqs, coeffs)
        g0 = ps.G([a0])[0]
        g = ps.G(ends)
        want = eta * eta * (ps.mass * (cut - a0) + g[0] - g0)
        slices = ps.mass * np.diff(ends) + np.diff(g)
        want += math.fsum((slices / (math.pi * np.asarray(ends[:-1])) ** 2).tolist())
        # both sides are closed-form pair sums, exact up to rounding
        if _rel(v[i], want) > 1e-9:
            problems.append(f"row {i}: {v[i]!r} vs pair sums {want!r}")
    return problems


def _check_tails(v, primes, inst, w) -> list[str]:
    """Tails sum_{n >= n0} (n-1)^-2 int_{n-1}^{n} |F|^2.

    Integer frequencies (the S_1 and S_2^2 tails) make every unit slice
    equal to the diagonal mass M, so those tails are exactly M psi1(n0-1).
    The S_k tail is summed by pair sums over the slices where the
    program's own stopping bound is not yet met, and the rest lies within
    (M +- osc) psi1.  Every slice is nonnegative and the program stops
    once its remainder bound drops below the tolerance, so its value may
    fall short of the tail by less than the tolerance but never exceed it.
    """
    values, starts = v
    _, R = _arc_scales(inst, w.X)
    problems = []
    for i, ((freqs, coeffs), lam) in enumerate(
            zip(_l2_factors(primes, inst, w, False), inst.lambdas)):
        n0 = max(2, math.ceil(abs(lam) * R))
        if starts[i] != n0:
            problems.append(f"tail {i}: starts at {starts[i]}, not {n0}")
        ps = oracles.PairSum(freqs, coeffs)
        if np.all(freqs == np.round(freqs)):
            want, spread = ps.mass * oracles.trigamma(n0 - 1), 0.0
        else:
            osc = ps.osc_bound()
            n_end = n0
            while (ps.mass + osc) * oracles.trigamma(n_end - 1) >= ARCS_TAIL_TOL:
                n_end += 1024
            ns = np.arange(n0 - 1, n_end, dtype=np.float64)
            slices = ps.mass + np.diff(ps.G(ns))
            want = math.fsum((slices / (ns[1:] - 1.0) ** 2).tolist())
            want += ps.mass * oracles.trigamma(n_end - 1)
            spread = osc * oracles.trigamma(n_end - 1)
        lo = want - spread - ARCS_TAIL_TOL
        hi = (want + spread) * (1 + 1e-12)
        if not lo <= values[i] <= hi:
            problems.append(f"tail {i}: {values[i]!r} outside [{lo!r}, {hi!r}]")
    return problems


# ------------------------------- meansquare ----------------------------------

MS_K = (1.0, 1.05)
MS_L2_K = 1.05
MS_TABLE_LIMIT = 2_250_000


def meansquare_jobs(rng: random.Random, table, refs: References) -> list[Job]:
    X = 1_000_000 + rng.randrange(0, 50_000)
    h = rng.randrange(300, 30_000)
    rel = round(rng.uniform(0.005, 0.05), 6)
    # just above PAIRWISE_CAP window integers, so l2_diff takes the grid
    x_l2 = float(36_000 + rng.randrange(0, 500))
    y_l2 = x_l2 ** -0.65
    primes = lambda: refs.primes(MS_TABLE_LIMIT)  # noqa: E731
    jobs = []
    for k in MS_K:
        for use_psi in (False, True):
            q = MeanSquareQuery(X=float(X), k=k, h=float(h), use_psi=use_psi)
            jobs.append(Job(
                f"selberg_J.k{k}.{'psi' if use_psi else 'theta'}",
                lambda q=q: meansquare.selberg_J(table, q),
                lambda rep: (rep.value,),
                lambda v, q=q: _check_selberg(v, primes(), q)))
    q_rel = MeanSquareQuery(X=float(X), k=1.05, rel_delta=rel)
    jobs.append(Job("selberg_J_relative",
                    lambda: meansquare.selberg_J_relative(table, q_rel),
                    lambda rep: (rep.value, rep.substituted),
                    lambda v: _check_relative(v, primes(), q_rel)))
    q_tp = MeanSquareQuery(X=float(X), k=1.05, h=float(h))
    jobs.append(Job("theta_psi_discrepancy",
                    lambda: meansquare.theta_psi_discrepancy(table, q_tp),
                    lambda rep: (rep.value,),
                    lambda v: _check_discrepancy(v, primes(), q_tp)))
    w = WindowSpec(X=x_l2, k=MS_L2_K)
    jobs.append(Job("l2_diff.grid",
                    lambda: meansquare.l2_diff(table, w, y_l2, method="grid"),
                    lambda rep: (rep.value, rep.method),
                    lambda v: _check_l2(v, primes(), w, y_l2)))
    return jobs


def _riemann_square(F, upper, lower, smooth, x_lo: float, step: float) -> float:
    """Midpoint Riemann sum over [x_lo, 2 x_lo] of
    (F(upper(x)) - F(lower(x)) - smooth(upper(x), lower(x)))^2, with F
    given by its values at the integers."""
    def integrand(x):
        a, b = upper(x), lower(x)
        return (F[np.floor(a).astype(np.int64)] - F[np.floor(b).astype(np.int64)]
                - smooth(a, b)) ** 2
    return oracles.riemann(integrand, x_lo, 2.0 * x_lo, step)


def _check_selberg(v, primes, q) -> list[str]:
    F = primes.psi if q.use_psi else primes.theta
    X, h, k = int(q.X), int(q.h), q.k
    if k == 1.0:
        # integer X and h: the integrand is constant on [n, n+1).  The
        # program rounds theta near 2X to float64 (2.3e-10) and forms the
        # drift (x+h) - x at x ~ 2X; against increments of root mean square
        # >= 50 that allows a few parts in 1e12
        n = np.arange(X, 2 * X)
        d = F[n + h] - F[n] - h
        want = float(np.sum(d * d))
        tol = 1e-11
    else:
        rt = 1.0 / k
        want = _riemann_square(F.astype(np.float64), lambda x: (x + h) ** rt,
                               lambda x: x ** rt, lambda a, b: a - b, X, 1.0)
        tol = 1e-3
    rel = _rel(v[0], want)
    return [] if rel <= tol else [f"J {v[0]!r} vs reference {want!r} "
                                  f"(relative {rel:.2e} > {tol})"]


def _check_relative(v, primes, q) -> list[str]:
    """The relative-increment value, and its substituted form
    X^(1-1/k) Jtilde(X^(1/k), (1+delta)^(1/k) - 1) at k = 1."""
    F = primes.theta.astype(np.float64)
    value, substituted = v
    problems = []
    rt = 1.0 / q.k
    fac = 1.0 + q.rel_delta
    big = fac ** rt - 1.0
    want = _riemann_square(F, lambda x: (x * fac) ** rt, lambda x: x ** rt,
                           lambda a, b: big * b, q.X, 1.0)
    if _rel(value, want) > 1e-3:
        problems.append(f"value {value!r} vs Riemann sum {want!r}")
    inner = _riemann_square(F, lambda y: y * (1.0 + big), lambda y: y,
                            lambda a, b: big * b, q.X ** rt, 0.5)
    want_sub = q.X ** (1.0 - rt) * inner
    if _rel(substituted, want_sub) > 1e-3:
        problems.append(f"substituted {substituted!r} vs Riemann sum {want_sub!r}")
    return problems


def _check_discrepancy(v, primes, q) -> list[str]:
    rt = 1.0 / q.k
    want = _riemann_square((primes.psi - primes.theta).astype(np.float64),
                           lambda x: (x + q.h) ** rt, lambda x: x ** rt,
                           lambda a, b: 0.0, q.X, 1.0)
    rel = _rel(v[0], want)
    return [] if rel <= 1e-3 else [f"{v[0]!r} vs Riemann sum {want!r}"]


def _check_l2(v, primes, w, Y) -> list[str]:
    value, method = v
    problems = [] if method == "grid" else [f"method {method!r}, not grid"]
    ns = oracles.kth_power_window(
        primes, w.k, w.X, 2.0 * w.X,
        candidates=np.arange(1, int((2.0 * w.X) ** (1.0 / w.k)) + 3))
    ell = np.where(primes.flags[ns], np.log(ns.astype(np.float64)), 0.0)
    want = oracles.PairSum(ns.astype(np.float64) ** w.k, ell - 1.0).integral(-Y, Y)
    if _rel(value, want) > 1e-6:
        problems.append(f"L2 {value!r} vs pair sum {want!r}")
    return problems


# --------------------------------- expsum ------------------------------------

ES_X = 1e5
ES_K = 1.05
ES_GRID = np.linspace(0.0, 2.0, 201)   # the README's --alpha-grid 0:2:201
ES_POINTS = 30
ES_T_POINTS = 11                        # eval_T on alpha = 0, 0.01, ..., 0.10
ES_T_TOL = 1e-9                         # the expsum subcommand's default --tol
ES_Q = (1, 2, 3, 5, 8, 13, 21, 34, 55, 89)
ES_TABLE_LIMIT = 250_000


def expsum_jobs(rng: random.Random, table, refs: References) -> list[Job]:
    w = WindowSpec(X=ES_X, k=ES_K)
    idx = [0] + sorted(rng.sample(range(1, len(ES_GRID)), ES_POINTS))
    alphas = [float(ES_GRID[i]) for i in idx]
    mp_s = set(rng.sample(alphas[1:], 2))
    mp_u = set(rng.sample(alphas[1:], 1))
    ref = _ExpsumReference(refs, w)
    jobs = []
    for a in alphas:
        jobs.append(Job(f"eval_S.{a:g}", lambda a=a: expsums.eval_S(table, w, a),
                        _cplx, lambda v, a=a: ref.check_S(v, a, a in mp_s)))
    for a in alphas:
        jobs.append(Job(f"eval_U.{a:g}", lambda a=a: expsums.eval_U(w, a),
                        _cplx, lambda v, a=a: ref.check_U(v, a, a in mp_u)))
    for a in ES_GRID[:ES_T_POINTS].tolist():
        jobs.append(Job(f"eval_T.{a:g}",
                        lambda a=a: expsums.eval_T(w, a, ES_T_TOL),
                        _cplx, lambda v, a=a: ref.check_T(v, a)))
    for q in ES_Q:
        for a in [a for a in range(1, 8 * q) if math.gcd(a, q) == 1][:5]:
            for _ in range(2):
                alpha = a / q + rng.uniform(-0.45, 0.45) / (q * q)
                jobs.append(Job(
                    f"bound_vaughan.{a}/{q}.{alpha!r}",
                    lambda alpha=alpha, a=a, q=q: circle.bound_vaughan(
                        table, ES_X, alpha, a, q),
                    lambda r: (float(r),),
                    lambda v, alpha=alpha, q=q: ref.check_bound(v, alpha, q, 1)))
                jobs.append(Job(
                    f"bound_ghosh.{a}/{q}.{alpha!r}",
                    lambda alpha=alpha, a=a, q=q: circle.bound_ghosh(
                        table, ES_X, alpha, a, q),
                    lambda r: (float(r),),
                    lambda v, alpha=alpha, q=q: ref.check_bound(v, alpha, q, 2)))
    return jobs


class _ExpsumReference:
    """Window sets of the dyadic sums, built on first use."""

    def __init__(self, refs: References, w: WindowSpec):
        self.refs = refs
        self.w = w
        self._ready = False

    def _build(self):
        if self._ready:
            return
        w = self.w
        primes = self.refs.primes(ES_TABLE_LIMIT)
        self.primes = primes
        self.ps = oracles.kth_power_window(primes, w.k, w.X, 2.0 * w.X)
        self.logs = np.log(self.ps.astype(np.float64))
        self.ps_k = oracles.powers_ld(self.ps, w.k)
        self.ns = oracles.kth_power_window(
            primes, w.k, w.X, 2.0 * w.X,
            candidates=np.arange(1, int((2.0 * w.X) ** (1.0 / w.k)) + 3))
        self.ns_k = oracles.powers_ld(self.ns, w.k)
        self._ready = True

    def _compare(self, got, want, mass: float, label: str) -> list[str]:
        # both sides reduce phases of size <= 2 * 2X to ~1e-14, so each
        # term can differ by ~1e-13 of its weight
        diff = abs(complex(*got) - want)
        if diff > 1e-10 * mass:
            return [f"{label}: {complex(*got)!r} vs {want!r} (|diff| {diff:.2e})"]
        return []

    def check_S(self, v, alpha: float, with_mp: bool) -> list[str]:
        self._build()
        mass = math.fsum(self.logs.tolist())
        if alpha == 0.0:
            # theta((2X)^(1/k)) - theta(X^(1/k)-), summed exactly
            return [] if _rel(v[0], mass) <= 1e-12 and v[1] == 0.0 else [
                f"S(0) {v!r} vs theta difference {mass!r}"]
        problems = self._compare(v, oracles.ld_sum(self.ps_k, self.logs, alpha),
                                 mass, f"S({alpha})")
        if with_mp:
            problems += self._compare(
                v, oracles.mp_sum(self.ps, self.logs, self.w.k, alpha),
                mass, f"S({alpha}) mpmath")
        return problems

    def check_U(self, v, alpha: float, with_mp: bool) -> list[str]:
        self._build()
        count = len(self.ns)
        if alpha == 0.0:
            return [] if v == (float(count), 0.0) else [
                f"U(0) {v!r} vs integer count {count}"]
        ones = np.ones(count)
        problems = self._compare(v, oracles.ld_sum(self.ns_k, ones, alpha),
                                 count, f"U({alpha})")
        if with_mp:
            problems += self._compare(
                v, oracles.mp_sum(self.ns, ones, self.w.k, alpha),
                count, f"U({alpha}) mpmath")
        return problems

    def check_T(self, v, alpha: float) -> list[str]:
        w = self.w
        want = oracles.mp_T(w.X, w.k, w.delta, alpha)
        diff = abs(complex(*v) - want)
        limit = ES_T_TOL if alpha else 1e-12 * abs(want)
        if diff > limit:
            return [f"T({alpha}) {complex(*v)!r} vs closed form {want!r}"]
        return []

    def check_bound(self, v, alpha: float, q: int, kind: int) -> list[str]:
        self._build()
        X = ES_X
        ps = self.primes.primes
        if kind == 1:
            sel = ps[(ps >= X) & (ps <= 2 * X)]
            freqs = sel
        else:
            sel = ps[(ps * ps >= X) & (ps * ps <= 2 * X)]
            freqs = sel * sel
        s = abs(oracles.exact_int_sum(freqs, np.log(sel.astype(np.float64)), alpha))
        if kind == 1:
            rhs = (X / math.sqrt(q) + math.sqrt(X * q) + X ** 0.8) * math.log(X) ** 4
        else:
            rhs = X ** 0.55 * (1.0 / q + X ** -0.25 + q / X) ** 0.25
        want = s / rhs
        if _rel(v[0], want) > 1e-9:
            return [f"ratio {v[0]!r} vs exact-phase {want!r}"]
        return []



# ------------------------------- registry ------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    table_limit: int
    make_jobs: Callable


WORKLOADS = {
    "search": Workload("search", SEARCH_TABLE_LIMIT, search_jobs),
    "arcs": Workload("arcs", ARCS_TABLE_LIMIT, arcs_jobs),
    "meansquare": Workload("meansquare", MS_TABLE_LIMIT, meansquare_jobs),
    "expsum": Workload("expsum", ES_TABLE_LIMIT, expsum_jobs),
}
