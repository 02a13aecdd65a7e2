"""The acceptance suite: eleven end-to-end checks, each held to one fixed
tolerance and one runtime budget.  A check returns (ok, detail), and its
@_criterion decorator times it into a CriterionResult that FAILs past the
budget.  ``run_all`` runs every criterion on one table of the primes to
TABLE_LIMIT (criterion 11 needs p1 <= X = 1e6); the CLI prints the
results as a pass/fail table and pytest asserts them individually.

Empirical monitor constants (criterion 8) are frozen in
``data/frozen_monitors.json`` and asserted against twice their recorded
value.  Only an explicit ``record=True`` (``verify-all
--record-monitors``) writes that file; a missing constant is a FAIL.
"""

from __future__ import annotations

import functools
import json
import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import circle, expsums, meansquare, optimizer, rational, search
from .primes import PrimeTable, build_table, is_prime

_FROZEN_PATH = Path(__file__).parent / "data" / "frozen_monitors.json"
TABLE_LIMIT = 1_050_000


@dataclass
class CriterionResult:
    name: str
    passed: bool
    detail: str
    elapsed: float
    budget: float

    def as_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed,
                "detail": self.detail, "elapsed": self.elapsed,
                "budget_seconds": self.budget}


def _criterion(name: str, budget: float):
    """Make a check returning (ok, detail) a criterion returning its timed
    CriterionResult, which FAILs when the check runs past budget seconds."""
    def wrap(check):
        @functools.wraps(check)
        def run(*args, **kwargs) -> CriterionResult:
            t0 = time.perf_counter()
            ok, detail = check(*args, **kwargs)
            elapsed = time.perf_counter() - t0
            if elapsed > budget:
                ok = False
                detail += f"; RUNTIME {elapsed:.1f}s exceeds {budget:.0f}s budget"
            return CriterionResult(name, bool(ok), detail, elapsed, budget)
        return run
    return wrap


def load_frozen() -> dict:
    if _FROZEN_PATH.exists():
        return json.loads(_FROZEN_PATH.read_text())
    return {}


def _store_frozen(frozen: dict) -> None:
    _FROZEN_PATH.parent.mkdir(exist_ok=True)
    _FROZEN_PATH.write_text(json.dumps(frozen, indent=2, sort_keys=True) + "\n")


# --------------------------------- criteria ----------------------------------

@_criterion("lp-closed-form", 1.0)
def criterion_lp_closed_form():
    """1: exact rational equality of the solver with the closed forms."""
    rng = random.Random(424243)
    ks = [Fraction(1), Fraction(11, 10), Fraction(33, 29)]
    lo, hi = Fraction(1), Fraction(33, 29)
    for _ in range(50):
        ks.append(lo + (hi - lo) * Fraction(rng.randint(1, 10**9 - 1), 10**9))
    bad = []
    for k in ks:
        sol = optimizer.solve(k)
        want = optimizer.closed_form_exponents(k)
        if not sol.feasible or (sol.inv_a, sol.b, sol.c) != want:
            bad.append(str(k))
    return (not bad,
            f"{len(ks)} values of k checked, mismatches: {bad or 'none'}")


@_criterion("parseval-identity", 5.0)
def criterion_parseval(table: PrimeTable):
    """2: exact discrete identity of the truncated L2 at k=1, Y=1/2."""
    worst = 0.0
    for X in (10, 100, 1000):
        w = expsums.WindowSpec(X=float(X), k=1.0, delta=0.1)
        rep = meansquare.l2_diff(table, w, 0.5, method="pairwise-exact")
        ns = np.arange(X, 2 * X + 1)
        ell = np.array([math.log(n) if is_prime(int(n)) else 0.0 for n in ns])
        exact = float(((ell - 1.0) ** 2).sum())
        worst = max(worst, abs(rep.value - exact) / exact)
    return worst <= 1e-9, f"max relative deviation {worst:.2e} (tol 1e-9)"


@_criterion("fourier-pair", 10.0)
def criterion_fourier_pair():
    """3: kernel/tent transform discrepancy below 3e-5 at truncation 1e4."""
    worst = est = 0.0
    for eta in (0.1, 1.0):
        for tval in (0.0, eta / 2.0, 2.0 * eta):
            disc, err = circle.verify_fourier_pair(eta, tval, 1e4)
            worst, est = max(worst, disc), max(est, err)
    return worst <= 3e-5, (f"max discrepancy {worst:.2e} (tol 3e-5), largest "
                           f"quadrature estimate {est:.2e}")


def _riemann_J(table: PrimeTable, X, h, k, step) -> float:
    xs = np.arange(X, 2 * X, step) + step / 2
    rt = 1.0 / k
    vals = (table.theta_many((xs + h) ** rt) - table.theta_many(xs ** rt)
            - ((xs + h) ** rt - xs ** rt)) ** 2
    return float(vals.sum() * step)


@_criterion("meansquare-oracle", 30.0)
def criterion_meansquare_oracle(table: PrimeTable):
    """4: piecewise-exact short-interval integral vs fine-grid Riemann."""
    cases = ((100, 10, 1.0, 1e-3), (10**4, 200, 1.0, 1e-2),
             (10**4, 500, 2.0, 1e-2))
    worst = 0.0
    for X, h, k, step in cases:
        rep = meansquare.selberg_J(
            table, meansquare.MeanSquareQuery(X=float(X), k=k, h=float(h)))
        oracle = _riemann_J(table, X, h, k, step)
        worst = max(worst, abs(rep.value - oracle) / oracle)
    return worst <= 1e-3, f"max relative deviation {worst:.2e} (tol 1e-3)"


@_criterion("search-oracle", 60.0)
def criterion_search_oracle(table: PrimeTable):
    """5: exact agreement of the solver with brute force on 20 instances."""
    rng = random.Random(971)
    mism = 0
    # the exact-hit instance: 17 + 2*4 - 25 = 0
    inst0 = circle.ProblemInstance(1.0, 2.0, -1.0, k=2.0, varpi=0.0)
    a = search.find_solutions(inst0, table, 40.0, 0.0)
    b = search.brute_force_solutions(inst0, table, 40.0, 0.0)
    triples = [(r.p1, r.p2, r.p3) for r in a.records]
    hit_ok = triples == [(r.p1, r.p2, r.p3) for r in b.records] and \
        (17, 2, 5) in triples
    for _ in range(20):
        lam = [rng.choice([-1, 1]) * rng.uniform(0.4, 3.0) for _ in range(3)]
        if all(l > 0 for l in lam) or all(l < 0 for l in lam):
            lam[2] = -lam[2]
        inst = circle.ProblemInstance(lam[0], lam[1], lam[2],
                                      k=rng.uniform(1.0, 1.3),
                                      varpi=rng.uniform(-2.0, 2.0))
        X = rng.uniform(200.0, 2000.0)
        thr = rng.uniform(0.0, 0.5)
        fa = search.find_solutions(inst, table, X, thr)
        fb = search.brute_force_solutions(inst, table, X, thr)
        if [(r.p1, r.p2, r.p3) for r in fa.records] != \
                [(r.p1, r.p2, r.p3) for r in fb.records]:
            mism += 1
    return (hit_ok and mism == 0,
            f"exact-hit found: {hit_ok}; mismatched instances: {mism}")


def _criterion6_instance():
    inst = circle.ProblemInstance(
        1.0, -math.sqrt(2.0), -1.0, k=1.05, varpi=0.0)
    w = expsums.WindowSpec(X=500.0, k=1.05, delta=0.1)
    return inst, w, 0.5


@_criterion("counting-identity", 300.0)
def criterion_counting_identity(table: PrimeTable):
    """6: truncated counting integral vs enumeration-weighted sum."""
    inst, w, eta = _criterion6_instance()
    enum_val = search.weighted_solution_sum(inst, table, w.X, eta)
    a_cut = 1e3 / eta
    val = circle.integrate_I(inst, table, w, eta, [(-a_cut, a_cut)], tol=0.2)
    rel = abs(val.real - enum_val) / abs(enum_val)
    return rel <= 0.01, (f"integral {val.real:.4f} vs enumeration "
                         f"{enum_val:.4f}, relative {rel:.2e} (tol 1e-2)")


@_criterion("major-arc-telescoping", 300.0)
def criterion_telescoping(table: PrimeTable):
    """7: the four major-arc pieces resum to the direct integral."""
    inst, w, eta = _criterion6_instance()
    tol = 1e-3
    out = circle.major_arc_split(inst, table, w, eta, tol=tol)
    gap = abs(out["J1"] + out["J2"] + out["J3"] + out["J4"] - out["I_M"])
    return gap <= 2.0 * tol, (f"|sum J - I_M| = {gap:.2e} (tol {2*tol:.0e}); "
                              f"J1={out['J1']:.3f}")


@_criterion("truncated-l2-shape", 600.0)
def criterion_l2_shape(table: PrimeTable, frozen: dict | None = None,
                       record: bool = False):
    """8: truncated-L2 / comparator ratio stable across (k, X, Y) grid.

    record=True stores the measured ratio as the frozen constant and
    passes if it could be written; otherwise a missing constant FAILs."""
    frozen = load_frozen() if frozen is None else frozen
    ratios = {}
    for k in (1.05, 2.0):
        for X in (1e3, 1e4, 1e5):
            for yexp in (-0.9, -0.5):
                Y = X ** yexp
                w = expsums.WindowSpec(X=X, k=k, delta=0.1)
                rep = meansquare.l2_diff(table, w, Y)
                ratios[f"k={k},X={X:.0e},Y=X^{yexp}"] = rep.ratio
    worst = max(ratios.values())
    key = "truncated_l2_ratio_max"
    if record:
        frozen[key] = worst
        try:
            _store_frozen(frozen)
            return True, f"recorded ratio max {worst:.4f}"
        except OSError as exc:
            return False, f"ratio max {worst:.4f} not recorded: {exc}"
    if key not in frozen:
        return False, (f"ratio max {worst:.4f}; no frozen {key} (record it "
                       f"with verify-all --record-monitors)")
    return worst <= 2.0 * frozen[key], (f"ratio max {worst:.4f} vs frozen "
                                        f"{frozen[key]:.4f} (limit 2x)")


@_criterion("vaughan-ghosh-monitors", 120.0)
def criterion_bound_monitors(table: PrimeTable):
    """9: rational-approximation bound ratios <= 10 on a 100-point grid."""
    X = 1e5
    qs = (1, 2, 3, 5, 8, 13, 21, 34, 55, 89)
    worst_v = worst_g = 0.0
    points = 0
    for q in qs:
        numerators = [a for a in range(1, 8 * q) if math.gcd(a, q) == 1][:5]
        for a in numerators:
            for xi in (-0.45, 0.3):
                alpha = a / q + xi / (q * q)
                worst_v = max(worst_v, circle.bound_vaughan(table, X, alpha, a, q))
                worst_g = max(worst_g, circle.bound_ghosh(table, X, alpha, a, q))
                points += 1
    return (worst_v <= 10.0 and worst_g <= 10.0,
            f"{points} points; max ratios {worst_v:.3f} / {worst_g:.3f} "
            f"(limit 10)")


@_criterion("convergent-law", 1.0)
def criterion_convergent_law():
    """10: best-approximation law and determinant identity to 30 terms."""
    rng = random.Random(5151)
    values = [rational.parse_hireal("sqrt(2)"),
              rational.parse_hireal("(1+sqrt(5))/2")]
    for _ in range(10):
        digits = "".join(rng.choice("0123456789") for _ in range(50))
        values.append(rational.HiReal.from_decimal_literal("0." + digits, 50))
    bad = 0
    for x in values:
        convs = rational.continued_fraction(x, 30)
        for c in convs:
            if c.err > Fraction(1, c.q * c.q):
                bad += 1
        for i in range(1, len(convs)):
            det = convs[i].a * convs[i - 1].q - convs[i - 1].a * convs[i].q
            if det not in (1, -1):
                bad += 1
        if len(convs) < 30:
            bad += 1
    return bad == 0, f"{len(values)} expansions to 30 terms, violations: {bad}"


@_criterion("solutions-at-scale", 300.0)
def criterion_solutions_at_scale(table: PrimeTable):
    """11: the desk-scale instance has solutions at threshold 0.1, X=1e6."""
    inst, _, _ = _criterion6_instance()
    rep = search.find_solutions(inst, table, 1e6, 0.1, cap=16)
    first = tuple(rep.records[0]) if rep.records else "none"
    return rep.count >= 1, (f"count {rep.count} at threshold 0.1 "
                            f"(first: {first})")


def run_all(record_monitors: bool = False) -> list[CriterionResult]:
    table = build_table(TABLE_LIMIT)
    return [
        criterion_lp_closed_form(),
        criterion_parseval(table),
        criterion_fourier_pair(),
        criterion_meansquare_oracle(table),
        criterion_search_oracle(table),
        criterion_counting_identity(table),
        criterion_telescoping(table),
        criterion_l2_shape(table, record=record_monitors),
        criterion_bound_monitors(table),
        criterion_convergent_law(),
        criterion_solutions_at_scale(table),
    ]
