"""Exact solution of the exponent-selection linear program.

The six constraints tie together the scale exponent 1/a (X = q^a), the
Dirichlet split exponent b (Q = X^b), and the kernel-width exponent c
(eta = X^-c) for a given power k.  Everything is solved in exact rational
arithmetic by vertex enumeration: three variables, eight halfplanes,
lexicographic (c, b, 1/a) maximization.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import ValidationError

Vec = tuple[Fraction, Fraction, Fraction]  # (u, b, c) with u = 1/a


@dataclass(frozen=True)
class Constraint:
    """One stated constraint; ``halfplanes`` lists it as rows
    (cu, cb, cc, rhs) meaning cu*u + cb*b + cc*c <= rhs."""

    label: str
    halfplanes: tuple[tuple[Fraction, Fraction, Fraction, Fraction], ...]

    def slack(self, v: Vec) -> Fraction:
        u, b, c = v
        return min(rhs - (cu * u + cb * b + cc * c)
                   for cu, cb, cc, rhs in self.halfplanes)


@dataclass(frozen=True)
class LPSolution:
    inv_a: Fraction
    b: Fraction
    c: Fraction
    k: Fraction
    feasible: bool
    active_constraints: tuple[str, ...]
    violated: tuple[str, ...] = ()


def _f(x) -> Fraction:
    return Fraction(x)


def build_constraints(k) -> list[Constraint]:
    """The six constraints of the exponent program at a fixed rational k."""
    k = _f(k)
    if k <= 0:
        raise ValidationError("k must be a positive rational")
    one = Fraction(1)
    zero = Fraction(0)
    return [
        Constraint("a>=1", (( one, zero, zero, one),)),
        Constraint("0<=b<=4/(5k)", ((zero, -one, zero, zero),
                                    (zero, one, zero, Fraction(4, 5) / k))),
        Constraint("c>=0", ((zero, zero, -one, zero),)),
        Constraint("2b-1<=-1/a", ((one, 2 * one, zero, one),)),
        Constraint("2b+2c+(1-1/k)/4<=1/a",
                   ((-one, 2 * one, 2 * one, -(one - 1 / k) / 4),)),
        Constraint("-c>=1/2-1/(2k)-b/4",
                   ((zero, Fraction(-1, 4), one, 1 / (2 * k) - Fraction(1, 2)),)),
    ]


def _halfplane_rows(constraints: list[Constraint]):
    # bound u >= 0, stored as -u <= 0
    rows = [(Fraction(-1), Fraction(0), Fraction(0), Fraction(0), "u>=0")]
    for con in constraints:
        for i, hp in enumerate(con.halfplanes):
            tag = con.label if len(con.halfplanes) == 1 else f"{con.label}#{i}"
            rows.append((*hp, tag))
    return rows


def _solve3(rows) -> Vec | None:
    (a1, b1, c1, d1), (a2, b2, c2, d2), (a3, b3, c3, d3) = rows
    det = (a1 * (b2 * c3 - b3 * c2)
           - b1 * (a2 * c3 - a3 * c2)
           + c1 * (a2 * b3 - a3 * b2))
    if det == 0:
        return None
    du = (d1 * (b2 * c3 - b3 * c2)
          - b1 * (d2 * c3 - d3 * c2)
          + c1 * (d2 * b3 - d3 * b2))
    db = (a1 * (d2 * c3 - d3 * c2)
          - d1 * (a2 * c3 - a3 * c2)
          + c1 * (a2 * d3 - a3 * d2))
    dc = (a1 * (b2 * d3 - b3 * d2)
          - b1 * (a2 * d3 - a3 * d2)
          + d1 * (a2 * b3 - a3 * b2))
    return du / det, db / det, dc / det


def _feasible_vertices(rows):
    verts = []
    for trio in combinations(range(len(rows)), 3):
        sol = _solve3([rows[i][:4] for i in trio])
        if sol is None:
            continue
        u, b, c = sol
        if all(cu * u + cb * b + cc * c <= rhs for cu, cb, cc, rhs, _ in rows):
            verts.append(sol)
    # dedupe
    uniq = []
    for v in verts:
        if v not in uniq:
            uniq.append(v)
    return uniq


def solve(k) -> LPSolution:
    """Exact vertex-enumeration solve, maximizing (c, b, u) lexicographically.

    The boundary k where the optimum has c = 0 is degenerate and the
    lexicographic tie-break keeps the solution continuous there.
    """
    k = _f(k)
    constraints = build_constraints(k)
    rows = _halfplane_rows(constraints)
    verts = _feasible_vertices(rows)
    if not verts:
        relaxed = [r for r in rows if r[4] != "c>=0"]
        rel_verts = _feasible_vertices(relaxed)
        violated = ("c>=0",) if rel_verts else tuple(r[4] for r in rows)
        best = max(rel_verts, key=lambda v: (v[2], v[1], v[0])) if rel_verts \
            else (Fraction(0), Fraction(0), Fraction(0))
        return LPSolution(best[0], best[1], best[2], k, False, (), violated)
    u, b, c = max(verts, key=lambda v: (v[2], v[1], v[0]))
    active = tuple(con.label for con in constraints
                   if con.slack((u, b, c)) == 0)
    return LPSolution(u, b, c, k, True, active)


def closed_form_exponents(k) -> Vec:
    """The closed-form optimum: tight at the last three constraints."""
    k = _f(k)
    return ((2 * k + 3) / (9 * k),
            (7 * k - 3) / (18 * k),
            (33 - 29 * k) / (72 * k))


def verify_closed_form(k):
    """Substitute the closed forms into every constraint.

    Returns (ok, slacks, flags): exact slack per constraint label, ok iff
    all slacks are nonnegative; flags notes c < 0 outside the admissible
    k range and confirms the last three constraints are tight.
    """
    k = _f(k)
    v = closed_form_exponents(k)
    constraints = build_constraints(k)
    slacks = {con.label: con.slack(v) for con in constraints}
    flags = []
    if v[2] < 0:
        flags.append("c<0")
    tight = [con.label for con in constraints[3:] if slacks[con.label] == 0]
    if len(tight) == 3:
        flags.append("last-three-tight")
    ok = all(s >= 0 for s in slacks.values())
    return ok, slacks, flags
