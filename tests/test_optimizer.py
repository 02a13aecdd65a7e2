import random
from fractions import Fraction

import pytest

from primearcs.errors import ValidationError
from primearcs.optimizer import (build_constraints, closed_form_exponents,
                                 solve, verify_closed_form)


def test_constraint_count_always_six():
    for k in (Fraction(1), Fraction(11, 10), Fraction(33, 29), Fraction(2),
              Fraction(1, 2)):
        assert len(build_constraints(k)) == 6


def test_constraint5_at_k1():
    # at k = 1 the (1 - 1/k)/4 term vanishes: 2b + 2c <= u
    cons = build_constraints(1)
    row = cons[4].halfplanes[0]
    assert row == (Fraction(-1), Fraction(2), Fraction(2), Fraction(0))


def test_constraint6_at_boundary_k():
    # right side 1/2 - 1/(2k) at k = 33/29 equals 1/2 - 29/66 = 2/33
    cons = build_constraints(Fraction(33, 29))
    row = cons[5].halfplanes[0]
    assert row[3] == Fraction(29, 66) - Fraction(1, 2)
    assert row[3] == -Fraction(2, 33)


def test_solve_k1():
    sol = solve(1)
    assert (sol.inv_a, sol.b, sol.c) == (Fraction(5, 9), Fraction(2, 9),
                                         Fraction(1, 18))
    assert sol.feasible


def test_solve_boundary():
    sol = solve(Fraction(33, 29))
    assert sol.c == 0
    assert (sol.inv_a, sol.b) == (Fraction(17, 33), Fraction(8, 33))


def test_solve_k2_infeasible():
    sol = solve(2)
    assert not sol.feasible
    assert "c>=0" in sol.violated


def test_solve_k11_10():
    sol = solve(Fraction(11, 10))
    assert (sol.inv_a, sol.b, sol.c) == (Fraction(52, 99), Fraction(47, 198),
                                         Fraction(11, 792))


def test_fifty_random_k_exact():
    rng = random.Random(20240817)
    lo, hi = Fraction(1), Fraction(33, 29)
    for _ in range(50):
        k = lo + (hi - lo) * Fraction(rng.randint(1, 10**12 - 1), 10**12)
        sol = solve(k)
        assert sol.feasible
        assert (sol.inv_a, sol.b, sol.c) == closed_form_exponents(k)


def test_verify_closed_form_k1():
    ok, slacks, flags = verify_closed_form(1)
    assert ok
    assert "last-three-tight" in flags
    assert all(s >= 0 for s in slacks.values())
    tight = [lbl for lbl, s in slacks.items() if s == 0]
    assert set(tight) == {"2b-1<=-1/a", "2b+2c+(1-1/k)/4<=1/a",
                          "-c>=1/2-1/(2k)-b/4"}


def test_verify_closed_form_k11_10():
    ok, slacks, _ = verify_closed_form(Fraction(11, 10))
    assert ok
    u, b, c = closed_form_exponents(Fraction(11, 10))
    assert (u, b, c) == (Fraction(52, 99), Fraction(47, 198), Fraction(11, 792))


def test_verify_outside_range_flags_negative_c():
    ok, _, flags = verify_closed_form(Fraction(3, 2))
    assert not ok
    assert "c<0" in flags


def test_optimum_is_maximal():
    # increasing c by any positive rational at the optimal (u, b) breaks
    # at least one constraint
    for k in (Fraction(1), Fraction(11, 10), Fraction(101, 100)):
        u, b, c = closed_form_exponents(k)
        cons = build_constraints(k)
        for bump in (Fraction(1, 10**9), Fraction(1, 1000), Fraction(1, 7)):
            v = (u, b, c + bump)
            assert any(con.slack(v) < 0 for con in cons)


def test_active_constraints_at_optimum():
    sol = solve(Fraction(21, 20))
    assert set(sol.active_constraints) >= {"2b-1<=-1/a",
                                           "2b+2c+(1-1/k)/4<=1/a",
                                           "-c>=1/2-1/(2k)-b/4"}


def test_eta_exponent_cross_module_consistency():
    # the kernel-width exponent used by the arc decomposition equals -c(k)
    from primearcs.circle import eta_exponent
    for k in (Fraction(1), Fraction(11, 10), Fraction(33, 29),
              Fraction(107, 100)):
        sol = solve(k)
        assert eta_exponent(k, 0) == -sol.c


def test_feasibility_boundary_at_33_29():
    # k = 33/29 is the largest feasible k: c = 0 there, infeasible above
    edge = solve(Fraction(33, 29))
    assert edge.feasible and edge.c == 0
    assert not solve(Fraction(33, 29) + Fraction(1, 10**9)).feasible


def test_invalid_k():
    with pytest.raises(ValidationError):
        build_constraints(Fraction(-1))
