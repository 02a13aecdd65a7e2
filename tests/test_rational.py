import math
import operator
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from primearcs.errors import PrecisionError, ValidationError
from primearcs.rational import (_SQRT_BITS, HiReal, continued_fraction,
                                parse_hireal)


def test_parse_forms():
    assert parse_hireal("7/3").interval() == (Fraction(7, 3), Fraction(7, 3))
    assert parse_hireal("sqrt(2)").to_float() == pytest.approx(math.sqrt(2), rel=1e-15)
    assert parse_hireal("-sqrt(2)").to_float() == pytest.approx(-math.sqrt(2), rel=1e-15)
    assert parse_hireal("(1+sqrt(5))/2").to_float() == pytest.approx(
        (1 + math.sqrt(5)) / 2, rel=1e-15)
    assert parse_hireal("-1/sqrt(2)").to_float() == pytest.approx(
        -1 / math.sqrt(2), rel=1e-15)
    assert parse_hireal("3.25").to_float() == pytest.approx(3.25)


@pytest.mark.parametrize("text,plain", [("2.5e-1", "0.25"), ("1e-3", "0.001"),
                                        ("105E-2", "1.05"), ("-2.50e+1", "-25.0")])
def test_parse_exponent_form(text, plain):
    # the significant digits are the mantissa's, so the value and its
    # declared precision are the plain literal's
    assert parse_hireal(text).interval() == parse_hireal(plain).interval()


@pytest.mark.parametrize("bad", ["2.5e", "1e100", "1e-100"])
def test_parse_rejects_long_or_missing_exponent(bad):
    with pytest.raises(ValidationError, match="cannot parse"):
        parse_hireal(bad)


def test_parse_rejects_garbage():
    # 1/0 and 0.0/0.0 raised ZeroDivisionError, sqrt(2.5) a ValueError
    for bad in ("", "sqrt(-1)", "1 +", "(1", "x+1",
                "1/0", "0.0/0.0", "sqrt(2.5)"):
        with pytest.raises(ValidationError):
            parse_hireal(bad)


def test_cf_rational_terminates():
    convs = continued_fraction(parse_hireal("7/3"), 10)
    assert [(c.a, c.q) for c in convs] == [(2, 1), (7, 3)]
    assert convs[-1].err == 0


def test_cf_sqrt2():
    convs = continued_fraction(parse_hireal("sqrt(2)"), 5)
    assert [(c.a, c.q) for c in convs] == [(1, 1), (3, 2), (7, 5), (17, 12),
                                           (41, 29)]
    # |sqrt2 - 17/12| ~ 0.002453 <= 1/144
    assert float(convs[3].err) == pytest.approx(0.0024531042935, rel=1e-6)
    assert convs[3].err <= Fraction(1, 144)


def test_cf_golden_ratio_all_ones():
    convs = continued_fraction(parse_hireal("(1+sqrt(5))/2"), 20)
    # partial quotients recoverable from the recurrence: all equal 1 means
    # numerators/denominators are consecutive Fibonacci numbers
    fib = [1, 1]
    while len(fib) < 25:
        fib.append(fib[-1] + fib[-2])
    assert [c.q for c in convs] == fib[:20]


def test_cf_best_approximation_law():
    x = parse_hireal("sqrt(7)")
    convs = continued_fraction(x, 25)
    for c in convs:
        assert c.err <= Fraction(1, c.q * c.q)
    resid = [abs(Fraction(c.q) * x.interval()[0] - c.a) for c in convs]
    assert all(b < a for a, b in zip(resid, resid[1:]))


def test_cf_determinant_identity():
    convs = continued_fraction(parse_hireal("sqrt(3)"), 20)
    for i in range(1, len(convs)):
        det = convs[i].a * convs[i - 1].q - convs[i - 1].a * convs[i].q
        assert det in (1, -1)


def test_cf_decimal_literal_depth_limit():
    x = HiReal.from_decimal_literal("1.5000", 5)
    with pytest.raises(PrecisionError) as exc:
        continued_fraction(x, 30)
    assert exc.value.max_depth is not None


def test_hireal_interval_encloses_value():
    x = parse_hireal("sqrt(2)")
    lo, hi = x.interval()
    assert lo < hi
    assert float(hi - lo) < 2 ** -1000
    assert lo * lo <= 2 <= hi * hi


def mp_convergents(v, n):
    """(a, q) of the first n convergents of the mpmath number v."""
    h1, h0, k1, k0 = 1, 0, 0, 1
    out = []
    for _ in range(n):
        a = int(mpmath.floor(v))
        h1, h0 = a * h1 + h0, h1
        k1, k0 = a * k1 + k0, k1
        out.append((h1, k1))
        v = 1 / (v - a)
    return out


@pytest.mark.parametrize("text,value", [
    ("sqrt(2)+sqrt(3)", lambda: mpmath.sqrt(2) + mpmath.sqrt(3)),
    ("sqrt(2)*sqrt(3)+sqrt(5)",
     lambda: mpmath.sqrt(2) * mpmath.sqrt(3) + mpmath.sqrt(5))])
def test_mixed_radicands_match_mpmath(text, value):
    # one quadratic field only: these raised "mixed radicands" (exit 2)
    x = parse_hireal(text)
    with mpmath.workdps(200):
        v = value()
        assert x.to_float() == float(v)
        expected = mp_convergents(v, 25)
    assert [(c.a, c.q) for c in continued_fraction(x, 25)] == expected


def test_surd_used_twice_is_an_enclosure():
    # sqrt(2)*sqrt(2) was exactly 2; approx now exits 2 on it (test_cli)
    x = parse_hireal("sqrt(2)*sqrt(2)")
    lo, hi = x.interval()
    assert lo < 2 < hi and x.to_float() == 2.0


def test_long_product_carries_bounded_bits():
    # unrounded, the centre of this product grew to 766 000-bit denominators
    radicands = [d for d in range(2, 300) if math.isqrt(d) ** 2 != d][:200]
    x = parse_hireal("*".join(f"sqrt({d})" for d in radicands))
    assert len(radicands) == 200
    for f in (x.mid, x.rad):
        assert max(f.numerator.bit_length(),
                   f.denominator.bit_length()) <= 2 * _SQRT_BITS
    with mpmath.workdps(1400):
        v = mpmath.fprod(mpmath.sqrt(d) for d in radicands)
        lo, hi = x.interval()
        assert mpmath.mpf(lo.numerator) / lo.denominator <= v
        assert v <= mpmath.mpf(hi.numerator) / hi.denominator


@pytest.mark.parametrize("text,rad", [
    ("0.00120", Fraction(1, 200000)), ("100", Fraction(1, 2)),
    ("1.50e3", Fraction(5)), ("000.5", Fraction(1, 20)),
    ("0.0", Fraction(1, 2)), ("10.05", Fraction(1, 200))])
def test_decimal_literal_radius(text, rad):
    # half a unit in the last written digit; a zero's unit is 1
    mid = Fraction(text)
    assert HiReal.from_decimal_literal(text).interval() == (mid - rad,
                                                            mid + rad)


@pytest.mark.parametrize("text,rad", [
    ("2.5-1.5", Fraction(1, 10)),  # 0.05 + 0.05
    ("1.5*3.5", Fraction(101, 400)),  # 0.05*3.5 + 0.05*1.5 + 0.05*0.05
    ("1/2.5", Fraction(2, 245))])  # 0.05 / (2.5 (2.5 - 0.05))
def test_ball_rules(text, rad):
    # the ball rule's radius, rounded up by at most 2^-60 of it
    assert rad <= parse_hireal(text).rad <= rad * (1 + Fraction(1, 2**60))


_LEAF = st.one_of(
    st.integers(2, 60).map(lambda d: ("sqrt", d)),
    st.integers(0, 99).map(lambda n: ("int", n)),
    st.tuples(st.integers(1, 10**6), st.integers(1, 6), st.integers(-5, 2))
    .map(lambda t: ("lit", f"{t[0] // 10**t[1]}.{t[0] % 10**t[1]:0{t[1]}d}"
                           f"e{t[2]}")))


def _expressions(depth):
    """An operation on two operands, each a leaf or (depth > 1) an
    expression of depth - 1."""
    sub = _LEAF if depth == 1 else st.one_of(_LEAF, _expressions(depth - 1))
    return st.tuples(st.sampled_from("+-*/"), sub, sub)


def _text(node):
    if node[0] == "sqrt":
        return f"sqrt({node[1]})"
    if node[0] in ("int", "lit"):
        return str(node[1])
    return f"({_text(node[1])}){node[0]}({_text(node[2])})"


_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
        "/": operator.truediv}


def _mp(node):
    if node[0] == "sqrt":
        return mpmath.sqrt(node[1])
    if node[0] in ("int", "lit"):
        return mpmath.mpf(node[1])
    return _OPS[node[0]](_mp(node[1]), _mp(node[2]))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_expressions(4))
def test_ball_encloses_mpmath_value(tree):
    try:
        x = parse_hireal(_text(tree))
    except (PrecisionError, ValidationError):
        return  # a divisor whose ball holds 0
    with mpmath.workdps(1400):
        v = _mp(tree)
        # 1400 digits: the mpmath error is far below a surd's 2^-4097
        tol = mpmath.mpf(10) ** -1300 * max(1, abs(v))
        lo, hi = (mpmath.mpf(f.numerator) / f.denominator
                  for f in x.interval())
        assert lo - tol <= v <= hi + tol
