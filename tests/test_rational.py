import math
from fractions import Fraction

import pytest

from primearcs.errors import PrecisionError, ValidationError
from primearcs.rational import HiReal, continued_fraction, parse_hireal


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
    for bad in ("", "sqrt(-1)", "sqrt(2) + sqrt(3)", "1 +", "(1", "x+1",
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
    assert convs[3].err_float == pytest.approx(0.0024531042935, rel=1e-6)
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


def test_hireal_mixed_radicand_rejected():
    with pytest.raises(ValidationError):
        parse_hireal("sqrt(2)*sqrt(3)+sqrt(5)")
