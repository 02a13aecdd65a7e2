"""Balls that carry coefficient ratios, continued fractions and their
convergents.

A HiReal is a ball: an exact Fraction centre and radius, as in the
midpoint-radius arithmetic of Johansson's Arb (IEEE Trans. Computers 66,
2017).  Integers and their quotients are exact, sqrt(d) of a non-square
is an enclosure of width 2^-_SQRT_BITS, and a decimal literal carries
half a unit in its last declared digit.  An inexact result is rounded
outward, so the bits a long product carries stay bounded.  Surds of any
radicands mix; a surd used twice (``sqrt(2)*sqrt(2)``) is an enclosure
of its value, not the value.  Continued-fraction terms are emitted from
exact Fraction-interval arithmetic and stop as soon as the floor of the
interval becomes ambiguous, so no partial quotient is ever silently
wrong.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

from .errors import PrecisionError, ValidationError

_SQRT_BITS = 4096  # width 2^-_SQRT_BITS of a surd; bits of a rounded centre
_RAD_BITS = 64  # significant bits of a rounded radius


def _dyadic(x: Fraction, bits: int, up: bool = False) -> Fraction:
    """Nonzero x rounded to about ``bits`` significant bits: to nearest,
    or up."""
    shift = bits - x.numerator.bit_length() + x.denominator.bit_length()
    a = x.numerator << max(shift, 0)
    b = x.denominator << max(-shift, 0)
    n = -(-a // b) if up else (2 * a + b) // (2 * b)
    return Fraction(n, 1 << shift) if shift >= 0 else Fraction(n << -shift)


class HiReal:
    """The ball [mid - rad, mid + rad] with an exact Fraction centre and
    radius.  Supports the arithmetic parse_hireal combines two HiReals
    with: +, -, *, /, negation.
    """

    __slots__ = ("mid", "rad")

    def __init__(self, mid, rad=Fraction(0)):
        self.mid, self.rad = Fraction(mid), Fraction(rad)

    @classmethod
    def _rounded(cls, mid: Fraction, rad: Fraction) -> "HiReal":
        """The ball (mid, rad), rounded outward when it is inexact: the
        centre to _SQRT_BITS bits, its error added to the radius, and
        that rounded up to _RAD_BITS bits."""
        if rad and mid:
            rounded = _dyadic(mid, _SQRT_BITS)
            rad = _dyadic(rad + abs(rounded - mid), _RAD_BITS, up=True)
            mid = rounded
        return cls(mid, rad)

    # ---- constructors ----
    @classmethod
    def from_decimal_literal(cls, text: str, digits: int | None = None) -> "HiReal":
        """Decimal string, plain or in exponent form (``2.5e-1``), with
        ``digits`` trustworthy significant digits: by default those written
        in the mantissa.

        The centre is the literal read exactly; the radius is half a unit
        in the last declared digit (half of 1 for a zero).
        """
        d = Decimal(text.strip())
        if digits is None:
            digits = len(d.as_tuple().digits)
        scale = Fraction(10) ** (d.adjusted() + 1 - digits) if d else 1
        return cls(Fraction(d), Fraction(scale) / 2)

    @classmethod
    def sqrt_of(cls, d: int) -> "HiReal":
        """The exact root of a square, else the ball over [s, s + 1] /
        2^_SQRT_BITS with s = floor(sqrt(d) 2^_SQRT_BITS)."""
        if d < 0:
            raise ValidationError("sqrt of a negative integer is not real")
        root = math.isqrt(d)
        if root * root == d:
            return cls(root)
        s = math.isqrt(d << (2 * _SQRT_BITS))
        unit = 1 << (_SQRT_BITS + 1)
        return cls(Fraction(2 * s + 1, unit), Fraction(1, unit))

    # ---- views ----
    def interval(self) -> tuple[Fraction, Fraction]:
        """Exact enclosure [lo, hi] of the value."""
        return self.mid - self.rad, self.mid + self.rad

    def to_float(self) -> float:
        try:
            return float(self.mid)
        except OverflowError:
            raise ValidationError("value beyond the float range") from None

    def __repr__(self):
        if not self.rad:
            return f"HiReal({self.mid})"
        return f"HiReal({float(self.mid)!r} ± {float(self.rad):.1e})"

    # ---- ball arithmetic ----
    def __neg__(self):
        return HiReal(-self.mid, self.rad)

    def __add__(self, o: "HiReal") -> "HiReal":
        return HiReal._rounded(self.mid + o.mid, self.rad + o.rad)

    def __sub__(self, o: "HiReal") -> "HiReal":
        return self + (-o)

    def __mul__(self, o: "HiReal") -> "HiReal":
        return HiReal._rounded(
            self.mid * o.mid,
            self.rad * abs(o.mid) + o.rad * abs(self.mid) + self.rad * o.rad)

    def __truediv__(self, o: "HiReal") -> "HiReal":
        if not o.mid:
            raise ValidationError("division by zero")
        m = abs(o.mid)
        if m <= o.rad:
            raise PrecisionError("inverse of an interval containing zero")
        return self * HiReal(1 / o.mid, o.rad / (m * (m - o.rad)))


# --------------------------- expression parsing ------------------------------

# a decimal exponent has at most two digits: a literal is read as an
# exact Fraction, and 1e999999999 would cost it a billion-digit power of ten
_TOKEN = re.compile(
    r"\s*(sqrt|\d+(?:\.\d+)?(?:[eE][+-]?\d{1,2}(?!\d))?|[()+\-*/])")


def parse_hireal(text: str) -> HiReal:
    """Parse expressions like ``-sqrt(2)``, ``(1+sqrt(5))/2``, ``355/113``,
    ``1.41421356237``, ``2.5e-1`` into a HiReal.

    Decimal literals carry their written number of significant digits as
    the declared precision, and sqrt of a non-square is an enclosure;
    integers and their quotients are exact.
    """
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ValidationError(f"cannot parse {text!r} at position {pos}")
            break
        if len(m.group(1)) > 4000:  # int() reads at most 4300 digits
            raise ValidationError("a number literal has over 4000 characters")
        tokens.append(m.group(1))
        pos = m.end()
    if not tokens:
        raise ValidationError("empty expression")

    def parse_expr(i):
        val, i = parse_term(i)
        while i < len(tokens) and tokens[i] in "+-":
            op = tokens[i]
            rhs, i = parse_term(i + 1)
            val = val + rhs if op == "+" else val - rhs
        return val, i

    def parse_term(i):
        val, i = parse_factor(i)
        while i < len(tokens) and tokens[i] in "*/":
            op = tokens[i]
            rhs, i = parse_factor(i + 1)
            val = val * rhs if op == "*" else val / rhs
        return val, i

    def parse_factor(i):
        if i >= len(tokens):
            raise ValidationError(f"unexpected end of expression {text!r}")
        tok = tokens[i]
        if tok == "-":
            val, i = parse_factor(i + 1)
            return -val, i
        if tok == "+":
            return parse_factor(i + 1)
        if tok == "(":
            val, i = parse_expr(i + 1)
            if i >= len(tokens) or tokens[i] != ")":
                raise ValidationError(f"unbalanced parentheses in {text!r}")
            return val, i + 1
        if tok == "sqrt":
            if (i + 3 >= len(tokens) or tokens[i + 1] != "("
                    or not tokens[i + 2].isdigit() or tokens[i + 3] != ")"):
                raise ValidationError(f"sqrt expects an integer argument in {text!r}")
            return HiReal.sqrt_of(int(tokens[i + 2])), i + 4
        if tok.isdigit():
            return HiReal(int(tok)), i + 1
        if tok[0].isdigit():
            return HiReal.from_decimal_literal(tok), i + 1
        raise ValidationError(f"unexpected token {tok!r} in {text!r}")

    try:
        val, i = parse_expr(0)
    except RecursionError:
        raise ValidationError("expression nested too deeply") from None
    if i != len(tokens):
        raise ValidationError(f"trailing tokens in {text!r}")
    return val


# ------------------------------ convergents ----------------------------------

@dataclass(frozen=True)
class Convergent:
    """A continued-fraction convergent a/q with its exact-enclosure error."""

    a: int
    q: int
    err: Fraction  # upper bound on |x - a/q| over the input enclosure


def continued_fraction(x: HiReal, n_terms: int) -> list[Convergent]:
    """Convergents of the regular continued fraction of x.

    Rational input terminates with the exact final convergent.  For
    interval inputs (decimal literals), emission raises PrecisionError as
    soon as a partial quotient becomes ambiguous, naming the deepest
    trustworthy term.
    """
    if n_terms < 1:
        raise ValidationError("n_terms must be positive")
    lo, hi = x.interval()
    x_lo, x_hi = lo, hi
    convs: list[Convergent] = []
    h1, h0 = 1, 0  # numerators
    k1, k0 = 0, 1  # denominators
    for depth in range(n_terms):
        flo = lo.numerator // lo.denominator
        fhi = hi.numerator // hi.denominator
        if flo != fhi:
            raise PrecisionError(
                f"partial quotient {depth} is ambiguous at the declared "
                f"precision; deepest trustworthy term is {depth - 1}",
                max_depth=depth - 1)
        a = flo
        h1, h0 = a * h1 + h0, h1
        k1, k0 = a * k1 + k0, k1
        approx = Fraction(h1, k1)
        err = max(abs(x_lo - approx), abs(x_hi - approx))
        convs.append(Convergent(a=h1, q=k1, err=err))
        lo_frac, hi_frac = lo - a, hi - a
        if hi_frac == 0:
            break  # exact rational: expansion terminated
        if lo_frac == 0:
            # interval touches an integer: the next quotient is unbounded
            if depth + 1 < n_terms:
                raise PrecisionError(
                    f"partial quotient {depth + 1} is unbounded at the "
                    f"declared precision; deepest trustworthy term is {depth}",
                    max_depth=depth)
            break
        lo, hi = 1 / hi_frac, 1 / lo_frac
    return convs
