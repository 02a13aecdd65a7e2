"""High-precision carriers for coefficient ratios, continued fractions
and their convergents.

A HiReal is an element of Q or of a real quadratic field Q(sqrt(d)),
optionally widened to an interval when it came from a decimal literal
with a declared number of significant digits.  Continued-fraction terms
are emitted from exact Fraction-interval arithmetic and stop as soon as
the floor of the interval becomes ambiguous, so no partial quotient is
ever silently wrong.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import PrecisionError, ValidationError

_SQRT_BITS = 4096  # fractional bits carried for surd enclosures


def _sqrt_interval(d: int, bits: int = _SQRT_BITS) -> tuple[Fraction, Fraction]:
    """Enclosure [lo, hi] of sqrt(d) with hi - lo = 2^-bits."""
    s = math.isqrt(d << (2 * bits))
    lo = Fraction(s, 1 << bits)
    return lo, lo + Fraction(1, 1 << bits)


class HiReal:
    """Exact or declared-precision real number.

    Internally (p + q*sqrt(d)) / r with integer p, q, r plus an interval
    half-width ``uncertainty`` (zero for exact inputs).  Supports the
    arithmetic parse_hireal combines two HiReals with: +, -, *, /, negation.
    """

    __slots__ = ("p", "q", "d", "r", "uncertainty")

    def __init__(self, p: int, q: int = 0, d: int = 1, r: int = 1,
                 uncertainty: Fraction = Fraction(0)):
        if r == 0:
            raise ZeroDivisionError("HiReal with zero denominator")
        if d < 1:
            raise ValidationError("HiReal radicand must be a positive integer")
        if q == 0:
            d = 1
        if r < 0:
            p, q, r = -p, -q, -r
        g = math.gcd(math.gcd(abs(p), abs(q)), r)
        self.p, self.q, self.d, self.r = p // g, q // g, d, r // g
        self.uncertainty = uncertainty

    # ---- constructors ----
    @classmethod
    def from_decimal_literal(cls, text: str, digits: int | None = None) -> "HiReal":
        """Decimal string, plain or in exponent form (``2.5e-1``), with
        ``digits`` trustworthy significant digits: by default those written
        in the mantissa.

        The value is the literal read exactly; the uncertainty is half a
        unit in the last declared digit.
        """
        text = text.strip()
        exact = Fraction(text)
        if digits is None:
            mantissa = re.split("[eE]", text)[0].lstrip("+-0.").replace(".", "")
            digits = len(mantissa) if mantissa else 1
        if exact == 0:
            scale = Fraction(1)
        else:
            mag = abs(exact)
            if mag >= 1:
                exp10 = len(str(mag.numerator // mag.denominator))
            else:
                exp10 = 1 - next(i for i in range(1, 10**6) if mag * 10**i >= 1)
            scale = Fraction(10) ** (exp10 - digits)
        out = cls(exact.numerator, 0, 1, exact.denominator,
                  uncertainty=scale / 2)
        return out

    @classmethod
    def sqrt_of(cls, d: int) -> "HiReal":
        if d < 0:
            raise ValidationError("sqrt of a negative integer is not real")
        root = math.isqrt(d)
        if root * root == d:
            return cls(root)
        return cls(0, 1, d, 1)

    # ---- views ----
    def interval(self) -> tuple[Fraction, Fraction]:
        """Exact enclosure [lo, hi] of the value."""
        if self.q == 0:
            mid = Fraction(self.p, self.r)
            lo = hi = mid
        else:
            slo, shi = _sqrt_interval(self.d)
            a = Fraction(self.p) + self.q * (slo if self.q > 0 else shi)
            b = Fraction(self.p) + self.q * (shi if self.q > 0 else slo)
            lo, hi = a / self.r, b / self.r
        return lo - self.uncertainty, hi + self.uncertainty

    def to_float(self) -> float:
        lo, hi = self.interval()
        try:
            return float((lo + hi) / 2)
        except OverflowError:
            raise ValidationError("value beyond the float range") from None

    def __repr__(self):
        if self.q == 0:
            core = f"{Fraction(self.p, self.r)}"
        else:
            core = f"({self.p} + {self.q}*sqrt({self.d}))/{self.r}"
        tag = "" if self.uncertainty == 0 else f" ± {float(self.uncertainty):.1e}"
        return f"HiReal({core}{tag})"

    # ---- arithmetic with another HiReal (inside one quadratic field) ----
    def _common_d(self, other: "HiReal") -> int:
        if self.q == 0:
            return other.d
        if other.q == 0 or other.d == self.d:
            return self.d
        raise ValidationError(
            f"mixed radicands sqrt({self.d}) and sqrt({other.d}) are unsupported")

    def __neg__(self):
        return HiReal(-self.p, -self.q, self.d, self.r, self.uncertainty)

    def __add__(self, o: "HiReal") -> "HiReal":
        d = self._common_d(o)
        p = self.p * o.r + o.p * self.r
        q = self.q * o.r + o.q * self.r
        return HiReal(p, q, d, self.r * o.r, self.uncertainty + o.uncertainty)

    def __sub__(self, o: "HiReal") -> "HiReal":
        return self + (-o)

    def __mul__(self, o: "HiReal") -> "HiReal":
        d = self._common_d(o)
        # (p1 + q1 s)(p2 + q2 s) = p1 p2 + q1 q2 d + (p1 q2 + q1 p2) s
        p = self.p * o.p + self.q * o.q * d
        q = self.p * o.q + self.q * o.p
        unc = (self.uncertainty * abs(o) + o.uncertainty * abs(self)
               + self.uncertainty * o.uncertainty)
        return HiReal(p, q, d, self.r * o.r, unc)

    def __abs__(self) -> Fraction:
        lo, hi = self.interval()
        return max(abs(lo), abs(hi))

    def inverse(self) -> "HiReal":
        if self.p == 0 and self.q == 0:
            raise ValidationError("division by zero")
        # r / (p + q s) = r (p - q s) / (p^2 - q^2 d)
        norm = self.p * self.p - self.q * self.q * self.d
        inv = HiReal(self.r * self.p, -self.r * self.q, self.d, norm)
        if self.uncertainty:
            lo, hi = self.interval()
            if lo <= 0 <= hi:
                raise PrecisionError("inverse of an interval containing zero")
            bound = min(abs(lo), abs(hi))
            inv = HiReal(inv.p, inv.q, inv.d, inv.r,
                         self.uncertainty / (bound * bound))
        return inv

    def __truediv__(self, o: "HiReal") -> "HiReal":
        return self * o.inverse()


# --------------------------- expression parsing ------------------------------

# a decimal exponent has at most two digits: Fraction reads a literal
# exactly, and 1e999999999 would cost it a billion-digit power of ten
_TOKEN = re.compile(
    r"\s*(sqrt|\d+(?:\.\d+)?(?:[eE][+-]?\d{1,2}(?!\d))?|[()+\-*/])")


def parse_hireal(text: str) -> HiReal:
    """Parse expressions like ``-sqrt(2)``, ``(1+sqrt(5))/2``, ``355/113``,
    ``1.41421356237``, ``2.5e-1`` into a HiReal.

    Decimal literals carry their written number of significant digits as
    the declared precision; everything else is exact.
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

    val, i = parse_expr(0)
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

    @property
    def err_float(self) -> float:
        return float(self.err)


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
