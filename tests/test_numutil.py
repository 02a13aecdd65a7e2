import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from primearcs import numutil
from primearcs.errors import PrecisionError


def test_float64_only_longdouble_rejected(monkeypatch):
    # a platform whose longdouble is a plain double (aarch64 macOS, Windows)
    monkeypatch.setattr(numutil.np, "finfo", lambda dtype: SimpleNamespace(nmant=52))
    with pytest.raises(PrecisionError, match="52-bit mantissa"):
        numutil.require_extended_longdouble()


def _exact_frac(v, a) -> Fraction:
    p = Fraction(*v.as_integer_ratio()) * Fraction(*a.as_integer_ratio())
    return p - math.floor(p)


@pytest.mark.parametrize("case", ["1-D", "2-D", "longdouble"])
def test_frac_phase_matches_exact_reduction(case):
    # |f * alpha| up to ~1e12, where a float64 product keeps only ~1e-4
    # of the phase; the extended kernel must stay within 2^-60 |f a| + 2^-52
    rng = np.random.default_rng(7)
    if case == "1-D":
        values = rng.uniform(1.0, 1e6, 200)
        alpha = np.float64(rng.uniform(1e5, 1e6))
    elif case == "2-D":
        values = rng.uniform(1.0, 1e6, 40)[None, :]
        alpha = rng.uniform(-1e6, 1e6, 6)[:, None]
    else:
        values = numutil.powk_extended(np.arange(300_000, 300_200), 1.05)
        alpha = np.float64(1234.5678)
    got = numutil.frac_phase(values, alpha)
    vb, ab = np.broadcast_arrays(np.asarray(values), np.asarray(alpha))
    assert got.shape == vb.shape and got.dtype == np.float64
    worst = 0.0
    for g, v, a in zip(got.ravel(), vb.ravel(), ab.ravel()):
        gap = abs(Fraction(float(g)) - _exact_frac(v, a))
        gap = min(gap, 1 - gap)  # a phase just below 1 may round to 1.0
        bound = 2.0 ** -60 * abs(float(v) * float(a)) + 2.0 ** -52
        worst = max(worst, float(gap) / bound)
    assert worst <= 1.0


def test_pair_integral_periodic_far_out():
    # quarter-integer frequencies make |S|^2 4-periodic; 2^30 periods out
    # (exact in float64) the pair phases d * mid reach 2e11 cycles, where a
    # float64 product keeps only ~1e-5 of a cycle
    freqs = np.arange(200) / 4.0
    coeffs = np.cos(np.arange(200.0))
    near = numutil.exp_pair_integral(freqs, coeffs, 0.25, 0.75)
    far = numutil.exp_pair_integral(freqs, coeffs, 0.25 + 2.0 ** 32,
                                    0.75 + 2.0 ** 32)
    assert far == pytest.approx(near, rel=1e-12)
