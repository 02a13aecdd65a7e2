import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from primearcs import expsums, numutil
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


@pytest.mark.parametrize("size", [1e6, 1e12, 1e15])
def test_frac_phase_exact_at_any_size(size):
    # float64 arguments with |v a| near size: the double-double kernel is
    # within 2^-52 of the exact reduction with no |v a| term (an 80-bit
    # product alone is off by about 2^-64 |v a|), centred in [-1/2, 1/2]
    rng = np.random.default_rng(int(math.log10(size)))
    root = math.sqrt(size)
    values = rng.uniform(0.5, 1.0, 300) * root * rng.choice([-1.0, 1.0], 300)
    alpha = rng.uniform(0.5, 1.0, 300) * root
    got = numutil.frac_phase(values, alpha)
    assert np.all(np.abs(got) <= 0.5)
    worst = 0.0
    for g, v, a in zip(got.tolist(), values.tolist(), alpha.tolist()):
        gap = abs(Fraction(g) - _exact_frac(v, a)) % 1
        worst = max(worst, float(min(gap, 1 - gap)))
    assert worst <= 2.0 ** -52


def _per_term_sum(hi, lo, weights, alpha):
    """math.fsum per part of weights * e_of(...), term by term."""
    z = numutil.e_of((hi, lo), alpha)
    if weights is not None:
        z = weights * z
    return complex(math.fsum(z.real.tolist()), math.fsum(z.imag.tolist()))


def _bits(z):
    return [(x, math.copysign(1.0, x)) for x in (z.real, z.imag)]


@pytest.mark.parametrize("n", [0, 1, 777, numutil._BLOCK, numutil._BLOCK + 1,
                               3 * numutil._BLOCK + 5])
@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("alpha", [1.2345, -0.37, 1e-9, 0.0])
def test_phase_sum_is_per_term_fsum(n, weighted, alpha):
    win = expsums.window(1.05, 1e5, 2e5)  # 54 044 integer powers
    hi, lo = (a[:n] for a in win.powers)
    weights = np.log(win.values[:n].astype(np.float64)) if weighted else None
    got = numutil.phase_sum(hi, lo, weights, alpha)
    assert _bits(got) == _bits(_per_term_sum(hi, lo, weights, alpha))
    if alpha == 0.0:
        # U(0) is the exact count, S(0) the exact log sum, both with +0.0
        want = n if weights is None else math.fsum(weights.tolist())
        assert _bits(got) == _bits(complex(want, 0.0))


def test_phase_sum_nan_alpha():
    hi, lo = expsums.window(1.05, 1e3, 2e3).powers
    for weights in (None, np.ones(len(hi))):
        got = numutil.phase_sum(hi, lo, weights, math.nan)
        assert math.isnan(got.real) and math.isnan(got.imag)


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


# ------------------------------- exact sums ----------------------------------
# fsum_real and fsum_complex must give math.fsum's value bit for bit, or
# raise its exception, on every input.

_finite = st.floats(allow_nan=False, allow_infinity=False)


def _fsum_outcome(fn, *args):
    try:
        return "value", fn(*args)
    except (ValueError, OverflowError) as exc:
        return type(exc).__name__, str(exc)


def _same(a, b) -> bool:
    """Equal outcomes: the same exception, or equal values with the same
    sign of zero (nan matching nan)."""
    if a[0] != "value" or b[0] != "value":
        return a == b
    x, y = complex(a[1]), complex(b[1])
    return all((u == v and math.copysign(1.0, u) == math.copysign(1.0, v))
               or (u != u and v != v)
               for u, v in ((x.real, y.real), (x.imag, y.imag)))


@st.composite
def _wide(draw):
    """Exponents 1e-300 to 1e300 (subnormals and zeros among them), with
    some entries beside their negations."""
    xs = draw(st.lists(_finite.filter(lambda x: abs(x) <= 1e300), max_size=40))
    return xs + [-x for x in xs[:draw(st.integers(0, len(xs)))]]


@st.composite
def _ties(draw):
    """x plus half an ulp of x (a tie math.fsum breaks to even), nudged by
    a far smaller term of either sign or not at all."""
    x = draw(st.floats(1e-290, 1e290))
    half = math.ulp(x) / 2.0
    nudge = draw(st.sampled_from([0.0, 1.0, -1.0])) * half * 2.0 ** -60
    sign = draw(st.sampled_from([1.0, -1.0]))
    return [sign * x, sign * half] + ([sign * nudge] if nudge else [])


@st.composite
def _one_binade(draw):
    """Up to 40 terms of one sign in one binade: the level sum then comes
    close to sigma, where a sigma one binade too small loses bits."""
    e = draw(st.integers(-1000, 1000))
    sign = draw(st.sampled_from([1.0, -1.0]))
    ms = draw(st.lists(st.integers(2 ** 52, 2 ** 53 - 1), min_size=1, max_size=40))
    return [sign * math.ldexp(m, e - 52) for m in ms]


_subnormals = st.lists(st.floats(-2.0 ** -1022, 2.0 ** -1022), max_size=40)
_zeros = st.lists(st.sampled_from([0.0, -0.0]), max_size=40)
_overflowing = st.lists(st.floats(1e307, 1.7e308), min_size=1, max_size=5).map(
    lambda xs: xs + [-xs[0]])
_non_finite = st.lists(st.one_of(_finite, st.sampled_from(
    [math.inf, -math.inf, math.nan, 1.7e308])), max_size=8)
_terms = st.one_of(_wide(), _ties(), _one_binade(), _subnormals, _zeros,
                   _overflowing, _non_finite, st.lists(_finite, max_size=1))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(xs=_terms, shuffle=st.randoms(use_true_random=False))
def test_fsum_real_is_math_fsum(xs, shuffle):
    shuffle.shuffle(xs)
    assert _same(_fsum_outcome(numutil.fsum_real, np.array(xs, dtype=np.float64)),
                 _fsum_outcome(math.fsum, xs))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(re=_terms, im=_terms)
def test_fsum_complex_is_math_fsum_per_part(re, im):
    n = min(len(re), len(im))
    re, im = re[:n], im[:n]
    z = np.empty(n, dtype=complex)
    z.real, z.imag = re, im
    want = _fsum_outcome(lambda: complex(math.fsum(re), math.fsum(im)))
    assert _same(_fsum_outcome(numutil.fsum_complex, z), want)


def test_fsum_complex_window_lengths():
    # window-length arrays take several extraction levels per part
    rng = np.random.default_rng(12)
    for n in (3, 4_750, 54_044):
        z = np.exp(2j * np.pi * rng.random(n)) * 10.0 ** rng.uniform(-8, 3, n)
        want = complex(math.fsum(z.real.tolist()), math.fsum(z.imag.tolist()))
        assert numutil.fsum_complex(z) == want


def test_layering():
    # numutil sits below every other module (errors aside), and expsums,
    # T on a node grid included, runs without circle
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys\n"
        "def pkg(): return sorted(m for m in sys.modules\n"
        "                         if m.startswith('primearcs.'))\n"
        "import primearcs.numutil\n"
        "print(pkg())\n"
        "import primearcs.expsums as ex\n"
        "vals, _ = ex.eval_T_grid(1.05, 100.0, 1e3, [0.1, 0.2],\n"
        "                         [-0.01, 0.0, 0.01], 1e-8)\n"
        "print(vals.shape, 'primearcs.circle' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.splitlines() == [
        "['primearcs.errors', 'primearcs.numutil']", "(2, 3) False"]


def test_fsum_fast_path_kept(table, monkeypatch):
    # S and U on the README grid: each part reaches math.fsum as a few level
    # sums, never as the window (54 044 terms for U); alpha = 0 included,
    # whose imaginary parts are all zero
    seen = []
    real_fsum = math.fsum

    def recording_fsum(items):
        items = list(items)
        seen.append(len(items))
        return real_fsum(items)

    monkeypatch.setattr(numutil.math, "fsum", recording_fsum)
    w = expsums.WindowSpec(X=1e5, k=1.05)
    for alpha in np.linspace(0.0, 2.0, 201):
        expsums.eval_U(w, alpha)
        expsums.eval_S(table, w, alpha)
    assert len(seen) == 4 * 201
    assert max(seen) <= 8


@pytest.fixture(scope="module")
def primes_to_2_25e6():
    from primearcs.primes import build_table
    return build_table(2_250_000).primes_in_range(2, 2_250_000)


def _rounded_extended(n, k):
    return np.asarray(numutil.powk_extended(n, k), np.float64)


@pytest.mark.parametrize("k", [0.9, 1.05, 1.3, 4 / 3, 1.0, 2.0, 3.0])
def test_powk_float64_is_rounded_extended(primes_to_2_25e6, k):
    # every prime below 2.25e6, and every integer of a range whose n^k
    # crosses 2^21, where float64's spacing doubles (past 2^63 at k = 3,
    # so the primes go to powk_extended whole)
    mid = round(2.0 ** (21 / k))
    for n in (primes_to_2_25e6, np.arange(max(2, mid - 3000), mid + 3000)):
        got, exact = numutil.powk_float64(n, k)
        assert got.dtype == np.float64
        assert np.array_equal(got, _rounded_extended(n, k))
        if k in (1.0, 2.0):
            assert exact == 0


def test_powk_float64_fallback_share_and_bound(primes_to_2_25e6, monkeypatch):
    # the docstring's bound on |y1 - powk_extended|, y1 = y0 (1 + delta),
    # holds on every prime below 2.25e6 at k = 1.05, and leaves at most
    # 10% of them to powk_extended, which powers exactly those
    n, k = primes_to_2_25e6, 1.05
    ld = np.longdouble
    y0 = np.power(n.astype(np.float64), k).astype(ld)
    kln = ld(k) * np.log(n.astype(ld))
    delta = kln - np.log(y0)
    err = np.abs(y0 + y0 * delta - numutil.powk_extended(n, k))
    bound = y0 * (ld(2.0 ** -64) * (5 * kln + 4) + delta * delta)
    ulp = np.spacing(y0.astype(np.float64))
    # the errors reach about half the bound: it is not loose by orders
    assert np.all(err < bound) and np.max(err / bound) > 0.25
    assert np.max(err / ulp) < np.max(bound / ulp) < 0.05

    powered = []
    real = numutil.powk_extended

    def counting(m, kk):
        powered.append(np.size(m))
        return real(m, kk)

    monkeypatch.setattr(numutil, "powk_extended", counting)
    _, exact = numutil.powk_float64(n, k)
    assert powered == [exact] and 0 < exact <= 0.1 * len(n)
