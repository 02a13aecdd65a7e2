import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from primearcs.errors import (ResourceLimitError, TableIntegrityError,
                              ValidationError)
from primearcs.expsums import window
from primearcs.numutil import powk_extended
from primearcs.primes import (_MAGIC, build_table, is_prime, load_table,
                              save_table)

# written by a save_table that stored the prime gaps and the theta prefix
# after the 20-byte header
OLD_FORMAT_TABLE = Path(__file__).parent / "data" / "table_1000_gaps_prefix.bin"


def simple_sieve(limit):
    """Independent oracle: textbook one-shot sieve."""
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, int(limit ** 0.5) + 1):
        if flags[p]:
            flags[p * p::p] = False
    return np.nonzero(flags)[0]


def test_first_primes():
    assert build_table(10).primes.tolist() == [2, 3, 5, 7]


def test_limit_below_minimum():
    with pytest.raises(ValidationError):
        build_table(1)


def test_against_second_sieve():
    # an odd limit past 3 million, against the sieve over all integers
    limit = 3 * (1 << 20) + 17
    assert np.array_equal(build_table(limit).primes, simple_sieve(limit))


def test_every_small_limit_against_is_prime():
    # even and odd limits, and prime squares (9, 25, ..., 361) at the limit
    for limit in range(2, 401):
        want = [n for n in range(limit + 1) if is_prime(n)]
        assert build_table(limit).primes.tolist() == want, limit


@pytest.mark.parametrize("k", [1, 2, 1.05])
def test_require_is_exact(table, k):
    # (limit + 1)^k, rounded up to a float, is refused; the float below it
    # is accepted, as no integer lies between limit and its root
    exact = powk_extended(table.limit + 1, k)
    top = float(exact)
    if top < exact:
        top = np.nextafter(top, np.inf)
    with pytest.raises(ValidationError, match="table limit"):
        table.require(k, top, "probe")
    table.require(k, float(np.nextafter(top, 0.0)), "probe")


def test_root_inside_last_unit_is_served(table):
    # a bound whose root lies in (limit, limit + 1) names no prime past the
    # limit: the window and theta there are those at the limit
    for k in (1.0, 2.0, 1.05):
        at = float(powk_extended(table.limit, k))
        past = float(powk_extended(table.limit + 0.5, k))
        got, want = window(k, 1e3, past, table), window(k, 1e3, at, table)
        assert np.array_equal(got.values, want.values), k
    assert np.array_equal(table.theta_many([table.limit + 0.5]),
                          table.theta_many([float(table.limit)]))


def test_prime_count_1e6(table_large):
    assert int(np.searchsorted(table_large.primes, 10**6, side="right")) == 78498


def test_resource_budget():
    with pytest.raises(ResourceLimitError, match="budget"):
        build_table(10**12)


def psi(table, x):
    """psi = theta + (psi - theta) on a float array."""
    return table.theta_many(x) + table.psi_minus_theta_many(x)


def test_theta_values(table):
    vals = table.theta_many([1.9, 2.0, 10.0])
    assert vals[0] == 0.0
    assert vals[1] == pytest.approx(math.log(2), rel=1e-15)
    assert vals[2] == pytest.approx(
        sum(math.log(p) for p in (2, 3, 5, 7)), rel=1e-14)


def test_theta_monotone(table):
    vals = table.theta_many(np.linspace(0, 10**4, 400))
    assert np.all(np.diff(vals) >= 0)


def test_theta_many_matches_jumps_search(table):
    # one point at a time, at each prime, just below it and at the limit:
    # the int64 search gives the float search among jumps(0, limit) bit
    # for bit
    q, F = table.jumps(0, table.limit)
    xs = [x for p in table.primes[:200].tolist() + table.primes[-50:].tolist()
          for x in (float(p), p - 1e-9, p - 1.0)]
    for x in xs + [0.0, 1.5, float(table.limit)]:
        want = F[np.searchsorted(q, np.floor(np.array([x])), side="right")]
        assert np.array_equal(table.theta_many(np.array([x])), want), x


@pytest.mark.parametrize("name", ["theta_many", "psi_minus_theta_many"])
def test_theta_out_of_range(table, name):
    # past the limit the table no longer knows every prime; the vector
    # forms answered theta(limit) there
    fn = getattr(table, name)
    assert np.all(np.isfinite(fn([1.0, float(table.limit)])))
    with pytest.raises(ValidationError):
        fn([1.0, table.limit + 1])


def test_psi_values(table):
    lam = {2: math.log(2), 3: math.log(3), 4: math.log(2), 5: math.log(5),
           7: math.log(7), 8: math.log(2), 9: math.log(3)}
    two, ten = psi(table, [2.0, 10.0])
    assert two == pytest.approx(math.log(2), rel=1e-15)
    assert ten == pytest.approx(sum(lam.values()), rel=1e-13)
    assert table.psi_minus_theta_many([9.0])[0] == pytest.approx(
        2 * math.log(2) + math.log(3), rel=1e-13)


def test_psi_minus_theta_is_prime_power_mass(table):
    rng = np.random.default_rng(11)
    xs = rng.uniform(10, 5000, size=25)
    for x, got in zip(xs, table.psi_minus_theta_many(xs)):
        direct = sum(math.log(p) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23,
                                           29, 31, 37, 41, 43, 47, 53, 59,
                                           61, 67)
                     for m in range(2, 64) if p ** m <= x)
        assert got == pytest.approx(direct, abs=1e-9)


# proper prime powers p^m (m >= 2) inside the shared 300 000 table
_PRIME_POWERS = sorted(p ** m for p in range(2, 548) if is_prime(p)
                       for m in range(2, 19) if p ** m <= 300_000)


def exact_proper_mass(x):
    """sum of log p over p^m <= floor(x), m >= 2, counted directly."""
    n = math.floor(x)
    return math.fsum(math.log(p) for p in range(2, math.isqrt(max(n, 0)) + 1)
                     if is_prime(p) for m in range(2, 64) if p ** m <= n)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(probes=st.lists(
    st.tuples(st.sampled_from(_PRIME_POWERS),
              st.sampled_from(["at", "minus_one", "just_below"])),
    min_size=1, max_size=12))
@example(probes=[(9, "just_below"), (961, "just_below")])
def test_psi_minus_theta_many_exact_at_prime_powers(table, probes):
    shifts = {"at": lambda q: float(q), "minus_one": lambda q: q - 1.0,
              "just_below": lambda q: q * (1.0 - 1e-13)}
    x = np.array([shifts[kind](q) for q, kind in probes])
    got = table.psi_minus_theta_many(x)
    for xi, gi in zip(x.tolist(), got.tolist()):
        assert gi == pytest.approx(exact_proper_mass(xi), abs=1e-9), xi


def test_psi_minus_theta_many_correctly_rounded(table):
    # within one ulp of the exactly rounded sum of log p over p^m <= x,
    # at every proper prime power q in the table, at q - 1 and just below q
    logs = sorted((p ** m, math.log(p)) for p in range(2, 548) if is_prime(p)
                  for m in range(2, 19) if p ** m <= 300_000)
    x = np.array([s for q, _ in logs for s in (q, q - 1.0, q * (1.0 - 1e-13))],
                 dtype=np.float64)
    got = table.psi_minus_theta_many(x)
    for xi, gi in zip(x.tolist(), got.tolist()):
        want = math.fsum(lp for q, lp in logs if q <= math.floor(xi))
        assert abs(gi - want) <= math.ulp(want), xi


@pytest.fixture(scope="module")
def jump_points(table):
    """The primes and the proper prime powers up to the table limit, by
    is_prime enumeration."""
    primes = [n for n in range(table.limit + 1) if is_prime(n)]
    powers = sorted(p ** m for p in primes[:200] for m in range(2, 19)
                    if p ** m <= table.limit)
    return {False: primes, True: powers}


@pytest.mark.parametrize("proper", [False, True])
def test_jumps_edges(table, jump_points, proper):
    fn = table.psi_minus_theta_many if proper else table.theta_many
    ends = [0, 2, 3.5, 4, 8, 9, 25, 27, 32, 49, 97, 121, 7919, table.limit]
    for lo, hi in [(lo, hi) for lo in ends for hi in ends] + [(-3, 10.5)]:
        q, F = table.jumps(lo, hi, proper)
        assert q.tolist() == [n for n in jump_points[proper] if lo <= n <= hi]
        # F: the value below lo, then the value from each q on
        below = np.array([math.ceil(lo) - 1.0])
        assert np.array_equal(F, fn(np.concatenate((below, q))))
        if lo > hi:
            assert len(q) == 0 and len(F) == 1
    with pytest.raises(ValidationError, match="table limit"):
        table.jumps(0, table.limit + 1, proper)


def test_chebyshev_sanity(table):
    xs = np.linspace(100, 2 * 10**5, 50)
    th, ps = table.theta_many(xs), psi(table, xs)
    assert np.all(th <= ps) and np.all(ps <= 1.04 * xs)


def test_primes_in_range(table):
    assert table.primes_in_range(10, 20).tolist() == [11, 13, 17, 19]
    assert table.primes_in_range(14, 16).tolist() == []
    assert len(table.primes_in_range(10**5, 2 * 10**5)) == 8392
    with pytest.raises(ValidationError):
        table.primes_in_range(20, 10)


def test_range_partition_counts(table):
    full = len(table.primes_in_range(1000, 9000))
    left = len(table.primes_in_range(1000, 4999))
    right = len(table.primes_in_range(5000, 9000))
    assert left + right == full


def test_is_prime_small():
    odd_composites = [1, 9, 15, 21, 25, 27, 33]
    assert not any(is_prime(n) for n in odd_composites)
    assert all(is_prime(n) for n in (2, 3, 5, 7, 11, 13, 97))


def test_is_prime_64bit():
    assert is_prime(2**61 - 1)            # Mersenne prime
    assert not is_prime(10**6 + 1)        # 101 * 9901
    assert not is_prime(3215031751)       # strong pseudoprime to 2,3,5,7
    assert is_prime(18446744073709551557)  # largest prime below 2^64


def test_is_prime_matches_sieve(table):
    ps = set(table.primes_in_range(2, 5000).tolist())
    for n in range(5000):
        assert is_prime(n) == (n in ps)


def test_table_roundtrip(tmp_path, table):
    path = tmp_path / "t.bin"
    save_table(table, str(path))
    assert path.stat().st_size == 20
    back = load_table(str(path))
    assert back.limit == table.limit
    assert np.array_equal(back.primes, table.primes)
    assert np.array_equal(back.theta_prefix, table.theta_prefix)


def test_old_format_table_loads():
    # the bytes after the header are not read; the table is sieved again
    assert OLD_FORMAT_TABLE.stat().st_size > 20
    back, want = load_table(str(OLD_FORMAT_TABLE)), build_table(1000)
    assert back.limit == want.limit == 1000
    assert np.array_equal(back.primes, want.primes)
    assert np.array_equal(back.theta_prefix, want.theta_prefix)


@pytest.mark.parametrize("offset", [5, 12])
def test_table_corruption_detected(tmp_path, table, offset):
    # a bit flip in the header's limit (offset 5) or count (offset 12):
    # the sieve at the stored limit finds another count
    path = tmp_path / "t.bin"
    save_table(table, str(path))
    blob = bytearray(path.read_bytes())
    blob[offset] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(TableIntegrityError, match="the sieve finds"):
        load_table(str(path))


def test_table_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE" + b"\0" * 64)
    with pytest.raises(TableIntegrityError):
        load_table(str(path))


@pytest.mark.parametrize("size", [4, 7, 19])
def test_table_truncated_header(tmp_path, size):
    path = tmp_path / "short.bin"
    path.write_bytes((_MAGIC + b"\7" * 16)[:size])
    with pytest.raises(TableIntegrityError, match="truncated header"):
        load_table(str(path))


def test_theta_prefix_per_term_rounding(table):
    # each prefix entry is exact up to its own float64 rounding, so the
    # deltas recover log p within a couple of ulps of the running sum
    pref = np.concatenate(([0.0], table.theta_prefix))
    deltas = np.diff(pref)
    logs = np.log(table.primes.astype(np.float64))
    ulps = np.finfo(np.float64).eps * np.maximum(pref[1:], 1.0)
    assert np.all(np.abs(deltas - logs) <= 2.5 * ulps)
