"""Prime sieving over the odd numbers and exact Chebyshev-function
evaluation.

A PrimeTable is an immutable sieve product: the ascending primes up to a
limit together with the compensated prefix sums of log p.
PrimeTable.require is the one rule for what a table covers: every prime p
with p^k <= hi exactly when (limit + 1)^k > hi in extended precision.
PrimeTable.jumps is the one source for where theta and psi - theta jump
(the primes, the exact int64 proper prime powers p^m) and their values
there; theta_many(x) and psi_minus_theta_many(x) are a binary search of it
plus one lookup per x.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import ResourceLimitError, TableIntegrityError, ValidationError
from .numutil import compensated_cumsum, powk_extended

# Bytes an up-front size estimate may reach before a build is refused
# with ResourceLimitError (prime tables, integer windows of expsums).
MEMORY_BUDGET = 8 << 30

# Deterministic Miller-Rabin witness set, valid for every n < 3.3e24
# (covers the full 64-bit range).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic primality for 0 <= n < 2^64 (and a fair way beyond)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PrimeTable:
    """Immutable sieve output; safe for concurrent readers.

    The sieve data (limit, primes, theta_prefix) never changes after
    construction; jumps reads theta and psi - theta from it, and
    theta_many and psi_minus_theta_many evaluate them on float arrays
    (psi is their sum).  require refuses every bound the table does not
    cover, for these and for every caller.  ``windows``
    is derived data: expsums.window keeps the prime windows it builds from
    this table there (a few, read-only), so they live and die with the
    table.  It takes no part in comparison or repr.
    """

    limit: int
    primes: np.ndarray          # int64, strictly increasing
    theta_prefix: np.ndarray    # float64, theta_prefix[i] = sum_{j<=i} log p_j
    windows: dict = field(default_factory=dict, init=False, compare=False,
                          repr=False)

    def __post_init__(self):
        if len(self.primes) != len(self.theta_prefix):
            raise ValidationError("primes/theta_prefix length mismatch")

    @property
    def count(self) -> int:
        return len(self.primes)

    def theta_many(self, x: np.ndarray) -> np.ndarray:
        """Vectorized theta for float arrays up to the limit (0 below 2):
        theta_prefix at the count of primes <= floor(x), searched with
        int64 keys."""
        n = np.floor(self._upto_limit(x, "theta_many")).astype(np.int64)
        i = np.searchsorted(self.primes, n, side="right")
        return np.where(i > 0, self.theta_prefix[i - 1], 0.0)

    def psi_minus_theta_many(self, x: np.ndarray) -> np.ndarray:
        """Vectorized psi(x) - theta(x) (proper prime-power mass only) for
        float arrays up to the limit (0 below 4): floor(x) searched among
        jumps(0, max floor(x), proper=True).  No float root is taken."""
        n = np.floor(np.maximum(self._upto_limit(x, "psi_minus_theta_many"),
                                0.0))
        q, F = self.jumps(0, n.max(initial=0.0), proper=True)
        return F[np.searchsorted(q, n, side="right")]

    def _upto_limit(self, x, name: str) -> np.ndarray:
        """x as a float64 array, refused (require) past the primes the
        table knows."""
        x = np.asarray(x, dtype=np.float64)
        self.require(1, x.max(initial=-np.inf), name)
        return x

    def require(self, k: float, hi: float, what: str) -> None:
        """ValidationError naming what unless the table holds every prime p
        with p^k <= hi, that is unless (limit + 1)^k > hi, the power taken
        exactly in extended precision (numutil.powk_extended)."""
        if powk_extended(self.limit + 1, k) <= hi:
            raise ValidationError(
                f"{what}: the primes p with p^{k:g} <= {hi:g} run past "
                f"table limit {self.limit}")

    def jumps(self, lo: float, hi: float,
              proper: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """Where theta jumps in [lo, hi] (the primes there), or psi - theta
        if proper (the proper prime powers), ascending as exact int64 q;
        and F, the function's values: F[0] below lo, F[i + 1] from q[i] on.
        F holds theta_prefix's entries, or the same compensated prefix of
        log p over the proper powers from 4 up.  lo > hi gives no q and
        F = [value below lo]."""
        self.require(1, hi, "jumps")
        if proper:
            qs, base = self._proper_powers(math.floor(max(lo, hi, 0)))
            pref = compensated_cumsum(np.log(base.astype(np.float64)))
        else:
            qs, pref = self.primes, self.theta_prefix
        i = int(np.searchsorted(qs, math.ceil(lo)))
        j = max(i, int(np.searchsorted(qs, math.floor(hi), side="right")))
        F = pref[i - 1:j] if i else np.concatenate(([0.0], pref[:j]))
        return qs[i:j], F

    def _proper_powers(self, top: int) -> tuple[np.ndarray, np.ndarray]:
        """The proper prime powers p^m <= top (m >= 2), exact int64 and
        ascending, with their primes p (level m: p <= _iroot(top, m))."""
        js = [int(np.searchsorted(self.primes, _iroot(top, m), side="right"))
              for m in range(2, top.bit_length())]
        base = np.concatenate([np.empty(0, np.int64)]
                              + [self.primes[:j] for j in js])
        pows = base ** np.repeat(np.arange(2, 2 + len(js)), js)
        order = np.argsort(pows)
        return pows[order], base[order]

    def primes_in_range(self, lo: float, hi: float) -> np.ndarray:
        """All primes p with lo <= p <= hi, ascending."""
        if lo < 0 or hi > self.limit or lo > hi:
            raise ValidationError(
                f"primes_in_range: bad bounds [{lo}, {hi}] for limit {self.limit}")
        i = int(np.searchsorted(self.primes, math.ceil(lo), side="left"))
        j = int(np.searchsorted(self.primes, math.floor(hi), side="right"))
        return self.primes[i:j]


def _iroot(n: int, m: int) -> int:
    """Exact floor(n**(1/m)) for nonnegative integers."""
    if m == 1:
        return n
    if m == 2:
        return math.isqrt(n)
    if n < 2:
        return n
    r = int(round(n ** (1.0 / m)))
    while r > 0 and r ** m > n:
        r -= 1
    while (r + 1) ** m <= n:
        r += 1
    return r


def build_table(limit: int) -> PrimeTable:
    """Sieve of Eratosthenes over the odd numbers up to limit (inclusive).

    One byte per odd number: odd[i] marks 2i + 1, and each odd prime
    p <= sqrt(limit) crosses out p^2, p^2 + 2p, ...  The sieve and an
    estimate of the output size are checked against MEMORY_BUDGET up front.
    """
    if limit < 2:
        raise ValidationError(f"build_table: limit must be >= 2, got {limit}")
    if limit >= 1 << 63:
        raise ValidationError("build_table: limit must fit in a signed 64-bit integer")
    est = int(1.3 * limit / max(math.log(limit), 1.0)) + 64
    if est * 16 + limit // 2 > MEMORY_BUDGET:
        raise ResourceLimitError(
            f"build_table: ~{est} primes at limit {limit} exceed the "
            f"{MEMORY_BUDGET}-byte budget")
    odd = np.ones((limit + 1) // 2, dtype=bool)
    for i in range(1, (math.isqrt(limit) + 1) // 2):
        if odd[i]:
            p = 2 * i + 1
            odd[p * p // 2::p] = False
    # in place, so the build holds no second copy of the primes
    primes = np.flatnonzero(odd).astype(np.int64, copy=False)
    del odd
    primes *= 2
    primes += 1
    primes[0] = 2  # odd[0], the number 1, stands in for 2
    theta_prefix = compensated_cumsum(np.log(primes.astype(np.float64)))
    return PrimeTable(limit=int(limit), primes=primes, theta_prefix=theta_prefix)


# ------------------------------ binary format -------------------------------
# "DPT1" | u64 limit | u64 count.  A table is its limit: load_table sieves
# again, as fast as reading stored primes and checking their theta prefix.
# Files from earlier versions carry the prime gaps and theta prefix after
# the header; those bytes are not read.

_MAGIC = b"DPT1"


def save_table(table: PrimeTable, path: str) -> None:
    with open(path, "wb") as fh:
        fh.write(_MAGIC + struct.pack("<QQ", table.limit, table.count))


def load_table(path: str) -> PrimeTable:
    """build_table at the header's limit; TableIntegrityError on bad magic,
    a truncated header, or a prime count other than the header's."""
    try:
        with open(path, "rb") as fh:
            head = fh.read(20)
    except OSError as exc:
        raise ValidationError(f"cannot read prime table {path}: "
                              f"{exc.strerror or exc}") from exc
    if head[:4] != _MAGIC:
        raise TableIntegrityError(f"{path}: bad magic bytes")
    if len(head) < 20:
        raise TableIntegrityError(f"{path}: truncated header")
    limit, count = struct.unpack_from("<QQ", head, 4)
    table = build_table(limit)
    if table.count != count:
        raise TableIntegrityError(f"{path}: header says {count} primes up to "
                                  f"{limit}, the sieve finds {table.count}")
    return table
