"""Segmented prime sieving and exact Chebyshev-function evaluation.

A PrimeTable is an immutable sieve product: the ascending primes up to a
limit together with the compensated prefix sums of log p.  PrimeTable.jumps
is the one source for where theta and psi - theta jump (the primes, the
exact int64 proper prime powers p^m) and their values there; theta(x) and
(psi - theta)(x) are a binary search of it plus one lookup.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import ResourceLimitError, TableIntegrityError, ValidationError
from .numutil import compensated_cumsum

DEFAULT_SEGMENT = 1 << 20
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


def _small_primes(limit: int) -> np.ndarray:
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p::p] = False
    return np.nonzero(sieve)[0].astype(np.int64)


@dataclass(frozen=True)
class PrimeTable:
    """Immutable sieve output; safe for concurrent readers.

    The sieve data (limit, primes, theta_prefix) never changes after
    construction; jumps reads theta and psi - theta from it.  ``windows``
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

    def theta(self, x: float) -> float:
        """theta(x) = sum_{p <= x} log p: theta_many at the one point x."""
        if x < 0 or x > self.limit:
            raise ValidationError(f"theta: x={x} outside [0, {self.limit}]")
        return float(self.theta_many([x])[0])

    def theta_many(self, x: np.ndarray) -> np.ndarray:
        """Vectorized theta for float arrays within [0, limit]: theta_prefix
        at the count of primes <= floor(x), searched with int64 keys."""
        n = np.floor(np.asarray(x, dtype=np.float64)).astype(np.int64)
        i = np.searchsorted(self.primes, n, side="right")
        return np.where(i > 0, self.theta_prefix[i - 1], 0.0)

    def psi(self, x: float) -> float:
        """psi(x) = theta(x) + (psi - theta)(x): the vector evaluators at
        the one point x."""
        if x < 0 or x > self.limit:
            raise ValidationError(f"psi: x={x} outside [0, {self.limit}]")
        xs = [x]
        return float((self.theta_many(xs) + self.psi_minus_theta_many(xs))[0])

    def psi_minus_theta_many(self, x: np.ndarray) -> np.ndarray:
        """Vectorized psi(x) - theta(x) (proper prime-power mass only) for
        float arrays within [0, limit]: floor(x) searched among
        jumps(0, max floor(x), proper=True).  No float root is taken."""
        n = np.floor(np.maximum(np.asarray(x, dtype=np.float64), 0.0))
        q, F = self.jumps(0, min(n.max(initial=0.0), self.limit), proper=True)
        return F[np.searchsorted(q, n, side="right")]

    def jumps(self, lo: float, hi: float,
              proper: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """Where theta jumps in [lo, hi] (the primes there), or psi - theta
        if proper (the proper prime powers), ascending as exact int64 q;
        and F, the function's values: F[0] below lo, F[i + 1] from q[i] on.
        F holds theta_prefix's entries, or the same compensated prefix of
        log p over the proper powers from 4 up.  lo > hi gives no q and
        F = [value below lo]."""
        if hi > self.limit:
            raise ValidationError(f"jumps: hi={hi} past table limit {self.limit}")
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


def build_table(limit: int, segment_size: int = DEFAULT_SEGMENT,
                max_bytes: int = MEMORY_BUDGET) -> PrimeTable:
    """Segmented sieve of Eratosthenes up to limit (inclusive).

    Memory stays near segment_size bytes plus the output arrays; an
    estimate of the output size is checked against max_bytes up front.
    """
    if limit < 2:
        raise ValidationError(f"build_table: limit must be >= 2, got {limit}")
    if limit >= 1 << 63:
        raise ValidationError("build_table: limit must fit in a signed 64-bit integer")
    est = int(1.3 * limit / max(math.log(limit), 1.0)) + 64
    if est * 16 + segment_size > max_bytes:
        raise ResourceLimitError(
            f"build_table: ~{est} primes at limit {limit} exceed the "
            f"{max_bytes}-byte budget")
    root = math.isqrt(limit)
    base = _small_primes(max(root, 2))
    base = base[base.astype(np.int64) ** 2 <= limit]
    out = []
    start = 2
    while start <= limit:
        stop = min(start + segment_size - 1, limit)
        seg = np.ones(stop - start + 1, dtype=bool)
        for p in base:
            p = int(p)
            if p * p > stop:
                break
            first = max(p * p, ((start + p - 1) // p) * p)
            seg[first - start::p] = False
        out.append(np.nonzero(seg)[0].astype(np.int64) + start)
        start = stop + 1
    primes = np.concatenate(out)
    theta_prefix = compensated_cumsum(np.log(primes.astype(np.float64)))
    return PrimeTable(limit=int(limit), primes=primes, theta_prefix=theta_prefix)


# ------------------------------ binary format -------------------------------
# "DPT1" | u64 limit | u64 count | varint-encoded prime gaps | f64 prefix[]

_MAGIC = b"DPT1"


def _encode_varints(values: np.ndarray) -> bytes:
    """LEB128 bytes of nonnegative int64 values: 7-bit groups, low first,
    the high bit set on every byte but a value's last."""
    v = np.asarray(values, dtype=np.int64)
    nbytes = np.ones(v.shape, dtype=np.int64)
    rest = v >> 7
    while np.any(rest):
        nbytes += rest != 0
        rest >>= 7
    first = np.cumsum(nbytes) - nbytes
    out = np.empty(int(nbytes.sum()), dtype=np.uint8)
    for j in range(int(nbytes.max(initial=0))):
        live = nbytes > j
        more = (nbytes[live] > j + 1) << 7
        out[first[live] + j] = ((v[live] >> 7 * j) & 0x7F) | more
    return out.tobytes()


def _decode_varints(data: bytes, count: int) -> np.ndarray:
    """Inverse of _encode_varints: each value ends at a byte with its high
    bit clear; bytes after the last such terminator are ignored."""
    b = np.frombuffer(data, dtype=np.uint8)
    ends = np.flatnonzero(b < 0x80)
    if len(ends) > count:
        raise TableIntegrityError("varint stream longer than declared count")
    if len(ends) != count:
        raise TableIntegrityError(
            f"varint stream ended after {len(ends)} of {count} primes")
    if count == 0:
        return np.empty(0, dtype=np.int64)
    starts = np.concatenate(([0], ends[:-1] + 1))
    # 9 groups of 7 bits are the most an int64 can hold
    if np.any(ends - starts >= 9):
        raise TableIntegrityError("varint value overflows 64 bits")
    pos = np.arange(ends[-1] + 1) - np.repeat(starts, ends - starts + 1)
    parts = (b[:ends[-1] + 1] & 0x7F).astype(np.int64) << (7 * pos)
    return np.add.reduceat(parts, starts)


def save_table(table: PrimeTable, path: str) -> None:
    gaps = np.diff(table.primes, prepend=np.int64(0))
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<QQ", table.limit, table.count))
        fh.write(_encode_varints(gaps))
        fh.write(table.theta_prefix.astype("<f8").tobytes())


def load_table(path: str) -> PrimeTable:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read prime table {path}: "
                              f"{exc.strerror or exc}") from exc
    if data[:4] != _MAGIC:
        raise TableIntegrityError(f"{path}: bad magic bytes")
    if len(data) < 20:
        raise TableIntegrityError(f"{path}: truncated header")
    limit, count = struct.unpack_from("<QQ", data, 4)
    tail = data[20:]
    prefix_bytes = 8 * count
    if len(tail) < prefix_bytes:
        raise TableIntegrityError(f"{path}: truncated file")
    gaps = _decode_varints(tail[:-prefix_bytes] if count else tail, count)
    primes = np.cumsum(gaps)
    theta_prefix = np.frombuffer(tail[len(tail) - prefix_bytes:], dtype="<f8").copy()
    table = PrimeTable(limit=int(limit), primes=primes, theta_prefix=theta_prefix)
    _validate_table(table, path)
    return table


def _validate_table(table: PrimeTable, path: str) -> None:
    p = table.primes
    if len(p) == 0 or p[0] != 2:
        raise TableIntegrityError(f"{path}: prime list does not start at 2")
    if np.any(np.diff(p) <= 0) or p[-1] > table.limit:
        raise TableIntegrityError(f"{path}: prime list not increasing within limit")
    # the whole prefix, recomputed as build_table makes it; the slack
    # allows for a libm whose log differs in the last bit
    want = compensated_cumsum(np.log(p.astype(np.float64)))
    ok = np.abs(table.theta_prefix - want) <= 1e-12 * np.maximum(want, 1.0)
    if not ok.all():
        raise TableIntegrityError(f"{path}: theta prefix inconsistent with "
                                  f"primes at index {int(np.argmin(ok))}")
