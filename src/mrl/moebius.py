"""Exact integer-side computations around the Moebius function.

Segmented numpy sieving of mu(n) (a log-sum sieve in bytes, _segment_mu),
the summatory function M(x), Riesz-weighted means, piecewise-exact integrals
of M(u) against power weights and their sign changes, the logarithmic
density of {t : |M(t)| <= sqrt(t)}, and tau scans.

Two routes serve them.  Quantities whose weight is a polynomial of degree
<= 3 in n need only the exact sums S_j(x) = sum_{n<=x} mu(n) n^j, j <= 3,
which _mu_power_sums finds in time about x^(2/3) from a sieved table and the
Deleglise-Rivat identity, as residues joined by the CRT: M(x) = S_0, the
Riesz means at tau = 0, 1, 2, 3 (M_1 = S_0 - S_1/x, and so on) and the
integrals of M(u) u^(-kappa) over [1, x] at kappa = 0, -1, -2
((x^a S_0 - S_a)/a, a = 1 - kappa).
Everything else needs M pointwise and streams mu from n = 1 (_stream), sieved
in blocks and consumed in cache-sized chunks.  sieve_segment, mertens,
riesz_mean_direct, integral_M, density_S and tau_regime_scan take an optional
CheckpointCache, in which the stream records (x, M(x)) at the cache's stride;
no M value is kept between calls otherwise.  The other integrals of
M(u) u^(-kappa), that of (M(u)/u)^2 and the sign-change scan read one
stream of closed-form unit-interval pieces (_integral_pieces).

Everything here is integer-exact where the mathematics is (mu, M) and
rounding-exact where only the final weighting is real-valued.  A streamed sum
is correctly rounded once per rounding block of _BLOCK = 2^20 integers
counted from n = 1, whatever the chunk size, and the block sums are added
with fsum (_BlockSums); the density instead subtracts its few short
intervals from a closed form (density_S).  Integrands are constant (or polynomial) on unit
intervals, so integrals are evaluated in closed form per interval, never by
approximate quadrature.
"""

from __future__ import annotations

import itertools
import math
import os
import struct
import uuid
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, OutOfRange, ParseError, ScheduleUndefined
from .kernel import _check_finite, _check_tau, _exact_parts, zeta

__all__ = [
    "SIEVE_MAX",
    "CHECKPOINT_STRIDE",
    "MoebiusSegment",
    "MertensCheckpoint",
    "CheckpointCache",
    "RieszQuery",
    "TauSchedule",
    "sieve_segment",
    "mertens",
    "riesz_mean_direct",
    "integral_M",
    "weak_mertens_integral",
    "divim_sign_changes",
    "density_S",
    "tau_regime_scan",
    "tau_for",
]

# Hard ceiling for x: a cost guard for the streams, which are linear, and the
# bound from which _RESIDUES takes how many moduli each exact S_j needs.
SIEVE_MAX = 10**9

# Default spacing between persisted Mertens checkpoints.
CHECKPOINT_STRIDE = 10**6

# The stream sieves blocks of _BLOCK integers counted from n = 1 (one prime
# loop per block), and its sums are rounded once per block.  Consumers take
# a block in chunks of min(_CHUNK, _BLOCK) integers, so their float
# temporaries stay in a core's L2 cache (CHANGES.md has the table).  Both
# are powers of two, so a block is a run of whole chunks.
_BLOCK = 1 << 20
_CHUNK = 1 << 14

_CHECKPOINT_MAGIC = b"MRTC0002"
_CHECKPOINT_RECORD = struct.Struct("<Qq")


@dataclass(frozen=True)
class MoebiusSegment:
    """mu(n) for n in [lo, hi), plus the running Mertens value at the left edge."""

    lo: int
    hi: int
    mu: np.ndarray  # int8 values in {-1, 0, +1}
    mertens_at_lo_minus_1: int


@dataclass
class MertensCheckpoint:
    """M(x), frozen at x."""

    x: int
    M: int


@dataclass(frozen=True)
class RieszQuery:
    """Parameters of a Riesz-weighted Mertens query."""

    x: float
    tau: float = 0.0


@dataclass(frozen=True)
class TauSchedule:
    """A named tau schedule: constant c, c/log x, or the iterated-log form
    c * log log x / log log log log x."""

    kind: str  # "constant" | "inv-log" | "iterated-log"
    c: float = 1.0


# ---------------------------------------------------------------------------
# Sieving and summation primitives
# ---------------------------------------------------------------------------


@lru_cache(maxsize=8)
def _primes_upto(limit: int) -> np.ndarray:
    """Primes <= limit by a plain boolean sieve."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    is_prime = np.ones(limit + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    return np.nonzero(is_prime)[0].astype(np.int64)


def _table_limit(n_max: int) -> int:
    """Top of the prime table that serves values up to n_max: a power of two
    >= max(64, sqrt(n_max)), so tables are cached in coarse steps."""
    return 1 << (max(64, math.isqrt(max(n_max, 1))) - 1).bit_length()


@lru_cache(maxsize=8)
def _prime_costs(limit: int) -> np.ndarray:
    """The sieve cost c_p = 2 floor(2 log2 p) + 1 of each prime of
    _primes_upto(limit), as uint8: floor(2 log2 p) = floor(log2 p^2) is
    the bit length of p^2 less one, exactly."""
    return np.array([2 * (p * p).bit_length() - 1 for p in _primes_upto(limit).tolist()],
                    dtype=np.uint8)


def _omega_bound(n_max: int) -> int:
    """A bound w >= 1 on omega(n), the number of distinct prime factors, for
    every n <= n_max: the product of the first omega(n) primes is <= n."""
    w, primorial = 0, 1
    for p in _primes_upto(64).tolist():
        primorial *= p
        if primorial > n_max:
            break
        w += 1
    return max(w, 1)


def _root_floor(w: int) -> int:
    """The least R with R^2 >= 2^(w+1), so 4 log2 R >= 2w + 2."""
    return math.isqrt((1 << (w + 1)) - 1) + 1


# The costs of 2, 3, 5, 7 repeat with period 210; the wheel tiles them in a
# multiple of it, 4 * 9 * 25 * 49, so a 2^20 block takes 24 copies.
_WHEEL = 44100

# _segment_mu takes n < _SEGMENT_MAX: there the costs of n's primes sum to
# at most 4 log2 n + omega(n) <= 160 + 11 < 2^8, and the prime table stops
# at 2^20.
_SEGMENT_MAX = 1 << 40


@lru_cache(maxsize=1)
def _wheel() -> np.ndarray:
    """At residue r in [0, _WHEEL): the sum of c_p over the primes p among
    2, 3, 5, 7 that divide r."""
    costs = np.zeros(_WHEEL, dtype=np.uint8)
    for p in (2, 3, 5, 7):
        costs[::p] += 2 * (p * p).bit_length() - 1
    return costs


def _segment_mu(lo: int, hi: int) -> np.ndarray:
    """Exact mu(n) for n in [lo, hi) from a log-sum sieve in one uint8 array.

    Every prime p <= R = max(isqrt(hi - 1), R_w), and 2, 3, 5, 7 tiled from
    the wheel, adds its odd cost c_p = 2 floor(2 log2 p) + 1 at its
    multiples, so s[i] sums c_p over the sieved primes that divide n = lo + i
    and its low bit is the parity of their number.  Then the multiples of
    each p^2 are zeroed.  A squarefree n < (R + 1)^2 has at most one prime
    factor above R, and s tells whether it has one.  Let 2^k <= n < 2^(k+1),
    let w >= 1 bound omega(n) on [lo, hi) (_omega_bound), and note that
    4 log2 p - 1 < c_p <= 4 log2 p + 1:

    - with none, s > 4 log2 n - omega(n) >= 4k - w, so s >= T_k = 4k - w + 1
      (n = 1, which has no prime factor, sums to 0 = T_0);
    - with one, q > R, n = m q and omega(m) <= w - 1, so s <= 4 log2 m +
      w - 1 < 4(k + 1) - 4 log2 R + w - 1 <= T_k, since 4 log2 R_w >= 2w + 2
      (_root_floor).

    T_k is clamped at 0, which only the first case reaches.  So mu(n) is
    (-1)^s on a squarefree n, flipped where s < T_k.  With n < _SEGMENT_MAX,
    s and T_k fit in a byte.
    """
    n_max = hi - 1
    if n_max >= _SEGMENT_MAX:
        raise OutOfRange(f"need hi - 1 < 2^40, got hi = {hi}")
    w = _omega_bound(n_max)
    root = max(math.isqrt(n_max), _root_floor(w))
    limit = _table_limit(root * root)
    primes, costs = _primes_upto(limit), _prime_costs(limit)
    stop = int(np.searchsorted(primes, root, side="right"))
    # primes[:4] are the wheel's 2, 3, 5, 7
    primes, costs = primes[4:stop], costs[4:stop]
    s = np.resize(np.roll(_wheel(), -(lo % _WHEEL)), hi - lo)
    for p, c in zip(primes.tolist(), costs.tolist()):
        s[-lo % p :: p] += c
    big = np.empty(hi - lo, dtype=bool)
    for k in range(int(lo).bit_length() - 1, int(n_max).bit_length()):
        a, b = max(lo, 1 << k) - lo, min(hi, 2 << k) - lo
        np.less(s[a:b], max(0, 4 * k - w + 1), out=big[a:b])
    s &= 1
    s ^= big.view(np.uint8)
    mu = s.view(np.int8)
    mu *= -2
    mu += 1
    # a square above hi - lo has at most one multiple here: one assignment
    squares = np.concatenate(([4, 9, 25, 49], primes * primes))
    few = int(np.searchsorted(squares, hi - lo, side="right"))
    for q in squares[:few].tolist():
        mu[-lo % q :: q] = 0
    starts = -lo % squares[few:]
    mu[starts[starts < hi - lo]] = 0
    return mu


def _check_x(x: float, least: float = 1.0, name: str = "x") -> None:
    """Refuse a real bound below least, or NaN (DomainError), and one whose
    floor passes SIEVE_MAX (OutOfRange), before anything floors it: floor(inf)
    overflows."""
    if not x >= least:
        raise DomainError(f"{name} must be >= {least:g}, got {x}")
    if not x < SIEVE_MAX + 1:
        raise OutOfRange(f"{name} = {x} exceeds supported maximum {SIEVE_MAX}")


# ---------------------------------------------------------------------------
# Sublinear power sums S_j(v) = sum of mu(n) n^j over n <= v, j <= 3
# ---------------------------------------------------------------------------

# The power sums are found as residues.  numpy's uint64 arithmetic wraps, so
# it works mod 2^64 by itself; the two primes below 2^31 keep every product
# of two residues below 2^62 in int64.  S_j takes the shortest run of moduli
# whose product exceeds 2 W_j(SIEVE_MAX) >= 2 |S_j(x)| (_RESIDUES), and the
# CRT (_crt) recovers it from them.
_MODULI = (1 << 64, 2**31 - 1, 2**31 - 19)
_WRAP = _MODULI[0]
_MAX_DEGREE = 3
# The Riesz exponents tau, and the 1 - kappa of the integrals, whose weight
# is a polynomial in n that the power sums serve exactly.
_EXACT_DEGREES = range(_MAX_DEGREE + 1)


def _faulhaber(n: int, j: int) -> int:
    """W_j(n) = sum of d^j over 1 <= d <= n, for j <= 3 (Faulhaber)."""
    t = n * (n + 1) // 2
    return (n, t, t * (2 * n + 1) // 3, t * t)[j]


_RESIDUES = tuple(
    next(c for c in range(1, len(_MODULI) + 1)
         if math.prod(_MODULI[:c]) > 2 * _faulhaber(SIEVE_MAX, j))
    for j in range(_MAX_DEGREE + 1)
)


def _residue_rows(degree: int) -> list[tuple[int, int]]:
    """(p, j) for each residue mod p of each S_j, j <= degree, in ascending
    order of j, so the rows of a smaller degree come first."""
    return [(p, j) for j in range(degree + 1) for p in _MODULI[: _RESIDUES[j]]]


def _reduce(a: np.ndarray, p: int) -> np.ndarray:
    """An integer array mod p, in [0, p); uint64 arithmetic has already
    wrapped at 2^64.  (floor_divide by a constant is several times faster
    than remainder.)"""
    return a if p == _WRAP else a - a // p * p


def _residues(a: np.ndarray, p: int) -> np.ndarray:
    """The array a of integers below 2^63 mod p: as uint64, which wraps, at
    p = 2^64, else as int64."""
    if p == _WRAP:
        return a.astype(np.uint64, copy=False)
    return _reduce(a, p).astype(np.int64, copy=False)


def _dot(a: np.ndarray, b: np.ndarray, p: int) -> int:
    """The dot product of two residue arrays, mod p up to a multiple of p.
    Mod a prime each product, below 2^62 in magnitude, is reduced first."""
    return int(a @ b) if p == _WRAP else int(_reduce(a * b, p).sum())


def _faulhaber_factors(n: np.ndarray, degree: int) -> list[tuple[np.ndarray, ...]]:
    """For each j <= degree, factors whose product is W_j(n), for an integer
    array n <= SIEVE_MAX.

    Nothing divides mod p, so the factors 2 and 3 of Faulhaber's forms are
    divided out here, exactly: n (n + 1) < 2^63 gives t = n (n + 1)/2, and 3
    divides t or else 2n + 1.
    """
    factors: list[tuple[np.ndarray, ...]] = [(n,)]
    if degree >= 1:
        t = n * (n + 1) >> 1
        factors.append((t,))
    if degree >= 2:
        third, s = t % 3 == 0, 2 * n + 1
        factors.append((np.where(third, t // 3, t), np.where(third, s, s // 3)))
    if degree >= 3:
        factors.append((t, t))
    return factors


def _product(factors: tuple[np.ndarray, ...], p: int) -> np.ndarray:
    """The product of integer arrays below 2^63, mod p."""
    w = _residues(factors[0], p)
    for f in factors[1:]:
        w = _reduce(w * _residues(f, p), p)
    return w


def _crt(residues: list[int]) -> int:
    """The integer s with |s| < M/2 and s = residues[i] mod _MODULI[i], where
    M is the product of the first len(residues) moduli."""
    s, m = 0, 1
    for r, p in zip(residues, _MODULI):
        s += m * ((r - s) * pow(m, -1, p) % p)
        m *= p
    return s - m if 2 * s >= m else s


def _power_sum_limit(x: int) -> int:
    """Top L of the sieved table that serves _mu_power_sums(x):
    min(x, max(x^(2/3), 64 sqrt x)), below 2^21 for x <= SIEVE_MAX."""
    return min(x, max(int(x ** (2.0 / 3.0)), 64 * math.isqrt(x)))


def _mu_times_power(mu: np.ndarray, j: int, out: np.ndarray) -> None:
    """Write mu(n) n^j for n = 1..len(mu) into the int64 array out, exactly
    (n < 2^21, so n^3 < 2^63).  n is written as the outer sum of two short
    ranges, so nothing as long as mu is allocated."""
    width = 1 << 10
    whole = len(out) - len(out) % width
    np.add.outer(np.arange(0, whole, width), np.arange(1, width + 1),
                 out=out[:whole].reshape(-1, width))
    out[whole:] = np.arange(whole + 1, len(out) + 1)
    if j > 1:
        np.power(out, j, out=out)
    out *= mu


def _power_sum_table(x_floor: int, degree: int) -> list[np.ndarray]:
    """S_j(v) mod p for 0 <= v <= _power_sum_limit(x_floor), one array per
    (p, j) of _residue_rows(degree), from one sieve of [1, L].  Each row is
    built in place (terms, reduction mod p, running sum), so a table
    allocates its rows and the sieve and nothing else as long."""
    limit = _power_sum_limit(x_floor)
    mu = _segment_mu(1, limit + 1)
    tables = []
    for p, j in _residue_rows(degree):
        table = np.empty(limit + 1, dtype=np.int64)
        table[0] = 0
        terms = table[1:]
        if j == 0:  # mod 2^64 only; |S_0(v)| <= L
            np.copyto(terms, mu)
        else:
            _mu_times_power(mu, j, terms)
        if p == _WRAP:
            np.cumsum(terms.view(np.uint64), out=terms.view(np.uint64))
            tables.append(table.view(np.uint64))
        else:
            # the L terms sum to at most W_j(L) in magnitude; past 2^63
            # they are reduced below 2^31 first, so the sum cannot overflow
            if _faulhaber(limit, j) >= 1 << 63:
                np.remainder(terms, p, out=terms)
            np.cumsum(terms, out=terms)
            tables.append(np.remainder(table, p, out=table))
    return tables


def _mu_power_sums(
    x_floor: int, degree: int, tables: list[np.ndarray] | None = None
) -> tuple[int, ...]:
    """Exact (S_0(x), ..., S_degree(x)) for integer 1 <= x <= SIEVE_MAX and
    degree <= 3, in time about x^(2/3), without streaming mu from n = 1.

    n^j is completely multiplicative, so sum_{d <= v} d^j S_j(floor(v/d)) = 1
    (Deleglise-Rivat).  With r = isqrt(v), the terms d <= r are read one by
    one; the terms d > r fall into groups with one quotient q <= v//(r+1) <= r
    each, weighted by W_j(v//q) - W_j(v//(q+1)), W_j(N) = sum_{d <= N} d^j
    (_faulhaber_factors).  Values up to L come from tables (see
    _power_sum_table; any tables with L >= _power_sum_limit(x) and a degree
    >= degree will do).  Every larger value needed is S_j(x//k) with
    k <= K = x//(L+1) < sqrt(x), and is computed in ascending order of x//k,
    each from its own array of d and of q; since x//k//d = x//(kd), it reads
    the larger values it needs from the ones already found.

    Every sum is taken mod each modulus of _residue_rows(degree), so an
    intermediate value may wrap; only the final S_j is bounded, by
    |S_j(x)| <= W_j(x), and the moduli it was found for multiply to more
    than 2 W_j(SIEVE_MAX) (_RESIDUES): 2^64 alone for j <= 1, with
    2^31 - 1 for j = 2 and with 2^31 - 19 as well for j = 3.  _crt takes
    the residues back to S_j.
    """
    rows = _residue_rows(degree)
    if tables is None:
        tables = _power_sum_table(x_floor, degree)
    tables = tables[: len(rows)]  # a table for a larger degree starts with these
    if x_floor < len(tables[0]):
        found = [int(table[x_floor]) for table in tables]
    else:
        found = _identity_sums(x_floor, rows, tables)
    residues: list[list[int]] = [[] for _ in range(degree + 1)]
    for (_, j), value in zip(rows, found):
        residues[j].append(value)
    return tuple(_crt(r) for r in residues)


def _identity_sums(
    x_floor: int, rows: list[tuple[int, int]], tables: list[np.ndarray]
) -> list[int]:
    """The residues of S_j(x) for x past the tables, row by row, from the
    identity as _mu_power_sums sets it out."""
    limit = len(tables[0]) - 1
    n_big = x_floor // (limit + 1)  # x//k > limit exactly for k <= n_big
    bigs = [np.zeros(n_big + 1, dtype=table.dtype) for table in tables]
    d_all = np.arange(2, math.isqrt(x_floor) + 1, dtype=np.int64)
    d_powers = [_residues(d_all**j, p) for p, j in rows]
    for k in range(n_big, 0, -1):
        v = x_floor // k
        r = math.isqrt(v)
        n_read = max(0, min(r, n_big // k) - 1)  # d with k d <= n_big
        kd, q = k * d_all[:n_read], v // d_all[n_read : r - 1]
        # ends in r; unsigned, as the residues mod 2^64 take them
        bounds = v // np.arange(1, v // (r + 1) + 2, dtype=np.uint64)
        groups = len(bounds) - 1
        factors = _faulhaber_factors(bounds, rows[-1][1])
        for (p, j), table, big, d_pow in zip(rows, tables, bigs, d_powers):
            # the terms d = 2..r, the first n_read from big, then the groups
            w = _product(factors[j], p)
            terms = (_dot(d_pow[n_read : r - 1], table.take(q), p)
                     + _dot(w[:-1] - w[1:], table[1 : groups + 1], p))
            if n_read:  # none for k > n_big/2
                terms += _dot(d_pow[:n_read], big.take(kd), p)
            big[k] = (1 - terms) % p
    return [int(big[1]) for big in bigs]


# ---------------------------------------------------------------------------
# Checkpointed streaming
# ---------------------------------------------------------------------------


class CheckpointCache:
    """Known values (x, M(x)): those mertens computed and those a stream
    passed at a fixed stride, in a cache the caller passes and keeps.

    One dict x -> M(x) keeps the first value recorded; mertens never records
    M(1) = 1.  checkpoints() and anchor() (read by the benchmark's resume
    metric) build MertensCheckpoint values on request.  M is an integer, so
    every public operation gives identical values with or without the cache.
    Format: MRTC0002, then little-endian (x: u64, M: i64) records in
    ascending x; an older MRTC0001 file fails to load with ParseError.
    """

    def __init__(self, stride: int = CHECKPOINT_STRIDE) -> None:
        if stride < 2:
            raise OutOfRange(f"stride must be >= 2, got {stride}")
        self.stride = int(stride)
        self._m: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._m)

    def record(self, x: int, m: int) -> None:
        self._m.setdefault(x, m)

    def checkpoints(self) -> list[MertensCheckpoint]:
        return [MertensCheckpoint(x=x, M=m) for x, m in sorted(self._m.items())]

    def anchor(self, x: int) -> MertensCheckpoint:
        """Best stored state with anchor.x <= x (base state M(1)=1 when none)."""
        best = max((k for k in self._m if 1 < k <= x), default=1)
        return MertensCheckpoint(x=best, M=self._m[best] if best > 1 else 1)

    def save(self, path) -> None:
        records = itertools.starmap(_CHECKPOINT_RECORD.pack, sorted(self._m.items()))
        _write_atomic(path, itertools.chain([_CHECKPOINT_MAGIC], records))

    @classmethod
    def load(cls, path, stride: int = CHECKPOINT_STRIDE) -> "CheckpointCache":
        with open(path, "rb") as fh:
            blob = fh.read()
        if blob[: len(_CHECKPOINT_MAGIC)] != _CHECKPOINT_MAGIC:
            raise ParseError(f"{path}: bad magic header")
        body = blob[len(_CHECKPOINT_MAGIC) :]
        if len(body) % _CHECKPOINT_RECORD.size != 0:
            raise ParseError(f"{path}: truncated checkpoint record")
        cache = cls(stride=stride)
        prev = 0
        for x, m in _CHECKPOINT_RECORD.iter_unpack(body):
            if x <= prev:
                raise ParseError(f"{path}: checkpoint x values not ascending")
            if abs(m) > x:
                raise ParseError(f"{path}: implausible checkpoint ({x}, {m})")
            cache._m[x] = m
            prev = x
        return cache


def _write_atomic(path, chunks) -> None:
    """Write the byte chunks to a temporary file beside path, then rename it
    over path: a concurrent reader sees the old file or the new one, never a
    torn one, and a failed write leaves the old file as it was."""
    tmp = f"{path}.{os.getpid()}.{uuid.uuid4().hex[:8]}.tmp"
    try:
        with open(tmp, "xb") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _stream(x_floor: int, cache: CheckpointCache | None):
    """Stream mu for n in [1, x_floor].

    Yields (n0, mu, m_vals) for every chunk of consecutive integers n in
    [n0, n0 + len(mu)), with m_vals[i] = M(n0 + i).  mu is sieved in
    rounding blocks of _BLOCK integers counted from n = 1 and handed out in
    chunks (views) of min(_CHUNK, _BLOCK) integers, so each block is a run of
    whole chunks (_opens_block tells where one starts), and a consumer that
    cuts the chunks at its own floor(x) sums over the same blocks as a stream
    that ends there.  m_vals is summed per chunk.  With a cache, the values
    at multiples of its stride are recorded on the way, and mertens serves
    those x from it; without one, nothing is recorded.
    """
    m_prev = 0
    chunk = min(_CHUNK, _BLOCK)
    for n_next in range(1, x_floor + 1, _BLOCK):
        mu_block = _segment_mu(n_next, min(n_next + _BLOCK, x_floor + 1))
        for n0 in range(n_next, n_next + len(mu_block), chunk):
            mu = mu_block[n0 - n_next : n0 - n_next + chunk]
            # a block-long M array, freed at every block, can hand its pages
            # back to the system, to be faulted in again at the next block
            m_vals = mu.astype(np.int32)  # |M(n)| <= n <= SIEVE_MAX < 2^31
            m_vals[0] += m_prev
            m_prev = int(np.cumsum(m_vals, out=m_vals)[-1])
            if cache is not None:
                stride = cache.stride
                for cp in range(-(-n0 // stride) * stride, n0 + len(mu), stride):
                    cache.record(cp, int(m_vals[cp - n0]))
            yield n0, mu, m_vals


def _opens_block(n0: int) -> bool:
    """Whether the chunk of _stream that starts at n0 starts a rounding block."""
    return (n0 - 1) % _BLOCK == 0


class _BlockSums:
    """A sum of terms taken from _stream's chunks, correctly rounded once per
    rounding block and then added across blocks with fsum.

    The chunks of a block hand in the exact parts of their terms
    (_exact_parts), so the value does not depend on the chunk size, and the
    blocks count from n = 1, so it does not depend on the cache or on earlier
    calls either.
    """

    def __init__(self) -> None:
        self._parts: list[float] = []
        self._blocks: list[float] = []

    def add(self, n0: int, terms: np.ndarray) -> None:
        """Add the terms of the chunk that starts at n0."""
        if _opens_block(n0) and self._parts:
            self._blocks.append(math.fsum(self._parts))
            self._parts = []
        self._parts += _exact_parts(terms)

    def total(self) -> float:
        return math.fsum(self._blocks + [math.fsum(self._parts)])


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def sieve_segment(lo: int, hi: int, cache: CheckpointCache | None = None) -> MoebiusSegment:
    """Exact mu(n) for n in [lo, hi) plus M(lo-1) (0 when lo = 1).

    Linear in (hi - lo) after the prime table; M(lo-1) comes from mertens.
    """
    if not (1 <= lo < hi <= SIEVE_MAX):
        raise OutOfRange(f"need 1 <= lo < hi <= {SIEVE_MAX}, got [{lo}, {hi})")
    m_lo = mertens(lo - 1, cache) if lo > 1 else 0
    return MoebiusSegment(lo=lo, hi=hi, mu=_segment_mu(lo, hi), mertens_at_lo_minus_1=m_lo)


def mertens(x: int, cache: CheckpointCache | None = None) -> int:
    """Exact M(x) = sum of mu(n) for n <= x.

    M(x) = S_0(x) comes from _mu_power_sums, in time about x^(2/3).  With
    a cache, a value it holds for x itself is returned as stored, and a
    computed one is recorded in it (the CLI keeps its cache in --cache-dir);
    without one, M(x) is computed every time.
    """
    if not -math.inf < x < SIEVE_MAX + 1:
        _check_x(x)  # before int(): DomainError for nan and -inf, else OutOfRange
    x = int(x)
    if x < 1:
        raise OutOfRange(f"need 1 <= x <= {SIEVE_MAX}, got {x}")
    if cache is None or x == 1:  # M(1) = 1, the base state, is never recorded
        return _mu_power_sums(x, 0)[0]
    if x not in cache._m:
        cache.record(x, _mu_power_sums(x, 0)[0])
    return cache._m[x]


def riesz_mean_direct(query: RieszQuery, cache: CheckpointCache | None = None) -> float:
    """Direct evaluation of the Riesz-weighted mean

        M_tau(x) = (1/Gamma(tau+1)) * sum_{n <= x} mu(n) (1 - n/x)^tau.

    Boundary convention at integer x: the n = x factor is (1 - 1)^tau = 0 for
    tau > 0, but for tau = 0 the factor is taken as 1, so M_0 coincides with
    the plain summatory function M.  At integer tau = k <= 3 the weight is a
    polynomial in n, so k! M_k(x) = sum_i C(k, i) (-1/x)^i S_i(x) comes
    exactly from the power sums of _mu_power_sums and is correctly rounded.
    Other tau stream mu from n = 1: summation is correctly rounded per block,
    then fsum across blocks (_BlockSums).
    """
    (value,) = _riesz_means([(float(query.x), float(query.tau))], cache)
    return value


def _riesz_means(
    points: list[tuple[float, float]], cache: CheckpointCache | None = None
) -> list[float]:
    """M_tau(x) for each (x, tau) in points.

    Points with integer tau = k <= 3 take S_0, ..., S_k from
    _mu_power_sums, all from one table sized for the largest such x and the
    largest such k, and are exact until one final rounding.  The others
    share one stream from n = 1 up to their largest floor(x); each chunk is
    cut at each point's floor(x), so a point sums over the same rounding
    blocks, each sum correctly rounded, as a stream of its own would.
    """
    for x, tau in points:
        _check_tau(tau)
        _check_x(x)
    exact = [(x, int(tau)) for x, tau in points if tau in _EXACT_DEGREES]
    tables = _power_sum_table(math.floor(max(x for x, _ in exact)),
                              max(k for _, k in exact)) if exact else None

    def exact_mean(x: float, k: int) -> float:
        # k! M_k(x) = sum_i C(k, i) (-1/x)^i S_i(x), over the denominator
        # k! a^k for x = a/b; int / int is correctly rounded
        s = _mu_power_sums(math.floor(x), k, tables)
        a, b = x.as_integer_ratio()
        return (sum(math.comb(k, i) * (-b) ** i * a ** (k - i) * s[i] for i in range(k + 1))
                / (math.factorial(k) * a**k))

    weighted = [(x, tau, math.lgamma(1.0 + tau), _BlockSums()) for x, tau in points
                if tau not in _EXACT_DEGREES]
    if weighted:
        for n0, mu, _ in _stream(math.floor(max(x for x, *_ in weighted)), cache):
            for x, tau, log_norm, sums in weighted:
                if n0 > x:
                    continue
                mu_x = mu[: math.floor(x) + 1 - n0]
                ns = np.arange(n0, n0 + len(mu_x), dtype=np.float64)
                with np.errstate(divide="ignore"):
                    w = np.exp(tau * np.log1p(-ns / x) - log_norm)
                nz = mu_x != 0
                sums.add(n0, mu_x[nz].astype(np.float64) * w[nz])
    totals = iter([sums.total() for *_, sums in weighted])
    return [exact_mean(x, int(tau)) if tau in _EXACT_DEGREES else next(totals)
            for x, tau in points]


def _integral_pieces(
    x: float, kappa: float, cache: CheckpointCache | None = None, power: int = 1
):
    """The integral of M(u)^power u^(-kappa) over [1, x], piece by piece.

    M is constant on [n, n+1), so with P(u) = log u at kappa = 1, else
    u^(1-kappa)/(1-kappa), [n, min(n+1, x)) holds M(n)^power (P(min(n+1, x))
    - P(n)).  Yields (n0, m_vals, ends, pieces) per chunk of _stream: ends[i]
    = P(min(n0 + i, x)) for i <= len(m_vals), so P is taken once per interval
    end, and pieces[i] is the piece of n = n0 + i; all are new arrays.
    """
    for n0, _, m_vals in _stream(math.floor(x), cache):
        ends = np.arange(n0, n0 + len(m_vals) + 1, dtype=np.float64)
        ends[-1] = min(ends[-1], x)  # the chunk's other ends are <= floor(x)
        # in place, so a chunk allocates only ends, pieces and M^2
        if kappa == 1.0:
            np.log(ends, out=ends)
        else:
            ends **= 1.0 - kappa
            ends /= 1.0 - kappa
        pieces = ends[1:] - ends[:-1]
        pieces *= m_vals if power == 1 else np.square(m_vals, dtype=np.float64)
        yield n0, m_vals, ends, pieces


def integral_M(
    x: float, kappa: float, cache: CheckpointCache | None = None
) -> float:
    """Piecewise-exact integral of M(u) u^(-kappa) over [1, x].

    At kappa = 0, -1 and -2, a = 1 - kappa is a degree of _mu_power_sums and
    the integral is sum_{n <= x} mu(n) (x^a - n^a)/a = (x^a S_0 - S_a)/a,
    taken exactly from the power sums and correctly rounded.  Other kappa
    stream mu from n = 1 and sum the closed-form pieces of _integral_pieces
    (the logarithm at kappa = 1), correctly rounded per block, then fsum
    across blocks.
    """
    x = float(x)
    _check_x(x)
    kappa = float(kappa)
    _check_finite(kappa, "kappa")
    if 1.0 - kappa in _EXACT_DEGREES[1:]:
        a = int(1.0 - kappa)
        s = _mu_power_sums(math.floor(x), a)
        n, d = x.as_integer_ratio()  # int / int is correctly rounded
        return (n**a * s[0] - d**a * s[a]) / (a * d**a)
    sums = _BlockSums()
    for n0, _, _, pieces in _integral_pieces(x, kappa, cache):
        sums.add(n0, pieces)
    return sums.total()


def weak_mertens_integral(x: float) -> float:
    """Piecewise-exact integral of (M(u)/u)^2 over [1, x].

    The interval [n, min(n+1, x)) contributes M(n)^2 (1/n - 1/min(n+1, x)),
    the pieces of _integral_pieces at kappa = 2 and power 2; summed like
    integral_M, the value does not depend on earlier calls.
    """
    x = float(x)
    _check_x(x)
    sums = _BlockSums()
    for n0, _, _, pieces in _integral_pieces(x, 2.0, power=2):
        sums.add(n0, pieces)
    return sums.total()


def divim_sign_changes(x_max: float, kappa: float = 1.5) -> list[float]:
    """Crossing points of D(x) = int_1^x M(u) u^-kappa du - c in [1, x_max],
    where c = 2/zeta(1/2) at kappa = 3/2 and 0 otherwise.

    D is continuous and piecewise monotone (M is constant between integers),
    so every crossing lies inside an interval whose endpoint values straddle
    zero and is located there in closed form.  A non-empty list is evidence
    of the two-sided oscillation of the normalized integral; the theory makes
    that claim only asymptotically, so this scan is reported as evidence, not
    verification.
    """
    x_max = float(x_max)
    _check_x(x_max, name="x_max")
    kappa = float(kappa)
    _check_finite(kappa, "kappa")
    c = 2.0 / zeta(0.5).real if kappa == 1.5 else 0.0

    crossings: list[float] = []
    # I at the end of an interval is I at the left edge of its rounding block
    # plus the sequential partial sum of the block's pieces, carried across
    # the block's chunks, so the values do not depend on the chunk size.
    i_lo, i_end, run, f_prev = 0.0, 0.0, 0.0, 0.0 - c
    for n0, m_vals, ends, pieces in _integral_pieces(x_max, kappa):
        if _opens_block(n0):
            i_lo = i_end
        else:
            pieces[0] += run
        runs = np.cumsum(pieces)
        i_ends = i_lo + runs
        f_ends = i_ends - c
        f_starts = np.concatenate(([f_prev], f_ends[:-1]))
        for j in np.flatnonzero((f_starts < 0.0) != (f_ends < 0.0)).tolist():
            # Solve I(n) + m (P(x) - P(n)) = c for x in (n, n+1], with
            # P(n) = ends[j] and I(n) = f_starts[j] + c.
            v = float(ends[j]) + (c - float(f_starts[j] + c)) / float(m_vals[j])
            crossings.append(math.exp(v) if kappa == 1.0
                             else float(((1.0 - kappa) * v) ** (1.0 / (1.0 - kappa))))
        run, i_end, f_prev = float(runs[-1]), float(i_ends[-1]), float(f_ends[-1])
    return crossings


def density_S(X: float, cache: CheckpointCache | None = None) -> float:
    """Logarithmic density estimate of S = {t : |M(t)| <= sqrt(t)}:

        (1 / log X) * integral over [2, X] of [|M(t)| <= sqrt(t)] dt/t

    with membership resolved exactly on each unit interval (M is constant
    there and sqrt is monotone, so the only crossing is at t = M(n)^2).

    The integral is taken by its complement: the unit intervals
    [n, min(n+1, X)) for n >= 2 fill [2, X] and contribute log(X/2) in all,
    and an interval loses [n, min(n+1, X, M(n)^2)) exactly when M(n)^2 > n,
    which is decided in int64 arithmetic; a chunk of the stream whose
    largest M^2 is at most its first n holds no such n and is skipped
    whole.  No such n exists up to 10^7, so
    the value is log(X/2)/log X there, within about half an ulp at the X
    tested, and no logarithm is taken per integer.

    The normalizer is log X, matching the density definition's denominator;
    since the integration window starts at 2, values are bounded by
    1 - log 2 / log X < 1.
    """
    X = float(X)
    _check_x(X, 4.0, "X")
    lost = []
    for n0, _, m_vals in _stream(int(math.floor(X)), cache):
        m_abs = max(int(m_vals.max()), -int(m_vals.min()))
        if m_abs * m_abs <= n0:  # no n >= n0 of the chunk can qualify
            continue
        ms = m_vals.astype(np.int64)
        # n = 1 never qualifies: M(1)^2 = 1
        for j in np.flatnonzero(ms * ms > np.arange(n0, n0 + len(ms))).tolist():
            n, m_sq = n0 + j, int(ms[j]) ** 2
            lost.append(-math.log(min(n + 1.0, X, float(m_sq)) / n))
    return math.fsum([math.log(X / 2.0)] + lost) / math.log(X)


def tau_for(schedule: TauSchedule, x: float) -> float:
    """Evaluate a tau schedule at x; raises ScheduleUndefined where the
    iterated logarithms are not positive."""
    x = float(x)
    if schedule.kind == "constant":
        return schedule.c
    if schedule.kind == "inv-log":
        if x <= 1:
            raise ScheduleUndefined(f"log x not positive at x = {x}")
        return schedule.c / math.log(x)
    if schedule.kind == "iterated-log":
        v = x
        logs = []
        for _ in range(4):
            if v <= 0:
                raise ScheduleUndefined(f"iterated log undefined at x = {x}")
            v = math.log(v)
            logs.append(v)
        if logs[1] <= 0 or logs[3] <= 0:
            raise ScheduleUndefined(f"iterated log not positive at x = {x}")
        return schedule.c * logs[1] / logs[3]
    raise DomainError(f"unknown schedule kind {schedule.kind!r}")


def _growth_factor(tau: float) -> float:
    """(tau/e)^(-tau-1); inf at tau = 0 and wherever it overflows a double."""
    if tau > 0:
        try:
            return math.exp(-(tau + 1.0) * (math.log(tau) - 1.0))
        except OverflowError:
            pass
    return math.inf


def tau_regime_scan(
    x_list: list[float],
    schedule: TauSchedule,
    cache: CheckpointCache | None = None,
) -> list[dict]:
    """Evaluate M_tau(x) along a tau schedule.

    Emits one row per x with the normalized columns M_tau/sqrt(x) and
    M_tau * tau^(3/2) / sqrt(x), plus the growth-factor helper column
    (tau/e)^(-tau-1).  Rows where the schedule is undefined carry
    status="undefined" instead of raising.  The rows share one power-sum
    table (integer tau <= 3) or one mu stream up to the largest x (see
    _riesz_means).
    """
    rows: list[dict] = []
    defined: list[dict] = []
    points: list[tuple[float, float]] = []
    for x in x_list:
        x = float(x)
        row: dict = {"x": x, "schedule": schedule.kind, "c": schedule.c}
        rows.append(row)
        try:
            points.append((x, tau_for(schedule, x)))
        except ScheduleUndefined:
            row.update(
                {"status": "undefined", "tau": None, "m_tau": None,
                 "m_over_sqrt": None, "m_tau32_over_sqrt": None, "growth_factor": None}
            )
            continue
        defined.append(row)
    for row, (x, tau), m_tau in zip(defined, points, _riesz_means(points, cache)):
        sqrt_x = math.sqrt(x)
        row.update(
            {
                "status": "ok",
                "tau": tau,
                "m_tau": m_tau,
                "m_over_sqrt": m_tau / sqrt_x,
                "m_tau32_over_sqrt": m_tau * tau**1.5 / sqrt_x,
                "growth_factor": _growth_factor(tau),
            }
        )
    return rows
