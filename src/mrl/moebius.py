"""Exact integer-side computations around the Moebius function.

Segmented numpy sieving of mu(n) (a log-sum sieve in bytes, _segment_mu),
the summatory function M(x), Riesz-weighted means, piecewise-exact integrals
of M(u) against power weights and their sign changes, the logarithmic
density of {t : |M(t)| <= sqrt(t)}, and tau scans.

Two routes serve them.  Quantities whose weight is a polynomial of degree
<= 3 in n need only the exact sums S_j(x) = sum_{n<=x} mu(n) n^j, j <= 3,
which _mu_power_sums finds in time about x^(2/3) from a sieve of [1, L],
summed only at the about 2 sqrt(x) values the Deleglise-Rivat identity
reads, as residues joined by the CRT: M(x) = S_0, the
Riesz means at tau = 0, 1, 2, 3 (M_1 = S_0 - S_1/x, and so on) and the
integrals of M(u) u^(-kappa) over [1, x] at kappa = 0, -1, -2
((x^a S_0 - S_a)/a, a = 1 - kappa).
Everything else streams mu from n = 1.  One generator, _stream, walks the
sieve blocks from n = 1 for both routes: it hands out mu in cache-sized
chunks, to the power sums for [1, L] and to the streamed operations for
[1, x].  The other Riesz means, and the other integrals of M(u) u^(-kappa)
by parts, P(x) M(x) - sum_{n <= x} mu(n) P(n), weight only the squarefree
n (_squarefree_sums), which also sums mu per chunk for M(x).  The integral
of (M(u)/u)^2 and the sign-change scan read M(n) at every n, summed per
chunk (_prefix), in closed-form unit-interval pieces (_integral_pieces);
density_S forms M(n) only in the chunks that it cannot skip.
sieve_segment and mertens take an optional CheckpointCache, which keeps
the M(x) that mertens computed.  riesz_mean_direct, integral_M, density_S
and tau_regime_scan accept one and record nothing in it: the benchmark
passes it, and ROADMAP item 1 deletes the parameter with those calls.

Everything here is integer-exact where the mathematics is (mu, M) and
rounding-exact where only the final weighting is real-valued.  A streamed sum
is correctly rounded once over all its terms (_ExactSum), so it depends on
its terms alone, not on the block or chunk size or earlier calls;
the density instead subtracts its few short intervals from a closed form
(density_S).  Integrands are constant (or polynomial) on unit intervals, so
integrals are evaluated in closed form per interval, never by approximate
quadrature.
"""

from __future__ import annotations

import itertools
import math
import os
import struct
import uuid
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .errors import DomainError, OutOfRange, ParseError, ScheduleUndefined
from .kernel import _EXACT_PARTS_MIN, _check_finite, _check_tau, _exact_parts, zeta

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
    "TAU_REGIME_COLUMNS",
]

# Hard ceiling for x: a cost guard for the streams, which are linear, and the
# bound from which _RESIDUES takes how many moduli each exact S_j needs.
SIEVE_MAX = 10**9

# Nothing here reads it: the benchmark lays out its M(x) lookups in blocks
# of this length.
CHECKPOINT_STRIDE = 10**6

# The stream sieves blocks of _BLOCK integers counted from n = 1 (one prime
# loop per block).  Consumers take a block in chunks of min(_CHUNK, _BLOCK)
# integers, so their float temporaries stay in a core's L2 cache (CHANGES.md
# has the table).  Both are powers of two, so a block is a run of whole
# chunks.
_BLOCK = 1 << 20
_CHUNK = 1 << 14

# density_S bounds |M| over a chunk from the sums of runs of this many
# integers, which divides the chunk.
_DENSITY_RUN = 256

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


# The costs of the wheel's primes repeat with their product as the period,
# 30030, so a 2^20 block takes 35 copies.
_WHEEL_PRIMES = (2, 3, 5, 7, 11, 13)
_WHEEL = math.prod(_WHEEL_PRIMES)

# _segment_mu takes n < _SEGMENT_MAX: there the costs of n's primes sum to
# at most 4 log2 n + omega(n) <= 160 + 11 < 2^8, and the prime table stops
# at 2^20.
_SEGMENT_MAX = 1 << 40

# _segment_mu turns the sums of at most _RUN integers at a time into mu, with
# one bool buffer of this length for the sign flips, so a run stays in cache.
_RUN = 1 << 16


@lru_cache(maxsize=1)
def _wheel() -> np.ndarray:
    """At residue r in [0, _WHEEL): the sum of c_p over the primes p of
    _WHEEL_PRIMES that divide r."""
    costs = np.zeros(_WHEEL, dtype=np.uint8)
    for p in _WHEEL_PRIMES:
        costs[::p] += 2 * (p * p).bit_length() - 1
    return costs


def _tile_wheel(s: np.ndarray, lo: int) -> None:
    """Write the wheel's costs of n = lo, lo + 1, ... into s: its tail from
    lo mod _WHEEL, then whole copies by one broadcast assignment, then a
    head."""
    wheel = _wheel()
    head = min(len(s), _WHEEL - lo % _WHEEL)
    s[:head] = wheel[lo % _WHEEL : lo % _WHEEL + head]
    rest = s[head:]
    whole = len(rest) - len(rest) % _WHEEL
    rest[:whole].reshape(-1, _WHEEL)[...] = wheel
    rest[whole:] = wheel[: len(rest) - whole]


def _segment_mu(lo: int, hi: int, out: np.ndarray | None = None) -> np.ndarray:
    """Exact mu(n) for n in [lo, hi) from a log-sum sieve in one uint8 array.

    Every prime p <= R = max(isqrt(hi - 1), R_w), and those of the wheel
    (2 to 13, tiled from _wheel), adds its odd cost c_p = 2 floor(2 log2 p)
    + 1 at its multiples, so s[i] sums c_p over the sieved primes that
    divide n = lo + i and its low bit is the parity of their number.  Then
    the multiples of each p^2 are zeroed.  A squarefree n < (R + 1)^2 has at
    most one prime factor above R, and s tells whether it has one that is
    not sieved.  Let 2^k <= n < 2^(k+1), let w >= 1 bound omega(n) on
    [lo, hi) (_omega_bound), and note that 4 log2 p - 1 < c_p <= 4 log2 p + 1:

    - with none, s > 4 log2 n - omega(n) >= 4k - w, so s >= T_k = 4k - w + 1
      (n = 1, which has no prime factor, sums to 0 = T_0);
    - with one, q > R, n = m q and omega(m) <= w - 1, so s <= 4 log2 m +
      w - 1 < 4(k + 1) - 4 log2 R + w - 1 <= T_k, since 4 log2 R_w >= 2w + 2
      (_root_floor).

    T_k is clamped at 0, which only the first case reaches.  So mu(n) is
    (-1)^s on a squarefree n, flipped where s < T_k.  With n < _SEGMENT_MAX,
    s and T_k fit in a byte.  The flips are decided run by run (_RUN), so
    nothing as long as the segment is allocated besides s itself.

    With out, an int8 array of at least hi - lo entries, s is out[:hi - lo]
    and that view is returned: a caller that sieves block after block into
    one buffer allocates no block of its own.
    """
    n_max = hi - 1
    if n_max >= _SEGMENT_MAX:
        raise OutOfRange(f"need hi - 1 < 2^40, got hi = {hi}")
    w = _omega_bound(n_max)
    root = max(math.isqrt(n_max), _root_floor(w))
    limit = _table_limit(root * root)
    primes, costs = _primes_upto(limit), _prime_costs(limit)
    stop = int(np.searchsorted(primes, root, side="right"))
    # the wheel's primes come first
    wheel = len(_WHEEL_PRIMES)
    primes, costs = primes[wheel:stop], costs[wheel:stop]
    mu = np.empty(hi - lo, dtype=np.int8) if out is None else out[: hi - lo]
    s = mu.view(np.uint8)
    _tile_wheel(s, lo)
    for p, c in zip(primes.tolist(), costs.tolist()):
        s[-lo % p :: p] += c
    flip = np.empty(min(hi - lo, _RUN), dtype=bool)
    for a in range(lo, hi, _RUN):
        b = min(a + _RUN, hi)
        for k in range(a.bit_length() - 1, int(b - 1).bit_length()):
            c, d = max(a, 1 << k), min(b, 2 << k)
            np.less(s[c - lo : d - lo], max(0, 4 * k - w + 1), out=flip[c - a : d - a])
        run = s[a - lo : b - lo]
        run &= 1
        run ^= flip[: b - a].view(np.uint8)
        run = run.view(np.int8)
        run *= -2
        run += 1
    # a square above hi - lo has at most one multiple here: one assignment
    squares = np.concatenate(([p * p for p in _WHEEL_PRIMES], primes * primes))
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


def _split(a: np.ndarray) -> np.ndarray:
    """Residues a mod a prime (below 2^31) as the rows of their high and low
    16 bits, a = 2^16 hi + lo, in one (2, len(a)) int64 array."""
    return np.stack((a >> 16, a & 0xFFFF))


def _dot(a: np.ndarray, b: np.ndarray, p: int) -> int:
    """The dot product of a residue array b with a, mod p up to a multiple
    of p.  At p = 2^64, a is a residue array too; at a prime, a is the
    _split of one, so with |b| < 2^31 and at most isqrt(SIEVE_MAX) < 2^15
    terms each half's dot product stays below 2^62 and none needs reducing."""
    if p == _WRAP:
        return int(a @ b)
    hi, lo = (a @ b).tolist()
    return (hi << 16) + lo


def _faulhaber_factors(n: np.ndarray, degree: int) -> list[tuple[np.ndarray, ...]]:
    """For each j <= degree, factors whose product is W_j(n), for an integer
    array n <= SIEVE_MAX.

    Nothing divides mod p, so the factors 2 and 3 of Faulhaber's forms are
    divided out here, exactly: n (n + 1) < 2^63 gives t = n (n + 1)/2, and 3
    divides t or else 2n + 1 (tested by floor division, which is faster
    than remainder).  W_3 = t^2 repeats its factor.
    """
    factors: list[tuple[np.ndarray, ...]] = [(n,)]
    if degree >= 1:
        t = n * (n + 1) >> 1
        factors.append((t,))
    if degree >= 2:
        t_3, s = t // 3, 2 * n + 1
        third = t_3 * 3 == t
        factors.append((np.where(third, t_3, t), np.where(third, s, s // 3)))
    if degree >= 3:
        factors.append((t, t))
    return factors


def _product(factors: tuple[np.ndarray, ...], p: int) -> np.ndarray:
    """The product of one or two integer arrays below 2^63, mod p; a
    repeated factor is reduced once and squared."""
    w = _residues(factors[0], p)
    if len(factors) == 1:
        return w
    return _reduce(w * (w if factors[1] is factors[0] else _residues(factors[1], p)), p)


def _crt(residues: list[int]) -> int:
    """The integer s with |s| < M/2 and s = residues[i] mod _MODULI[i], where
    M is the product of the first len(residues) moduli."""
    s, m = 0, 1
    for r, p in zip(residues, _MODULI):
        s += m * ((r - s) * pow(m, -1, p) % p)
        m *= p
    return s - m if 2 * s >= m else s


def _power_sum_limit(x: int) -> int:
    """Top L of the sieve that serves _mu_power_sums(x):
    min(x, max(x^(2/3), 64 sqrt x)), below 2^21 for x <= SIEVE_MAX."""
    return min(x, max(int(x ** (2.0 / 3.0)), 64 * math.isqrt(x)))


def _sum_ends(x_floor: int, limit: int) -> np.ndarray:
    """The v, ascending, at which _mu_power_sums_at reads S_j(v) from the
    sieve of [1, limit] for x = x_floor: x itself when x <= limit, else every
    v <= r = isqrt(x), then x//m for m from x//(r+1) down to x//(limit+1) + 1,
    which are distinct and lie in (r, limit]."""
    if x_floor <= limit:
        return np.array([x_floor], dtype=np.int64)
    r = math.isqrt(x_floor)
    m = np.arange(x_floor // (r + 1), x_floor // (limit + 1), -1, dtype=np.int64)
    return np.concatenate((np.arange(1, r + 1, dtype=np.int64), x_floor // m))


def _mu_power_sums(x_floor: int, degree: int) -> tuple[int, ...]:
    """Exact (S_0(x), ..., S_degree(x)) for integer 1 <= x <= SIEVE_MAX and
    degree <= 3, in time about x^(2/3), without streaming mu from n = 1
    (_mu_power_sums_at has the method).  On a 2-vCPU VM M(1e8) takes about
    5 ms with a peak of about 0.6 MB, M(1e9) 20 ms and 2.4 MB, and S_0..S_3
    35 ms and 4 MB at 1e8, 0.23 s and 14.5 MB at 1e9."""
    return _mu_power_sums_at([(x_floor, degree)])[0]


def _mu_power_sums_at(points: list[tuple[int, int]]) -> list[tuple[int, ...]]:
    """Exact (S_0(x), ..., S_k(x)) for each (x, k) of points, integer
    1 <= x <= SIEVE_MAX and k <= 3, from one sieve of [1, L],
    L = _power_sum_limit(max x), and the Deleglise-Rivat identity.

    n^j is completely multiplicative, so sum_{d <= v} d^j S_j(floor(v/d)) = 1.
    With r_v = isqrt(v), the terms d <= r_v are read one by one; the terms
    d > r_v fall into groups with one quotient q <= v//(r_v+1) <= r_v each,
    weighted by W_j(v//q) - W_j(v//(q+1)), W_j(N) = sum_{d <= N} d^j
    (_faulhaber_factors).  For x > L, with r = isqrt(x), n_big = x//(L+1)
    and m_top = x//(r+1), the identity at v = x//k, k <= n_big, reads S_j
    only at v <= r and at x//m, m <= m_top (since x//k//d = x//(kd)).  So
    each point keeps two short tables per residue row:

    - small[v] = S_j(v) for v <= r, and large[m] = S_j(x//m) for
      n_big < m <= m_top, both summed from the sieve (_sum_ends,
      _sieved_sums);
    - large[k] for k <= n_big from the identity, in descending k.  Every d
      with kd <= m_top reads the strided slice large[2k : k d_top + 1 : k];
      only d > m_top/k read small[v//d].

    A point with x <= L reads its sums directly from the sieve.  The sieve
    is read from the stream of mu (_stream), and the terms mu(n) n^j are
    formed a chunk at a time, once per chunk and j for all points, which
    sum them at their ends as the chunk passes (_sieved_sums); nothing as
    long as the sieve is kept.

    Every sum is taken mod each modulus of _residue_rows(k), so an
    intermediate value may wrap; only the final S_j is bounded, by
    |S_j(x)| <= W_j(x), and the moduli it was found for multiply to more
    than 2 W_j(SIEVE_MAX) (_RESIDUES): 2^64 alone for j <= 1, with
    2^31 - 1 for j = 2 and with 2^31 - 19 as well for j = 3.  _crt takes
    the residues back to S_j.
    """
    limit = _power_sum_limit(max(x for x, _ in points))
    found = []
    for (x, k), values in zip(points, _sieved_sums(points, limit)):
        rows = _residue_rows(k)
        if x <= limit:
            sums = [int(row[-1]) for row in values]
        else:
            sums = _identity_sums(x, limit, rows, values)
        residues: list[list[int]] = [[] for _ in range(k + 1)]
        for (_, j), value in zip(rows, sums):
            residues[j].append(value)
        found.append(tuple(_crt(r) for r in residues))
    return found


def _sieved_sums(points: list[tuple[int, int]], limit: int) -> list[list[np.ndarray]]:
    """For each (x, k) of points, one array per row (p, j) of
    _residue_rows(k): S_j(v) mod p at the v of _sum_ends(x, limit).

    The chunks of _stream(limit) cover [1, limit], the sieve; each
    chunk forms its terms mu(n) n^j once per j, and sums them at once for
    all points: at the ends of every point that fall in it (np.add.reduceat,
    then a running sum over those segments), plus the carry, S_j at the
    chunk's left edge; the last segment runs to the chunk's end and makes
    the next carry.  A sum is exact in int64 while W_j(limit) < 2^63 (int32
    when S_0 alone is asked for: |S_0(v)| <= v < 2^31) and reduced mod each
    modulus at the end; past that (j = 3 past L of about 78,000) it is kept
    mod each modulus, as uint64, which wraps, at 2^64, and from the terms
    reduced mod p at a prime p (each chunk's sum below 2^14 p < 2^45).
    Nothing as long as the sieve is allocated.
    """
    ends = [_sum_ends(x, limit) for x, _ in points]
    degree = max(k for _, k in points)
    every = ends[0]
    if len(ends) > 1:  # the call's ends, ascending and distinct
        every = np.sort(np.concatenate(ends))
        every = every[np.concatenate(([True], every[1:] != every[:-1]))]
    # a track is one sum, of S_j exactly (p = None) or mod p; sums[t] holds
    # track t at every end of the call
    tracks = [(j, p) for j in range(degree + 1)
              for p in ([None] if _faulhaber(limit, j) < 1 << 63 else _MODULI[: _RESIDUES[j]])]
    sums = [np.empty(len(every), dtype=np.uint64 if p == _WRAP else np.int64) for _, p in tracks]
    carries = [0] * len(tracks)
    chunk = min(_CHUNK, _BLOCK, limit)
    work = np.empty(chunk, dtype=np.int64 if degree else np.int32)
    # n[i] = a + i for the chunk that starts at a, moved on in place
    n = np.arange(chunk, dtype=np.int64) if degree else None
    terms = np.empty(chunk if degree else 0, dtype=np.int64)
    # the segments of a chunk start at 0 and after each end in it
    starts = np.zeros(min(chunk, len(every)) + 1, dtype=np.intp)
    first = 0  # the ends below the chunk
    for a, mu in _stream(limit):
        size = len(mu)
        last = first + int(np.searchsorted(every[first:], a + size))
        np.subtract(every[first:last], a - 1, out=starts[1 : last - first + 1])
        # the last segment runs to the chunk's end, or ends there
        cut = last - first + (last == first or int(every[last - 1]) < a + size - 1)
        if degree:
            n += a - int(n[0])
        for t, (j, p) in enumerate(tracks):
            if j == 0:
                source = work[:size]
                np.copyto(source, mu)
            else:
                source = terms[:size]
                if tracks[t - 1][0] != j:  # once per j, for all its tracks
                    # mu n^(j-1) times n, mu from track 0's copy at j = 1;
                    # n^3 < 2^63 for n < 2^21
                    np.multiply(work[:size] if j == 1 else source, n[:size], out=source)
            if p == _WRAP:
                source = source.view(np.uint64)
            elif p is not None:  # source mod p, by floor division
                reduced = work[:size]  # mu's copy is read only at j = 1
                np.floor_divide(source, p, out=reduced)
                reduced *= -p
                reduced += source
                source = reduced
            segments = np.add.reduceat(source, starts[:cut], dtype=source.dtype)
            np.cumsum(segments, out=segments)
            at = sums[t][first:last]
            np.add(segments[: last - first], carries[t], out=at)
            carry = carries[t] + int(segments[-1])
            if p is not None:
                if p != _WRAP:
                    np.remainder(at, p, out=at)
                carry %= p
            carries[t] = carry
        first = last
    values: list[list[np.ndarray]] = []
    for e, (_, k) in zip(ends, points):
        where = None if e is every else np.searchsorted(every, e)
        values.append([])
        for (j, p), row in zip(tracks, sums):
            if j > k:
                break
            row = row if where is None else row[where]
            if p is not None:
                values[-1].append(row)
                continue
            for q in _MODULI[: _RESIDUES[j]]:
                values[-1].append(row.view(np.uint64) if q == _WRAP else row % q)
    return values


def _identity_sums(
    x_floor: int, limit: int, rows: list[tuple[int, int]], values: list[np.ndarray]
) -> list[int]:
    """The residues of S_j(x) for x past the sieve, row by row, from the
    identity as _mu_power_sums_at sets it out; values holds each row's sums
    at _sum_ends(x_floor, limit)."""
    r = math.isqrt(x_floor)
    n_big, m_top = x_floor // (limit + 1), x_floor // (r + 1)
    # per row: small, large, and the operands that the dot products keep
    # fixed, d^j and small, split in halves at a prime (_dot)
    tables = []
    d_all = np.arange(2, r + 1, dtype=np.int64)
    for (p, j), row in zip(rows, values):
        small = np.zeros(r + 1, dtype=row.dtype)
        small[1:] = row[:r]
        large = np.zeros(m_top + 1, dtype=row.dtype)
        large[n_big + 1 :] = row[r:][::-1]
        d_pow = _residues(d_all**j, p)
        if p != _WRAP:
            d_pow, small_dot = _split(d_pow), _split(small)
        else:
            small_dot = small
        tables.append((p, j, small, large, d_pow, small_dot))
    # 1..r+1 as floats: v/d rounds to within half an ulp, which for v < 2^52
    # is less than the distance from v/d up to the next integer, so the
    # float quotients truncate to v//d exactly
    d_float = np.arange(1, r + 2, dtype=np.float64)
    for k in range(n_big, 0, -1):
        v = x_floor // k
        r_v = math.isqrt(v)
        quotients = (v / d_float[: r_v + 1]).astype(np.int64)  # v//d, d <= r_v + 1
        d_top = min(r_v, m_top // k)  # d <= d_top read large[k d]
        q = quotients[d_top:r_v]
        # v//1, ..., v//(g+1) = r_v, g = v//(r_v+1); unsigned, as the
        # residues mod 2^64 take them
        groups = v // (r_v + 1)
        bounds = quotients[: groups + 1].view(np.uint64)
        factors = _faulhaber_factors(bounds, rows[-1][1])
        for p, j, small, large, d_pow, small_dot in tables:
            # the terms d = 2..r_v, the first d_top - 1 from large, then the
            # groups
            w = _product(factors[j], p)
            terms = (_dot(d_pow[..., : d_top - 1], large[2 * k : k * d_top + 1 : k], p)
                     + _dot(d_pow[..., d_top - 1 : r_v - 1], small.take(q), p)
                     + _dot(small_dot[..., 1 : groups + 1], w[:-1] - w[1:], p))
            large[k] = (1 - terms) % p
    return [int(large[1]) for _, _, _, large, _, _ in tables]


# ---------------------------------------------------------------------------
# Mertens checkpoints and the mu stream
# ---------------------------------------------------------------------------


class CheckpointCache:
    """The values (x, M(x)) that mertens computed, in a cache the caller
    passes and keeps.

    One dict x -> M(x) keeps the first value recorded; mertens never records
    M(1) = 1.  checkpoints() and anchor() (read by the benchmark's resume
    metric) build MertensCheckpoint values on request.  M is an integer, so
    every public operation gives identical values with or without the cache.
    Format: MRTC0002, then little-endian (x: u64, M: i64) records in
    ascending x; an older MRTC0001 file fails to load with ParseError.
    """

    def __init__(self) -> None:
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
    def load(cls, path) -> "CheckpointCache":
        with open(path, "rb") as fh:
            blob = fh.read()
        if blob[: len(_CHECKPOINT_MAGIC)] != _CHECKPOINT_MAGIC:
            raise ParseError(f"{path}: bad magic header")
        body = blob[len(_CHECKPOINT_MAGIC) :]
        if len(body) % _CHECKPOINT_RECORD.size != 0:
            raise ParseError(f"{path}: truncated checkpoint record")
        cache = cls()
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


def _stream(x_floor: int):
    """Stream mu for n in [1, x_floor]: the one walk over sieve blocks from
    n = 1, read by the streamed operations and by the power sums' sieve.

    Yields (n0, mu) for every chunk of consecutive integers n in
    [n0, n0 + len(mu)).  mu is sieved in blocks of _BLOCK integers counted
    from n = 1 and handed out in chunks (views) of min(_CHUNK, _BLOCK)
    integers, so each block is a run of whole chunks.  The stream sums
    nothing: a consumer that reads M sums it itself (_prefix).

    Every block is sieved into one buffer that the stream owns, so mu is a
    view that the next block overwrites: a consumer reads each chunk only
    within its own iteration, and keeps nothing of it but what it copies.
    """
    chunk = min(_CHUNK, _BLOCK)
    buffer = np.empty(min(_BLOCK, x_floor), dtype=np.int8)
    for n_next in range(1, x_floor + 1, _BLOCK):
        mu_block = _segment_mu(n_next, min(n_next + _BLOCK, x_floor + 1), buffer)
        for n0 in range(n_next, n_next + len(mu_block), chunk):
            yield n0, mu_block[n0 - n_next : n0 - n_next + chunk]


def _prefix(mu: np.ndarray, m_prev: int):
    """(M(n0 + i) for each i, M at the chunk's end) from a chunk mu of
    integers from n0 on and m_prev = M(n0 - 1)."""
    m_vals = mu.astype(np.int32)  # |M(n)| <= n <= SIEVE_MAX < 2^31
    m_vals[0] += m_prev
    return m_vals, int(np.cumsum(m_vals, out=m_vals)[-1])


class _ExactSum:
    """A sum of terms taken from _stream's chunks, correctly rounded once over
    all of them: the same float as math.fsum over every term.

    Each chunk hands in the exact parts of its terms (_exact_parts), and the
    list is compressed to its own exact parts when it reaches
    _EXACT_PARTS_MIN, so it stays below twice that length.  Parts merge in
    any order, so the value depends only on the terms: not on _BLOCK,
    _CHUNK or earlier calls.
    """

    def __init__(self) -> None:
        self._parts: list[float] = []

    def add(self, terms: np.ndarray) -> None:
        self._parts += _exact_parts(terms)
        if len(self._parts) >= _EXACT_PARTS_MIN:
            self._parts = _exact_parts(np.array(self._parts))
            if len(self._parts) >= _EXACT_PARTS_MIN:
                # a nan, an inf or a part of 2^970 or more, which
                # _exact_parts hands back whole: fsum folds them instead
                self._parts = [math.fsum(self._parts)]

    def total(self) -> float:
        return math.fsum(self._parts)


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
    Other tau stream mu from n = 1, and the sum is correctly rounded once
    over all its terms (_ExactSum).
    """
    (value,) = _riesz_means([(float(query.x), float(query.tau))])
    return value


def _riesz_means(points: list[tuple[float, float]]) -> list[float]:
    """M_tau(x) for each (x, tau) in points.

    Points with integer tau = k <= 3 take S_0, ..., S_k from
    _mu_power_sums_at, all from one sieve sized for the largest such x and
    one set of term arrays for the largest such k, and are exact until one
    final rounding.  The others share one stream of mu from n = 1
    (_squarefree_sums), each correctly rounded once over its terms.
    """
    for x, tau in points:
        _check_tau(tau)
        _check_x(x)
    exact = [(x, int(tau)) for x, tau in points if tau in _EXACT_DEGREES]
    power_sums = iter(_mu_power_sums_at([(math.floor(x), k) for x, k in exact])
                      if exact else [])

    def exact_mean(x: float, k: int) -> float:
        # k! M_k(x) = sum_i C(k, i) (-1/x)^i S_i(x), over the denominator
        # k! a^k for x = a/b; int / int is correctly rounded
        s = next(power_sums)
        a, b = x.as_integer_ratio()
        return (sum(math.comb(k, i) * (-b) ** i * a ** (k - i) * s[i] for i in range(k + 1))
                / (math.factorial(k) * a**k))

    weighted = [(x, partial(_riesz_weight, x, tau, math.lgamma(1.0 + tau)))
                for x, tau in points if tau not in _EXACT_DEGREES]
    totals = iter([s.total() for s, _ in _squarefree_sums(weighted)])
    return [exact_mean(x, int(tau)) if tau in _EXACT_DEGREES else next(totals)
            for x, tau in points]


def _riesz_weight(x: float, tau: float, log_norm: float, n: np.ndarray) -> np.ndarray:
    """exp(tau log1p(-n/x) - log_norm) = (1 - n/x)^tau / Gamma(1 + tau), in
    place."""
    n /= -x
    with np.errstate(divide="ignore"):
        np.log1p(n, out=n)
    n *= tau
    n -= log_norm
    return np.exp(n, out=n)


def _antiderivative(u: np.ndarray, kappa: float) -> np.ndarray:
    """P(u) in place: log u at kappa = 1, else u^(1-kappa)/(1-kappa)."""
    if kappa == 1.0:
        return np.log(u, out=u)
    u **= 1.0 - kappa
    u /= 1.0 - kappa
    return u


def _squarefree_sums(
    points: list[tuple[float, Callable[[np.ndarray], np.ndarray]]], count: bool = False
) -> list[tuple[_ExactSum, int]]:
    """For each (x, weight) of points, the sum of mu(n) weight(n) over n <= x,
    as an _ExactSum, and with count M(floor(x)), else 0.

    One stream of mu from n = 1 up to the largest floor(x) serves every
    point.  Only the n with mu(n) != 0 are weighted: weight turns a float64
    array of them into its values in place, in one buffer that every chunk
    reuses (chunk-sized temporaries of varying length fragment the heap).
    Each chunk is cut at each point's floor(x), so a point sums the same
    terms as a stream of its own would.
    """
    sums = [_ExactSum() for _ in points]
    m = [0] * len(points)
    buffer = np.empty(min(_CHUNK, _BLOCK))
    for n0, mu in _stream(math.floor(max((x for x, _ in points), default=0))):
        for i, (x, weight) in enumerate(points):
            if n0 > x:
                continue
            mu_x = mu[: math.floor(x) + 1 - n0]
            nz = np.flatnonzero(mu_x != 0)  # faster on bool
            terms = weight(np.add(nz, n0, dtype=np.float64, out=buffer[: len(nz)]))
            signs = mu_x[nz]
            terms *= signs
            sums[i].add(terms)
            if count:
                m[i] += int(np.add.reduce(signs, dtype=np.int32))
    return list(zip(sums, m))


def _integral_pieces(x: float, kappa: float, power: int = 1):
    """The integral of M(u)^power u^(-kappa) over [1, x], piece by piece.

    M is constant on [n, n+1), so with P = _antiderivative, [n, min(n+1, x))
    holds M(n)^power (P(min(n+1, x)) - P(n)).  Yields (m_vals, ends, pieces)
    per chunk of _stream, whose first n is n0, with m_vals[i] = M(n0 + i)
    summed from the chunk (_prefix): ends[i] = P(min(n0 + i, x)) for
    i <= len(m_vals), so P is taken once per interval end, and pieces[i] is
    the piece of n = n0 + i; all are new arrays.  weak_mertens_integral and
    divim_sign_changes read them, and integral_M where P(x) is near overflow.
    """
    m_prev = 0  # M(n0 - 1)
    for n0, mu in _stream(math.floor(x)):
        m_vals, m_prev = _prefix(mu, m_prev)
        ends = np.arange(n0, n0 + len(m_vals) + 1, dtype=np.float64)
        ends[-1] = min(ends[-1], x)  # the chunk's other ends are <= floor(x)
        # in place, so a chunk allocates only ends, pieces and M^2
        _antiderivative(ends, kappa)
        pieces = ends[1:] - ends[:-1]
        pieces *= m_vals if power == 1 else np.square(m_vals, dtype=np.float64)
        yield m_vals, ends, pieces


def _piece_sum(x: float, kappa: float, power: int = 1) -> float:
    """The pieces of _integral_pieces, correctly rounded once over all of them."""
    sums = _ExactSum()
    for *_, pieces in _integral_pieces(x, kappa, power):
        sums.add(pieces)
    return sums.total()


def integral_M(
    x: float, kappa: float, cache: CheckpointCache | None = None
) -> float:
    """Piecewise-exact integral of M(u) u^(-kappa) over [1, x].

    M is constant on [n, n+1), so with P(u) = log u at kappa = 1, else
    u^a/a, a = 1 - kappa, the integral is sum_{n <= x} M(n) (P(min(n+1, x))
    - P(n)), and by parts P(x) M(x) - sum_{n <= x} mu(n) P(n).  At kappa =
    0, -1 and -2, a is a degree of _mu_power_sums and that is (x^a S_0 -
    S_a)/a, taken exactly from the power sums and correctly rounded.  Other
    kappa stream mu from n = 1 (_squarefree_sums): P is taken in doubles at
    the squarefree n and at x, and the product M(x) P(x) enters the sum
    exactly, so the value is the sum over those doubles correctly rounded
    once.  Where 4 x P(x) overflows, the terms of that sum could too; there
    the pieces, which are differences of P, are summed instead
    (_integral_pieces): nan or an infinity once P overflows.
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
    p_x = float(_antiderivative(np.array([x]), kappa)[0])
    if not math.isfinite(4.0 * x * p_x):
        return _piece_sum(x, kappa)
    ((sums, m),) = _squarefree_sums([(x, partial(_antiderivative, kappa=kappa))], True)
    # M(x) P(x) = h + l exactly, with h its rounding: for P(x) = a/b and
    # h = c/d, l = (m a d - c b)/(b d) is a double, and int / int rounds to it
    h = m * p_x
    (a, b), (c, d) = p_x.as_integer_ratio(), h.as_integer_ratio()
    sums.add(np.array([-h, (c * b - m * a * d) / (b * d)]))
    return 0.0 - sums.total()  # +0.0, not -0.0, where the sum vanishes


def weak_mertens_integral(x: float) -> float:
    """Piecewise-exact integral of (M(u)/u)^2 over [1, x].

    The interval [n, min(n+1, x)) contributes M(n)^2 (1/n - 1/min(n+1, x)),
    the pieces of _integral_pieces at kappa = 2 and power 2, summed like
    integral_M: correctly rounded once over all of them.
    """
    x = float(x)
    _check_x(x)
    return _piece_sum(x, 2.0, 2)


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
    # I at the end of an interval is the sequential partial sum of every
    # piece before it, carried across chunks, so the values depend on
    # neither the chunk nor the block size.
    i_end, f_prev = 0.0, 0.0 - c
    for m_vals, ends, pieces in _integral_pieces(x_max, kappa):
        pieces[0] += i_end
        i_ends = np.cumsum(pieces)
        f_ends = i_ends - c
        f_starts = np.concatenate(([f_prev], f_ends[:-1]))
        for j in np.flatnonzero((f_starts < 0.0) != (f_ends < 0.0)).tolist():
            # Solve I(n) + m (P(x) - P(n)) = c for x in (n, n+1], with
            # P(n) = ends[j] and I(n) = f_starts[j] + c.
            v = float(ends[j]) + (c - float(f_starts[j] + c)) / float(m_vals[j])
            crossings.append(math.exp(v) if kappa == 1.0
                             else float(((1.0 - kappa) * v) ** (1.0 / (1.0 - kappa))))
        i_end, f_prev = float(i_ends[-1]), float(f_ends[-1])
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
    whole.  The stream hands out mu alone, and a chunk forms M(n) only when
    a bound on its largest |M| from the sums of its runs of _DENSITY_RUN
    integers does not clear it: from M_a to M_b over such a run, |M| stays
    at most (|M_a| + |M_b| + _DENSITY_RUN)/2.  No such n exists up to 10^7,
    so the value is log(X/2)/log X there, within about half an ulp at the X
    tested, and no logarithm is taken per integer.

    The normalizer is log X, matching the density definition's denominator;
    since the integration window starts at 2, values are bounded by
    1 - log 2 / log X < 1.
    """
    X = float(X)
    _check_x(X, 4.0, "X")
    lost = []
    m_prev = 0  # M(n0 - 1)
    for n0, mu in _stream(int(math.floor(X))):
        if len(mu) % _DENSITY_RUN == 0:
            runs = np.add.reduce(mu.reshape(-1, _DENSITY_RUN), axis=1, dtype=np.int16)
            ends = np.cumsum(runs, dtype=np.int64)
            ends += m_prev  # M at the end of each run
            m_next = int(ends[-1])
            ends = np.abs(np.concatenate(([m_prev], ends)))
            if (int((ends[1:] + ends[:-1]).max()) + _DENSITY_RUN) ** 2 <= 4 * n0:
                m_prev = m_next
                continue
        m_vals, m_prev = _prefix(mu, m_prev)
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


# The columns of a tau_regime_scan row, in the order the CLI prints them.
TAU_REGIME_COLUMNS = ("x", "schedule", "c", "status", "tau", "m_tau", "m_over_sqrt",
                      "m_tau32_over_sqrt", "growth_factor")


def tau_regime_scan(
    x_list: list[float],
    schedule: TauSchedule,
    cache: CheckpointCache | None = None,
) -> list[dict]:
    """Evaluate M_tau(x) along a tau schedule.

    Emits one row per x, keyed by TAU_REGIME_COLUMNS: the normalized
    columns M_tau/sqrt(x) and M_tau * tau^(3/2) / sqrt(x), plus the
    growth-factor helper column (tau/e)^(-tau-1).  Rows where the schedule
    is undefined carry status="undefined" instead of raising.  The rows
    share one power-sum sieve (integer tau <= 3) or one mu stream up to the
    largest x (see _riesz_means).
    """
    rows: list[dict] = []
    defined: list[dict] = []
    points: list[tuple[float, float]] = []
    for x in x_list:
        x = float(x)
        row = dict(zip(TAU_REGIME_COLUMNS, (x, schedule.kind, schedule.c)))
        rows.append(row)
        try:
            points.append((x, tau_for(schedule, x)))
        except ScheduleUndefined:
            row.update(dict.fromkeys(TAU_REGIME_COLUMNS[3:]), status="undefined")
            continue
        defined.append(row)
    for row, (x, tau), m_tau in zip(defined, points, _riesz_means(points)):
        sqrt_x = math.sqrt(x)
        row.update(zip(TAU_REGIME_COLUMNS[3:], ("ok", tau, m_tau, m_tau / sqrt_x,
                                                m_tau * tau**1.5 / sqrt_x, _growth_factor(tau))))
    return rows
