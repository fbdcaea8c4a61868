"""Exact integer-side computations around the Moebius function.

Segmented numpy sieving of mu(n), the summatory function M(x) with
checkpointed streaming, Riesz-weighted means, piecewise-exact integrals of
M(u) against power weights, the logarithmic density of {t : |M(t)| <= sqrt(t)},
and tau-schedule scans.

Everything here is integer-exact where the mathematics is (mu, M) and
rounding-exact where only the final weighting is real-valued: integrands are
constant (or polynomial) on unit intervals, so integrals are evaluated in
closed form per interval, never by approximate quadrature -- with one
documented exception, the Riesz recurrence check for tau >= 2, which uses
5-point Gauss-Legendre nodes per unit interval; the integrand there is a
piecewise polynomial of degree tau - 1, so the rule is still exact for
tau <= 10.
"""

from __future__ import annotations

import bisect
import itertools
import math
import os
import struct
import uuid
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, OutOfRange, ParseError, ScheduleUndefined

__all__ = [
    "SIEVE_MAX",
    "CHECKPOINT_STRIDE",
    "MoebiusSegment",
    "MertensCheckpoint",
    "CheckpointCache",
    "RieszQuery",
    "TauSchedule",
    "default_cache",
    "sieve_segment",
    "mertens",
    "riesz_mean_direct",
    "integral_M",
    "weak_mertens_integral",
    "riesz_recurrence_check",
    "density_S",
    "tau_regime_scan",
    "tau_for",
]

# Hard ceiling for sieve arguments (cost guard; the algorithms are linear).
SIEVE_MAX = 10**9

# Default spacing between persisted Mertens checkpoints.
CHECKPOINT_STRIDE = 10**6

_BLOCK = 1 << 20

_CHECKPOINT_MAGIC = b"MRTC0001"
_CHECKPOINT_RECORD = struct.Struct("<Qqd")

# Cost guards for the quadrature branch of riesz_recurrence_check.
_RECURRENCE_QUAD_MAX_X = 3000.0
_RECURRENCE_MAX_TAU = 10


@dataclass(frozen=True)
class MoebiusSegment:
    """mu(n) for n in [lo, hi), plus the running Mertens value at the left edge."""

    lo: int
    hi: int
    mu: np.ndarray  # int8 values in {-1, 0, +1}
    mertens_at_lo_minus_1: int


@dataclass
class MertensCheckpoint:
    """State frozen at x: M(x) and the integral of (M/u)^2 over [1, x]."""

    x: int
    M: int
    I2: float


@dataclass(frozen=True)
class RieszQuery:
    """Parameters of a Riesz-weighted Mertens query."""

    x: float
    tau: float = 0.0
    kappa: float = 0.0


@dataclass(frozen=True)
class TauSchedule:
    """A named tau schedule: constant c, c/log x, or the iterated-log form
    c * log log x / log log log log x."""

    kind: str  # "constant" | "inv-log" | "iterated-log"
    c: float = 1.0


# ---------------------------------------------------------------------------
# Sieving primitives
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


def _primes_for(n_max: int) -> np.ndarray:
    """Prime table for sieving values up to n_max, cached in coarse steps."""
    need = max(64, math.isqrt(max(n_max, 1)))
    rounded = 1 << (need - 1).bit_length()
    return _primes_upto(rounded)


def _segment_mu(lo: int, hi: int) -> np.ndarray:
    """Exact mu(n) for n in [lo, hi) via one multiply-and-divide sweep per
    prime p <= sqrt(hi-1), a square pass, and a large-prime fixup."""
    n = hi - lo
    mu = np.ones(n, dtype=np.int8)
    rem = np.arange(lo, hi, dtype=np.int64)
    root = math.isqrt(hi - 1)
    for p in _primes_for(hi - 1):
        p = int(p)
        if p > root:
            break
        start = ((lo + p - 1) // p) * p - lo
        mu[start::p] *= -1
        rem[start::p] //= p
        p2 = p * p
        start2 = ((lo + p2 - 1) // p2) * p2 - lo
        mu[start2::p2] = 0
    # entries with a single prime factor > sqrt(hi-1) still carry it in rem
    mu[rem > 1] *= -1
    return mu


# ---------------------------------------------------------------------------
# Checkpointed streaming
# ---------------------------------------------------------------------------


class CheckpointCache:
    """Mertens checkpoints at a fixed stride plus a movable frontier.

    The cache is purely an accelerator: every public operation produces
    identical values with or without it.  Persistence format: the magic
    header MRTC0001 followed by little-endian (x: u64, M: i64, I2: f64)
    records in ascending x.
    """

    def __init__(self, stride: int = CHECKPOINT_STRIDE) -> None:
        if stride < 2:
            raise OutOfRange(f"stride must be >= 2, got {stride}")
        self.stride = int(stride)
        self._xs: list[int] = []
        self._by_x: dict[int, MertensCheckpoint] = {}
        self._frontier: MertensCheckpoint | None = None
        self.ikappa_memo: dict[tuple[float, float], float] = {}

    def record(self, x: int, m: int, i2: float) -> None:
        if x in self._by_x:
            return
        bisect.insort(self._xs, x)
        self._by_x[x] = MertensCheckpoint(x=x, M=m, I2=i2)

    def note_frontier(self, x: int, m: int, i2: float) -> None:
        if self._frontier is None or x > self._frontier.x:
            self._frontier = MertensCheckpoint(x=x, M=m, I2=i2)

    def checkpoints(self) -> list[MertensCheckpoint]:
        return [self._by_x[x] for x in self._xs]

    def anchor(self, x: int) -> MertensCheckpoint:
        """Best stored state with anchor.x <= x (base state M(1)=1 when none)."""
        best = MertensCheckpoint(x=1, M=1, I2=0.0)
        idx = bisect.bisect_right(self._xs, x) - 1
        if idx >= 0 and self._xs[idx] > best.x:
            best = self._by_x[self._xs[idx]]
        if self._frontier is not None and best.x < self._frontier.x <= x:
            best = self._frontier
        return best

    def save(self, path) -> None:
        records = (_CHECKPOINT_RECORD.pack(cp.x, cp.M, cp.I2) for cp in self.checkpoints())
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
        for off in range(0, len(body), _CHECKPOINT_RECORD.size):
            x, m, i2 = _CHECKPOINT_RECORD.unpack_from(body, off)
            if x <= prev:
                raise ParseError(f"{path}: checkpoint x values not ascending")
            if abs(m) > x or i2 < 0:
                raise ParseError(f"{path}: implausible checkpoint ({x}, {m}, {i2})")
            cache.record(int(x), int(m), float(i2))
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


_default_cache = CheckpointCache()


def default_cache() -> CheckpointCache:
    """The process-wide checkpoint cache used when none is passed."""
    return _default_cache


# The state before n = 1, where streams that accumulate from the origin start.
_ORIGIN = MertensCheckpoint(x=0, M=0, I2=0.0)


def _stream(x_floor: int, cache: CheckpointCache, anchor: MertensCheckpoint = _ORIGIN):
    """Stream mu for n in (anchor.x, x_floor], resuming from the state frozen
    in anchor.

    Yields (n0, mu, m_vals, i2) for every block of consecutive integers n in
    [n0, n0 + len(mu)), with m_vals[i] = M(n0 + i) and i2 the integral of
    (M/u)^2 over [1, n0 + len(mu) - 1].  Blocks hold _BLOCK integers counted
    from anchor.x + 1, so a consumer that cuts them at its own floor(x) sums
    over the same blocks as a stream that ends there.  Stride checkpoints are
    recorded on the way and the frontier once the stream is exhausted, so any
    long stream accelerates later Mertens queries.
    """
    if x_floor < 1:
        raise OutOfRange(f"x must be >= 1, got {x_floor}")
    if x_floor > SIEVE_MAX:
        raise OutOfRange(f"x = {x_floor} exceeds supported maximum {SIEVE_MAX}")
    if anchor.x == x_floor:
        return
    m_prev = anchor.M
    i2_lo = anchor.I2  # integral of (M/u)^2 over [1, last processed integer]
    n_next = anchor.x + 1
    while n_next <= x_floor:
        n1 = min(n_next + _BLOCK, x_floor + 1)
        mu = _segment_mu(n_next, n1)
        m_vals = np.cumsum(mu, dtype=np.int64)
        if m_prev:
            m_vals += m_prev
        i2_lo = _advance_i2(cache, n_next, m_prev, m_vals, i2_lo)
        m_prev = int(m_vals[-1])
        yield n_next, mu, m_vals, i2_lo
        n_next = n1
    cache.note_frontier(x_floor, m_prev, i2_lo)


def _advance_i2(
    cache: CheckpointCache, n0: int, m_prev: int, m_vals: np.ndarray, i2_lo: float
) -> float:
    """Integral of (M/u)^2 over [1, n0 + len(m_vals) - 1], given its value
    i2_lo over [1, n0 - 1], M(n0 - 1) = m_prev and m_vals[i] = M(n0 + i);
    records the stride checkpoints that fall in the block.  Its arrays die on
    return, so they do not outlive the block in a suspended stream."""
    n1 = n0 + len(m_vals)
    # M(k)^2 (1/k - 1/(k+1)) on the intervals [k, k+1), k = n0-1 .. n1-2,
    # where M is constant; in place, so a block holds two float arrays
    ks = np.arange(n0 - 1, n1 - 1, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        incr = 1.0 / ks
        ks += 1.0
        incr -= np.divide(1.0, ks, out=ks)
        m_sq = ks
        m_sq[0] = m_prev
        m_sq[1:] = m_vals[:-1]
        incr *= np.multiply(m_sq, m_sq, out=m_sq)
    if n0 == 1:
        incr[0] = 0.0  # no [0, 1) interval
    stride = cache.stride
    cp = ((n0 + stride - 1) // stride) * stride
    if cp <= n1 - 1:
        prefix = np.cumsum(incr)
        while cp <= n1 - 1:
            j = cp - n0
            cache.record(cp, int(m_vals[j]), i2_lo + float(prefix[j]))
            cp += stride
    return i2_lo + float(incr.sum())


def _state_at(x_floor: int, cache: CheckpointCache) -> tuple[int, float]:
    """(M(x_floor), integral of (M/u)^2 over [1, x_floor]), streamed from the
    best checkpoint or frontier at or below x_floor."""
    anchor = cache.anchor(x_floor)
    m, i2 = anchor.M, anchor.I2
    for _, _, m_vals, i2 in _stream(x_floor, cache, anchor):
        m = int(m_vals[-1])
    return m, i2


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def sieve_segment(lo: int, hi: int, cache: CheckpointCache | None = None) -> MoebiusSegment:
    """Exact mu(n) for n in [lo, hi) plus M(lo-1) (0 when lo = 1).

    Linear in (hi - lo) after the prime table, except that computing M(lo-1)
    for lo > 1 streams from the nearest checkpoint.
    """
    if not (1 <= lo < hi <= SIEVE_MAX):
        raise OutOfRange(f"need 1 <= lo < hi <= {SIEVE_MAX}, got [{lo}, {hi})")
    cache = cache or _default_cache
    m_lo = mertens(lo - 1, cache) if lo > 1 else 0
    return MoebiusSegment(lo=lo, hi=hi, mu=_segment_mu(lo, hi), mertens_at_lo_minus_1=m_lo)


def mertens(x: int, cache: CheckpointCache | None = None) -> int:
    """Exact M(x) = sum of mu(n) for n <= x, via checkpointed streaming."""
    x = int(x)
    if x < 1 or x > SIEVE_MAX:
        raise OutOfRange(f"need 1 <= x <= {SIEVE_MAX}, got {x}")
    cache = cache or _default_cache
    m, _ = _state_at(x, cache)
    return m


def riesz_mean_direct(query: RieszQuery, cache: CheckpointCache | None = None) -> float:
    """Direct evaluation of the Riesz-weighted mean

        M_tau(x) = (1/Gamma(tau+1)) * sum_{n <= x} mu(n) (1 - n/x)^tau.

    Boundary convention at integer x: the n = x factor is (1 - 1)^tau = 0 for
    tau > 0, but for tau = 0 the factor is taken as 1, so M_0 coincides with
    the plain summatory function M.  Summation is compensated (fsum per block,
    fsum across blocks).
    """
    (value,) = _riesz_means([(float(query.x), float(query.tau))], cache or _default_cache)
    return value


def _riesz_means(points: list[tuple[float, float]], cache: CheckpointCache) -> list[float]:
    """M_tau(x) for each (x, tau) in points, from one stream from n = 1 up to
    the largest floor(x).

    Each block is cut at each point's floor(x), so a point sums over the same
    blocks, with the same per-block fsum, as a stream of its own would.  Points
    with tau = 0 read M(floor(x)) from the checkpoints instead.
    """
    for x, tau in points:
        if tau < 0:
            raise DomainError(f"tau must be >= 0, got {tau}")
        if x < 1:
            raise DomainError(f"x must be >= 1, got {x}")
    weighted = [(x, tau, math.lgamma(1.0 + tau), []) for x, tau in points if tau != 0.0]
    if weighted:
        for n0, mu, _, _ in _stream(math.floor(max(x for x, *_ in weighted)), cache):
            for x, tau, log_norm, parts in weighted:
                if n0 > x:
                    continue
                mu_x = mu[: math.floor(x) + 1 - n0]
                ns = np.arange(n0, n0 + len(mu_x), dtype=np.float64)
                with np.errstate(divide="ignore"):
                    w = np.exp(tau * np.log1p(-ns / x) - log_norm)
                nz = mu_x != 0
                if nz.any():
                    terms = mu_x[nz].astype(np.float64) * w[nz]
                    parts.append(math.fsum(terms.tolist()))
    sums = iter([math.fsum(parts) for *_, parts in weighted])
    return [
        float(mertens(math.floor(x), cache)) if tau == 0.0 else next(sums) for x, tau in points
    ]


def _power_antideriv(u: np.ndarray, kappa: float) -> np.ndarray:
    """Antiderivative of u^(-kappa): log u when kappa = 1, else u^(1-kappa)/(1-kappa)."""
    if kappa == 1.0:
        return np.log(u)
    return u ** (1.0 - kappa) / (1.0 - kappa)


def integral_M(
    x: float, kappa: float, cache: CheckpointCache | None = None
) -> float:
    """Piecewise-exact integral of M(u) u^(-kappa) over [1, x].

    M is constant on [n, n+1), so the integral is a sum of closed-form
    antiderivative differences; the kappa = 1 branch uses the logarithm.
    """
    x = float(x)
    if x < 1:
        raise DomainError(f"x must be >= 1, got {x}")
    kappa = float(kappa)
    cache = cache or _default_cache
    key = (kappa, x)
    memo = cache.ikappa_memo
    if key in memo:
        return memo[key]
    parts: list[float] = []
    for n0, mu, m_vals, _ in _stream(int(math.floor(x)), cache):
        ns = np.arange(n0, n0 + len(mu), dtype=np.float64)
        uppers = np.minimum(ns + 1.0, x)
        deltas = _power_antideriv(uppers, kappa) - _power_antideriv(ns, kappa)
        contrib = m_vals.astype(np.float64) * deltas
        parts.append(math.fsum(contrib.tolist()))
    value = math.fsum(parts)
    memo[key] = value
    return value


def weak_mertens_integral(x: float, cache: CheckpointCache | None = None) -> float:
    """Piecewise-exact integral of (M(u)/u)^2 over [1, x] (antiderivative -1/u)."""
    x = float(x)
    if x < 1:
        raise DomainError(f"x must be >= 1, got {x}")
    cache = cache or _default_cache
    x_floor = int(math.floor(x))
    m_floor, i2 = _state_at(x_floor, cache)
    if x > x_floor:
        i2 += float(m_floor) * m_floor * (1.0 / x_floor - 1.0 / x)
    return i2


_GL5_NODES = np.polynomial.legendre.leggauss(5)


def riesz_recurrence_check(
    x: float, tau: int, cache: CheckpointCache | None = None
) -> float:
    """Residual |LHS - RHS| of the recurrence

        integral_1^x u^(tau-1) M_{tau-1}(u) du = x^tau M_tau(x).

    tau = 1 is evaluated piecewise-exactly on both sides.  For tau in [2, 10]
    the left side integrand u^(tau-1) M_{tau-1}(u) is a piecewise polynomial
    of degree tau - 1, so per-unit-interval 5-point Gauss-Legendre quadrature
    is still exact; cost grows quadratically, hence the x guard.
    """
    x = float(x)
    if x < 1:
        raise DomainError(f"x must be >= 1, got {x}")
    if not isinstance(tau, int) or isinstance(tau, bool) or tau < 1:
        raise DomainError(f"tau must be an integer >= 1, got {tau!r}")
    if tau > _RECURRENCE_MAX_TAU:
        raise OutOfRange(f"tau = {tau} exceeds supported maximum {_RECURRENCE_MAX_TAU}")
    cache = cache or _default_cache
    rhs = x**tau * riesz_mean_direct(RieszQuery(x=x, tau=float(tau)), cache)
    if tau == 1:
        lhs = integral_M(x, 0.0, cache)
        return abs(lhs - rhs)
    if x > _RECURRENCE_QUAD_MAX_X:
        raise OutOfRange(
            f"x = {x} exceeds quadrature guard {_RECURRENCE_QUAD_MAX_X} for tau >= 2"
        )
    x_floor = int(math.floor(x))
    mu_all = _segment_mu(1, x_floor + 1)
    nodes, weights = _GL5_NODES
    log_norm = math.lgamma(float(tau))  # Gamma(tau) normalizes M_{tau-1}
    ns = np.arange(1, x_floor + 1, dtype=np.float64)
    mu_f = mu_all.astype(np.float64)
    pieces: list[float] = []
    a = 1.0
    while a < x:
        b = min(a + 1.0, x)
        u = (a + b) / 2.0 + (b - a) / 2.0 * nodes
        m_count = min(int(a), x_floor)
        # M_{tau-1}(u) * u^(tau-1) = (1/Gamma(tau)) * sum_{n<=u} mu(n) (u-n)^(tau-1)
        diffs = u[:, None] - ns[None, :m_count]
        vals = (diffs ** (tau - 1)) @ mu_f[:m_count]
        integrand = vals * math.exp(-log_norm)
        pieces.append((b - a) / 2.0 * float(np.dot(weights, integrand)))
        a = b
    lhs = math.fsum(pieces)
    return abs(lhs - rhs)


def density_S(X: float, cache: CheckpointCache | None = None) -> float:
    """Logarithmic density estimate of S = {t : |M(t)| <= sqrt(t)}:

        (1 / log X) * integral over [2, X] of [|M(t)| <= sqrt(t)] dt/t

    with membership resolved exactly on each unit interval (M is constant
    there and sqrt is monotone, so the only crossing is at t = M(n)^2,
    compared in integer arithmetic).

    The normalizer is log X, matching the density definition's denominator;
    since the integration window starts at 2, values are bounded by
    1 - log 2 / log X < 1.
    """
    X = float(X)
    if X < 4:
        raise DomainError(f"X must be >= 4, got {X}")
    cache = cache or _default_cache
    parts: list[float] = []
    for n0, mu, m_vals, _ in _stream(int(math.floor(X)), cache):
        hi_full = n0 + len(mu)
        lo_n = max(n0, 2)
        if lo_n >= hi_full:
            continue
        off = lo_n - n0
        ns = np.arange(lo_n, hi_full, dtype=np.int64)
        ms = m_vals[off:]
        m_sq = ms * ms  # integer arithmetic: exact membership boundary at t = M^2
        uppers = np.minimum((ns + 1).astype(np.float64), X)
        lowers = ns.astype(np.float64)
        # holds on [max(lower, M^2), upper) when M^2 < upper; else empty
        starts = np.maximum(lowers, m_sq.astype(np.float64))
        good = starts < uppers
        if good.any():
            ratio = np.log(uppers[good] / starts[good])
            parts.append(math.fsum(ratio.tolist()))
    return math.fsum(parts) / math.log(X)


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


def tau_regime_scan(
    x_list: list[float],
    schedule: TauSchedule,
    cache: CheckpointCache | None = None,
) -> list[dict]:
    """Evaluate M_tau(x) along a tau schedule.

    Emits one row per x with the normalized columns M_tau/sqrt(x) and
    M_tau * tau^(3/2) / sqrt(x), plus the growth-factor helper column
    (tau/e)^(-tau-1).  Rows where the schedule is undefined carry
    status="undefined" instead of raising.  One mu stream up to the largest x
    serves every row.
    """
    cache = cache or _default_cache
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
        if tau > 0:
            growth = math.exp(-(tau + 1.0) * (math.log(tau) - 1.0))
        else:
            growth = math.inf
        row.update(
            {
                "status": "ok",
                "tau": tau,
                "m_tau": m_tau,
                "m_over_sqrt": m_tau / sqrt_x,
                "m_tau32_over_sqrt": m_tau * tau**1.5 / sqrt_x,
                "growth_factor": growth,
            }
        )
    return rows
