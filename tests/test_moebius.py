"""Sieve, Mertens, Riesz means, exact integrals, schedules, density.

The mu oracle here is an independent trial-division factorization; Mertens
spot values are classical table entries.  Closed-form integral cases are
worked by hand in the assertions.
"""

import math
import struct
import tracemalloc
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrl import kernel, moebius
from mrl.errors import DomainError, OutOfRange, ParseError, ScheduleUndefined
from mrl.moebius import (
    CheckpointCache,
    RieszQuery,
    TauSchedule,
    density_S,
    divim_sign_changes,
    integral_M,
    mertens,
    riesz_mean_direct,
    sieve_segment,
    tau_for,
    tau_regime_scan,
    weak_mertens_integral,
)
from oracles import riesz_recurrence_check

# Classical spot values of the summatory Moebius function.
MERTENS_TABLE = {
    1: 1,
    2: 0,
    10: -1,
    100: 1,
    1000: 2,
    10_000: -23,
    100_000: -48,
    1_000_000: 212,
}

MU_FIRST_20 = [1, -1, -1, 0, -1, 1, -1, 0, 0, 1,
               -1, 0, -1, 1, 1, 0, -1, 0, -1, 0]


def mu_trial_division(n: int) -> int:
    """Independent oracle: factor by trial division, 0 on a squared factor."""
    if n == 1:
        return 1
    sign, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            sign = -sign
        d += 1
    return -sign


def test_mu_first_values(shared_cache):
    seg = sieve_segment(1, 21, shared_cache)
    assert list(seg.mu) == MU_FIRST_20


def test_mu_against_trial_division(shared_cache):
    seg = sieve_segment(1, 10_001, shared_cache)
    for n in range(1, 10_001):
        assert seg.mu[n - 1] == mu_trial_division(n), f"mu({n})"


def mu_divide_per_prime(lo: int, hi: int) -> np.ndarray:
    """Reference kernel without the wheel or the signed product: one
    multiply-and-divide sweep per prime p <= sqrt(hi-1), a square pass, and a
    large-prime fixup."""
    mu = np.ones(hi - lo, dtype=np.int8)
    rem = np.arange(lo, hi, dtype=np.int64)
    root = math.isqrt(hi - 1)
    for p in moebius._primes_upto(moebius._table_limit(hi - 1)):
        p = int(p)
        if p > root:
            break
        start = ((lo + p - 1) // p) * p - lo
        mu[start::p] *= -1
        rem[start::p] //= p
        p2 = p * p
        start2 = ((lo + p2 - 1) // p2) * p2 - lo
        mu[start2::p2] = 0
    mu[rem > 1] *= -1
    return mu


# Segments for the sieve kernel: the shortest ones, whole blocks, the top of
# the sieve range, and lengths that are no multiple of the wheel's period.
PERIOD = moebius._WHEEL
KERNEL_SEGMENTS = [
    (1, 2),
    (1, 3),
    (1, 1 + (1 << 20)),
    (8_000_001, 8_000_001 + (1 << 20)),
    (10**9 - (1 << 20), 10**9 + 1),
    (7 * PERIOD - 1234, 9 * PERIOD + 4321),
    (PERIOD - 3, PERIOD + 5),
]


@pytest.mark.parametrize("lo, hi", KERNEL_SEGMENTS)
def test_segment_mu_matches_divide_per_prime_kernel(lo, hi):
    assert np.array_equal(moebius._segment_mu(lo, hi), mu_divide_per_prime(lo, hi))


@pytest.mark.parametrize("lo, hi", KERNEL_SEGMENTS)
def test_segment_mu_trial_division_samples(lo, hi):
    mu = moebius._segment_mu(lo, hi)
    assert mu.dtype == np.int8 and len(mu) == hi - lo
    picks = {0, hi - lo - 1} | set(np.random.default_rng(lo).integers(0, hi - lo, 40).tolist())
    # both sides of every period boundary inside the segment
    for k in range(-lo % PERIOD, hi - lo, PERIOD):
        picks |= {i for i in (k - 1, k, k + 1) if 0 <= i < hi - lo}
    for i in sorted(picks):
        assert mu[i] == mu_trial_division(lo + i), f"mu({lo + i})"


@pytest.mark.parametrize(
    "lo, hi",
    [
        (2**31 - 64, 2**31 + 192),
        # 18 * 2^32 + 1 is prime; in wrapped int32 it reads as 1, its signed
        # product, so it would pass for a squarefree n without a large prime
        (18 * 2**32 - 7, 18 * 2**32 + 9),
    ],
)
def test_segment_mu_above_int32(lo, hi):
    mu = moebius._segment_mu(lo, hi)
    assert mu.tolist() == [mu_trial_division(n) for n in range(lo, hi)]


# The log-sum kernel against the oracle: whole blocks, every short segment
# from 1, and the crossings of each 2^k, where the threshold T_k steps.
@pytest.mark.parametrize("lo", range(1, 1 << 22, 1 << 20))
def test_segment_mu_matches_oracle_on_blocks_to_2_22(lo):
    hi = lo + (1 << 20)
    assert np.array_equal(moebius._segment_mu(lo, hi), mu_divide_per_prime(lo, hi))


def test_segment_mu_matches_oracle_on_every_short_segment_from_1():
    for hi in range(2, 3001):
        assert np.array_equal(moebius._segment_mu(1, hi), mu_divide_per_prime(1, hi)), hi


@pytest.mark.parametrize("k", range(2, 35))
def test_segment_mu_matches_oracle_across_powers_of_two(k):
    lo, hi = max(1, (1 << k) - 700), (1 << k) + 700
    assert np.array_equal(moebius._segment_mu(lo, hi), mu_divide_per_prime(lo, hi))


def _primorials(count: int) -> list[int]:
    primes = moebius._primes_upto(64).tolist()[:count]
    return [math.prod(primes[:k]) for k in range(1, count + 1)]


def _next_prime(n: int) -> int:
    n += 1
    while any(n % d == 0 for d in range(2, math.isqrt(n) + 1)):
        n += 1
    return n


# omega-extremal n: the primorials 2, 6, ..., 2 * 3 * ... * 31 (the sum of
# their costs is the least for their size), among them 223092870 = 2 * 3 *
# ... * 23; and each primorial P <= 510510 times the least prime q above
# it, which has the most prime factors a number with one factor above the
# root can have.  In the segment [P q - 64, P q], q > isqrt(P q) = root.
EXTREMAL_SEGMENTS = [(max(1, p - 64), p + 65) for p in _primorials(11)] + [
    (max(1, p * q - 64), p * q + 1) for p, q in ((p, _next_prime(p)) for p in _primorials(7))
]


@pytest.mark.parametrize("lo, hi", EXTREMAL_SEGMENTS)
def test_segment_mu_at_omega_extremal_n(lo, hi):
    assert np.array_equal(moebius._segment_mu(lo, hi), mu_divide_per_prime(lo, hi))


def test_sieve_bounds_hold_up_to_the_largest_n():
    # the costs sit in (4 log2 p - 1, 4 log2 p + 1], exactly in integers
    top = moebius._SEGMENT_MAX - 1
    limit = moebius._table_limit(top)
    assert limit == 1 << 20
    for p, c in zip(moebius._primes_upto(limit).tolist(), moebius._prime_costs(limit).tolist()):
        assert c % 2 == 1 and 2 ** (c - 1) <= p**4 < 2 ** (c + 1), p
    # omega_bound is the number of primes in the largest primorial <= n
    for k, p in enumerate(_primorials(12), start=1):
        assert moebius._omega_bound(p) == k and moebius._omega_bound(p - 1) == max(k - 1, 1)
    w_top = moebius._omega_bound(top)
    assert w_top == 11
    # the gap: 4 log2 R_w >= 2w + 2 with R_w least, for every w below the top
    for w in range(1, w_top + 1):
        r = moebius._root_floor(w)
        assert r**2 >= 2 ** (w + 1) > (r - 1) ** 2, w
        assert r <= 64  # the prime table always reaches 64
    # the headroom: s <= 4 log2 n + omega(n) < 4 * 40 + 11 < 2^8, and the
    # thresholds max(0, 4k - w + 1) of every binade fit in a byte too
    assert top.bit_length() == 40 and 4 * 40 + w_top < 256
    assert all(0 <= max(0, 4 * k - w_top + 1) < 256 for k in range(40))
    with pytest.raises(OutOfRange):
        moebius._segment_mu(top - 5, top + 2)


def test_segment_mu_into_a_reused_buffer_matches_a_fresh_block():
    # each block overwrites what the one before left in the buffer; the last
    # one is a tail shorter than the buffer
    block = 1 << 20
    buffer = np.empty(block, dtype=np.int8)
    for lo, hi in [(1, 1 + block), (block + 1, 2 * block + 1), (10**9 - block, 10**9),
                   (moebius._SEGMENT_MAX - block, moebius._SEGMENT_MAX),
                   (3 * block + 1, 3 * block + 12_345)]:
        mu = moebius._segment_mu(lo, hi, buffer)
        assert np.shares_memory(mu, buffer) and len(mu) == hi - lo
        assert np.array_equal(mu, moebius._segment_mu(lo, hi)), lo


def test_segment_stitching(shared_cache):
    whole = sieve_segment(1, 5000, shared_cache)
    part = sieve_segment(1234, 5000, shared_cache)
    assert np.array_equal(part.mu, whole.mu[1233:])
    assert part.mertens_at_lo_minus_1 == int(whole.mu[:1233].sum())


def test_segment_bounds(shared_cache):
    with pytest.raises(OutOfRange):
        sieve_segment(0, 10, shared_cache)
    with pytest.raises(OutOfRange):
        sieve_segment(10, 10, shared_cache)


def test_mertens_table(shared_cache):
    for x, want in MERTENS_TABLE.items():
        assert mertens(x, shared_cache) == want, f"M({x})"


def test_mertens_fresh_vs_checkpointed(cache, shared_cache):
    # shared_cache already holds checkpoints from earlier drives; a cold
    # cache must produce identical values.
    for x in (999_983, 1_000_000, 1_500_000):
        assert mertens(x, cache) == mertens(x, shared_cache)


def test_checkpoint_roundtrip(tmp_path, cache):
    integral_M(2_000_001.0, 0.5, cache)  # a stream across two checkpoint strides
    assert len(cache.checkpoints()) == 2
    path = tmp_path / "m.chk"
    cache.save(path)
    loaded = CheckpointCache.load(path)
    assert loaded.checkpoints() == cache.checkpoints()
    assert path.read_bytes()[:8] == b"MRTC0002"
    assert mertens(1_999_999, loaded) == mertens(1_999_999, cache)


def test_checkpoint_save_failing_partway_keeps_previous_file(tmp_path):
    path = tmp_path / "m.chk"
    good = CheckpointCache()
    good.record(1_000_000, 212)
    good.record(2_000_000, -14)
    good.save(path)
    before = path.read_bytes()
    bad = CheckpointCache()
    bad.record(1_000_000, 212)
    bad.record(2**64, 0)  # x overflows u64: packing fails after the first record
    with pytest.raises(struct.error):
        bad.save(path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["m.chk"]


def test_checkpoint_corrupt_file(tmp_path):
    bad = tmp_path / "bad.chk"
    bad.write_bytes(b"NOTAMAGIC" + b"\x00" * 32)
    with pytest.raises(ParseError):
        CheckpointCache.load(bad)
    # the older format, whose records also carried the integral of (M/u)^2
    bad.write_bytes(b"MRTC0001" + struct.pack("<Qqd", 1_000_000, 212, 1.5))
    with pytest.raises(ParseError):
        CheckpointCache.load(bad)


def _checkpoint_body(*records) -> bytes:
    return b"".join(struct.pack("<Qq", x, m) for x, m in records)


@pytest.mark.parametrize(
    "body, message",
    [
        pytest.param(_checkpoint_body((10, 1))[:-1], "truncated", id="length-not-16k"),
        pytest.param(_checkpoint_body((10, 1), (10, 1)), "not ascending", id="equal-x"),
        pytest.param(_checkpoint_body((0, 0)), "not ascending", id="first-x-zero"),
        # a record is checked for order before plausibility, records in file order
        pytest.param(_checkpoint_body((10, 1), (5, 9)), "not ascending", id="descending-first"),
        pytest.param(_checkpoint_body((10, 11), (5, 0)), "implausible", id="implausible-first"),
        pytest.param(_checkpoint_body((10, 11)), "implausible", id="m-above-x"),
        pytest.param(_checkpoint_body((1, -(2**63))), "implausible", id="m-least-i64"),
    ],
)
def test_checkpoint_load_refuses_a_bad_body(tmp_path, body, message):
    path = tmp_path / "m.chk"
    path.write_bytes(b"MRTC0002" + body)
    with pytest.raises(ParseError, match=message):
        CheckpointCache.load(path)


def test_checkpoint_file_bytes_survive_load_and_save(tmp_path):
    # the extremes of the record: x = 2^64 - 1 with M = 2^63 - 1 is accepted
    blob = b"MRTC0002" + _checkpoint_body(
        (1, -1), (2, 0), (10, -1), (1_000_000, 212), (2**64 - 1, 2**63 - 1)
    )
    src, dst = tmp_path / "src.chk", tmp_path / "dst.chk"
    src.write_bytes(blob)
    loaded = CheckpointCache.load(src)
    assert loaded.checkpoints()[-1] == moebius.MertensCheckpoint(2**64 - 1, 2**63 - 1)
    assert len(loaded) == len(loaded.checkpoints()) == 5
    loaded.save(dst)
    assert dst.read_bytes() == blob


def test_checkpoint_cache_contract():
    with pytest.raises(OutOfRange):
        CheckpointCache(stride=1)
    cache = CheckpointCache()
    cache.record(10, -1)
    cache.record(10, 5)  # the first recorded value wins
    cache.record(1, -1)
    cache.record(100, 1)
    cp = moebius.MertensCheckpoint
    assert cache.checkpoints() == [cp(1, -1), cp(10, -1), cp(100, 1)]
    # anchor: the base state M(1) = 1 below 2 and over a record at x = 1,
    # else the best recorded x <= the query
    for x, want in ((0, cp(1, 1)), (1, cp(1, 1)), (9, cp(1, 1)), (10, cp(10, -1)),
                    (99, cp(10, -1)), (100, cp(100, 1)), (10**9, cp(100, 1))):
        assert cache.anchor(x) == want, x
    # M(1) = 1 is the base value: served as such and never recorded
    assert mertens(1, cache) == 1
    empty = CheckpointCache()
    assert mertens(1, empty) == 1
    assert empty.checkpoints() == []


# ---------------------------------------------------------------------------
# The sublinear power sums S_0, ..., S_3 against the sieve
# ---------------------------------------------------------------------------

PUBLISHED_M_POWERS_OF_10 = [1, -1, 1, 2, -23, -48, 212, 1037, 1928, -222]  # OEIS A084237


@pytest.fixture(scope="module")
def prefix_sums():
    """S_j(v) = sum of mu(n) n^j over n <= v, for j <= 3 and v <= 3e6, as
    Python ints, from one from-1 sieve (|S_3(3e6)| passes 2^63)."""
    mu = sieve_segment(1, 3_000_001, CheckpointCache()).mu.astype(object)
    n = np.arange(1, 3_000_001).astype(object)
    return [[0, *np.cumsum(mu * n**j).tolist()] for j in range(4)]


def _seeded_xs() -> list[int]:
    rng = np.random.default_rng(10)
    strides = [k * moebius.CHECKPOINT_STRIDE for k in (1, 2, 3)]
    return [2**20 - 1, 2**20, 2**20 + 1, *strides, *rng.integers(1, 3_000_001, 30).tolist()]


def test_power_sums_match_sieve_below_3000(prefix_sums):
    for x in range(1, 3001):
        for degree in range(4):
            want = tuple(s[x] for s in prefix_sums[: degree + 1])
            assert moebius._mu_power_sums(x, degree) == want, (x, degree)


def test_power_sums_match_sieve_to_3e6(prefix_sums):
    assert max(abs(s) for s in prefix_sums[3]) > 2**63  # the CRT of three moduli runs
    xs = _seeded_xs()
    # one call shares its sieve and term arrays among points of degree 3
    # and degree 1, and points at and below the sieve's top read it directly
    top = moebius._power_sum_limit(max(xs))
    points = [(x, 3) for x in xs] + [(x, 1) for x in xs] + [(top, 2), (top // 3, 3)]
    shared = moebius._mu_power_sums_at(points)
    for (x, degree), got in zip(points, shared):
        want = tuple(s[x] for s in prefix_sums[: degree + 1])
        assert got == want, (x, degree)
    for x in xs:
        want = tuple(s[x] for s in prefix_sums)
        assert moebius._power_sum_limit(x) < x  # the identity, not the sieve
        assert moebius._mu_power_sums(x, 3) == want, x


def _sieved_rows(x: int, degree: int):
    """The power sum rows of _sieved_sums for x alone, with their ends."""
    limit = moebius._power_sum_limit(x)
    (rows,) = moebius._sieved_sums([(x, degree)], limit)
    return limit, moebius._sum_ends(x, limit), rows


def test_power_sum_terms_are_exact_at_the_sieve_top():
    # past n = 2^(53/3) a term mu(n) n^3 leaves the doubles, so sums that
    # end that far up show any product taken in float64
    x = 2 * 10**7
    limit, ends, rows = _sieved_rows(x, 3)
    assert limit**3 > 2**53 and ends[-1] <= limit
    lo = int(ends[-3])  # the last two segments, about 8000 integers
    mu = moebius._segment_mu(lo + 1, int(ends[-1]) + 1).tolist()
    n = range(lo + 1, int(ends[-1]) + 1)
    for (p, j), row in zip(moebius._residue_rows(3), rows):
        steps = [(int(row[i]) - int(row[i - 1])) % p for i in (-2, -1)]
        cut = int(ends[-2]) - lo
        want = [sum(m * v**j for m, v in zip(mu[:cut], n[:cut])) % p,
                sum(m * v**j for m, v in zip(mu[cut:], n[cut:])) % p]
        assert steps == want, (p, j)


def test_power_sum_rows_hold_sums_past_2_63():
    # at x = 2^28 the sieve runs to 2^20, where |S_3(v)| passes 2^63, so the
    # rows mod a prime must reduce their terms before summing them
    limit, ends, rows = _sieved_rows(1 << 28, 3)
    mu = moebius._segment_mu(1, limit + 1)
    n = np.flatnonzero(mu) + 1
    s3 = np.cumsum(mu[n - 1].astype(object) * n.astype(object) ** 3)
    at_ends = s3[np.searchsorted(n, ends, side="right") - 1].tolist()
    assert limit == 1 << 20 and max(abs(v) for v in at_ends) > 2**63
    for (p, j), row in zip(moebius._residue_rows(3), rows):
        if j == 3:
            assert row.tolist() == [v % p for v in at_ends], p


def test_power_sums_allocate_the_sieve_one_term_array_and_short_tables():
    # the terms mu(n) n^j of every row are formed in one int64 array as long
    # as the sieve (L bytes), and summed at the ends only.  Past these 9 L
    # bytes the short tables (about 2 sqrt(x) = L/32 sums per row, 7 rows)
    # take about 2.6 L; one more int64 temporary as long as the sieve would
    # add 8 L
    x = 2 * 10**7
    limit = moebius._power_sum_limit(x)
    assert limit == 64 * math.isqrt(x)
    moebius._mu_power_sums(x, 3)  # the prime tables are cached after this
    tracemalloc.start()
    try:
        moebius._mu_power_sums(x, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - 9 * limit < 4 * limit


def test_power_sums_past_one_block_keep_one_block_of_sieve():
    # [1, L] is sieved block by block into one buffer and summed a chunk at
    # a time, so the peak is the block, the chunk buffers (within 1 MB: three
    # arrays and the segment starts, no more) and the short tables: the
    # ends, one running sum per row and the segment sums of a chunk, within
    # 40 bytes per end.  The sieve of [1, L] whole would add a second
    # block; one int64 array as long as the sieve, 8 L bytes
    x = 10**9
    limit = moebius._power_sum_limit(x)
    ends = len(moebius._sum_ends(x, limit))
    assert limit > moebius._BLOCK  # two blocks
    moebius._mu_power_sums(x, 1)  # the prime tables are cached after this
    tracemalloc.start()
    try:
        moebius._mu_power_sums(x, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < moebius._BLOCK + (1 << 20) + 40 * ends


def test_streamed_op_keeps_one_block_of_mu():
    # the stream sieves every block into one buffer; a consumer adds its
    # chunk temporaries (density: M as int32, then M and n as int64 where it
    # checks n by n, under 40 bytes per chunk integer).  A second block kept
    # alive while the next is sieved, or a block-long flag array, passes
    # the bound
    x = 3e6
    assert x > 2 * moebius._BLOCK  # three blocks
    density_S(x)
    tracemalloc.start()
    try:
        density_S(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < moebius._BLOCK + 40 * moebius._CHUNK


def test_residue_count_follows_from_the_bound():
    # |S_j(x)| <= W_j(x) = sum of d^j over d <= x; the moduli of S_j must
    # multiply to more than 2 W_j(SIEVE_MAX), and one fewer would not do
    for j in range(4):
        for n in range(50):
            assert moebius._faulhaber(n, j) == sum(d**j for d in range(1, n + 1))
        need = 2 * moebius._faulhaber(moebius.SIEVE_MAX, j)
        count = moebius._RESIDUES[j]
        assert math.prod(moebius._MODULI[:count]) > need >= math.prod(moebius._MODULI[: count - 1])
    assert moebius._RESIDUES == (1, 1, 2, 3)
    assert moebius._MODULI[1:] == (2**31 - 1, 2**31 - 19)
    for p in moebius._MODULI[1:]:
        assert all(p % d for d in range(2, math.isqrt(p) + 1)), p  # prime


@given(st.integers(0, 3), st.data())
@settings(max_examples=200, deadline=None)
def test_crt_recovers_signed_values_up_to_the_bound(j, data):
    bound = moebius._faulhaber(moebius.SIEVE_MAX, j)
    s = data.draw(st.one_of(st.sampled_from([-bound, bound, 0, -1]),
                            st.integers(-bound, bound)))
    residues = [s % p for p in moebius._MODULI[: moebius._RESIDUES[j]]]
    assert moebius._crt(residues) == s


@given(st.integers(0, moebius.SIEVE_MAX))
@settings(max_examples=200, deadline=None)
def test_faulhaber_factors_match_faulhaber(n):
    # the factors 2 and 3 are divided out exactly before the products wrap
    factors = moebius._faulhaber_factors(np.array([n, max(n - 1, 0)], dtype=np.uint64), 3)
    for p, j in moebius._residue_rows(3):
        row = moebius._product(factors[j], p).tolist()
        assert row == [moebius._faulhaber(n, j) % p, moebius._faulhaber(max(n - 1, 0), j) % p]


def test_mertens_published_powers_of_ten():
    for k, want in enumerate(PUBLISHED_M_POWERS_OF_10):
        assert mertens(10**k, CheckpointCache()) == want, f"M(10^{k})"


def test_streamed_mertens_at_1e8_is_published():
    # The same pass sums mu(n) n^j, j <= 3, exactly, as the oracle of the
    # sublinear power sums: a chunk's n are n0 + i with i < 2^14, so
    # sum mu(n) n^j = sum_k C(j, k) n0^(j-k) sum mu(n0 + i) i^k, and the
    # inner sums stay below 2^56 in int64.
    exact = [0] * 4
    powers = None
    m = 0
    for n0, mu in moebius._stream(10**8, None):
        _, m = moebius._prefix(mu, m)
        if powers is None:
            powers = [np.arange(len(mu), dtype=np.int64) ** k for k in range(4)]
        terms = mu.astype(np.int64)
        inner = [int(terms @ pw[: len(terms)]) for pw in powers]
        for j in range(4):
            exact[j] += sum(math.comb(j, k) * n0 ** (j - k) * inner[k] for k in range(j + 1))
    assert n0 + len(mu) - 1 == 10**8
    assert m == exact[0] == PUBLISHED_M_POWERS_OF_10[8] == 1928
    assert moebius._mu_power_sums(10**8, 3) == tuple(exact)


def _affine_points() -> list[float]:
    ints = [1.0, 2.0, 4096.0, 4097.0, 123_457.0, 2.0**20 + 1, 3e6]
    fracs = [1.5, 57.25, 12_345.678, 1_048_577.5, 2_999_999.5]
    near = [math.nextafter(v, d) for v in (1e4, 1e6, 2.0**21) for d in (0.0, math.inf)]
    return ints + fracs + near


def test_affine_means_match_fraction_oracle(prefix_sums):
    # M_1(x) = sum mu(n) (1 - n/x) and the integral of M over [1, x], which
    # is sum mu(n) (x - n), exactly from the sieve's sums, rounded once
    s0, s1, s2, s3 = prefix_sums
    xs = _affine_points()
    scan = tau_regime_scan(xs, TauSchedule("constant", 1.0), CheckpointCache())
    for x, row in zip(xs, scan):
        n = math.floor(x)
        m1 = float(s0[n] - Fraction(s1[n]) / Fraction(x))
        integral = float(Fraction(x) * s0[n] - s1[n])
        assert riesz_mean_direct(RieszQuery(x, 1.0), CheckpointCache()).hex() == m1.hex(), x
        assert row["m_tau"].hex() == m1.hex(), x
        assert integral_M(x, 0.0, CheckpointCache()).hex() == integral.hex(), x
        assert riesz_mean_direct(RieszQuery(x, 0.0), CheckpointCache()) == float(s0[n])
    # the weights (1 - n/x)^2/2, (1 - n/x)^3/6, (x^2 - n^2)/2 and (x^3 - n^3)/3
    # are polynomials in n as well: S_2 and S_3 serve tau = 2, 3 and kappa = -1, -2
    scans = {tau: tau_regime_scan(xs, TauSchedule("constant", tau), CheckpointCache())
             for tau in (2.0, 3.0)}
    for i, x in enumerate(xs):
        n, u = math.floor(x), 1 / Fraction(x)
        means = {
            2.0: float((s0[n] - 2 * s1[n] * u + s2[n] * u**2) / 2),
            3.0: float((s0[n] - 3 * s1[n] * u + 3 * s2[n] * u**2 - s3[n] * u**3) / 6),
        }
        for tau, mean in means.items():
            assert riesz_mean_direct(RieszQuery(x, tau), CheckpointCache()).hex() == mean.hex(), x
            assert scans[tau][i]["m_tau"].hex() == mean.hex(), x
        integrals = {
            -1.0: float((Fraction(x) ** 2 * s0[n] - s2[n]) / 2),
            -2.0: float((Fraction(x) ** 3 * s0[n] - s3[n]) / 3),
        }
        for kappa, integral in integrals.items():
            assert integral_M(x, kappa, CheckpointCache()).hex() == integral.hex(), (x, kappa)


def test_mertens_records_and_reuses_its_value(tmp_path, monkeypatch):
    cache = CheckpointCache()
    m = mertens(1_234_567, cache)
    assert cache.checkpoints() == [moebius.MertensCheckpoint(1_234_567, m)]
    path = tmp_path / "m.chk"
    cache.save(path)
    loaded = CheckpointCache.load(path)
    assert loaded.checkpoints() == cache.checkpoints()

    # without a cache nothing is kept between calls
    calls = []
    power_sums = moebius._mu_power_sums
    monkeypatch.setattr(moebius, "_mu_power_sums",
                        lambda *args: calls.append(args) or power_sums(*args))
    assert mertens(1_234_567) == mertens(1_234_567) == m
    assert len(calls) == 2

    def recompute(*args):
        raise AssertionError("M(x) recomputed")

    monkeypatch.setattr(moebius, "_mu_power_sums", recompute)
    assert mertens(1_234_567, cache) == m
    assert mertens(1_234_567, loaded) == m
    with pytest.raises(AssertionError, match="recomputed"):
        mertens(1_234_568, loaded)


def test_riesz_tau_zero_recovers_mertens(shared_cache):
    for x in (10.0, 100.0, 1000.5):
        got = riesz_mean_direct(RieszQuery(x=x, tau=0.0), shared_cache)
        assert got == float(mertens(int(x), shared_cache))


def test_riesz_small_closed_forms(shared_cache):
    # x=4, tau=1: mu(1)(1-1/4) + mu(2)(1-2/4) + mu(3)(1-3/4) = 0
    assert riesz_mean_direct(RieszQuery(x=4.0, tau=1.0), shared_cache) == 0.0
    # x=6.5, tau=2 worked by hand (Gamma(3) = 2)
    x = 6.5
    want = 0.5 * math.fsum(
        MU_FIRST_20[n - 1] * (1.0 - n / x) ** 2 for n in range(1, 7)
    )
    got = riesz_mean_direct(RieszQuery(x=x, tau=2.0), shared_cache)
    assert got == pytest.approx(want, rel=1e-14)


def test_riesz_continuous_at_integers_for_positive_tau(shared_cache):
    # The weight (1 - n/x)^tau vanishes at n = x, so M_tau is continuous
    # across integer x when tau > 0.
    for n in (7, 100):
        lo = riesz_mean_direct(
            RieszQuery(x=math.nextafter(float(n), 0.0), tau=1.0), shared_cache
        )
        hi = riesz_mean_direct(
            RieszQuery(x=math.nextafter(float(n), math.inf), tau=1.0),
            shared_cache,
        )
        assert abs(hi - lo) < 1e-12


def test_riesz_recurrence_exact_at_tau_one():
    for x in (10.5, 300.0, 2000.25):
        resid = riesz_recurrence_check(x, 1)
        assert resid <= 1e-11 * x


def test_riesz_recurrence_quadrature_tau_2_to_10(shared_cache):
    # Both sides of the recurrence scale like x^tau * M_tau, so the honest
    # normalization is relative to that; measured residuals sit at rounding
    # level (~1e-16 relative).
    for tau in (2, 3, 5, 10):
        for x in (50.3, 317.7, 2000.0):
            m = abs(
                riesz_mean_direct(RieszQuery(x=x, tau=float(tau)), shared_cache)
            )
            resid = riesz_recurrence_check(x, tau)
            assert resid <= 1e-13 * x**tau * (1.0 + m), f"tau={tau}, x={x}"


def test_integral_closed_forms(shared_cache):
    # M(u) = 1 on [1, 2), so each case is a one-interval antiderivative.
    assert integral_M(2.0, 1.0, shared_cache) == pytest.approx(math.log(2.0), rel=1e-15)
    assert integral_M(2.0, 0.0, shared_cache) == pytest.approx(1.0, rel=1e-15)
    assert integral_M(2.0, 1.5, shared_cache) == pytest.approx(
        2.0 * (1.0 - 1.0 / math.sqrt(2.0)), rel=1e-14
    )
    # M vanishes on [2, 3): the integral is flat there.
    assert integral_M(3.0, 1.0, shared_cache) == pytest.approx(math.log(2.0), rel=1e-14)
    with pytest.raises(DomainError):
        integral_M(0.5, 1.0, shared_cache)


@pytest.mark.parametrize("kappa", [-0.5, 1.0 / 3.0, 1.2, 0.5, 1.5, 2.0])
def test_integral_matches_high_precision_pieces(kappa, shared_cache):
    # Unit-interval antiderivative differences against 40 digits, for kappa
    # below 0, between 0 and 1 and above 1.
    x = 10.5
    with mp.workdps(40):
        e = 1 - mp.mpf(kappa)
        ends = [mp.mpf(min(u, x)) ** e / e for u in range(1, 12)]
        want = mp.fsum(
            mertens(n, shared_cache) * (ends[n] - ends[n - 1]) for n in range(1, 11)
        )
    assert integral_M(x, kappa, shared_cache) == pytest.approx(float(want), rel=1e-14)


def _exact_piece_sum(x: float, kappa: float) -> Fraction:
    """The exact sum of M(n) (P(min(n+1, x)) - P(n)) over n <= x, taken over
    P in doubles as numpy rounds it: log u at kappa = 1, else
    fl(fl(u^(1-kappa))/(1-kappa))."""
    n = math.floor(x)
    m = np.cumsum(moebius._segment_mu(1, n + 1), dtype=np.int64).tolist()
    ends = np.arange(1, n + 2, dtype=np.float64)
    ends[-1] = x  # min(n + 1, x) of the last interval
    p = np.log(ends) if kappa == 1.0 else ends ** (1.0 - kappa) / (1.0 - kappa)
    mant, e = np.frexp(p)
    mant = np.ldexp(mant, 53).astype(np.int64).tolist()
    e = (e - 53).tolist()
    low = min(e)
    # every P as an integer multiple of 2^low
    scaled = [v << (k - low) for v, k in zip(mant, e)]
    total = sum(mi * (b - a) for mi, a, b in zip(m, scaled, scaled[1:]))
    return Fraction(total) * Fraction(2) ** low


@pytest.mark.parametrize("x", [10.5, 4474.2, 70_000.5, 100_000.0])
@pytest.mark.parametrize("kappa", [-0.5, 1.0 / 3.0, 0.5, 1.0, 1.2, 1.5, 2.5])
def test_integral_is_the_correctly_rounded_sum_of_its_pieces(x, kappa):
    # the definition, summed exactly over the same doubles P(n) and P(x);
    # 70,000.5 and 100,000 cross chunks, and 100,000 is an integer x, where
    # the last interval is empty
    want = float(_exact_piece_sum(x, kappa))
    assert integral_M(x, kappa, CheckpointCache()).hex() == want.hex()


def test_integral_where_p_overflows():
    # P(n) = n^61/61 overflows past n of about 113,000: the pieces meet
    # inf - inf, and the value is nan, as summing them has always given
    with np.errstate(over="ignore", invalid="ignore"):
        assert math.isnan(integral_M(2e5, -60.0))
    value = integral_M(1000.5, -60.0)
    assert math.isfinite(value)
    assert value.hex() == float(_exact_piece_sum(1000.5, -60.0)).hex()


def test_integral_matches_riemann_sum(shared_cache):
    # Midpoint Riemann sum over unit intervals is exact for kappa = 0.
    x, kappa = 500.0, 0.0
    seg = sieve_segment(1, 501, shared_cache)
    m = np.cumsum(seg.mu)
    want = float(m[:499].sum())
    assert integral_M(x, kappa, shared_cache) == pytest.approx(want, rel=1e-13)


def test_weak_mertens_closed_forms():
    assert weak_mertens_integral(2.0) == pytest.approx(0.5, rel=1e-15)
    assert weak_mertens_integral(3.0) == pytest.approx(0.5, rel=1e-15)
    assert weak_mertens_integral(4.0) == pytest.approx(
        0.5 + (1.0 / 3.0 - 1.0 / 4.0), rel=1e-14
    )


def test_weak_mertens_nondecreasing():
    xs = [10.0, 100.0, 1e3, 1e4, 1e5]
    vals = [weak_mertens_integral(x) for x in xs]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_weak_mertens_independent_of_call_history():
    x = 3_500_000.5  # four blocks
    want = weak_mertens_integral(x).hex()
    cache = CheckpointCache()
    riesz_mean_direct(RieszQuery(3.2e6, 1.5), cache)  # leaves checkpoints below x
    assert weak_mertens_integral(x).hex() == want
    mertens(3_000_000, cache)
    assert weak_mertens_integral(x).hex() == want


def test_weak_mertens_matches_fraction_oracle(cache):
    # one block, so the value is the correctly rounded sum of the float increments
    x = 30_000.5
    m = np.cumsum(sieve_segment(1, 30_001, cache).mu).tolist()
    exact = sum(
        (Fraction((1.0 / n - 1.0 / min(n + 1.0, x)) * float(m[n - 1] ** 2))
         for n in range(1, 30_001)),
        Fraction(0),
    )
    assert weak_mertens_integral(x).hex() == float(exact).hex()


def test_density_basics(shared_cache):
    d = density_S(1e4, cache=shared_cache)
    assert 0.0 < d <= 1.0
    with pytest.raises(DomainError):
        density_S(3.0, cache=shared_cache)


@pytest.mark.parametrize("X", [1e3, 30_000.5, 2.0**20, 3e6])
def test_density_within_an_ulp_of_mpmath(X):
    # Oracle at 40 digits: [n, min(n+1, X)) is good whole for n >= 2 unless
    # M(n)^2 > n, when only [M(n)^2, min(n+1, X)) is, or none of it; the
    # whole intervals telescope to log(X/2).
    m = np.cumsum(sieve_segment(1, int(X) + 1, CheckpointCache()).mu, dtype=np.int64)
    ns = np.arange(1, len(m) + 1)
    short = [int(n) for n in ns[(m * m > ns) & (ns >= 2)]]
    with mp.workdps(40):
        top = mp.mpf(X)
        lost = mp.fsum(mp.log(min(n + 1, top, int(m[n - 1]) ** 2) / mp.mpf(n)) for n in short)
        want = (mp.log(top / 2) - lost) / mp.log(top)
        got = density_S(X, CheckpointCache())
        assert abs(got - want) <= math.ulp(got), f"density_S({X}) = {got!r}, oracle {want}"


def test_density_counts_every_short_interval(monkeypatch):
    # No n up to 10^7 has M(n)^2 > n, so a made-up walk of steps in {-1, 0, 1}
    # (m[n - 1] = M(n)) makes some: the chunks where max M^2 <= n0 are
    # skipped, the others checked n by n.  From n0 = 2^14 on, the bound from
    # runs of _DENSITY_RUN integers can clear a chunk; in the chunk from
    # 19457 the first run goes from M = 12 up to 140 and back, so the bound
    # (12 + 12 + 256)^2 = 78400 just fails to clear 4 n0 = 77828 and 140^2
    # exceeds n = 19584 at the peak
    chunk = 1 << 10
    assert moebius._DENSITY_RUN == 256
    m = np.zeros(20 * chunk, dtype=np.int32)
    n = np.arange(1, len(m) + 1)
    for peak, height, flat in ((chunk + 76, -34, 0), (3 * chunk + 6, 56, 0),
                               (5 * chunk + 1, 72, 2), (7 * chunk, 85, 0),
                               (19 * chunk + 128, 140, 0)):
        # a tent of the given height, flat over [peak, peak + flat]
        m += np.sign(height) * np.maximum(
            0, abs(height) - np.maximum(peak - n, 0) - np.maximum(n - peak - flat, 0))
    mu = np.diff(m, prepend=0).astype(np.int8)
    assert set(mu.tolist()) == {-1, 0, 1}
    X = len(m) + 0.5

    def stream(x_floor, cache):
        for n0 in range(1, x_floor + 1, chunk):
            yield n0, mu[n0 - 1 : n0 - 1 + chunk]

    monkeypatch.setattr(moebius, "_stream", stream)
    short = [n for n in range(2, len(m) + 1) if int(m[n - 1]) ** 2 > n]
    # 1156 > 1100, in a chunk with 1024 < 34^2 < 2048; n = 3078 alone in its
    # chunk; three n at the first of theirs; the last n of its chunk; the
    # peak of the run that the bound must not clear
    assert short == [chunk + 76, 3 * chunk + 6, 5 * chunk + 1, 5 * chunk + 2, 5 * chunk + 3,
                     7 * chunk, 19 * chunk + 128]
    assert m[19 * chunk - 1] == m[19 * chunk + 255] == 12
    with mp.workdps(40):
        top = mp.mpf(X)
        lost = mp.fsum(mp.log(min(n + 1, top, int(m[n - 1]) ** 2) / mp.mpf(n)) for n in short)
        want = (mp.log(top / 2) - lost) / mp.log(top)
        got = density_S(X)
        assert abs(got - want) <= math.ulp(got)


def _same_float(got: float, want: float) -> bool:
    return got.hex() == want.hex() and math.copysign(1.0, got) == math.copysign(1.0, want)


_TERMS = st.one_of(
    st.floats(min_value=-(2.0**700), max_value=2.0**700),  # zeros and subnormals too
    st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-1100, 700)),
)


@given(st.lists(_TERMS, max_size=300), st.booleans())
@settings(max_examples=300, deadline=None)
def test_exact_sum_is_fsum(terms, cancel):
    if cancel:  # the exact total is zero
        terms = terms + [-t for t in reversed(terms)]
    a = np.array(terms, dtype=np.float64)
    assert _same_float(kernel._exact_sum(a), math.fsum(terms))


@pytest.mark.parametrize(
    "terms",
    [[], [0.0], [-0.0], [-0.0, -0.0], [5e-324] * 3, [1.0, -1.0], [2.0**700, 1.0, -(2.0**700)],
     # one exponent bucket whose integer halves sum to exactly 1
     [2.0**26 + 1.5, -(2.0**26), 1.0],
     [math.inf, 1.0], [math.nan, 1.0], [1.5e308, 1.5e308, -1.5e308], [-math.inf, math.inf]],
)
def test_exact_sum_edge_cases(terms):
    a = np.array(terms, dtype=np.float64)
    try:
        want = math.fsum(terms)
    except (OverflowError, ValueError) as exc:
        with pytest.raises(type(exc)):
            kernel._exact_sum(a)
        return
    got = kernel._exact_sum(a)
    assert _same_float(got, want) or (math.isnan(got) and math.isnan(want))


def test_exact_sum_full_block():
    rng = np.random.default_rng(20)
    n = 1 << 20
    wide = rng.standard_normal(n) * np.exp2(rng.integers(-700, 700, n))
    narrow = rng.standard_normal(n)
    for a in (wide, narrow, np.concatenate([narrow[: n // 2], -narrow[: n // 2]])):
        assert _same_float(kernel._exact_sum(a), math.fsum(a.tolist()))


def _streamed_quantities() -> list:
    """Every consumer of the mu stream, each on its own small-stride cache,
    with the checkpoints that cache recorded."""
    runs = [
        lambda c: riesz_mean_direct(RieszQuery(x=30_000.5, tau=1.5), c),
        lambda c: integral_M(30_000.5, 0.5, c),
        lambda c: density_S(30_000.5, cache=c),
        lambda c: weak_mertens_integral(30_000.5),
        lambda c: divim_sign_changes(70_000.5),
    ]
    out = []
    for run in runs:
        cache = CheckpointCache(stride=1000)
        out.append((run(cache), cache.checkpoints()))
    return out


def test_stream_block_size_invariance(monkeypatch, sieved_lengths):
    default = _streamed_quantities()
    assert max(sieved_lengths) > 2**10
    monkeypatch.setattr(moebius, "_BLOCK", 2**10)
    sieved_lengths.clear()
    small = _streamed_quantities()
    assert max(sieved_lengths) == 2**10  # the stream reads _BLOCK when called
    # the sums are correctly rounded over all their terms, and divim's
    # running integral is one sequential sum over every piece, so none moves
    for (value, cps), (value_small, cps_small) in zip(default, small):
        assert value_small == value
        assert cps_small == cps
    assert len(default[-1][0]) == 2  # D crosses zero at 64099.4 and 66737.9


def _chunked_quantities(x: float) -> list:
    """Every consumer of the mu stream, as float.hex, each on its own
    small-stride cache, with the checkpoints that cache recorded."""
    runs = [
        lambda c: [riesz_mean_direct(RieszQuery(x=x, tau=1.5), c)],
        lambda c: [row["m_tau"] for row in tau_regime_scan(
            [x / 3, x, x / 2], TauSchedule("inv-log", 9.0), c)],
        lambda c: [integral_M(x, 1.0, c)],
        lambda c: [integral_M(x, 1.5, c)],
        lambda c: [density_S(x, cache=c)],
        lambda c: [weak_mertens_integral(x)],
        lambda c: divim_sign_changes(x),
    ]
    out = []
    for run in runs:
        cache = CheckpointCache(stride=1000)
        out.append(([v.hex() for v in run(cache)], cache.checkpoints()))
    return out


def _chunk_lengths(x: float) -> set[int]:
    return {len(mu) for _, mu in moebius._stream(int(x), CheckpointCache())}


@pytest.mark.parametrize("block, x", [(2**20, 1_050_000.5), (2**14, 70_000.5)])
def test_stream_chunk_size_leaves_values_bit_identical(monkeypatch, block, x):
    # x lies past the first sieve block, so sums and divim's running
    # integral carry across a block edge as well as across chunk edges
    monkeypatch.setattr(moebius, "_BLOCK", block)
    default = _chunked_quantities(x)
    assert max(_chunk_lengths(x)) == min(moebius._CHUNK, block) > 2**10
    monkeypatch.setattr(moebius, "_CHUNK", 2**10)
    assert max(_chunk_lengths(x)) == 2**10
    assert _chunked_quantities(x) == default
    assert len(default[-1][0]) >= 2  # D crosses zero at 64099.4 and 66737.9


def test_stream_checkpoints_are_mertens(monkeypatch):
    # every (x, M) a consumer's stream records equals M(x) from a fresh
    # mertens, with no cache: each consumer that takes a cache records 30 at
    # stride 1000; then, with blocks of 2^14, runs to 70,000.5 record across
    # four sieve-block edges
    def recorded(quantities):
        return [(cp.x, cp.M) for _, cps in quantities for cp in cps]

    default = recorded(_streamed_quantities())
    assert len(default) == 3 * 30
    monkeypatch.setattr(moebius, "_BLOCK", 2**14)
    crossing = recorded(_chunked_quantities(70_000.5))
    assert len(crossing) == 5 * 70
    for x, m in default + crossing:
        assert m == mertens(x), x


@pytest.mark.parametrize("chunk", [2**14, 2**10])
def test_streamed_sum_is_correctly_rounded(monkeypatch, chunk):
    # over five sieve blocks; chunks of 2^10 hand in fewer Riesz terms than
    # _exact_parts splits, so the accumulator compresses its list of parts
    monkeypatch.setattr(moebius, "_BLOCK", 2**14)
    monkeypatch.setattr(moebius, "_CHUNK", chunk)
    x = 70_000.5
    mu = moebius._segment_mu(1, 70_001)
    ns = np.arange(1, 70_001, dtype=np.float64)
    m = np.cumsum(mu, dtype=np.int64).astype(np.float64)
    pieces = m * (np.minimum(ns + 1.0, x) ** -0.5 / -0.5 - ns**-0.5 / -0.5)
    assert integral_M(x, 1.5, CheckpointCache()).hex() == math.fsum(pieces.tolist()).hex()
    nz = np.flatnonzero(mu)
    terms = mu[nz] * np.exp(2.5 * np.log1p(ns[nz] / -x) - math.lgamma(3.5))
    riesz = riesz_mean_direct(RieszQuery(x, 2.5), CheckpointCache())
    assert riesz.hex() == math.fsum(terms.tolist()).hex()


@pytest.mark.parametrize("bad", [math.nan, math.inf, 2.0**1000])
def test_exact_sum_folds_terms_that_have_no_exact_parts(bad):
    # _exact_parts hands such terms back whole (integral_M at kappa = -60
    # overflows to nan past n of about 1e5); the accumulator folds them with
    # fsum, so its list stays short instead of growing by a chunk per add
    terms = np.ones(1000)
    terms[500] = bad
    sums = moebius._ExactSum()
    for _ in range(50):
        sums.add(terms)
        assert len(sums._parts) < 2 * kernel._EXACT_PARTS_MIN
    assert repr(sums.total()) == repr(math.fsum(terms.tolist() * 50))


def test_tau_for_schedules():
    assert tau_for(TauSchedule("constant", 1.7), 5.0) == 1.7
    assert tau_for(TauSchedule("inv-log", 2.0), math.e) == pytest.approx(2.0)
    with pytest.raises(ScheduleUndefined):
        tau_for(TauSchedule("inv-log"), 1.0)
    # fourth iterated log is negative until x is approximately 3.8e6
    with pytest.raises(ScheduleUndefined):
        tau_for(TauSchedule("iterated-log"), 1e6)
    assert tau_for(TauSchedule("iterated-log"), 1e7) == pytest.approx(
        125.32188757811439, rel=1e-12
    )
    with pytest.raises(DomainError):
        tau_for(TauSchedule("cubic"), 10.0)


def test_tau_regime_scan_rows(shared_cache):
    xs = [100.0, 10_000.0]
    rows = tau_regime_scan(xs, TauSchedule("inv-log", 1.0), shared_cache)
    assert [r["x"] for r in rows] == xs
    for r in rows:
        assert r["status"] == "ok"
        assert r["tau"] == pytest.approx(1.0 / math.log(r["x"]))
        assert r["m_over_sqrt"] == pytest.approx(
            r["m_tau"] / math.sqrt(r["x"]), rel=1e-14
        )
    rows = tau_regime_scan([100.0], TauSchedule("iterated-log"), shared_cache)
    assert rows[0]["status"] == "undefined"
    assert rows[0]["m_tau"] is None


@pytest.mark.parametrize(
    "schedule",
    [TauSchedule("constant", 1.5), TauSchedule("inv-log", 2.0), TauSchedule("constant", 0.0)],
    ids=["constant", "inv-log", "c=0"],
)
def test_tau_regime_scan_matches_riesz_per_point(schedule):
    # unsorted; x = 1 is undefined for inv-log; the last x lies past the first block
    xs = [150_000.0, 1.0, 57.5, 3000.0, 2500.25, 1_048_577.5]
    rows = tau_regime_scan(xs, schedule, CheckpointCache(stride=997))
    assert [r["x"] for r in rows] == xs
    for r in rows:
        if r["status"] == "undefined":
            assert schedule.kind == "inv-log" and r["x"] == 1.0 and r["m_tau"] is None
            continue
        assert r["tau"] == tau_for(schedule, r["x"])
        fresh = riesz_mean_direct(RieszQuery(x=r["x"], tau=r["tau"]), CheckpointCache())
        assert r["m_tau"] == fresh
    assert sum(r["status"] == "undefined" for r in rows) == (schedule.kind == "inv-log")


def test_tau_regime_scan_sieves_max_x_once(sieved_lengths):
    xs = [float(x) for x in np.geomspace(10.0, 2e5, 9)]
    tau_regime_scan(xs, TauSchedule("constant", 1.5), CheckpointCache())
    assert sum(sieved_lengths) == math.floor(max(xs)) == 200_000


@pytest.mark.parametrize("tau", [1.0, 2.0, 3.0])
def test_tau_regime_scan_at_integer_tau_sieves_one_table(sieved_lengths, tau):
    # integer tau <= 3 reads S_0, ..., S_tau: one sieve sized for the largest
    # x serves every row, and nothing streams
    xs = [float(x) for x in np.geomspace(10.0, 2e5, 9)]
    tau_regime_scan(xs, TauSchedule("constant", tau), CheckpointCache())
    assert sieved_lengths == [moebius._power_sum_limit(200_000)]
    assert sieved_lengths[0] < 200_000


@given(st.floats(min_value=2.0, max_value=5000.0))
@settings(max_examples=30, deadline=None)
def test_riesz_monotone_smoothing_bound(x):
    # |M_tau(x)| <= M_0 summed absolutely: at tau = 1 the weights are in
    # [0, 1], so |M_1(x)| is at most the count of squarefree n <= x.
    cache = CheckpointCache()
    v = riesz_mean_direct(RieszQuery(x=x, tau=1.0), cache)
    assert abs(v) <= x


@given(
    st.integers(min_value=1, max_value=99_999),
    st.integers(min_value=1, max_value=99_999),
)
@settings(max_examples=25, deadline=None)
def test_mertens_difference_is_mu_sum(shared_cache, a, b):
    lo, hi = sorted((a, b))
    if lo == hi:
        return
    seg = sieve_segment(lo + 1, hi + 1, shared_cache)
    assert mertens(hi, shared_cache) - mertens(lo, shared_cache) == int(
        seg.mu.sum()
    )


# Real bounds are checked before anything floors them: NaN fails every lower
# guard, and x past SIEVE_MAX (inf included, where floor overflows) is out
# of range; tau and kappa must be finite.
NAN, INF = math.nan, math.inf


def _riesz(x, tau):
    return riesz_mean_direct(RieszQuery(x=x, tau=tau))


def _scan(x, c):
    return tau_regime_scan([1e2, x], TauSchedule("constant", c))


@pytest.mark.parametrize(
    "fn, args, error",
    [
        pytest.param(_riesz, (INF, 1.5), OutOfRange, id="riesz-inf"),
        pytest.param(_riesz, (INF, 1.0), OutOfRange, id="riesz-inf-affine"),
        pytest.param(_riesz, (2e9, 0.0), OutOfRange, id="riesz-2e9"),
        pytest.param(_riesz, (NAN, 1.5), DomainError, id="riesz-nan"),
        pytest.param(_riesz, (1e3, NAN), DomainError, id="riesz-tau-nan"),
        pytest.param(_riesz, (1e3, INF), DomainError, id="riesz-tau-inf"),
        pytest.param(integral_M, (INF, 0.5), OutOfRange, id="integral-inf"),
        pytest.param(integral_M, (INF, 0.0), OutOfRange, id="integral-inf-affine"),
        pytest.param(integral_M, (NAN, 0.5), DomainError, id="integral-nan"),
        pytest.param(integral_M, (1e3, NAN), DomainError, id="integral-kappa-nan"),
        pytest.param(integral_M, (1e3, -INF), DomainError, id="integral-kappa-inf"),
        pytest.param(weak_mertens_integral, (INF,), OutOfRange, id="weak-inf"),
        pytest.param(weak_mertens_integral, (NAN,), DomainError, id="weak-nan"),
        pytest.param(density_S, (INF,), OutOfRange, id="density-inf"),
        pytest.param(density_S, (NAN,), DomainError, id="density-nan"),
        pytest.param(riesz_recurrence_check, (INF, 1), OutOfRange, id="recurrence-inf"),
        pytest.param(riesz_recurrence_check, (NAN, 2), DomainError, id="recurrence-nan"),
        pytest.param(divim_sign_changes, (INF,), OutOfRange, id="divim-inf"),
        pytest.param(divim_sign_changes, (NAN,), DomainError, id="divim-nan"),
        pytest.param(divim_sign_changes, (1e3, NAN), DomainError, id="divim-kappa-nan"),
        pytest.param(_scan, (1e3, NAN), DomainError, id="scan-c-nan"),
        pytest.param(_scan, (INF, 1.5), OutOfRange, id="scan-x-inf"),
        pytest.param(mertens, (0,), OutOfRange, id="mertens-0"),
        # log log 2 < 0, so the third log is undefined
        pytest.param(tau_for, (TauSchedule("iterated-log"), 2.0), ScheduleUndefined,
                     id="iterated-log-at-2"),
    ],
)
def test_non_finite_bounds_are_refused(fn, args, error):
    with pytest.raises(error):
        fn(*args)

@pytest.mark.parametrize(
    "x, error",
    [(INF, OutOfRange), (NAN, DomainError), (-INF, DomainError)],
)
def test_mertens_non_finite_is_refused(x, error):
    # refused before int(x), which raises OverflowError or ValueError
    with pytest.raises(error):
        mertens(x)


def test_primes_upto_below_2_is_empty():
    assert moebius._primes_upto(1).tolist() == []


def test_sieve_max_guard_is_on_the_floor():
    # floor(SIEVE_MAX + 0.5) = SIEVE_MAX is served; SIEVE_MAX + 1 is not
    assert riesz_mean_direct(RieszQuery(x=moebius.SIEVE_MAX + 0.5)) == -222.0
    with pytest.raises(OutOfRange):
        riesz_mean_direct(RieszQuery(x=moebius.SIEVE_MAX + 1.0))


def test_tau_regime_growth_factor_overflow_is_inf():
    # (tau/e)^(-tau-1) leaves the double range below tau of about 1e-308;
    # it reads inf there, as at tau = 0, and the rest of the row is computed
    tiny = tau_regime_scan([1e2, 1e3], TauSchedule("constant", 5e-324), CheckpointCache())
    assert [row["growth_factor"] for row in tiny] == [math.inf, math.inf]
    assert all(row["status"] == "ok" and math.isfinite(row["m_tau"]) for row in tiny)
    (small,) = tau_regime_scan([1e2], TauSchedule("constant", 1e-300), CheckpointCache())
    assert small["growth_factor"] == pytest.approx(
        math.exp(-(1e-300 + 1.0) * (math.log(1e-300) - 1.0)), rel=1e-15
    )
    assert math.isfinite(small["growth_factor"])
