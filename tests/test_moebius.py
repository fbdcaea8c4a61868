"""Sieve, Mertens, Riesz means, exact integrals, schedules, density.

The mu oracle here is an independent trial-division factorization; Mertens
spot values are classical table entries.  Closed-form integral cases are
worked by hand in the assertions.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrl import moebius
from mrl.errors import DomainError, OutOfRange, ParseError, ScheduleUndefined
from mrl.moebius import (
    CheckpointCache,
    RieszQuery,
    TauSchedule,
    density_S,
    integral_M,
    mertens,
    riesz_mean_direct,
    riesz_recurrence_check,
    sieve_segment,
    tau_for,
    tau_regime_scan,
    weak_mertens_integral,
)
from mrl.zerosums import divim_sign_changes

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
    mertens(2_000_001, cache)  # crosses two checkpoint strides
    path = tmp_path / "m.chk"
    cache.save(path)
    loaded = CheckpointCache.load(path)
    assert [
        (c.x, c.M, c.I2) for c in loaded.checkpoints()
    ] == [(c.x, c.M, c.I2) for c in cache.checkpoints()]
    assert mertens(1_999_999, loaded) == mertens(1_999_999, cache)


def test_checkpoint_save_failing_partway_keeps_previous_file(tmp_path):
    path = tmp_path / "m.chk"
    good = CheckpointCache()
    good.record(1_000_000, 212, 1.5)
    good.record(2_000_000, -14, 2.5)
    good.save(path)
    before = path.read_bytes()
    bad = CheckpointCache()
    bad.record(1_000_000, 212, 1.5)
    bad.record(2**64, 0, 0.0)  # x overflows u64: packing fails after the first record
    with pytest.raises(struct.error):
        bad.save(path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["m.chk"]


def test_checkpoint_corrupt_file(tmp_path):
    bad = tmp_path / "bad.chk"
    bad.write_bytes(b"NOTAMAGIC" + b"\x00" * 32)
    with pytest.raises(ParseError):
        CheckpointCache.load(bad)


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


def test_riesz_recurrence_exact_at_tau_one(shared_cache):
    for x in (10.5, 300.0, 2000.25):
        resid = riesz_recurrence_check(x, 1, shared_cache)
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
            resid = riesz_recurrence_check(x, tau, shared_cache)
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


def test_integral_matches_riemann_sum(shared_cache):
    # Midpoint Riemann sum over unit intervals is exact for kappa = 0.
    x, kappa = 500.0, 0.0
    seg = sieve_segment(1, 501, shared_cache)
    m = np.cumsum(seg.mu)
    want = float(m[:499].sum())
    assert integral_M(x, kappa, shared_cache) == pytest.approx(want, rel=1e-13)


def test_weak_mertens_closed_forms(shared_cache):
    assert weak_mertens_integral(2.0, shared_cache) == pytest.approx(0.5, rel=1e-15)
    assert weak_mertens_integral(3.0, shared_cache) == pytest.approx(0.5, rel=1e-15)
    assert weak_mertens_integral(4.0, shared_cache) == pytest.approx(
        0.5 + (1.0 / 3.0 - 1.0 / 4.0), rel=1e-14
    )


def test_weak_mertens_nondecreasing(shared_cache):
    xs = [10.0, 100.0, 1e3, 1e4, 1e5]
    vals = [weak_mertens_integral(x, shared_cache) for x in xs]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_density_basics(shared_cache):
    d = density_S(1e4, cache=shared_cache)
    assert 0.0 < d <= 1.0
    with pytest.raises(DomainError):
        density_S(3.0, cache=shared_cache)


@pytest.fixture()
def sieved_lengths(monkeypatch):
    """Lengths of the mu segments sieved while the test runs."""
    lengths: list[int] = []
    segment_mu = moebius._segment_mu

    def counting(lo: int, hi: int) -> np.ndarray:
        lengths.append(hi - lo)
        return segment_mu(lo, hi)

    monkeypatch.setattr(moebius, "_segment_mu", counting)
    return lengths


def _streamed_quantities() -> list:
    """Every consumer of the mu stream, each on its own small-stride cache,
    with the checkpoints that cache recorded."""
    runs = [
        lambda c: riesz_mean_direct(RieszQuery(x=30_000.5, tau=1.5), c),
        lambda c: integral_M(30_000.5, 0.5, c),
        lambda c: density_S(30_000.5, cache=c),
        lambda c: weak_mertens_integral(30_000.5, c),
        lambda c: divim_sign_changes(70_000.5, cache=c),
    ]
    out = []
    for run in runs:
        cache = CheckpointCache(stride=1000)
        out.append((run(cache), [(cp.x, cp.M, cp.I2) for cp in cache.checkpoints()]))
    return out


def test_stream_block_size_invariance(monkeypatch, sieved_lengths):
    default = _streamed_quantities()
    assert max(sieved_lengths) > 2**10
    monkeypatch.setattr(moebius, "_BLOCK", 2**10)
    sieved_lengths.clear()
    small = _streamed_quantities()
    assert max(sieved_lengths) == 2**10  # the stream reads _BLOCK when called
    for (value, cps), (value_small, cps_small) in zip(default, small):
        assert value_small == pytest.approx(value, rel=1e-12)
        assert [cp[:2] for cp in cps_small] == [cp[:2] for cp in cps]
        assert [cp[2] for cp in cps_small] == pytest.approx([cp[2] for cp in cps], rel=1e-12)
    assert len(default[-1][0]) == 2  # D crosses zero at 64099.4 and 66737.9


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
    tau_regime_scan(xs, TauSchedule("constant", 1.0), CheckpointCache())
    assert sum(sieved_lengths) == math.floor(max(xs)) == 200_000


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
