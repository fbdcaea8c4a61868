"""Zero-sum identities, discrete moments, analytic-continuation constants,
oscillation scans, and random-matrix moment predictions.

Oracles used here:
  - mpmath barnesg (30 digits) for the Barnes G factor;
  - classical closed forms 1/zeta(2) = 6/pi^2, 1/zeta(0.5), 3/pi^2,
    1/(3 zeta(3)), -1/(3 zeta(-3)) = -40 for continuation values;
  - the N(T) zero count for J_0;
  - the deterministic remainder 2 x^(1-kappa)/(kappa-1) for the integral
    reconstruction (from the constant term of the underlying formula).
"""

import math

import mpmath as mp
import pytest

from mrl.errors import (
    DomainError,
    NotAscending,
    OutOfRange,
    PoleAtKappaOne,
    SingularPoint,
    UnsupportedLambda,
)
from mrl.kernel import zeta
from mrl.moebius import integral_M, weak_mertens_integral
from mrl.zeros import ZeroRecord, ZeroTable
from mrl.zerosums import (
    ZeroSumReport,
    a_constant,
    a_constant_report,
    a_lambda,
    barnes_g,
    divim_sign_changes,
    hko_prediction,
    hko_report,
    im_constants,
    integral_M_explicit,
    inv_zeta_identity,
    j_lambda,
    log_barnes_g,
    swmh_ratio,
    swmh_report,
    zeta_eq_real,
    zeta_eq_real_report,
)

INV_ZETA_HALF = 2.0 / -1.4603545088095868  # 2/zeta(1/2), mpmath 50 digits
ZETA3 = 1.2020569031595942


@pytest.fixture()
def suspect_table():
    return ZeroTable(
        [ZeroRecord(gamma=14.134725, zeta_prime=1e-9, refined_bits=53,
                    suspect=True)]
    )


# ---------------------------------------------------------------------------
# Report container
# ---------------------------------------------------------------------------


def test_report_validation():
    with pytest.raises(DomainError):
        ZeroSumReport(kind="nope", parameters={}, value=1.0,
                      partial_trace=(), residual=None)
    with pytest.raises(NotAscending):
        ZeroSumReport(kind="inv_zeta", parameters={}, value=1.0,
                      partial_trace=((5.0, 1.0), (3.0, 2.0)), residual=None)
    with pytest.raises(DomainError):
        ZeroSumReport(kind="inv_zeta", parameters={}, value=1.0,
                      partial_trace=(), residual=-1.0)


# ---------------------------------------------------------------------------
# Discrete moments J_lambda
# ---------------------------------------------------------------------------


def test_j0_is_the_zero_count(table):
    rep = j_lambda(table, 0.0, 1000.0)
    assert rep.value == 649.0
    assert rep.parameters["count"] == 649


def test_j0_inclusive_boundary(table):
    g1 = table.gammas[0]
    assert j_lambda(table, 0.0, g1).value == 1.0
    assert j_lambda(table, 0.0, math.nextafter(g1, 0.0)).value == 0.0


def test_j_minus_one_regression(table):
    rep = j_lambda(table, -1.0, 1000.0)
    assert rep.value == pytest.approx(91.59078440703287, rel=1e-12)
    assert rep.parameters["ratio_to_sharp_law"] == pytest.approx(
        0.9466297342300504, rel=1e-10
    )
    assert 0.5 <= rep.parameters["ratio_to_sharp_law"] <= 1.5


def test_j_minus_half_regression(table):
    assert j_lambda(table, -0.5, 1000.0).value == pytest.approx(
        219.24920491363198, rel=1e-12
    )


def test_j_lambda_trace_is_increasing(table):
    rep = j_lambda(table, -1.0, 1000.0)
    vals = [v for _, v in rep.partial_trace]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_j_lambda_guards(table, suspect_table):
    with pytest.raises(DomainError):
        j_lambda(table, -1.6)
    # negative lambda blows up on a (numerically) multiple zero
    assert j_lambda(suspect_table, -1.0, 100.0).value == math.inf


# ---------------------------------------------------------------------------
# The constant A(kappa) and its continuation
# ---------------------------------------------------------------------------


def test_a_constant_continuation_oracles(table):
    # Closed-form values of the continuation at integer / half-integer kappa.
    assert a_constant(1.5, table) == pytest.approx(INV_ZETA_HALF, abs=1e-8)
    assert abs(a_constant(2.0, table)) <= 1e-8
    assert a_constant(3.0, table) == pytest.approx(3.0 / math.pi**2, abs=1e-8)
    assert a_constant(4.0, table) == pytest.approx(
        1.0 / (3.0 * ZETA3), abs=1e-8
    )
    # kappa = -2: equals -1/(3 zeta(-3)) = -40 exactly
    assert a_constant(-2.0, table) == pytest.approx(-40.0, abs=1e-7)


def test_a_constant_singularities(table):
    with pytest.raises(PoleAtKappaOne):
        a_constant(1.0, table)
    for k in (-1.0, -3.0):
        with pytest.raises(SingularPoint):
            a_constant(k, table)


def test_a_constant_report_fields(table):
    rep = a_constant_report(4.0, table)
    assert rep.kind == "A_kappa"
    assert rep.value == a_constant(4.0, table)
    assert rep.parameters["trivial_tail"] < 1e-20
    assert rep.parameters["imag_rel"] < 1e-12
    cuts = [c for c, _ in rep.partial_trace]
    assert cuts == sorted(cuts)


# ---------------------------------------------------------------------------
# 1/zeta identities
# ---------------------------------------------------------------------------


def test_inv_zeta_at_3_and_5(table):
    for s in (3.0, 5.0):
        rep = inv_zeta_identity(s, table, 1000.0, 40)
        want = 1.0 / zeta(s).real
        assert rep.value == pytest.approx(want, abs=1e-8)
        assert rep.residual <= 1e-8
        rep100 = inv_zeta_identity(s, table, 236.6, 40)
        assert rep.residual < rep100.residual  # more zeros, smaller residual
        assert len(rep.partial_trace) >= 3


def test_inv_zeta_exact_at_zero(table):
    # Both zero-side sums carry an s(s+1) prefactor, so s = 0 is exact.
    rep = inv_zeta_identity(0.0, table)
    assert rep.value == -2.0
    assert rep.residual <= 1e-13


def test_inv_zeta_pole_limit(table):
    # At s = 1 the identity degenerates to 1/zeta(1) = 0.
    rep = inv_zeta_identity(1.0, table)
    assert rep.parameters["target"] == 0.0
    assert abs(rep.value) <= 1e-8


def test_inv_zeta_complex_argument(table):
    s = complex(2.0, 3.0)
    rep = inv_zeta_identity(s, table)
    want = 1.0 / zeta(s)
    assert abs(rep.value - want) <= 1e-7
    assert isinstance(rep.value, complex)


def test_inv_zeta_singular_points(table):
    with pytest.raises(SingularPoint):
        inv_zeta_identity(-2.0, table)
    with pytest.raises(SingularPoint):
        inv_zeta_identity(complex(0.5, 14.134725), table)


def test_inv_zeta_consistent_with_a_constant(table):
    # The two routes are the same sum shifted by one unit in s.
    assert abs(
        inv_zeta_identity(3.0, table).value - 3.0 * a_constant(4.0, table)
    ) <= 1e-12


def test_zeta_eq_real(table):
    resid = zeta_eq_real(2.0, table, 1000.0, 40)
    assert resid <= 1e-2  # criterion-level ceiling
    assert resid <= 1e-8  # actual quality
    assert zeta_eq_real(2.0, table, 236.6, 40) > resid
    rep = zeta_eq_real_report(0.6, table)
    assert rep.value == pytest.approx(1.0 / zeta(0.6).real, abs=1e-8)
    assert rep.residual == zeta_eq_real(0.6, table)
    with pytest.raises(DomainError):
        zeta_eq_real(0.5, table)


# ---------------------------------------------------------------------------
# Weak-Mertens ratio
# ---------------------------------------------------------------------------


def test_swmh_ratio_regression(table, shared_cache):
    assert swmh_ratio(1e5, table, 1000.0, shared_cache) == pytest.approx(
        4.8129552605434585, rel=1e-12
    )


def test_swmh_report_conventions(table, shared_cache):
    rep = swmh_report(1e4, table, 1000.0, shared_cache)
    p = rep.parameters
    assert p["zero_sum_all"] == pytest.approx(
        2.0 * p["zero_sum_positive_only"], rel=1e-15
    )
    assert rep.value == pytest.approx(
        p["wm_integral"] / (math.log(1e4) * p["zero_sum_all"]), rel=1e-14
    )


def test_swmh_increments_match_the_law(table, shared_cache):
    # The additive constant in the integral cancels in increments, so
    # [wm(1e6) - wm(1e4)] / [log 1e6 - log 1e4] ~ sum over all zeros of
    # 1/|rho zeta'(rho)|^2 holds tightly already at desk scale.
    rep = swmh_report(1e4, table, 1000.0, shared_cache)
    law = rep.parameters["zero_sum_all"]
    inc = (
        weak_mertens_integral(1e6, shared_cache)
        - weak_mertens_integral(1e4, shared_cache)
    ) / (math.log(1e6) - math.log(1e4))
    assert inc == pytest.approx(law, rel=0.05)


def test_swmh_ratio_drifts_toward_one(table, shared_cache):
    r4 = swmh_ratio(1e4, table, 1000.0, shared_cache)
    r5 = swmh_ratio(1e5, table, 1000.0, shared_cache)
    r6 = swmh_ratio(1e6, table, 1000.0, shared_cache)
    assert r4 > r5 > r6 > 1.0


def test_swmh_empty_table_divides_by_zero(shared_cache):
    with pytest.raises(ZeroDivisionError):
        swmh_ratio(1e4, ZeroTable([]), 1000.0, shared_cache)
    with pytest.raises(DomainError):
        swmh_ratio(5.0, ZeroTable([]), 1000.0, shared_cache)


# ---------------------------------------------------------------------------
# Oscillation constants
# ---------------------------------------------------------------------------


def test_im_constants_structure(table):
    rep = im_constants(1.5, table, 1000.0)
    p = rep.parameters
    assert p["constant_term"] == pytest.approx(2.0 / zeta(0.5).real, rel=1e-15)
    assert p["constant_term"] == pytest.approx(INV_ZETA_HALF, rel=1e-12)
    assert p["half_sum"] > 0.0
    assert p["full_sum"] == pytest.approx(2.0 * p["half_sum"], rel=1e-15)
    assert rep.value == p["limsup_lower"] == p["constant_term"] + p["half_sum"]
    assert p["liminf_upper"] == p["constant_term"] - p["half_sum"]
    # the constant 2/zeta(1/2) belongs to kappa = 3/2 only
    assert im_constants(1.0, table, 1000.0).parameters["constant_term"] == 0.0
    with pytest.raises(DomainError):
        im_constants(1.6, table)


def test_im_constants_companion_trace(table):
    rep = im_constants(1.5, table, 1000.0)
    vals = [v for _, v in rep.partial_trace]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    tails = rep.parameters["tail_times_cutoff"]
    # reciprocal-height decay of the tail: T' * tail stays within a small
    # band (loose: the proxy omits the tail beyond the table height T)
    ratios = list(tails.values())
    assert max(ratios) / min(ratios) < 4.0


def test_im_constants_multiple_zero_convention(suspect_table):
    rep = im_constants(1.5, suspect_table, 100.0)
    assert rep.value == math.inf
    assert rep.parameters["tail_times_cutoff"] == {}


# ---------------------------------------------------------------------------
# Integral reconstruction
# ---------------------------------------------------------------------------


def test_integral_reconstruction_remainder_term(table, shared_cache):
    # For kappa > 1 the gap between the two routes is the deterministic
    # non-oscillating remainder 2 x^(1-kappa)/(kappa-1); subtracting it
    # leaves only zero-sum truncation noise.
    for x, k in ((100.5, 1.5), (1000.5, 1.5), (100.5, 1.25), (10000.5, 1.25)):
        d = integral_M_explicit(x, k, table, cache=shared_cache)
        pred = 2.0 * x ** (1.0 - k) / (k - 1.0)
        assert abs(d["direct"] - d["explicit"] - pred) <= 1e-3, (x, k)
        assert d["residual_over_remainder"] == pytest.approx(
            2.0 / (k - 1.0), rel=2e-2
        )
        assert d["remainder_scale"] == x ** (1.0 - k)


def test_integral_reconstruction_log_scale_at_kappa_one(table, shared_cache):
    d = integral_M_explicit(1000.5, 1.0, table, cache=shared_cache)
    assert d["remainder_scale"] == pytest.approx(math.log(1000.5))
    assert 0.5 < d["residual_over_remainder"] < 3.0
    assert d["constant_term"] == 0.0  # A(kappa) subtracted only for kappa > 1


def test_integral_reconstruction_keys(table, shared_cache):
    d = integral_M_explicit(100.5, 1.5, table, cache=shared_cache)
    assert set(d) == {
        "x", "kappa", "T", "L", "direct", "zero_term", "constant_term",
        "explicit", "residual", "remainder_scale", "residual_over_remainder",
        "normalized_direct",
    }
    assert d["direct"] == pytest.approx(
        integral_M(100.5, 1.5, shared_cache), rel=1e-15
    )


# ---------------------------------------------------------------------------
# Sign-change scan
# ---------------------------------------------------------------------------

EXPECTED_CROSSINGS_2E5 = [
    64099.41812094184,
    66737.92075476833,
    103390.02264227782,
    103929.20805240427,
    104895.258618549,
    112958.8091056618,
    155633.2176220545,
    170954.11644686983,
]


def test_divim_crossings_to_2e5(shared_cache):
    xs = divim_sign_changes(2e5, cache=shared_cache)
    assert xs == pytest.approx(EXPECTED_CROSSINGS_2E5, rel=1e-12)
    assert all(isinstance(x, float) for x in xs)


def test_divim_crossing_really_crosses(shared_cache):
    c = 2.0 / zeta(0.5).real
    x0 = EXPECTED_CROSSINGS_2E5[0]

    def d(x: float) -> float:
        return integral_M(x, 1.5, shared_cache) - c

    assert abs(d(x0)) <= 1e-10
    n = math.floor(x0)
    assert d(float(n)) * d(float(n + 1)) < 0.0


def test_divim_non_integer_end_counts_last_interval_once(cache):
    # D first crosses zero at 64099.418, inside [floor(x_max), x_max) only
    # for the second x_max; that interval must be integrated once.
    assert divim_sign_changes(64099.4, cache=cache) == []
    assert divim_sign_changes(64099.5, cache=cache) == [64099.41812094184]


def test_divim_reproducible(shared_cache):
    a = divim_sign_changes(1e5, cache=shared_cache)
    b = divim_sign_changes(1e5, cache=shared_cache)
    assert a == b


# ---------------------------------------------------------------------------
# Barnes G, arithmetic factor, moment prediction
# ---------------------------------------------------------------------------


def test_barnes_g_small_integers():
    # G(1) = G(2) = G(3) = 1, G(4) = 2, G(5) = 12, G(6) = 288
    assert barnes_g(4.0) == pytest.approx(2.0, rel=1e-14)
    assert barnes_g(5.0) == pytest.approx(12.0, rel=1e-14)
    assert barnes_g(6.0) == pytest.approx(288.0, rel=1e-14)


def test_barnes_g_against_mpmath():
    mp.mp.dps = 30
    for z in (0.5, 1.5, 2.5, 3.7, 6.2, 9.9):
        want = float(mp.barnesg(z))
        assert barnes_g(z) == pytest.approx(want, rel=2e-14), z
        assert log_barnes_g(z) == pytest.approx(
            float(mp.log(mp.barnesg(z))), rel=1e-13, abs=1e-14
        )


def test_a_lambda_values():
    assert a_lambda(0.0) == 1.0
    assert a_lambda(1.0) == pytest.approx(1.0, rel=1e-12)
    # a(-1) = a(2) = 6/pi^2 up to the finite Euler-product cutoff
    assert a_lambda(-1.0) == pytest.approx(6.0 / math.pi**2, rel=2e-5)
    assert a_lambda(2.0) == pytest.approx(6.0 / math.pi**2, rel=2e-5)
    assert a_lambda(-0.5) > 0.0


def test_a_lambda_support():
    with pytest.raises(UnsupportedLambda):
        a_lambda(-1.2)
    with pytest.raises(DomainError):
        a_lambda(-2.0)


def test_hko_reductions():
    T = 1000.0
    u = T / (2.0 * math.pi)
    # lambda = 0: the Barnes and arithmetic factors are exactly 1.
    assert hko_prediction(0.0, T) == pytest.approx(u * math.log(u), rel=1e-14)
    # lambda = -1: reduces to 3T/pi^3
    assert hko_prediction(-1.0, T) == pytest.approx(
        3.0 * T / math.pi**3, rel=2e-5
    )
    with pytest.raises(OutOfRange):
        hko_prediction(0.0, 6.0)
    with pytest.raises(UnsupportedLambda):
        hko_prediction(-1.2, T)


def test_hko_report_with_measurement(table):
    rep = hko_report(-1.0, 1000.0, table)
    p = rep.parameters
    assert p["j_lambda"] == pytest.approx(91.59078440703287, rel=1e-12)
    assert 0.5 <= p["ratio_measured_to_predicted"] <= 1.5
    # without a table the measured ratio is absent
    bare = hko_report(-1.0, 1000.0)
    assert "j_lambda" not in bare.parameters
