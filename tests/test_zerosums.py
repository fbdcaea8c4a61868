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

import cmath
import math

import mpmath as mp
import pytest

from mrl import zerosums
from mrl.errors import (
    DomainError,
    NotAscending,
    OutOfRange,
    PoleAtKappaOne,
    PrecisionLoss,
    SingularPoint,
    UnsupportedLambda,
)
from mrl.kernel import zeta
from mrl.moebius import divim_sign_changes, integral_M, weak_mertens_integral
from mrl.zeros import ZeroRecord, ZeroTable, _zero_sum
from mrl.zerosums import (
    ZeroSumReport,
    a_constant_report,
    a_lambda,
    hko_report,
    im_constants,
    integral_M_explicit,
    inv_zeta_identity,
    j_lambda,
    log_barnes_g,
    swmh_report,
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
    assert a_constant_report(1.5, table).value == pytest.approx(
        INV_ZETA_HALF, abs=1e-8
    )
    assert abs(a_constant_report(2.0, table).value) <= 1e-8
    assert a_constant_report(3.0, table).value == pytest.approx(
        3.0 / math.pi**2, abs=1e-8
    )
    assert a_constant_report(4.0, table).value == pytest.approx(
        1.0 / (3.0 * ZETA3), abs=1e-8
    )
    # kappa = -2: equals -1/(3 zeta(-3)) = -40 exactly
    assert a_constant_report(-2.0, table).value == pytest.approx(-40.0, abs=1e-7)


def test_a_constant_singularities(table):
    with pytest.raises(PoleAtKappaOne):
        a_constant_report(1.0, table)
    for k in (-1.0, -3.0):
        with pytest.raises(SingularPoint, match=rf"singular at kappa = {k}: s = "):
            a_constant_report(k, table)


def test_a_constant_report_fields(table):
    rep = a_constant_report(4.0, table)
    assert rep.kind == "A_kappa"
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
        inv_zeta_identity(3.0, table).value
        - 3.0 * a_constant_report(4.0, table).value
    ) <= 1e-12
    # ... computed once: zeta_eq_real_report reads the identity at s = kappa
    # and A(kappa + 1) divides it at s = (kappa + 1) - 1 by that s, which is
    # not kappa in binary when kappa = 0.6.
    for kappa in (0.6, 1.5, 2.5, 3.0):
        iz = inv_zeta_identity(kappa, table)
        zr = zeta_eq_real_report(kappa, table)
        assert zr.value.hex() == iz.value.hex(), kappa
        assert [(c, v.hex()) for c, v in zr.partial_trace] == [
            (c, v.hex()) for c, v in iz.partial_trace
        ], kappa
        assert zr.residual.hex() == iz.residual.hex(), kappa
        s = (kappa + 1.0) - 1.0
        a = a_constant_report(kappa + 1.0, table).value
        assert a == inv_zeta_identity(s, table).value / s


def test_zeta_eq_real(table):
    resid = zeta_eq_real_report(2.0, table, 1000.0, 40).residual
    assert resid <= 1e-2  # criterion-level ceiling
    assert resid <= 1e-8  # actual quality
    assert zeta_eq_real_report(2.0, table, 236.6, 40).residual > resid
    rep = zeta_eq_real_report(0.6, table)
    assert rep.value == pytest.approx(1.0 / zeta(0.6).real, abs=1e-8)
    with pytest.raises(DomainError):
        zeta_eq_real_report(0.5, table)


@pytest.mark.parametrize(
    "report",
    [
        pytest.param(lambda t: inv_zeta_identity(1e200, t), id="inv-zeta"),
        pytest.param(lambda t: a_constant_report(1e308, t), id="a-const"),
        pytest.param(lambda t: zeta_eq_real_report(1e308, t), id="zeta-real"),
    ],
)
def test_identity_overflow_raises_precision_loss(table, report):
    # s(s+1) overflows past |s| of about 1.3e154, leaving an inf or nan right side
    with pytest.raises(PrecisionLoss):
        report(table)


def test_identity_L_range(table, monkeypatch):
    # a_constant_report's tail reads zeta'(-2(L + 1)), which trivial_zero_data
    # gives up to L + 1 = 120; L = 120 is refused before any work
    assert a_constant_report(3.0, table, L=119).parameters["trivial_tail"] > 0.0
    monkeypatch.setattr(zerosums, "_zero_sum", lambda *a, **k: pytest.fail("summed"))
    monkeypatch.setattr(zerosums, "trivial_zero_data", lambda n: pytest.fail("read"))
    for report in (inv_zeta_identity, a_constant_report, zeta_eq_real_report):
        with pytest.raises(OutOfRange, match="L = 120"):
            report(3.0, table, L=120)
    # the L error comes before that of an infinite kappa
    with pytest.raises(OutOfRange, match="L = 120"):
        zeta_eq_real_report(math.inf, table, L=120)


# ---------------------------------------------------------------------------
# The columnar zero sum against scalar terms
# ---------------------------------------------------------------------------


def _scalar_pair(s):
    def f(rho, zp):
        return 1.0 / (zp * rho * (rho + 1.0) * (rho - s))

    return lambda rho, zp: f(rho, zp) + f(rho.conjugate(), zp.conjugate())


_LN_X = math.log(1000.5)

# a report, and the term of its first zero sum written for Python scalars
SCALAR_TERMS = {
    "j_lambda(-1)": (lambda t: j_lambda(t, -1.0), lambda rho, zp: abs(zp) ** -2.0),
    "j_lambda(0.5)": (lambda t: j_lambda(t, 0.5), lambda rho, zp: abs(zp) ** 1.0),
    "swmh": (lambda t: swmh_report(1e5, t), lambda rho, zp: 1.0 / abs(rho * zp) ** 2),
    "im_constants(1.5)": (
        lambda t: im_constants(1.5, t),
        lambda rho, zp: 1.0 / abs(rho * (rho - 1.5 + 1.0) * zp),
    ),
    "pair(3)": (lambda t: inv_zeta_identity(3.0, t), _scalar_pair(3.0)),
    "pair(2+5j)": (lambda t: inv_zeta_identity(2 + 5j, t), _scalar_pair(2 + 5j)),
    "integral(1000.5, 1.5)": (
        lambda t: integral_M_explicit(1000.5, 1.5, t),
        lambda rho, zp: 2.0
        * (cmath.exp(1j * (rho.imag * _LN_X)) / (zp * rho * (rho + 1.0 - 1.5))).real,
    ),
}


@pytest.mark.parametrize("name", list(SCALAR_TERMS))
def test_columnar_zero_sum_matches_scalar_terms(table, monkeypatch, name):
    # The report's own term, on whole columns, against math.fsum of the
    # same expression evaluated one zero at a time, at every trace cutoff.
    report, scalar = SCALAR_TERMS[name]
    terms = []

    def recording(t, T, term, **kwargs):
        terms.append(term)
        return _zero_sum(t, T, term, **kwargs)

    monkeypatch.setattr(zerosums, "_zero_sum", recording)
    report(table)
    total, partials = _zero_sum(table, 1000.0, terms[0], cutoffs=(100.0, 300.0, 600.0))
    ref = [
        scalar(complex(0.5, g), zp)
        for g, zp in zip(table.gammas.tolist(), table.zeta_primes.tolist())
    ]
    for cutoff, got in [*partials, (1000.0, total)]:
        n = table.count_up_to(cutoff)
        want = complex(math.fsum(v.real for v in ref[:n]), math.fsum(v.imag for v in ref[:n]))
        bound = 2 * n * math.ulp(math.fsum(abs(v) for v in ref[:n]))
        assert abs(got.real - want.real) <= bound, cutoff
        assert abs(got.imag - want.imag) <= bound, cutoff


def test_zero_sum_calls_term_once_per_sum(table):
    sizes = []

    def counting(rho, zp):
        sizes.append(len(rho))
        return abs(zp)

    for T, suspect in ((1000.0, "raise"), (math.inf, "inf"), (10.0, "keep")):
        _zero_sum(table, T, counting, cutoffs=(100.0, 300.0, 600.0), suspect=suspect)
    assert sizes == [649, 730, 0]


# ---------------------------------------------------------------------------
# Weak-Mertens ratio
# ---------------------------------------------------------------------------


def test_swmh_ratio_regression(table):
    assert swmh_report(1e5, table, 1000.0).value == pytest.approx(
        4.8129552605434585, rel=1e-12
    )


def test_swmh_report_conventions(table):
    rep = swmh_report(1e4, table, 1000.0)
    p = rep.parameters
    assert p["zero_sum_all"] == pytest.approx(
        2.0 * p["zero_sum_positive_only"], rel=1e-15
    )
    assert rep.value == pytest.approx(
        p["wm_integral"] / (math.log(1e4) * p["zero_sum_all"]), rel=1e-14
    )


def test_swmh_increments_match_the_law(table):
    # The additive constant in the integral cancels in increments, so
    # [wm(1e6) - wm(1e4)] / [log 1e6 - log 1e4] ~ sum over all zeros of
    # 1/|rho zeta'(rho)|^2 holds tightly already at desk scale.
    rep = swmh_report(1e4, table, 1000.0)
    law = rep.parameters["zero_sum_all"]
    inc = (
        weak_mertens_integral(1e6)
        - weak_mertens_integral(1e4)
    ) / (math.log(1e6) - math.log(1e4))
    assert inc == pytest.approx(law, rel=0.05)


def test_swmh_ratio_drifts_toward_one(table):
    r4 = swmh_report(1e4, table, 1000.0).value
    r5 = swmh_report(1e5, table, 1000.0).value
    r6 = swmh_report(1e6, table, 1000.0).value
    assert r4 > r5 > r6 > 1.0


def test_swmh_empty_table_divides_by_zero():
    with pytest.raises(ZeroDivisionError):
        swmh_report(1e4, ZeroTable([]), 1000.0)
    with pytest.raises(DomainError):
        swmh_report(5.0, ZeroTable([]), 1000.0)


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


def test_integral_reconstruction_remainder_term(table):
    # For kappa > 1 the gap between the two routes is the deterministic
    # non-oscillating remainder 2 x^(1-kappa)/(kappa-1); subtracting it
    # leaves only zero-sum truncation noise.
    for x, k in ((100.5, 1.5), (1000.5, 1.5), (100.5, 1.25), (10000.5, 1.25)):
        d = integral_M_explicit(x, k, table)
        pred = 2.0 * x ** (1.0 - k) / (k - 1.0)
        assert abs(d["direct"] - d["explicit"] - pred) <= 1e-3, (x, k)
        assert d["residual_over_remainder"] == pytest.approx(
            2.0 / (k - 1.0), rel=2e-2
        )
        assert d["remainder_scale"] == x ** (1.0 - k)


def test_integral_reconstruction_log_scale_at_kappa_one(table):
    d = integral_M_explicit(1000.5, 1.0, table)
    assert d["remainder_scale"] == pytest.approx(math.log(1000.5))
    assert 0.5 < d["residual_over_remainder"] < 3.0
    assert d["constant_term"] == 0.0  # A(kappa) subtracted only for kappa > 1


def test_integral_reconstruction_keys(table, shared_cache):
    d = integral_M_explicit(100.5, 1.5, table)
    assert set(d) == {
        "x", "kappa", "T", "L", "direct", "zero_term", "constant_term",
        "explicit", "residual", "remainder_scale", "residual_over_remainder",
        "normalized_direct",
    }
    assert d["direct"] == pytest.approx(
        integral_M(100.5, 1.5, shared_cache), rel=1e-15
    )


def _trivial_residues(x, kappa, L):
    """Sum over n <= L of the residue x^(1-2n-kappa) / (-2n (1-2n-kappa) zeta'(-2n))
    of x^(s+1-kappa)/(s (s+1-kappa) zeta(s)) at s = -2n, kappa > 1, at 30 digits."""
    with mp.workdps(30):
        total = mp.mpf(0)
        for n in range(1, L + 1):
            d = 1 - 2 * n - mp.mpf(kappa)
            total += mp.power(x, d) / (-2 * n * d * mp.zeta(-2 * n, derivative=1))
        return float(total)


# (x, kappa, residue of x^(s+1-kappa)/(s (s+1-kappa) zeta(s)) at s = -2): 40-digit
# mpmath contour integrals on |s + 2| = 1/2
CONTOUR_TRIVIAL_RESIDUES = [
    (2.5, 1.5, -0.664683172164179),
    (2.5, 2.5, -0.18990947776119402),
]


def test_integral_reconstruction_residues_match_closed_forms(table):
    # s = kappa - 1: A(kappa) = 1/((kappa - 1) zeta(kappa - 1)) from the
    # kernel's zeta, not from the zero-sum identity; 0 at kappa = 2, where
    # 1/zeta vanishes
    for k in (1.25, 1.5, 2.5, 3.0):
        want = float(1 / ((k - 1) * mp.zeta(mp.mpf(k) - 1)))
        got = integral_M_explicit(1000.5, k, table)["constant_term"]
        assert got == pytest.approx(want, rel=1e-14), k
    assert integral_M_explicit(1000.5, 2.0, table)["constant_term"] == 0.0
    # s = -2n, n <= L, are the rest of the explicit value
    for x, k, want in CONTOUR_TRIVIAL_RESIDUES:
        d = integral_M_explicit(x, k, table, L=1)
        assert d["explicit"] - d["zero_term"] - d["constant_term"] == pytest.approx(
            want, rel=1e-13
        ), k
    for k in (1.25, 1.5, 2.5):
        d = integral_M_explicit(2.5, k, table, L=30)
        trivial = d["explicit"] - d["zero_term"] - d["constant_term"]
        assert trivial == pytest.approx(_trivial_residues(2.5, k, 30), rel=1e-13), k
    # with them, the s = 0 remainder 2 x^(1-kappa)/(kappa-1) is the whole
    # residual even at small x
    d = integral_M_explicit(2.5, 1.5, table)
    assert d["residual_over_remainder"] == pytest.approx(4.0, rel=1e-5)


def test_integral_reconstruction_subtracts_only_the_zeros_at_kappa_up_to_one(table):
    # for kappa <= 1 the pole at s = kappa - 1 meets s = 0 (kappa = 1) or a
    # trivial zero (kappa = -1, -3, ...), so no residue but the zeros' is
    # subtracted there, and the row stays continuous through kappa = -1
    at_minus_one = integral_M_explicit(10.5, -1.0, table)["explicit"]
    for k in (-1.0 - 1e-6, -1.0, -1.0 + 1e-6, 0.5, 1.0):
        d = integral_M_explicit(10.5, k, table)
        assert d["constant_term"] == 0.0, k
        assert d["explicit"] == d["zero_term"], k
    for k in (-1.0 - 1e-6, -1.0 + 1e-6):
        got = integral_M_explicit(10.5, k, table)["explicit"]
        assert got == pytest.approx(at_minus_one, abs=1e-4), k


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


def test_divim_crossings_to_2e5():
    xs = divim_sign_changes(2e5)
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


def test_divim_non_integer_end_counts_last_interval_once():
    # D first crosses zero at 64099.418, inside [floor(x_max), x_max) only
    # for the second x_max; that interval must be integrated once.
    assert divim_sign_changes(64099.4) == []
    assert divim_sign_changes(64099.5) == [64099.41812094184]


def test_divim_crossing_closed_forms():
    # M = 1, 0, -1, -1, -2 on [1, 6): at kappa = 1, I(x) = log(6/5) - 2 log(x/5)
    # on [5, 6), zero at sqrt(30); at kappa = 1/2, I(x) = 2(sqrt 2 + sqrt 3 - 3)
    # - 2(sqrt x - 2) on [4, 5), zero at (sqrt 3 + sqrt 2 - 1)^2.
    assert divim_sign_changes(10, kappa=1.0) == [math.sqrt(30)]
    (x,) = divim_sign_changes(10, kappa=0.5)
    with mp.workdps(40):
        exact = (mp.sqrt(3) + mp.sqrt(2) - 1) ** 2
        assert abs(mp.mpf(x) - exact) <= 2 * math.ulp(x)


def test_divim_reproducible():
    a = divim_sign_changes(1e5)
    b = divim_sign_changes(1e5)
    assert a == b


# ---------------------------------------------------------------------------
# Barnes G, arithmetic factor, moment prediction
# ---------------------------------------------------------------------------


def test_barnes_g_small_integers():
    # G(1) = G(2) = G(3) = 1, G(4) = 2, G(5) = 12, G(6) = 288
    assert math.exp(log_barnes_g(4.0)) == pytest.approx(2.0, rel=1e-14)
    assert math.exp(log_barnes_g(5.0)) == pytest.approx(12.0, rel=1e-14)
    assert math.exp(log_barnes_g(6.0)) == pytest.approx(288.0, rel=1e-14)


def test_barnes_g_against_mpmath():
    with mp.workdps(30):
        for z in (0.5, 1.5, 2.5, 3.7, 6.2, 9.9):
            want = float(mp.barnesg(z))
            assert math.exp(log_barnes_g(z)) == pytest.approx(want, rel=2e-14), z
            assert log_barnes_g(z) == pytest.approx(
                float(mp.log(mp.barnesg(z))), rel=1e-13, abs=1e-14
            )


def test_barnes_g_below_one_half_against_mpmath():
    # z in (0, 1/2) takes the downward recurrence log G(z) = log G(z+1) - log Gamma(z);
    # worst case 4.6e-16, at z = 0.05
    with mp.workdps(30):
        for z in (0.05, 0.2, 0.3, 0.49):
            assert log_barnes_g(z) == pytest.approx(float(mp.log(mp.barnesg(z))), rel=1e-15), z


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
    assert hko_report(0.0, T).value == pytest.approx(u * math.log(u), rel=1e-14)
    # lambda = -1: reduces to 3T/pi^3
    assert hko_report(-1.0, T).value == pytest.approx(
        3.0 * T / math.pi**3, rel=2e-5
    )
    with pytest.raises(OutOfRange):
        hko_report(0.0, 6.0)
    with pytest.raises(UnsupportedLambda):
        hko_report(-1.2, T)


def test_hko_report_checks_the_height_before_the_euler_product(monkeypatch):
    # a refused T costs no a_lambda (the 10,000-prime Euler product)
    monkeypatch.setattr(zerosums, "a_lambda", lambda *a: pytest.fail("a_lambda ran"))
    for T in (5.0, math.nan):
        with pytest.raises(OutOfRange):
            hko_report(1.0, T)
    with pytest.raises(DomainError):
        hko_report(1.0, math.inf)


def test_hko_report_with_measurement(table):
    rep = hko_report(-1.0, 1000.0, table)
    p = rep.parameters
    assert p["j_lambda"] == pytest.approx(91.59078440703287, rel=1e-12)
    assert 0.5 <= p["ratio_measured_to_predicted"] <= 1.5
    # without a table the measured ratio is absent
    bare = hko_report(-1.0, 1000.0)
    assert "j_lambda" not in bare.parameters


# NaN fails every argument guard of the zero-sum reports, a nan height T
# included (it would sort after every zero), and so do an infinite kappa,
# lambda or z and an L that is not an integer >= 1.
NAN = math.nan
INF = math.inf


@pytest.mark.parametrize(
    "fn",
    [
        pytest.param(lambda t: j_lambda(t, NAN), id="j-lambda"),
        pytest.param(lambda t: a_lambda(NAN), id="a-lambda"),
        pytest.param(lambda t: zeta_eq_real_report(NAN, t), id="zeta-real"),
        pytest.param(lambda t: im_constants(NAN, t), id="im-const"),
        pytest.param(lambda t: a_constant_report(NAN, t), id="a-const"),
        pytest.param(lambda t: inv_zeta_identity(complex(NAN, 0.0), t), id="inv-zeta"),
        pytest.param(lambda t: integral_M_explicit(NAN, 1.5, t), id="integral-explicit"),
        pytest.param(lambda t: swmh_report(NAN, t), id="swmh"),
        pytest.param(lambda t: log_barnes_g(NAN), id="barnes-g"),
        pytest.param(lambda t: j_lambda(t, 1.0, NAN), id="j-lambda-T"),
        pytest.param(lambda t: j_lambda(t, 0.0, NAN), id="j-lambda-count-T"),
        pytest.param(lambda t: inv_zeta_identity(3.0, t, NAN), id="inv-zeta-T"),
        pytest.param(lambda t: a_constant_report(3.0, t, NAN), id="a-const-T"),
        pytest.param(lambda t: zeta_eq_real_report(2.0, t, NAN), id="zeta-real-T"),
        pytest.param(lambda t: swmh_report(1e3, t, NAN), id="swmh-T"),
        pytest.param(lambda t: im_constants(1.5, t, NAN), id="im-const-T"),
        pytest.param(lambda t: integral_M_explicit(1e3, 0.5, t, NAN), id="integral-explicit-T"),
        pytest.param(lambda t: inv_zeta_identity(3.0, t, L=2.7), id="inv-zeta-L-real"),
        pytest.param(lambda t: inv_zeta_identity(3.0, t, L=True), id="inv-zeta-L-bool"),
        pytest.param(lambda t: a_constant_report(3.0, t, L=2.7), id="a-const-L-real"),
        pytest.param(lambda t: a_constant_report(3.0, t, L=True), id="a-const-L-bool"),
        pytest.param(lambda t: zeta_eq_real_report(2.0, t, L=2.7), id="zeta-real-L-real"),
        pytest.param(lambda t: zeta_eq_real_report(2.0, t, L=True), id="zeta-real-L-bool"),
        pytest.param(lambda t: integral_M_explicit(1e3, 0.5, t, L=2.7),
                     id="integral-explicit-L-real"),
        pytest.param(lambda t: integral_M_explicit(1e3, 0.5, t, L=True),
                     id="integral-explicit-L-bool"),
        pytest.param(lambda t: integral_M_explicit(1e3, 0.5, t, L=-3),
                     id="integral-explicit-L-negative"),
        pytest.param(lambda t: a_lambda(1.0, prime_cutoff=2.7), id="a-lambda-cutoff-real"),
        pytest.param(lambda t: a_lambda(1.0, g_terms=2.5), id="a-lambda-terms-real"),
        pytest.param(lambda t: im_constants(-INF, t), id="im-const-kappa-inf"),
        pytest.param(lambda t: j_lambda(t, INF), id="j-lambda-inf"),
        pytest.param(lambda t: a_lambda(INF), id="a-lambda-inf"),
        pytest.param(lambda t: hko_report(INF, 1000.0), id="hko-lambda-inf"),
        pytest.param(lambda t: hko_report(1.0, INF), id="hko-T-inf"),
        pytest.param(lambda t: t.require_height(NAN), id="require-height-T"),
        pytest.param(lambda t: log_barnes_g(INF), id="barnes-g-inf"),
    ],
)
def test_nan_arguments_raise_domain_error(table, fn):
    with pytest.raises(DomainError):
        fn(table)


def test_hko_report_refuses_nan_height():
    with pytest.raises(OutOfRange):
        hko_report(1.0, NAN)
