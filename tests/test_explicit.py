"""Spectral side: zero sums, residue closed forms vs contour-integral
oracles, assembly, truncation estimates, and the kernel quadrature check.

Residue oracles were computed as numerical contour integrals of
x^s Gamma(s) / (zeta(s) Gamma(1+tau+s)) on circles |s+l| = 0.4 with mpmath
at 40 digits and frozen as doubles, so they are independent of the
closed-form branch logic under test.
"""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrl import explicit, moebius
from mrl.errors import DomainError, MultipleZeroFlag, OutOfRange
from mrl.explicit import (
    RESIDUE_MAX_L,
    compare_direct_explicit,
    error_estimate,
    explicit_M_tau,
    residue_series,
    residue_term,
    s0_residue,
    zero_sum_term,
)
from mrl.kernel import gamma_ratio
from mrl.moebius import CheckpointCache, RieszQuery, riesz_mean_direct
from mrl.zeros import ZeroRecord, ZeroTable
from oracles import (
    PERRON_FITTED_CONSTANT,
    QuadratureDiverged,
    perron_kernel_check,
    perron_kernel_report,
    zero_terms_by_loop,
)

# Contour-integral oracle: (l, x, tau) -> residue at s = -l.
CONTOUR_RESIDUES = {
    (1, 10.5, 1.5): 1.2895761909663002,
    (2, 10.5, 1.5): -0.3493896141642458,
    (3, 2.0, 0.7): -0.751123604269902,
    (4, 100.0, 2.5): -8.414463633716511e-08,
    (2, 0.3, 1.5): -62.01213167792085,
    (6, 50.0, 3.0): -3.0133056867781187e-11,
    (1, 10.5, 3.0): 0.5714285714285714,
    (2, 10.5, 3.0): -0.26385020020128186,
    (4, 10.5, 1.0): 0.0008587194223340963,  # even l, integer tau < l: simple pole
    (6, 100.0, 2.0): 1.4124870406772432e-12,
    (8, 10.5, 0.3): -7.344415999583483e-08,  # 1 + tau - l < 0: reflected at tau
    (3, 10.5, 4.0): -0.01727675197062952,  # odd l, integer tau >= l
    (5, 2.0, 7.0): 0.0328125,
}


def test_residue_terms_match_contour_oracle():
    for (l, x, tau), want in CONTOUR_RESIDUES.items():
        got = residue_term(l, x, tau)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-22), (l, x, tau)


# The same oracle at x = 10.5, tau = 7.25 and l = 94..100, where x^-l / l!
# alone lies below the normal range: 96 nodes on |s + l| = 1/3 at 45 digits,
# kept to 25 digits (64 nodes agree to 2e-27).
DEEP_CONTOUR_RESIDUES = {
    94: "-2.733691384370863378259132e-183",
    95: "2.977580415979763790866607e-186",
    96: "8.979439406815729266269758e-188",
    97: "-9.575780671257672937267407e-191",
    98: "-2.840592682937587888311602e-192",
    99: "2.966974946910951570899742e-195",
    100: "8.660127994133535964978778e-197",
}


def test_residue_terms_below_the_normal_range_match_contour_oracle():
    # the Laurent coefficients are multiplied as mantissas, their exponents
    # summed apart: 1.72 units of 2^-52 relative at worst, at l = 98
    with mp.workdps(30):
        for l, want in DEEP_CONTOUR_RESIDUES.items():
            want = mp.mpf(want)
            got = residue_term(l, 10.5, 7.25)
            assert abs(got - want) <= 1.75 * 2.0**-52 * abs(want), l


@pytest.mark.parametrize("tau", [3.7, 5.9, 9.9])
def test_residue_terms_read_tau_exactly(tau):
    # At odd l the residue is x^-l (-1)^l / (l! zeta(-l) Gamma(1 + tau - l)),
    # here at 50 digits from the exact double tau.  1 + tau - l in doubles
    # drops tau's low bits, which put the terms up to 341 units of 2^-52
    # relative off; corrected by 1/Gamma's log-derivative they are within
    # 3.61 units (x = 10.5, tau = 3.7, l = 45).  Residues below the normal
    # range are left out.
    with mp.workdps(50):
        for x in (2.5, 10.5, 1e4 + 0.5):
            for l in range(1, RESIDUE_MAX_L, 2):
                want = (mp.mpf(x) ** -l * (-1) ** l / mp.factorial(l) / mp.zeta(-l)
                        * mp.rgamma(1 + mp.mpf(tau) - l))
                if abs(want) >= 2.0**-1022:
                    got = residue_term(l, x, tau)
                    assert abs(got - want) <= 4 * 2.0**-52 * abs(want), (x, l)


def test_residue_term_degenerate_integer_tau_zeros():
    # Odd l with integer tau < l: the denominator Gamma kills the residue.
    assert residue_term(1, 10.5, 0.0) == 0.0
    assert residue_term(3, 10.5, 2.0) == 0.0


def test_s0_residue_closed_form():
    assert s0_residue(0.5) == -4.0 / math.sqrt(math.pi)
    assert s0_residue(0.0) == -2.0
    assert s0_residue(1.0) == -2.0


def test_residue_series_composition():
    # L = 0 keeps only the s = 0 term; adding terms changes it accordingly.
    assert residue_series(7.3, 0.5, 0) == s0_residue(0.5)
    x, tau = 10.5, 1.5
    want = s0_residue(tau) + math.fsum(
        residue_term(l, x, tau) for l in range(1, 7)
    )
    assert residue_series(x, tau, 6) == pytest.approx(want, rel=1e-15)


def test_residue_series_tail_is_tiny():
    # Absolute convergence: the L=20 -> L=40 difference is far below 1e-6/x.
    for x in (2.0, 10.0, 100.0):
        for tau in (0.5, 1.0, 2.0):
            d = abs(residue_series(x, tau, 40) - residue_series(x, tau, 20))
            assert d <= 1e-6 / x, (x, tau)


def test_residue_guards(monkeypatch):
    with pytest.raises(DomainError):
        residue_term(0, 10.0, 1.0)
    with pytest.raises(OutOfRange):
        residue_term(RESIDUE_MAX_L + 1, 10.0, 1.0)
    with pytest.raises(DomainError):
        residue_term(1, -1.0, 1.0)
    with pytest.raises(DomainError):
        residue_series(10.0, 1.0, -1)
    with pytest.raises(DomainError):
        s0_residue(-0.5)
    for L in (-3, 2.7, True):  # as residue_series: a negative, real or bool L
        with pytest.raises(DomainError):
            explicit_M_tau(10.0, 1.0, ZeroTable([]), 100.0, L)
    # an L past the residue ceiling is refused before the zero sum runs
    monkeypatch.setattr(explicit, "zero_sum_term", lambda *a: pytest.fail("summed"))
    with pytest.raises(OutOfRange):
        explicit_M_tau(10.0, 1.0, ZeroTable([]), 100.0, RESIDUE_MAX_L + 1)
    with pytest.raises(OutOfRange):
        residue_series(10.0, 1.0, RESIDUE_MAX_L + 1)


def test_zero_sum_frozen_regression(table):
    # First 10 zeros at x = 1, tau = 1, pinned to the 40-digit mpmath sum of
    # the same terms over the same refined zeros, correctly rounded.
    pin = -0.023893248480780234
    n = table.count_up_to(50.0, inclusive=False)
    assert n == 10
    with mp.workdps(40):
        want = mp.fsum(
            2 * mp.re(mp.gamma(mp.mpc(0.5, g)) / (mp.gamma(mp.mpc(2.5, g)) * mp.mpc(zp)))
            for g, zp in zip(table.gammas[:n].tolist(), table.zeta_primes[:n].tolist())
        )
        assert pin == float(want)
    assert zero_sum_term(1.0, 1.0, table, 50.0) == pin


def test_columnar_zero_term_matches_the_loop(table):
    # One gamma_ratio call per column against the per-zero loop it replaced.
    # gamma_ratio's values are the same bits either way; numpy and Python
    # may round the complex exp and division differently, by at most a few
    # units of 2^-52 of each term's size.
    rhos, zps = table.gammas * 1j + 0.5, table.zeta_primes
    for x in (1.0, 10.5, 1e6):
        for tau in (0.0, 1.5, 3.0):
            got = explicit._zero_term(x, tau)(rhos, zps)
            want = np.array(zero_terms_by_loop(x, tau, rhos, zps))
            size = 2.0 * math.sqrt(x) * np.abs(gamma_ratio(rhos, tau) / zps)
            assert (np.abs(got - want) <= 4 * np.finfo(float).eps * size).all(), (x, tau)


def test_zero_sum_boundary_is_strict(table):
    g10 = table.gammas[9]
    below = zero_sum_term(1.0, 1.0, table, g10)
    above = zero_sum_term(1.0, 1.0, table, math.nextafter(g10, math.inf))
    assert below != above  # the 10th zero enters only above its ordinate
    assert zero_sum_term(1.0, 1.0, table, 14.0) == 0.0  # below the first zero


def test_zero_sum_empty_table():
    assert zero_sum_term(10.0, 1.0, ZeroTable([]), 100.0) == 0.0


def test_zero_sum_rejects_suspect_and_unrefined(table):
    bad = ZeroTable(
        [ZeroRecord(gamma=14.134725, zeta_prime=1e-9, refined_bits=53)]
    )
    with pytest.raises(MultipleZeroFlag):
        zero_sum_term(10.0, 1.0, bad, 100.0)
    flagged = ZeroTable(
        [
            ZeroRecord(
                gamma=14.134725,
                zeta_prime=table[0].zeta_prime,
                refined_bits=53,
                suspect=True,
            )
        ]
    )
    with pytest.raises(MultipleZeroFlag):
        zero_sum_term(10.0, 1.0, flagged, 100.0)
    with pytest.raises(DomainError):
        zero_sum_term(-1.0, 1.0, table, 100.0)


def test_zero_sum_tau_continuity(table):
    a = zero_sum_term(10.5, 2.0, table, 500.0)
    b = zero_sum_term(10.5, 2.0 + 1e-9, table, 500.0)
    assert abs(a - b) < 1e-7


def test_explicit_assembly_regression(table):
    ev = explicit_M_tau(100.5, 1.0, table, 1000.0, 40)
    assert ev.explicit_value == pytest.approx(
        ev.zero_sum + ev.residue_sum + ev.s0_residue, rel=1e-15
    )
    (row,) = compare_direct_explicit([100.5], 1.0, table, 1000.0, 40)
    assert row["explicit"] == ev.explicit_value
    assert row["abs_diff"] == pytest.approx(3.9658630460293054e-05, rel=1e-6)
    assert row["abs_diff"] <= row["error_estimate"]


def test_error_estimate_is_taken_where_the_table_stops(table):
    # The zero sum stops at the last zero (1099.36) whatever T asks for, so
    # the estimate there is the one at the table's height: at T = inf it is
    # not 0, and the row at x = 1e4 (|direct - explicit| about 8e-5) is
    # within it.  At T below the table height nothing changes.
    at_height = error_estimate(1e4, 1.0, table.max_gamma)
    for T in (5000.0, math.inf):
        assert explicit_M_tau(1e4, 1.0, table, T, 40).error_estimate == at_height
    (row,) = compare_direct_explicit([1e4], 1.0, table, math.inf, 40)
    assert row["error_estimate"] == at_height and row["within_estimate"]
    ev = explicit_M_tau(1e4, 1.0, table, 1000.0, 40)
    assert ev.error_estimate == error_estimate(1e4, 1.0, 1000.0)
    with pytest.raises(DomainError):  # an empty table reaches no height
        explicit_M_tau(1e4, 1.0, ZeroTable([]), 1000.0, 40)


def test_explicit_refuses_an_empty_table():
    # it names the table, not a height the caller did not ask for
    with pytest.raises(DomainError, match="zero table is empty"):
        explicit_M_tau(1e4, 1.0, ZeroTable([]), 1000.0, 40)


def test_explicit_matches_direct_at_several_points(table):
    rows = compare_direct_explicit([10.5, 50.5, 200.5], 1.5, table, 1000.0, 40)
    for row in rows:
        assert row["abs_diff"] <= 5e-5, row["x"]
        assert row["within_estimate"]


@pytest.mark.parametrize("tau", [0.0, 1.5])
def test_compare_direct_explicit_streams_once(table, sieved_lengths, tau):
    xs = [1e4, 5e4, 1e5, 2e5]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # Bartz mode at tau = 0
        rows = compare_direct_explicit(xs, tau, table, 100.0, 10)
        # max x, not the 360000 of one stream per row; tau = 0 reads S_0
        # from one power-sum sieve sized for max x
        if tau == 0.0:
            assert sieved_lengths == [moebius._power_sum_limit(200_000)]
        else:
            assert sum(sieved_lengths) == 200_000
        for x, row in zip(xs, rows):
            ev = explicit_M_tau(x, tau, table, 100.0, 10)
            direct = riesz_mean_direct(RieszQuery(x, tau), CheckpointCache())
            assert (row["x"], row["direct"], row["explicit"], row["abs_diff"]) == (
                ev.x, direct, ev.explicit_value, abs(direct - ev.explicit_value)
            )
            assert ("note" in row) == (tau == 0.0)


def test_explicit_height_ladder_shrinks_overall(table, cache):
    # The T -> gamma_649 residual beats the T -> gamma_100 residual by 2x
    # (envelope halves); per-step monotonicity is not guaranteed by theory.
    gs = table.gammas
    cuts = [math.nextafter(gs[k - 1], math.inf) for k in (100, 200, 400, 649)]
    for x in (50.5, 100.5):
        direct = riesz_mean_direct(RieszQuery(x, 1.0), cache)
        res = [
            abs(direct - explicit_M_tau(x, 1.0, table, T, 40).explicit_value)
            for T in cuts
        ]
        assert res[-1] <= res[0] / 2.0, (x, res)


def test_explicit_L_doubling_changes_little(table):
    a = explicit_M_tau(10.5, 1.5, table, 1000.0, 20).explicit_value
    b = explicit_M_tau(10.5, 1.5, table, 1000.0, 40).explicit_value
    assert abs(a - b) <= 1e-6 / 10.5


def test_error_estimate_shapes():
    assert error_estimate(10.0, 0.0, 100.0) == math.inf
    assert error_estimate(1.0, 1.0, 100.0) == math.inf
    e1 = error_estimate(10.0, 1.0, 100.0)
    e2 = error_estimate(10.0, 1.0, 200.0)
    assert 0.0 < e2 < e1  # decreasing in T
    assert error_estimate(10.0, 2.0, 100.0) < e1  # decreasing in tau
    with pytest.raises(DomainError):
        error_estimate(0.5, 1.0, 100.0)
    with pytest.raises(DomainError):
        error_estimate(10.0, 1.0, 0.5)


def test_perron_report_fields_and_constant():
    rep = perron_kernel_report(4.0, 1.0)
    assert rep.target == pytest.approx((1.0 - 0.25) / 1.0)
    assert rep.abs_error == abs(rep.quadrature - rep.target)
    assert rep.constant == rep.abs_error / rep.bound
    assert rep.constant <= PERRON_FITTED_CONSTANT


def test_perron_target_zero_below_one():
    for y in (0.3, 0.9):
        rep = perron_kernel_report(y, 1.5)
        assert rep.target == 0.0
        assert rep.abs_error <= PERRON_FITTED_CONSTANT * rep.bound


def test_perron_check_grid():
    # The acceptance grid is 15 points; spot-check a representative subset.
    for y in (0.5, 1.0, 2.0, 4.0):
        for tau in (0.5, 2.0):
            if y == 1.0 and tau == 0.0:
                continue
            err = perron_kernel_check(y, tau)
            rep = perron_kernel_report(y, tau)
            assert err == rep.abs_error


def test_perron_guards():
    with pytest.raises(DomainError):
        perron_kernel_report(4.0, 1.0, sigma0=0.0)
    with pytest.raises(DomainError):
        perron_kernel_report(4.0, 1.0, T=5.0)
    with pytest.raises(DomainError):
        perron_kernel_report(-1.0, 1.0)
    with pytest.raises(QuadratureDiverged):
        perron_kernel_report(100.0, 1.0, quad_step=0.04)  # step * log y too big


@given(
    st.floats(min_value=1.5, max_value=300.0),
    st.floats(min_value=0.5, max_value=3.0),
)
@settings(max_examples=20, deadline=None)
def test_zero_sum_is_finite_and_real(table, x, tau):
    v = zero_sum_term(x, tau, table, 500.0)
    assert isinstance(v, float)
    assert math.isfinite(v)


@given(st.floats(min_value=0.1, max_value=4.0))
@settings(max_examples=30, deadline=None)
def test_residue_series_absolute_bound(tau):
    # With x >= 2 the terms decay like x^(1-2n)/(2n-1)!; the whole series
    # stays within a small fixed envelope of the s = 0 term.
    v = residue_series(2.0, tau, 40)
    assert abs(v - s0_residue(tau)) < 10.0


# NaN fails every argument guard of the spectral side, the zero sum's height T
# included, and every piece takes finite x and tau only; T = inf stays
# allowed, as an infinite height leaves no truncation error.
INF = math.inf
NAN = math.nan


@pytest.mark.parametrize(
    "fn",
    [
        pytest.param(lambda t: explicit_M_tau(NAN, 1.0, t, 500.0, 10), id="explicit-x"),
        pytest.param(lambda t: explicit_M_tau(1e3, NAN, t, 500.0, 10), id="explicit-tau"),
        pytest.param(lambda t: explicit_M_tau(math.inf, 1.0, t, 500.0, 10), id="explicit-x-inf"),
        pytest.param(lambda t: explicit_M_tau(1e3, math.inf, t, 500.0, 10),
                     id="explicit-tau-inf"),
        pytest.param(lambda t: zero_sum_term(NAN, 1.0, t, 500.0), id="zero-sum-x"),
        pytest.param(lambda t: zero_sum_term(1e3, NAN, t, 500.0), id="zero-sum-tau"),
        pytest.param(lambda t: residue_term(2, NAN, 1.5), id="residue-x"),
        pytest.param(lambda t: residue_term(2, 1e3, NAN), id="residue-tau"),
        pytest.param(lambda t: residue_series(NAN, 1.5, 4), id="series-x"),
        pytest.param(lambda t: s0_residue(NAN), id="s0-tau"),
        pytest.param(lambda t: error_estimate(NAN, 1.0, 500.0), id="estimate-x"),
        pytest.param(lambda t: error_estimate(1e3, NAN, 500.0), id="estimate-tau"),
        pytest.param(lambda t: error_estimate(1e3, 1.0, NAN), id="estimate-T"),
        pytest.param(lambda t: zero_sum_term(INF, 1.0, t, 500.0), id="zero-sum-x-inf"),
        pytest.param(lambda t: zero_sum_term(1e3, INF, t, 500.0), id="zero-sum-tau-inf"),
        pytest.param(lambda t: residue_term(2, INF, 1.5), id="residue-x-inf"),
        pytest.param(lambda t: residue_term(2, 1e3, INF), id="residue-tau-inf"),
        pytest.param(lambda t: residue_series(INF, 1.5, 4), id="series-x-inf"),
        pytest.param(lambda t: s0_residue(INF), id="s0-tau-inf"),
        pytest.param(lambda t: error_estimate(INF, 1.5, 500.0), id="estimate-x-inf"),
        pytest.param(lambda t: error_estimate(1e3, INF, 500.0), id="estimate-tau-inf"),
        pytest.param(lambda t: perron_kernel_report(NAN, 1.0), id="perron-y"),
        pytest.param(lambda t: perron_kernel_report(3.0, NAN), id="perron-tau"),
        pytest.param(lambda t: compare_direct_explicit([1e3], NAN, t, 500.0, 10),
                     id="compare-tau"),
        pytest.param(lambda t: zero_sum_term(1e3, 1.0, t, NAN), id="zero-sum-T"),
        pytest.param(lambda t: explicit_M_tau(1e3, 1.0, t, NAN, 10), id="explicit-T"),
    ],
)
def test_non_finite_arguments_raise_domain_error(table, fn):
    with pytest.raises(DomainError):
        fn(table)

def test_gamma_ratio_refuses_nan_tau():
    from mrl.kernel import gamma_ratio

    with pytest.raises(DomainError):
        gamma_ratio(complex(0.5, 14.0), NAN)
