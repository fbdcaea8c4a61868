"""Zeta/gamma kernel: frozen independent oracles, symmetry and consistency
properties, pole and range guards.

Oracle values were computed with mpmath at 50 significant digits and frozen
here as shortest-round-trip doubles; comparisons allow a few ulps of
Euler-Maclaurin accumulation error.
"""

import cmath
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrl import kernel
from mrl.errors import (
    DomainError,
    OutOfRange,
    PoleAtNonpositiveInteger,
    PoleAtOne,
)
from mrl.kernel import (
    DOUBLE,
    EXTENDED,
    IM_MAX,
    bernoulli,
    gamma_ratio,
    log_gamma,
    trivial_zero_data,
    zeta,
    zeta_and_deriv,
)

# mpmath (dps=50) reference values.
ZETA_REAL = {
    2.0: 1.6449340668482264,
    3.0: 1.2020569031595942,
    0.5: -1.4603545088095868,
    -0.5: -0.20788622497735457,
    -1.0: -0.08333333333333333,
    0.0: -0.5,
    1.5: 2.612375348685488,
    10.0: 1.000994575127818,
    -2.5: 0.008516928777850331,
    -7.5: 0.00326903957260022,
}

ZETA_DERIV_REAL = {
    2.0: -0.9375482543158438,
    0.0: -0.9189385332046728,
    0.5: -3.9226461392091516,
    -0.5: -0.3608543395999476,
    3.0: -0.19812624288563685,
}

ZETA_COMPLEX = {
    complex(0.5, 14.0): complex(0.02224114260999359, -0.10325812326645006),
    complex(2.0, 30.0): complex(0.8258798243158264, -0.2690338274973063),
    complex(-1.5, 8.0): complex(1.3604491673188428, 1.1944267168565554),
    complex(0.75, 100.0): complex(2.0029919952553956, -0.05439207119009259),
    complex(0.5, 1000.0): complex(0.35633436719439604, 0.9319978312329936),
}

ZETA_DERIV_COMPLEX = {
    complex(0.5, 14.0): complex(0.7482336961200863, 0.20443653378499743),
    complex(2.0, 30.0): complex(0.19151235113741866, 0.17478906329931015),
    complex(-1.5, 8.0): complex(0.059289999869325094, -0.6712571921646385),
}

LOG_GAMMA = {
    complex(0.5, 14.0): complex(-21.07221004192388, 22.949779692295984),
    complex(3.5, 0.0): complex(1.2009736023470743, 0.0),
    complex(-2.5, 1.0): complex(-2.3441906524655924, -8.304127986657926),
}

# (zeta'(-2n), zeta''(-2n)/zeta'(-2n)) at the trivial zeros.
TRIVIAL_DATA = {
    1: (-0.03044845705839327, 2.159830826938311),
    2: (0.007983811450268625, 0.718631180338151),
    3: (-0.005899759143515937, -0.05784742023696652),
    5: (-0.018929926338140373, -1.0270613417136745),
}


def test_zeta_real_oracles():
    for s, want in ZETA_REAL.items():
        got = zeta(s)
        assert got.imag == pytest.approx(0.0, abs=1e-15)
        assert got.real == pytest.approx(want, rel=5e-14, abs=1e-16)
    # left of -1/2 (the functional equation) the value is exactly real too
    for s in (-0.75, -9.5, -4.0, -40.0):
        assert zeta(s).imag == 0.0, s


def test_zeta_deriv_real_oracles():
    for s, want in ZETA_DERIV_REAL.items():
        got = zeta_and_deriv(s)[1]
        assert got.real == pytest.approx(want, rel=5e-14)


def test_zeta_complex_oracles():
    for s, want in ZETA_COMPLEX.items():
        got = zeta(s)
        assert abs(got - want) <= 5e-13 * abs(want)


def test_zeta_deriv_complex_oracles():
    for s, want in ZETA_DERIV_COMPLEX.items():
        got = zeta_and_deriv(s)[1]
        assert abs(got - want) <= 5e-13 * abs(want)


def test_zeta_and_deriv_matches_separate_calls():
    # The joint pass shares one Euler-Maclaurin sweep, so agreement is to a
    # few ulps rather than bitwise.
    for s in (2.0, complex(0.5, 14.0), complex(-1.5, 8.0)):
        v, d = zeta_and_deriv(s)
        assert abs(v - zeta(s)) <= 1e-14 * abs(v)
    # On Re s < -1/2 the functional equation forms the value once, in log
    # space, whether or not the derivative is asked for, at any height.
    for s in (-0.75, -9.5, complex(-5.5, 10.0), complex(-20.25, 3.0),
              complex(-3.0, 399.0), -4.0, complex(-40.0, 0.5),
              complex(-3.0, 1000.0), complex(-1.0, 2.0e4), complex(-0.75, -4.9e4)):
        assert zeta_and_deriv(s)[0] == zeta(s), s


def test_log_gamma_oracles():
    for s, want in LOG_GAMMA.items():
        got = log_gamma(s)
        assert abs(got - want) <= 1e-13 * max(abs(want), 1.0)


def test_trivial_zero_data_oracles():
    for n, (zp, ratio) in TRIVIAL_DATA.items():
        data = trivial_zero_data(n)
        # rounded once from the double zeta(2n+1): 1.96 units of 2^-52 at n = 2
        assert abs(data.zeta_prime - zp) <= 2.5 * 2.0**-52 * abs(zp), n
        assert data.log_ratio == pytest.approx(ratio, rel=1e-12)
        # zeta really does vanish there
        assert abs(zeta(-2.0 * n)) < 1e-15


def test_trivial_zero_data_guards():
    with pytest.raises(OutOfRange):
        trivial_zero_data(0)
    with pytest.raises(OutOfRange):
        trivial_zero_data(-1)
    # The cache keys on type too, so a bool never reads the cached n = 1.
    assert trivial_zero_data(1) is trivial_zero_data(1)
    with pytest.raises(OutOfRange):
        trivial_zero_data(True)


# ---------------------------------------------------------------------------
# Laurent data (k, c, r) read by _residue, against 30-digit mpmath
# ---------------------------------------------------------------------------


def _close(got: float, want, tol: float) -> bool:
    """|got - want| <= tol max(|want|, 1): r is summed with terms of size 1."""
    return abs(got - float(want)) <= tol * max(abs(float(want)), 1.0)


def test_inv_zeta_laurent_data_matches_mpmath():
    import mpmath as mp

    with mp.workdps(30):
        for m in range(1, 82):
            k, c, r = kernel._inv_zeta_at(-m)
            if m % 2:  # the value -(m+1)/B_(m+1), its rounding alone
                assert (k, r) == (0, None)
                assert c == pytest.approx(float(1 / mp.zeta(-m)), rel=2.0**-52), m
                continue
            # the simple pole 1/(zeta'(-2n) (s + 2n)) (1 - zeta''/(2 zeta') (s + 2n) + ...)
            d1, d2 = mp.zeta(-m, 1, 1), mp.zeta(-m, 1, 2)
            assert k == 1
            assert c == pytest.approx(float(1 / d1), rel=1e-13), m
            assert _close(r(), -d2 / (2 * d1), 4e-15), m
        for s0 in (0.25, 0.5, 1.5, 2.5):
            k, c, r = kernel._inv_zeta_at(s0)
            assert (k, r) == (0, None)
            assert c == pytest.approx(float(1 / mp.zeta(s0)), rel=1e-14), s0
    # the simple zero at s = 1: 1/zeta(1 + h) = h (1 + O(h))
    assert kernel._inv_zeta_at(1.0) == (-1, 1.0, None)
    with mp.workdps(50):
        h = mp.mpf(10) ** -25
        assert float(1 / (mp.zeta(1 + h) * h)) == 1.0


def test_gamma_pole_laurent_data_matches_mpmath():
    import mpmath as mp

    with mp.workdps(30):
        for l in range(1, 101):
            k, c, r = kernel._gamma_pole(l)
            assert k == 1
            assert c == pytest.approx(float((-1) ** l / mp.factorial(l)), rel=2.0**-52), l
            assert _close(r(), mp.digamma(l + 1), 4e-15), l


@pytest.mark.parametrize("a", [1.5, 2.0, 3.0, 8.25])
def test_inv_gamma_laurent_data_matches_mpmath(a):
    # 1/Gamma(a + s) at s = -l, a = 1 + tau: a value at w = a - l > 0, a
    # reflected value at w < 0 and the simple zero at w = 0, -1, ...
    import mpmath as mp

    seen = set()
    with mp.workdps(30):
        for l in range(1, 101):
            k, c, r = kernel._inv_gamma_at(a - 1.0, l)
            w = mp.mpf(a) - l
            if w <= 0 and w == int(w):  # (-1)^m m! (s + l), the derivative there
                seen.add("zero")
                assert (k, r) == (-1, None)
                assert c == pytest.approx(float(mp.diff(mp.rgamma, w)), rel=2.0**-52), l
                continue
            seen.add("reflected" if w < 0 else "value")
            assert k == 0
            # w is reduced by an even integer before sin(pi w), so the
            # reflected value is as close as the plain one: 2.62 units of 2^-52
            # at worst
            assert c == pytest.approx(float(mp.rgamma(w)), rel=4 * 2.0**-52), l
            assert _close(r(), -mp.digamma(w), 4e-15), l
    assert seen == ({"value", "zero"} if a.is_integer() else {"value", "reflected"})


def test_digamma_matches_mpmath_where_inv_gamma_reads_it():
    # psi(w) at w = 1 + tau - l > 0 and psi(l - tau) where w < 0 is not an
    # integer: 2.46 units of 2^-52 max(1, |psi|) at worst, at psi(2.75).  At
    # the integers below 10, H_(m-1) - euler_gamma: 0.76 units of 2^-52 |psi|
    # at worst, at psi(5)
    import mpmath as mp

    points = set()
    for tau in (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.7, 7.25, 10.5, 12.5):
        for l in range(1, 101):
            w = 1.0 + tau - l
            if w > 0.0:
                points.add(w)
            elif not w.is_integer():
                points.add(l - tau)
    with mp.workdps(30):
        for w in sorted(points):
            got, want = kernel._digamma(complex(w)).real, mp.digamma(w)
            assert abs(got - want) <= 2.47 * 2.0**-52 * max(abs(want), 1), w
        for m in range(1, 10):
            got, want = kernel._digamma(complex(m)).real, mp.digamma(m)
            assert abs(got - want) <= 0.8 * 2.0**-52 * abs(want), m


def test_log_gamma_matches_mpmath_at_theta_and_left_points(table):
    # log Gamma(1/4 + i gamma/2), which Hardy's theta reads, and log Gamma(1 - s)
    # for s left of -1/2, which the functional equation reads: 1.53 units of
    # 2^-52 relative at worst, at gamma = 837.35
    import mpmath as mp

    points = [complex(0.25, g / 2) for g in table.gammas.tolist()]
    points += [1 - complex(a, b) for a in (-0.75, -2.5, -10.25, -33.5)
               for b in (3.0, -50.0, 120.5, 399.5)]
    with mp.workdps(30):
        for z in points:
            want = mp.loggamma(mp.mpc(z.real, z.imag))
            assert abs(mp.mpc(log_gamma(z)) - want) <= 1.55 * 2.0**-52 * abs(want), z


# The first zero's ordinate, mpmath.zetazero(1) at 40 digits.
GAMMA_1_40 = "14.13472514173469379045725198356247027078"


def test_extended_precision_beats_double():
    # EXTENDED adds one mpmath Newton step to the double polish: the ordinate
    # comes out correctly rounded, and the double polish is no closer.
    import mpmath as mp

    from mrl.zeros import refine_zero

    extended = refine_zero(14.13, EXTENDED).gamma
    double = refine_zero(14.13).gamma
    with mp.workdps(45):
        want = mp.mpf(GAMMA_1_40)
        assert extended == float(want)
        assert abs(extended - want) <= abs(double - want)


# (zeta, zeta') at -1 + 2e4 i from mpmath at 30 digits.
FAR_LEFT_HIGH_30 = (
    ("-136609.908073370440603235063399", "-118274.51691087799830828257302"),
    ("1098783.01808005298951358460628", "931745.577879256844004131212426"),
)


def test_pole_and_range_guards():
    with pytest.raises(PoleAtOne):
        zeta(1.0)
    with pytest.raises(PoleAtOne):
        zeta(complex(1.0, 0.0))
    with pytest.raises(OutOfRange):
        zeta(complex(0.5, IM_MAX * 2.0))
    # far left and high, zeta' is zeta times the functional equation's
    # log-derivative, with the error zeta has there: both are 9.14e-12 off
    z, dz = zeta_and_deriv(complex(-1.0, 2.0e4))
    assert _rel_err_40(z, FAR_LEFT_HIGH_30[0]) <= 1e-11
    assert _rel_err_40(dz, FAR_LEFT_HIGH_30[1]) <= 1e-11
    with pytest.raises(PoleAtNonpositiveInteger):
        log_gamma(0.0)
    with pytest.raises(PoleAtNonpositiveInteger):
        log_gamma(-3.0)
    with pytest.raises(PoleAtNonpositiveInteger):
        gamma_ratio(-2.0, 1.0)
    with pytest.raises(PoleAtNonpositiveInteger):
        gamma_ratio(-4.5, 1.5)  # 1 + tau + s = -2
    with pytest.raises(DomainError):
        gamma_ratio(2.0, -0.5)


NAN, INF = math.nan, math.inf


# A non-finite argument is refused before any series runs; it used to exhaust
# a coefficient budget (PrecisionLoss) or fail in int(ceil(nan)) (ValueError).
@pytest.mark.parametrize(
    "fn, args",
    [
        pytest.param(zeta, (complex(NAN, 0.0),), id="zeta-nan-re"),
        pytest.param(zeta, (complex(0.5, NAN),), id="zeta-nan-im"),
        pytest.param(zeta, (complex(0.5, INF),), id="zeta-inf-im"),
        pytest.param(zeta, (complex(-INF, 1.0),), id="zeta-inf-re"),
        pytest.param(zeta_and_deriv, (complex(NAN, 14.0),), id="zeta-deriv-nan"),
        pytest.param(zeta_and_deriv, (complex(0.5, -INF),), id="zeta-and-deriv-inf"),
        pytest.param(log_gamma, (complex(NAN, 1.0),), id="log-gamma-nan"),
        pytest.param(log_gamma, (complex(INF, 0.0),), id="log-gamma-inf"),
        pytest.param(gamma_ratio, (complex(0.5, 14.0), INF), id="gamma-ratio-tau-inf"),
        pytest.param(gamma_ratio, (complex(0.5, 14.0), NAN), id="gamma-ratio-tau-nan"),
        pytest.param(gamma_ratio, (complex(NAN, 14.0), 1.0), id="gamma-ratio-s-nan"),
    ],
)
def test_non_finite_arguments_are_domain_errors(fn, args):
    with pytest.raises(DomainError):
        fn(*args)


@pytest.mark.parametrize(
    "fn, arg, message",
    [
        pytest.param(kernel.Precision, 52, "must be >= 53", id="precision-52"),
        pytest.param(bernoulli, 132, "exceeds supported maximum", id="bernoulli-132"),
        pytest.param(trivial_zero_data, 121, "exceeds supported maximum", id="trivial-121"),
    ],
)
def test_index_past_its_range_is_refused(fn, arg, message):
    with pytest.raises(OutOfRange, match=message):
        fn(arg)


@pytest.mark.parametrize("s", [0.0, -3.0, complex(-2.0, -0.0)])
def test_log_gamma_pole_names_the_argument(s):
    with pytest.raises(PoleAtNonpositiveInteger, match=f"log_gamma pole at {complex(s).real}"):
        log_gamma(s)


def test_bernoulli_values():
    # Only even positive indices are exposed (odd ones vanish past B1).
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(4) == Fraction(-1, 30)
    assert bernoulli(12) == Fraction(-691, 2730)
    for bad in (0, 1, 3, -2):
        with pytest.raises(OutOfRange):
            bernoulli(bad)


def _bernoulli_by_recurrence(k_max: int) -> list[Fraction]:
    """Oracle: B_0..B_k_max from sum_j C(m+1, j) B_j = 0, in exact Fractions."""
    table = [Fraction(1)]
    for m in range(1, k_max + 1):
        acc = Fraction(0)
        binom = 1  # C(m+1, j), updated incrementally over j
        for j in range(m):
            acc += binom * table[j]
            binom = binom * (m + 1 - j) // (j + 1)
        table.append(-acc / (m + 1))
    return table


def test_bernoulli_table_equals_the_recurrence_at_every_index():
    # the table comes from tangent numbers; the defining recurrence checks it
    want = _bernoulli_by_recurrence(kernel.BERNOULLI_MAX_INDEX)
    got = kernel._bernoulli_table()
    assert len(got) == len(want) == kernel.BERNOULLI_MAX_INDEX + 1
    for k, (a, b) in enumerate(zip(got, want)):
        assert type(a) is Fraction and a == b, k
    for k in range(2, kernel.BERNOULLI_MAX_INDEX + 1, 2):
        assert bernoulli(k) == want[k], k


# Points off the zero table: on the real axis, left of it, and inside the
# shift radius, where the recurrence moves them right before the series.
GAMMA_RATIO_POINTS = [3.0, 2.5, 1e-3, -7.25, complex(0.5, 1.0), complex(-3.3, 2.0),
                      complex(0.2, -5.0), complex(5.0, 9.0), complex(-40.5, 0.1)]


def test_gamma_ratio_integer_cases(table):
    # Gamma(3)/Gamma(6) = 2/120
    assert gamma_ratio(3.0, 2.0) == pytest.approx(complex(1.0 / 60.0), rel=1e-14)
    # tau = 1: Gamma(s)/Gamma(s+2) = 1/(s(s+1))
    for s in (complex(0.5, 14.0), complex(0.5, 100.0), 2.5):
        sc = complex(s)
        want = 1.0 / (sc * (sc + 1.0))
        assert abs(gamma_ratio(s, 1.0) - want) <= 1e-13 * abs(want)
    # integer tau: 1/(s (s + 1) ... (s + tau)), over the table and off it
    points = np.concatenate([table.gammas * 1j + 0.5, np.array(GAMMA_RATIO_POINTS, complex)])
    for tau in (0, 1, 2, 3):
        want = 1.0 / np.prod([points + k for k in range(tau + 1)], axis=0)
        got = gamma_ratio(points, float(tau))
        assert (np.abs(got - want) <= 1e-14 * np.abs(want)).all(), tau


def test_gamma_ratio_matches_mpmath_over_the_table(table):
    # Every 24th zero and every tau, within 3 units of 2^-52 relative of
    # 40-digit mpmath (2.77 at tau = 7.25 at worst)
    import mpmath as mp

    rhos = table.gammas[::24] * 1j + 0.5
    with mp.workdps(40):
        for tau in (0.0, 0.5, 1.0, 1.5, 2.5, 3.0, 7.25, 10.5):
            for rho, got in zip(rhos.tolist(), gamma_ratio(rhos, tau).tolist()):
                z = mp.mpc(rho.real, rho.imag)
                want = mp.gamma(z) / mp.gamma(1 + tau + z)
                assert abs(got - want) <= 3 * 2.0**-52 * abs(want), (rho, tau)


def test_gamma_ratio_far_left_of_zero():
    # Re s < -tau takes its whole right shift from the reflection formula at
    # once: a point 10^4 left of 0 costs what one near 0 does, and stays
    # within 1e-14 of 40-digit mpmath, finite at |Im s| = 2000 too
    import mpmath as mp

    points = np.array([-9999.5, complex(-1e4, 1.0), complex(-1e4, -50.0),
                       complex(-3e3, 2e3), -1000.3, complex(-40.5, 0.1)])
    with mp.workdps(40):
        for tau in (0.0, 0.25, 1.0, 2.0, 3.7):
            start = time.perf_counter()
            got = gamma_ratio(points, tau)
            assert time.perf_counter() - start < 0.05, tau
            for s, value in zip(points.tolist(), got.tolist()):
                z = mp.mpc(s.real, s.imag)
                want = mp.gamma(z) / mp.gamma(mp.mpf(1.0 + tau) + z)
                assert abs(value - want) <= 1e-14 * abs(want), (s, tau)


def test_gamma_ratio_array_call_equals_scalar_calls(table):
    points = np.concatenate([table.gammas * 1j + 0.5, np.array(GAMMA_RATIO_POINTS, complex)])
    for tau in (0.0, 1.5, 2.0, 3.0, 3.7, 10.0):
        got = gamma_ratio(points, tau)
        assert got.shape == points.shape
        assert got.tolist() == [gamma_ratio(s, tau) for s in points.tolist()], tau
    assert type(gamma_ratio(2.5, 1.0)) is complex
    assert gamma_ratio(np.empty(0), 1.0).shape == (0,)
    grid = np.array(GAMMA_RATIO_POINTS[:8], complex).reshape(2, 4)
    assert gamma_ratio(grid, 1.5).tolist() == [[gamma_ratio(s, 1.5) for s in row]
                                               for row in grid.tolist()]


@pytest.mark.parametrize(
    "bad, tau, error",
    [
        pytest.param(complex(NAN, 14.0), 1.0, DomainError, id="nan"),
        pytest.param(complex(0.5, INF), 1.0, DomainError, id="inf"),
        pytest.param(-2.0, 1.0, PoleAtNonpositiveInteger, id="pole-s"),
        pytest.param(-4.5, 1.5, PoleAtNonpositiveInteger, id="pole-1-tau-s"),
        pytest.param(2.0, -0.5, DomainError, id="negative-tau"),
    ],
)
def test_gamma_ratio_array_refuses_as_the_scalar_call(table, bad, tau, error):
    # One bad point among good ones raises what the scalar call raises.
    points = np.concatenate([table.gammas[:5] * 1j + 0.5, [bad], [2.5]])
    with pytest.raises(error) as scalar:
        gamma_ratio(bad, tau)
    with pytest.raises(error) as array:
        gamma_ratio(points, tau)
    assert str(array.value) == str(scalar.value)


@given(
    st.floats(min_value=1.6, max_value=25.0),
)
@settings(max_examples=60, deadline=None)
def test_zeta_real_axis_shape(s):
    # On (1, inf) zeta decreases to 1 and stays above 1.
    v = zeta(s).real
    assert 1.0 < v <= zeta(1.6).real + 1e-15
    # Dirichlet tail bracket: the sum over n >= 3 is below the integral bound
    # 3^-s (1 + 3/(s-1)), so 2^-s < zeta(s) - 1 < 2^-s + 3^-s (1 + 3/(s-1)).
    tail = v - 1.0
    assert 2.0 ** (-s) < tail < 2.0 ** (-s) + 3.0 ** (-s) * (1.0 + 3.0 / (s - 1.0))


@given(
    st.floats(min_value=0.1, max_value=3.0),
    st.floats(min_value=2.0, max_value=200.0),
)
@settings(max_examples=40, deadline=None)
def test_zeta_conjugate_symmetry(sigma, t):
    s = complex(sigma, t)
    a = zeta(s)
    b = zeta(s.conjugate())
    assert abs(b - a.conjugate()) <= 1e-13 * max(abs(a), 1e-3)


@given(
    st.floats(min_value=-0.4, max_value=2.5),
    st.floats(min_value=5.0, max_value=300.0),
)
@settings(max_examples=30, deadline=None)
def test_zeta_deriv_matches_finite_difference(sigma, t):
    s = complex(sigma, t)
    h = 1e-5
    d = zeta_and_deriv(s)[1]
    fd = (zeta(s + h) - zeta(s - h)) / (2.0 * h)
    # central difference is O(h^2); scale by local magnitude
    scale = max(abs(d), 1.0)
    assert abs(d - fd) <= 5e-8 * scale


@given(
    st.floats(min_value=-30.0, max_value=-1.0),
    st.floats(min_value=0.0, max_value=50.0),
)
@settings(max_examples=40, deadline=None)
def test_functional_equation_invariant(sigma, t):
    # zeta(s) = chi(s) zeta(1-s) with
    # chi(s) = 2^s pi^(s-1) sin(pi s / 2) Gamma(1 - s).
    s = complex(sigma, t)
    if abs(s.real - round(s.real)) < 1e-3 and abs(t) < 1e-3:
        return  # too close to a trivial zero / real pole of the factors
    lhs = zeta(s)
    w = 1.0 - s
    chi = (
        2.0**s
        * cmath.pi ** (s - 1.0)
        * cmath.sin(cmath.pi * s / 2.0)
        * cmath.exp(log_gamma(w))
    )
    rhs = chi * zeta(w)
    assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1e-280)


# (zeta(s), zeta'(s)) and log Gamma(s) from mpmath at 40 digits, the oracle
# for the double kernel.  On the negative real axis the branch is
# log|Gamma(x)| + i*pi*[Gamma(x) < 0], the convention of the double path
# (mpmath.loggamma differs by 2*pi*i*k there).
ZETA_AND_DERIV_40 = {
    complex(0.5, 20.0): (
        ("0.4299138604378433721577396706245034568405",
         "-1.064291443080589112727395193068938474842"),
        ("0.7145067908437759923766753826002555503841",
         "1.005240883947013155472724076606905180816"),
    ),
    complex(2.0, 3.0): (
        ("0.7980219851462757206222945007248126860252",
         "-0.1137443080529385002159133658573150755701"),
        ("0.1401295901174864802463059119556927829317",
         "0.02151467827919665819586930508700018722344"),
    ),
    complex(-1.5, 2.0): (
        ("0.1242472655777747470137438352506272815937",
         "-0.01570774952827320278618164790733233123186"),
        ("0.08086809750560514377523406462715862134055",
         "-0.09034837581146520558005057018494136277842"),
    ),
    complex(0.5, 100.5): (
        ("1.737774021206534791472076585882518382129",
         "-1.463757770305698720521397126931771691254"),
        ("-1.228811475026726297788527866872873780234",
         "3.429847828155724921498811379987189145668"),
    ),
}

LOG_GAMMA_40 = {
    complex(0.25, 50.0): ("-78.59888043270184250397968959737864388583",
                          "145.2086595242572283326544966814016264509"),
    complex(3.7, -2.0): ("0.8420606199850079309205447776357918039675",
                         "-2.449380168642731874717570147802661451216"),
    10.0: ("12.80182748008146961120771787456670616428", "0"),
    -0.5: ("1.265512123484645396488945797134705923899",
           "3.141592653589793238462643383279502884197"),
    -1.5: ("0.8600470153764810145109326816703567873272", "0"),
    -2.5: ("-0.05624371649767405067259453009765428412294",
           "3.141592653589793238462643383279502884197"),
}


def _rel_err_40(got: complex, want) -> float:
    import mpmath as mp

    with mp.workdps(45):
        ref = mp.mpc(*want)
        return float(abs(mp.mpc(got) - ref) / abs(ref))


@pytest.mark.parametrize("s", list(ZETA_AND_DERIV_40))
def test_zeta_and_deriv_extended_oracles(s):
    # worst case 5.1e-14, zeta' at 1/2 + 100.5i
    z, dz = zeta_and_deriv(s)
    want_z, want_dz = ZETA_AND_DERIV_40[s]
    assert _rel_err_40(z, want_z) <= 1e-13
    assert _rel_err_40(dz, want_dz) <= 1e-13


# (zeta, zeta') near trivial zeros, at the double s, from mpmath at 45 digits.
NEAR_TRIVIAL_ZERO_40 = {
    complex(-2.0, 1e-9): (
        ("3.288175809371260188672977255435210943175e-20",
         "-3.044845705839327266276115347185242775532e-11"),
        ("-0.03044845705839327073864531038143840779764",
         "-6.576351618742519966940147997129190073908e-11"),
    ),
    -3.9999999: (
        ("7.98381172407326054604149705014218556654e-10", "0"),
        ("0.007983812024010154072207797921756521050343", "0"),
    ),
    -2.0000001: (
        ("3.044845372038630933950493722000469228072e-9", "0"),
        ("-0.03044845048204207886263322041834727481682", "0"),
    ),
    -10.0000001: (
        ("1.892992719520401792541369954035526845777e-9", "0"),
        ("-0.01892992828235978518580632434047208196649", "0"),
    ),
    -39.999999999999: (
        ("4833.143107431739264538823628700563101854", "0"),
        ("4824144835464810.625788709587440102701419", "0"),
    ),
}


@pytest.mark.parametrize("s", list(NEAR_TRIVIAL_ZERO_40))
def test_zeta_and_deriv_near_trivial_zeros(s):
    # sin(pi s / 2) is taken at s less an even integer, exactly, so zeta
    # keeps its relative accuracy beside the zero: 6.5e-15 at worst, for
    # zeta and zeta' at -10.0000001 (zeta read 7.8e-8 at -2 + 1e-9 i and
    # 6.2e-4 at -39.999999999999 while pi s / 2 was rounded first)
    z, dz = zeta_and_deriv(s)
    want_z, want_dz = NEAR_TRIVIAL_ZERO_40[s]
    assert _rel_err_40(z, want_z) <= 7e-15
    assert _rel_err_40(dz, want_dz) <= 7e-15


# (zeta, zeta') at 1/2 + i t from mpmath at 30 digits.
CRITICAL_LINE_30 = {
    14.13: (
        ("0.000596077678176282866683919746301", "-0.00369861358849654766094174340589"),
        ("0.782205506033020773177645584355", "0.127599417952167340361705431064"),
    ),
    1000.3: (
        ("1.98110948342672814537728161878", "0.945058224347480862383379488206"),
        ("-3.79888697066211333259824196565", "-4.9604036029664722007178331343"),
    ),
    9800.3: (
        ("-0.283755776883375437687632001916", "-0.0321831620937734490987584395348"),
        ("1.76511067212604900950975203557", "-6.24734421600464427730069611442"),
    ),
    49000.37: (
        ("-0.00107835745717199174080334289313", "0.00592839901257512104309291129218"),
        ("2.71933646964290590622186245245", "0.467195695525484457577008712225"),
    ),
}


@pytest.mark.parametrize("t", list(CRITICAL_LINE_30))
def test_zeta_and_deriv_on_the_critical_line(t):
    # The phases t log n are reduced from an exact product, so the error does
    # not grow with t log t: at most 7.2e-16 for zeta (absolute) and 7.1e-16
    # for zeta' (relative) at these four heights.
    import mpmath as mp

    z, dz = zeta_and_deriv(complex(0.5, t))
    want_z, want_dz = CRITICAL_LINE_30[t]
    with mp.workdps(30):
        assert abs(mp.mpc(z) - mp.mpc(*want_z)) <= 1.5e-15
    assert _rel_err_40(dz, want_dz) <= 1.5e-15


# Left of the critical strip and below Im s = -1, the functional equation
# reads log sin on its lower half-plane branch (_log_sin by conjugation).
@pytest.mark.parametrize("s", [complex(-3, -2), complex(-2.5, -5), complex(-7, -1.5)])
def test_zeta_left_and_below_against_mpmath(s):
    import mpmath as mp

    # worst case 5.1e-15, at -7 - 1.5i
    with mp.workdps(30):
        want = mp.zeta(mp.mpc(s))
        assert float(abs(mp.mpc(zeta(s)) - want) / abs(want)) <= 1e-14


@pytest.mark.parametrize("s", list(LOG_GAMMA_40))
def test_log_gamma_extended_oracles(s):
    # worst case 9.2e-16, at 3.7 - 2i, where the shift to |z| >= 10 leaves a
    # sum of size 15 for a value of size 2.6
    assert _rel_err_40(log_gamma(s), LOG_GAMMA_40[s]) <= 1e-15


# Normal terms across the whole exponent range, which _exact_parts extracts,
# and any finite float: zeros of either sign and subnormals among them.
_NORMAL_TERMS = st.builds(
    math.ldexp,
    st.floats(0.5, 1.0, exclude_max=True) | st.floats(-1.0, -0.5, exclude_min=True),
    st.integers(-1021, 969),
)
_ANY_TERMS = st.floats(-(2.0**700), 2.0**700) | st.sampled_from([0.0, -0.0, 5e-324, -5e-324])


@given(
    st.lists(_NORMAL_TERMS, max_size=200) | st.lists(_NORMAL_TERMS | _ANY_TERMS, max_size=200),
    st.booleans(),
    st.sampled_from([0, 1, 3]),
)
@settings(max_examples=300, deadline=None)
def test_exact_parts_sum_exactly(terms, cancel, min_len):
    if cancel:  # the exact total is zero
        terms = terms + [-t for t in reversed(terms)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernel, "_EXACT_PARTS_MIN", min_len)
        parts = kernel._exact_parts(np.array(terms, dtype=np.float64))
    assert sum(map(Fraction, parts)) == sum(map(Fraction, terms))


def test_exact_parts_any_length(monkeypatch):
    rng = np.random.default_rng(11)
    a = rng.standard_normal(5000) * np.exp2(rng.integers(-60, 60, 5000))
    a[3000] = 5e-324  # a subnormal is extracted like any other term
    monkeypatch.setattr(kernel, "_EXACT_PARTS_MIN", 0)
    parts = kernel._exact_parts(a)
    assert sum(map(Fraction, parts)) == sum(map(Fraction, a.tolist()))
    assert len(parts) < 64
    assert kernel._exact_sum(a).hex() == math.fsum(a.tolist()).hex()


def test_exact_parts_widest_span():
    # 2^14 terms from 2^-1074 to 2^969, the widest span the guard admits:
    # each pass lowers the bound 2^e from 2^970 by at least 52 - 15 bits, and
    # a nonzero remainder keeps e >= -1073
    rng = np.random.default_rng(12)
    e = rng.integers(-1074, 970, 1 << 14)
    a = np.ldexp(rng.choice([-1.0, 1.0], e.size), e)
    a[:2] = 5e-324, 2.0**969
    parts = kernel._exact_parts(a)
    assert len(parts) <= 1 + (970 + 1073) // (52 - 15)
    assert sum(map(Fraction, parts)) == sum(map(Fraction, a.tolist()))
    assert kernel._exact_sum(a).hex() == math.fsum(a.tolist()).hex()


def test_exact_parts_sigma_is_large_enough():
    # 2^14 - 3 terms (2^k = 2^14 serves up to 2^14 - 2) of 1 - 2^-40: sigma =
    # 2^14 rounds each to q = 1, while sigma = 2^12 would keep q = p, and no
    # float near 2^14 holds an odd count of them
    a = np.full((1 << 14) - 3, 1.0 - 2.0**-40)
    parts = kernel._exact_parts(a)
    assert sum(map(Fraction, parts)) == a.size * Fraction(a[0])


@pytest.mark.parametrize("t", [200.0, 999.0, 1001.0, 5e3, 1e4, 4.9e4])
def test_zeta_main_sum_matches_fsum(monkeypatch, t):
    points = [complex(sigma, t) for sigma in (-0.4, 0.5, 1.5)]

    def hexes() -> list[str]:
        values = [zeta(s) for s in points] + [w for s in points for w in zeta_and_deriv(s)]
        return [v.hex() for w in values for v in (w.real, w.imag)]

    exact = hexes()
    monkeypatch.setattr(kernel, "_exact_sum", lambda a: math.fsum(a.tolist()))
    assert hexes() == exact
