"""Complex special functions in double precision.

Provides the analytic building blocks used everywhere else in the package:
the Riemann zeta function and its derivative (Euler-Maclaurin summation on
the right half-plane, functional equation on the far left), the
principal-branch log-gamma function (argument shifting plus the Stirling
series), the kernel ratio Gamma(s)/Gamma(1+tau+s) evaluated safely in log
space, exact rational Bernoulli numbers, and closed-form data at the trivial
zeros s = -2n.

These algorithms run on hardware doubles only (complex/cmath, with numpy for
the long Euler-Maclaurin main sums, which error-free extraction rounds
correctly: _exact_parts, which the integer side shares).  :class:`Precision`
selects the final Newton step of zeros.refine_zero, which calls mpmath
directly when it is wider than 53 bits.

Its "Shared guards" are the one definition of the argument rules all modules
share, called by each public entry before any work: _check_finite, _check_tau
(finite tau >= 0) and _check_count (an int, not a bool, >= a floor).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import (
    DomainError,
    OutOfRange,
    PoleAtNonpositiveInteger,
    PoleAtOne,
    PrecisionLoss,
)

__all__ = [
    "Precision",
    "DOUBLE",
    "EXTENDED",
    "TrivialZeroData",
    "bernoulli",
    "zeta",
    "zeta_and_deriv",
    "log_gamma",
    "gamma_ratio",
    "trivial_zero_data",
    "BERNOULLI_MAX_INDEX",
    "IM_MAX",
]

# Largest Bernoulli index served by bernoulli(); also caps the number of
# asymptotic correction terms available to the internal series.
BERNOULLI_MAX_INDEX = 130

# Supported |Im s| for zeta/zeta_and_deriv.  The Euler-Maclaurin cutoff grows
# linearly with |Im s|, so this is a cost guard, not an accuracy cliff;
# double-precision accuracy is maintained well past the zeros near t = 1100
# that the rest of the package consumes.
IM_MAX = 5.0e4

# |Im s| guard for the derivative on the far left half-plane, where the
# functional-equation derivative mixes sin/cos factors that overflow doubles
# near |Im s| ~ 450.  The left-half-plane derivative is only ever needed at
# small |Im s| (trivial-zero neighborhoods).
_FE_DERIV_IM_MAX = 400.0

# Largest index accepted by trivial_zero_data; keeps zeta'(-2n) inside the
# double exponent range.
TRIVIAL_ZERO_MAX_N = 120

_EULER_GAMMA = 0.5772156649015329
_LN2 = math.log(2.0)
_LN2PI = math.log(2.0 * math.pi)

# Series stop once a term falls below 2^-(53 + 6) of the running scale.
_TOL = 2.0 ** -59

# Stirling/digamma arguments are shifted right until |z| clears this.
_SHIFT_RADIUS = 10.0

# Shortest array _exact_parts extracts in numpy; below it the Python floats
# themselves are the faster parts (see CHANGES.md).
_EXACT_PARTS_MIN = 640


@dataclass(frozen=True)
class Precision:
    """Working-precision selector for a zero's final Newton step.

    significand_bits = 53 keeps the double polish; any larger value adds one
    mpmath Newton step at that significand width (zeros.refine_zero).
    """

    significand_bits: int = 53

    def __post_init__(self) -> None:
        if int(self.significand_bits) < 53:
            raise OutOfRange(
                f"significand_bits must be >= 53, got {self.significand_bits}"
            )

    @property
    def is_double(self) -> bool:
        return self.significand_bits == 53


DOUBLE = Precision(53)
EXTENDED = Precision(128)


@dataclass(frozen=True)
class TrivialZeroData:
    """Closed-form data attached to the trivial zero at s = -2n.

    zeta_prime is zeta'(-2n); log_ratio is zeta''(-2n)/zeta'(-2n), the
    quantity the logarithmic residue corrections need.
    """

    n: int
    zeta_prime: float
    log_ratio: float


# ---------------------------------------------------------------------------
# Bernoulli numbers and derived coefficient tables
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1)
def _bernoulli_table() -> tuple[Fraction, ...]:
    """Exact B_0..B_max from the integer tangent numbers T_1..T_n of Brent and
    Harvey (2013): B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)), B_1 = -1/2."""
    n = BERNOULLI_MAX_INDEX // 2
    t = [0, 1] + [0] * (n - 1)
    for k in range(2, n + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    table = [Fraction(1), Fraction(-1, 2)] + [Fraction(0)] * (BERNOULLI_MAX_INDEX - 1)
    for k in range(1, n + 1):
        table[2 * k] = Fraction((-1) ** (k - 1) * 2 * k * t[k], 4**k * (4**k - 1))
    return tuple(table)


def bernoulli(k: int) -> Fraction:
    """Exact Bernoulli number B_k for even positive k up to BERNOULLI_MAX_INDEX."""
    if not isinstance(k, int) or isinstance(k, bool) or k < 2 or k % 2 != 0:
        raise OutOfRange(f"index must be an even positive integer, got {k!r}")
    if k > BERNOULLI_MAX_INDEX:
        raise OutOfRange(f"index {k} exceeds supported maximum {BERNOULLI_MAX_INDEX}")
    return _bernoulli_table()[k]


@lru_cache(maxsize=1)
def _stirling_coeffs() -> tuple[float, ...]:
    """B_{2k} / ((2k)(2k-1)), the Stirling-series coefficients."""
    table = _bernoulli_table()
    return tuple(
        float(table[2 * k] / (2 * k * (2 * k - 1)))
        for k in range(1, len(table) // 2 + 1)
    )


@lru_cache(maxsize=1)
def _em_coeffs() -> tuple[float, ...]:
    """B_{2k} / (2k)!, the Euler-Maclaurin tail coefficients."""
    table = _bernoulli_table()
    return tuple(
        float(table[2 * k] / math.factorial(2 * k))
        for k in range(1, len(table) // 2 + 1)
    )


@lru_cache(maxsize=1)
def _digamma_coeffs() -> tuple[float, ...]:
    """-B_{2k} / (2k), the digamma asymptotic coefficients."""
    table = _bernoulli_table()
    return tuple(float(-table[2 * k] / (2 * k)) for k in range(1, len(table) // 2 + 1))


# ---------------------------------------------------------------------------
# Exact summation
# ---------------------------------------------------------------------------


def _exact_parts(a: np.ndarray) -> list[float]:
    """A short list of floats whose exact sum is the exact sum of the float64
    array a, so math.fsum of it is the correctly rounded sum of a (Rump, Ogita
    and Oishi's error-free extraction, SIAM J. Sci. Comput. 31, 2008).

    With 2^e > max|p| and 2^k >= len(a) + 2, sigma = 2^(e+k) splits each term
    exactly into q = (p + sigma) - sigma, a multiple of 2^(e+k-53) with
    |q| <= 2^e, and p - q, at most 2^(e+k-53) in size.  Every partial sum of
    the q is then a multiple of 2^(e+k-53) below 2^(e+k), so numpy sums them
    exactly in any order.  Each pass keeps p - q, whose bound 2^e is at least
    52 - k bits lower, until it is all zero; subnormal terms need no
    exception, as the split is exact there too.  Short arrays, and arrays
    with nan, inf or a term of 2^970 or more (these keep fsum's own rules,
    and sigma stays finite), are returned as Python floats.
    """
    if len(a) < _EXACT_PARTS_MIN:
        return a.tolist()
    top = np.abs(a).max(initial=0.0)
    if not top < 2.0**970:
        return a.tolist()
    k = (len(a) + 1).bit_length()
    parts: list[float] = []
    while top:
        sigma = math.ldexp(1.0, math.frexp(top)[1] + k)
        q = (a + sigma) - sigma
        parts.append(float(q.sum()))
        a = a - q
        top = np.abs(a).max()
    return parts


def _exact_sum(a: np.ndarray) -> float:
    """Correctly rounded sum of the float64 array a: the same float as
    math.fsum(a.tolist()), from _EXACT_PARTS_MIN terms on without a Python
    float per term."""
    total = math.fsum(_exact_parts(a))
    return total if total else math.fsum(a.tolist())  # the sign of an exact zero


# ---------------------------------------------------------------------------
# Shared guards
# ---------------------------------------------------------------------------


def _check_finite(value, name: str):
    """value, real or complex, refusing a nan or infinite part with DomainError."""
    if not cmath.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value}")
    return value


def _check_tau(tau) -> float:
    """float(tau), refusing a negative, nan or infinite tau with DomainError."""
    tau = float(tau)
    if not 0.0 <= tau < math.inf:
        raise DomainError(f"tau must be finite and >= 0, got {tau}")
    return tau


def _check_count(value, name: str, least: int, most: float = math.inf) -> int:
    """value, refusing a bool, a non-int or a value below least with
    DomainError, and one above most with OutOfRange."""
    if not isinstance(value, int) or isinstance(value, bool) or value < least:
        raise DomainError(f"{name} must be an integer >= {least}, got {value!r}")
    if value > most:
        raise OutOfRange(f"{name} = {value} exceeds supported maximum {most}")
    return value


def _require_finite(value, what: str):
    parts = value if isinstance(value, tuple) else (value,)
    if not all(cmath.isfinite(v) for v in parts):
        raise PrecisionLoss(f"{what} overflowed or lost all significance")
    return value


def _is_nonpositive_integer(z: complex) -> bool:
    return z.imag == 0 and z.real <= 0 and z.real == math.floor(z.real)


# ---------------------------------------------------------------------------
# log-gamma, digamma, log-sin
# ---------------------------------------------------------------------------


def _log_gamma(z: complex) -> complex:
    """Principal-branch log Gamma(z), valid off the nonpositive integers.

    Strategy: conjugate into the closed upper half-plane; on the real axis use
    lgamma or the reflection formula; otherwise shift z rightward until it is
    safely inside the Stirling region (|z| large and Re z >= 0, so the series
    argument stays within |arg z| <= pi/2) and subtract the accumulated
    principal logarithms.  On the open upper half-plane the recurrence
    log Gamma(z) = log Gamma(z+1) - Log z holds branch-exactly for the
    principal Log, which keeps the result on the principal branch.
    """
    if z.imag < 0:
        return _log_gamma(z.conjugate()).conjugate()
    if z.imag == 0:
        x = z.real
        if _is_nonpositive_integer(z):
            raise PoleAtNonpositiveInteger(f"log_gamma pole at {x}")
        if x > 0:
            return complex(math.lgamma(x))
        # Gamma(x) = pi / (sin(pi x) Gamma(1-x)); the value is negative
        # exactly when sin(pi x) < 0, contributing i*pi to the principal log.
        s = cmath.sin(math.pi * x)
        rest = _log_gamma(1 - z)
        re_part = cmath.log(math.pi) - cmath.log(abs(s)) - rest.real
        im_part = math.pi if s.real < 0 else 0.0
        return re_part + 1j * im_part
    zs = z
    acc = 0
    while abs(zs) < _SHIFT_RADIUS or zs.real < 0:
        acc = acc + cmath.log(zs)
        zs = zs + 1
    head = (zs - 0.5) * cmath.log(zs) - zs + _LN2PI / 2
    return _asymptotic(head, _stirling_coeffs(), 1 / zs, 1 / (zs * zs), "Stirling") - acc


def _digamma(z: complex) -> complex:
    """psi(z) off the poles 0, -1, -2, ... by rightward shifting plus the
    asymptotic series.  Its callers pass Re z > 0: _zeta_fe's w = 1 - s with
    Re w > 3/2, and explicit._inv_gamma_factor's real w > 0 (it reflects psi itself)."""
    if z.imag < 0:
        return _digamma(z.conjugate()).conjugate()
    zs = z
    acc = 0
    while abs(zs) < _SHIFT_RADIUS or zs.real < 0:
        acc = acc + 1 / zs
        zs = zs + 1
    inv = 1 / zs
    inv2 = inv * inv
    return _asymptotic(cmath.log(zs) - inv / 2, _digamma_coeffs(), inv2, inv2, "digamma") - acc


def _harmonic(m: int) -> float:
    """H_m = sum of 1/j for j <= m, correctly rounded; psi(m + 1) = H_m - euler_gamma."""
    return math.fsum(1.0 / j for j in range(1, m + 1))


def _asymptotic(result: complex, coeffs, v: complex, ratio: complex, what: str):
    """result + sum_k coeffs[k] * v * ratio^k, stopped once a term falls below
    the double round-off floor of the running value."""
    prev = math.inf
    for coeff in coeffs:
        term = coeff * v
        result = result + term
        mag = abs(term)
        if mag < _TOL * (1 + abs(result)):
            return result
        if mag > prev:
            raise PrecisionLoss(f"{what} series diverged before reaching tolerance")
        prev = mag
        v = v * ratio
    raise PrecisionLoss(f"{what} series exhausted its coefficient budget")


def _log_sin(z: complex) -> complex:
    """A logarithm of sin(z), stable for large |Im z|.

    The branch is only guaranteed up to 2*pi*i*k; callers exponentiate the
    result, so any branch is acceptable.
    """
    if z.imag > 1:
        # sin z = (i/2) e^{-iz} (1 - e^{2iz}) and |e^{2iz}| = e^{-2 Im z} < 1
        w = cmath.exp(2j * z)
        return -1j * z - _LN2 + 1j * (math.pi / 2) + cmath.log(1 - w)
    if z.imag < -1:
        return _log_sin(z.conjugate()).conjugate()
    return cmath.log(cmath.sin(z))


# ---------------------------------------------------------------------------
# Riemann zeta via Euler-Maclaurin, functional equation on the far left
# ---------------------------------------------------------------------------


def _zeta_em(s: complex, want_deriv: bool):
    """zeta(s) (and optionally zeta'(s)) by Euler-Maclaurin summation.

    Valid for Re s >= -1/2: the truncated formula analytically continues
    there.  Cutoff N ~ max(10, |Im s|) with a floor set by the double
    round-off; Bernoulli corrections are added until they fall below it.
    Past 32 terms the main sums are numpy arrays, each correctly rounded
    (_exact_sum, the same float as math.fsum).
    """
    t = abs(s.imag)
    # The Bernoulli corrections bottom out near exp(-(2 pi N - |s|)), so N
    # must clear ((53 + 6) ln 2 + |t|) / (2 pi); the ceil(t) + 1 floor keeps
    # the main sum dominant at large heights where it is the cheaper regime.
    n_cut = max(
        10,
        int(math.ceil(t)) + 1,
        int(math.ceil((0.6931472 * (53 + 6) + t) / (2.0 * math.pi))) + 4,
    )
    dmain = 0
    if n_cut > 32:
        ns = np.arange(1, n_cut, dtype=np.float64)
        logs = np.log(ns)
        powers = np.exp(logs * (-s))
        main = complex(_exact_sum(powers.real), _exact_sum(powers.imag))
        if want_deriv:
            dpowers = powers * (-logs)
            dmain = complex(_exact_sum(dpowers.real), _exact_sum(dpowers.imag))
    else:
        main = 0
        for n in range(1, n_cut):
            ln_n = cmath.log(n)
            p = cmath.exp(ln_n * (-s))
            main = main + p
            if want_deriv:
                dmain = dmain - p * ln_n
    ln_cut = cmath.log(n_cut)
    pow_1ms = cmath.exp(ln_cut * (1 - s))  # N^(1-s)
    pow_ms = pow_1ms / n_cut  # N^(-s)
    tail0 = pow_1ms / (s - 1)
    tail1 = pow_ms / 2
    total = main + tail0 + tail1
    dtotal = 0
    if want_deriv:
        dtotal = dmain - tail0 * ln_cut - tail0 / (s - 1) - tail1 * ln_cut

    scale = 1 + abs(main) + abs(tail0)
    tol = _TOL * scale
    n_sq = n_cut * n_cut
    nfac = pow_1ms / n_sq  # N^(1 - s - 2k), starting at k = 1
    poch = s  # s(s+1)...(s+2k-2), starting at k = 1
    dpoch = 1  # its derivative in s
    prev = math.inf
    k = 0
    for c in _em_coeffs():
        k += 1
        term = c * poch * nfac
        total = total + term
        # The stop rule must weigh the derivative terms too: at special points
        # (e.g. s = 0) the value terms vanish identically while the derivative
        # series is still converging.
        mag = abs(term)
        if want_deriv:
            dterm = c * (dpoch - poch * ln_cut) * nfac
            dtotal = dtotal + dterm
            mag = mag + abs(dterm)
        if mag < tol:
            return (total, dtotal) if want_deriv else total
        if mag > prev:
            raise PrecisionLoss(
                "Euler-Maclaurin corrections diverged before reaching tolerance"
            )
        prev = mag
        a1 = s + (2 * k - 1)
        a2 = s + 2 * k
        dpoch = dpoch * a1 * a2 + poch * (a1 + a2)
        poch = poch * a1 * a2
        nfac = nfac / n_sq
    raise PrecisionLoss("Euler-Maclaurin corrections exhausted their coefficient budget")


def _zeta_fe(s: complex, want_deriv: bool):
    """zeta on Re s < -1/2 through the functional equation.

    The prefactor chi(s) = 2 (2 pi)^(s-1) Gamma(1-s) sin(pi s / 2) is
    assembled in log space so the value cannot overflow, and the value is
    that one float whether or not the derivative is asked for.  The
    derivative additionally needs sin/cos directly and is therefore
    restricted to moderate |Im s| by the caller.
    """
    w = 1 - s
    zw, dzw = _zeta_em(w, True) if want_deriv else (_zeta_em(w, False), 0)
    # sin(pi s / 2) vanishes identically at the trivial zeros; keep the exact
    # zero instead of the rounded sin() value so they come out exact.
    neg_even = _is_nonpositive_integer(s) and int(round(s.real)) % 2 == 0
    log_pref = _LN2 + (s - 1) * _LN2PI + _log_gamma(w)
    value = 0 * zw if neg_even else cmath.exp(log_pref + _log_sin(math.pi * s / 2)) * zw
    if s.imag == 0:  # real s: drop the residue of exp(i pi) with pi rounded
        value = complex(value.real)
    if not want_deriv:
        return value
    pref = cmath.exp(log_pref)
    if neg_even:
        n_half = int(round(s.real)) // (-2)
        sin_v = 0 * pref
        cos_v = (-1) ** (n_half % 2) + 0 * pref
    else:
        sin_v = cmath.sin(math.pi * s / 2)
        cos_v = cmath.cos(math.pi * s / 2)
    psi_w = _digamma(w)
    deriv = pref * (
        (_LN2PI - psi_w) * sin_v * zw + (math.pi / 2) * cos_v * zw - sin_v * dzw
    )
    return value, deriv


def _zeta(s, want_deriv: bool):
    """zeta(s), or (zeta(s), zeta'(s)) when want_deriv, after the range guards."""
    sc = _check_finite(complex(s), "s")
    if sc == 1:
        raise PoleAtOne("zeta has its pole at s = 1")
    if abs(sc.imag) > IM_MAX:
        raise OutOfRange(f"|Im s| = {abs(sc.imag)} exceeds supported maximum {IM_MAX}")
    if want_deriv and sc.real < -0.5 and abs(sc.imag) > _FE_DERIV_IM_MAX:
        raise PrecisionLoss(
            "zeta derivative on Re s < -1/2 is limited to |Im s| <= "
            f"{_FE_DERIV_IM_MAX}"
        )
    value = _zeta_em(sc, want_deriv) if sc.real >= -0.5 else _zeta_fe(sc, want_deriv)
    return _require_finite(value, "zeta")


def zeta(s):
    """Riemann zeta(s).  Raises PoleAtOne at s = 1."""
    return _zeta(s, want_deriv=False)


def zeta_and_deriv(s):
    """(zeta(s), zeta'(s)) sharing one Euler-Maclaurin pass."""
    return _zeta(s, want_deriv=True)


# ---------------------------------------------------------------------------
# Public gamma-family operations
# ---------------------------------------------------------------------------


def log_gamma(s):
    """Principal-branch log Gamma(s); raises PoleAtNonpositiveInteger.

    On the negative real axis the value is log|Gamma(x)| + i*pi*[Gamma(x) < 0].
    """
    sc = _check_finite(complex(s), "s")
    return _require_finite(_log_gamma(sc), "log_gamma")


def gamma_ratio(s, tau: float):
    """Gamma(s) / Gamma(1 + tau + s), tau >= 0, computed as exp of a log
    difference so large |s| cannot overflow intermediate Gamma values."""
    tau = _check_tau(tau)
    sc = _check_finite(complex(s), "s")
    if _is_nonpositive_integer(sc):
        raise PoleAtNonpositiveInteger(f"Gamma pole at s = {sc.real}")
    wc = complex(1 + tau) + sc
    if _is_nonpositive_integer(wc):
        raise PoleAtNonpositiveInteger(f"Gamma pole at 1 + tau + s = {wc.real}")
    return _require_finite(
        cmath.exp(_log_gamma(sc) - _log_gamma(sc + (1 + tau))), "gamma_ratio"
    )


@lru_cache(maxsize=TRIVIAL_ZERO_MAX_N, typed=True)
def trivial_zero_data(n: int) -> TrivialZeroData:
    """Closed-form zeta'(-2n) and zeta''(-2n)/zeta'(-2n) at the trivial zero
    s = -2n.

    Both follow from the functional equation zeta(s) = chi(s) zeta(1-s): the
    factor sin(pi s/2) has a simple zero at -2n, so with
    F(s) = 2 (2 pi)^(s-1) Gamma(1-s) zeta(1-s),

        zeta'(-2n)  = (-1)^n (pi/2) F(-2n)
                    = (-1)^n (2 pi)^(-2n) (2n)! zeta(2n+1) / 2
        zeta''/zeta' = 2 F'(-2n)/F(-2n)
                    = 2 (log 2 pi - psi(2n+1) - zeta'(2n+1)/zeta(2n+1))

    with the digamma value psi(2n+1) realized as H_{2n} - euler_gamma.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise OutOfRange(f"n must be a positive integer, got {n!r}")
    if n > TRIVIAL_ZERO_MAX_N:
        raise OutOfRange(f"n = {n} exceeds supported maximum {TRIVIAL_ZERO_MAX_N}")
    two_n = 2 * n
    z_val, z_der = zeta_and_deriv(complex(two_n + 1, 0.0))
    zp = math.exp(math.lgamma(two_n + 1) - two_n * math.log(2 * math.pi)) * (
        z_val.real / 2
    )
    if n % 2 == 1:
        zp = -zp
    log_ratio = 2.0 * (
        math.log(2 * math.pi) - (_harmonic(two_n) - _EULER_GAMMA) - z_der.real / z_val.real
    )
    return TrivialZeroData(n=n, zeta_prime=zp, log_ratio=log_ratio)


def _residue(*factors) -> float:
    """Residue at s0 of a product of factors, each given by its Laurent data
    (k, c, r) at s0: c (s - s0)^(-k) (1 + r() (s - s0) + ...).  The pole's
    order is the sum of the k.  Below order 1 the residue is 0, at order 1 it
    is prod c, and at order 2, the highest the explicit formulas meet, it is
    prod c * sum r().  So r, a function of no arguments, is called only at a
    double pole; a factor that never meets one may give None."""
    order = sum([k for k, _, _ in factors])
    if order < 1:
        return 0.0
    value = math.prod([c for _, c, _ in factors])
    if order == 1:
        return value
    return value * math.fsum([r() for _, _, r in factors])


def _inv_zeta_at_trivial_zero(tz: TrivialZeroData) -> tuple:
    """Laurent data of 1/zeta at s = -2n: 1/(zeta'(-2n) (s + 2n)), r = -zeta''/(2 zeta')."""
    return 1, 1.0 / tz.zeta_prime, lambda: -0.5 * tz.log_ratio
