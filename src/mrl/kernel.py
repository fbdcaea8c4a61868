"""Complex special functions in double precision.

Provides the analytic building blocks used everywhere else in the package:
the Riemann zeta function and its derivative (Euler-Maclaurin summation on
the right half-plane, the functional equation and its log-derivative on the
far left), log-gamma and digamma (argument shifting plus one Stirling sum,
_horner), the kernel ratio Gamma(s)/Gamma(1+tau+s) on a scalar or an array
of s (a product times a Stirling difference), exact rational Bernoulli
numbers, closed-form data at the trivial zeros s = -2n, and the Laurent data
at real points of 1/zeta, Gamma and 1/Gamma(1+tau+s) that _residue reads.

These algorithms run on hardware doubles only (complex/cmath, with numpy for
the Gamma ratio and the long Euler-Maclaurin main sums, which error-free
extraction rounds correctly: _exact_parts, which the integer side shares).
The phases t log n of those sums are reduced mod 2 pi from an exact product
(_phases).  :class:`Precision` selects the final Newton step of
zeros.refine_zero, which calls mpmath directly when it is wider than 53 bits.

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
from itertools import islice

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

# Terms of the Stirling and digamma series (_horner) that log Gamma, psi and
# gamma_ratio's difference D sum.  For |z| >= _SHIFT_RADIUS and Re z >= 0 the
# first term left out, B_20/(20*19) z^-19, B_20/20 z^-20 and B_20/(20*19)
# ((z + a)^-19 - z^-19) at a <= 1, is at most 1.4e-19, 2.6e-19 and 2.8e-19,
# each below 2^-61.
_STIRLING_TERMS = 9

# Shortest array _exact_parts extracts in numpy; below it the Python floats
# themselves are the faster parts (see CHANGES.md).
_EXACT_PARTS_MIN = 640

# The log table of _phases, empty until the first zeta call off the real
# axis, and the fixed-point bits of its exact logs.
_LOG_TABLE: tuple = (np.empty(0),)
_LOG_BITS = 128
# Veltkamp's splitting constant 2^27 + 1, and 2 pi = C1 + C2 + C3 with C1 and
# C2 of at most 36 bits (Cody and Waite), to 2^-125.
_SPLIT = 134217729.0
_TWO_PI_1 = float.fromhex("0x1.921fb54440000p+2")
_TWO_PI_2 = float.fromhex("0x1.68c234c500000p-37")
_TWO_PI_3 = float.fromhex("-0x1.cceba3f91f197p-72")


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
    # two work arrays for every pass, the split q and the remainder (one
    # array twice as long lands elsewhere in the heap and raised the peak
    # resident size of a run of streams by 0.2 MB)
    q, rest = np.empty(len(a)), np.empty(len(a))
    top = np.abs(a, out=q).max(initial=0.0)
    if not top < 2.0**970:
        return a.tolist()
    k = (len(a) + 1).bit_length()
    parts: list[float] = []
    while top:
        sigma = math.ldexp(1.0, math.frexp(top)[1] + k)
        np.add(a, sigma, out=q)
        q -= sigma
        parts.append(float(q.sum()))
        a = np.subtract(a, q, out=rest)
        top = np.abs(a, out=q).max()
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
    """value, a number, a tuple or an array, refusing a nan or infinite part
    with PrecisionLoss."""
    if not np.isfinite(value).all():
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
    # (z - 1/2) log z - z + log(2 pi)/2 with no product larger than the sum
    head = (zs - 0.5) * (cmath.log(zs) - 1) + (_LN2PI / 2 - 0.5)
    inv = 1 / zs
    return head + inv * _horner(inv * inv, _stirling_coeffs()) - acc


def _digamma(z: complex) -> complex:
    """psi(z) off the poles 0, -1, -2, ... by rightward shifting plus the
    asymptotic series.  Its callers pass Re z > 0: _zeta_fe's w = 1 - s with
    Re w > 3/2, and _inv_gamma_at's real w > 0 (it reflects psi itself).
    At a real integer 1 <= z < _SHIFT_RADIUS it is H_(z-1) - euler_gamma,
    as _gamma_pole takes it: the shift would leave log 11 - H_10 there."""
    if z.imag < 0:
        return _digamma(z.conjugate()).conjugate()
    if z.imag == 0 and z.real.is_integer() and 1 <= z.real < _SHIFT_RADIUS:
        return complex(_harmonic(int(z.real) - 1) - _EULER_GAMMA)
    zs = z
    acc = 0
    while abs(zs) < _SHIFT_RADIUS or zs.real < 0:
        acc = acc + 1 / zs
        zs = zs + 1
    inv = 1 / zs
    inv2 = inv * inv
    return (cmath.log(zs) - acc) + (inv2 * _horner(inv2, _digamma_coeffs()) - inv / 2)


def _harmonic(m: int) -> float:
    """H_m = sum of 1/j for j <= m, correctly rounded; psi(m + 1) = H_m - euler_gamma."""
    return math.fsum(1.0 / j for j in range(1, m + 1))


def _horner(x, coeffs):
    """sum of coeffs[k] x^k over k < _STIRLING_TERMS by Horner's rule, for a
    complex or an array x."""
    top = coeffs[_STIRLING_TERMS - 1 :: -1]
    acc = top[0]
    for coeff in top[1:]:
        acc = acc * x + coeff
    return acc


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
# Phases t log n mod 2 pi
# ---------------------------------------------------------------------------


def _log_table(count: int) -> tuple:
    """(np.log(n), its leading 26 bits, log n less those bits) as arrays for
    n = 1 .. at least count, built on first use and rebuilt at the next power
    of two (at most the N of |Im s| = IM_MAX) when a larger count is asked.

    log n is first a multiple of 2^-_LOG_BITS, exact to 1e-31: at a prime,
    log(n - 1) + 2 atanh(1/(2n - 1)) by its series in integers, elsewhere the
    sum for the smallest prime factor and the cofactor.
    """
    global _LOG_TABLE
    if len(_LOG_TABLE[0]) >= count:
        return _LOG_TABLE
    size = min(int(IM_MAX) + 1, 1 << (count - 1).bit_length())
    spf = np.zeros(size + 1, dtype=np.int64)  # smallest prime factor, 0 at primes
    for p in range(2, math.isqrt(size) + 1):
        if not spf[p]:
            multiples = spf[p * p :: p]
            multiples[multiples == 0] = p
    exact = [0, 0]  # 2^_LOG_BITS log n, from n = 0
    for n, p in enumerate(spf[2:].tolist(), 2):
        if p:
            exact.append(exact[p] + exact[n // p])
            continue
        q, k, acc = 2 * n - 1, 1, 0
        term = (2 << _LOG_BITS) // q
        while term:
            acc += term // k
            term //= q * q
            k += 2
        exact.append(exact[n - 1] + acc)
    logs = np.log(np.arange(1.0, size + 1.0))
    head = logs * _SPLIT
    head -= head - logs  # Veltkamp's split
    # read into the array one by one, so the exact logs alone set the peak memory
    scale = 2.0**_LOG_BITS
    pairs = zip(islice(exact, 1, None), head)
    rest = np.fromiter((e - int(h * scale) for e, h in pairs), float, size)
    _LOG_TABLE = (logs, head, rest / scale)
    return _LOG_TABLE


def _phases(t: float, count: int) -> np.ndarray:
    """t log n - 2 pi k for n = 1 .. count, k the integer nearest t log n /
    2 pi, each within about 2^-52 of the exact value for |t| <= IM_MAX.

    With t = t_head + t_tail (Veltkamp, t_head of 26 bits) and log n from
    _log_table, the product t_head * head is exact (Dekker, Numer. Math. 18,
    1971), and so is its reduction by k C1 (Cody and Waite): k < 2^17 up to
    IM_MAX, C1 has 35 bits, and the two agree to a factor of 2.  The other
    products are below 1e-2 and k C2 below 1e-6, so each adds at most 1e-18;
    t_tail (log n - np.log(n)), below 5e-19, is left out.  Only the last
    sum is rounded at the size of the phase.
    """
    logs, head, rest = (column[:count] for column in _log_table(count))
    t_head = _SPLIT * t - (_SPLIT * t - t)
    product = t_head * head
    k = np.rint(product * (0.5 / math.pi))
    small = t_head * rest + (t - t_head) * logs - k * _TWO_PI_2 - k * _TWO_PI_3
    return (product - k * _TWO_PI_1) + small


# ---------------------------------------------------------------------------
# Riemann zeta via Euler-Maclaurin, functional equation on the far left
# ---------------------------------------------------------------------------


def _zeta_em(s: complex, want_deriv: bool):
    """zeta(s) (and optionally zeta'(s)) by Euler-Maclaurin summation.

    Valid for Re s >= -1/2: the truncated formula analytically continues
    there.  Cutoff N ~ max(10, |Im s|) with a floor set by the double
    round-off; Bernoulli corrections are added until they fall below it.
    Off the real axis the main sums are numpy arrays, each correctly rounded
    (_exact_sum, the same float as math.fsum), and the phases of n^(-s) and
    N^(1-s) come from _phases, which keeps zeta within 1e-15 at any height.
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
    ln_cut = cmath.log(n_cut)
    if s.imag:
        logs = _log_table(n_cut)[0][:n_cut]
        powers = np.exp(logs * -s.real - 1j * _phases(s.imag, n_cut))  # n^(-s), n = 1 .. N
        pow_ms = complex(powers[-1])  # N^(-s)
        pow_1ms = pow_ms * n_cut  # N^(1-s)
        powers, logs = powers[:-1], logs[:-1]
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
    derivative is zeta(s) (log 2 pi - psi(w) + (pi/2) cot(pi s / 2) -
    zeta'(w)/zeta(w)), w = 1 - s, finite at any height; at a trivial zero,
    where zeta(s) = 0, it is chi(s)/sin(pi s / 2) (pi/2) cos(pi s / 2) zeta(w).
    """
    w = 1 - s
    zw, dzw = _zeta_em(w, True) if want_deriv else (_zeta_em(w, False), 0)
    # s = 2k + r, |Re r| <= 1, exactly, so sin(pi s / 2) = (-1)^k sin(pi r / 2)
    # and cot(pi s / 2) = cot(pi r / 2) lose nothing to the rounding of pi s
    k = round(s.real / 2)
    r = s - 2 * k
    sign = 1 - 2 * (k % 2)
    # sin(pi s / 2) vanishes identically at the trivial zeros; keep the exact
    # zero instead of the rounded sin() value so they come out exact.
    neg_even = r == 0
    log_pref = _LN2 + (s - 1) * _LN2PI + _log_gamma(w)
    value = 0 * zw if neg_even else sign * cmath.exp(log_pref + _log_sin(math.pi * r / 2)) * zw
    if s.imag == 0:  # real s: drop the residue of exp(i pi) with pi rounded
        value = complex(value.real)
    if not want_deriv:
        return value
    if neg_even:  # cos(pi s / 2) = (-1)^k
        return value, cmath.exp(log_pref) * ((math.pi / 2) * sign * zw)
    # cot(pi s / 2) as 1/tan, which stays finite at any height
    log_deriv = _LN2PI - _digamma(w) + (math.pi / 2) / cmath.tan(math.pi * r / 2) - dzw / zw
    return value, value * log_deriv


def _zeta(s, want_deriv: bool):
    """zeta(s), or (zeta(s), zeta'(s)) when want_deriv, after the range guards."""
    sc = _check_finite(complex(s), "s")
    if sc == 1:
        raise PoleAtOne("zeta has its pole at s = 1")
    if abs(sc.imag) > IM_MAX:
        raise OutOfRange(f"|Im s| = {abs(sc.imag)} exceeds supported maximum {IM_MAX}")
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


def _sin_ratio(z: np.ndarray, a: float) -> np.ndarray:
    """sin(pi (z + a))/sin(pi z) for an array z off the real integers.

    With z = n + f + iy, n = rint(Re z), and f + a = m + g, m = rint(f + a),
    both f and g are exact and at most 1/2 in size, and the ratio is
    (-1)^m sin(pi (g + iy))/sin(pi (f + iy)).  Each sine is taken over
    cosh(pi y), as sin(pi f) + i cos(pi f) tanh(pi y), so it stays finite at
    any height.
    """
    f = z.real - np.rint(z.real)
    g = f + a
    m = np.rint(g)
    g -= m
    t = np.tanh(np.pi * z.imag)
    num = np.sin(np.pi * g) + 1j * (np.cos(np.pi * g) * t)
    den = np.sin(np.pi * f) + 1j * (np.cos(np.pi * f) * t)
    return (1.0 - 2.0 * (m % 2.0)) * num / den


def gamma_ratio(s, tau: float):
    """Gamma(s) / Gamma(1 + tau + s), tau >= 0: a complex for a scalar s, an
    array of the shape of s for an array.

    It is 1/(s (s + 1) ... (s + k)), k = min(floor(tau), 10), 0 where the
    product leaves the float range, times Gamma(z)/Gamma(z + a), z = s + k + 1,
    a = tau - k (skipped at a = 0), as |z + a|^-a exp(-D), the power by pow and
    D from two Stirling series in which no log of size |z| cancels:

        D = (z - 1/2) log1p(a/z) + i a arg(z + a) - a
            + sum_k B_2k/(2k(2k-1)) ((z + a)^(1-2k) - z^(1-2k)).

    Over the packaged zeros it is within 5 units of 2^-52 relative of
    30-digit mpmath at every tau <= 11 tried.  A point with Re z < min(0,
    1 - a) is first reflected to w = 1 - z - a, Re w > 0, at the cost of the
    sine ratio of _sin_ratio; then points with |z| < _SHIFT_RADIUS or
    Re z < 0 move right by Gamma(z)/Gamma(z + a) = (z + a)/z *
    Gamma(z + 1)/Gamma(z + 1 + a), one step per unit (at most
    a + _SHIFT_RADIUS + 1 steps).  A point's value depends on it alone, so
    an array call equals the scalar calls bit for bit; the checks name the
    first point that fails: a non-finite s (DomainError), a pole of either
    Gamma (PoleAtNonpositiveInteger), an overflow (PrecisionLoss).
    """
    tau = _check_tau(tau)
    z = np.array(s, dtype=complex).reshape(-1)
    finite = np.isfinite(z)
    if not finite.all():
        _check_finite(complex(z[np.argmin(finite)]), "s")
    axis = z.imag == 0
    if axis.any():  # the poles lie on the real axis
        for v, what in ((z.real, "s"), (z.real + (1.0 + tau), "1 + tau + s")):
            pole = axis & (v <= 0) & (v == np.floor(v))
            if pole.any():
                raise PoleAtNonpositiveInteger(f"Gamma pole at {what} = {v[np.argmax(pole)]}")
    k = min(math.floor(tau), 10)
    with np.errstate(all="ignore"):
        # from the left, so no point's bits depend on the others; with at most
        # 11 factors a partial product overflows only if the ratio is < 2^-1024
        product = math.prod([z + j for j in range(1, k + 1)], start=z)
        ratio = np.where(np.isfinite(product), 1.0 / product, 0.0)
        a = tau - k
        if a:
            z = z + (k + 1)
            # Points with Re z < min(0, 1 - a) take their whole right shift
            # at once: by reflection, Gamma(z)/Gamma(z + a) =
            # sin(pi (z + a))/sin(pi z) * Gamma(w)/Gamma(w + a), w = 1 - z - a
            left = z.real < min(0.0, 1.0 - a)
            reflect = left.any()
            if reflect:
                sines = _sin_ratio(z, a)
                z = np.where(left, (1.0 - a) - z, z)
            scale = ratio
            shift = (z.real < 0) | (np.abs(z) < _SHIFT_RADIUS)
            while shift.any():
                scale = np.where(shift, scale * ((z + a) / z), scale)
                z = np.where(shift, z + 1.0, z)
                shift = (z.real < 0) | (np.abs(z) < _SHIFT_RADIUS)
            w = z + a
            # log1p(q), q = a/z, from the real log1p of |1 + q|^2 - 1, which
            # cannot cancel as Re q >= 0, and the arctan2 of its phase
            q = a / z
            log1p_q = 0.5 * np.log1p(q.real * (2.0 + q.real) + q.imag * q.imag)
            d = (z - 0.5) * (log1p_q + 1j * np.arctan2(q.imag, 1.0 + q.real))
            d += a * (1j * np.angle(w) - 1.0)
            # The Stirling sums at z and w side by side, by Horner's rule in the
            # inverse square; each is at most 1/(12 |z|), so their difference
            # keeps the absolute accuracy D needs.
            inv = 1.0 / np.concatenate((z, w))
            sums = _horner(inv * inv, _stirling_coeffs()) * inv
            d += sums[len(z) :] - sums[: len(z)]
            ratio = np.exp(-d) * np.hypot(w.real, w.imag) ** -a * scale
            if reflect:  # whole-array products, whose bits do not depend on the length
                ratio = np.where(left, ratio * sines, ratio)
        _require_finite(ratio, "gamma_ratio")
    return complex(ratio[0]) if np.ndim(s) == 0 else ratio.reshape(np.shape(s))


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
    # rounded once, by the correctly rounded int division, from the exact
    # value at the double zeta(2n+1) and at 2 pi = C1 + C2 + C3 (to 2^-125)
    p, q = (Fraction(_TWO_PI_1) + Fraction(_TWO_PI_2) + Fraction(_TWO_PI_3)).as_integer_ratio()
    zn, zd = z_val.real.as_integer_ratio()
    zp = (-1) ** n * math.factorial(two_n) * zn * q**two_n / (2 * zd * p**two_n)
    log_ratio = 2.0 * (
        math.log(2 * math.pi) - (_harmonic(two_n) - _EULER_GAMMA) - z_der.real / z_val.real
    )
    return TrivialZeroData(n=n, zeta_prime=zp, log_ratio=log_ratio)


def _residue(*factors) -> float:
    """Residue at s0 of a product of factors, each given by its Laurent data
    (k, c, r) at s0, c real: c (s - s0)^(-k) (1 + r() (s - s0) + ...).  The
    pole's order is the sum of the k.  Below order 1 the residue is 0, at
    order 1 it is prod c, and at order 2, the highest the explicit formulas
    meet, it is prod c * sum r().  So r, a function of no arguments, is
    called only at a double pole; a factor that never meets one may give
    None.  Each c is split as m 2^e, 1/2 <= |m| < 1 (math.frexp), and the m
    are multiplied while the e are summed apart, so no partial product
    leaves the normal range; where none would have, the value is the plain
    product's, bit for bit."""
    order, value, exponent = 0, 1.0, 0
    for k, c, _ in factors:
        m, e = math.frexp(c)
        order += k
        value *= m
        exponent += e
    if order < 1:
        return 0.0
    if order > 1:
        value *= math.fsum([r() for _, _, r in factors])
    return math.ldexp(value, exponent)


@lru_cache(maxsize=512)
def _inv_zeta_at(s0: float) -> tuple:
    """Laurent data of 1/zeta at the real point s0: the simple zero s - 1 at
    s0 = 1; at a trivial zero -2n the simple pole 1/(zeta'(-2n) (s + 2n)) with
    r = -zeta''(-2n)/(2 zeta'(-2n)) from trivial_zero_data; at odd s0 = -m the
    value -(m+1)/B_(m+1); elsewhere the value 1/zeta(s0).  Only the pole
    meets a double pole in the explicit formulas, so only it carries r."""
    if s0 == 1.0:
        return -1, 1.0, None
    if s0 < 0.0 and s0 == math.floor(s0):
        m = int(-s0)
        if m % 2:
            return 0, float(-(m + 1) / bernoulli(m + 1)), None
        tz = trivial_zero_data(m // 2)
        return 1, 1.0 / tz.zeta_prime, lambda: -0.5 * tz.log_ratio
    return 0, 1.0 / zeta(s0).real, None


@lru_cache(maxsize=128)
def _gamma_pole(l: int) -> tuple:
    """Laurent data of Gamma at its pole s = -l: (-1)^l/(l! (s + l)), r = psi(l + 1)."""
    psi = _harmonic(l) - _EULER_GAMMA
    return 1, (-1) ** l / math.factorial(l), lambda: psi


def _inv_gamma_at(tau: float, l: int) -> tuple:
    """Laurent data of 1/Gamma(1 + tau + s) at s = -l, tau >= 0 as in gamma_ratio.

    At w = 1 + tau - l = -m, m = 0, 1, ..., it is the simple zero
    (-1)^m m! (s + l).  Elsewhere it is the value 1/Gamma(w) with
    r = -psi(w); for w < 0 both are reflected at tau, which keeps every
    Gamma and digamma argument positive: sin(pi w) Gamma(1 - w)/pi and
    psi(w) = psi(l - tau) - pi cot(pi tau).
    """
    w = 1.0 + tau - l
    if w <= 0.0 and w.is_integer():
        return -1, (-1) ** int(-w) * math.factorial(int(-w)), None
    if w <= 0.0:
        # sin and tan reduced first, exactly: sin(pi w) = sin(pi (w - 2j))
        # and tan(pi tau) = tan(pi (tau - j)) for integer j
        c = math.sin(math.pi * (w - 2 * round(w / 2))) * math.gamma(1.0 - w) / math.pi
        return 0, c, lambda: (math.pi / math.tan(math.pi * (tau - round(tau)))
                              - _digamma(complex(l - tau)).real)
    return 0, 1.0 / math.gamma(w), lambda: -_digamma(complex(w)).real
