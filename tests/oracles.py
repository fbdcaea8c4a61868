"""Quadrature oracles for the two pieces behind the explicit formula for
the Riesz mean M_tau(x).  Only tests call them; test modules import this
file as ``oracles`` (tests/ has no __init__.py, so pytest puts the
directory on sys.path).

perron_kernel_report and perron_kernel_check integrate the Perron kernel
y^s Gamma(s)/Gamma(1+tau+s) along Re s = sigma0 by Simpson's rule and
compare it with its limit.  riesz_recurrence_check tests
integral_1^x u^(tau-1) M_{tau-1}(u) du = x^tau M_tau(x); for tau >= 2 it
uses 5-point Gauss-Legendre nodes per unit interval, exact for tau <= 10
since the integrand is a piecewise polynomial of degree tau - 1.

zero_terms_by_loop and a_lambda_by_loop are the loops that array code
replaced, kept as its references: the explicit formula's zero term one
zero at a time, and zerosums.a_lambda's Euler product one prime at a time.
refine_zero_by_three_evaluations is the extended refine that took zeta'
from mpmath, kept as the reference of the one that derives it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from mrl.errors import DomainError, MrlError, OutOfRange
from mrl.kernel import gamma_ratio
from mrl.moebius import (
    RieszQuery,
    _check_x,
    _primes_upto,
    _segment_mu,
    integral_M,
    riesz_mean_direct,
)
from mrl.zeros import _GUARD_BITS, ZeroRecord, _newton_polish
from mrl.zerosums import DEFAULT_G_TERMS, DEFAULT_PRIME_CUTOFF


class QuadratureDiverged(MrlError):
    """A numerical quadrature failed its internal resolution guard."""


@dataclass(frozen=True)
class PerronReport:
    """Numerical check of the truncated kernel integral against its limit."""

    y: float
    tau: float
    sigma0: float
    T: float
    quad_step: float
    quadrature: float
    target: float
    abs_error: float
    bound: float
    constant: float  # abs_error / bound


def perron_kernel_report(
    y: float,
    tau: float,
    sigma0: float = 2.0,
    T: float = 200.0,
    quad_step: float = 0.04,
) -> PerronReport:
    """Simpson quadrature of (1/pi) Re int_0^T y^(sigma0+it)
    Gamma(sigma0+it)/Gamma(1+tau+sigma0+it) dt against its T -> infinity
    limit (1-1/y)^tau / Gamma(1+tau) for y > 1, zero for y <= 1.

    The quadrature resolves oscillation of frequency log y, so quad_step must
    satisfy quad_step * |log y| < 0.1 (QuadratureDiverged otherwise).  The
    reported bound is the classical truncation envelope y^sigma0 / T^(1+tau),
    sharpened by 1/|log y| when y is safely away from 1.
    """
    y = float(y)
    tau = float(tau)
    if not y > 0.0:
        raise DomainError(f"y must be positive, got {y}")
    if not tau >= 0:
        raise DomainError(f"tau must be >= 0, got {tau}")
    if not sigma0 > 0.0:
        raise DomainError(f"sigma0 must be positive, got {sigma0}")
    if not T >= 10.0:
        raise DomainError(f"T must be >= 10, got {T}")
    if not quad_step > 0:
        raise DomainError("quad_step must be positive")
    ln_y = math.log(y)
    if quad_step * abs(ln_y) >= 0.1:
        raise QuadratureDiverged(
            f"quad_step * |log y| = {quad_step * abs(ln_y):.3f} >= 0.1; "
            "oscillation would be under-resolved"
        )
    n = int(math.ceil(T / quad_step))
    if n % 2 == 1:
        n += 1
    h = T / n
    y_s0 = y**sigma0
    t = np.arange(n + 1) * h
    t[-1] = T
    f = (y_s0 * np.exp(1j * (t * ln_y)) * gamma_ratio(t * 1j + sigma0, tau)).real.tolist()

    acc = f[0] + f[-1]
    acc += 4.0 * math.fsum(f[1:-1:2])
    acc += 2.0 * math.fsum(f[2:-1:2])
    quad = (h / 3.0) * acc / math.pi

    target = (1.0 - 1.0 / y) ** tau / math.gamma(1.0 + tau) if y > 1.0 else 0.0
    err = abs(quad - target)
    if y == 1.0:
        bound = y_s0 / T**tau if tau > 0 else math.inf
    elif 0.5 < y < 2.0:
        # near y = 1 the 1/|log y| sharpening can lose to the log-free form
        bound = y_s0 * min(T**-tau, T ** (-1.0 - tau) / abs(ln_y))
    else:
        bound = y_s0 / T ** (1.0 + tau)
    return PerronReport(
        y=y,
        tau=tau,
        sigma0=sigma0,
        T=T,
        quad_step=quad_step,
        quadrature=quad,
        target=target,
        abs_error=err,
        bound=bound,
        constant=err / bound,
    )


def zero_terms_by_loop(x: float, tau: float, rhos, zps) -> list[float]:
    """The terms 2 Re[x^rho Gamma(rho)/(Gamma(1+tau+rho) zeta'(rho))] one zero
    at a time, with scalar gamma_ratio calls and cmath: the loop that
    explicit._zero_term's columnar expression replaced, kept as its
    reference."""
    sqrt_x, ln_x = math.sqrt(x), math.log(x)
    return [
        2.0 * (sqrt_x * cmath.exp(1j * (rho.imag * ln_x)) * gamma_ratio(rho, tau) / zp).real
        for rho, zp in zip(rhos.tolist(), zps.tolist())
    ]


def refine_zero_by_three_evaluations(gamma_seed: float, precision) -> ZeroRecord:
    """zeros.refine_zero above 53 bits with zeta' from mpmath: the double
    polish, one Newton step on mpmath's zeta with the polish's zeta', then
    mpmath.zeta(s, derivative=1) at the stepped ordinate, at the requested
    width plus zeros._GUARD_BITS; refine_zero's convergence check is left
    out."""
    import mpmath as mp

    t, dz = _newton_polish(float(gamma_seed))
    with mp.workprec(int(precision.significand_bits) + _GUARD_BITS):
        t = t - (mp.zeta(mp.mpc(0.5, t)) / (1j * dz)).real
        dz = mp.zeta(mp.mpc(0.5, t), derivative=1)
    return ZeroRecord(float(t), complex(dz), int(precision.significand_bits))


def a_lambda_by_loop(
    lam: float, prime_cutoff: int = DEFAULT_PRIME_CUTOFF, g_terms: int = DEFAULT_G_TERMS
) -> float:
    """zerosums.a_lambda one prime at a time: the per-prime loop its array
    code replaced, kept as its reference.  The arguments are not checked."""
    lam2 = lam * lam
    logs: list[float] = []
    for p in _primes_upto(prime_cutoff).tolist():
        pinv = 1.0 / p
        c = 1.0
        pm = 1.0
        inner = 0.0
        for m in range(g_terms + 1):
            term = c * pm
            inner += term
            if term < 1e-20 * inner and m > 1:
                break
            c *= ((lam + m) / (m + 1.0)) ** 2
            pm *= pinv
        logs.append(lam2 * math.log1p(-pinv) + math.log(inner))
    return math.exp(math.fsum(logs))


# Residual ceiling for perron_kernel_check, as a multiple of the case bound.
# The truncation envelopes drop absolute constants, so a fitted constant is
# required; 10 is the fitted value that clears the supported (y, tau) grid
# with a comfortable margin while still catching a wrong kernel or target.
PERRON_FITTED_CONSTANT = 10.0


def perron_kernel_check(
    y: float,
    tau: float,
    sigma0: float = 2.0,
    T: float = 200.0,
    quad_step: float = 0.04,
) -> float:
    """Return |quadrature - limit| for the truncated kernel integral, after
    asserting it stays within PERRON_FITTED_CONSTANT times the case-wise
    truncation bound (QuadratureDiverged otherwise).  See
    perron_kernel_report for the underlying quantities."""
    report = perron_kernel_report(y, tau, sigma0=sigma0, T=T, quad_step=quad_step)
    if not report.abs_error <= PERRON_FITTED_CONSTANT * report.bound:
        raise QuadratureDiverged(
            f"kernel quadrature residual {report.abs_error:.3e} exceeds "
            f"{PERRON_FITTED_CONSTANT:g} x case bound {report.bound:.3e} "
            f"(y={y}, tau={tau}, sigma0={sigma0}, T={T}, quad_step={quad_step})"
        )
    return report.abs_error


# Cost guards for the quadrature branch of riesz_recurrence_check.
_RECURRENCE_QUAD_MAX_X = 3000.0
_RECURRENCE_MAX_TAU = 10


@lru_cache(maxsize=1)
def _gl5_nodes():
    """5-point Gauss-Legendre nodes and weights, built on first use."""
    return np.polynomial.legendre.leggauss(5)


def riesz_recurrence_check(x: float, tau: int) -> float:
    """Residual |LHS - RHS| of the recurrence

        integral_1^x u^(tau-1) M_{tau-1}(u) du = x^tau M_tau(x).

    At tau = 1 both sides come from the same two sums S_0 and S_1 (x S_0 - S_1
    against x M_1(x) = x S_0 - S_1, each correctly rounded), so the residual
    shows rounding only; the independent check of that route is the sieve
    differential test of _mu_power_sums.  For tau in [2, 10]
    the left side integrand u^(tau-1) M_{tau-1}(u) is a piecewise polynomial
    of degree tau - 1, so per-unit-interval 5-point Gauss-Legendre quadrature
    is still exact; cost grows quadratically, hence the x guard.  The right
    side is exact power sums at tau = 2 and 3 and a stream above, so there
    the quadrature checks the power-sum route independently.
    """
    x = float(x)
    _check_x(x)
    if not isinstance(tau, int) or isinstance(tau, bool) or tau < 1:
        raise DomainError(f"tau must be an integer >= 1, got {tau!r}")
    if tau > _RECURRENCE_MAX_TAU:
        raise OutOfRange(f"tau = {tau} exceeds supported maximum {_RECURRENCE_MAX_TAU}")
    rhs = x**tau * riesz_mean_direct(RieszQuery(x=x, tau=float(tau)))
    if tau == 1:
        lhs = integral_M(x, 0.0)
        return abs(lhs - rhs)
    if x > _RECURRENCE_QUAD_MAX_X:
        raise OutOfRange(
            f"x = {x} exceeds quadrature guard {_RECURRENCE_QUAD_MAX_X} for tau >= 2"
        )
    x_floor = int(math.floor(x))
    mu_all = _segment_mu(1, x_floor + 1)
    nodes, weights = _gl5_nodes()
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
