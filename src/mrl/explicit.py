"""Spectral-side evaluation of Riesz-weighted Mertens means.

The weighted mean M_tau(x) (see moebius.riesz_mean_direct) equals a sum over
nontrivial zeta zeros plus a residue series from the poles of

    g(s) = x^s Gamma(s) / (zeta(s) Gamma(1 + tau + s))

at s = 0 and s = -l, l = 1, 2, ...:

  * each zero rho = 1/2 + i gamma contributes
    2 Re[x^rho Gamma(rho)/(Gamma(1+tau+rho) zeta'(rho))], summed in
    ascending gamma and correctly rounded;
  * s = 0 contributes -2/Gamma(1+tau);
  * s = -l is read by kernel._residue from the Laurent data of four factors:
    x^s and the kernel's data at s = -l of Gamma (_gamma_pole), 1/zeta
    (_inv_zeta_at: a value at odd l, a pole at even l) and 1/Gamma(1+tau+s)
    (_inv_gamma_at: a value, or a simple zero at integer 1+tau-l <= 0).

Everything here runs in double precision: truncation (T, L), not rounding,
dominates the error.

The tau = 0 case is the unweighted summatory function, where the zero sum is
only conditionally convergent; evaluating it emits the "Bartz mode:
convergence not guaranteed" warning and the error estimate is infinite.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .kernel import (
    _check_count,
    _check_finite,
    _check_tau,
    _gamma_pole,
    _inv_gamma_at,
    _inv_zeta_at,
    _residue,
    gamma_ratio,
    trivial_zero_data,  # unused here; perfbench/spans.py binds mrl.explicit.trivial_zero_data
)
from .moebius import _riesz_means
from .zeros import ZeroTable, _zero_sum

__all__ = [
    "RESIDUE_MAX_L",
    "EXPLICIT_COLUMNS",
    "ExplicitEvaluation",
    "zero_sum_term",
    "s0_residue",
    "residue_term",
    "residue_series",
    "error_estimate",
    "explicit_M_tau",
    "compare_direct_explicit",
]

# Residue index ceiling: keeps every factorial/Gamma intermediate inside
# double range (the terms themselves decay superexponentially in l).
RESIDUE_MAX_L = 100

# The canonical columns of ExplicitEvaluation.row, in the order the CLI prints them.
EXPLICIT_COLUMNS = ("x", "tau", "T", "L", "direct", "explicit", "abs_diff", "error_estimate")


@dataclass(frozen=True)
class ExplicitEvaluation:
    """One spectral-side evaluation: zero sum up to height T, residue series
    up to index L, the s = 0 residue, and the truncation error estimate."""

    x: float
    tau: float
    T: float
    L: int
    zero_sum: float
    residue_sum: float  # poles s = -1 .. -L only
    s0_residue: float
    error_estimate: float

    @property
    def explicit_value(self) -> float:
        return self.zero_sum + self.s0_residue + self.residue_sum

    def row(self, direct: float | None = None) -> dict:
        """The row of this evaluation.  Its EXPLICIT_COLUMNS are the only keys
        the CLI prints (direct and abs_diff are None without a direct value).
        Given one, the row also holds within_estimate and, at tau = 0 and
        integer x, a note; these two are for API callers only."""
        explicit = self.explicit_value
        abs_diff = None if direct is None else abs(direct - explicit)
        row = dict(zip(EXPLICIT_COLUMNS, (self.x, self.tau, self.T, self.L, direct,
                                          explicit, abs_diff, self.error_estimate)))
        if direct is not None:
            row["within_estimate"] = bool(abs_diff <= self.error_estimate)
            if self.tau == 0.0 and self.x.is_integer():
                row["note"] = (
                    "tau = 0 at integer x: the direct sum jumps here; the series "
                    "converges to the midpoint of the jump"
                )
        return row


def _check_positive_x(x: float, least: float = 0.0) -> float:
    """x, refusing with DomainError a nan or infinite x, and one at or below 0
    (least = 0, the pieces) or below least (least = 1, the assemblies)."""
    if least and not x >= least:
        raise DomainError(f"x must be >= {least:g}, got {x}")
    if not x > 0.0:
        raise DomainError(f"x must be positive, got {x}")
    return _check_finite(x, "x")


# ---------------------------------------------------------------------------
# Zero side
# ---------------------------------------------------------------------------


def _zero_term(x: float, tau: float):
    """The terms 2 Re[x^rho Gamma(rho)/(Gamma(1+tau+rho) zeta'(rho))] of zeros
    paired with their conjugates, as a function of the columns (rho,
    zeta'(rho)) for zeros._zero_sum, one gamma_ratio call per column; x > 0
    and tau >= 0 are the caller's to check."""
    sqrt_x, ln_x = math.sqrt(x), math.log(x)

    def term(rhos, zps):
        return 2.0 * (sqrt_x * np.exp(1j * (rhos.imag * ln_x)) * gamma_ratio(rhos, tau) / zps).real

    return term


def zero_sum_term(x: float, tau: float, table: ZeroTable, T: float) -> float:
    """Zero-side sum of the terms of _zero_term over 0 < gamma < T (strict),
    correctly rounded.  An empty table (or T below the first zero) gives
    0.0; unusable records raise as described in zeros._zero_sum."""
    _check_positive_x(x)
    tau = _check_tau(tau)
    return _zero_sum(table, T, _zero_term(x, tau), inclusive=False)[0]


# ---------------------------------------------------------------------------
# Residue side
# ---------------------------------------------------------------------------


def s0_residue(tau: float) -> float:
    """Residue at s = 0: with zeta(0) = -1/2 and Res Gamma = 1, equals
    -2/Gamma(1+tau)."""
    return -2.0 / math.gamma(1.0 + _check_tau(tau))


def _residue_at(l: int, x: float, tau: float) -> float:
    """Residue of g(s) at s = -l, read by kernel._residue from four factors:
    x^s and the kernel's data at s = -l of Gamma, 1/zeta and
    1/Gamma(1 + tau + s); the arguments are the caller's to check."""
    x_pow = (0, math.pow(x, -l), lambda: math.log(x))
    return _residue(x_pow, _gamma_pole(l), _inv_zeta_at(-l), _inv_gamma_at(tau, l))


def _residues(x: float, tau: float, L: int) -> list[float]:
    """The residues of g(s) at s = -1 .. -L, after one check of L, x > 0 and tau."""
    _check_count(L, "L", 0, RESIDUE_MAX_L)
    _check_positive_x(x)
    tau = _check_tau(tau)
    return [_residue_at(l, x, tau) for l in range(1, L + 1)]


def residue_term(l: int, x: float, tau: float) -> float:
    """Residue of g(s) at s = -l, l >= 1, from the Laurent data of its four
    factors (_residue_at)."""
    _check_count(l, "l", 1, RESIDUE_MAX_L)
    _check_positive_x(x)
    return _residue_at(l, x, _check_tau(tau))


def residue_series(x: float, tau: float, L: int) -> float:
    """Total residue contribution: the s = 0 term plus poles s = -1 .. -L
    (L = 0 keeps just the s = 0 term)."""
    residues = _residues(x, tau, L)
    return s0_residue(tau) + math.fsum(residues)


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------


def error_estimate(x: float, tau: float, T: float) -> float:
    """Truncation estimate x^2/(tau T^tau) + x^2 T^(0.01-1-tau)/log x for the
    height-T zero-sum cutoff; infinite at tau = 0 (conditional convergence).
    T = inf leaves no zero out, so the estimate is 0 there for tau > 0."""
    tau = _check_tau(tau)
    _check_positive_x(x, 1.0)
    if not T > 1.0:
        raise DomainError(f"T must exceed 1, got {T}")
    if tau == 0.0 or x == 1.0:
        return math.inf
    x2 = x * x
    return x2 / (tau * T**tau) + x2 * T ** (0.01 - 1.0 - tau) / math.log(x)


def explicit_M_tau(
    x: float,
    tau: float,
    table: ZeroTable,
    T: float,
    L: int,
) -> ExplicitEvaluation:
    """Evaluate the spectral side of M_tau(x) with zero sum to height T and
    residue series to index L.  The error estimate is taken at the height
    the zero sum reaches, min(T, table.max_gamma); an empty table is
    refused.  compare_direct_explicit adds the direct integer-side value.
    """
    _check_positive_x(x, 1.0)
    tau = _check_tau(tau)
    residues = _residues(x, tau, L)
    if not len(table):
        raise DomainError("the zero table is empty")
    if tau == 0.0:
        warnings.warn("Bartz mode: convergence not guaranteed", stacklevel=2)
    zs = zero_sum_term(x, tau, table, T)
    return ExplicitEvaluation(
        x=float(x),
        tau=tau,
        T=float(T),
        L=L,
        zero_sum=zs,
        residue_sum=math.fsum(residues),
        s0_residue=s0_residue(tau),
        error_estimate=error_estimate(x, tau, min(T, table.max_gamma)),
    )


def compare_direct_explicit(
    x_list, tau: float, table: ZeroTable, T: float, L: int
) -> list[dict]:
    """Row-per-x comparison of the integer side and the spectral side, one
    ExplicitEvaluation.row(direct) per x.  The direct values come from
    moebius._riesz_means: one power-sum sieve at integer tau <= 3, else one
    mu stream up to the largest x.
    """
    evs = [explicit_M_tau(float(x), tau, table, T, L) for x in x_list]
    directs = _riesz_means([(ev.x, ev.tau) for ev in evs])
    return [ev.row(direct) for ev, direct in zip(evs, directs)]
