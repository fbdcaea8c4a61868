"""Aggregates over nontrivial zeros and the identities they satisfy.

Everything here consumes a refined zero table (ordinates plus zeta' values)
and produces desk-scale numerics for quantities that are classically written
as infinite sums over zeros:

* ``j_lambda``          -- the derivative-moment sum J_lambda(T).
* ``a_constant``        -- the averaged-Mertens constant A(kappa).
* ``inv_zeta_identity`` -- the zero-sum representation of 1/zeta(s).
* ``zeta_eq_real``      -- the real-axis identity 1/zeta(kappa) = kappa*A(kappa+1).
* ``swmh_ratio``        -- integral of (M(u)/u)^2 against its log x * zero-sum law.
* ``im_constants``      -- limsup/liminf constants for the normalized Mertens integral.
* ``integral_M_explicit`` -- zero-sum reconstruction of int_1^x M(u) u^-kappa du.
* ``hko_prediction``    -- random-matrix moment prediction (Barnes G, Euler product).
* ``divim_sign_changes`` -- oscillation evidence for the normalized integral.

Sum conventions are a classic source of factor-2 and sign bugs, so each
operation documents whether its zero sum runs over positive ordinates only or
over conjugate pairs, and complex pairing is always explicit in the code.
Truncations default to the 649 zeros below height 1000 and 40 trivial-zero
terms; partial sums at intermediate cutoffs are traced in the returned
reports so convergence is visible to callers and tests.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import (
    DomainError,
    NotAscending,
    OutOfRange,
    PoleAtKappaOne,
    PoleAtOne,
    SingularPoint,
    UnsupportedLambda,
)
from .kernel import _EULER_GAMMA, zeta
from .moebius import (
    CheckpointCache,
    _power_antideriv,
    _primes_upto,
    _stream,
    default_cache,
    integral_M,
    weak_mertens_integral,
)
from .zeros import ZeroTable, _zero_sum

__all__ = [
    "DEFAULT_T",
    "DEFAULT_L",
    "DEFAULT_PRIME_CUTOFF",
    "DEFAULT_G_TERMS",
    "REPORT_KINDS",
    "ZeroSumReport",
    "j_lambda",
    "a_constant",
    "a_constant_report",
    "inv_zeta_identity",
    "zeta_eq_real",
    "zeta_eq_real_report",
    "swmh_ratio",
    "swmh_report",
    "im_constants",
    "integral_M_explicit",
    "divim_sign_changes",
    "log_barnes_g",
    "barnes_g",
    "a_lambda",
    "hko_prediction",
    "hko_report",
]

# Default truncations: the table below height 1000 holds exactly 649 zeros,
# and 40 trivial-zero terms put the factorially-decaying tail near 1e-21.
DEFAULT_T = 1000.0
DEFAULT_L = 40
DEFAULT_PRIME_CUTOFF = 10_000
DEFAULT_G_TERMS = 200

# Intermediate cutoffs at which partial sums are recorded in reports.
_TRACE_CUTOFFS = (100.0, 300.0, 600.0)

_TWO_PI = 2.0 * math.pi
_LOG_2PI = math.log(_TWO_PI)

REPORT_KINDS = (
    "J_lambda",
    "A_kappa",
    "inv_zeta",
    "swmh_ratio",
    "im_constants",
    "hko",
)


@dataclass(frozen=True)
class ZeroSumReport:
    """A zero-sum evaluation with its inputs, partial sums, and residual.

    ``partial_trace`` holds (cutoff, partial value) pairs at strictly
    increasing cutoffs, ending at the full truncation height; ``residual``
    is an absolute deviation from an independent target when one exists.
    """

    kind: str
    parameters: dict
    value: complex | float
    partial_trace: tuple = field(default_factory=tuple)
    residual: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in REPORT_KINDS:
            raise DomainError(f"unknown report kind {self.kind!r}")
        cuts = [c for c, _ in self.partial_trace]
        if any(b <= a for a, b in zip(cuts, cuts[1:])):
            raise NotAscending("partial_trace cutoffs must be strictly increasing")
        if self.residual is not None and not self.residual >= 0.0:
            raise DomainError(f"residual must be >= 0, got {self.residual!r}")


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------


def _zeta_real(s: float) -> float:
    """zeta at a real point as a real number (kernel evaluation)."""
    return complex(zeta(float(s))).real


@lru_cache(maxsize=None)
def _trivial_coeff(l: int) -> float:
    """Coefficient 2(-1)^l (2l-2)! (2 pi)^(2l) / ((2l)!)^2 / zeta(2l+1) of the
    l-th trivial-zero term, computed in log space so factorials cannot
    overflow."""
    mag = math.exp(
        math.lgamma(2 * l - 1) + 2 * l * _LOG_2PI - 2.0 * math.lgamma(2 * l + 1)
    )
    sign = 2.0 if l % 2 == 0 else -2.0
    return sign * mag / _zeta_real(2 * l + 1)


def _cutoff_list(T: float, trace_cutoffs: Sequence[float] | None) -> tuple[float, ...]:
    """Ascending trace cutoffs strictly below T, with T appended."""
    base = _TRACE_CUTOFFS if trace_cutoffs is None else tuple(trace_cutoffs)
    below = sorted({float(c) for c in base if 0.0 < float(c) < T})
    return tuple(below) + (float(T),)


def _paired(f: Callable[[complex, complex], complex]):
    """The zero-sum term f(rho, zeta'(rho)) + f(conj(rho), conj(zeta'(rho)))
    of a conjugate pair."""
    return lambda rho, zp: f(rho, zp) + f(rho.conjugate(), zp.conjugate())


# ---------------------------------------------------------------------------
# Derivative moments J_lambda
# ---------------------------------------------------------------------------


def j_lambda(
    table: ZeroTable,
    lam: float,
    T: float = DEFAULT_T,
    trace_cutoffs: Sequence[float] | None = None,
) -> ZeroSumReport:
    """Moment sum J_lambda(T) = sum over 0 < gamma <= T of |zeta'(rho)|^(2 lambda).

    The sum runs over positive ordinates only (the classical normalization;
    conjugate zeros are not double-counted).  lambda = 0 counts zeros exactly.
    A record flagged as a possible multiple zero contributes +inf when
    lambda < 0, matching the convention that negative moments blow up there.

    The report's parameters carry the zero count, the ratio to the growth
    law T (log T)^((lambda+1)^2), and -- for lambda = -1 -- the ratio to the
    sharp coefficient (3/pi^3) T.
    """
    lam = float(lam)
    T = float(T)
    if lam <= -1.5:
        raise DomainError(f"lambda must exceed -3/2, got {lam}")
    cutoffs = _cutoff_list(T, trace_cutoffs)

    if lam == 0.0:
        # counting needs no zeta' values
        value = float(table.count_up_to(T))
        trace = [(c, float(table.count_up_to(c))) for c in cutoffs]
    else:
        value, trace = _zero_sum(
            table,
            T,
            lambda rho, zp: abs(zp) ** (2.0 * lam),
            cutoffs=cutoffs,
            suspect="inf" if lam < 0 else "keep",
        )
    count = table.count_up_to(T)
    params: dict = {"lambda": lam, "T": T, "count": count}
    if T > 1.0:
        params["ratio_to_growth_law"] = value / (
            T * math.log(T) ** ((lam + 1.0) ** 2)
        )
    if lam == -1.0:
        params["ratio_to_sharp_law"] = value / ((3.0 / math.pi**3) * T)
    return ZeroSumReport(
        kind="J_lambda",
        parameters=params,
        value=value,
        partial_trace=tuple(trace),
    )


# ---------------------------------------------------------------------------
# The averaged-Mertens constant A(kappa)
# ---------------------------------------------------------------------------


def _require_a_regular(kappa: float) -> None:
    if kappa == 1.0:
        raise PoleAtKappaOne("A(kappa) has a pole at kappa = 1")
    if kappa < 1.0 and kappa.is_integer() and (1 - int(kappa)) % 2 == 0:
        raise SingularPoint(
            f"A(kappa) is singular at kappa = {kappa}: a trivial-zero term "
            "denominator 2l + kappa - 1 vanishes"
        )


def a_constant_report(
    kappa: float,
    table: ZeroTable,
    T: float = DEFAULT_T,
    L: int = DEFAULT_L,
    trace_cutoffs: Sequence[float] | None = None,
) -> ZeroSumReport:
    """A(kappa) = (10 kappa - 12)/(kappa - 1)
    + kappa * sum_l coeff_l / (2l + kappa - 1)        (trivial zeros, l <= L)
    - kappa * sum_rho 1/(zeta'(rho) rho (rho+1) (rho - kappa + 1)),

    the zero sum running over conjugate pairs (paired explicitly, so the
    result is real up to rounding) truncated at |gamma| <= T.  The report
    traces partial A values at intermediate cutoffs and records the first
    omitted trivial term as ``trivial_tail``.
    """
    kappa = float(kappa)
    T = float(T)
    L = int(L)
    if L < 1:
        raise DomainError(f"L must be >= 1, got {L}")
    _require_a_regular(kappa)
    cutoffs = _cutoff_list(T, trace_cutoffs)

    main = (10.0 * kappa - 12.0) / (kappa - 1.0)
    triv = kappa * math.fsum(
        _trivial_coeff(l) / (2.0 * l + kappa - 1.0) for l in range(1, L + 1)
    )
    tail = abs(kappa * _trivial_coeff(L + 1) / (2.0 * (L + 1) + kappa - 1.0))

    def f(rho: complex, zp: complex) -> complex:
        return 1.0 / (zp * rho * (rho + 1.0) * (rho - kappa + 1.0))

    zsum, ztrace = _zero_sum(table, T, _paired(f), cutoffs=cutoffs)
    value_c = main + triv - kappa * zsum
    imag_rel = abs(zsum.imag) / max(abs(zsum), 1e-300)
    trace = tuple((c, main + triv - kappa * p.real) for c, p in ztrace)
    return ZeroSumReport(
        kind="A_kappa",
        parameters={
            "kappa": kappa,
            "T": T,
            "L": L,
            "trivial_tail": tail,
            "imag_rel": imag_rel,
        },
        value=value_c.real,
        partial_trace=trace,
    )


def a_constant(
    kappa: float,
    table: ZeroTable,
    T: float = DEFAULT_T,
    L: int = DEFAULT_L,
) -> float:
    """The constant A(kappa); see a_constant_report for the formula."""
    return a_constant_report(kappa, table, T, L).value


# ---------------------------------------------------------------------------
# 1/zeta identities
# ---------------------------------------------------------------------------


def _require_identity_regular(sc: complex, table: ZeroTable) -> None:
    """Reject points where 1/zeta (or the identity's own denominators) is
    singular: trivial zeros s = -2l and any tabulated nontrivial zero."""
    if sc.imag == 0.0 and sc.real < 0.0:
        r = sc.real
        if r.is_integer() and int(-r) % 2 == 0:
            raise SingularPoint(f"s = {r:g} is a zero of zeta (trivial)")
    if len(table.gammas) and abs(sc.imag) <= table.max_gamma + 1.0:
        gi = abs(sc.imag)
        idx = int(np.searchsorted(table.gammas, gi))
        for j in (idx - 1, idx):
            if 0 <= j < len(table.gammas):
                rho = complex(0.5, float(table.gammas[j]))
                if min(abs(sc - rho), abs(sc - rho.conjugate())) < 1e-6:
                    raise SingularPoint(
                        f"s = {sc} is (numerically) a nontrivial zero of zeta"
                    )


def inv_zeta_identity(
    s: complex | float,
    table: ZeroTable,
    T: float = DEFAULT_T,
    L: int = DEFAULT_L,
    trace_cutoffs: Sequence[float] | None = None,
) -> ZeroSumReport:
    """Zero-sum representation of the reciprocal zeta function:

    1/zeta(s) = 10s - 2 + s(s+1) sum_l coeff_l / (2l + s)
                        - s(s+1) sum_rho 1/(zeta'(rho) rho (rho+1) (rho - s)),

    evaluated with the trivial-zero series truncated at L and the zero sum
    (conjugate pairs, explicitly paired) truncated at |gamma| <= T.  The
    residual compares against a direct evaluation of 1/zeta(s); at the pole
    s = 1 the target is the limit value 0.  Raises SingularPoint at zeros of
    zeta (where the left side is undefined).
    """
    sc = complex(s)
    real_input = sc.imag == 0.0
    T = float(T)
    L = int(L)
    if L < 1:
        raise DomainError(f"L must be >= 1, got {L}")
    _require_identity_regular(sc, table)
    cutoffs = _cutoff_list(T, trace_cutoffs)

    try:
        target = 1.0 / complex(zeta(sc))
    except PoleAtOne:
        target = 0.0 + 0.0j

    triv = math.fsum(
        (_trivial_coeff(l) / (2.0 * l + sc)).real for l in range(1, L + 1)
    ) + 1j * math.fsum(
        (_trivial_coeff(l) / (2.0 * l + sc)).imag for l in range(1, L + 1)
    )

    def f(rho: complex, zp: complex) -> complex:
        return 1.0 / (zp * rho * (rho + 1.0) * (rho - sc))

    zsum, ztrace = _zero_sum(table, T, _paired(f), cutoffs=cutoffs)
    pref = sc * (sc + 1.0)
    rhs = 10.0 * sc - 2.0 + pref * triv - pref * zsum
    residual = abs(rhs - target)
    imag_rel = abs(rhs.imag) / max(abs(rhs), 1e-300)

    def coerce(v: complex):
        return v.real if real_input else v

    trace = tuple(
        (c, coerce(10.0 * sc - 2.0 + pref * triv - pref * p)) for c, p in ztrace
    )
    params: dict = {
        "s": coerce(sc),
        "T": T,
        "L": L,
        "target": coerce(target),
        "imag_rel": imag_rel,
    }
    return ZeroSumReport(
        kind="inv_zeta",
        parameters=params,
        value=coerce(rhs),
        partial_trace=trace,
        residual=residual,
    )


def zeta_eq_real(
    kappa: float,
    table: ZeroTable,
    T: float = DEFAULT_T,
    L: int = DEFAULT_L,
) -> float:
    """Residual |1/zeta(kappa) - kappa * A(kappa + 1)| of the real-axis
    reciprocal identity, for kappa > 1/2 (limit value 0 at the pole
    kappa = 1)."""
    return zeta_eq_real_report(kappa, table, T, L).residual


def zeta_eq_real_report(
    kappa: float,
    table: ZeroTable,
    T: float = DEFAULT_T,
    L: int = DEFAULT_L,
    trace_cutoffs: Sequence[float] | None = None,
) -> ZeroSumReport:
    """Report form of zeta_eq_real: value kappa*A(kappa+1), target 1/zeta(kappa),
    partial trace of the identity's right side at the zero-sum cutoffs."""
    kappa = float(kappa)
    if kappa <= 0.5:
        raise DomainError(f"kappa must exceed 1/2, got {kappa}")
    try:
        target = 1.0 / _zeta_real(kappa)
    except PoleAtOne:
        target = 0.0
    a_rep = a_constant_report(kappa + 1.0, table, T, L, trace_cutoffs)
    value = kappa * a_rep.value
    trace = tuple((c, kappa * p) for c, p in a_rep.partial_trace)
    return ZeroSumReport(
        kind="A_kappa",
        parameters={
            "identity": "1/zeta(kappa) = kappa*A(kappa+1)",
            "kappa": kappa,
            "T": float(T),
            "L": int(L),
            "target": target,
            "imag_rel": a_rep.parameters["imag_rel"],
        },
        value=value,
        partial_trace=trace,
        residual=abs(target - value),
    )


# ---------------------------------------------------------------------------
# Quadratic-mean law for M(u)/u
# ---------------------------------------------------------------------------


def swmh_ratio(
    x: float,
    table: ZeroTable,
    T: float = DEFAULT_T,
    cache: CheckpointCache | None = None,
) -> float:
    """Ratio of int_1^x (M(u)/u)^2 du to its predicted law
    log x * sum over zeros of 1/|rho zeta'(rho)|^2.

    The denominator's sum runs over **all** zeros (conjugates counted, i.e.
    twice the positive-ordinate sum) truncated at 0 < gamma < T; the
    positive-only convention is available from swmh_report.  An empty table
    makes the denominator zero and raises ZeroDivisionError (the contract:
    there is no law to compare against).
    """
    return swmh_report(x, table, T, cache).value


def swmh_report(
    x: float,
    table: ZeroTable,
    T: float = DEFAULT_T,
    cache: CheckpointCache | None = None,
) -> ZeroSumReport:
    """Report form of swmh_ratio, carrying both sum conventions and the
    partial denominator sums at intermediate cutoffs."""
    x = float(x)
    T = float(T)
    if x < 10.0:
        raise DomainError(f"x must be >= 10, got {x}")
    cutoffs = _cutoff_list(T, None)

    half, trace = _zero_sum(
        table, T, lambda rho, zp: 1.0 / abs(rho * zp) ** 2, inclusive=False, cutoffs=cutoffs
    )
    full = 2.0 * half
    wm = weak_mertens_integral(x, cache)
    ratio = wm / (math.log(x) * full)
    return ZeroSumReport(
        kind="swmh_ratio",
        parameters={
            "x": x,
            "T": T,
            "convention": "all zeros (conjugate pairs counted)",
            "wm_integral": wm,
            "zero_sum_all": full,
            "zero_sum_positive_only": half,
            "ratio_positive_only": wm / (math.log(x) * half),
        },
        value=ratio,
        partial_trace=tuple(trace),
    )


# ---------------------------------------------------------------------------
# limsup/liminf constants for the normalized Mertens integral
# ---------------------------------------------------------------------------


def im_constants(
    kappa: float,
    table: ZeroTable,
    T: float = DEFAULT_T,
    tail_cutoffs: Sequence[float] = _TRACE_CUTOFFS,
) -> ZeroSumReport:
    """Constants in the oscillation bounds for x^(kappa-3/2) int_1^x M(u)u^-kappa du
    (kappa <= 3/2):

        limsup >= c + (1/2) sum_rho 1/|rho (rho - kappa + 1) zeta'(rho)|,
        liminf <= c - (1/2) sum_rho ...,

    where the sum runs over all zeros (so the half-sum over positive
    ordinates realizes the (1/2) factor) and c = 2/zeta(1/2) appears only at
    kappa = 3/2.  The report's value is the limsup lower bound; parameters
    carry the half/full sums, the convergent companion sum
    sum 1/|rho zeta'(rho)|^2 with its partial sums as the trace, and tail
    proxies (sum beyond T') times T' for the reciprocal-height decay check.
    """
    kappa = float(kappa)
    T = float(T)
    if kappa > 1.5:
        raise DomainError(f"kappa must be <= 3/2, got {kappa}")
    cutoffs = _cutoff_list(T, tail_cutoffs)
    const = 2.0 / _zeta_real(0.5) if kappa == 1.5 else 0.0

    # a multiple zero sends every one of these sums to +inf
    half_sum, _ = _zero_sum(
        table, T, lambda rho, zp: 1.0 / abs(rho * (rho - kappa + 1.0) * zp), suspect="inf"
    )
    wm_sum, wm_trace = _zero_sum(
        table, T, lambda rho, zp: 1.0 / abs(rho * zp) ** 2, cutoffs=cutoffs, suspect="inf"
    )
    tails = (
        {c: wm_sum - partial for c, partial in wm_trace if c < T}
        if math.isfinite(wm_sum)
        else {}
    )
    return ZeroSumReport(
        kind="im_constants",
        parameters={
            "kappa": kappa,
            "T": T,
            "constant_term": const,
            "half_sum": half_sum,
            "full_sum": 2.0 * half_sum,
            "limsup_lower": const + half_sum,
            "liminf_upper": const - half_sum,
            "wm_sum": wm_sum,
            "tail_times_cutoff": {c: t * c for c, t in tails.items()},
        },
        value=const + half_sum,
        partial_trace=tuple(wm_trace),
    )


# ---------------------------------------------------------------------------
# Zero-sum reconstruction of the weighted Mertens integral
# ---------------------------------------------------------------------------


def integral_M_explicit(
    x: float,
    kappa: float,
    table: ZeroTable,
    T: float = DEFAULT_T,
    L: int = DEFAULT_L,
    cache: CheckpointCache | None = None,
) -> dict:
    """Compare int_1^x M(u) u^-kappa du against its zero-sum main term

        x^(3/2-kappa) * sum_rho x^(i gamma) / (zeta'(rho) rho (rho + 1 - kappa)),

    paired over conjugate ordinates, plus the constant A(kappa) when
    kappa > 1 (for kappa <= 1 the non-oscillating remainder grows like
    x^(1-kappa) -- log x at kappa = 1 -- and is reported, not subtracted).

    Returns a row dict with the direct integral, the reconstruction, their
    absolute difference, the difference scaled by the remainder term, and
    the direct value normalized by x^(3/2-kappa) (the boundedness check).
    """
    x = float(x)
    kappa = float(kappa)
    if x < 1.0:
        raise DomainError(f"x must be >= 1, got {x}")
    ln_x = math.log(x)

    zsum, _ = _zero_sum(
        table,
        T,
        lambda rho, zp: 2.0
        * (cmath.exp(1j * (rho.imag * ln_x)) / (zp * rho * (rho + 1.0 - kappa))).real,
    )
    zero_term = x ** (1.5 - kappa) * zsum

    constant_term = a_constant(kappa, table, T, L) if kappa > 1.0 else 0.0
    explicit = zero_term + constant_term
    direct = integral_M(x, kappa, cache)
    residual = abs(direct - explicit)
    remainder_scale = ln_x if kappa == 1.0 else x ** (1.0 - kappa)
    return {
        "x": x,
        "kappa": kappa,
        "T": float(T),
        "L": int(L),
        "direct": direct,
        "zero_term": zero_term,
        "constant_term": constant_term,
        "explicit": explicit,
        "residual": residual,
        "remainder_scale": remainder_scale,
        "residual_over_remainder": (
            residual / remainder_scale if remainder_scale > 0.0 else None
        ),
        "normalized_direct": abs(direct) / x ** (1.5 - kappa),
    }


# ---------------------------------------------------------------------------
# Sign-change scan for the normalized integral (oscillation evidence)
# ---------------------------------------------------------------------------


def divim_sign_changes(
    x_max: float,
    kappa: float = 1.5,
    cache: CheckpointCache | None = None,
) -> list[float]:
    """Crossing points of D(x) = int_1^x M(u) u^-kappa du - c in [1, x_max],
    where c = 2/zeta(1/2) at kappa = 3/2 and 0 otherwise.

    D is continuous and piecewise monotone (M is constant between integers),
    so every crossing lies inside an interval whose endpoint values straddle
    zero and is located there in closed form.  A non-empty list is evidence
    of the two-sided oscillation of the normalized integral; the theory makes
    that claim only asymptotically, so this scan is reported as evidence, not
    verification.
    """
    x_max = float(x_max)
    if x_max < 1.0:
        raise DomainError(f"x_max must be >= 1, got {x_max}")
    kappa = float(kappa)
    cache = cache or default_cache()
    c = 2.0 / _zeta_real(0.5) if kappa == 1.5 else 0.0

    crossings: list[float] = []
    i_lo, f_prev = 0.0, 0.0 - c
    for n0, mu, m_vals, _ in _stream(int(math.floor(x_max)), cache):
        ns = np.arange(n0, n0 + len(mu), dtype=np.float64)
        deltas = _power_antideriv(np.minimum(ns + 1.0, x_max), kappa)
        deltas -= _power_antideriv(ns, kappa)
        i_ends = i_lo + np.cumsum(m_vals * deltas)
        f_ends = i_ends - c
        f_starts = np.empty_like(f_ends)
        f_starts[0] = f_prev
        f_starts[1:] = f_ends[:-1]
        for j in np.nonzero((f_starts < 0.0) != (f_ends < 0.0))[0]:
            # Solve I(n) + m*(P(x) - P(n)) = c for x in (n, n+1], P = antiderivative,
            # I(n) = f_starts[j] + c.
            p_n = float(_power_antideriv(ns[j : j + 1], kappa)[0])
            v = p_n + (c - float(f_starts[j] + c)) / float(m_vals[j])
            if kappa == 1.0:
                crossings.append(math.exp(v))
            else:
                crossings.append(float(((1.0 - kappa) * v) ** (1.0 / (1.0 - kappa))))
        i_lo, f_prev = float(i_ends[-1]), float(f_ends[-1])
    return crossings


# ---------------------------------------------------------------------------
# Barnes G and the moment prediction
# ---------------------------------------------------------------------------

_BARNES_SERIES_TERMS = 80


@lru_cache(maxsize=None)
def _zeta_real_cached(k: int) -> float:
    return _zeta_real(float(k))


def log_barnes_g(z: float) -> float:
    """log G(z) for real z > 0, where G is the double-gamma function with
    G(1) = 1 and G(z+1) = Gamma(z) G(z).

    The argument is reduced by the recurrence to 1 + w with |w| <= 1/2 and
    the product expansion's log series is summed there:
    log G(1+w) = (w/2) log 2 pi - (w(w+1) + gamma w^2)/2
                 + sum_{k>=3} (-1)^(k-1) zeta(k-1) w^k / k.
    """
    z = float(z)
    if z <= 0.0:
        raise DomainError(f"log_barnes_g requires z > 0, got {z}")
    acc = 0.0
    t = z - 1.0
    while t > 0.5:
        t -= 1.0
        acc += math.lgamma(1.0 + t)
    while t < -0.5:
        acc -= math.lgamma(1.0 + t)
        t += 1.0
    w = t
    terms = []
    wk = w * w
    for k in range(3, _BARNES_SERIES_TERMS + 1):
        wk *= w
        term = _zeta_real_cached(k - 1) * wk / k
        terms.append(term if k % 2 == 1 else -term)
    series = (
        0.5 * w * _LOG_2PI
        - 0.5 * (w * (w + 1.0) + _EULER_GAMMA * w * w)
        + math.fsum(terms)
    )
    return acc + series


def barnes_g(z: float) -> float:
    """The double-gamma function G(z) for real z > 0."""
    return math.exp(log_barnes_g(z))


def a_lambda(
    lam: float,
    prime_cutoff: int = DEFAULT_PRIME_CUTOFF,
    g_terms: int = DEFAULT_G_TERMS,
) -> float:
    """Arithmetic factor of the moment prediction:

        a_lambda = prod_p (1 - 1/p)^(lambda^2)
                   * sum_{m>=0} (binom-type coeff_m(lambda))^2 p^-m,

    with coeff_m = Gamma(m+lambda)/(m! Gamma(lambda)) realized through the
    square of the Pochhammer recurrence c_{m+1} = c_m ((lambda+m)/(m+1))^2,
    which also gives the degenerate lambda in {-1, 0} limits (only finitely
    many m survive; a_{-1} = 6/pi^2, a_0 = a_1 = 1).  The Euler product is
    truncated at prime_cutoff and the m-series at g_terms.

    Supported exponents: lambda in {-1, -1/2} union [0, inf); other values
    above -3/2 raise UnsupportedLambda (the coefficient interpretation is
    pinned only at those points), below raise DomainError.
    """
    lam = float(lam)
    if lam <= -1.5:
        raise DomainError(f"lambda must exceed -3/2, got {lam}")
    if not (lam == -1.0 or lam == -0.5 or lam >= 0.0):
        raise UnsupportedLambda(
            f"lambda = {lam} is outside the supported set {{-1, -1/2}} u [0, inf)"
        )
    prime_cutoff = int(prime_cutoff)
    g_terms = int(g_terms)
    if prime_cutoff < 2:
        raise DomainError(f"prime_cutoff must be >= 2, got {prime_cutoff}")
    if g_terms < 2:
        raise DomainError(f"g_terms must be >= 2, got {g_terms}")
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


def hko_prediction(
    lam: float,
    T: float,
    prime_cutoff: int = DEFAULT_PRIME_CUTOFF,
    g_terms: int = DEFAULT_G_TERMS,
) -> float:
    """Random-matrix prediction for the derivative moments:

        (G^2(lambda+2) / G(2 lambda + 3)) * a_lambda
            * (T / 2 pi) * (log(T / 2 pi))^((lambda+1)^2).

    Reduces to (T/2pi) log(T/2pi) at lambda = 0 and to (3/pi^3) T at
    lambda = -1 (up to the truncated Euler product).  T must exceed 2 pi so
    the log factor is positive.
    """
    return hko_report(lam, T, None, prime_cutoff, g_terms).value


def hko_report(
    lam: float,
    T: float,
    table: ZeroTable | None = None,
    prime_cutoff: int = DEFAULT_PRIME_CUTOFF,
    g_terms: int = DEFAULT_G_TERMS,
) -> ZeroSumReport:
    """Report form of hko_prediction; when a refined table is supplied the
    measured moment J_lambda(T) and its ratio to the prediction are included."""
    lam = float(lam)
    T = float(T)
    arith = a_lambda(lam, prime_cutoff, g_terms)
    if T <= _TWO_PI:
        raise OutOfRange(f"T must exceed 2*pi, got {T}")
    g_factor = math.exp(2.0 * log_barnes_g(lam + 2.0) - log_barnes_g(2.0 * lam + 3.0))
    u = T / _TWO_PI
    value = g_factor * arith * u * math.log(u) ** ((lam + 1.0) ** 2)
    params: dict = {
        "lambda": lam,
        "T": T,
        "prime_cutoff": int(prime_cutoff),
        "g_terms": int(g_terms),
        "a_lambda": arith,
        "barnes_factor": g_factor,
    }
    residual = None
    if table is not None:
        measured = j_lambda(table, lam, min(T, table.max_gamma)).value
        params["j_lambda"] = measured
        params["ratio_measured_to_predicted"] = measured / value
        residual = abs(measured - value)
    return ZeroSumReport(
        kind="hko",
        parameters=params,
        value=value,
        partial_trace=(),
        residual=residual,
    )
