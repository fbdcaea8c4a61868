"""Aggregates over nontrivial zeros and the identities they satisfy.

Everything here consumes a refined zero table (ordinates plus zeta' values)
and produces desk-scale numerics for quantities that are classically written
as infinite sums over zeros:

* ``j_lambda``            -- the derivative-moment sum J_lambda(T).
* ``inv_zeta_identity``   -- the zero-sum representation of 1/zeta(s).
* ``a_constant_report``   -- the averaged-Mertens constant A(kappa).
* ``zeta_eq_real_report`` -- the real-axis identity 1/zeta(kappa) = kappa*A(kappa+1).
* ``swmh_report``         -- integral of (M(u)/u)^2 against its log x * zero-sum law.
* ``im_constants``        -- limsup/liminf constants for the normalized Mertens integral.
* ``integral_M_explicit`` -- residue reconstruction of int_1^x M(u) u^-kappa du.
* ``hko_report``          -- random-matrix moment prediction (Barnes G, Euler product).

Each quantity has one function; its value is the report's ``value`` (or,
for the real-axis identity, its ``residual``).

Sum conventions are a classic source of factor-2 and sign bugs, so each
operation documents whether its zero sum runs over positive ordinates only or
over conjugate pairs, and complex pairing is always explicit in the code.
``inv_zeta_identity``, ``a_constant_report`` and ``zeta_eq_real_report`` are
one identity, 1/zeta(s) = s A(s+1), so one private core (``_reciprocal_zeta``)
computes its right side: ``inv_zeta_identity`` reads it at s,
``a_constant_report`` at s = kappa - 1 divided by kappa - 1, and
``zeta_eq_real_report`` is ``inv_zeta_identity`` at s = kappa.
Truncations default to the 649 zeros below height 1000 and 40 trivial-zero
terms; the identity reports take 1 <= L <= 119: each trivial term reads the
pole of 1/zeta at s = -2l (kernel._inv_zeta_at, l <= 120), the tail l = L + 1.
Partial sums at intermediate cutoffs are traced in the returned reports so
convergence is visible to callers and tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

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
from .kernel import (
    TRIVIAL_ZERO_MAX_N,
    _EULER_GAMMA,
    _check_count,
    _check_finite,
    _exact_sum,
    _inv_zeta_at,
    _require_finite,
    _residue,
    zeta,
)
from .moebius import _check_x, _primes_upto, integral_M, weak_mertens_integral
from .zeros import ZeroTable, _zero_sum

__all__ = [
    "DEFAULT_T",
    "DEFAULT_L",
    "DEFAULT_PRIME_CUTOFF",
    "DEFAULT_G_TERMS",
    "REPORT_KINDS",
    "ZeroSumReport",
    "j_lambda",
    "a_constant_report",
    "inv_zeta_identity",
    "zeta_eq_real_report",
    "swmh_report",
    "im_constants",
    "integral_M_explicit",
    "log_barnes_g",
    "a_lambda",
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


def _cutoff_list(T: float) -> tuple[float, ...]:
    """The trace cutoffs strictly below T, with T appended."""
    return tuple(c for c in _TRACE_CUTOFFS if c < T) + (float(T),)


def _check_lambda(lam) -> float:
    """float(lam), refusing lambda <= -3/2, nan and inf with DomainError."""
    lam = float(lam)
    if not lam > -1.5:
        raise DomainError(f"lambda must exceed -3/2, got {lam}")
    return _check_finite(lam, "lambda")


# ---------------------------------------------------------------------------
# Derivative moments J_lambda
# ---------------------------------------------------------------------------


def j_lambda(
    table: ZeroTable,
    lam: float,
    T: float = DEFAULT_T,
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
    lam = _check_lambda(lam)
    T = float(T)
    cutoffs = _cutoff_list(T)

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
# 1/zeta(s) = s A(s+1): one identity, read at s and at s = kappa - 1
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


def _trivial_term(l: int, sc: complex) -> complex:
    """1/(zeta'(-2l) 2l (2l-1) (2l + s)), the identity's l-th trivial-zero
    term: the residue of 1/zeta at s = -2l (kernel._inv_zeta_at, l <= 120,
    read by kernel._residue) times the complex value at s = -2l of the rest."""
    w = 2 * l
    return _residue(_inv_zeta_at(-w)) * (1.0 / (w * (w - 1) * (w + sc)))


def _reciprocal_zeta(sc: complex, table: ZeroTable, T: float, L: int):
    """Right side of the zero-sum identity for the reciprocal zeta function,

    1/zeta(s) = 10s - 2 + s(s+1) sum_l 1/(zeta'(-2l) 2l (2l-1) (2l + s))
                        - s(s+1) sum_rho 1/(zeta'(rho) rho (rho+1) (rho - s)),

    with the trivial-zero series truncated at l <= L and the zero sum
    (conjugate pairs, explicitly paired) at |gamma| <= T.  Returns the
    complex value, its partial values at the trace cutoffs, and the zero sum.
    Raises DomainError for an L that is not an integer >= 1 or a non-finite
    s, OutOfRange for L > 119 (a_constant_report's tail reads l = L + 1),
    SingularPoint at zeros of zeta, and PrecisionLoss when the right side
    overflows (s(s+1) does past |s| of about 1.3e154).
    """
    _check_count(L, "L", 1, TRIVIAL_ZERO_MAX_N - 1)
    _check_finite(sc, "s")
    _require_identity_regular(sc, table)
    terms = [_trivial_term(l, sc) for l in range(1, L + 1)]
    triv = math.fsum(w.real for w in terms) + 1j * math.fsum(w.imag for w in terms)

    def f(rho, zp):
        return 1.0 / (zp * rho * (rho + 1.0) * (rho - sc))

    def pair(rho, zp):
        return f(rho, zp) + f(rho.conjugate(), zp.conjugate())

    zsum, ztrace = _zero_sum(table, T, pair, cutoffs=_cutoff_list(T))
    pref = sc * (sc + 1.0)
    head = 10.0 * sc - 2.0 + pref * triv
    rhs = _require_finite(head - pref * zsum, "the reciprocal-zeta identity")
    return rhs, tuple((c, head - pref * p) for c, p in ztrace), zsum


def inv_zeta_identity(
    s: complex | float,
    table: ZeroTable,
    T: float = DEFAULT_T,
    L: int = DEFAULT_L,
) -> ZeroSumReport:
    """Zero-sum representation of the reciprocal zeta function 1/zeta(s)
    (formula and truncations in _reciprocal_zeta).  A real s gives real
    values.  The residual compares against a direct evaluation of 1/zeta(s);
    at the pole s = 1 the target is the limit value 0.  Raises SingularPoint
    at zeros of zeta (where the left side is undefined).

    Usable range: the right side carries the zero sum's truncation error
    times s(s+1), which grows with |s|, toward 3.2e-4 |s| at T = 1000.
    Against 1/zeta(s) of about 1, the value reads 1.0001 at s = 100, 1.068
    at s = 1e3 and 3.71 at s = 1e4.  Nothing is raised; only the residual
    shows it.
    """
    sc = complex(s)
    real_input = sc.imag == 0.0
    rhs, ztrace, _ = _reciprocal_zeta(sc, table, T, L)
    try:
        target = 1.0 / complex(zeta(sc))
    except PoleAtOne:
        target = 0.0 + 0.0j

    def coerce(v: complex):
        return v.real if real_input else v

    return ZeroSumReport(
        kind="inv_zeta",
        parameters={
            "s": coerce(sc),
            "T": float(T),
            "L": L,
            "target": coerce(target),
            "imag_rel": abs(rhs.imag) / max(abs(rhs), 1e-300),
        },
        value=coerce(rhs),
        partial_trace=tuple((c, coerce(p)) for c, p in ztrace),
        residual=abs(rhs - target),
    )


def a_constant_report(
    kappa: float,
    table: ZeroTable,
    T: float = DEFAULT_T,
    L: int = DEFAULT_L,
) -> ZeroSumReport:
    """The constant A(kappa) = 1/((kappa - 1) zeta(kappa - 1)), read from the
    reciprocal-zeta identity at s = kappa - 1 (see _reciprocal_zeta) and
    divided by kappa - 1:

    A(kappa) = (10 kappa - 12)/(kappa - 1)
               + kappa * sum_l coeff_l / (2l + kappa - 1)        (l <= L)
               - kappa * sum_rho 1/(zeta'(rho) rho (rho+1) (rho - kappa + 1)).

    It has a pole at kappa = 1 (PoleAtKappaOne) and is singular where
    kappa - 1 is a trivial zero, kappa = -1, -3, ... (SingularPoint).  The
    report traces partial A values at intermediate cutoffs and records the
    first omitted trivial term as ``trivial_tail``.
    """
    kappa = float(kappa)
    s = kappa - 1.0
    try:
        value, ztrace, zsum = _reciprocal_zeta(complex(s), table, T, L)
    except SingularPoint as exc:
        raise SingularPoint(f"A(kappa) is singular at kappa = {kappa}: {exc}") from exc
    if s == 0.0:  # checked after the core so that an invalid L is reported first
        raise PoleAtKappaOne("A(kappa) has a pole at kappa = 1")
    return ZeroSumReport(
        kind="A_kappa",
        parameters={
            "kappa": kappa,
            "T": float(T),
            "L": L,
            "trivial_tail": abs(kappa * _trivial_term(L + 1, complex(s))),
            "imag_rel": abs(zsum.imag) / max(abs(zsum), 1e-300),
        },
        value=value.real / s,
        partial_trace=tuple((c, p.real / s) for c, p in ztrace),
    )


def zeta_eq_real_report(
    kappa: float,
    table: ZeroTable,
    T: float = DEFAULT_T,
    L: int = DEFAULT_L,
) -> ZeroSumReport:
    """The real-axis reciprocal identity 1/zeta(kappa) = kappa*A(kappa+1), for
    kappa > 1/2: the right side of the reciprocal-zeta identity at s = kappa,
    which is kappa*A(kappa+1) term by term, against the target 1/zeta(kappa)
    (limit value 0 at the pole kappa = 1), with its partial trace at the
    zero-sum cutoffs.  The residual |1/zeta(kappa) - kappa*A(kappa+1)| is the
    identity's check.  Value, trace, target, residual and imag_rel are those
    of inv_zeta_identity(kappa); the kind is A_kappa.  So is the usable
    range: the residual grows with kappa (1e-4 at kappa = 100, 0.068 at 1e3,
    2.7 at 1e4 for T = 1000), and nothing is raised."""
    kappa = float(kappa)
    if not kappa > 0.5:
        raise DomainError(f"kappa must exceed 1/2, got {kappa}")
    report = inv_zeta_identity(kappa, table, T, L)
    rest = {k: v for k, v in report.parameters.items() if k != "s"}
    return replace(
        report,
        kind="A_kappa",
        parameters={"identity": "1/zeta(kappa) = kappa*A(kappa+1)", "kappa": kappa, **rest},
    )


# ---------------------------------------------------------------------------
# Quadratic-mean law for M(u)/u
# ---------------------------------------------------------------------------


def swmh_report(x: float, table: ZeroTable, T: float = DEFAULT_T) -> ZeroSumReport:
    """Ratio of int_1^x (M(u)/u)^2 du to its predicted law
    log x * sum over zeros of 1/|rho zeta'(rho)|^2.

    The value's denominator sums over **all** zeros (conjugates counted, i.e.
    twice the positive-ordinate sum) truncated at 0 < gamma < T; the
    parameters carry the positive-only convention too, and the trace holds
    the partial positive-ordinate sums at intermediate cutoffs.  An empty
    table makes the denominator zero and raises ZeroDivisionError (the
    contract: there is no law to compare against).
    """
    x = float(x)
    T = float(T)
    _check_x(x, 10.0)
    cutoffs = _cutoff_list(T)

    half, trace = _zero_sum(
        table, T, lambda rho, zp: 1.0 / abs(rho * zp) ** 2, inclusive=False, cutoffs=cutoffs
    )
    full = 2.0 * half
    wm = weak_mertens_integral(x)
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
    if not kappa <= 1.5:
        raise DomainError(f"kappa must be <= 3/2, got {kappa}")
    _check_finite(kappa, "kappa")
    cutoffs = _cutoff_list(T)
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
    x: float, kappa: float, table: ZeroTable, T: float = DEFAULT_T, L: int = DEFAULT_L
) -> dict:
    """Compare int_1^x M(u) u^-kappa du against the residues of
    x^(s+1-kappa) / (s (s+1-kappa) zeta(s)).  The zeros give

        x^(3/2-kappa) * sum_rho x^(i gamma) / (zeta'(rho) rho (rho + 1 - kappa)),

    paired over conjugate ordinates.  For kappa > 1, kernel._residue adds
    the constant A(kappa) = 1/((kappa - 1) zeta(kappa - 1)) at s = kappa - 1,
    0 at kappa = 2, and the trivial zeros s = -2n, n <= L.  The residue at
    s = 0, 2 x^(1-kappa)/(kappa - 1), is reported, not subtracted:
    remainder_scale is x^(1-kappa), log x at kappa = 1.  For kappa <= 1 only
    the zeros are subtracted, because the other poles pair up there: s = 0
    with s = kappa - 1 as kappa -> 1, and s = kappa - 1 with s = -2n as
    kappa -> 1 - 2n.

    Returns a row dict with the direct integral, the reconstruction, their
    absolute difference, the difference scaled by the remainder term, and
    the direct value normalized by x^(3/2-kappa) (the boundedness check).
    """
    x = float(x)
    _check_x(x)
    kappa = _check_finite(float(kappa), "kappa")
    _check_count(L, "L", 1, TRIVIAL_ZERO_MAX_N)
    ln_x = math.log(x)

    zsum, _ = _zero_sum(
        table,
        T,
        lambda rho, zp: 2.0
        * (np.exp(1j * (rho.imag * ln_x)) / (zp * rho * (rho + 1.0 - kappa))).real,
    )
    zero_term = x ** (1.5 - kappa) * zsum
    constant_term = trivial = 0.0
    if kappa > 1.0:
        # s = kappa - 1: the simple pole of 1/(s + 1 - kappa), times 1/s = 1/(kappa - 1)
        # and 1/zeta (0 at kappa = 2, where 1/zeta has its simple zero s = 1)
        constant_term = _residue((1, 1.0 / (kappa - 1.0), None), _inv_zeta_at(kappa - 1.0))
        # s = -2n: the simple pole of 1/zeta, times x^d / (s d), d = s + 1 - kappa
        residues = []
        for n in range(1, L + 1):
            d = 1.0 - 2.0 * n - kappa
            residues.append(_residue((0, x**d / (-2.0 * n * d), None), _inv_zeta_at(-2 * n)))
        trivial = math.fsum(residues)
    explicit = zero_term + constant_term + trivial
    direct = integral_M(x, kappa)
    residual = abs(direct - explicit)
    remainder_scale = ln_x if kappa == 1.0 else x ** (1.0 - kappa)
    return {
        "x": x,
        "kappa": kappa,
        "T": float(T),
        "L": L,
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
    if not z > 0.0:
        raise DomainError(f"log_barnes_g requires z > 0, got {z}")
    _check_finite(z, "z")
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
    lam = _check_lambda(lam)
    if not (lam == -1.0 or lam == -0.5 or lam >= 0.0):
        raise UnsupportedLambda(
            f"lambda = {lam} is outside the supported set {{-1, -1/2}} u [0, inf)"
        )
    _check_count(prime_cutoff, "prime_cutoff", 2)
    _check_count(g_terms, "g_terms", 2)
    # The m-series of every prime at once: a prime leaves the arrays once
    # its own term falls below 1e-20 of its sum (m > 1), and its sum is kept.
    pinv = 1.0 / _primes_upto(prime_cutoff)
    inners = np.empty_like(pinv)
    left = np.arange(len(pinv))
    p_left, pm, inner = pinv, np.ones_like(pinv), np.zeros_like(pinv)
    c = 1.0
    with np.errstate(all="ignore"):
        for m in range(g_terms + 1):
            term = c * pm
            inner = inner + term
            done = term < 1e-20 * inner
            if m > 1 and done.any():
                inners[left[done]] = inner[done]
                keep = ~done
                left, p_left, pm, inner = left[keep], p_left[keep], pm[keep], inner[keep]
                if not len(left):
                    break
            c *= ((lam + m) / (m + 1.0)) ** 2
            pm = pm * p_left
    inners[left] = inner
    # math's logs, not numpy's, which differ in the last bit at some lambda
    logs = lam * lam * np.array(list(map(math.log1p, (-pinv).tolist())))
    logs += np.array(list(map(math.log, inners.tolist())))
    return math.exp(_exact_sum(logs))


def hko_report(
    lam: float,
    T: float,
    table: ZeroTable | None = None,
    prime_cutoff: int = DEFAULT_PRIME_CUTOFF,
    g_terms: int = DEFAULT_G_TERMS,
) -> ZeroSumReport:
    """Random-matrix prediction for the derivative moments:

        (G^2(lambda+2) / G(2 lambda + 3)) * a_lambda
            * (T / 2 pi) * (log(T / 2 pi))^((lambda+1)^2).

    Reduces to (T/2pi) log(T/2pi) at lambda = 0 and to (3/pi^3) T at
    lambda = -1 (up to the truncated Euler product).  T, checked first, must
    exceed 2 pi so the log factor is positive (OutOfRange) and be finite (DomainError).
    The prediction is the report's value; when a refined table is supplied,
    the measured moment J_lambda(min(T, table height)) and its ratio to the
    prediction are included, and the residual is their absolute difference.
    """
    lam = float(lam)
    T = float(T)
    if not T > _TWO_PI:
        raise OutOfRange(f"T must exceed 2*pi, got {T}")
    _check_finite(T, "T")
    arith = a_lambda(lam, prime_cutoff, g_terms)
    g_factor = math.exp(2.0 * log_barnes_g(lam + 2.0) - log_barnes_g(2.0 * lam + 3.0))
    u = T / _TWO_PI
    value = g_factor * arith * u * math.log(u) ** ((lam + 1.0) ** 2)
    params: dict = {
        "lambda": lam,
        "T": T,
        "prime_cutoff": prime_cutoff,
        "g_terms": g_terms,
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
