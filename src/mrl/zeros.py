"""Tables of nontrivial zeta zeros: finding, refining, verifying, persisting.

A zero table holds, for each zero rho = 1/2 + i*gamma on the critical line,
the ordinate gamma, the derivative zeta'(rho) needed by explicit-formula
sums, the significand width at which the ordinate was last Newton-polished,
and a suspect flag set when |zeta'(rho)| is so small that a multiple zero (or
an unrefined record) must be assumed.  The table stores these as columns;
every sum over zeros in the package goes through ``_zero_sum`` here, which
hands its term function whole columns and rounds each sum correctly.

Zeros are located by sign changes of the real function

    Z(t) = exp(i theta(t)) zeta(1/2 + i t),
    theta(t) = Im log Gamma(1/4 + i t/2) - (t/2) log pi

on a uniform grid, then polished in doubles by the Newton step
t <- t - Re[zeta / (i zeta')] at s = 1/2 + i t.  From t = 200 on, the grid
signs come from the Riemann-Siegel formula with Gabcke's C0..C4 terms
(_riemann_siegel_z), whose error bound 0.017 t^(-11/4) makes them certain,
and from t = 5040 on a bracket between two certain signs seeds Newton at the
zero of that formula (_riemann_siegel_roots), a few ulps from the ordinate.
hardy_z (Euler-Maclaurin zeta) serves the points below t = 200 and the
points whose Riemann-Siegel value is inside the bound; any other bracket is
seeded at the regula-falsi point of hardy_z at both ends.  The kernel's zeta
is good to about 1e-15 at every height, so the polish lands within an ulp of
the zero (_newton_polish).  The Newton basin is about +/- one grid step
around each ordinate; seeds farther out may converge to a neighbor (refuse
via NoConvergence when the polished value leaves the bracket).  Extended
precision adds one Newton step on mpmath's zeta to the double result and
evaluates zeta once more there; zeta' comes from those two values, with
zeta'' from differences of the double kernel, or from mpmath where that
misses its error budget (refine_zero).

Binary persistence: magic ZTBL0001, then a u64 record count, then
little-endian (gamma: f64, Re zeta': f64, Im zeta': f64, refined_bits: i64)
records in strictly ascending gamma.  The packaged ordinates also ship in
this format, refined at double precision (_load_refined_builtin).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from .errors import (
    DomainError,
    MissingZeros,
    MultipleZeroFlag,
    NoConvergence,
    NotAscending,
    OutOfRange,
    ParseError,
)
from .kernel import DOUBLE, IM_MAX, Precision, _exact_sum, log_gamma, zeta, zeta_and_deriv
from .moebius import _write_atomic

__all__ = [
    "GRID_STEP",
    "SUSPECT_DERIV_FLOOR",
    "ZeroRecord",
    "ZeroTable",
    "VerifyReport",
    "riemann_siegel_theta",
    "hardy_z",
    "import_zeros",
    "builtin_zeros_path",
    "load_builtin",
    "refine_zero",
    "refine_table",
    "find_zeros",
    "verify_count",
    "count_main_term",
]

# Default grid spacing for sign-change scans; also the documented Newton basin.
GRID_STEP = 0.05

_NEWTON_MAX_ITER = 50

# Gabcke (1979): from t = 200 on, the Riemann-Siegel formula with its C0..C4
# terms is within 0.017 t^(-11/4) of Z(t).
_RS_MIN_T = 200.0
_RS_C4_ERROR = 0.017
# From about t = 5040 on, that bound is below 2^-52 t, so where |Z'| >= 1 the
# zero of the formula is within an ulp of the ordinate: find_zeros seeds
# Newton there, and one evaluation usually ends the polish.  The seeds would
# save Euler-Maclaurin evaluations from t = 200 on (about 2 per zero against
# 5), but perfbench/test_smoke.py asserts that the benchmark's cold window
# near t = 1050 calls hardy_z; the seeds should start at _RS_MIN_T once that
# assertion is relaxed (ROADMAP item 1).
_RS_SEED_MIN_T = (_RS_C4_ERROR * 2.0**52) ** (1.0 / 3.75)
# Gabcke's C1..C4 as sums of c Psi^(j) / pi^e over (j, c, e), C0 = Psi.
_RS_TERMS = (
    ((0, 1.0, 0),),
    ((3, -1 / 96, 2),),
    ((2, 1 / 64, 2), (6, 1 / 18432, 4)),
    ((1, -1 / 64, 2), (5, -1 / 3840, 4), (9, -1 / 5308416, 6)),
    ((0, 1 / 128, 2), (4, 19 / 24576, 4), (8, 11 / 5898240, 6), (12, 1 / 2038431744, 8)),
)
# Degree in u = p - 1/2 of the C_k polynomials: the Taylor terms past it
# move no C_k by more than 1e-16 on |u| <= 1/2.
_RS_DEGREE = 44
# Grid points per Riemann-Siegel evaluation: its (points x N) arrays stay
# below a megabyte each up to t = IM_MAX (N = 89).
_RS_CHUNK = 1024
# Regula-falsi steps per Riemann-Siegel seed; about 5 are taken.
_RS_SEED_STEPS = 40

# Bits beyond the requested significand width for the extended Newton step.
_GUARD_BITS = 10
# The extended step's spacing for differences of the kernel's zeta', a power
# of two so that the points are exact, and its error budget for the zeta' it
# derives, relative to |zeta'|: 1/128 of an ulp (refine_zero).
_DIFF_STEP = 2.0**-10
_DERIV_BUDGET = 2.0**-60

# |zeta'(rho)| below this marks the record suspect (possible multiple zero or
# unrefined placeholder); explicit-formula consumers refuse such records.
SUSPECT_DERIV_FLOOR = 1e-8

_TABLE_MAGIC = b"ZTBL0001"
_TABLE_COUNT = struct.Struct("<Q")
_TABLE_RECORD = np.dtype(
    [("gamma", "<f8"), ("zeta_prime", "<c16"), ("refined_bits", "<i8")]
)

_BUILTIN_NAME = "zeros_t1100.txt"
# refine_table(load_builtin()) as ZTBL0001 bytes, shipped beside the ordinates.
_REFINED_BUILTIN_NAME = "zeros_t1100.ztbl"


@dataclass(frozen=True)
class ZeroRecord:
    """One zero rho = 1/2 + i*gamma with zeta'(rho) and refinement metadata.

    A ZeroTable also marks suspect every record with |zeta'| below
    SUSPECT_DERIV_FLOOR; the records it hands back carry that verdict."""

    gamma: float
    zeta_prime: complex = 0j
    refined_bits: int = 0
    suspect: bool = False


@dataclass(frozen=True)
class VerifyReport:
    """Zero-count check against the smooth main term of the counting function."""

    T: float
    observed: int
    main_term: float
    difference: float
    bound: float
    ok: bool


class ZeroTable:
    """Immutable table of zeros in strictly ascending positive gamma.

    The columns are read-only arrays: ``gammas`` (float64), ``zeta_primes``
    (complex128), ``refined_bits`` (int64) and the ``suspect`` mask (bool).
    Indexing and iteration yield ZeroRecord values.
    """

    def __init__(self, records) -> None:
        recs = list(records)
        self._set_columns(*([getattr(r, f.name) for r in recs] for f in fields(ZeroRecord)))

    def _set_columns(self, gammas, zeta_primes, refined_bits, flagged) -> "ZeroTable":
        """The one constructor of the columns, fed by __init__ and load:
        finite check, ascending check, suspect mask, read-only flags.
        Returns self."""
        gammas = np.ascontiguousarray(gammas, dtype=np.float64)
        zeta_primes = np.ascontiguousarray(zeta_primes, dtype=np.complex128)
        # a nan zeta' would pass the suspect floor below, and an infinite one
        # would drop its zero from a sum of 1/zeta' without a word
        not_finite = ~(np.isfinite(gammas) & np.isfinite(zeta_primes))
        if not_finite.any():
            i = int(np.argmax(not_finite))
            raise DomainError(f"zero record {i} is not finite: gamma = {gammas[i]}, "
                              f"zeta' = {complex(zeta_primes[i])}")
        prev = np.concatenate(([0.0], gammas[:-1]))
        out_of_order = ~(gammas > prev)
        if out_of_order.any():
            i = int(np.argmax(out_of_order))
            raise NotAscending(
                f"zero ordinates must be strictly ascending and positive; "
                f"got {gammas[i]} after {prev[i]}"
            )
        self.gammas = gammas
        self.zeta_primes = zeta_primes
        self.refined_bits = np.ascontiguousarray(refined_bits, dtype=np.int64)
        # The one place suspect status is decided: flagged by the producer,
        # or a derivative too small for a simple zero (or never computed).
        self.suspect = np.asarray(flagged, bool) | (np.abs(zeta_primes) < SUSPECT_DERIV_FLOOR)
        for column in self._columns:
            column.flags.writeable = False
        return self

    @property
    def _columns(self):
        """The columns in ZeroRecord field order."""
        return (self.gammas, self.zeta_primes, self.refined_bits, self.suspect)

    def __len__(self) -> int:
        return len(self.gammas)

    def __iter__(self):
        return iter(self[:])

    def __getitem__(self, i):
        """One ZeroRecord for an int index, a tuple of them for a slice."""
        if isinstance(i, slice):
            return tuple(map(ZeroRecord, *(column[i].tolist() for column in self._columns)))
        return ZeroRecord(*(column[i].item() for column in self._columns))

    @property
    def max_gamma(self) -> float:
        return float(self.gammas[-1]) if len(self) else 0.0

    def count_up_to(self, T: float, inclusive: bool = True) -> int:
        """Number of records with gamma <= T (< T when not inclusive); a nan
        T, which would sort after every ordinate, raises DomainError."""
        if math.isnan(T):
            raise DomainError("T must be a number, got nan")
        return int(np.searchsorted(self.gammas, T, side="right" if inclusive else "left"))

    def require_height(self, T: float) -> None:
        """Raise MissingZeros unless the table holds a zero at gamma >= T (so
        an empty table never passes); a nan T raises DomainError."""
        if self.count_up_to(T, inclusive=False) == len(self):
            raise MissingZeros(
                f"zero table reaches gamma = {self.max_gamma:.3f}, "
                f"but height T = {T} was requested"
            )

    def save(self, path) -> None:
        """Write the ZTBL0001 file, atomically replacing any previous one.  It
        has no suspect column, and load flags only |zeta'| below the floor, so
        a record flagged above it raises DomainError instead of losing it."""
        lost = self.suspect & ~(np.abs(self.zeta_primes) < SUSPECT_DERIV_FLOOR)
        if lost.any():
            raise DomainError(f"ZTBL0001 keeps no suspect flag at |zeta'| >= "
                              f"{SUSPECT_DERIV_FLOOR:g}: {self[int(np.argmax(lost))]}")
        rows = np.empty(len(self), dtype=_TABLE_RECORD)
        rows["gamma"] = self.gammas
        rows["zeta_prime"] = self.zeta_primes
        rows["refined_bits"] = self.refined_bits
        _write_atomic(path, [_TABLE_MAGIC, _TABLE_COUNT.pack(len(self)), rows.tobytes()])

    @classmethod
    def load(cls, path) -> "ZeroTable":
        """Read a ZTBL0001 file; ParseError when it is malformed or holds a
        value that is not finite, NotAscending when its ordinates are out of
        order."""
        with open(path, "rb") as fh:
            blob = fh.read()
        if blob[: len(_TABLE_MAGIC)] != _TABLE_MAGIC:
            raise ParseError(f"{path}: bad magic header")
        off = len(_TABLE_MAGIC)
        if len(blob) < off + _TABLE_COUNT.size:
            raise ParseError(f"{path}: missing record count")
        (count,) = _TABLE_COUNT.unpack_from(blob, off)
        off += _TABLE_COUNT.size
        if len(blob) != off + count * _TABLE_RECORD.itemsize:
            raise ParseError(
                f"{path}: expected {count} records, file length mismatch"
            )
        rows = np.frombuffer(blob, dtype=_TABLE_RECORD, count=count, offset=off)
        try:
            return cls.__new__(cls)._set_columns(*(rows[name] for name in _TABLE_RECORD.names), False)
        except DomainError as exc:
            raise ParseError(f"{path}: {exc}") from exc


def _zero_sum(
    table: ZeroTable,
    T: float,
    term,
    *,
    inclusive: bool = True,
    cutoffs=(),
    suspect: str = "raise",
):
    """Correctly rounded sum of term(rho, zeta'(rho)) over the zeros of table
    in ascending gamma, with partial sums at the ascending cutoffs.

    term is called once, on the columns rho = 1/2 + i*gamma and zeta'(rho)
    of the zeros summed, with numpy's float warnings off, and returns the
    terms as an array or a list.

    Every sum over zeros in the package runs through here, so these rules
    hold for all of them:

    * Cutoff: the zeros with 0 < gamma <= T are summed (the reciprocal-zeta
      identity behind inv_zeta_identity, a_constant_report and
      zeta_eq_real_report; integral_M_explicit, im_constants, j_lambda);
      inclusive=False stops strictly below T (zero_sum_term, swmh_report).
    * Height: a nan T raises DomainError (ZeroTable.count_up_to); T = inf
      sums the whole table, and T below the first zero gives an empty sum.
    * Unrefined: a record with no zeta' value (zeta' = 0 and
      refined_bits = 0) raises DomainError -- refine the table first.
    * Suspect: a record in the table's suspect mask raises MultipleZeroFlag
      when suspect is "raise"; with "inf" it contributes +inf, the
      convention for moment and oscillation bounds, which a multiple zero
      sends to infinity; with "keep" its term is summed as usual.

    The whole range is checked before any term is evaluated, and the first
    offending record in ascending gamma decides the error.  Real and
    imaginary parts of complex terms are summed separately, each correctly
    rounded (kernel._exact_sum, the same float as math.fsum).
    Returns (total, [(cutoff, partial sum over gamma <= cutoff), ...]).
    """
    gammas = table.gammas
    n = table.count_up_to(T, inclusive)
    zps = table.zeta_primes[:n]
    unrefined = (zps == 0) & (table.refined_bits[:n] == 0)
    bad = unrefined | table.suspect[:n] if suspect == "raise" else unrefined
    if bad.any():
        i = int(np.argmax(bad))
        if unrefined[i]:
            raise DomainError(
                f"zero at gamma = {gammas[i]} carries no zeta' value; "
                "refine the table first (refine_table)"
            )
        raise MultipleZeroFlag(
            f"zero at gamma = {gammas[i]} is suspect (|zeta'| = {abs(zps[i]):.3e}, "
            f"floor {SUSPECT_DERIV_FLOOR:g}); multiple zero suspected"
        )
    with np.errstate(all="ignore"):
        terms = np.asarray(term(gammas[:n] * 1j + 0.5, zps))
    if suspect == "inf":
        terms = np.where(table.suspect[:n], math.inf, terms)

    def total(k: int):
        part = terms[:k]
        if np.iscomplexobj(part):
            return complex(_exact_sum(part.real), _exact_sum(part.imag))
        return _exact_sum(part)

    return total(n), [(c, total(min(n, table.count_up_to(c)))) for c in cutoffs]


# ---------------------------------------------------------------------------
# The real zero-locating function
# ---------------------------------------------------------------------------


def riemann_siegel_theta(t: float) -> float:
    """theta(t) = Im log Gamma(1/4 + i t/2) - (t/2) log pi."""
    lg = log_gamma(complex(0.25, 0.5 * t))
    return float(lg.imag - 0.5 * t * math.log(math.pi))


def hardy_z(t: float) -> float:
    """Z(t) = exp(i theta(t)) zeta(1/2 + i t); real, and zero exactly at the
    critical-line zeros."""
    z = zeta(complex(0.5, float(t)))
    theta = riemann_siegel_theta(t)
    return float((complex(math.cos(theta), math.sin(theta)) * z).real)


@lru_cache(maxsize=1)
def _rs_corrections() -> np.ndarray:
    """Gabcke's C0..C4 as the rows of a (5, _RS_DEGREE + 1) array of
    polynomial coefficients in u = p - 1/2, lowest degree first.

    Psi(p) = cos 2pi(p^2 - p - 1/16) / cos 2pi p = -cos(2pi u^2 - 5pi/8) /
    cos 2pi u is entire (the numerator vanishes wherever cos 2pi u does), so
    its Taylor coefficients at u = 0 are the discrete Fourier transform of
    its values at 128 points of |u| = 1, where no cos 2pi u vanishes and
    |Psi| < 11; the aliased terms are below 1e-40.  Each C_k folds its
    derivatives of Psi into one polynomial, within 1e-15 of 50-digit mpmath
    on |u| <= 1/2.  Built on the first Riemann-Siegel evaluation.
    """
    size = 128
    angles = 2.0 * math.pi / size * np.arange(size)
    circle = np.exp(1j * angles)
    psi = -np.cos(2.0 * math.pi * circle**2 - 0.625 * math.pi) / np.cos(2.0 * math.pi * circle)
    taylor = (np.exp(-1j * np.outer(np.arange(_RS_DEGREE + 13), angles)) @ psi).real / size
    rows = np.zeros((len(_RS_TERMS), _RS_DEGREE + 1))
    for row, terms in zip(rows, _RS_TERMS):
        for j, c, e in terms:
            # Psi^(j) = sum over m of (m + j)!/m! a_(m + j) u^m
            falling = [float(math.perm(m + j, j)) for m in range(_RS_DEGREE + 1)]
            row += c / math.pi**e * np.multiply(falling, taylor[j : j + _RS_DEGREE + 1])
    return rows


def _riemann_siegel_z(ts: np.ndarray):
    """Z(t) at each height by the Riemann-Siegel formula with Gabcke's
    correction terms C0..C4, and a bound on the distance to the true Z(t):

        Z(t) ~ 2 sum_{n <= N} n^(-1/2) cos(theta(t) - t log n)
               + (-1)^(N-1) (2 pi/t)^(1/4) sum_{k <= 4} C_k(p) (2 pi/t)^(k/2),
        N = floor(sqrt(t/2pi)),  p = sqrt(t/2pi) - N,

    with theta from its asymptotic series and the C_k from _rs_corrections,
    which have no singular point.  For t >= 200 Gabcke (1979) bounds the
    formula's error by 0.017 t^(-11/4); the bound returned is twice that plus
    2^-40 t log t sqrt(N), which covers the rounding of the phases (a few
    ulps of t log t each, times the amplitude sum 4 sqrt(N)).  The value is
    nan below t = 200, so a sign decided by |value| > bound is certain.
    """
    ts = np.asarray(ts, dtype=np.float64)
    z = np.full(ts.shape, np.nan)
    bound = np.zeros(ts.shape)
    high = ts >= _RS_MIN_T
    t = ts[high]
    root = np.sqrt(t / (2.0 * math.pi))
    n_cut = np.floor(root)
    inv = 1.0 / t
    # theta(t) = t log(root) - t/2 - pi/8 + 1/(48t) + 7/(5760t^3) + ...;
    # the first term left out is below 1e-20 from t = 200 on
    inv_sq = inv * inv
    theta = (t * np.log(root) - 0.5 * t - 0.125 * math.pi
             + inv * (1 / 48 + inv_sq * (7 / 5760 + inv_sq * (31 / 80640 + inv_sq * 127 / 430080))))
    ns = np.arange(1.0, n_cut.max(initial=1.0) + 1.0)
    terms = np.cos(theta[:, None] - t[:, None] * np.log(ns)) / np.sqrt(ns)
    main = 2.0 * np.sum(terms, axis=1, where=ns <= n_cut[:, None])
    w = 1.0 / root  # (2 pi/t)^(1/2)
    weights = np.vander(w, len(_RS_TERMS), increasing=True) @ _rs_corrections()
    powers = np.vander(root - n_cut - 0.5, _RS_DEGREE + 1, increasing=True)
    sign = 1.0 - 2.0 * ((n_cut - 1.0) % 2.0)  # (-1)^(N-1)
    z[high] = main + sign * np.sqrt(w) * np.einsum("ij,ij->i", weights, powers)
    bound[high] = 2.0 * _RS_C4_ERROR * t**-2.75 + 2.0**-40 * t * np.log(t) * np.sqrt(n_cut)
    return z, bound


def _riemann_siegel_roots(a, b, za, zb) -> list[float]:
    """The zero of the Riemann-Siegel formula in each bracket between a and b,
    where za and zb, its values there, have opposite signs.

    Regula falsi with the Anderson-Bjorck weight (BIT 13, 1973), an Illinois
    method, runs on all brackets at once, one _riemann_siegel_z call per
    step, and every point stays between the bracket's ends.  A bracket stops
    when a step moves less than the Newton step floor 2^-51 t, or lands on a
    zero of the formula, and after _RS_SEED_STEPS steps in any case; its
    last point is the seed.
    """
    a, b, za, zb = (np.array(v, dtype=np.float64) for v in (a, b, za, zb))
    seeds = np.empty(len(b))
    live = np.arange(len(b))
    for _ in range(_RS_SEED_STEPS):
        c = np.clip(b - zb * ((b - a) / (zb - za)), np.minimum(a, b), np.maximum(a, b))
        zc = _riemann_siegel_z(c)[0]
        # c replaces b; a stays, its value weighted down, unless zc changed sign
        flip = zc * zb < 0.0
        weight = 1.0 - zc / zb
        a = np.where(flip, b, a)
        za = np.where(flip, zb, np.where(weight > 0.0, weight, 0.5) * za)
        done = (np.abs(c - b) < 2.0**-51 * c) | (zc == 0.0)
        b, zb = c, zc
        seeds[live[done]] = c[done]
        keep = ~done
        live, a, b, za, zb = live[keep], a[keep], b[keep], za[keep], zb[keep]
        if not len(live):
            break
    seeds[live] = b
    return seeds.tolist()


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


def import_zeros(path) -> ZeroTable:
    """Read a text file of ascending zero ordinates (one per line, '#'
    comments allowed) into an unrefined table (zeta' = 0, refined_bits = 0)."""
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            try:
                gamma = float(body)
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: not a number: {body!r}") from exc
            records.append(ZeroRecord(gamma=gamma))
    return ZeroTable(records)


def builtin_zeros_path():
    """Filesystem path of the packaged ordinate list (zeros below 1100)."""
    from importlib.resources import files

    return files("mrl").joinpath("data").joinpath(_BUILTIN_NAME)


def load_builtin() -> ZeroTable:
    """The packaged table of zero ordinates below 1100, unrefined."""
    return import_zeros(builtin_zeros_path())


def _load_refined_builtin() -> ZeroTable:
    """refine_table(load_builtin()), read from its packaged ZTBL0001 file."""
    from importlib.resources import files

    return ZeroTable.load(files("mrl").joinpath("data").joinpath(_REFINED_BUILTIN_NAME))


def _newton_polish(t0: float):
    """Newton-polish an ordinate seed in doubles; returns (t, zeta_prime_at_zero).

    Stops once a step is below step_floor = 2^-51 max(1, |t0|), at least two
    ulps of t.  The kernel's zeta is good to about 1e-15 at any height, so
    that step lands within about half an ulp of the zero.  zeta' is the one
    evaluated before it, up to step_floor away, so it is good to about
    |zeta''/zeta'| step_floor only: a few 1e-11 relative near t = 1e4.
    """
    step_floor = 2.0 ** -51 * max(1.0, abs(t0))
    t = t0
    for _ in range(_NEWTON_MAX_ITER):
        z, dz = zeta_and_deriv(0.5 + 1j * t)
        step = (z / (1j * dz)).real
        t = t - step
        if abs(step) < step_floor:
            return t, dz
    raise NoConvergence(
        f"Newton refinement from seed {t0:.6f} did not take a step below "
        f"{step_floor:.3g} in {_NEWTON_MAX_ITER} iterations"
    )


def refine_zero(gamma_seed: float, precision: Precision = DOUBLE) -> ZeroRecord:
    """Polish one ordinate seed to a ZeroRecord with zeta'(rho).

    The seed must lie within about GRID_STEP of the true ordinate (the Newton
    basin); seeds farther away may converge to a neighboring zero.  The
    double polish lands within about half an ulp of the zero
    (_newton_polish).  Above 53 bits one Newton step with mpmath's zeta, at
    wp = that width plus _GUARD_BITS, goes from its ordinate t0 to t1.  It
    evaluates zeta(s0) alone and divides by the polish's zeta', which is good
    to about 1e-10 only, so t1 is within about 1e-10 |t0 - gamma| of the
    zero.  One more evaluation gives zeta(s1), and the next step
    |zeta(s1)/zeta'(s1)| must be below 2^-64 max(1, |t1|), so that float(t1)
    is correctly rounded, or NoConvergence is raised.

    zeta'(s1) comes from those two values.  With u = s0 - s1 = i(t0 - t1),
    exact, Taylor's theorem gives

        zeta'(s1) = (zeta(s0) - zeta(s1))/u - zeta''(s1) u/2 - zeta'''(s1) u^2/6

    up to zeta'''' u^3/24, where |u| is about |t0 - gamma|, half an ulp of
    t0 or less.  zeta'' and zeta''' are central differences of the double
    kernel's zeta' at float(t1) +/- h and +/- 2h, h = _DIFF_STEP (four
    zeta_and_deriv calls), zeta'' with one Richardson step.  The error of the
    result, relative to |zeta'|, is estimated as

        2^(1 - wp)/(|u| |zeta'|)  +  h^4 log(t)^6 |u| / (60 |zeta'|),

    the first term for the two mpmath values, each within 2^-wp of zeta
    (1e-47 measured at wp = 138, from t = 14 to 49000), the second for the
    truncation h^4 |zeta^(6)|/30 of zeta'' (measured at 19 zeros from t = 14
    to 49001: at most a third of h^4 log(t)^6/30, and 1.0e-8 at 49000.9);
    the kernel's own error, 1e-15, adds about 1e-12 over h.  The zeta''' and
    u^3 terms are below 1e-24.  Where the estimate exceeds _DERIV_BUDGET =
    2^-60, zeta'(s1) is mpmath's (zeta(s, derivative=1), Euler-Maclaurin,
    several times the cost of zeta): before the kernel calls when
    |u| |zeta'| <= 2^(1 - wp)/_DERIV_BUDGET, which is 2^-77 at EXTENDED and
    covers u = 0, and after them when the zeta'' term is too large.  The
    polish's zeta' stands for |zeta'| in the estimate.
    """
    t, dz = _newton_polish(float(gamma_seed))
    if not precision.is_double:
        import mpmath as mp  # the package's one use of mpmath, loaded on demand

        if dz == 0:
            raise NoConvergence(f"double polish from seed {gamma_seed:.6f} leaves zeta' = 0")
        wp = int(precision.significand_bits) + _GUARD_BITS
        with mp.workprec(wp):
            z0 = mp.zeta(mp.mpc(0.5, t))
            t0, t = t, t - (z0 / (1j * dz)).real
            s = mp.mpc(0.5, t)
            z = mp.zeta(s)
            dz = _zeta_prime_from_values(t0, t, z0, z, abs(dz), wp)
            if dz is None:
                dz = mp.zeta(s, derivative=1)
            if not abs(z / dz) < mp.ldexp(max(1.0, abs(t)), -64):
                raise NoConvergence(
                    f"extended Newton step from seed {gamma_seed:.6f} leaves "
                    f"|zeta/zeta'| = {float(abs(z / dz)):.3e}"
                )
    return ZeroRecord(float(t), complex(dz), int(precision.significand_bits))


def _zeta_prime_from_values(t0, t1, z0, z1, deriv_size: float, wp: int):
    """zeta'(1/2 + i t1) from the mpmath values z0 = zeta(1/2 + i t0) and
    z1 = zeta(1/2 + i t1) at wp bits, given |zeta'| about deriv_size, or None
    where its error estimate exceeds _DERIV_BUDGET (refine_zero says how)."""
    u = 1j * (t0 - t1)  # an mpc, exact
    du, t = float(abs(u)), float(t1)
    if not du * deriv_size > 2.0 ** (1 - wp) / _DERIV_BUDGET:
        return None
    # d/dt zeta'(1/2 + i t) = i zeta'' and d^2/dt^2 zeta' = -zeta'''
    m2, m1, p1, p2 = (zeta_and_deriv(complex(0.5, t + k * _DIFF_STEP))[1] for k in (-2, -1, 1, 2))
    zeta2 = -1j * (8.0 * (p1 - m1) - (p2 - m2)) / (12.0 * _DIFF_STEP)
    zeta3 = (m1 + p1 - m2 - p2) / (3.0 * _DIFF_STEP**2)
    zeta2_error = _DIFF_STEP**4 * math.log(max(math.e, abs(t))) ** 6 / 30.0
    if (2.0 ** (1 - wp) / du + zeta2_error * du / 2.0) / deriv_size > _DERIV_BUDGET:
        return None
    return (z0 - z1) / u - zeta2 * u / 2 - zeta3 * u**2 / 6


def refine_table(table: ZeroTable, precision: Precision = DOUBLE) -> ZeroTable:
    """Refine every record; NotAscending from the constructor catches any
    seed that escaped to a neighboring zero's basin."""
    return ZeroTable(refine_zero(g, precision) for g in table.gammas.tolist())


def find_zeros(t_min: float, t_max: float, grid_step: float = GRID_STEP) -> ZeroTable:
    """All critical-line zeros with t_min < gamma <= t_max, by sign changes
    of Z(t) on a grid of the given step, each polished in doubles by
    refine_zero.  Extended records: refine_table(find_zeros(a, b), EXTENDED).

    A grid sign is the Riemann-Siegel value's where Gabcke's bound makes it
    certain (t >= 200), else hardy_z's, each point evaluated at most once.
    From t = _RS_SEED_MIN_T (about 5040) on, a bracket whose two ends are
    certain seeds Newton at the zero of the Riemann-Siegel formula inside it
    (_riemann_siegel_roots), a few ulps from the ordinate, so one
    Euler-Maclaurin evaluation usually ends the polish, within an ulp of the
    zero.  Any other bracket takes hardy_z at both ends and seeds Newton at
    their regula-falsi point, and an exact hardy_z zero at a grid point is
    its own seed; below t = 5040 every bracket is of this kind, and the
    result is the same, float for float, as a scan with hardy_z everywhere.

    The step must be below the local zero spacing (0.05 is safe far beyond
    t = 1100).  Two zeros inside one step leave no sign change and go unseen;
    verify_count cannot tell, as a missed pair moves the count by 2 against a
    slack of 2 log T (13.8 at T = 1000).  Turing's method would certify it.
    """
    t_min, t_max = float(t_min), float(t_max)
    if not (0.0 <= t_min < t_max):
        raise OutOfRange(f"need 0 <= t_min < t_max, got [{t_min}, {t_max}]")
    if t_max > IM_MAX:
        raise OutOfRange(f"t_max = {t_max} exceeds supported maximum {IM_MAX}")
    if not (0 < grid_step <= 0.5):
        raise OutOfRange(f"grid_step must be in (0, 0.5], got {grid_step}")
    n_pts = int(math.ceil((t_max - t_min) / grid_step)) + 1
    ts = [min(t_min + i * grid_step, t_max) for i in range(n_pts)]
    exact: dict[float, float] = {}  # hardy_z at each grid point, taken once

    def exact_z(t: float) -> float:
        return exact[t] if t in exact else exact.setdefault(t, hardy_z(t))

    zs = []
    for i in range(0, n_pts, _RS_CHUNK):
        part = ts[i : i + _RS_CHUNK]
        rs, bound = _riemann_siegel_z(np.array(part))
        zs += [z if abs(z) > e else exact_z(t) for t, z, e in zip(part, rs.tolist(), bound.tolist())]
    brackets = []  # (a, b, seed), seed None for a Riemann-Siegel seed
    certain = []  # (a, b, Z(a), Z(b)) of the brackets with certain ends
    for (a, za), (b, zb) in zip(zip(ts, zs), zip(ts[1:], zs[1:])):
        if za == 0.0 and a > 0:  # only hardy_z can give an exact zero
            brackets.append((a, b, a))
        elif za * zb < 0.0 and (a < _RS_SEED_MIN_T or a in exact or b in exact):
            za, zb = exact_z(a), exact_z(b)
            brackets.append((a, b, a - za * (b - a) / (zb - za)))  # regula falsi: in the basin
        elif za * zb < 0.0:
            brackets.append((a, b, None))
            certain.append((a, b, za, zb))
    rs_seeds = iter(_riemann_siegel_roots(*zip(*certain)) if certain else ())
    records = []
    for a, b, seed in brackets:
        rec = refine_zero(next(rs_seeds) if seed is None else seed)
        if not (a - grid_step <= rec.gamma <= b + grid_step):
            raise NoConvergence(
                f"refined ordinate {rec.gamma:.6f} escaped bracket [{a:.6f}, {b:.6f}]"
            )
        if t_min < rec.gamma <= t_max:
            records.append(rec)
    return ZeroTable(records)


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------


def count_main_term(T: float) -> float:
    """Smooth main term of the zero-counting function:
    (T/2pi) log(T/2pi) - T/2pi."""
    u = T / (2.0 * math.pi)
    return u * (math.log(u) - 1.0)


def verify_count(table: ZeroTable, T: float) -> VerifyReport:
    """Compare the table's zero count up to T with the smooth main term.

    Returns a report (never raises on mismatch); the ok flag is
    |observed - main| <= 2 log T.  Raises MissingZeros only when the table
    does not extend to T, since the count would be meaningless.
    """
    T = float(T)
    if not T > 2.0 * math.pi:
        raise OutOfRange(f"T must exceed 2*pi for the main term, got {T}")
    table.require_height(T)
    observed = table.count_up_to(T)
    main = count_main_term(T)
    diff = abs(observed - main)
    bound = 2.0 * math.log(T)
    return VerifyReport(
        T=T,
        observed=observed,
        main_term=main,
        difference=diff,
        bound=bound,
        ok=diff <= bound,
    )
