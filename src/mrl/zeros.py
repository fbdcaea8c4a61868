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

on a uniform grid, then polished in doubles from the regula-falsi point of
each bracket by the Newton step t <- t - Re[zeta / (i zeta')] at s = 1/2 + i t.
From t = 200 on, the grid signs come from the Riemann-Siegel formula with its
C0 term (_riemann_siegel_z), whose error Gabcke's bound 0.127 t^(-3/4) makes
certain; hardy_z (Euler-Maclaurin zeta) serves the points below t = 200, the
points whose Riemann-Siegel value is inside the bound, and both ends of each
bracket, so the regula-falsi seeds are hardy_z values.
The Newton basin is about +/- one grid step around each ordinate; seeds
farther out may converge to a neighbor (refuse via NoConvergence when the
polished value leaves the bracket).  Extended precision adds one mpmath
Newton step to the double result (refine_zero).

Binary persistence: magic ZTBL0001, then a u64 record count, then
little-endian (gamma: f64, Re zeta': f64, Im zeta': f64, refined_bits: i64)
records in strictly ascending gamma.  The packaged ordinates also ship in
this format, refined at double precision (_load_refined_builtin).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, fields

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
    "NEWTON_TOL",
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

# Newton stops once |zeta(1/2 + i t)| falls below this (double precision).
NEWTON_TOL = 1e-12

_NEWTON_MAX_ITER = 50

# Gabcke (1979): from t = 200 on, the Riemann-Siegel formula with its C0
# term is within 0.127 t^(-3/4) of Z(t).
_RS_MIN_T = 200.0
_RS_C0_ERROR = 0.127
# Grid points per Riemann-Siegel evaluation: its (points x N) arrays stay
# below a megabyte each up to t = IM_MAX (N = 89).
_RS_CHUNK = 1024

# Bits beyond the requested significand width for the extended Newton step.
_GUARD_BITS = 10

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
        ascending check, suspect mask, read-only flags.  Returns self."""
        gammas = np.ascontiguousarray(gammas, dtype=np.float64)
        prev = np.concatenate(([0.0], gammas[:-1]))
        out_of_order = ~(gammas > prev)
        if out_of_order.any():
            i = int(np.argmax(out_of_order))
            raise NotAscending(
                f"zero ordinates must be strictly ascending and positive; "
                f"got {gammas[i]} after {prev[i]}"
            )
        self.gammas = gammas
        self.zeta_primes = zeta_primes = np.ascontiguousarray(zeta_primes, dtype=np.complex128)
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
        """Write the ZTBL0001 file, atomically replacing any previous one."""
        rows = np.empty(len(self), dtype=_TABLE_RECORD)
        rows["gamma"] = self.gammas
        rows["zeta_prime"] = self.zeta_primes
        rows["refined_bits"] = self.refined_bits
        _write_atomic(path, [_TABLE_MAGIC, _TABLE_COUNT.pack(len(self)), rows.tobytes()])

    @classmethod
    def load(cls, path) -> "ZeroTable":
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
        return cls.__new__(cls)._set_columns(*(rows[name] for name in _TABLE_RECORD.names), False)


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


def _riemann_siegel_z(ts: np.ndarray):
    """Z(t) at each height by the Riemann-Siegel formula with its first
    correction term, and a bound on the distance to the true Z(t):

        Z(t) ~ 2 sum_{n <= N} n^(-1/2) cos(theta(t) - t log n)
               + (-1)^(N-1) (2 pi/t)^(1/4) C0(p),
        N = floor(sqrt(t/2pi)),  p = sqrt(t/2pi) - N,
        C0(p) = cos 2pi(p^2 - p - 1/16) / cos 2pi p.

    For t >= 200 Gabcke (1979) bounds the formula's error by 0.127 t^(-3/4);
    the bound returned is twice that plus 2^-40 t log t sqrt(N), which
    covers the rounding of the phases (a few ulps of t log t each, times the
    amplitude sum 4 sqrt(N)) and of C0 where |cos 2pi p| >= 2^-10.  The value
    is nan below t = 200 and where |cos 2pi p| < 2^-10, so a sign decided by
    |value| > bound is certain.
    """
    ts = np.asarray(ts, dtype=np.float64)
    z = np.full(ts.shape, np.nan)
    bound = np.zeros(ts.shape)
    high = ts >= _RS_MIN_T
    t = ts[high]
    root = np.sqrt(t / (2.0 * math.pi))
    n_cut = np.floor(root)
    p = root - n_cut
    theta = np.array([riemann_siegel_theta(v) for v in t.tolist()])
    ns = np.arange(1.0, n_cut.max(initial=1.0) + 1.0)
    terms = np.cos(theta[:, None] - t[:, None] * np.log(ns)) / np.sqrt(ns)
    main = 2.0 * np.sum(terms, axis=1, where=ns <= n_cut[:, None])
    num, den = np.cos(2.0 * math.pi * (p * p - p - 0.0625)), np.cos(2.0 * math.pi * p)
    c0 = np.divide(num, den, out=np.full(t.shape, np.nan), where=np.abs(den) >= 2.0**-10)
    sign = 1.0 - 2.0 * ((n_cut - 1.0) % 2.0)  # (-1)^(N-1)
    z[high] = main + sign * (2.0 * math.pi / t) ** 0.25 * c0
    bound[high] = 2.0 * _RS_C0_ERROR * t**-0.75 + 2.0**-40 * t * np.log(t) * np.sqrt(n_cut)
    return z, bound


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

    Stops when |zeta| clears NEWTON_TOL, or -- since the evaluated |zeta| has
    a noise floor of roughly |t| log|t| ulps from the phases in the main sum
    -- when the Newton step falls below a few ulps of t, at which point the
    ordinate itself is converged, or when |zeta| is inside that floor and the
    step stopped shrinking (the steps chase noise; the last one is taken and
    zeta' evaluated once more).
    """
    step_floor = 2.0 ** -51 * max(1.0, abs(t0))
    noise = 0.5 * step_floor * math.log(max(math.e, abs(t0)))
    t, last_step = t0, math.inf
    for _ in range(_NEWTON_MAX_ITER):
        z, dz = zeta_and_deriv(0.5 + 1j * t)
        if abs(z) < NEWTON_TOL:
            return t, dz
        step = (z / (1j * dz)).real
        t = t - step
        if abs(step) < step_floor:
            return t, dz
        if abs(z) < noise and abs(step) >= last_step:
            return t, zeta_and_deriv(0.5 + 1j * t)[1]
        last_step = abs(step)
    raise NoConvergence(
        f"Newton refinement from seed {t0:.6f} did not reach "
        f"|zeta| < {NEWTON_TOL:g} in {_NEWTON_MAX_ITER} iterations"
    )


def refine_zero(gamma_seed: float, precision: Precision = DOUBLE) -> ZeroRecord:
    """Polish one ordinate seed to a ZeroRecord with zeta'(rho).

    The seed must lie within about GRID_STEP of the true ordinate (the Newton
    basin); seeds farther away may converge to a neighboring zero.  Above 53
    bits one Newton step with mpmath's zeta, at that width plus _GUARD_BITS,
    squares the double result's error (about 1e-13).  That step evaluates
    zeta alone and divides by the double polish's zeta': the step is about
    1e-13, so a zeta' good to double moves t by about 1e-29 only.  One more
    evaluation gives zeta', and its next step |zeta/zeta'| must be below
    2^-64 max(1, |t|), so that float(t) is correctly rounded, or
    NoConvergence is raised.
    """
    t, dz = _newton_polish(float(gamma_seed))
    if not precision.is_double:
        import mpmath as mp  # the package's one use of mpmath, loaded on demand

        if dz == 0:
            raise NoConvergence(f"double polish from seed {gamma_seed:.6f} leaves zeta' = 0")
        with mp.workprec(int(precision.significand_bits) + _GUARD_BITS):
            t = t - (mp.zeta(mp.mpc(0.5, t)) / (1j * dz)).real
            s = mp.mpc(0.5, t)
            z, dz = mp.zeta(s), mp.zeta(s, derivative=1)
            if not abs(z / dz) < mp.ldexp(max(1.0, abs(t)), -64):
                raise NoConvergence(
                    f"extended Newton step from seed {gamma_seed:.6f} leaves "
                    f"|zeta/zeta'| = {float(abs(z / dz)):.3e}"
                )
    return ZeroRecord(float(t), complex(dz), int(precision.significand_bits))


def refine_table(table: ZeroTable, precision: Precision = DOUBLE) -> ZeroTable:
    """Refine every record; NotAscending from the constructor catches any
    seed that escaped to a neighboring zero's basin."""
    return ZeroTable(refine_zero(g, precision) for g in table.gammas.tolist())


def find_zeros(t_min: float, t_max: float, grid_step: float = GRID_STEP) -> ZeroTable:
    """All critical-line zeros with t_min < gamma <= t_max, by sign changes
    of Z(t) on a grid of the given step; the double Newton polish starts from
    the regula-falsi point of each bracket, or from an exact grid zero.
    Extended records: refine_table(find_zeros(a, b), EXTENDED).

    A grid sign is the Riemann-Siegel value's where Gabcke's bound makes it
    certain (t >= 200), else hardy_z's.  The seed of a bracket takes hardy_z
    at both ends, and only hardy_z can read an exact grid zero, so the result
    is the same, float for float, as a scan with hardy_z at every point.
    Above t = 200 that takes one Euler-Maclaurin evaluation per uncertain
    grid point and per bracket end, each point evaluated at most once.

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
    records = []
    for (a, za), (b, zb) in zip(zip(ts, zs), zip(ts[1:], zs[1:])):
        if za == 0.0 and a > 0:  # only hardy_z can give an exact zero
            seed = a
        elif za * zb < 0.0:
            za, zb = exact_z(a), exact_z(b)
            seed = a - za * (b - a) / (zb - za)  # regula falsi: inside the basin
        else:
            continue
        rec = refine_zero(seed)
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
