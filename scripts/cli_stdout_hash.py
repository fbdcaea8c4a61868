#!/usr/bin/env python3
"""Hash the output of a fixed set of ``mrl`` invocations and spectral API calls.

Runs ``mrl.cli.main`` in-process on every argument list of ``COMMANDS`` and
``TABLELESS`` (their comments say what each one covers), each in csv and
json, first without and then with a temporary ``--cache-dir`` (shared by the
cached pass, so its M(x) lookups miss once and then hit; ``builtin`` is read
from the package, never from the cache dir).  Then it calls
the spectral functions that no CLI command reaches, on the packaged refined
zero table the CLI reads: ``integral_M_explicit`` and the residues of the
explicit formula for M_tau, at the points of the ``INTEGRAL_*`` and
``RESIDUE_*`` lists; the kernel ratio ``gamma_ratio`` on the packaged column
at the tau of ``GAMMA_RATIO_TAUS``, as one array call and as scalar calls;
``trivial_zero_data(n).zeta_prime`` for every n; ``log_gamma`` at 1/4 +
i gamma/2 over the packaged ordinates (Hardy's theta reads it there); and
``zeta_and_deriv`` left of Re s = -1/2, at the points of ``FAR_LEFT``,
``FAR_LEFT_HIGH`` and ``FAR_LEFT_OVERFLOW``, each value or the class of the
error it raises.  Last come the zero search and the extended refine, which
no command reaches except through the packaged table: ``find_zeros`` on the
windows of ``FIND_WINDOWS``, and ``refine_zero`` at ``EXTENDED`` from the
packaged ordinates of ``REFINE_INDICES`` and from each ordinate that
``find_zeros`` gives on the windows of ``REFINE_WINDOWS``, each record as
the ``float.hex`` of its ordinate and zeta'.

Prints first the versions of Python, numpy and mpmath it runs with.  Then
one line per invocation, the first 16 hex digits of the SHA-256 of its exit
code and stdout followed by its arguments, then ``total``, the SHA-256 of
those lines.  Then one line per API row, the hash of the ``float.hex`` of
every value it returns, and ``api total``.  Run it on two checkouts and
``diff`` the outputs to name every invocation or row whose output moved:

    PYTHONPATH=src python3 scripts/cli_stdout_hash.py > after.txt

Its output on the committed tree is ``tests/cli_stdout_manifest.txt``, which
``tests/test_stdout_manifest.py`` recomputes.  A change that moves any row
writes the output there instead of to after.txt, so the file's diff names
the rows that moved.

stderr is not hashed.  The 256 invocations take about 2.3 s and the 143 API
rows about 3.0 s on one core of a 2-vCPU Xeon VM (the twelve zero rows
about 2 s, half of it the two extended refines near 49000; the fifteen
gamma_ratio and trivial_zero_data rows 0.25 s; the four log_gamma and
far-left zeta rows 0.01 s).
"""

import contextlib
import hashlib
import io
import platform
import sys
import tempfile

import mpmath
import numpy as np

from mrl.cli import main
from mrl.errors import MrlError
from mrl.explicit import RESIDUE_MAX_L, residue_series, residue_term
from mrl.kernel import (
    EXTENDED,
    TRIVIAL_ZERO_MAX_N,
    gamma_ratio,
    log_gamma,
    trivial_zero_data,
    zeta_and_deriv,
)
from mrl.zeros import _load_refined_builtin, find_zeros, load_builtin, refine_zero
from mrl.zerosums import integral_M_explicit

COMMANDS = [
    ["mertens", "1e7"],
    ["mertens", "1234567.9"],
    ["mertens", "1"],  # M(1) = 1, the base value, which no cache records
    ["mertens", "2"],  # the smallest x a cache records
    ["riesz", "1e6", "--tau", "0"],
    ["riesz", "1e6", "--tau", "1"],
    ["riesz", "1e6", "--tau", "1.5"],
    ["riesz", "1e6", "--tau", "3"],
    ["integral", "1e6", "--kappa", "0"],
    ["integral", "1e6", "--kappa", "1"],
    ["integral", "1e6", "--kappa", "1.5"],
    ["riesz", "2500000.5", "--tau", "1.5"],  # streams past 2^20: three blocks
    ["integral", "2500000.5", "--kappa", "1.5"],
    ["explicit", "1e4", "--tau", "1"],
    # large x, where the phase rounding of gamma * log x dominates the error
    ["explicit", "1e6", "--tau", "2.5"],
    ["explicit", "1e6", "--tau", "3"],
    ["explicit", "1e4", "--tau", "1.5", "--compare"],
    ["explicit", "100.5", "--tau", "0", "--compare"],
    # small x, where the residues at s = -1, -2, ... dominate the value
    ["explicit", "2.5", "--tau", "7.25"],
    ["explicit", "10.5", "--tau", "2"],
    ["--L", "100", "explicit", "3.5", "--tau", "1.5"],
    ["identity", "inv-zeta"],
    ["identity", "inv-zeta", "--s", "2+5j"],
    ["identity", "inv-zeta", "--s", "-9.5"],  # real s < -1/2
    ["identity", "a-const", "--kappa", "2"],
    ["identity", "zeta-real", "--kappa", "2"],
    ["identity", "swmh", "--x", "1e5"],
    ["identity", "swmh", "--x", "2.5e6"],
    ["identity", "im-const", "--kappa", "1.5"],
    ["identity", "jsum", "--lambda", "0"],
    ["identity", "jsum", "--lambda", "0.5"],
    ["identity", "hko", "--lambda", "0"],
    ["scan", "density", "--X", "1e5"],
    ["scan", "divIM-sign", "--X", "1e5"],
    ["scan", "divIM-sign", "--X", "1e3", "--kappa", "1"],
    ["scan", "density", "--X", "2.5e6"],
    ["scan", "divIM-sign", "--X", "2.5e6"],
    ["scan", "tau-regime", "--x-stop", "1e5", "--points", "5"],
    ["scan", "tau-regime", "--x-stop", "1e5", "--points", "5",
     "--schedule", "inv-log", "--c", "9"],
    ["scan", "tau-regime", "--x-stop", "1e5", "--points", "5",
     "--schedule", "iterated-log"],
    # the power sums past the sieve: S_0 at 1e8 and at a prime near 1e9,
    # S_0..S_2 at 3e7, S_0..S_3 at 2e7, and S_0, S_1 at nine points sharing
    # one sieve; then a stream of 4.2e6 that weights only the n with mu != 0
    ["mertens", "1e8"],
    ["mertens", "999999937"],
    ["riesz", "3e7", "--tau", "2"],
    ["integral", "2e7", "--kappa", "-2"],
    ["scan", "tau-regime", "--x-stop", "1e7", "--points", "9"],
    # a sieve of two blocks: S_0, S_1 and S_0..S_3 (with the rows mod each
    # prime) at a prime near 1e9
    ["riesz", "999999937", "--tau", "1"],
    ["integral", "999999937", "--kappa", "-2"],
    ["riesz", "4.2e6", "--tau", "0.5"],
    # a cancelling stream over seven blocks, 95 ulps off under per-block rounding
    ["riesz", "7.3e6", "--tau", "2.5"],
    # streamed integrals whose last bit the summation rule decides: a
    # cancelling one, one at kappa > 2 and one at kappa = 1/3
    ["integral", "85223.875", "--kappa", "-0.5"],
    ["integral", "4474.2", "--kappa", "2.5"],
    ["integral", "118234.775", "--kappa", "0.3333333333333333"],
    ["--T", "2000", "explicit", "1e3"],  # beyond the table: exit 3
    # refusals, each exit 2
    ["mertens", "0"],
    ["identity", "im-const", "--kappa=-inf"],
    ["identity", "jsum", "--lambda", "inf"],
    ["identity", "jsum", "--lambda", "1e300"],  # an overflow
    ["explicit", "1e3", "--tau", "1e300"],  # an overflow in math.factorial
    # s(s+1) overflows the reciprocal-zeta identity: PrecisionLoss, exit 2
    ["identity", "inv-zeta", "--s", "1e200"],
    ["identity", "a-const", "--kappa", "1e308"],
    ["identity", "zeta-real", "--kappa", "1e308"],
    # the identity's L range ends at 119: the tail reads zeta'(-2(L + 1))
    ["--L", "119", "identity", "a-const", "--kappa", "3"],
    ["--L", "120", "identity", "inv-zeta"],  # exit 2
]

# run without --zeros, so that no table height refuses them first; each exit 2
TABLELESS = [["--T", "inf", "identity", "hko", "--lambda", "1"]]


# integral_M_explicit: kappa <= 1 (zeros alone, -1 where s = kappa - 1 meets
# the trivial zero -2), 1 < kappa < 2, the simple zero of 1/zeta at kappa = 2
# and kappa > 2; x from the residues' range to the stream's; one and 40
# trivial zeros
INTEGRAL_KAPPAS = (-1.5, -1.0, 0.5, 1.0, 1.25, 1.5, 2.0, 2.5, 3.0, 4.0)
INTEGRAL_XS = (2.5, 10.5, 1000.5, 1e5 + 0.5)
INTEGRAL_LS = (1, 40)

# residue_term at l = 1 .. RESIDUE_MAX_L and residue_series at L = 0 ..
# RESIDUE_MAX_L: tau = 0 and integer tau, where 1/Gamma(1 + tau + s) has
# zeros, tau past which it is reflected (1 + tau - l < 0), and tau = 3.7,
# where 1 + tau - l is not a double
RESIDUE_TAUS = (0.0, 0.5, 1.5, 2.0, 3.0, 3.7, 7.25, 12.5)
RESIDUE_XS = (2.5, 10.5)

# gamma_ratio on the packaged column 1/2 + i gamma, as one array call and as
# scalar calls, which give the same bits: the product alone (integer tau), the
# product and the Stirling factor (tau < 11), and the Stirling factor with
# a = tau - 10 > 1 (tau = 12.5)
GAMMA_RATIO_TAUS = (1.5, 2.0, 3.0, 7.25, 10.0, 10.5, 12.5)

# zeta_and_deriv by the functional equation: real s, a trivial zero, a point
# near one, and |Im s| up to 400 on both sides of the axis; then heights
# above 400, where zeta' was refused with PrecisionLoss before it was formed
# as zeta times the log-derivative of the functional equation
FAR_LEFT = (-0.75, -9.5, -4.0, complex(-2.0, 1e-9), complex(-1.5, 8.0), complex(-5.5, 10.0),
            complex(-20.25, -3.0), complex(-40.0, 0.5), complex(-3.0, 399.0),
            complex(-0.6, -250.0), complex(-12.5, 120.0))
FAR_LEFT_HIGH = (complex(-3.0, 1000.0), complex(-1.0, 2e4), complex(-0.75, -4.9e4))
# and where |zeta| leaves the double range: PrecisionLoss
FAR_LEFT_OVERFLOW = (-281.5, -301.0, complex(-150.0, 3e4))

# find_zeros: hardy_z seeds near t = 1000; Riemann-Siegel seeds near 9800
# and 49000
FIND_WINDOWS = ((1000.0, 1003.0), (9800.0, 9803.0), (49000.0, 49001.0))
# refine_zero at EXTENDED from the 1st, 30th and 601st packaged ordinates,
# and from the ordinates find_zeros gives near 9800 and 49000, where the zeta'
# that the extended step derives from its two zeta values has the least margin
REFINE_INDICES = (0, 29, 600)
REFINE_WINDOWS = FIND_WINDOWS[1:]


def invocations(cache_dir: str):
    for cached in (False, True):
        for fmt in ("csv", "json"):
            extra = ["--cache-dir", cache_dir] if cached else []
            for command in COMMANDS:
                yield ["--zeros", "builtin", "--format", fmt, *extra, *command]
            for command in TABLELESS:
                yield ["--format", fmt, *extra, *command]


def api_rows():
    """(name, function of no arguments) for each API row."""
    table = _load_refined_builtin()
    for kappa in INTEGRAL_KAPPAS:
        for x in INTEGRAL_XS:
            for L in INTEGRAL_LS:
                yield (f"integral_M_explicit x={x!r} kappa={kappa!r} L={L}",
                       lambda x=x, kappa=kappa, L=L: integral_M_explicit(x, kappa, table, L=L))
    ls = range(1, RESIDUE_MAX_L + 1)
    for tau in RESIDUE_TAUS:
        for x in RESIDUE_XS:
            yield (f"residue_term x={x!r} tau={tau!r} l=1..{RESIDUE_MAX_L}",
                   lambda x=x, tau=tau: [residue_term(l, x, tau) for l in ls])
            yield (f"residue_series x={x!r} tau={tau!r} L=0..{RESIDUE_MAX_L}",
                   lambda x=x, tau=tau: [residue_series(x, tau, L) for L in range(len(ls) + 1)])
    rhos = table.gammas * 1j + 0.5
    for tau in GAMMA_RATIO_TAUS:
        yield (f"gamma_ratio tau={tau!r} array",
               lambda tau=tau: gamma_ratio(rhos, tau).tolist())
        yield (f"gamma_ratio tau={tau!r} scalar",
               lambda tau=tau: [gamma_ratio(s, tau) for s in rhos.tolist()])
    yield (f"trivial_zero_data zeta_prime n=1..{TRIVIAL_ZERO_MAX_N}",
           lambda: [trivial_zero_data(n).zeta_prime for n in range(1, TRIVIAL_ZERO_MAX_N + 1)])
    yield ("log_gamma 1/4 + i gamma/2",
           lambda: [log_gamma(complex(0.25, g / 2)) for g in table.gammas.tolist()])
    for name, points in (("FAR_LEFT", FAR_LEFT), ("FAR_LEFT_HIGH", FAR_LEFT_HIGH),
                         ("FAR_LEFT_OVERFLOW", FAR_LEFT_OVERFLOW)):
        yield (f"zeta_and_deriv {name}",
               lambda points=points: [_value_or_error(zeta_and_deriv, s) for s in points])
    for a, b in FIND_WINDOWS:
        yield f"find_zeros t={a!r}..{b!r}", lambda a=a, b=b: _records(find_zeros(a, b))
    gammas = load_builtin().gammas
    for i in REFINE_INDICES:
        yield (f"refine_zero #{i + 1} EXTENDED",
               lambda g=float(gammas[i]): _records([refine_zero(g, EXTENDED)]))
    for a, b in REFINE_WINDOWS:
        for g in find_zeros(a, b).gammas.tolist():
            yield f"refine_zero t={g!r} EXTENDED", lambda g=g: _records([refine_zero(g, EXTENDED)])


def _value_or_error(call, *args):
    """call(*args) as a list, or the name of the MrlError it raises."""
    try:
        return list(call(*args))
    except MrlError as error:
        return type(error).__name__


def _records(records) -> list:
    """The ordinate and the real and imaginary parts of zeta' of each record."""
    return [[r.gamma, r.zeta_prime.real, r.zeta_prime.imag] for r in records]


def _hexed(value) -> str:
    """float.hex of every float in value (a float, complex, list or dict), repr
    of the rest."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, complex):
        return f"({value.real.hex()}, {value.imag.hex()})"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{k}: {_hexed(v)}" for k, v in value.items()) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(map(_hexed, value)) + "]"
    return repr(value)


def _hash_lines(lines) -> str:
    """Print the hash of each (text, name) pair's text, then its name; return
    the SHA-256 of the printed lines."""
    total = hashlib.sha256()
    for text, name in lines:
        line = f"{hashlib.sha256(text.encode()).hexdigest()[:16]} {name}"
        total.update(line.encode() + b"\n")
        print(line)
    return total.hexdigest()


def cli_lines():
    with tempfile.TemporaryDirectory() as cache_dir:
        for argv in invocations(cache_dir):
            out = io.StringIO()
            with contextlib.redirect_stderr(io.StringIO()):
                code = main(argv, out)
            shown = " ".join("CACHE" if a == cache_dir else a for a in argv)
            yield f"{code}\n{out.getvalue()}", shown


def api_lines():
    for name, call in api_rows():
        yield _hexed(call()), name


def versions() -> str:
    """The first line of the output: what the values may depend on."""
    return (f"versions python {platform.python_version()} numpy {np.__version__}"
            f" mpmath {mpmath.__version__}")


def main_hash() -> int:
    print(versions())
    print(f"total {_hash_lines(cli_lines())}")
    print(f"api total {_hash_lines(api_lines())}")
    return 0


if __name__ == "__main__":
    sys.exit(main_hash())
