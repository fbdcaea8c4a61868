"""Moebius/Riesz-mean numerics: exact sieving, zeta-zero tables, and
explicit-formula cross-verification.

Modules
-------
kernel
    Euler-Maclaurin zeta and derivative on the real axis and critical strip,
    gamma-factor ratios, Bernoulli numbers, trivial-zero data.
moebius
    Segmented Moebius sieve, sublinear power sums S_0(x) = M(x), ...,
    S_3(x), Riesz-weighted means (exact at integer tau <= 3), exact
    integrals of M and their sign-change scan, density and tau-schedule
    scans.
zeros
    Critical-line zero location (Hardy Z), refined zero tables with
    derivative values, import/export, and count verification.
explicit
    Spectral-side evaluation of the Riesz mean: truncated zero sum, residue
    series, truncation error estimate.
zerosums
    Identity reports built from sums over zeros: reciprocal-zeta values,
    analytic continuation constants, discrete moments, weak Mertens ratio,
    oscillation constants, and moment predictions.
errors
    The MrlError hierarchy every module raises.
cli
    ``mrl`` command-line interface over the above.

The modules are the API: ``from mrl import moebius; moebius.mertens(10**7)``.
"""

from . import cli, errors, explicit, kernel, moebius, zeros, zerosums

__version__ = "0.1.0"
