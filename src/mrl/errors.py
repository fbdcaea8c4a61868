"""Exception hierarchy for the mrl package.

Every error raised by this package derives from :class:`MrlError`, so callers
can catch one base class at API boundaries (the CLI maps subclasses to exit
codes).
"""

from __future__ import annotations


class MrlError(Exception):
    """Base class for all errors raised by this package."""


class OutOfRange(MrlError):
    """An argument lies outside the supported numeric range."""


class DomainError(MrlError):
    """An argument lies outside the mathematical domain of the operation."""


class PoleAtOne(MrlError):
    """The zeta function was evaluated at its pole s = 1."""


class PoleAtNonpositiveInteger(MrlError):
    """A gamma factor was evaluated at a nonpositive integer pole."""


class PrecisionLoss(MrlError):
    """The requested accuracy cannot be met by the selected precision."""


class ParseError(MrlError):
    """A zero table or checkpoint file is malformed."""


class NotAscending(MrlError):
    """Zero ordinates must be strictly increasing."""


class NoConvergence(MrlError):
    """An iterative refinement failed to converge."""


class MultipleZeroFlag(MrlError):
    """|zeta'| at a refined zero is suspiciously small (possible multiple zero)."""


class ScheduleUndefined(MrlError):
    """A tau schedule is undefined at the requested x."""


class SingularPoint(MrlError):
    """An identity or constant is singular at the requested parameter."""


class PoleAtKappaOne(SingularPoint):
    """The averaged-Mertens constant has a pole at kappa = 1."""


class UnsupportedLambda(MrlError):
    """The moment exponent lies outside the supported set."""


class MissingZeros(MrlError):
    """An operation requiring a zero table was invoked without one."""
