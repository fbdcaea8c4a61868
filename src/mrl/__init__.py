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
    series, truncation error estimate, Perron kernel quadrature check.
zerosums
    Identity reports built from sums over zeros: reciprocal-zeta values,
    analytic continuation constants, discrete moments, weak Mertens ratio,
    oscillation constants, and moment predictions.
cli
    ``mrl`` command-line interface over the above.
"""

from .errors import (
    DomainError,
    MissingZeros,
    MrlError,
    MultipleZeroFlag,
    NoConvergence,
    NotAscending,
    OutOfRange,
    ParseError,
    PoleAtKappaOne,
    PoleAtNonpositiveInteger,
    PoleAtOne,
    PrecisionLoss,
    QuadratureDiverged,
    ScheduleUndefined,
    SingularPoint,
    UnsupportedLambda,
)
from .kernel import (
    DOUBLE,
    EXTENDED,
    Precision,
    bernoulli,
    gamma_ratio,
    log_gamma,
    trivial_zero_data,
    zeta,
    zeta_and_deriv,
)
from .moebius import (
    CheckpointCache,
    MertensCheckpoint,
    RieszQuery,
    TauSchedule,
    density_S,
    divim_sign_changes,
    integral_M,
    mertens,
    riesz_mean_direct,
    riesz_recurrence_check,
    sieve_segment,
    tau_for,
    tau_regime_scan,
    weak_mertens_integral,
)
from .zeros import (
    ZeroRecord,
    ZeroTable,
    builtin_zeros_path,
    find_zeros,
    hardy_z,
    import_zeros,
    load_builtin,
    refine_table,
    refine_zero,
    verify_count,
)
from .explicit import (
    ExplicitEvaluation,
    PerronReport,
    compare_direct_explicit,
    error_estimate,
    explicit_M_tau,
    perron_kernel_check,
    perron_kernel_report,
    residue_series,
    residue_term,
    s0_residue,
    zero_sum_term,
)
from .zerosums import (
    ZeroSumReport,
    a_constant_report,
    a_lambda,
    barnes_g,
    hko_report,
    im_constants,
    integral_M_explicit,
    inv_zeta_identity,
    j_lambda,
    log_barnes_g,
    swmh_report,
    zeta_eq_real_report,
)
from .cli import RunConfig

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "MrlError", "OutOfRange", "DomainError", "PoleAtOne",
    "PoleAtNonpositiveInteger", "PrecisionLoss", "ParseError", "NotAscending",
    "NoConvergence", "MultipleZeroFlag", "QuadratureDiverged",
    "ScheduleUndefined", "SingularPoint", "PoleAtKappaOne",
    "UnsupportedLambda", "MissingZeros",
    # kernel
    "Precision", "DOUBLE", "EXTENDED", "bernoulli", "zeta", "zeta_and_deriv",
    "log_gamma", "gamma_ratio", "trivial_zero_data",
    # moebius
    "CheckpointCache", "MertensCheckpoint", "RieszQuery", "TauSchedule",
    "sieve_segment", "mertens", "riesz_mean_direct",
    "integral_M", "weak_mertens_integral", "riesz_recurrence_check",
    "divim_sign_changes", "density_S", "tau_regime_scan", "tau_for",
    # zeros
    "ZeroRecord", "ZeroTable", "hardy_z", "import_zeros",
    "builtin_zeros_path", "load_builtin", "refine_zero", "refine_table",
    "find_zeros", "verify_count",
    # explicit
    "ExplicitEvaluation", "PerronReport", "zero_sum_term", "s0_residue",
    "residue_term", "residue_series", "error_estimate", "explicit_M_tau",
    "perron_kernel_report", "perron_kernel_check", "compare_direct_explicit",
    # zerosums
    "ZeroSumReport", "j_lambda", "a_constant_report", "inv_zeta_identity",
    "zeta_eq_real_report", "swmh_report", "im_constants",
    "integral_M_explicit", "log_barnes_g", "barnes_g", "a_lambda",
    "hko_report",
    # cli
    "RunConfig",
]
