"""Command-line surface: configuration, cached resources, report emission.

Layout::

    mrl [--zeros SRC] [--cache-dir DIR] [--precision MODE] [--format FMT]
        [--T HEIGHT] [--L TERMS] COMMAND ...

Commands: ``mertens``, ``riesz``, ``integral`` (scalar wrappers over the
sieve), ``explicit`` (spectral-side rows), ``identity`` (zero-sum identity
reports), ``scan`` (grid scans as CSV).

Global options fall back to environment variables with the ``MRL_`` prefix
(``MRL_ZEROS``, ``MRL_CACHE_DIR``, ``MRL_PRECISION``, ``MRL_FORMAT``,
``MRL_T``, ``MRL_L``) and then to built-in defaults.  ``--zeros`` accepts a
plain-text ordinate file or the literal ``builtin`` for the packaged table.

Exit codes: 0 success; 2 argument, domain, or computation error (an
overflow or a division by zero included); 3 a zero table is required but
missing (or does not reach the requested height); 4 unsupported moment
exponent.

Float formatting everywhere is the shortest round-trip representation, so
identical inputs produce byte-identical output.  All computation is
sequential and deterministic; the workloads are desk-scale, so no worker
pools are spawned and output order never depends on scheduling.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

from .errors import (
    MissingZeros,
    MrlError,
    ParseError,
    UnsupportedLambda,
)
from .explicit import compare_direct_explicit, explicit_M_tau
from .kernel import DOUBLE, EXTENDED, Precision, _check_count, _check_finite
from .moebius import (
    CheckpointCache,
    RieszQuery,
    TauSchedule,
    density_S,
    divim_sign_changes,
    integral_M,
    mertens,
    riesz_mean_direct,
    tau_regime_scan,
)
from .zeros import (
    ZeroTable,
    _load_refined_builtin,
    builtin_zeros_path,
    import_zeros,
    refine_table,
)
from . import zerosums as zs
from .zerosums import ZeroSumReport

__all__ = [
    "RunConfig",
    "main",
    "run",
    "build_parser",
    "report_to_json_dict",
    "report_from_json_dict",
]

_CACHE_VERSION = "v1"

_ENV_PREFIX = "MRL_"

_EXPLICIT_COLUMNS = (
    "x",
    "tau",
    "T",
    "L",
    "direct",
    "explicit",
    "abs_diff",
    "error_estimate",
)


@dataclass(frozen=True)
class RunConfig:
    """Resolved global options for one invocation."""

    zeros_path: str | None = None
    cache_dir: str | None = None
    precision_mode: str = "double"
    default_T: float = zs.DEFAULT_T
    default_L: int = zs.DEFAULT_L
    output_format: str = "csv"

    def __post_init__(self) -> None:
        if self.precision_mode not in ("double", "extended"):
            raise MrlError(f"unknown precision mode {self.precision_mode!r}")
        if self.output_format not in ("csv", "json"):
            raise MrlError(f"unknown output format {self.output_format!r}")
        if not self.default_T > 0:
            raise MrlError(f"default_T must be positive, got {self.default_T}")
        _check_count(self.default_L, "default_L", 1)

    @property
    def precision(self) -> Precision:
        return EXTENDED if self.precision_mode == "extended" else DOUBLE


def _env(name: str) -> str | None:
    return os.environ.get(_ENV_PREFIX + name)


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    zeros = args.zeros if args.zeros is not None else _env("ZEROS")
    cache_dir = args.cache_dir if args.cache_dir is not None else _env("CACHE_DIR")
    precision = args.precision if args.precision is not None else (
        _env("PRECISION") or "double"
    )
    out_format = args.format if args.format is not None else (_env("FORMAT") or "csv")
    t_raw = args.T if args.T is not None else _env("T")
    l_raw = args.L if args.L is not None else _env("L")
    return RunConfig(
        zeros_path=zeros,
        cache_dir=cache_dir,
        precision_mode=str(precision),
        default_T=float(t_raw) if t_raw is not None else zs.DEFAULT_T,
        default_L=int(l_raw) if l_raw is not None else zs.DEFAULT_L,
        output_format=str(out_format),
    )


# ---------------------------------------------------------------------------
# Cached resources
# ---------------------------------------------------------------------------


def _cache_dir_path(cfg: RunConfig) -> Path | None:
    if cfg.cache_dir is None:
        return None
    p = Path(cfg.cache_dir)
    p.mkdir(parents=True, exist_ok=True)
    return p


def _load_table(cfg: RunConfig) -> ZeroTable:
    """Load, refine, and (when a cache dir is set) persist the zero table.

    The refined binary is keyed by the content hash of the source ordinates
    plus the cache format version and precision mode, so an edited source
    file can never be served stale.  On a cache miss, ``builtin`` at double
    precision is read from the packaged refined table (the same bytes as
    refining the packaged ordinates); extended precision and user files are
    refined.
    """
    if cfg.zeros_path is None:
        raise MissingZeros(
            "a zero table is required: pass --zeros PATH or --zeros builtin "
            "(or set MRL_ZEROS)"
        )
    src = builtin_zeros_path() if cfg.zeros_path == "builtin" else Path(cfg.zeros_path)
    try:
        blob = src.read_bytes()
    except OSError as exc:
        raise MissingZeros(f"zero table source {src} unreadable: {exc}") from exc
    digest = hashlib.sha256(
        blob + f"|{_CACHE_VERSION}|{cfg.precision_mode}".encode()
    ).hexdigest()[:16]
    cache_root = _cache_dir_path(cfg)
    cached = cache_root / f"zeros-{digest}.ztbl" if cache_root else None
    table: ZeroTable | None = None
    if cached is not None and cached.exists():
        try:
            table = ZeroTable.load(cached)
        except ParseError:
            table = None
    if table is None:
        if cfg.zeros_path == "builtin" and cfg.precision.is_double:
            table = _load_refined_builtin()
        else:
            table = refine_table(import_zeros(src), precision=cfg.precision)
        if cached is not None:
            table.save(cached)
    table.require_height(cfg.default_T)
    return table


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------


def _fmt_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _emit_rows(rows: list[dict], columns, cfg: RunConfig, out) -> None:
    if cfg.output_format == "json":
        payload = [{c: _jsonify(row.get(c)) for c in columns} for row in rows]
        print(json.dumps(payload), file=out)
        return
    print(",".join(columns), file=out)
    for row in rows:
        print(",".join(_fmt_cell(row.get(c)) for c in columns), file=out)


def _emit_scalar(value, cfg: RunConfig, out, **params) -> None:
    if cfg.output_format == "json":
        print(json.dumps({**{k: _jsonify(v) for k, v in params.items()},
                          "value": _jsonify(value)}), file=out)
    else:
        print(_fmt_cell(value), file=out)


def _jsonify(v):
    if isinstance(v, complex):
        return {"re": v.real, "im": v.imag}
    if isinstance(v, dict):
        return {str(k): _jsonify(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonify(x) for x in v]
    if isinstance(v, float) and not math.isfinite(v):
        return repr(v)  # JSON has no inf/nan; emit the literal string
    return v


def _unjsonify(v):
    if isinstance(v, dict):
        if set(v.keys()) == {"re", "im"}:
            return complex(v["re"], v["im"])
        return {k: _unjsonify(x) for k, x in v.items()}
    if isinstance(v, list):
        return [_unjsonify(x) for x in v]
    if isinstance(v, str) and v in ("inf", "-inf", "nan"):
        return float(v)
    return v


def report_to_json_dict(report: ZeroSumReport) -> dict:
    """Serialize a report to the {kind, params, value, trace, residual} schema."""
    return {
        "kind": report.kind,
        "params": _jsonify(report.parameters),
        "value": _jsonify(report.value),
        "trace": [[c, _jsonify(v)] for c, v in report.partial_trace],
        "residual": _jsonify(report.residual),
    }


def report_from_json_dict(d: dict) -> ZeroSumReport:
    """Re-parse the JSON schema back into a report (round-trip contract)."""
    return ZeroSumReport(
        kind=d["kind"],
        parameters=_unjsonify(d["params"]),
        value=_unjsonify(d["value"]),
        partial_trace=tuple((float(c), _unjsonify(v)) for c, v in d["trace"]),
        residual=_unjsonify(d["residual"]),
    )


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_mertens(args, cfg: RunConfig, out) -> int:
    """M(x); with --cache-dir, read from and, on a miss, added to the
    checkpoint file mertens-v1.chk, which no other command opens; a hit, or
    M(1), leaves it unwritten.  A file that fails to load is replaced."""
    root = _cache_dir_path(cfg)
    path = root / f"mertens-{_CACHE_VERSION}.chk" if root else None
    cache = CheckpointCache()
    if path is not None and path.exists():
        try:
            cache = CheckpointCache.load(path)
        except ParseError:
            pass
    known = len(cache)
    value = mertens(math.floor(Fraction(args.x)), cache)
    if path is not None and len(cache) > known:
        cache.save(path)
    _emit_scalar(value, cfg, out, command="mertens", x=float(args.x))
    return 0


def _cmd_riesz(args, cfg: RunConfig, out) -> int:
    value = riesz_mean_direct(RieszQuery(x=float(args.x), tau=args.tau))
    _emit_scalar(value, cfg, out, command="riesz", x=float(args.x), tau=args.tau)
    return 0


def _cmd_integral(args, cfg: RunConfig, out) -> int:
    value = integral_M(float(args.x), args.kappa)
    _emit_scalar(
        value, cfg, out, command="integral", x=float(args.x), kappa=args.kappa
    )
    return 0


def _cmd_explicit(args, cfg: RunConfig, out) -> int:
    table = _load_table(cfg)
    T, L = cfg.default_T, cfg.default_L
    if args.compare:
        rows = compare_direct_explicit([float(args.x)], args.tau, table, T, L)
    else:
        rows = [explicit_M_tau(float(args.x), args.tau, table, T, L).row()]
    _emit_rows(rows, _EXPLICIT_COLUMNS, cfg, out)
    return 0


def _cmd_identity(args, cfg: RunConfig, out) -> int:
    kind = args.kind
    T, L = cfg.default_T, cfg.default_L
    if kind == "inv-zeta":
        report = zs.inv_zeta_identity(complex(args.s), _load_table(cfg), T, L)
    elif kind == "a-const":
        report = zs.a_constant_report(args.kappa, _load_table(cfg), T, L)
    elif kind == "zeta-real":
        report = zs.zeta_eq_real_report(args.kappa, _load_table(cfg), T, L)
    elif kind == "swmh":
        report = zs.swmh_report(args.x, _load_table(cfg), T)
    elif kind == "im-const":
        report = zs.im_constants(args.kappa, _load_table(cfg), T)
    elif kind == "jsum":
        report = zs.j_lambda(_load_table(cfg), args.lam, T)
    elif kind == "hko":
        table = _load_table(cfg) if cfg.zeros_path is not None else None
        report = zs.hko_report(
            args.lam, T, table, args.prime_cutoff, args.g_terms
        )
    else:  # pragma: no cover - argparse restricts choices
        raise MrlError(f"unknown identity kind {kind!r}")
    print(json.dumps(report_to_json_dict(report)), file=out)
    return 0


def _cmd_scan(args, cfg: RunConfig, out) -> int:
    kind = args.kind
    if kind == "density":
        value = density_S(args.X)
        rows = [{"X": float(args.X), "density": value}]
        columns = ("X", "density")
    elif kind == "divIM-sign":
        xs = divim_sign_changes(args.X, kappa=args.kappa)
        rows = [
            {"index": i + 1, "x": x, "kappa": args.kappa}
            for i, x in enumerate(xs)
        ]
        columns = ("index", "x", "kappa")
    elif kind == "tau-regime":
        _check_finite(args.x_start, "--x-start")
        _check_finite(args.x_stop, "--x-stop")
        if args.points < 1 or args.x_stop < args.x_start or args.x_start <= 0:
            raise MrlError(
                f"empty or invalid range: start={args.x_start} "
                f"stop={args.x_stop} points={args.points}"
            )
        if args.points == 1:
            grid = [float(args.x_start)]
        else:
            lo, hi = math.log(args.x_start), math.log(args.x_stop)
            grid = [
                math.exp(lo + (hi - lo) * i / (args.points - 1))
                for i in range(args.points)
            ]
        schedule = TauSchedule(kind=args.schedule, c=args.c)
        rows = tau_regime_scan(grid, schedule)
        columns = (
            "x",
            "schedule",
            "c",
            "status",
            "tau",
            "m_tau",
            "m_over_sqrt",
            "m_tau32_over_sqrt",
            "growth_factor",
        )
    else:  # pragma: no cover - argparse restricts choices
        raise MrlError(f"unknown scan kind {kind!r}")
    _emit_rows(rows, columns, cfg, out)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The shared parser, built once per process; every ``main`` call parses
    with it.  Environment fallbacks are resolved per call (_resolve_config)."""
    parser = argparse.ArgumentParser(
        prog="mrl",
        description=(
            "Exact Mertens/Riesz-mean sieving cross-verified against sums "
            "over zeta zeros"
        ),
    )
    parser.add_argument("--zeros", help="ordinate file, or 'builtin' for the packaged table")
    parser.add_argument("--cache-dir",
                        help="directory for refined zero tables and the M(x) of 'mrl mertens'")
    parser.add_argument("--precision", choices=("double", "extended"))
    parser.add_argument("--format", choices=("csv", "json"))
    parser.add_argument("--T", type=float, help="zero-sum truncation height")
    parser.add_argument("--L", type=int, help="trivial-zero series truncation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mertens", help="summatory Moebius function M(x)")
    p.add_argument("x")
    p.set_defaults(handler=_cmd_mertens)

    p = sub.add_parser("riesz", help="Riesz-weighted mean M_tau(x)")
    p.add_argument("x")
    p.add_argument("--tau", type=float, default=0.0)
    p.set_defaults(handler=_cmd_riesz)

    p = sub.add_parser("integral", help="integral of M(u) u^-kappa over [1, x]")
    p.add_argument("x")
    p.add_argument("--kappa", type=float, default=0.0)
    p.set_defaults(handler=_cmd_integral)

    p = sub.add_parser("explicit", help="spectral-side evaluation rows")
    p.add_argument("x")
    p.add_argument("--tau", type=float, default=1.0)
    p.add_argument("--compare", action="store_true",
                   help="also sieve the direct value and report abs_diff")
    p.set_defaults(handler=_cmd_explicit)

    p = sub.add_parser("identity", help="zero-sum identity reports (JSON)")
    p.add_argument(
        "kind",
        choices=("inv-zeta", "a-const", "zeta-real", "swmh", "im-const", "jsum", "hko"),
    )
    p.add_argument("--s", default="3", help="evaluation point for inv-zeta (real or complex)")
    p.add_argument("--kappa", type=float, default=2.0)
    p.add_argument("--x", type=float, default=1e6)
    p.add_argument("--lambda", dest="lam", type=float, default=0.0)
    p.add_argument("--prime-cutoff", type=int, default=zs.DEFAULT_PRIME_CUTOFF)
    p.add_argument("--g-terms", type=int, default=zs.DEFAULT_G_TERMS)
    p.set_defaults(handler=_cmd_identity)

    p = sub.add_parser("scan", help="grid scans emitted as CSV rows")
    p.add_argument("kind", choices=("tau-regime", "density", "divIM-sign"))
    p.add_argument("--X", type=float, default=1e6,
                   help="upper end for density / divIM-sign scans")
    p.add_argument("--kappa", type=float, default=1.5)
    p.add_argument("--x-start", type=float, default=1e2)
    p.add_argument("--x-stop", type=float, default=1e6)
    p.add_argument("--points", type=int, default=9)
    p.add_argument(
        "--schedule", choices=("constant", "inv-log", "iterated-log"),
        default="constant",
    )
    p.add_argument("--c", type=float, default=1.0)
    p.set_defaults(handler=_cmd_scan)
    return parser


def run() -> None:  # pragma: no cover - thin process wrapper
    """Console-script entry point: run ``main`` and exit with its code."""
    sys.exit(main())


def main(argv=None, out=None) -> int:
    """Entry point; returns the process exit code."""
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve_config(args)
        return args.handler(args, cfg, out)
    except UnsupportedLambda as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except MissingZeros as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (MrlError, ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
