"""In-memory spans around calls into mrl's public functions.

A ``Tracer`` replaces selected module attributes with wrappers that record
one span per call.  The attributes are the names a calling module looks up
at call time (``mrl.explicit.gamma_ratio`` is the kernel function as
``explicit`` sees it), so the package itself is not edited.  A span is a
list ``[name, start_ns, end_ns, parent, phase, raised, attr]``: ``parent``
is the index of the enclosing span or -1, ``phase`` is 0 for set-up and k
for the k-th job, and ``attr`` holds the few argument facts the per-layer
metrics need (zeta height and precision, integers requested, zeros summed).

``layer_metrics`` turns the spans into the per-layer metrics listed in
``BENCHMARK.json``.  Counts cover set-up plus the first traced job, so they
repeat exactly for a given seed; times are medians over every traced job.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
from time import perf_counter_ns

MODULES = ("cli", "moebius", "kernel", "zeros", "explicit", "zerosums")

# zerosums.report_ms.<kind>: the public function behind each report kind.
REPORT_FUNCTIONS = {
    "inv_zeta": "zerosums.inv_zeta_identity",
    "a_const": "zerosums.a_constant_report",
    "zeta_real": "zerosums.zeta_eq_real_report",
    "im_const": "zerosums.im_constants",
    "j_lambda": "zerosums.j_lambda",
    "hko": "zerosums.hko_report",
}

# Op kinds that stream mu from n = 1 (moebius.stream_ns_per_int).
STREAM_KINDS = ("riesz", "integral", "density", "scan", "mertens")

# zeta heights are banded by decade around 1e3 and 1e4.
ZETA_BANDS = {"t1e3": (300.0, 3000.0), "t1e4": (3000.0, 30000.0)}

# Every per-layer metric with its unit, in report order.
LAYER_UNITS = {
    "moebius.stream_ns_per_int": "ns",
    "moebius.riesz_ms.p50": "ms",
    "moebius.integral_ms.p50": "ms",
    "moebius.density_ms.p50": "ms",
    "moebius.tau_scan_s": "s",
    "moebius.checkpoints_written": "count",
    "moebius.lookup_ms.p50": "ms",
    "moebius.resume_ints.p50": "ints",
    "moebius.anchor_hit_ratio": "1",
    "moebius.fill_s": "s",
    "cli.main_ms.p50": "ms",
    "cli.self_ms.p50": "ms",
    "cli.import_s": "s",
    "kernel.gamma_ratio_calls": "count",
    "kernel.gamma_ratio_us": "us",
    "kernel.zeta_calls": "count",
    "kernel.zeta_ms.t1e3": "ms",
    "kernel.zeta_ms.t1e4": "ms",
    "zeros.newton_iters_per_zero.double": "1",
    "zeros.newton_iters_per_zero.extended": "1",
    "zeros.refine_ms_per_zero.double": "ms",
    "zeros.refine_ms_per_zero.extended": "ms",
    "zeros.hardy_z_calls": "count",
    "zeros.find_ms_per_zero": "ms",
    "explicit.eval_ms.p50": "ms",
    "explicit.zero_sum_us_per_zero": "us",
    "explicit.residue_ms.p50": "ms",
    **{f"zerosums.report_ms.{kind}": "ms" for kind in REPORT_FUNCTIONS},
    "zerosums.us_per_zero": "us",
    **{f"{mod}.{stat}": unit for mod in MODULES
       for stat, unit in (("self_s", "s"), ("calls", "count"), ("errors", "count"))},
    "trace_overhead": "1",
}


def _bits(args, kwargs, pos):
    prec = args[pos] if len(args) > pos else kwargs.get("precision")
    return 53 if prec is None else int(prec.significand_bits)


def _zeta_attr(args, kwargs):
    return {"t": abs(complex(args[0]).imag), "bits": _bits(args, kwargs, 1)}


def _refine_attr(args, kwargs):
    return {"bits": _bits(args, kwargs, 1)}


# (module, attribute, argument facts); the span is named after the module
# that defines the function, so ``mrl.cli.mertens`` records "moebius.mertens".
BINDINGS = (
    ("mrl.cli", "main", None),
    ("mrl.cli", "mertens", None),
    ("mrl.cli", "explicit_M_tau", None),
    ("mrl.cli", "refine_table", _refine_attr),
    ("mrl.moebius", "mertens", None),
    ("mrl.moebius", "riesz_mean_direct", None),
    ("mrl.moebius", "integral_M", None),
    ("mrl.moebius", "density_S", None),
    ("mrl.moebius", "tau_regime_scan", None),
    ("mrl.explicit", "explicit_M_tau", None),
    ("mrl.explicit", "zero_sum_term", None),
    ("mrl.explicit", "residue_term", None),
    ("mrl.explicit", "gamma_ratio", None),
    ("mrl.explicit", "trivial_zero_data", None),
    ("mrl.zeros", "load_builtin", None),
    ("mrl.zeros", "refine_table", _refine_attr),
    ("mrl.zeros", "refine_zero", _refine_attr),
    ("mrl.zeros", "find_zeros", None),
    ("mrl.zeros", "verify_count", None),
    ("mrl.zeros", "hardy_z", None),
    ("mrl.zeros", "zeta", _zeta_attr),
    ("mrl.zeros", "zeta_and_deriv", _zeta_attr),
    ("mrl.zerosums", "inv_zeta_identity", None),
    ("mrl.zerosums", "a_constant_report", None),
    ("mrl.zerosums", "zeta_eq_real_report", None),
    ("mrl.zerosums", "im_constants", None),
    ("mrl.zerosums", "j_lambda", None),
    ("mrl.zerosums", "hko_report", None),
    ("mrl.zerosums", "zeta", _zeta_attr),
)


class Tracer:
    """Span recorder; ``install`` patches the bindings, ``uninstall`` restores them."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.phase = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def open(self, name: str, attr=None) -> list:
        span = [name, perf_counter_ns(), 0, self._stack[-1] if self._stack else -1,
                self.phase, False, attr]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: list, raised: bool = False) -> None:
        span[2] = perf_counter_ns()
        span[5] = raised
        self._stack.pop()

    def _wrap(self, fn, attr_of):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name, attr_of(args, kwargs) if attr_of else None)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.close(span, raised=True)
                raise
            self.close(span)
            return out

        return traced

    def install(self) -> None:
        for mod_name, attr, attr_of in BINDINGS:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, attr_of))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(spans: list[list], extras: dict) -> dict[str, float]:
    """Per-layer metrics from the spans of set-up (phase 0) and traced jobs.

    ``extras`` carries what the workload reads of its layers from outside:
    checkpoint counts and lookup anchors.  The figures from the set-up
    probes (``cli.import_s``, ``moebius.fill_s``) and ``trace_overhead`` are
    added by run.py.  A metric whose layer did no work on this workload
    reads 0.
    """
    dur = [(s[2] - s[1]) * 1e-9 for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    self_s = [d - c for d, c in zip(dur, child)]
    phases = sorted({s[4] for s in spans if s[4] > 0})
    counted = {0, phases[0]} if phases else {0}

    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    def named(name):
        return by_name.get(name, [])

    def ops(kind):
        return [i for i in named("op." + kind) if not spans[i][5]]

    m: dict[str, float] = {}

    # moebius
    stream = [i for k in STREAM_KINDS for i in ops(k)]
    ints = sum(spans[i][6]["ints"] for i in stream)
    m["moebius.stream_ns_per_int"] = sum(dur[i] for i in stream) / ints * 1e9 if ints else 0.0
    for metric, kind in (("riesz_ms", "riesz"), ("integral_ms", "integral"),
                         ("density_ms", "density")):
        m[f"moebius.{metric}.p50"] = _median([dur[i] * 1e3 for i in ops(kind)])
    m["moebius.tau_scan_s"] = _median([dur[i] for i in ops("scan")])
    m["moebius.checkpoints_written"] = extras.get("checkpoints_written", 0)
    mains = set(named("cli.main"))
    m["moebius.lookup_ms.p50"] = _median(
        [dur[i] * 1e3 for i in named("moebius.mertens")
         if spans[i][3] in mains and spans[i][4] > 0])
    m["moebius.resume_ints.p50"] = _median(extras.get("resume_ints", []))
    m["moebius.anchor_hit_ratio"] = extras.get("anchor_hit_ratio", 0.0)

    # cli: the lookup requests
    job_mains = [i for i in mains if spans[i][4] > 0 and spans[spans[i][3]][0] == "op.lookup"]
    m["cli.main_ms.p50"] = _median([dur[i] * 1e3 for i in job_mains])
    m["cli.self_ms.p50"] = _median([self_s[i] * 1e3 for i in job_mains])

    # kernel
    gr = named("kernel.gamma_ratio")
    m["kernel.gamma_ratio_calls"] = sum(1 for i in gr if spans[i][4] in counted)
    m["kernel.gamma_ratio_us"] = _median([dur[i] * 1e6 for i in gr])
    zeta = named("kernel.zeta") + named("kernel.zeta_and_deriv")
    m["kernel.zeta_calls"] = sum(1 for i in zeta if spans[i][4] in counted)
    for band, (lo, hi) in ZETA_BANDS.items():
        m[f"kernel.zeta_ms.{band}"] = _median(
            [dur[i] * 1e3 for i in zeta
             if spans[i][6]["bits"] == 53 and lo <= spans[i][6]["t"] < hi])

    # zeros
    refines = named("zeros.refine_zero")
    calls_under = {i: 0 for i in refines}
    for i in named("kernel.zeta_and_deriv"):
        if spans[i][3] in calls_under:
            calls_under[spans[i][3]] += 1
    for label, is_double in (("double", True), ("extended", False)):
        mine = [i for i in refines if (spans[i][6]["bits"] == 53) == is_double]
        counted_mine = [i for i in mine if spans[i][4] in counted]
        m[f"zeros.newton_iters_per_zero.{label}"] = (
            sum(calls_under[i] for i in counted_mine) / len(counted_mine)
            if counted_mine else 0.0)
        m[f"zeros.refine_ms_per_zero.{label}"] = _median([dur[i] * 1e3 for i in mine])
    m["zeros.hardy_z_calls"] = sum(
        1 for i in named("zeros.hardy_z") if spans[i][4] in counted)
    finds = ops("find_zeros")
    found = sum(spans[i][6]["zeros"] for i in finds)
    m["zeros.find_ms_per_zero"] = sum(dur[i] for i in finds) / found * 1e3 if found else 0.0

    # explicit
    evals = named("explicit.explicit_M_tau")
    m["explicit.eval_ms.p50"] = _median([dur[i] * 1e3 for i in evals])
    explicit_ops = ops("explicit")
    zs_time = sum(dur[i] for i in named("explicit.zero_sum_term"))
    zs_count = sum(spans[i][6]["zeros"] for i in explicit_ops)
    m["explicit.zero_sum_us_per_zero"] = zs_time / zs_count * 1e6 if zs_count else 0.0
    residue = {i: 0.0 for i in evals}
    for i in named("explicit.residue_term"):
        if spans[i][3] in residue:
            residue[spans[i][3]] += dur[i]
    m["explicit.residue_ms.p50"] = _median([v * 1e3 for v in residue.values()])

    # zerosums: the reports requested, not the ones nested in another report
    def top_level(name):
        return [i for i in named(name) if not spans[spans[i][3]][0].startswith("zerosums.")]

    for kind, fn in REPORT_FUNCTIONS.items():
        m[f"zerosums.report_ms.{kind}"] = _median([dur[i] * 1e3 for i in top_level(fn)])
    sums = [i for kind, fn in REPORT_FUNCTIONS.items() if kind != "hko" for i in top_level(fn)]
    visited = sum(spans[i][6]["zeros"] for i in ops("identity"))
    m["zerosums.us_per_zero"] = sum(dur[i] for i in sums) / visited * 1e6 if visited else 0.0

    # per-module totals: self time over set-up plus the median job
    for mod in MODULES:
        mine = [i for name, idx in by_name.items() if name.startswith(mod + ".")
                for i in idx]
        per_phase: dict[int, float] = {}
        for i in mine:
            per_phase[spans[i][4]] = per_phase.get(spans[i][4], 0.0) + self_s[i]
        m[f"{mod}.self_s"] = per_phase.get(0, 0.0) + _median(
            [per_phase.get(p, 0.0) for p in phases])
        m[f"{mod}.calls"] = sum(1 for i in mine if spans[i][4] in counted)
        m[f"{mod}.errors"] = sum(1 for i in mine if spans[i][4] in counted and spans[i][5])
    return m


def counts_by_phase(spans: list[list]) -> dict[int, dict[str, int]]:
    """Calls per span name in each phase; traced jobs must agree exactly."""
    out: dict[int, dict[str, int]] = {}
    for s in spans:
        names = out.setdefault(s[4], {})
        names[s[0]] = names.get(s[0], 0) + 1
    return out
