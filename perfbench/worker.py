"""Workload process for run.py; prints one JSON object on stdout.

``probe`` times ``import mrl`` and the workload's set-up in this fresh
interpreter.  ``run`` does the set-up, runs the jobs as one closed loop
with one client (each operation starts when the previous one returned),
then checks the first job's outputs against the workload's oracle.
With ``--trace 1`` untraced and traced jobs alternate; the traced ones
give the per-layer metrics and the tracing overhead.

run.py starts this file with PYTHONPATH set to the checkout's src/ and
BLAS and OpenMP pinned to one thread.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path


def _args(argv):
    p = argparse.ArgumentParser()
    p.add_argument("mode", choices=("probe", "run"))
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--out-dir", required=True)
    return p.parse_args(argv)


def probe(args, workdir: Path) -> dict:
    t0 = time.perf_counter()
    import mrl

    t1 = time.perf_counter()
    import workloads

    wl = workloads.make(args.workload, args.seed, args.tiny, workdir)
    t2 = time.perf_counter()
    parts = wl.setup()
    t3 = time.perf_counter()
    return {"import_s": t1 - t0, "setup_s": t3 - t2, "setup_parts": parts, "mrl_file": mrl.__file__}


def _run_job(ops, tracer, job_no):
    """Run one job's ops in order; returns (wall seconds, [(ms, out, error, span)])."""
    results = []
    if tracer is not None:
        tracer.phase = job_no
        tracer.install()
    start = time.perf_counter()
    try:
        for op in ops:
            span = tracer.open("op." + op.kind) if tracer is not None else None
            t0 = time.perf_counter()
            try:
                out, err = op.call(), None
            except Exception as exc:  # a failed operation is counted, the loop goes on
                out, err = None, f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            if span is not None:
                tracer.close(span, raised=err is not None)
            results.append(((t1 - t0) * 1e3, out, err, span))
        wall = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    return wall, results


def run(args, workdir: Path) -> dict:
    import mpmath
    import numpy

    import mrl
    import spans
    import workloads

    wl = workloads.make(args.workload, args.seed, args.tiny, workdir)
    tracer = spans.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    t0 = time.perf_counter()
    try:
        wl.setup()
    finally:
        if tracer is not None:
            tracer.uninstall()
    setup_s = time.perf_counter() - t0

    # --trace 1 alternates untraced and traced jobs, so both see the same
    # machine state; tracing every job of a long run would only add spans.
    if tracer is not None:
        pairs = max(1, min(args.jobs // 2, 8))
        schedule = [False, True] * pairs
    else:
        schedule = [False] * args.jobs

    kinds: list[str] = []
    reference: list = []
    failed: set[tuple[int, int]] = set()
    errors: dict[str, int] = {}
    job_s = {False: [], True: []}
    op_ms: list[float] = []
    counters: dict = {}
    for job_no, traced in enumerate(schedule, 1):
        ops = wl.job()
        wall, results = _run_job(ops, tracer if traced else None, job_no)
        job_s[traced].append(wall)
        if job_no == 1:
            kinds = [op.kind for op in ops]
        if not counters:
            counters = wl.counters()
        for k, (op, (ms, out, err, span)) in enumerate(zip(ops, results)):
            if err is not None:
                failed.add((job_no, k))
                errors[f"{op.kind}: {err}"] = errors.get(f"{op.kind}: {err}", 0) + 1
                kept = None
            else:
                kept = op.keep(out)
                if not traced:
                    op_ms.append(ms)
                if span is not None:
                    span[6] = op.work(kept)
            if job_no == 1:
                reference.append(kept)
            elif kept != reference[k]:
                failed.add((job_no, k))
                errors[f"{op.kind}: output differs from job 1"] = 1 + errors.get(
                    f"{op.kind}: output differs from job 1", 0)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    t0 = time.perf_counter()
    verdicts = wl.check(reference)
    oracle_s = time.perf_counter() - t0
    wrong = [(k, v) for k, v in enumerate(verdicts) if v is not None]
    for k, verdict in wrong:
        failed.update((j, k) for j in range(1, len(schedule) + 1))
        errors[f"{kinds[k]}: {verdict}"] = len(schedule)

    out = {
        "workload": args.workload,
        "seed": args.seed,
        "jobs": len(schedule),
        "ops_per_job": len(kinds),
        "op_counts": {k: kinds.count(k) for k in dict.fromkeys(kinds)},
        "attempted": len(schedule) * len(kinds),
        "failed": len(failed),
        "correct": not wrong,
        "errors": errors,
        "job_s": job_s[False],
        "op_ms": op_ms,
        "peak_rss_mb": peak_rss_mb,
        "worker_setup_s": setup_s,
        "oracle_s": oracle_s,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "mpmath": mpmath.__version__, "mrl": mrl.__version__},
    }
    if tracer is not None:
        phases = spans.counts_by_phase(tracer.spans)
        job_counts = [phases.get(j, {}) for j, t in enumerate(schedule, 1) if t]
        spans_path = Path(args.out_dir) / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        out.update({
            "layers": spans.layer_metrics(tracer.spans, counters),
            "traced_job_s": job_s[True],
            "trace_overhead": statistics.median(job_s[True]) / statistics.median(job_s[False]) - 1.0,
            "counts_repeat": all(c == job_counts[0] for c in job_counts),
            "spans": len(tracer.spans),
            "spans_file": str(spans_path),
        })
    return out


def main(argv=None) -> int:
    args = _args(argv)
    out_dir = Path(args.out_dir)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.mode}-", dir=out_dir))
    try:
        result = probe(args, workdir) if args.mode == "probe" else run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result, default=float))
    return 0


if __name__ == "__main__":
    sys.exit(main())
