"""mrl benchmark: two seeded workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout (the program is imported from src/):

    python3 perfbench/run.py --workload cold --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

For each workload this starts, one after another and each in a fresh
interpreter: one untimed ``import mrl`` (so later imports find compiled
bytecode), three set-up probes (``setup_s`` is their median), then the
workload process, which runs the jobs and checks their outputs.  The last
line of stdout is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``, the end-to-end metrics with ``--trace 0`` and the
per-layer metrics with ``--trace 1``.  A fuller record of the run (machine,
versions, revision, sample counts, oracle verdicts) goes to
``.perfbench_out/`` in the checkout, with the spans of a traced run.

The number of jobs is fixed by ``--seconds`` and a per-workload nominal job
time, not by the clock, so every run of a seed does the same work and the
sample counts behind each percentile do not depend on machine speed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import LAYER_UNITS

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench_out"

WORKLOADS = ("cold", "warm")

# Job wall time on a 2-core Xeon VM at the commit that introduced the
# benchmark, in its slower (more common) state; it only converts --seconds
# into a job count.
NOMINAL_JOB_S = {"cold": 4.2, "warm": 2.6}

PROBES = 3
DEADLINE_S = 170.0

END_TO_END_UNITS = {"job_s": "s", "op_ms.p50": "ms", "op_ms.tail": "ms", "setup_s": "s",
                    "peak_rss_mb": "MB"}


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _child(argv: list[str], env: dict, deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("out of time before starting " + " ".join(argv))
    proc = subprocess.run([sys.executable, *argv], env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited with {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else {}


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, n): the highest percentile with at least ten
    samples beyond it; with ten or fewer samples, the maximum."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def machine() -> dict:
    info = {"nproc": len(os.sched_getaffinity(0)), "platform": platform.platform()}
    try:
        cpu = Path("/proc/cpuinfo").read_text()
        info["cpu"] = next(line.split(":", 1)[1].strip() for line in cpu.splitlines()
                           if line.startswith("model name"))
        mem = Path("/proc/meminfo").read_text().split()
        info["mem_total_mb"] = int(mem[mem.index("MemTotal:") + 1]) / 1024.0
    except (OSError, StopIteration, ValueError):
        pass
    return info


def git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() or None


def run_workload(name: str, args, env: dict, deadline: float) -> dict:
    common = ["--workload", name, "--seed", str(args.seed), "--out-dir", str(OUT_DIR)]
    if args.tiny:
        common.append("--tiny")
    worker = str(HERE / "worker.py")
    _child(["-c", "import mrl"], env, deadline)
    probes = [_child([worker, "probe", *common], env, deadline)
              for _ in range(1 if args.tiny else PROBES)]
    src = str(ROOT / "src")
    for p in probes:
        if not p["mrl_file"].startswith(src):
            raise RuntimeError(f"imported mrl from {p['mrl_file']}, not from {src}")
    jobs = 2 if args.tiny else max(2, round(args.seconds / NOMINAL_JOB_S[name]))
    res = _child([worker, "run", *common, "--jobs", str(jobs), "--trace", str(args.trace)],
                 env, deadline)

    setup = [p["import_s"] + p["setup_s"] for p in probes]
    import_s = statistics.median(p["import_s"] for p in probes)
    value, pct, n = tail(res["op_ms"])
    res["end_to_end"] = {
        "job_s": statistics.median(res["job_s"]),
        "op_ms.p50": statistics.median(res["op_ms"]),
        "op_ms.tail": value,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    res["fail_ratio"] = res["failed"] / res["attempted"]
    res["tail"] = {"percentile": pct, "samples": n, "beyond": 10 if n > 10 else 0}
    res["probes"] = probes
    if args.trace:
        layers = res["layers"]
        layers["cli.import_s"] = import_s
        fills = [p["setup_parts"].get("fill_s", 0.0) for p in probes]
        layers["moebius.fill_s"] = statistics.median(fills)
        layers["trace_overhead"] = res["trace_overhead"]
    return res


def report(res: dict, trace: bool) -> None:
    print(f"== {res['workload']}  seed {res['seed']}  jobs {res['jobs']}  "
          f"ops/job {res['ops_per_job']}  {res['op_counts']}")
    e2e = res["end_to_end"]
    for key, unit in END_TO_END_UNITS.items():
        extra = ""
        if key == "op_ms.tail":
            t = res["tail"]
            extra = f"  (p{t['percentile']:.1f}: {t['beyond']} of {t['samples']} samples beyond)"
        print(f"  {key:<12} {e2e[key]:>12.6g} {unit}{extra}")
    print(f"  {'fail_ratio':<12} {res['fail_ratio']:>12.6g} 1  "
          f"({res['failed']} of {res['attempted']} ops)")
    for msg, count in res["errors"].items():
        print(f"    x{count} {msg}")
    if trace:
        print(f"  trace_overhead {res['trace_overhead']:+.3f}  spans {res['spans']}  "
              f"counts repeat: {res['counts_repeat']}")
        for key, unit in LAYER_UNITS.items():
            print(f"    {key:<40} {res['layers'][key]:>14.6g} {unit}")


def metrics_of(res: dict, trace: bool) -> dict:
    if trace:
        return {k: {"value": res["layers"][k], "unit": u} for k, u in LAYER_UNITS.items()}
    return {k: {"value": res["end_to_end"][k], "unit": u} for k, u in END_TO_END_UNITS.items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="shrink every workload to seconds (smoke test)")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "mrl" / "__init__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'mrl'} is missing",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    OUT_DIR.mkdir(exist_ok=True)
    env = child_env()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    context = {"machine": machine(), "revision": git_revision(), "seed": args.seed,
               "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny}
    results = []
    for name in names:
        res = run_workload(name, args, env, deadline if len(names) == 1 else
                           time.monotonic() + DEADLINE_S)
        res.update(context)
        record = OUT_DIR / f"{name}-seed{args.seed}-trace{args.trace}.json"
        record.write_text(json.dumps(res, indent=1, default=float))
        report(res, bool(args.trace))
        results.append(res)

    if len(results) == 1:
        metrics = metrics_of(results[0], bool(args.trace))
    else:
        metrics = {f"{r['workload']}/{k}": v for r in results
                   for k, v in metrics_of(r, bool(args.trace)).items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
