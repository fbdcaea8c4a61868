#!/usr/bin/env python3
"""Regenerate the packaged table of critical-line zero ordinates.

Locates every zero with 0 < gamma <= t_max by sign changes of Z(t) plus
Newton polishing, checks the count against the smooth counting main term,
optionally checks each line against mpmath.zetazero at 30 digits (within
5e-13, the rounding to 12 decimals, plus an ulp, and reports the worst
ordinate's distance in ulps), and writes one ordinate per line (12
decimals).

    python3 scripts/find_zeros.py --t-max 1100 --out src/mrl/data/zeros_t1100.txt --verify-mpmath
"""

import argparse
import math
import sys
import time

from mrl.zeros import GRID_STEP, find_zeros, verify_count


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--t-max", type=float, default=1100.0)
    ap.add_argument("--grid", type=float, default=GRID_STEP)
    ap.add_argument("--out", default=None, help="output path (default: stdout)")
    ap.add_argument(
        "--verify-mpmath",
        action="store_true",
        help="cross-check every ordinate against mpmath.zetazero (slow)",
    )
    args = ap.parse_args(argv)

    t0 = time.time()
    table = find_zeros(0.0, args.t_max, grid_step=args.grid)
    print(
        f"located {len(table)} zeros below {args.t_max} in {time.time() - t0:.1f}s",
        file=sys.stderr,
    )

    report = verify_count(table, table.max_gamma)
    print(
        f"count check at T={report.T:.3f}: observed {report.observed}, main term "
        f"{report.main_term:.2f}, |diff| {report.difference:.2f} <= "
        f"{report.bound:.2f}: {report.ok}",
        file=sys.stderr,
    )
    if not report.ok:
        print("count check FAILED; not writing output", file=sys.stderr)
        return 1
    for T, n_known in ((100.0, 29), (1000.0, 649)):
        if table.max_gamma >= T and table.count_up_to(T) != n_known:
            print(
                f"canonical count FAILED: {table.count_up_to(T)} zeros below "
                f"{T}, expected {n_known}",
                file=sys.stderr,
            )
            return 1

    if args.verify_mpmath:
        import mpmath

        t0 = time.time()
        worst = 0.0
        with mpmath.workdps(30):
            for k, rec in enumerate(table, 1):
                ref = mpmath.zetazero(k).imag
                ulp = math.ulp(rec.gamma)
                line = abs(mpmath.mpf(f"{rec.gamma:.12f}") - ref)
                if line > 5e-13 + ulp:
                    print(f"MISMATCH at k={k}: line {rec.gamma:.12f} is {float(line):.3e} "
                          f"from {ref}", file=sys.stderr)
                    return 1
                worst = max(worst, float(abs(rec.gamma - ref)) / ulp)
        print(
            f"mpmath cross-check of {len(table)} ordinates at 30 digits: every line "
            f"within 5e-13 + 1 ulp, worst ordinate {worst:.2f} ulps "
            f"({time.time() - t0:.1f}s)",
            file=sys.stderr,
        )

    lines = [f"{rec.gamma:.12f}" for rec in table]
    body = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(body)
        print(f"wrote {len(lines)} ordinates to {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(body)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
