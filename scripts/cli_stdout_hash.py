#!/usr/bin/env python3
"""Hash the stdout and exit code of a fixed set of ``mrl`` invocations.

Runs ``mrl.cli.main`` in-process over every command, every ``identity`` and
``scan`` kind, ``explicit`` at small x (where the residue series dominates)
and at x = 1e6 (where the phase rounding of gamma * log x does),
``inv-zeta`` at a real s < -1/2, the identity's largest L, ``mertens`` at
1 (the base value, never recorded) and 2 (the smallest recorded x), the
power sums past their sieve (``mertens`` at 1e8 and near 1e9, ``riesz`` at
tau = 2, an ``integral`` at kappa = -2 and a nine-point tau = 1 scan, all to
1e7 or more, and ``riesz`` at tau = 1 and an ``integral`` at kappa = -2 near
1e9, whose sieve takes two blocks), a long streamed Riesz mean (4.2e6 at
tau = 0.5), and a few refused arguments (x = 0 for ``mertens``, non-finite
or overflowing s, kappa, lambda and tau, an L past the identity's range,
and an infinite ``--T`` for ``hko``, run without ``--zeros`` so no table
height refuses it first), each in csv and json, first without and then
with a temporary ``--cache-dir`` (shared by the cached pass, so its
zero-table loads miss once and then hit).
Prints one line per invocation, the first 16 hex digits of the SHA-256 of
its exit code and stdout followed by its arguments, then the SHA-256 of all
those lines.  Run it on two checkouts and ``diff`` the outputs to name every
invocation whose output moved:

    PYTHONPATH=src python3 scripts/cli_stdout_hash.py > after.txt

stderr is not hashed.  The 240 invocations take about 3.6 s on one core of a
2-vCPU Xeon VM.
"""

import contextlib
import hashlib
import io
import sys
import tempfile

from mrl.cli import main

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
    ["identity", "inv-zeta", "--s", "-9.5"],
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

# run without --zeros, each exit 2
TABLELESS = [["--T", "inf", "identity", "hko", "--lambda", "1"]]


def invocations(cache_dir: str):
    for cached in (False, True):
        for fmt in ("csv", "json"):
            extra = ["--cache-dir", cache_dir] if cached else []
            for command in COMMANDS:
                yield ["--zeros", "builtin", "--format", fmt, *extra, *command]
            for command in TABLELESS:
                yield ["--format", fmt, *extra, *command]


def main_hash() -> int:
    total = hashlib.sha256()
    with tempfile.TemporaryDirectory() as cache_dir:
        for argv in invocations(cache_dir):
            out = io.StringIO()
            with contextlib.redirect_stderr(io.StringIO()):
                code = main(argv, out)
            digest = hashlib.sha256(f"{code}\n{out.getvalue()}".encode()).hexdigest()
            shown = " ".join("CACHE" if a == cache_dir else a for a in argv)
            line = f"{digest[:16]} {shown}"
            total.update(line.encode() + b"\n")
            print(line)
    print(f"total {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main_hash())
