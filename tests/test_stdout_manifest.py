"""The committed output of scripts/cli_stdout_hash.py, recomputed.

tests/cli_stdout_manifest.txt holds the script's output on the committed
tree: the versions of Python, numpy and mpmath it was taken with, one hash
per CLI invocation and per API row, and the two totals.  A change that moves
any of them writes the file anew in the same commit,

    PYTHONPATH=src python3 scripts/cli_stdout_hash.py > tests/cli_stdout_manifest.txt

so its diff names exactly the rows that moved.  The script runs in a fresh
process and takes about 5 to 7 s.
"""

import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import mrl

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "cli_stdout_hash.py"
MANIFEST = Path(__file__).with_name("cli_stdout_manifest.txt")


def _rows(lines: list[str]) -> dict[str, str]:
    """Each hashed row's name -> its hash; each total's name -> its hash."""
    rows = {}
    for line in lines:
        head, rest = line.split(" ", 1)
        if len(head) == 16:  # a row: the hash, then its name
            rows[rest] = head
        else:  # "total <hash>" or "api total <hash>"
            name, value = line.rsplit(" ", 1)
            rows[name] = value
    assert len(rows) == len(lines), "row names repeat"
    return rows


def test_cli_and_api_output_matches_the_manifest():
    recorded = MANIFEST.read_text().splitlines()
    running = runpy.run_path(str(SCRIPT))["versions"]()
    if recorded[0] != running:
        pytest.skip(f"the manifest was taken with {recorded[0]!r}, this is {running!r}")
    env = dict(os.environ)
    paths = [str(Path(mrl.__file__).resolve().parents[1]), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    run = subprocess.run([sys.executable, str(SCRIPT)], cwd=ROOT, env=env, check=True,
                         capture_output=True, text=True)
    got = run.stdout.splitlines()
    assert got[0] == running
    want, now = _rows(recorded[1:]), _rows(got[1:])
    moved = [name for name in want if name in now and now[name] != want[name]]
    gone = [name for name in want if name not in now]
    new = [name for name in now if name not in want]
    assert not (moved or gone or new), (
        "\n".join([f"moved: {n}" for n in moved] + [f"gone: {n}" for n in gone]
                  + [f"new: {n}" for n in new]))
    assert got[1:] == recorded[1:]  # the same rows in the same order
