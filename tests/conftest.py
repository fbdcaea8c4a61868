"""Shared fixtures: the refined packaged zero table, fresh sieve caches, and
a counter of the integers the mu sieve is asked for.

The table fixture is session-scoped (refinement costs ~0.15 s and the table
is immutable); caches are function-scoped so checkpoint state never leaks
between tests, with a session-scoped variant for read-only heavyweight
consumers.
"""

import numpy as np
import pytest

from mrl import moebius
from mrl.moebius import CheckpointCache
from mrl.zeros import load_builtin, refine_table


@pytest.fixture(scope="session")
def table():
    """Refined packaged zero table: 730 ordinates below 1100, with zeta'."""
    return refine_table(load_builtin())


@pytest.fixture(scope="session")
def raw_table():
    """The packaged ordinates as imported, before refinement (zeta' = 0)."""
    return load_builtin()


@pytest.fixture()
def cache():
    """A fresh, empty checkpoint cache (isolated per test)."""
    return CheckpointCache()


@pytest.fixture(scope="session")
def shared_cache():
    """One cache shared by tests that only read M values (checkpoints are
    append-only, so sharing is safe and avoids re-sieving)."""
    return CheckpointCache()


@pytest.fixture()
def sieved_lengths(monkeypatch):
    """Lengths of the mu segments sieved while the test runs."""
    lengths: list[int] = []
    segment_mu = moebius._segment_mu

    def counting(lo: int, hi: int, *out: np.ndarray) -> np.ndarray:
        lengths.append(hi - lo)
        return segment_mu(lo, hi, *out)

    monkeypatch.setattr(moebius, "_segment_mu", counting)
    return lengths
