"""Transport-suite guard rails.

These tests start, kill and join real worker processes; a wedged worker
(or a completion that never arrives) must fail its own test quickly, not
hang the whole tier-1 run.  With no ``pytest-timeout`` in the image, the
guard is a ``SIGALRM`` alarm armed around every test in this directory:
when the budget expires the alarm handler raises in the main thread,
pytest reports a normal failure, and session teardown still runs (so
leaked workers are reaped by the transports' own ``close``/daemon
semantics rather than orphaned by a killed suite).

A second guard fails any test that leaves a new POSIX shared-memory
segment (``/dev/shm/psm_*``, the default ``shared_memory`` name) behind:
transports own every segment they create and must unlink each one by
``close``, whether its batch completed or was lost with a killed worker.
"""

from __future__ import annotations

import signal
from pathlib import Path

import pytest

#: Per-test wall-clock budget.  The slowest test here (the multiprocess
#: chaos run) finishes in a few seconds; 120 s only ever fires on a
#: genuine hang.
TEST_TIMEOUT_S = 120


@pytest.fixture(autouse=True)
def _per_test_timeout():
    def _expired(signum, frame):
        raise TimeoutError(
            f"transport test exceeded {TEST_TIMEOUT_S}s — a worker process "
            "or completion queue is likely wedged"
        )

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.alarm(TEST_TIMEOUT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


SHM_DIR = Path("/dev/shm")


def _segments() -> set:
    return {p.name for p in SHM_DIR.glob("psm_*")}


@pytest.fixture(autouse=True)
def _no_leaked_segments():
    if not SHM_DIR.is_dir():
        yield
        return
    before = _segments()
    yield
    leaked = sorted(_segments() - before)
    if leaked:
        pytest.fail(f"test left shared-memory segments behind: {leaked}")
