"""Out-of-process driver: real processes, real SIGKILL, shared memory."""

import numpy as np
import pytest

from repro.api import Runtime
from repro.patterns.library import longformer_pattern
from repro.transport import (
    DISPATCH_ERROR,
    MultiprocessTransport,
    TransportClosed,
    TransportRequest,
    attach,
)

PATTERN = longformer_pattern(64, 8, (0,))


def _request(batch_id=1, b=2, hidden=16, heads=2, seed=0, valid_lens=None):
    rng = np.random.default_rng(seed)
    q, k, v = (rng.standard_normal((b, PATTERN.n, hidden)) for _ in range(3))
    return TransportRequest(
        batch_id=batch_id, pattern=PATTERN, q=q, k=k, v=v, heads=heads,
        valid_lens=valid_lens,
    )


def _slot_names(transport):
    return {slot.name for slot in transport._slots()}


def _poll_until(transport, count, budget_s=30.0):
    """Poll until ``count`` completions arrive (alarm guard backstops)."""
    out = []
    while len(out) < count:
        out.extend(transport.poll(timeout_s=min(budget_s, 0.2)))
    return out


class TestRoundTrip:
    def test_output_identical_across_the_process_boundary(self):
        """Operands ship via shared memory, execute in a foreign process,
        and come back bit-identical to a local Runtime attend."""
        req = _request()
        reference = Runtime(backend="functional").attend(
            req.pattern, req.q, req.k, req.v, heads=req.heads
        )
        with MultiprocessTransport(warm=((PATTERN, 2, 8),)) as transport:
            transport.submit(req)
            (completion,) = _poll_until(transport, 1)
        assert completion.ok
        assert np.array_equal(completion.output, reference.output)

    def test_worker_exception_comes_back_as_dispatch_error(self):
        bad = _request()
        bad.heads = 5  # indivisible hidden: the worker's engine rejects it
        with MultiprocessTransport() as transport:
            transport.submit(bad)
            (completion,) = _poll_until(transport, 1)
            assert completion.outcome == DISPATCH_ERROR
            assert completion.error and "5" in completion.error
            # The loop survived the failed dispatch: same worker executes
            # the next batch fine.
            transport.submit(_request(2))
            (ok,) = _poll_until(transport, 1)
            assert ok.ok

    def test_probe_and_cache_info_round_trip(self):
        with MultiprocessTransport(warm=((PATTERN, 2, 8),)) as transport:
            assert transport.alive
            assert transport.probe(timeout_s=5.0)
            info = transport.cache_info()
            assert info["misses"] >= 1  # the warm-up compile registered

    def test_warm_head_dim_matches_traffic(self):
        """Warming at the traffic's head_dim leaves the first real batch
        a plan-cache hit: the worker's miss count does not move."""
        req = _request(hidden=32, heads=2)  # head_dim 16
        with MultiprocessTransport(warm=((PATTERN, 2, 16),)) as transport:
            before = transport.cache_info()
            transport.submit(req)
            (completion,) = _poll_until(transport, 1)
            assert completion.ok
            after = transport.cache_info()
        assert before["misses"] == 1
        assert after["misses"] == before["misses"]
        assert after["hits"] == before["hits"] + 1


class TestSlots:
    """Batches reuse a small pool of parent-owned shared-memory slots."""

    def test_same_shape_submits_create_no_segment(self):
        with MultiprocessTransport(warm=((PATTERN, 2, 8),)) as transport:
            transport.submit(_request(1))
            _poll_until(transport, 1)
            owned = _slot_names(transport)
            assert len(owned) == 1
            for batch_id in range(2, 6):
                transport.submit(_request(batch_id, seed=batch_id))
                (completion,) = _poll_until(transport, 1)
                assert completion.ok
                assert _slot_names(transport) == owned

    def test_pool_grows_only_to_peak_inflight(self):
        with MultiprocessTransport(warm=((PATTERN, 2, 8),)) as transport:
            for batch_id in range(1, 4):
                transport.submit(_request(batch_id, seed=batch_id))
            assert len(_slot_names(transport)) == 3
            _poll_until(transport, 3)
            owned = _slot_names(transport)
            for batch_id in range(4, 7):
                transport.submit(_request(batch_id, seed=batch_id))
            _poll_until(transport, 3)
            assert _slot_names(transport) == owned

    def test_mixed_shapes_bit_identical_to_runtime(self):
        requests = [
            _request(1, b=1, seed=1),
            _request(2, b=4, seed=2),
            _request(3, b=3, seed=3, valid_lens=np.array([64, 40, 17])),
            _request(4, b=1, seed=4),
            _request(5, b=4, seed=5),
        ]
        runtime = Runtime(backend="functional")
        expected = {
            r.batch_id: runtime.attend(
                r.pattern, r.q, r.k, r.v, heads=r.heads, valid_lens=r.valid_lens
            ).output
            for r in requests
        }
        got = {}
        with MultiprocessTransport(warm=((PATTERN, 2, 8),)) as transport:
            # One at a time, then two in flight: slots are reused across
            # shapes and a too-small free slot is retired, so an output
            # that aliased its slot would be overwritten before the check.
            for request in requests[:3]:
                transport.submit(request)
                got.update((c.batch_id, c) for c in _poll_until(transport, 1))
            for request in requests[3:]:
                transport.submit(request)
            got.update((c.batch_id, c) for c in _poll_until(transport, 2))
        assert sorted(got) == sorted(expected)
        for batch_id, completion in got.items():
            assert completion.ok
            assert np.array_equal(completion.output, expected[batch_id])

    def test_retired_slot_is_unlinked(self):
        with MultiprocessTransport(warm=((PATTERN, 2, 8),)) as transport:
            transport.submit(_request(1, b=1))
            _poll_until(transport, 1)
            (small,) = _slot_names(transport)
            transport.submit(_request(2, b=4))  # the free slot is too small
            (completion,) = _poll_until(transport, 1)
            assert completion.ok
            assert small not in _slot_names(transport)
            assert len(_slot_names(transport)) == 1
            with pytest.raises(FileNotFoundError):
                attach(small)


class TestCrashSemantics:
    def test_sigkill_loses_inflight_and_flips_alive(self):
        transport = MultiprocessTransport()
        try:
            transport.submit(_request())
            transport.kill()  # real SIGKILL, possibly mid-batch
            assert not transport.alive
            assert not transport.probe(timeout_s=0.2)
            with pytest.raises(TransportClosed):
                transport.submit(_request(2))
            assert transport.inflight == 1  # the lost batch keeps its slot
        finally:
            transport.close()  # unlinks the lost batch's slot
        assert transport.inflight == 0
        assert not _slot_names(transport)

    def test_close_is_idempotent_and_orderly(self):
        transport = MultiprocessTransport()
        transport.close()
        transport.close()
        assert not transport.alive
