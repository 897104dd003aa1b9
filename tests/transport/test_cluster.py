"""TransportCluster: conservation under real transports and real kills.

The simulator's four-way conservation law —

    submitted == completed + rejected + shed + failed

— is pinned here against *actual* worker processes, including one that
is SIGKILL'd mid-run, so the recovery paths the discrete-event suite
models are exercised by a genuinely dead process.
"""

import math

import numpy as np
import pytest

from repro.cluster import ClusterSimulator, CostModelClock, SimConfig
from repro.cluster.arrivals import OpenLoopSource
from repro.cluster.policy import GreedyFIFOPolicy
from repro.patterns.library import longformer_pattern
from repro.serving import AttentionRequest
from repro.serving.admission import AdmitAll
from repro.serving.trace import TraceSpec, pattern_families
from repro.transport import (
    InProcessTransport,
    TransportCluster,
    TransportClusterConfig,
    make_transport,
)

PATTERN = longformer_pattern(64, 8, (0,))


def _requests(num, hidden=16, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(num):
        q, k, v = (rng.standard_normal((PATTERN.n, hidden)) for _ in range(3))
        out.append(
            AttentionRequest(
                request_id=i, pattern=PATTERN, q=q, k=k, v=v, heads=2
            )
        )
    return out


def _conserved(report):
    return report.submitted == (
        report.completed + report.rejected + report.shed + report.failed
    )


def _config(driver, **overrides):
    defaults = dict(
        workers=2,
        driver=driver,
        max_batch_size=4,
        heartbeat_interval_s=0.01,
        heartbeat_timeout_s=2.0,
        warm=((PATTERN, 2, 8),) if driver == "multiprocess" else (),
    )
    defaults.update(overrides)
    return TransportClusterConfig(**defaults)


class TestInProcess:
    def test_every_request_completes_and_conserves(self):
        with TransportCluster(_config("inprocess")) as cluster:
            report = cluster.run(_requests(16))
        assert report.submitted == report.completed == 16
        assert report.failed == 0 and _conserved(report)
        assert all(w.served > 0 for w in report.workers)  # JSQ spread work

    def test_drain_timeout_fails_what_is_left(self):
        with TransportCluster(_config("inprocess", drain_timeout_s=1e-9)) as cluster:
            report = cluster.run(_requests(16))
        assert report.submitted == report.failed == 16
        assert report.completed == 0 and _conserved(report)


def _burst(num=32, seed=0):
    """A seeded burst at t=0 over the three mixed-trace plan families."""
    spec = TraceSpec(n=64, window=8, heads=2, head_dim=4, seed=seed)
    families = pattern_families(spec)
    rng = np.random.default_rng(seed)
    hidden = spec.heads * spec.head_dim
    out = []
    for i, f in enumerate(rng.integers(len(families), size=num)):
        pattern = families[int(f)]
        q, k, v = (rng.standard_normal((pattern.n, hidden)) for _ in range(3))
        out.append(
            AttentionRequest(
                request_id=i, pattern=pattern, q=q, k=k, v=v, heads=spec.heads
            )
        )
    return out


def _decisions(records):
    return {r.request_id: (r.worker, r.batch_size) for r in records}


class TestOneControlPlane:
    def test_transport_and_cost_model_make_the_same_decisions(self):
        """One fault-free burst, two executors: the wall-clock transport
        run and the cost-model simulation route and batch identically."""
        with TransportCluster(
            _config("inprocess", max_inflight_per_worker=1)
        ) as cluster:
            measured = cluster.run(_burst())
            measured_records = list(cluster.metrics.records)
        sim = ClusterSimulator(
            SimConfig(
                workers=2,
                max_batch_size=4,
                steal=False,
                affinity_miss_prob=1.0,
                policy=GreedyFIFOPolicy(),
                admission=AdmitAll(),
                service=CostModelClock.flat(),
            )
        )
        modelled = sim.run(OpenLoopSource(_burst()))
        for report in (measured, modelled):
            assert report.submitted == report.completed == 32
            assert _conserved(report)
        assert _decisions(measured_records) == _decisions(sim.metrics.records)
        assert [w.batches for w in measured.workers] == [
            w.batches for w in modelled.workers
        ]


def _flaky_transport(wid, failures, errored=None):
    """An in-process worker whose engine raises on its first submits.

    The sizes of the batches that raised are appended to ``errored``.
    """
    transport = InProcessTransport(wid=wid)
    attend = transport.runtime.attend
    left = {"n": failures}

    def flaky_attend(pattern, q, *args, **kwargs):
        if left["n"] > 0:
            left["n"] -= 1
            if errored is not None:
                errored.append(q.shape[0])
            raise RuntimeError("injected engine fault")
        return attend(pattern, q, *args, **kwargs)

    transport.runtime.attend = flaky_attend
    return transport


class TestTransportRetry:
    def test_dispatch_errors_retry_to_completion(self):
        transports = [_flaky_transport(0, 2), _flaky_transport(1, 1)]
        with TransportCluster(_config("inprocess"), transports=transports) as cluster:
            report = cluster.run(_requests(16))
        assert report.retries > 0
        assert report.failed == 0
        assert report.submitted == report.completed == 16
        assert _conserved(report)

    def test_zero_retry_budget_fails_the_errored_batches(self):
        errored = []
        transports = [_flaky_transport(0, 2, errored), _flaky_transport(1, 0)]
        config = _config("inprocess", max_retries=0)
        with TransportCluster(config, transports=transports) as cluster:
            report = cluster.run(_requests(16))
        assert report.retries == 0
        assert len(errored) == 2
        assert report.failed == sum(errored)
        assert report.completed + report.failed == report.submitted == 16
        assert _conserved(report)


class TestMultiprocess:
    def test_conservation_without_faults(self):
        with TransportCluster(_config("multiprocess")) as cluster:
            report = cluster.run(_requests(16))
        assert report.submitted == report.completed == 16
        assert report.failed == 0 and _conserved(report)

    def test_killed_worker_recovers_via_requeue(self):
        """A real SIGKILL mid-run: the dead worker's orphans re-route to
        the survivor; nothing is lost, nothing silently disappears."""
        fired = {"done": False}

        def tick(cluster, now):
            if not fired["done"] and len(cluster.metrics.records) >= 1:
                cluster.kill_worker(1)
                fired["done"] = True

        with TransportCluster(_config("multiprocess")) as cluster:
            report = cluster.run(_requests(20), tick=tick)
        assert fired["done"]
        assert _conserved(report)
        assert report.failed == 0  # every orphan was recovered
        assert report.completed == report.submitted == 20
        assert report.requeues > 0
        crashed = [w for w in report.workers if w.crashes > 0]
        assert len(crashed) == 1 and crashed[0].wid == 1

    def test_no_requeue_strands_the_orphans(self):
        """Recovery off: the kill still conserves, but terminally —
        orphans land in ``failed`` instead of being re-routed."""
        fired = {"done": False}

        def tick(cluster, now):
            if not fired["done"]:
                cluster.kill_worker(1)
                fired["done"] = True

        with TransportCluster(_config("multiprocess", requeue=False)) as cluster:
            report = cluster.run(_requests(16), tick=tick)
        assert _conserved(report)
        assert report.failed > 0
        assert report.requeues == 0
        assert report.completed + report.failed == 16

    def test_zero_poll_timeout_keeps_the_idle_worker_up(self):
        """``poll_timeout_s=0`` probes idle workers without waiting.  The
        pong that answers an earlier probe still counts, so while one
        worker serves a long request the idle one never goes down."""
        pattern = longformer_pattern(2048, 256)
        rng = np.random.default_rng(0)
        q, k, v = (rng.standard_normal((pattern.n, 16)) for _ in range(3))
        request = AttentionRequest(request_id=0, pattern=pattern, q=q, k=k, v=v, heads=2)
        config = _config(
            "multiprocess", heartbeat_interval_s=0.05, heartbeat_timeout_s=0.2,
            poll_timeout_s=0.0,
        )
        with TransportCluster(config) as cluster:
            report = cluster.run([request])
        assert report.completed == 1
        assert report.availability == 1.0
        assert all(w.crashes == 0 for w in report.workers)

    def test_all_workers_dead_fails_everything_terminally(self):
        def tick(cluster, now):
            cluster.kill_worker(0)
            cluster.kill_worker(1)

        with TransportCluster(_config("multiprocess")) as cluster:
            report = cluster.run(_requests(8), tick=tick)
        assert _conserved(report)
        assert report.completed + report.failed == 8
        assert report.failed > 0  # nobody left to requeue onto


class TestConfig:
    def test_unknown_driver_rejected(self):
        with pytest.raises(ValueError, match="unknown transport driver"):
            make_transport("carrier-pigeon")
        with pytest.raises(ValueError, match="unknown transport driver"):
            TransportClusterConfig(driver="carrier-pigeon")

    @pytest.mark.parametrize(
        "field,value",
        [
            ("workers", 0),
            ("max_batch_size", 0),
            ("max_inflight_per_worker", 0),
            ("max_retries", -1),
            ("heartbeat_interval_s", 0.0),
            ("heartbeat_timeout_s", -1.0),
            ("stall_timeout_s", 0.0),
            ("drain_timeout_s", math.nan),
            ("drain_timeout_s", 0.0),
            ("poll_timeout_s", -0.001),
            ("poll_timeout_s", math.nan),
        ],
    )
    def test_bounds_validated(self, field, value):
        with pytest.raises(ValueError, match=field):
            TransportClusterConfig(**{field: value})
