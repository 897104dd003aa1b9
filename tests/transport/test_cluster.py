"""TransportCluster: conservation under real transports and real kills.

The simulator's four-way conservation law —

    submitted == completed + rejected + shed + failed

— is pinned here against *actual* worker processes, including one that
is SIGKILL'd mid-run, so the recovery paths the discrete-event suite
models are exercised by a genuinely dead process.
"""

import numpy as np
import pytest

from repro.patterns.library import longformer_pattern
from repro.serving import AttentionRequest
from repro.transport import (
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
        ],
    )
    def test_bounds_validated(self, field, value):
        with pytest.raises(ValueError, match=field):
            TransportClusterConfig(**{field: value})
