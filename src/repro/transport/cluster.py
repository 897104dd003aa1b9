"""Real-time cluster: the simulator's control plane on real workers.

:class:`~repro.cluster.simulator.ClusterSimulator` is the one control
plane (routing, retry, orphan requeue, heartbeat mark-down, the
conservation ledger).  :class:`TransportExecutor` is its wall-clock
executor: a batch is packed (:func:`stacked_operands`) and submitted,
its completion is polled, and heap events fire once the wall clock
passes them.  :class:`TransportCluster` runs it with greedy-FIFO
batching, admit-all, no stealing and join-shortest-queue routing
(``affinity_miss_prob=1.0``: lowest depth, then lowest worker id).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

from ..cluster.arrivals import OpenLoopSource
from ..cluster.faults import RecoveryConfig
from ..cluster.metrics import ClusterReport
from ..cluster.pool import ServiceModel, Worker
from ..cluster.simulator import ClusterSimulator, SimConfig
from ..serving.batching import Batch
from ..serving.request import AttentionRequest
from .base import TransportClosed, TransportRequest, WorkerTransport, stacked_operands
from .inprocess import InProcessTransport
from .multiprocess import MultiprocessTransport

__all__ = ["TransportClusterConfig", "TransportCluster", "TransportExecutor",
           "make_transport", "TRANSPORTS"]

TRANSPORTS = {"inprocess": InProcessTransport, "multiprocess": MultiprocessTransport}


def make_transport(driver: str, **kwargs) -> WorkerTransport:
    """Build one worker transport by registered driver name."""
    if driver not in TRANSPORTS:
        raise ValueError(f"unknown transport driver {driver!r}; choose from {sorted(TRANSPORTS)}")
    return TRANSPORTS[driver](**kwargs)


@dataclass(frozen=True)
class TransportClusterConfig:
    """Knobs of one real-time cluster run (wall-clock seconds throughout).

    ``heartbeat_timeout_s`` is an *idle* worker's silence budget; a busy
    one goes down only once its process exits or after ``stall_timeout_s``
    without a dispatch.  When ``drain_timeout_s`` expires, everything
    still unaccounted is failed terminally.
    """

    workers: int = 2
    driver: str = "multiprocess"
    backend: str = "functional"
    max_batch_size: int = 8
    max_inflight_per_worker: int = 2
    max_retries: int = 3
    requeue: bool = True
    heartbeat_interval_s: float = 0.05
    heartbeat_timeout_s: float = 1.0
    stall_timeout_s: float = 30.0
    drain_timeout_s: float = 120.0
    poll_timeout_s: float = 0.005
    warm: Tuple = ()  # (pattern, heads, head_dim) triples pre-compiled by workers

    def __post_init__(self) -> None:
        for name, low in (
            ("workers", 1), ("max_batch_size", 1), ("max_inflight_per_worker", 1), ("max_retries", 0)
        ):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        # ``not (x > 0)`` also rejects NaN, which would disarm the guards.
        for name in ("heartbeat_interval_s", "heartbeat_timeout_s", "stall_timeout_s", "drain_timeout_s"):
            if not (getattr(self, name) > 0):
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        if not (self.poll_timeout_s >= 0):
            raise ValueError(f"poll_timeout_s must be >= 0, got {self.poll_timeout_s}")
        if self.driver not in TRANSPORTS:
            raise ValueError(f"unknown transport driver {self.driver!r}; choose from {sorted(TRANSPORTS)}")


class TransportExecutor:
    """Wall-clock executor: worker ``wid`` runs on ``transports[wid]``.

    Each loop iteration handles every due heap event, then polls each busy
    worker for up to ``poll_timeout_s`` (or sleeps that long when idle).
    """

    #: Heartbeats always run: a real worker can die at any moment.
    probes = True

    def __init__(self, transports: Sequence[WorkerTransport], config: TransportClusterConfig) -> None:
        self.transports = list(transports)
        self.config = config
        self.slots = config.max_inflight_per_worker
        self.last_launch = [0.0] * len(self.transports)
        self.tick: Optional[Callable[[float], None]] = None

    def launch(self, sim: ClusterSimulator, worker: Worker, batch: Batch, now: float) -> None:
        pattern = batch.execution_pattern()
        q, k, v, valid_lens = stacked_operands(batch.requests, pattern)
        # Busy time is charged at completion: a crash refunds nothing.
        serial = sim._track(worker, batch, now, now)
        try:
            self.transports[worker.wid].submit(TransportRequest(
                batch_id=serial, pattern=pattern, q=q, k=k, v=v, heads=batch.heads,
                valid_lens=valid_lens,
            ))
        except TransportClosed:
            # The worker died unseen: its members are orphans to recover.
            del sim._inflight[serial]
            worker.queue.requeue(batch.requests)
            sim._mark_down(worker, now)
            return
        worker.note_dispatch(batch, 0.0, cold=False)
        worker.last_heartbeat_s = self.last_launch[worker.wid] = now

    def heartbeat(self, sim: ClusterSimulator, worker: Worker, now: float) -> Optional[bool]:
        if not self.transports[worker.wid].alive:
            return None
        if worker.busy:  # it cannot answer a ping mid-batch; only a stall counts
            return None if now - self.last_launch[worker.wid] > self.config.stall_timeout_s else True
        return self.transports[worker.wid].probe(timeout_s=self.config.poll_timeout_s)

    def drive(self, sim: ClusterSimulator) -> None:
        t0 = time.perf_counter()
        while sim.outstanding():
            now = time.perf_counter() - t0
            sim.advance(now)
            if now > self.config.drain_timeout_s:
                sim.abort(now)
                return
            if self.tick is not None:
                self.tick(now)
            polled = False
            for worker, transport in zip(sim.pool.workers, self.transports):
                if not worker.busy:
                    continue
                polled = True
                for completion in transport.poll(self.config.poll_timeout_s):
                    if completion.batch_id not in sim._inflight:
                        continue  # lost with a worker already marked down
                    worker.last_heartbeat_s = done = time.perf_counter() - t0
                    worker.busy_s += completion.service_s
                    sim.complete(completion.batch_id, not completion.ok, done)
            if not polled and sim._heap:
                wait = sim._heap[0][0] - (time.perf_counter() - t0)
                time.sleep(min(max(wait, 0.0), self.config.poll_timeout_s))


class TransportCluster:
    """Serve a burst of requests on real worker transports.

    ``run`` submits every request at t=0 and returns once each is
    terminally accounted for; ``tick(cluster, now_s)`` fires once per
    loop iteration (chaos tests ``kill_worker`` from it).
    """

    def __init__(
        self, config: TransportClusterConfig, transports: Optional[Sequence[WorkerTransport]] = None
    ) -> None:
        self.config = config
        if transports is None:
            warm = {"warm": config.warm} if config.driver == "multiprocess" else {}
            transports = [
                make_transport(config.driver, backend=config.backend, wid=wid, **warm)
                for wid in range(config.workers)
            ]
        self.transports = list(transports)
        self.executor = TransportExecutor(self.transports, config)
        self.sim = ClusterSimulator(
            SimConfig(
                workers=len(self.transports),
                max_batch_size=config.max_batch_size,
                steal=False,
                affinity_miss_prob=1.0,
                service=ServiceModel(),  # never consulted: workers time themselves
                salo_factory=iter(self.transports).__next__,  # the cache_info() hook
                recovery=RecoveryConfig(
                    heartbeat_interval_s=config.heartbeat_interval_s,
                    heartbeat_timeout_s=config.heartbeat_timeout_s,
                    max_retries=config.max_retries, requeue=config.requeue,
                ),
            ),
            executor=self.executor,
        )
        self.metrics = self.sim.metrics
        self._closed = False

    def run(
        self, requests: Sequence[AttentionRequest],
        tick: Optional[Callable[["TransportCluster", float], None]] = None,
    ) -> ClusterReport:
        """Serve ``requests`` to completion; reduce to a ClusterReport."""
        if self._closed:
            raise TransportClosed("cluster already closed")
        for request in requests:
            request.arrival_s = 0.0
        self.executor.tick = None if tick is None else (lambda now: tick(self, now))
        return self.sim.run(OpenLoopSource(requests))

    def kill_worker(self, wid: int) -> None:
        """SIGKILL (or simulate killing) worker ``wid`` — chaos hook."""
        self.transports[wid].kill()

    def report(self) -> ClusterReport:
        return self.sim.report()

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            for transport in self.transports:
                transport.close()

    def __enter__(self) -> "TransportCluster":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
