"""The cluster's one control plane: a heap-driven discrete-event loop.

Three event kinds drive every run:

* **arrival** — the pool routes the request, the admission policy
  accepts it (or records a rejection — the overload valve) and, if the
  worker has a free slot, its batch policy is consulted immediately.
  Consultations may also *shed* queued requests whose deadlines became
  unreachable (``drop_expired``).  Rejections and sheds are terminal
  outcomes fed back to closed-loop sources like completions, so
  ``submitted == completed + rejected + shed + failed`` on every
  drained run.
* **service-complete** — completions are recorded, closed-loop sources
  may inject follow-up arrivals, a dry worker steals work, and the
  policy is consulted for the next batch.
* **batch-close timer** — a holding policy (max-wait / size-latency)
  named an instant at which an open queue must be re-examined.

Two more fire only for shedding policies and fault runs respectively:

* **expiry timer** — with ``drop_expired``, each admitted request with a
  finite deadline arms a timer at that deadline, which sheds every
  already-doomed queued request *between* policy consultations too.
* **fault events** — worker **crash**/**rejoin** instants from a
  :class:`~repro.cluster.faults.FaultInjector`, periodic **heartbeat
  probes** (``up -> suspect -> down``, then the down worker's orphans
  are requeued oldest-deadline-first or failed), and **retry** timers
  for transiently failed batch members (capped exponential backoff).
  Without an active injector none of these exist and the run is
  byte-identical to the fault-free simulator.

Where time comes from is an **executor**'s business (``launch`` a
batch, answer a ``heartbeat``, ``drive`` the loop):

* :class:`CostModelExecutor` (the default) — virtual time: the
  :class:`~repro.cluster.pool.ServiceModel` prices each batch and its
  completion is a heap event.  With the default
  :class:`~repro.cluster.pool.CostModelClock` every duration derives
  from the paper's cycle model, and the run is fully deterministic: no
  wall-clock reads, fault randomness from the injector's seeded stream,
  heap ties broken by insertion order.
* :class:`~repro.transport.cluster.TransportExecutor` — wall-clock time
  on real :class:`~repro.transport.base.WorkerTransport` workers, which
  can genuinely be ``kill -9``'d; heartbeats always run there.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Optional, Tuple

from ..core.salo import SALO
from ..serving.batching import Batch
from ..serving.request import AttentionRequest
from ..serving.admission import (
    AdmissionContext,
    AdmissionPolicy,
    AdmitAll,
    queue_drain_estimate,
)
from .arrivals import RequestSource
from .faults import FaultInjector, RecoveryConfig, WORKER_SUSPECT, WORKER_UP
from .metrics import MetricsCollector, ClusterReport, RequestRecord
from .policy import BatchPolicy, GreedyFIFOPolicy, recovery_order
from .pool import CircuitBreaker, CostModelClock, EnginePool, ServiceModel, Worker

__all__ = ["SimConfig", "ClusterSimulator", "CostModelExecutor", "simulate"]

_ARRIVE, _COMPLETE, _TIMER = 0, 1, 2
_EXPIRE, _CRASH, _REJOIN, _PROBE, _RETRY = 3, 4, 5, 6, 7
_MIN_TIMER_STEP = 1e-9  # forward progress guard for degenerate timers


@dataclass
class SimConfig:
    """Knobs of one cluster simulation.

    ``backend`` names the registered execution backend every worker
    engine is built from (``"functional"``, ``"functional-legacy"``,
    ``"systolic"``, ...; see :func:`repro.api.list_backends`).  A custom
    ``salo_factory`` overrides it and may not be combined with a
    non-default backend.

    ``faults`` is an optional :class:`~repro.cluster.faults.FaultInjector`;
    ``recovery`` holds the heartbeat / retry / requeue knobs that decide
    how the cluster responds to what the injector breaks.  With no
    injector (or an empty one) the run is byte-identical to the
    fault-free simulator — no probes, no RNG draws, no extra events.
    """

    workers: int = 2
    max_batch_size: int = 8
    bucket_floor: int = 16
    pad_to_bucket: bool = False
    steal: bool = True
    affinity_miss_prob: float = 0.1
    policy: BatchPolicy = field(default_factory=GreedyFIFOPolicy)
    admission: AdmissionPolicy = field(default_factory=AdmitAll)
    service: ServiceModel = field(default_factory=CostModelClock)
    salo_factory: Callable[[], SALO] = SALO
    backend: str = "functional"
    faults: Optional[FaultInjector] = None
    recovery: RecoveryConfig = field(default_factory=RecoveryConfig)


class CostModelExecutor:
    """Virtual time: a ServiceModel prices each batch; completions are heap events."""

    #: Batches one worker runs at once.
    slots = 1
    #: Heartbeat probes run only under an active fault injector.
    probes = False

    def launch(self, sim: "ClusterSimulator", worker: Worker, batch: Batch, now: float) -> None:
        cold = worker.is_cold_plan(batch)
        service = sim.config.service.service_s(worker, batch, cold)
        failed = False
        if sim._injector is not None:
            service *= sim._injector.service_factor(worker.wid, now)
            failed = sim._injector.dispatch_fails(worker.wid, now)
        worker.note_dispatch(batch, service, cold)
        serial = sim._track(worker, batch, now, now + service)
        sim._push(now + service, _COMPLETE, (serial, failed))

    def heartbeat(self, sim: "ClusterSimulator", worker: Worker, now: float) -> Optional[bool]:
        """True: the worker answered.  False: it is silent (marked down
        once silent for ``heartbeat_timeout_s``).  None: down right now."""
        return worker.alive

    def drive(self, sim: "ClusterSimulator") -> None:
        heap, step = sim._heap, sim._step
        while heap:
            t, _, kind, payload = heapq.heappop(heap)
            step(t, kind, payload)


class ClusterSimulator:
    """Runs one :class:`~repro.cluster.arrivals.RequestSource` to empty.

    ``executor`` decides where time comes from (see the module
    docstring); ``None`` is the :class:`CostModelExecutor`.
    """

    def __init__(self, config: Optional[SimConfig] = None, executor=None) -> None:
        self.config = config if config is not None else SimConfig()
        self._executor = executor if executor is not None else CostModelExecutor()
        self._slots = self._executor.slots
        cfg = self.config
        if cfg.salo_factory is SALO:
            factory_kwargs = {"backend": cfg.backend}
        elif cfg.backend != "functional":
            raise ValueError("pass either salo_factory or backend in SimConfig, not both")
        else:
            factory_kwargs = {"salo_factory": cfg.salo_factory}
        self.pool = EnginePool(
            workers=cfg.workers,
            max_batch_size=cfg.max_batch_size,
            bucket_floor=cfg.bucket_floor,
            pad_to_bucket=cfg.pad_to_bucket,
            affinity_miss_prob=cfg.affinity_miss_prob,
            **factory_kwargs,
        )
        self.metrics = MetricsCollector()
        self._heap: List[Tuple[float, int, int, object]] = []
        self._seq = 0
        self._routed: Dict[Hashable, int] = {}  # request id -> routed worker id
        self._timer_armed: Dict[int, float] = {}  # worker id -> armed time
        # --- fault tolerance state (empty and inert on fault-free runs) ---
        self._injector = cfg.faults if cfg.faults is not None and cfg.faults.active else None
        if cfg.faults is not None:
            cfg.faults.validate_workers(cfg.workers)
        self._recovery = cfg.recovery
        if cfg.recovery.breaker_threshold is not None:
            # Grey-failure valve: one breaker per worker, watching its
            # own dispatch outcomes (see CircuitBreaker in pool.py).
            for w in self.pool.workers:
                w.breaker = CircuitBreaker(
                    threshold=cfg.recovery.breaker_threshold,
                    window=cfg.recovery.breaker_window,
                    min_samples=cfg.recovery.breaker_min_samples,
                    cooldown_s=cfg.recovery.breaker_cooldown_s,
                )
        # batch serial -> (worker, batch, dispatched, charged-until)
        self._inflight: Dict[int, Tuple[Worker, Batch, float, float]] = {}
        self._serial = 0
        self._lost: Dict[int, List[AttentionRequest]] = {}  # wid -> orphaned in-flight
        self._attempts: Dict[Hashable, int] = {}  # request id -> transient failures so far
        self._retries = 0
        self._requeues = 0

    # ------------------------------------------------------------------
    def _push(self, t: float, kind: int, payload: object) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (t, self._seq, kind, payload))

    def _arm_timer(self, worker: Worker, t: float, now: float) -> None:
        t = max(t, now + _MIN_TIMER_STEP)
        armed = self._timer_armed.get(worker.wid)
        if armed is not None and armed <= t:
            return  # an earlier (or equal) consultation is already scheduled
        self._timer_armed[worker.wid] = t
        self._push(t, _TIMER, worker)

    def _track(self, worker: Worker, batch: Batch, now: float, until: float) -> int:
        """Record a launched batch as in flight; returns its serial.  A crash
        refunds the ``busy_s`` charged for it past the crash instant (``until``)."""
        self._serial += 1
        self._inflight[self._serial] = (worker, batch, now, until)
        return self._serial

    def _dispatch(self, worker: Worker, now: float) -> None:
        """Fill free slots with the policy's batches, or arm its re-check timer.

        A dead worker never dispatches: a crashed-but-undetected one
        silently sits on its queue (that is what detection latency
        means), a marked-down one has no queue left to consult.
        """
        while worker.running < self._slots and worker.alive and worker.healthy:
            decision = self.config.policy.next_batch(worker.queue, now)
            for req in decision.shed:
                self._routed.pop(req.request_id, None)
                self.metrics.note_shed(req, now)
                self._drop_feedback(req, now)
            batch = decision.batch
            if batch is None:
                if decision.next_check_s is not None:
                    self._arm_timer(worker, decision.next_check_s, now)
                return
            self._executor.launch(self, worker, batch, now)

    def _drop_feedback(self, request: AttentionRequest, now: float) -> None:
        """Tell the source a request left the system without being served.

        A rejection or shed is a *terminal* outcome for the request, and
        closed-loop clients must learn of it the same way they learn of a
        completion — otherwise their request budget would deadlock
        waiting on work that will never finish.
        """
        for req in self._source.on_complete(request, now):
            self._push(max(req.arrival_s, now), _ARRIVE, req)

    def _admission_context(self, worker: Worker, request: AttentionRequest, now: float) -> AdmissionContext:
        """Admission view of the routed worker at ``now``.

        The wait estimate is the batch-amortisation-aware queue-drain
        model (:func:`repro.serving.admission.queue_drain_estimate`):
        the backlog drains in batches of ``max_batch_size``, each
        charging one batch overhead — deterministic, cheap (the worker's
        SALO stats cache absorbs repeats), and *lazy*: policies that
        never read it never pay for it.
        """

        def estimate() -> Tuple[float, float]:
            unit = worker.salo.estimate(
                request.pattern, heads=request.heads, head_dim=request.head_dim
            ).latency_s
            overhead = getattr(self.config.service, "batch_overhead_s", 0.0)
            wait = queue_drain_estimate(
                worker.depth(), unit, overhead, self.config.max_batch_size
            )
            return (wait, unit + overhead)

        return AdmissionContext(now=now, depth=worker.depth(), estimator=estimate)

    # ------------------------------------------------------------------
    def _on_arrive(self, request: AttentionRequest, now: float) -> None:
        self.metrics.note_arrival(now)
        worker = self.pool.route(request, now)
        ctx = self._admission_context(worker, request, now)
        if not self.config.admission.admit(request, ctx):
            self.metrics.note_rejection(request, now)
            self._drop_feedback(request, now)
            return
        self._routed[request.request_id] = worker.wid
        worker.queue.enqueue(request)
        if self.config.policy.drop_expired and math.isfinite(request.absolute_deadline_s):
            # Expiry timer: shed the moment the deadline passes, not at
            # the next policy consultation.  The handler sweeps globally,
            # so one event per admitted request suffices even after the
            # request is stolen, requeued or retried onto another worker.
            self._push(request.absolute_deadline_s, _EXPIRE, None)
        self._dispatch(worker, now)

    def _on_complete(self, serial: int, failed: bool, now: float) -> None:
        entry = self._inflight.pop(serial, None)
        if entry is None:
            # The worker crashed (and possibly rejoined) after launching
            # this batch, so it never completed.  Its members became
            # orphans at crash time and are recovered on detection.
            return
        worker, batch, dispatched, _ = entry
        worker.note_complete(batch)
        if worker.breaker is not None:
            worker.breaker.record(not failed, now)
        if failed:
            self._retry_or_fail(batch, now)
        else:
            source_arrivals: List[AttentionRequest] = []
            for req in batch.requests:
                self._attempts.pop(req.request_id, None)
                self.metrics.note_completion(
                    RequestRecord(
                        request_id=req.request_id,
                        slo_class=req.slo_class,
                        arrival_s=req.arrival_s,
                        dispatch_s=dispatched,
                        complete_s=now,
                        worker=worker.wid,
                        batch_size=batch.size,
                        deadline_s=req.deadline_s,
                        stolen=self._routed.get(req.request_id, worker.wid) != worker.wid,
                    )
                )
                source_arrivals.extend(self._source.on_complete(req, now))
            for req in source_arrivals:
                self._push(max(req.arrival_s, now), _ARRIVE, req)
        self._dispatch(worker, now)

    def _balance(self, now: float) -> None:
        """Idle workers with dry queues steal from saturated peers.

        Runs after every event, so an engine never sits idle while a
        *busy* peer has backlog (idle peers holding requests open under a
        max-wait policy are off limits — see ``EnginePool.steal_into``).
        Dead or down workers cannot steal; a crashed-but-undetected peer
        can still be stolen *from* (its queue is real work, and stealing
        it is recovery the thief does not even know it is performing).
        """
        if not self.config.steal:
            return
        for worker in self.pool.workers:
            if worker.busy or worker.queue.pending:
                continue
            if not worker.alive or not worker.healthy:
                continue
            if worker.breaker_open(now):
                # a breaker-open thief would drag work onto the very
                # worker the breaker is shielding traffic from
                continue
            if self.pool.steal_into(worker, now):
                self._dispatch(worker, now)

    # ------------------------------------------------------------------
    # Fault handling (none of these run without an active injector,
    # except _on_expire which belongs to drop_expired policies).
    def _fail(self, request: AttentionRequest, now: float) -> None:
        """Terminal failure: budget exhausted or nowhere left to requeue."""
        self._routed.pop(request.request_id, None)
        self._attempts.pop(request.request_id, None)
        self.metrics.note_failed(request, now)
        self._drop_feedback(request, now)

    def _shed_now(self, request: AttentionRequest, now: float) -> None:
        self._routed.pop(request.request_id, None)
        self.metrics.note_shed(request, now)
        self._drop_feedback(request, now)

    def _reenqueue(self, request: AttentionRequest, now: float) -> bool:
        """Route a recovered request onto a worker believed healthy.

        False when every worker is marked down — there is nowhere to
        put the request and the caller must fail it.
        """
        target = self.pool.route(request, now)
        if not target.healthy:
            return False
        self._routed[request.request_id] = target.wid
        target.queue.enqueue(request)
        self._dispatch(target, now)
        return True

    def _recover_requests(self, requests: List[AttentionRequest], now: float) -> None:
        """Give a down worker's orphans their terminal-or-requeued fate."""
        for req in recovery_order(requests):
            if self.config.policy.drop_expired and req.absolute_deadline_s <= now:
                self._shed_now(req, now)
            elif self._recovery.requeue and self._reenqueue(req, now):
                self._requeues += 1
            else:
                self._fail(req, now)

    def _retry_or_fail(self, batch: Batch, now: float) -> None:
        """A dispatch came back with a transient error: back off and retry
        each member against its budget; the attempt past the budget is
        terminal."""
        rec = self._recovery
        for req in batch.requests:
            attempt = self._attempts.get(req.request_id, 0) + 1
            self._attempts[req.request_id] = attempt
            if attempt > rec.max_retries:
                self._fail(req, now)
                continue
            self._retries += 1
            delay = rec.backoff_s(attempt)
            if self._injector is not None:
                delay += self._injector.jitter(delay, rec.backoff_jitter)
            self._push(now + delay, _RETRY, req)

    def _on_retry(self, request: AttentionRequest, now: float) -> None:
        if self.config.policy.drop_expired and request.absolute_deadline_s <= now:
            self._shed_now(request, now)  # the backoff outlived the deadline
        elif not self._reenqueue(request, now):
            self._fail(request, now)

    def _on_expire(self, now: float) -> None:
        """An admitted request's deadline just passed: sweep all queues."""
        for worker in self.pool.workers:
            for req in worker.queue.prune(lambda r: r.absolute_deadline_s <= now):
                self._shed_now(req, now)

    def _on_crash(self, wid: int, now: float) -> None:
        worker = self.pool.workers[wid]
        if not worker.alive:
            return  # overlapping crash specs: already dead
        for serial in [s for s, entry in self._inflight.items() if entry[0] is worker]:
            _, batch, _, until = self._inflight.pop(serial)
            # The unfinished remainder of the batch never ran.
            worker.busy_s -= max(0.0, until - now)
            self._lost.setdefault(wid, []).extend(batch.requests)
        worker.crash(now)

    def _on_rejoin(self, wid: int, now: float) -> None:
        worker = self.pool.workers[wid]
        if worker.alive:
            return  # spurious (e.g. the crash spec itself was a no-op)
        worker.rejoin(now)
        # A crash short enough to dodge detection still lost its
        # in-flight batch; the replacement process recovers it now.
        orphans = self._lost.pop(wid, [])
        if orphans:
            self._recover_requests(orphans, now)
        self._dispatch(worker, now)

    def _mark_down(self, worker: Worker, now: float) -> None:
        if worker.alive:
            # A wall-clock worker found dead or silent: as far as the
            # cluster can tell, it crashed when it was last heard from.
            self._on_crash(worker.wid, worker.last_heartbeat_s)
        worker.mark_down(now)
        orphans = self._lost.pop(worker.wid, [])
        orphans.extend(worker.queue.prune(lambda r: True))
        if orphans:
            self._recover_requests(orphans, now)

    def _on_probe(self, now: float) -> None:
        """Heartbeat sweep: refresh live workers, time out silent ones."""
        rec = self._recovery
        for worker in self.pool.workers:
            if not worker.healthy:
                if worker.queue.pending:
                    # Arrivals routed while every worker was down: drain
                    # them so the run cannot wedge on an unreachable queue.
                    self._recover_requests(worker.queue.prune(lambda r: True), now)
                continue
            heard = self._executor.heartbeat(self, worker, now)
            if heard:
                worker.last_heartbeat_s = now
                worker.state = WORKER_UP
                continue
            worker.state = WORKER_SUSPECT
            if heard is None or now - worker.last_heartbeat_s >= rec.heartbeat_timeout_s:
                self._mark_down(worker, now)
        if self._heap or self.pool.pending or self.pool.busy_workers or any(self._lost.values()):
            self._push(now + rec.heartbeat_interval_s, _PROBE, None)

    # ------------------------------------------------------------------
    def _step(self, t: float, kind: int, payload: object) -> None:
        """Handle one event at ``t``, then rebalance and sample."""
        if kind == _ARRIVE:
            self._on_arrive(payload, t)
        elif kind == _COMPLETE:
            self._on_complete(payload[0], payload[1], t)
        elif kind == _TIMER:
            if t >= self._timer_armed.get(payload.wid, math.inf):
                del self._timer_armed[payload.wid]
            self._dispatch(payload, t)
        elif kind == _EXPIRE:
            self._on_expire(t)
        elif kind == _CRASH:
            self._on_crash(payload, t)
        elif kind == _REJOIN:
            self._on_rejoin(payload, t)
        elif kind == _PROBE:
            self._on_probe(t)
        else:  # _RETRY
            self._on_retry(payload, t)
        self._balance(t)
        self.metrics.sample(t, self.pool.pending, self.pool.busy_workers)

    # Hooks for wall-clock executors, whose clock and completions live
    # outside the heap.
    def complete(self, serial: int, failed: bool, now: float) -> None:
        """Batch ``serial`` came back at ``now`` (ok, or a transient error)."""
        self._step(now, _COMPLETE, (serial, failed))

    def advance(self, now: float) -> None:
        """Handle, at ``now``, every heap event due by ``now``."""
        heap = self._heap
        while heap and heap[0][0] <= now:
            _, _, kind, payload = heapq.heappop(heap)
            self._step(now, kind, payload)

    def outstanding(self) -> bool:
        """A request is unaccounted for, or an event other than the
        heartbeat (which re-arms only while work remains) is pending."""
        m = self.metrics
        return m.submitted > len(m.records) + len(m.drops) or any(e[2] != _PROBE for e in self._heap)

    def abort(self, now: float) -> None:
        """Terminally fail every submitted request still in the system."""
        stranded = [r for _, batch, _, _ in self._inflight.values() for r in batch.requests]
        stranded += [r for orphans in self._lost.values() for r in orphans]
        stranded += [r for w in self.pool.workers for r in w.queue.prune(lambda r: True)]
        stranded += [payload for _, _, kind, payload in self._heap if kind == _RETRY]
        self._inflight.clear()
        self._lost.clear()
        self._heap.clear()
        for request in stranded:
            self.metrics.note_failed(request, now)

    # ------------------------------------------------------------------
    def run(self, source: RequestSource) -> ClusterReport:
        """Drive the event loop until every queued request completed."""
        self._source = source
        for req in source.initial():
            self._push(req.arrival_s, _ARRIVE, req)
        if self._injector is not None:
            for t, wid in self._injector.crash_events():
                self._push(t, _CRASH, wid)
            for t, wid in self._injector.rejoin_events():
                self._push(t, _REJOIN, wid)
        if self._injector is not None or self._executor.probes:
            self._push(self._recovery.heartbeat_interval_s, _PROBE, None)
        self._executor.drive(self)
        lost = sum(len(v) for v in self._lost.values())
        if self.pool.pending or lost:  # pragma: no cover - policy bug guard
            raise RuntimeError(
                f"simulation drained its event heap with {self.pool.pending} "
                f"requests still queued and {lost} lost in-flight (policy "
                "never closed a batch, or recovery never ran)"
            )
        return self.report()

    def report(self) -> ClusterReport:
        return self.metrics.report(
            self.pool.workers, self.pool.steals, retries=self._retries, requeues=self._requeues
        )


def simulate(source: RequestSource, config: Optional[SimConfig] = None) -> ClusterReport:
    """One-shot convenience wrapper: build a simulator, run the source."""
    return ClusterSimulator(config).run(source)
