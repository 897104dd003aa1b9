"""``transport-burst``: short requests burst into real worker processes.

Each burst submits ``burst`` requests at t=0 to a ``TransportCluster``
over one ``MultiprocessTransport`` worker per visible core, batch cap 8.
A batch is a few ms of compute, so parent-side packing, shared-memory
writes, the serial completion poll and completion pickup carry a large
share of the time; the engine sees the batch axis and three small plans
instead of one long sequence.

Requests use the three plan families of ``TraceSpec(mixed=True, n=512,
window=64, heads=4, head_dim=16)`` in equal numbers, so every seed asks
for the same work; the seed draws the operands (``pool`` sets per
family), the request order and which set each request carries.  Every
burst of a run replays the same requests on freshly started workers, so
the batch counts repeat exactly.

Set-up is the benchmark's own: it starts the workers and primes each
with one full batch per family through the public ``submit``/``poll``,
so every plan the burst needs is compiled, at the burst's head dim,
before the timer starts; then every worker must answer ``probe``.

The timed bursts run the transports as the cluster builds them.  The
output check runs outside the timers, on a second cluster over the
first burst's (still running) workers, with the first
``CHECKED_REQUESTS`` requests of the burst: every completion it polls is
compared bit for bit with an in-process ``Runtime.attend`` of the same
stacked batch, and the four-way conservation law must hold with no
failures, for the check burst and for every timed one.
"""

from __future__ import annotations

import os
import resource
from multiprocessing import resource_tracker
import time
from dataclasses import replace
from typing import Dict, List

import numpy as np

from harness import Result, Tracer, array_digest, mean, median, patched, peak_rss_mb, traced

import repro.transport.cluster as transport_cluster
from repro.api import Runtime
from repro.serving.request import AttentionRequest
from repro.serving.trace import TraceSpec, pattern_families
from repro.transport.base import TransportRequest, stacked_operands
from repro.transport.cluster import TransportCluster, TransportClusterConfig
from repro.transport.multiprocess import MultiprocessTransport

SPEC = TraceSpec(mixed=True, n=512, window=64, heads=4, head_dim=16)
#: Distinct operand sets per plan family; a burst's requests reuse them.
POOL = 40
BURST = 2048
BATCH_CAP = 8
MIN_BURSTS = 3
#: Set-up samples per untraced run; those beyond the bursts' own start
#: workers and close them again.
SETUPS = 9
#: Requests of the untimed check burst, every batch of which is compared.
CHECKED_REQUESTS = 512
PROBE_TIMEOUT_S = 10.0
PRIME_TIMEOUT_S = 60.0


def _children_cpu_s() -> float:
    """CPU seconds of every reaped child process so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _children_peak_rss_mb() -> float:
    """Peak resident set of the largest reaped child process so far."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


class _Workers:
    """One set-up sample: worker processes started, primed and probed."""

    def __init__(self, config: TransportClusterConfig, primers, tracer: Tracer) -> None:
        self.cpu0 = _children_cpu_s()
        t0 = time.perf_counter()
        with tracer.span("transport.spawn"):
            self.transports = [
                MultiprocessTransport(backend=config.backend, wid=wid)
                for wid in range(config.workers)
            ]
        t1 = time.perf_counter()
        with tracer.span("transport.warm"):
            self.ready = _prime(self.transports, primers)
        t2 = time.perf_counter()
        self.spawn_s, self.setup_s = t1 - t0, t2 - t0

    def close(self) -> None:
        for transport in self.transports:
            transport.close()
        self.worker_cpu_s = _children_cpu_s() - self.cpu0


def _prime(transports, primers) -> bool:
    """Run every primer batch on every worker, then probe each worker."""
    for transport in transports:
        for primer in primers:
            transport.submit(primer)
    waiting = {t.wid: len(primers) for t in transports}
    ok = True
    deadline = time.perf_counter() + PRIME_TIMEOUT_S
    while any(waiting.values()) and time.perf_counter() < deadline:
        for transport in transports:
            if waiting[transport.wid]:
                for completion in transport.poll(0.005):
                    waiting[transport.wid] -= 1
                    ok = ok and completion.ok
    return (
        ok
        and not any(waiting.values())
        and all(t.probe(timeout_s=PROBE_TIMEOUT_S) for t in transports)
    )


def _primers(spec: TraceSpec, pool) -> List[TransportRequest]:
    """One full batch per plan family, packed as the cluster packs it.

    Ids are negative so they can never collide with the cluster's own
    batch ids, which count up from 1.
    """
    primers = []
    for f, family in enumerate(pattern_families(spec)):
        members = _requests(spec, pool, [(f, j % len(pool[f])) for j in range(BATCH_CAP)])
        q, k, v, valid_lens = stacked_operands(members, family)
        primers.append(
            TransportRequest(
                batch_id=-1 - f, pattern=family, q=q, k=k, v=v, heads=spec.heads,
                valid_lens=valid_lens,
            )
        )
    return primers


def _spans(tracer: Tracer, transport) -> None:
    """Span wrappers on one transport's submit/poll/probe (traced runs)."""
    submit, poll, probe = transport.submit, transport.poll, transport.probe

    def submit_(request):
        with tracer.span("transport.submit", request.batch_id):
            return submit(request)

    def poll_(timeout_s=0.0):
        with tracer.span("transport.poll") as rec:
            out = poll(timeout_s)
            if out:
                rec[4] = [c.batch_id for c in out]
        return out

    def probe_(timeout_s=0.1):
        with tracer.span("transport.probe", transport.wid):
            return probe(timeout_s)

    transport.submit, transport.poll, transport.probe = submit_, poll_, probe_


class _Checker:
    """Compares every batch a transport completes with an in-process attend."""

    def __init__(self, reference: Runtime, res: Result) -> None:
        self.reference, self.res = reference, res
        self.sent: Dict[int, TransportRequest] = {}
        self.checked = 0

    def wrap(self, transport) -> None:
        submit, poll = transport.submit, transport.poll

        def submit_(request):
            self.sent[request.batch_id] = request
            return submit(request)

        def poll_(timeout_s=0.0):
            out = poll(timeout_s)
            for completion in out:
                request = self.sent.pop(completion.batch_id, None)
                if request is not None:
                    self._compare(request, completion)
            return out

        transport.submit, transport.poll = submit_, poll_

    def _compare(self, request: TransportRequest, completion) -> None:
        self.checked += 1
        if not completion.ok:
            self.res.fail(request.size, f"batch {request.batch_id}: {completion.error}")
            return
        expected = self.reference.attend(
            request.pattern, request.q, request.k, request.v,
            heads=request.heads, valid_lens=request.valid_lens,
        ).output
        if not np.array_equal(expected, completion.output):
            self.res.fail(
                request.size, f"batch {request.batch_id}: output differs from in-process attend"
            )

    def finish(self) -> None:
        for batch_id, request in self.sent.items():
            self.res.fail(request.size, f"batch {batch_id}: no completion polled")
        if not self.checked:
            self.res.fail(1, "no batch was checked")


def _pool(spec: TraceSpec, rng: np.random.Generator, per_family: int):
    """``per_family`` operand sets for each of the spec's plan families."""
    hidden = spec.heads * spec.head_dim
    return [
        [
            tuple(rng.standard_normal((family.n, hidden)) for _ in range(3))
            for _ in range(per_family)
        ]
        for family in pattern_families(spec)
    ]


def _burst_order(rng: np.random.Generator, families: int, per_family: int, size: int):
    """(family, pool entry) per request: equal family counts, seeded order."""
    family = rng.permutation(np.arange(size) % families)
    return np.stack([family, rng.integers(per_family, size=size)], axis=1)


def _requests(spec: TraceSpec, pool, order) -> List[AttentionRequest]:
    families = pattern_families(spec)
    return [
        AttentionRequest(
            request_id=i, pattern=families[f], q=pool[f][j][0], k=pool[f][j][1],
            v=pool[f][j][2], heads=spec.heads,
        )
        for i, (f, j) in enumerate(order)
    ]


def _conserved(report, requests, res: Result) -> None:
    """Four-way conservation with every request completed."""
    accounted = report.completed + report.rejected + report.shed + report.failed
    if report.submitted != accounted or report.failed or report.completed != len(requests):
        res.fail(
            max(report.failed, len(requests) - report.completed, 1),
            f"conservation: submitted {report.submitted} completed {report.completed} "
            f"rejected {report.rejected} shed {report.shed} failed {report.failed}",
        )


def run(
    seed: int,
    seconds: float,
    trace: bool,
    pool: int = POOL,
    burst: int = BURST,
    workers: int = 0,
) -> Result:
    try:
        return _run(seed, seconds, trace, pool, burst, workers)
    finally:
        _stop_resource_tracker()


def _stop_resource_tracker() -> None:
    """Stop and reap the shared-memory tracker the transport started.

    It would otherwise outlive this process briefly; the benchmark must
    leave no process behind.  ``_stop`` is CPython's own (private)
    shutdown hook; a later transport restarts the tracker on demand.
    """
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()


def _run(seed: int, seconds: float, trace: bool, pool: int, burst: int, workers: int) -> Result:
    workers = workers or len(os.sched_getaffinity(0))
    spec = replace(SPEC, seed=seed)
    families = pattern_families(spec)
    rng = np.random.default_rng(seed)
    entries = _pool(spec, rng, pool)
    order = _burst_order(rng, len(families), pool, burst)
    primers = _primers(spec, entries)
    config = TransportClusterConfig(
        workers=workers, driver="multiprocess", max_batch_size=BATCH_CAP
    )
    tracer = Tracer(trace)
    res = Result(
        inputs={
            "spec": repr(spec),
            "burst": burst,
            "workers": workers,
            "order_sha256": array_digest(order),
            "first_operands_sha256": array_digest(entries[0][0][0]),
        },
        tracer=tracer,
    )
    checked = False

    def bursts(budget_s: float) -> List[dict]:
        nonlocal checked
        rows: List[dict] = []
        deadline = time.perf_counter() + budget_s
        while len(rows) < MIN_BURSTS or time.perf_counter() < deadline:
            requests = _requests(spec, entries, order)
            w = _Workers(config, primers, tracer)
            try:
                if not w.ready:
                    res.fail(len(requests), "a worker failed its priming batches or probe")
                    return rows
                if tracer.enabled:
                    for transport in w.transports:
                        _spans(tracer, transport)
                cluster = TransportCluster(config, transports=w.transports)
                mark = len(tracer.spans)
                cpu0 = time.process_time()
                t0 = time.perf_counter()
                report = cluster.run(requests)
                t1 = time.perf_counter()
                parent_cpu_s = time.process_time() - cpu0
                tracer.window(t0, t1)
                # Read before the check, whose in-process engine is the
                # benchmark's own memory, not the program's.
                parent_peak = peak_rss_mb()
                if not checked:
                    checked = True
                    check = _requests(spec, entries, order[:CHECKED_REQUESTS])
                    _check_burst(w, config, check, res)
            finally:
                w.close()
            res.attempted += len(requests)
            _conserved(report, requests, res)
            row = _row(cluster, report, requests, tracer, mark, t1 - t0)
            row.update(
                setup_s=w.setup_s, spawn_s=w.spawn_s, parent_cpu_s=parent_cpu_s,
                worker_cpu_s=w.worker_cpu_s,
                peak_rss_mb=parent_peak + _children_peak_rss_mb(),
            )
            rows.append(row)
        return rows

    if not trace:
        rows = bursts(seconds)
        setup_s = [r["setup_s"] for r in rows]
        while len(setup_s) < SETUPS:  # set-up alone, without a burst
            w = _Workers(config, primers, tracer)
            w.close()
            if not w.ready:
                res.fail(1, "a worker failed its priming batches or probe")
            setup_s.append(w.setup_s)
        res.put("setup_s", median(setup_s), "s")
        # Parent plus the largest worker, read after the first burst:
        # later bursts only add allocator high-water noise.  Pages the
        # workers inherit at fork count in both, so this is an upper bound.
        res.put("peak_rss_mb", rows[0]["peak_rss_mb"], "MB")
        res.put("throughput_rps", median([r["rps"] for r in rows]), "req/s")
        res.put("tokens_per_s", median([r["tokens_per_s"] for r in rows]), "tokens/s")
        res.put("latency_ms", median([r["latency_ms"] for r in rows]), "ms")
        return res

    tracer.enabled = False
    plain = bursts(seconds / 2)
    tracer.enabled = True
    first_id = lambda requests, pattern: requests[0].request_id if requests else None  # noqa: E731
    pack = lambda f: traced(tracer, f, "serving.pack", rid=first_id)  # noqa: E731
    with patched([(transport_cluster, "stacked_operands", pack)]):
        rows = bursts(seconds / 2)
    res.put("transport.spawn_s", median([r["spawn_s"] for r in rows]), "s")
    res.put("transport.warm_s", median([r["setup_s"] for r in rows]), "s")
    for key, name, unit, kind in PER_LAYER:
        res.put(name, median([r[key] for r in rows]), unit, kind)
    rps = lambda rs: median([r["rps"] for r in rs])  # noqa: E731
    res.put("trace.overhead_share", rps(plain) / rps(rows) - 1.0, "share")
    res.put("trace.unattributed_share", tracer.unattributed_share(), "share")
    return res


def _check_burst(w: _Workers, config, requests, res: Result) -> None:
    """One untimed burst over ``w``'s workers, every batch compared."""
    checker = _Checker(Runtime(backend="functional"), res)
    for transport in w.transports:
        checker.wrap(transport)
    report = TransportCluster(config, transports=w.transports).run(requests)
    res.attempted += len(requests)
    checker.finish()
    _conserved(report, requests, res)


#: (row key, metric, unit, kind) reported as medians over traced bursts.
PER_LAYER = (
    ("pack_ms_mean", "serving.pack_ms_mean", "ms", "measured"),
    ("submit_ms_mean", "transport.submit_ms_mean", "ms", "measured"),
    ("poll_s_total", "transport.poll_s_total", "s", "measured"),
    ("poll_calls", "transport.poll_calls", "count", "measured"),
    ("poll_hit_ratio", "transport.poll_hit_ratio", "share", "measured"),
    ("probe_s_total", "transport.probe_s_total", "s", "measured"),
    ("inflight_ms_p50", "transport.inflight_ms_p50", "ms", "measured"),
    ("service_ms_mean", "worker.service_ms_mean", "ms", "measured"),
    ("busy_share", "worker.busy_share", "share", "measured"),
    ("parent_cpu_s", "parent.cpu_s", "s", "measured"),
    ("worker_cpu_s", "worker.cpu_s", "s", "measured"),
    ("queue_wait_ms_p50", "cluster.queue_wait_ms_p50", "ms", "measured"),
    ("batch_size_mean", "serving.batch_size_mean", "count", "counted"),
    ("batches", "serving.batches", "count", "counted"),
    ("requeues", "transport.requeues", "count", "counted"),
    ("retries", "transport.retries", "count", "counted"),
)


def _row(cluster, report, requests, tracer: Tracer, mark: int, wall_s: float) -> dict:
    records = cluster.metrics.records
    polls = tracer.select("transport.poll", since=mark)
    batches = sum(w.batches for w in report.workers)
    return {
        "rps": report.completed / wall_s,
        "tokens_per_s": sum(r.n for r in requests) / wall_s,
        "latency_ms": median([r.latency_s for r in records]) * 1e3,
        "pack_ms_mean": mean(tracer.durations("serving.pack", since=mark)) * 1e3,
        "submit_ms_mean": mean(tracer.durations("transport.submit", since=mark)) * 1e3,
        "poll_s_total": sum(tracer.duration(i) for i in polls),
        "poll_calls": len(polls),
        "poll_hit_ratio": (
            sum(1 for i in polls if tracer.spans[i][4] is not None) / len(polls)
            if polls else 0.0
        ),
        "probe_s_total": sum(tracer.durations("transport.probe", since=mark)),
        "inflight_ms_p50": median([r.complete_s - r.dispatch_s for r in records]) * 1e3,
        "service_ms_mean": (
            sum(w.busy_s for w in report.workers) / batches * 1e3 if batches else 0.0
        ),
        "busy_share": mean([w.utilization for w in report.workers]),
        "queue_wait_ms_p50": median([r.queue_s for r in records]) * 1e3,
        "batch_size_mean": report.mean_batch_size,
        "batches": batches,
        "requeues": report.requeues,
        "retries": report.retries,
    }
