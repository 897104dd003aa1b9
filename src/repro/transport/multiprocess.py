"""Multiprocess transport driver: one worker process, one warm Runtime.

This is the "true parallelism" half of the transport split.  Each
:class:`MultiprocessTransport` owns one OS process running
:func:`_worker_main`: a loop that builds its own
:class:`~repro.api.Runtime` (its warm plan cache is process-local state,
exactly like a :class:`~repro.cluster.pool.Worker`'s SALO in the
simulator), maps each submitted batch's operands out of shared memory,
executes, writes the stacked output back into the same segment and
answers with a small completion message.  N transports are N python
interpreters — N GILs — so a pool of them is the first configuration in
this repo where multi-worker throughput is *measured* parallelism, not
cost-model arithmetic.

Wire format (per batch)
-----------------------
* One free **slot** from the transport's pool of parent-owned
  ``multiprocessing.shared_memory`` segments (:mod:`repro.transport.shm`).
  The parent writes Q/K/V into its front as contiguous float64
  ``(b, n, hidden)`` regions laid out ``q | k | v | out``; the worker
  *maps* them — never pickled, never re-copied.  A slot carries one
  batch at a time and returns to the pool once its completion has been
  absorbed and the output copied out, so the pool grows only to the
  peak number of batches in flight.  When no free slot holds
  ``4·b·n·hidden`` float64, a new one is created; a free slot too small
  for the batch is retired instead of kept.
* One control message on the request queue:
  ``("submit", batch_id, slot_name, layout, pattern, heads, valid_lens)``
  — everything small enough that pickling is noise.  The worker maps a
  slot the first time its name arrives and keeps it mapped;
  ``("retire", slot_name)`` tells it to unmap one, after which the
  parent unlinks it.
* One completion message on the completion queue:
  ``("done", batch_id, outcome, error, service_s)`` with the output
  already sitting in the slot's ``out`` region.

Crash semantics
---------------
:meth:`kill` delivers ``SIGKILL`` — the real thing, not a simulation.
A killed worker sends nothing: its in-flight batches simply never
complete, probes go unanswered, ``alive`` flips false, and the slots of
lost batches stay parent-owned until :meth:`close` unlinks them.  This
is exactly the failure signature the cluster's heartbeat detection and
requeue recovery were built against, which is the point: the recovery
paths the simulator models are exercised here by an actual dead process.
"""

from __future__ import annotations

import queue as queue_mod
import time
from typing import Dict, List, Optional, Sequence, Tuple

import multiprocessing as mp
from multiprocessing import shared_memory

from .base import (
    DISPATCH_ERROR,
    DISPATCH_OK,
    Completion,
    TransportClosed,
    TransportRequest,
    WorkerTransport,
)
from .shm import ShmSlot, attach

__all__ = ["MultiprocessTransport", "default_context"]


def default_context() -> str:
    """Preferred start method: ``fork`` where the OS offers it.

    Fork keeps worker start-up in the low milliseconds (no interpreter
    re-import); the worker still builds its own Runtime after the fork,
    so its caches are its own.  Platforms without fork fall back to
    ``spawn`` transparently.
    """
    return "fork" if "fork" in mp.get_all_start_methods() else "spawn"


def _worker_main(wid, runtime_config, warm_specs, req_q, done_q) -> None:
    """Worker process body: warm a Runtime, serve the request queue.

    ``warm_specs`` is a list of ``(pattern, heads, head_dim)`` triples
    compiled before the worker reports ready, so steady-state traffic never pays
    a cold compile (the transport analogue of plan-affinity warmth).
    Slots stay mapped, keyed by name, until a ``("retire", name)``
    message or process exit.  Runs until a ``("stop",)`` message; every
    exception inside a dispatch is converted to a :data:`DISPATCH_ERROR`
    completion rather than killing the loop — only signals kill a worker.
    """
    from ..api import Runtime  # late import: after fork/spawn

    runtime = Runtime(runtime_config)
    for pattern, heads, head_dim in warm_specs:
        runtime.warm([pattern], heads=heads, head_dim=head_dim)
    mapped: Dict[str, shared_memory.SharedMemory] = {}
    done_q.put(("ready", wid))
    while True:
        msg = req_q.get()
        kind = msg[0]
        if kind == "stop":
            break
        if kind == "ping":
            done_q.put(("pong",))
        elif kind == "stats":
            done_q.put(("stats", runtime.cache_info()))
        elif kind == "retire":
            shm = mapped.pop(msg[1], None)
            if shm is not None:
                shm.close()
        else:
            done_q.put(_serve(runtime, mapped, *msg[1:]))


def _serve(runtime, mapped, batch_id, name, layout, pattern, heads, valid_lens) -> tuple:
    """Run one batch out of slot ``name``; returns its completion message.

    The operand views die with this frame, so a later ``retire`` can
    unmap the slot with nothing pointing into it.
    """
    t0 = time.perf_counter()
    try:
        shm = mapped.get(name)
        if shm is None:
            shm = mapped[name] = attach(name)
        q, k, v, out = ShmSlot.views(shm, layout)
        out[...] = runtime.attend(pattern, q, k, v, heads=heads, valid_lens=valid_lens).output
    except Exception as exc:
        return ("done", batch_id, DISPATCH_ERROR, f"{type(exc).__name__}: {exc}",
                time.perf_counter() - t0)
    return ("done", batch_id, DISPATCH_OK, None, time.perf_counter() - t0)


class MultiprocessTransport(WorkerTransport):
    """Driver over one out-of-process worker (see module docstring).

    Parameters
    ----------
    backend:
        Registered backend name the worker's Runtime is built from.
    wid:
        Worker id echoed in probes and reports.
    warm:
        ``(pattern, heads, head_dim)`` triples the worker compiles before
        reporting ready (start-up blocks until the warm-up finishes).
    context:
        ``multiprocessing`` start method; default :func:`default_context`.
    start_timeout_s:
        Budget for the worker's ready handshake (covers interpreter
        start plus warm-up compiles).
    """

    name = "multiprocess"

    def __init__(
        self,
        backend: str = "functional",
        wid: int = 0,
        warm: Sequence[Tuple] = (),
        context: Optional[str] = None,
        start_timeout_s: float = 60.0,
        runtime_config=None,
    ) -> None:
        from ..api import RuntimeConfig

        self.wid = wid
        self._config = (
            runtime_config if runtime_config is not None else RuntimeConfig(backend=backend)
        )
        # The shared-memory resource tracker must exist *before* the
        # worker forks: a child forked first would lazily spawn its own
        # private tracker on its first attach, and that tracker would
        # try to reclaim (already-unlinked) parent-owned segments at
        # child exit.  Started up-front, parent and children share one
        # tracker whose set-semantics registry keeps attach/unlink
        # accounting balanced (see repro.transport.shm).
        from multiprocessing import resource_tracker

        resource_tracker.ensure_running()
        self._ctx = mp.get_context(context or default_context())
        self._req_q = self._ctx.Queue()
        self._done_q = self._ctx.Queue()
        self._pending: Dict[int, ShmSlot] = {}
        self._free: List[ShmSlot] = []
        self._ready: List[Completion] = []
        self._heard = False  # a pong arrived since the last answered probe
        self._last_stats: Optional[dict] = None
        self._closed = False
        self._process = self._ctx.Process(
            target=_worker_main,
            args=(wid, self._config, list(warm), self._req_q, self._done_q),
            daemon=True,
        )
        self._process.start()
        self._await_ready(start_timeout_s)

    def _await_ready(self, timeout_s: float) -> None:
        deadline = time.perf_counter() + timeout_s
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                self.kill()
                raise TransportClosed(
                    f"worker {self.wid} did not report ready within {timeout_s}s"
                )
            try:
                msg = self._done_q.get(timeout=min(remaining, 0.2))
            except queue_mod.Empty:
                if not self._process.is_alive():
                    raise TransportClosed(
                        f"worker {self.wid} died during start-up"
                    )
                continue
            if msg[0] == "ready":
                return

    # ------------------------------------------------------------------
    def submit(self, request: TransportRequest) -> None:
        if self._closed or not self.alive:
            raise TransportClosed(f"worker {self.wid} is not accepting work")
        slot = self._take_slot(4 * request.q.nbytes)
        layout = slot.write(request.q, request.k, request.v)
        self._pending[request.batch_id] = slot
        self._req_q.put(
            (
                "submit",
                request.batch_id,
                slot.name,
                layout,
                request.pattern,
                request.heads,
                request.valid_lens,
            )
        )

    def _take_slot(self, nbytes: int) -> ShmSlot:
        """The smallest free slot of at least ``nbytes``, else a new one.

        A new slot replaces the smallest free one (too small, or it
        would have been taken), so the pool never outgrows the peak
        number of batches in flight.  The worker unmaps the retired slot
        before the parent unlinks it.
        """
        fits = [slot for slot in self._free if slot.capacity >= nbytes]
        if fits:
            slot = min(fits, key=lambda s: s.capacity)
            self._free.remove(slot)
            return slot
        if self._free:
            retired = min(self._free, key=lambda s: s.capacity)
            self._free.remove(retired)
            self._req_q.put(("retire", retired.name))
            retired.destroy()
        return ShmSlot(nbytes)

    def _slots(self) -> List[ShmSlot]:
        """Every slot this transport owns: free and in flight."""
        return self._free + list(self._pending.values())

    # ------------------------------------------------------------------
    def _absorb(self, msg) -> None:
        """File one completion-queue message into the right bucket."""
        kind = msg[0]
        if kind == "done":
            _, batch_id, outcome, error, service_s = msg
            slot = self._pending.pop(batch_id, None)
            output = None
            if slot is not None:
                if outcome == DISPATCH_OK:
                    output = slot.read_output()
                self._free.append(slot)
            self._ready.append(
                Completion(
                    batch_id=batch_id,
                    outcome=outcome,
                    output=output,
                    error=error,
                    service_s=service_s,
                )
            )
        elif kind == "pong":
            self._heard = True
        elif kind == "stats":
            self._last_stats = msg[1]

    def _drain(self, timeout_s: float = 0.0) -> None:
        """Absorb queued messages, waiting up to ``timeout_s`` for the first."""
        deadline = time.perf_counter() + timeout_s
        first = True
        while True:
            try:
                wait = max(0.0, deadline - time.perf_counter()) if first else 0.0
                msg = self._done_q.get(timeout=wait) if wait > 0 else self._done_q.get_nowait()
            except queue_mod.Empty:
                return
            first = False
            self._absorb(msg)

    def poll(self, timeout_s: float = 0.0) -> Sequence[Completion]:
        self._drain(timeout_s)
        out = self._ready
        self._ready = []
        return out

    def probe(self, timeout_s: float = 0.1) -> bool:
        """Ping the worker loop; completions arriving meanwhile are kept.

        The queue is drained at least once, so ``timeout_s=0`` works: a
        pong answering an earlier, unanswered probe counts as hearing
        from the worker.  A worker that is mid-batch cannot answer until
        the batch ends (its loop is single-threaded, like a GPU worker
        saturating its device) — callers treat an unanswered probe on a
        *busy* worker as load, not death; a dead process fails instantly
        via ``alive``.
        """
        if self._closed or not self.alive:
            return False
        try:
            self._req_q.put(("ping",))
        except (ValueError, OSError):  # queue closed under us
            return False
        deadline = time.perf_counter() + timeout_s
        while True:
            self._drain(timeout_s=min(0.02, max(0.0, deadline - time.perf_counter())))
            if self._heard:
                self._heard = False
                return True
            if not self.alive or time.perf_counter() >= deadline:
                return False

    def cache_info(self) -> dict:
        """Worker-reported plan-cache counters (last known on timeout)."""
        if self.alive and not self._closed and self.inflight == 0:
            try:
                self._req_q.put(("stats",))
                deadline = time.perf_counter() + 0.5
                self._last_stats = None
                while time.perf_counter() < deadline and self._last_stats is None:
                    self._drain(timeout_s=0.05)
            except (ValueError, OSError):  # pragma: no cover - closed queue
                pass
        if self._last_stats is not None:
            return self._last_stats
        return super().cache_info()

    # ------------------------------------------------------------------
    @property
    def alive(self) -> bool:
        return self._process is not None and self._process.is_alive()

    @property
    def inflight(self) -> int:
        return len(self._pending)

    def kill(self) -> None:
        """SIGKILL the worker process; in-flight batches are lost.

        Their slots stay parent-owned (never reused) until :meth:`close`.
        """
        if self._process is not None and self._process.is_alive():
            self._process.kill()
            self._process.join(timeout=5.0)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._process is not None and self._process.is_alive():
            try:
                self._req_q.put(("stop",))
                self._process.join(timeout=5.0)
            except (ValueError, OSError):  # pragma: no cover - queue gone
                pass
            if self._process.is_alive():
                self.kill()
        # Unlink every slot, including those of lost batches.
        for slot in self._slots():
            slot.destroy()
        self._free.clear()
        self._pending.clear()
        for q in (self._req_q, self._done_q):
            q.cancel_join_thread()
            q.close()
