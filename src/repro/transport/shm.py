"""Shared-memory tensor slots: zero-copy operand shipping.

One :class:`ShmSlot` is one parent-owned ``multiprocessing.shared_memory``
segment that carries batch after batch.  For each batch the parent
writes the operands into the front of the slot as four contiguous
float64 regions — ``q | k | v | out``, each ``(b, n, hidden)`` — and
ships only the slot *name* plus the batch's :class:`ShmLayout` over the
control queue.  The worker process maps the slot once, builds ``numpy``
views over the same physical pages for every batch it carries (no copy,
no pickle for tensor data), runs the engine, and writes the stacked
output into the ``out`` region before sending its tiny completion
message.  The parent copies the output out and the slot is free for the
next batch; only a slot too small for a later batch, or transport close,
unlinks it.

Reuse is the point: creating, page-faulting and unlinking a fresh
segment per batch (and attaching and closing it again in the worker)
cost several times the operand writes themselves.

Ownership is strictly parent-side: workers never *create* segments, so a
``kill -9``'d worker can leak nothing the parent does not already hold a
handle to — :meth:`ShmSlot.destroy` (run on every slot by transport
close) reclaims the slots of lost batches too.

Python's ``resource_tracker`` complicates the attach side: before 3.13,
attaching to an existing segment also *registers* it with the resource
tracker.  For unrelated processes that is the famous premature-unlink
bug, but our workers are ``multiprocessing`` children sharing the
parent's tracker process (fork inherits its pipe, spawn is handed it),
and the tracker's registry is a *set*: the child's attach-register is a
no-op re-add of the parent's own registration.  The widely circulated
"unregister after attach" workaround would here remove the parent's
registration out from under it (the parent's unlink then logs a tracker
``KeyError``), so :func:`attach` deliberately leaves the registration
alone — segment lifetime stays a parent-side concern throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Optional, Tuple

import numpy as np

__all__ = ["ShmSlot", "ShmLayout", "attach"]

_FLOAT = np.float64


def attach(name: str) -> shared_memory.SharedMemory:
    """Map an existing segment from a worker child (see module docstring)."""
    return shared_memory.SharedMemory(name=name)


@dataclass(frozen=True)
class ShmLayout:
    """Shape metadata shipped alongside a slot name (picklable, tiny)."""

    shape: Tuple[int, int, int]  # (b, n, hidden) of each region

    @property
    def region_items(self) -> int:
        b, n, h = self.shape
        return b * n * h

    @property
    def region_bytes(self) -> int:
        return self.region_items * np.dtype(_FLOAT).itemsize

    @property
    def total_bytes(self) -> int:
        return 4 * self.region_bytes  # q | k | v | out

    def region(self, buf: memoryview, index: int) -> np.ndarray:
        """The ``index``-th region of ``buf`` as a (b, n, hidden) view."""
        start = index * self.region_bytes
        return np.ndarray(
            self.shape, dtype=_FLOAT, buffer=buf, offset=start
        )


class ShmSlot:
    """Parent-side handle on one reusable shared segment.

    :meth:`write` lays a batch's operands into the slot; the worker side
    maps the same segment and reads it through :meth:`views`;
    :meth:`read_output` copies the result back out.  ``destroy()`` is
    idempotent and must eventually be called exactly once per slot
    (when the slot is retired, or at transport close).
    """

    def __init__(self, nbytes: int) -> None:
        self.shm: Optional[shared_memory.SharedMemory] = shared_memory.SharedMemory(
            create=True, size=nbytes
        )
        self.capacity = nbytes
        self.layout: Optional[ShmLayout] = None  # of the batch last written

    # ------------------------------------------------------------------
    def write(self, q: np.ndarray, k: np.ndarray, v: np.ndarray) -> ShmLayout:
        """Write stacked operands into the slot; returns their layout."""
        layout = ShmLayout(shape=tuple(q.shape))  # type: ignore[arg-type]
        buf = self._live().buf
        layout.region(buf, 0)[...] = q
        layout.region(buf, 1)[...] = k
        layout.region(buf, 2)[...] = v
        self.layout = layout
        return layout

    @staticmethod
    def views(
        shm: shared_memory.SharedMemory, layout: ShmLayout
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(q, k, v, out) views over a mapped segment — worker side."""
        buf = shm.buf
        return (
            layout.region(buf, 0),
            layout.region(buf, 1),
            layout.region(buf, 2),
            layout.region(buf, 3),
        )

    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self._live().name

    def _live(self) -> shared_memory.SharedMemory:
        if self.shm is None:
            raise ValueError("slot already destroyed")
        return self.shm

    def read_output(self) -> np.ndarray:
        """Copy the worker-written ``out`` region into caller-owned memory.

        A copy on purpose: the next batch written into the slot
        overwrites the region, and a destroyed slot's view would dangle.
        """
        return np.array(self.layout.region(self._live().buf, 3))

    def destroy(self) -> None:
        """Close and unlink the segment (idempotent)."""
        if self.shm is None:
            return
        try:
            self.shm.close()
            self.shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass
        self.shm = None
