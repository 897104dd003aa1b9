"""Shared machinery of the benchmark: spans, timing windows, stamps.

Spans are recorded only by the benchmark's own wrappers around calls
into ``repro.*`` (see :func:`patched`); nothing in ``src/`` is edited.
With tracing off, :meth:`Tracer.span` returns a shared no-op context and
no wrapper is installed on a timed call (output checks wrap only calls
outside the timers), so untraced runs measure the program as users call
it.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

_NULL = contextlib.nullcontext()

#: BLAS/OpenMP thread variables recorded (never set) in every stamp.
THREAD_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class Tracer:
    """In-memory span recorder, written out once when the run ends.

    A span is ``[name, start_s, end_s, parent_index, id]``; ``id`` is the
    layer, batch or request the work belongs to and is inherited from
    the enclosing span when not given.  Timing windows mark the measured
    regions against which :meth:`unattributed_share` is computed.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.t0 = time.perf_counter()
        self.spans: List[list] = []
        self.windows: List[Tuple[float, float]] = []
        self._stack: List[int] = []

    @contextlib.contextmanager
    def _record(self, name: str, rid):
        parent = self._stack[-1] if self._stack else None
        if rid is None and parent is not None:
            rid = self.spans[parent][4]
        rec = [name, time.perf_counter() - self.t0, None, parent, rid]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter() - self.t0
            self._stack.pop()

    def span(self, name: str, rid=None):
        """Context manager timing one call into a layer (no-op when off)."""
        return self._record(name, rid) if self.enabled else _NULL

    def window(self, start: float, end: float) -> None:
        """Record one measured region (``perf_counter`` seconds)."""
        if self.enabled:
            self.windows.append((start - self.t0, end - self.t0))

    # -- queries --------------------------------------------------------
    def select(self, name: str, rid=None, since: int = 0) -> List[int]:
        """Indices of the spans named ``name`` (optionally of one id)."""
        return [
            i
            for i in range(since, len(self.spans))
            if self.spans[i][0] == name and (rid is None or self.spans[i][4] == rid)
        ]

    def duration(self, index: int) -> float:
        return self.spans[index][2] - self.spans[index][1]

    def durations(self, name: str, rid=None, since: int = 0) -> List[float]:
        return [self.duration(i) for i in self.select(name, rid, since)]

    def inner(self, index: int, name: str) -> float:
        """Total time of the spans named ``name`` nested inside span ``index``.

        Spans are appended in start order by one thread, so a span's
        descendants are exactly the following spans that start before
        it ends.
        """
        end = self.spans[index][2]
        total = 0.0
        for j in range(index + 1, len(self.spans)):
            s = self.spans[j]
            if s[1] >= end:
                break
            if s[0] == name:
                total += s[2] - s[1]
        return total

    def unattributed_share(self) -> float:
        """Share of measured wall time that no layer span covers."""
        wall = sum(end - start for start, end in self.windows)
        if wall <= 0:
            return 0.0
        tops = sorted((s[1], s[2]) for s in self.spans if s[3] is None)
        covered = 0.0
        for w_start, w_end in self.windows:
            cursor = w_start
            for start, end in tops:
                start, end = max(start, cursor), min(end, w_end)
                if end > start:
                    covered += end - start
                    cursor = end
        return max(0.0, 1.0 - covered / wall)

    def dump(self, path: Path) -> None:
        payload = [
            {"name": n, "start_s": s, "end_s": e, "parent": p, "id": rid}
            for n, s, e, p, rid in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"windows": self.windows, "spans": payload}, fh, default=str)


def traced(tracer: Tracer, fn: Callable, name: str, rid: Optional[Callable] = None):
    """``fn`` wrapped in a span named ``name``; ``rid``, when given, maps
    the call's arguments to the span's id."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name, rid(*args, **kwargs) if rid else None):
            return fn(*args, **kwargs)

    return wrapper


@contextlib.contextmanager
def patched(targets: Iterable[Tuple[object, str, Callable]]):
    """Temporarily replace ``owner.attr`` with ``make(original)``.

    Used only by traced runs, and restored even when the run fails, so
    an untraced phase after a traced one sees the original callables.
    """
    saved = []
    try:
        for owner, attr, make in targets:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# -- statistics ------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def mean(values: Sequence[float]) -> float:
    return float(statistics.fmean(values)) if values else 0.0


def peak_rss_mb() -> float:
    """Peak resident set of this process (child processes excluded)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def digest(payload) -> str:
    """Stable short hash of a JSON-serialisable payload."""
    blob = json.dumps(payload, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def array_digest(array: np.ndarray) -> str:
    """Stable short hash of an array's bytes."""
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()[:16]


# -- results -------------------------------------------------------------
@dataclass
class Result:
    """What one workload run measured and checked.

    ``metrics`` maps a metric name to ``(value, unit)``.  ``attempted``
    and ``failed`` are the workload's operations (attend calls,
    requests, simulations); a failed output check adds to ``failed``.
    ``inputs`` describes the generated inputs and is hashed into the
    stamp, so two seeds can be told apart without re-running.
    """

    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    #: Metrics that are not host measurements, by kind: "computed" (plan
    #: and cost model), "counted" (deterministic event counts) or
    #: "simulated" (simulated-time results).  They repeat exactly.
    exact: Dict[str, str] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    checks: List[str] = field(default_factory=list)  # failure messages
    inputs: dict = field(default_factory=dict)
    info: dict = field(default_factory=dict)
    tracer: Optional[Tracer] = None  # written out by traced runs

    def put(self, name: str, value: float, unit: str, kind: str = "measured") -> None:
        self.metrics[name] = (float(value), unit)
        if kind != "measured":
            self.exact[name] = kind

    def fail(self, ops: int, message: str) -> None:
        self.failed += ops
        self.checks.append(message)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.checks


def _git_sha(root: Path) -> Optional[str]:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def source_digest(root: Path) -> str:
    """SHA-256 over every file of the measured package (``src/repro``)."""
    h = hashlib.sha256()
    pkg = root / "src" / "repro"
    for path in sorted(pkg.rglob("*.py")):
        h.update(str(path.relative_to(pkg)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _blas() -> dict:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": deps.get("name"), "version": deps.get("version")}
    except (KeyError, TypeError, ValueError):
        return {"name": "unknown", "version": None}


def stamp(root: Path, workload: str, seed: int, trace: bool, inputs: dict) -> dict:
    """Provenance of one result: code, host, libraries and inputs."""
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "git_sha": _git_sha(root),
        "source_sha256": source_digest(root),
        "visible_cores": len(os.sched_getaffinity(0)),
        "blas": _blas(),
        "thread_env": {k: os.environ[k] for k in THREAD_ENV_VARS if k in os.environ},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": sys.platform,
        "inputs_sha256": digest(inputs),
        "inputs": inputs,
    }
