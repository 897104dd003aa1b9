"""``paper-layers``: the three Table 2 attention layers, one sequence a call.

Longformer 4096/512 x12 heads, ViL-stage1 56x56 x3 heads and ViL-stage2
28x28 x6 heads run through ``Runtime(backend="functional").attend``.
Long sequences with three fixed structures put nearly all host time in
scheduler compile and accelerator kernels, and none in the serving,
transport or cluster layers: engine changes show here, control-plane
changes must not.

Set-up is a fresh ``Runtime`` plus the first (cold) call of each layer,
repeated ``setups`` times; warm rounds follow, each on fresh operands
drawn outside the timer.
"""

from __future__ import annotations

import time
from typing import List, Sequence, Tuple

import numpy as np

from harness import Result, Tracer, array_digest, mean, median, patched, peak_rss_mb, traced

from repro.accelerator.functional import FunctionalEngine
from repro.api import Runtime
from repro.baselines.cpu_gpu_model import CPU_XEON_E5_2630V3, GPU_1080TI
from repro.quant.error import sqnr_db
from repro.scheduler.plan import ExecutionPlan
from repro.scheduler.scheduler import DataScheduler
from repro.workloads.configs import PAPER_WORKLOADS, AttentionWorkload

#: (metric label, layer) in paper order.
LAYERS: Tuple[Tuple[str, AttentionWorkload], ...] = (
    ("longformer", PAPER_WORKLOADS["Longformer"]),
    ("vil1", PAPER_WORKLOADS["ViL-stage1"]),
    ("vil2", PAPER_WORKLOADS["ViL-stage2"]),
)

SETUPS = 3
#: Warm rounds whose outputs are checked against the exact oracle.
CHECKED_ROUNDS = 2
MIN_ROUNDS = 3
#: The repository's own acceptance rule for the Q8.4 datapath
#: (``repro.quant.error.QuantErrorReport.acceptable``).  The parity
#: suite's absolute 0.2 bound is sized for 4-wide heads; 64-wide heads
#: on unit-variance operands exceed it on the quantised datapath.
MIN_SQNR_DB = 20.0


def _operands(rng: np.random.Generator, layer: AttentionWorkload):
    return tuple(rng.standard_normal((layer.n, layer.hidden)) for _ in range(3))


class _Layers:
    """The benchmark's view of the layers: patterns, oracle, wrappers."""

    def __init__(self, layers, tracer: Tracer) -> None:
        self.layers = layers
        self.patterns = {label: layer.pattern() for label, layer in layers}
        self.tracer = tracer
        self.oracle = Runtime(backend="sparse-reference")

    def attend(self, runtime: Runtime, label: str, layer, q, k, v):
        with self.tracer.span("api.attend", label):
            return runtime.attend(self.patterns[label], q, k, v, heads=layer.heads)

    def check(self, label: str, layer, q, k, v, output, head: int) -> str:
        """Empty string when head ``head`` matches the exact oracle."""
        cols = slice(head * layer.head_dim, (head + 1) * layer.head_dim)
        if output.shape != q.shape or not np.all(np.isfinite(output)):
            return f"{label}: output shape {output.shape} or non-finite values"
        ref = self.oracle.attend(
            self.patterns[label], q[:, cols], k[:, cols], v[:, cols], heads=1
        ).output
        snr = sqnr_db(ref, output[:, cols])
        if not snr >= MIN_SQNR_DB:
            return f"{label} head {head}: SQNR {snr:.1f} dB < {MIN_SQNR_DB} dB"
        return ""

    def instruments(self):
        """Wrappers giving the scheduler/compile/engine spans."""
        t = self.tracer
        return [
            (DataScheduler, "schedule", lambda f: traced(t, f, "scheduler.schedule")),
            (ExecutionPlan, "compiled", lambda f: traced(t, f, "scheduler.compile")),
            (FunctionalEngine, "run", lambda f: traced(t, f, "accelerator.engine_run")),
        ]


def _setup(bench: _Layers, rng, res: Result) -> Tuple[Runtime, float]:
    """One cold set-up: a fresh Runtime and the first call of each layer."""
    cold = [(label, layer, _operands(rng, layer)) for label, layer in bench.layers]
    res.inputs.setdefault("first_operands_sha256", array_digest(cold[0][2][0]))
    t0 = time.perf_counter()
    runtime = Runtime(backend="functional")
    for label, layer, (q, k, v) in cold:
        bench.attend(runtime, label, layer, q, k, v)
    elapsed = time.perf_counter() - t0
    res.attempted += len(cold)
    return runtime, elapsed


def _retire(res: Result, runtime: Runtime) -> None:
    """Sum a runtime's plan-cache counters into ``res.info`` before the
    caller drops it (one Longformer plan holds ~0.4 GB)."""
    dropped = res.info.setdefault("dropped_plan_cache", {"hits": 0, "misses": 0})
    info = runtime.cache_info()
    dropped["hits"] += info["hits"]
    dropped["misses"] += info["misses"]


def _setups(bench: _Layers, rng, res: Result, count: int):
    """``count`` cold set-ups; only the last runtime is kept, and each
    earlier one is freed before the next compiles."""
    setup_s = []
    runtime = None
    for _ in range(count):
        if runtime is not None:
            _retire(res, runtime)
            runtime = None
        runtime, elapsed = _setup(bench, rng, res)
        setup_s.append(elapsed)
    return runtime, setup_s


def _rounds(bench: _Layers, runtime, rng, seconds: float, res: Result, first_round: int):
    """Warm rounds for ``seconds``; returns per-round (seconds, tokens)."""
    rounds: List[Tuple[float, int]] = []
    deadline = time.perf_counter() + seconds
    while len(rounds) < MIN_ROUNDS or time.perf_counter() < deadline:
        index = first_round + len(rounds)
        drawn = [(label, layer, _operands(rng, layer)) for label, layer in bench.layers]
        outputs = []
        t0 = time.perf_counter()
        for label, layer, (q, k, v) in drawn:
            outputs.append(bench.attend(runtime, label, layer, q, k, v).output)
        t1 = time.perf_counter()
        bench.tracer.window(t0, t1)
        rounds.append((t1 - t0, sum(layer.n for _, layer, _ in drawn)))
        res.attempted += len(drawn)
        if index < CHECKED_ROUNDS:
            for (label, layer, (q, k, v)), out in zip(drawn, outputs):
                problem = bench.check(label, layer, q, k, v, out, index % layer.heads)
                if problem:
                    res.fail(1, problem)
    return rounds


def _end_to_end(
    res: Result, setups: Sequence[float], rounds, calls_per_round: int, peak: float
) -> None:
    res.put("setup_s", median(setups), "s")
    res.put("peak_rss_mb", peak, "MB")
    res.put("tokens_per_s", median([tok / s for s, tok in rounds]), "tokens/s")
    res.put("throughput_rps", median([calls_per_round / s for s, _ in rounds]), "req/s")
    res.put("latency_ms", median([s for s, _ in rounds]) * 1e3, "ms")


def run(seed: int, seconds: float, trace: bool, layers=LAYERS, setups: int = SETUPS) -> Result:
    rng = np.random.default_rng(seed)
    tracer = Tracer(trace)
    bench = _Layers(layers, tracer)
    res = Result(
        inputs={
            "seed": seed,
            "layers": [
                {"label": label, "n": w.n, "hidden": w.hidden, "heads": w.heads,
                 "window": w.window, "kind": w.kind}
                for label, w in layers
            ],
        },
        tracer=tracer,
    )
    if not trace:
        # Peak RSS is read before the extra set-ups: the allocator keeps
        # the pages of a dropped runtime, so each set-up would raise it.
        runtime, setup_s = _setups(bench, rng, res, 1)
        rounds = _rounds(bench, runtime, rng, seconds, res, 0)
        peak = peak_rss_mb()
        runtime = None  # free its plans before the extra set-ups compile
        setup_s += _setups(bench, rng, res, setups - 1)[1]
        _end_to_end(res, setup_s, rounds, len(layers), peak)
        return res

    # Traced run: traced set-ups and rounds, then untraced rounds on the
    # same warm runtime; the gap between the two is the tracing overhead.
    with patched(bench.instruments()):
        runtime, setup_s = _setups(bench, rng, res, setups)
        setup_spans = len(tracer.spans)
        traced_rounds = _rounds(bench, runtime, rng, seconds / 2, res, 0)
    tracer.enabled = False
    plain_rounds = _rounds(bench, runtime, rng, seconds / 2, res, len(traced_rounds))
    _per_layer(res, bench, runtime, setups, setup_spans)
    rate = lambda rs: median([tok / s for s, tok in rs])  # noqa: E731
    res.put("trace.overhead_share", rate(plain_rounds) / rate(traced_rounds) - 1.0, "share")
    res.put("trace.unattributed_share", tracer.unattributed_share(), "share")
    return res


def _per_layer(res: Result, bench: _Layers, runtime, setups: int, setup_spans: int) -> None:
    tracer = bench.tracer
    info = runtime.cache_info()
    dropped = res.info.get("dropped_plan_cache", {"hits": 0, "misses": 0})
    hits = info["hits"] + dropped["hits"]
    misses = info["misses"] + dropped["misses"]
    res.put("core.plan_cache.misses", misses, "count", "counted")
    res.put("core.plan_cache.hit_ratio", hits / (hits + misses) if hits + misses else 0.0, "share")
    speedup_gpu, speedup_cpu = [], []
    for label, layer in bench.layers:
        cold = tracer.select("api.attend", label)[:setups]
        res.put(
            f"scheduler.schedule_ms.{label}",
            median([tracer.inner(i, "scheduler.schedule") for i in cold]) * 1e3,
            "ms",
        )
        res.put(
            f"scheduler.compile_ms.{label}",
            median([tracer.inner(i, "scheduler.compile") for i in cold]) * 1e3,
            "ms",
        )

        warm = tracer.select("api.attend", label, since=setup_spans)
        attend = [tracer.duration(i) for i in warm]
        engine = [tracer.inner(i, "accelerator.engine_run") for i in warm]
        res.put(f"api.attend_ms_p50.{label}", median(attend) * 1e3, "ms")
        res.put(f"accelerator.engine_run_ms_p50.{label}", median(engine) * 1e3, "ms")
        res.put(
            f"core.dispatch_ms_p50.{label}",
            median([a - e for a, e in zip(attend, engine)]) * 1e3,
            "ms",
        )

        # Computed from the plan and the cost model, not measured.
        pattern = bench.patterns[label]
        est = runtime.estimate(pattern, heads=layer.heads, head_dim=layer.head_dim)
        stats = est.raw
        res.put(f"scheduler.passes.{label}", stats.timing.num_passes, "count", "computed")
        res.put(f"accelerator.macs.{label}", stats.timing.total_macs, "MAC", "computed")
        res.put(f"accelerator.bytes.{label}", stats.traffic.dram_total, "B", "computed")
        res.put(f"model.salo_cycles.{label}", est.cycles, "cycles", "computed")
        speedup_gpu.append(GPU_1080TI.estimate(layer).latency_s / est.latency_s)
        speedup_cpu.append(CPU_XEON_E5_2630V3.estimate(layer).latency_s / est.latency_s)

    # CPU/GPU baselines are back-derived from the paper's published
    # speedups, so these are calibrated to the paper, not independent.
    res.put("model.speedup_vs_gpu.mean", mean(speedup_gpu), "x", "computed")
    res.put("model.speedup_vs_cpu.mean", mean(speedup_cpu), "x", "computed")

