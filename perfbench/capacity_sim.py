"""``capacity-sim``: the cost-model side of the stack, in host time.

No engine executes here, so host time sits in ``cluster.arrivals``
operand draws, the event loops, policies and metrics.  Its phases:

* a 4-worker cluster simulation of an open-loop Poisson trace
  (``open_loop`` + ``simulate``) at two load points: ``under``
  (rho 0.7, EDF, admit-all) and ``over`` (rho 1.2, the overload
  experiment's ``admit+shed`` mode, which runs the shedding and
  admission paths ``under`` bypasses);
* a ``DecodeClusterSimulator.run``;
* a reduced ``advise`` over ``examples/traffic_interactive_bulk.json``.

Rounds of all phases repeat for the whole run on the same seeded inputs,
and every repetition must reproduce the first one's report digest.  Every simulated phase runs on ``CostModelClock.flat()``, so
simulated results never depend on the committed bench snapshot.
"""

from __future__ import annotations

import dataclasses
import time
import tracemalloc
from pathlib import Path
from typing import Dict, List

from harness import Result, Tracer, digest, median, peak_rss_mb

from repro.advisor import RunCache, SearchSpace, TrafficSpec, advise
from repro.cluster import (
    CostModelClock,
    DecodeClusterSimulator,
    DecodeSimConfig,
    PoissonProcess,
    WorkloadSpec,
    open_loop,
    service_scales,
    simulate,
)
from repro.experiments.decode_scaling import decode_spec
from repro.experiments.overload import mode_config, overload_spec

WORKERS = 4
#: (label, offered load rho, overload-experiment mode).
POINTS = (("under", 0.7, "no-control"), ("over", 1.2, "admit+shed"))
REQUESTS = 1000
DECODE_SEQUENCES = 4096
DECODE_LANES = 8
#: A reduced search (2 or 4 workers, EDF, with and without admission).
SPACE = SearchSpace(workers=(2, 4), policies=("edf",))
#: The committed example traffic, used as written (its own seed), so
#: every benchmark seed asks the advisor the same question.
TRAFFIC_FILE = Path("examples") / "traffic_interactive_bulk.json"
#: One round: a set-up, then each phase.  Rounds repeat for the whole
#: run, so a slow spell of the host touches every phase alike.
ROUND = ("sims", "decode", "advise")
MIN_ROUNDS = 2


@dataclasses.dataclass
class _Context:
    clock: CostModelClock
    capacity_rps: float
    dispatch_s: float
    traffic: TrafficSpec


def _setup(root: Path) -> _Context:
    """Clock, service scales from the cost model, and the traffic spec."""
    clock = CostModelClock.flat()
    probe = WorkloadSpec(n=256, window=32, heads=2, head_dim=8)
    unit_s, dispatch_s = service_scales(probe, clock)
    return _Context(clock, WORKERS / unit_s, dispatch_s, TrafficSpec.load(root / TRAFFIC_FILE))


def _point(ctx: _Context, point, seed: int, requests: int, tracer: Tracer):
    label, rho, mode = point
    spec = overload_spec(requests, ctx.dispatch_s, seed=seed)
    t0 = time.perf_counter()
    with tracer.span("cluster.arrivals.generate", label):
        source = open_loop(spec, PoissonProcess(rate_rps=rho * ctx.capacity_rps))
    t1 = time.perf_counter()
    with tracer.span("cluster.simulate", label):
        report = simulate(source, mode_config(mode, WORKERS, ctx.clock))
    t2 = time.perf_counter()
    return report, t1 - t0, t2 - t1


class _Phases:
    """One sample of each phase; every sample is checked as it is taken."""

    def __init__(self, ctx: _Context, seed: int, sizes: dict, res: Result) -> None:
        self.ctx, self.seed, self.sizes, self.res = ctx, seed, sizes, res

    def sims(self, tracer: Tracer) -> dict:
        row: dict = {"s": 0.0, "digest": []}
        for point in POINTS:
            label = point[0]
            report, gen_s, sim_s = _point(self.ctx, point, self.seed, self.sizes["requests"], tracer)
            accounted = report.completed + report.rejected + report.shed + report.failed
            if report.submitted != accounted or report.submitted != self.sizes["requests"]:
                self.res.fail(1, f"{label}: conservation violated ({report.submitted} "
                                 f"submitted, {accounted} accounted)")
            # Scalars only: holding every report would grow the heap that
            # the garbage collector walks, slowing later samples.
            row[label] = {
                "goodput_rps": report.goodput_rps,
                "p99_ms": report.latency_p99_ms,
                "shed": report.shed,
                "rejected": report.rejected,
            }
            row[f"generate_s.{label}"] = gen_s
            row[f"simulate_s.{label}"] = sim_s
            row["s"] += gen_s + sim_s
            row["digest"].append(digest(report.to_dict(include_series=True)))
        self.res.attempted += len(POINTS)
        return row

    def decode(self, tracer: Tracer) -> dict:
        spec = decode_spec(self.sizes["decode_sequences"], seed=self.seed)
        config = DecodeSimConfig(workers=WORKERS, max_lanes=DECODE_LANES, service=self.ctx.clock)
        t0 = time.perf_counter()
        with tracer.span("decode.run"):
            report = DecodeClusterSimulator(config).run(spec)
        elapsed = time.perf_counter() - t0
        if not (report.sequence_conservation and report.token_conservation):
            self.res.fail(1, "decode: sequence or token conservation violated")
        self.res.attempted += 1
        return {
            "s": elapsed,
            "tokens": report.tokens_completed,
            "ttft_p99_ms": report.ttft_p99_s * 1e3,
            "digest": digest(dataclasses.asdict(report)),
        }

    def advise(self, tracer: Tracer) -> dict:
        cache = RunCache()
        t0 = time.perf_counter()
        with tracer.span("advisor.advise"):
            advice = advise(self.ctx.traffic, self.sizes["space"], ablate_top=1, cache=cache)
        elapsed = time.perf_counter() - t0
        self.res.attempted += 1
        return {"s": elapsed, "evaluations": cache.misses, "digest": digest(advice.to_dict())}

    def measure(self, root: Path, seconds: float, tracer: Tracer) -> Dict[str, List]:
        """Rounds for ``seconds``: per-phase samples plus set-up times."""
        out: Dict[str, List] = {name: [] for name in ROUND + ("setup_s",)}
        deadline = time.perf_counter() + seconds
        while len(out["setup_s"]) < MIN_ROUNDS or time.perf_counter() < deadline:
            t0 = time.perf_counter()
            self.ctx = _setup(root)
            out["setup_s"].append(time.perf_counter() - t0)
            for name in ROUND:
                t0 = time.perf_counter()
                out[name].append(getattr(self, name)(tracer))
                tracer.window(t0, time.perf_counter())
        for name in set(ROUND):
            rows = out[name]
            for i, row in enumerate(rows[1:], start=1):
                if row["digest"] != rows[0]["digest"]:
                    self.res.fail(1, f"{name}: repetition {i} differs from the first")
        return out


def run(
    seed: int,
    seconds: float,
    trace: bool,
    root: Path = Path("."),
    requests: int = REQUESTS,
    decode_sequences: int = DECODE_SEQUENCES,
    space: SearchSpace = SPACE,
) -> Result:
    t0 = time.perf_counter()
    ctx = _setup(root)
    cold_setup_s = time.perf_counter() - t0
    advisor_clock = space.candidates()[0].sim_config(ctx.traffic).service
    tracer = Tracer(trace)
    res = Result(
        inputs={
            "seed": seed,
            "requests_per_point": requests,
            "points": [list(p) for p in POINTS],
            "workload": repr(overload_spec(requests, ctx.dispatch_s, seed=seed)),
            "decode": repr(decode_spec(decode_sequences, seed=seed)),
            "traffic_id": ctx.traffic.traffic_id,
            "space": space.to_dict(),
        },
        tracer=tracer,
        info={
            "clocks": {
                "simulations": vars(ctx.clock),
                "advisor": {"type": type(advisor_clock).__name__, **vars(advisor_clock)},
            },
        },
    )
    phases = _Phases(
        ctx, seed, {"requests": requests, "decode_sequences": decode_sequences, "space": space}, res
    )

    if not trace:
        rows = phases.measure(root, seconds, Tracer(False))
        res.put("setup_s", median([cold_setup_s] + rows["setup_s"]), "s")
        res.put("peak_rss_mb", peak_rss_mb(), "MB")
        res.put("throughput_rps", median([2 * requests / r["s"] for r in rows["sims"]]), "req/s")
        res.put(
            "tokens_per_s",
            median([r["tokens"] / r["s"] for r in rows["decode"]]),
            "tokens/s",
        )
        res.put("latency_ms", median([r["s"] for r in rows["advise"]]) * 1e3, "ms")
        return res

    plain = phases.measure(root, seconds / 2, Tracer(False))
    rows = phases.measure(root, seconds / 2, tracer)
    sims, decoded = rows["sims"], rows["decode"]
    for label, _, _ in POINTS:
        sim = sims[0][label]
        res.put(f"cluster.arrivals.generate_s.{label}", median([r[f"generate_s.{label}"] for r in sims]), "s")
        res.put(f"cluster.simulate_s.{label}", median([r[f"simulate_s.{label}"] for r in sims]), "s")
        res.put(f"cluster.sim.goodput_rps.{label}", sim["goodput_rps"], "req/s", "simulated")
        res.put(f"cluster.sim.p99_ms.{label}", sim["p99_ms"], "ms", "simulated")
        res.put(f"cluster.sim.shed.{label}", sim["shed"], "count", "simulated")
        res.put(f"cluster.sim.rejected.{label}", sim["rejected"], "count", "simulated")
    res.put("decode.run_s", median([r["s"] for r in decoded]), "s")
    res.put("decode.sim.tokens", decoded[0]["tokens"], "tokens", "simulated")
    res.put("decode.sim.ttft_p99_ms", decoded[0]["ttft_p99_ms"], "ms", "simulated")
    evaluations = rows["advise"][0]["evaluations"]
    res.put("advisor.evaluations", evaluations, "count", "counted")
    res.put("advisor.s_per_evaluation", median([r["s"] for r in rows["advise"]]) / evaluations, "s")
    res.put("cluster.bytes_per_request", _bytes_per_request(ctx, seed, requests), "B/req")
    wall = lambda rs: sum(median([r["s"] for r in rs[name]]) for name in ROUND)  # noqa: E731
    res.put("trace.overhead_share", wall(rows) / wall(plain) - 1.0, "share")
    res.put("trace.unattributed_share", tracer.unattributed_share(), "share")
    return res


def _bytes_per_request(ctx: _Context, seed: int, requests: int) -> float:
    """tracemalloc peak of generating and simulating ``over``, per request."""
    tracemalloc.start()
    try:
        _point(ctx, POINTS[1], seed, requests, Tracer(False))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / requests
