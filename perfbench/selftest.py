"""Self-tests of the benchmark at tiny sizes.

Run from the repository root (not part of the tier-1 suite, which only
collects ``test_*.py``)::

    python3 -m pytest -q perfbench/selftest.py

They check that every declared metric is produced with its declared
unit, that the seed changes the generated inputs, that a corrupted
output trips the workload's check (and makes the command exit 1), and
that the exact counts repeat across two runs.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import capacity_sim  # noqa: E402
import paper_layers  # noqa: E402
import run as bench  # noqa: E402
import transport_burst  # noqa: E402
from harness import stamp  # noqa: E402

from repro.advisor import SearchSpace  # noqa: E402
from repro.api import Runtime  # noqa: E402
from repro.transport.multiprocess import MultiprocessTransport  # noqa: E402
from repro.workloads.configs import longformer_workload, vil_workload  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "paper-layers": functools.partial(
        paper_layers.run,
        layers=(
            ("longformer", longformer_workload(256, window=32, hidden=64, heads=2)),
            ("vil1", vil_workload(8, 8, window_side=3, hidden=32, heads=2)),
            ("vil2", vil_workload(6, 6, window_side=3, hidden=32, heads=2)),
        ),
        setups=2,
    ),
    "transport-burst": functools.partial(
        transport_burst.run, pool=8, burst=48, workers=2
    ),
    "capacity-sim": functools.partial(
        capacity_sim.run,
        root=ROOT,
        requests=60,
        decode_sequences=16,
        space=SearchSpace(workers=(1,), policies=("edf",), admissions=("admit-all",)),
    ),
}


def tiny(workload: str, seed: int = 1, trace: bool = False):
    return TINY[workload](seed, 0.0, trace)


def test_workloads_match_the_benchmark_file():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS) == list(TINY)


@pytest.mark.parametrize("workload", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_every_declared_metric_and_unit_is_reported(workload, trace):
    res = tiny(workload, trace=trace)
    assert res.correct, res.checks
    assert res.attempted >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    reported = bench.report_metrics(declared, res.metrics, trace)
    assert list(reported) == [m["name"] for m in declared]
    for m in declared:
        assert reported[m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in reported.values())


def test_every_per_layer_metric_has_a_workload():
    produced = set()
    for workload in TINY:
        produced |= set(tiny(workload, trace=True).metrics)
    assert produced == {m["name"] for m in SPEC["per_layer"]}


@pytest.mark.parametrize("workload", sorted(TINY))
def test_seed_changes_the_inputs(workload):
    stamps = [stamp(ROOT, workload, s, False, tiny(workload, seed=s).inputs) for s in (1, 2)]
    assert stamps[0]["inputs_sha256"] != stamps[1]["inputs_sha256"]
    again = stamp(ROOT, workload, 1, False, tiny(workload, seed=1).inputs)
    assert again["inputs_sha256"] == stamps[0]["inputs_sha256"]


@pytest.mark.parametrize("workload", sorted(TINY))
def test_exact_counts_repeat(workload):
    first, second = (tiny(workload, trace=True) for _ in range(2))
    assert first.exact and first.exact == second.exact
    assert {k: first.metrics[k] for k in first.exact} == {
        k: second.metrics[k] for k in second.exact
    }


def _corrupt_runtime(monkeypatch):
    attend = Runtime.attend

    def corrupted(self, *args, **kwargs):
        result = attend(self, *args, **kwargs)
        if self.config.backend == "functional":
            result.output = result.output + 0.5
        return result

    monkeypatch.setattr(Runtime, "attend", corrupted)


def _corrupt_transport(monkeypatch):
    poll = MultiprocessTransport.poll

    def corrupted(self, timeout_s=0.0):
        out = poll(self, timeout_s)
        for completion in out:
            if completion.output is not None:
                completion.output[..., 0] += 1e-9
        return out

    monkeypatch.setattr(MultiprocessTransport, "poll", corrupted)


def _corrupt_simulation(monkeypatch):
    simulate = capacity_sim.simulate

    def corrupted(source, config):
        report = simulate(source, config)
        return dataclasses.replace(report, completed=report.completed - 1)

    monkeypatch.setattr(capacity_sim, "simulate", corrupted)


CORRUPTIONS = {
    "paper-layers": _corrupt_runtime,
    "transport-burst": _corrupt_transport,
    "capacity-sim": _corrupt_simulation,
}


@pytest.mark.parametrize("workload", sorted(TINY))
def test_corrupted_output_trips_the_check(workload, monkeypatch):
    CORRUPTIONS[workload](monkeypatch)
    res = tiny(workload)
    assert not res.correct
    assert res.failed >= 1


def test_corrupted_output_makes_the_command_exit_nonzero(monkeypatch, capsys):
    _corrupt_simulation(monkeypatch)
    monkeypatch.setattr(capacity_sim, "run", TINY["capacity-sim"])
    monkeypatch.chdir(ROOT)
    code = bench.main(["--workload", "capacity-sim", "--seed", "3", "--seconds", "0"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert last["correct"] is False and last["failed"] >= 1


def test_without_the_program_the_command_fails(monkeypatch, capsys):
    monkeypatch.setattr(bench, "ROOT", ROOT / "perfbench")  # no src/, no BENCHMARK.json
    code = bench.main(["--workload", "capacity-sim", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""


def test_unattributed_share_counts_uncovered_time():
    from harness import Tracer

    tracer = Tracer(True)
    tracer.windows = [(0.0, 10.0)]
    tracer.spans = [["a", 1.0, 3.0, None, None], ["b", 2.0, 2.5, 0, None], ["c", 6.0, 8.0, None, None]]
    assert tracer.unattributed_share() == pytest.approx(0.6)
    assert tracer.inner(0, "b") == pytest.approx(0.5)
    assert np.isclose(tracer.inner(2, "b"), 0.0)
