"""End-to-end benchmark of the SALO reproduction stack.

Run from the repository root::

    python3 perfbench/run.py --workload paper-layers --seed 1 --seconds 20 --trace 0

``--workload`` is one of ``paper-layers``, ``transport-burst`` and
``capacity-sim`` (see ``BENCHMARK.json`` for why each exists).  Inputs
are generated from ``--seed``; the program under test (``src/repro``)
only receives them.  With ``--trace 0`` the run measures the workload as
users call it and reports the end-to-end metrics of ``BENCHMARK.json``;
with ``--trace 1`` it reports the per-layer metrics instead, from spans
the benchmark records around its calls into ``repro``, plus the tracing
overhead and the share of wall time no span covers.  The per-layer
ledger is shared by all workloads: a layer a workload never enters
reads 0 there.

Outputs are checked outside the timed regions; a failed check counts in
``failed`` and makes the command exit 1.  The last line of standard
output is the JSON result; a fuller record (provenance stamp, clocks,
check messages) and, for traced runs, every span go to ``.perfbench/``.
The benchmark pins no BLAS threads; the stamp records what it found.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import sys
from pathlib import Path

ROOT = Path.cwd()
OUT_DIR = ROOT / ".perfbench"
WORKLOADS = {
    "paper-layers": "paper_layers",
    "transport-burst": "transport_burst",
    "capacity-sim": "capacity_sim",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def report_metrics(declared, measured, trace: bool) -> dict:
    """The declared metrics, by name and unit, in declaration order."""
    names = {m["name"] for m in declared}
    unknown = sorted(set(measured) - names)
    if unknown:
        raise ValueError(f"metrics missing from BENCHMARK.json: {unknown}")
    out = {}
    for m in declared:
        value, unit = measured.get(m["name"], (0.0, m["unit"]))
        if m["name"] not in measured and not trace:
            raise ValueError(f"end-to-end metric {m['name']} was not measured")
        if unit != m["unit"]:
            raise ValueError(f"{m['name']}: unit {unit!r} != declared {m['unit']!r}")
        if not math.isfinite(value):
            raise ValueError(f"{m['name']}: non-finite value {value}")
        out[m["name"]] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print(
            f"perfbench: run from the repository root ({ROOT} has no src/repro "
            "or no BENCHMARK.json)",
            file=sys.stderr,
        )
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from harness import stamp

    trace = bool(args.trace)
    module = importlib.import_module(WORKLOADS[args.workload])
    result = module.run(args.seed, args.seconds, trace)
    metrics = report_metrics(spec["per_layer" if trace else "end_to_end"], result.metrics, trace)

    provenance = stamp(ROOT, args.workload, args.seed, trace, result.inputs)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT_DIR.mkdir(exist_ok=True)
    record = {
        "stamp": provenance,
        "metrics": metrics,
        "ops_total": result.attempted,
        "ops_failed": result.failed,
        "exact": result.exact,
        "checks": result.checks,
        "info": result.info,
    }
    (OUT_DIR / f"result-{tag}.json").write_text(json.dumps(record, indent=1, default=str))
    if trace:
        result.tracer.dump(OUT_DIR / f"spans-{tag}.json")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("stamp " + json.dumps(provenance, sort_keys=True, default=str))
    for name, m in metrics.items():
        kind = result.exact.get(name, "")
        print(f"  {name:<44} {m['value']:>16.6g} {m['unit']:<8} {kind}")
    print(f"  ops_total={result.attempted} ops_failed={result.failed}")
    for message in result.checks:
        print(f"  CHECK FAILED: {message}")
    print(
        json.dumps(
            {
                "correct": result.correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
