"""Engine path selection: production plans never fall back to the slow path.

``FunctionalEngine`` decides once, at construction, between the
lane-tiled path and the per-pass reference path.  A silent fallback to
the reference on a production plan would keep every equivalence test
green while making serving many times slower, so the choice is pinned
here on the paper's Table 2 layers and on the serving trace families,
at the default hardware config.
"""

import numpy as np
import pytest

from repro.accelerator.functional import FunctionalEngine
from repro.core.config import HardwareConfig
from repro.scheduler.plan import BandSegment, ExecutionPlan, TilePass
from repro.scheduler.scheduler import DataScheduler
from repro.serving.trace import TraceSpec, pattern_families
from repro.workloads.configs import PAPER_WORKLOADS

SERVING_SPEC = TraceSpec(n=512, window=64, heads=4, head_dim=16)


@pytest.fixture(scope="module")
def table2_plans():
    scheduler = DataScheduler(HardwareConfig())
    return {
        name: scheduler.schedule(w.pattern(), heads=w.heads, head_dim=w.head_dim)
        for name, w in PAPER_WORKLOADS.items()
    }


class TestProductionPlansAreTiled:
    def test_table2_layers(self, table2_plans):
        assert set(table2_plans) == {"Longformer", "ViL-stage1", "ViL-stage2"}
        for name, plan in table2_plans.items():
            assert FunctionalEngine(plan).tiled, name

    @pytest.mark.parametrize("family", range(len(pattern_families(SERVING_SPEC))))
    def test_serving_trace_families(self, family):
        pattern = pattern_families(SERVING_SPEC)[family]
        plan = DataScheduler(HardwareConfig()).schedule(
            pattern, heads=SERVING_SPEC.heads, head_dim=SERVING_SPEC.head_dim
        )
        assert FunctionalEngine(plan).tiled

    def test_exact_datapath_runs_the_reference(self):
        pattern = pattern_families(SERVING_SPEC)[0]
        plan = DataScheduler(HardwareConfig().exact()).schedule(
            pattern, heads=SERVING_SPEC.heads, head_dim=SERVING_SPEC.head_dim
        )
        assert not FunctionalEngine(plan).tiled


class TestIrregularPlans:
    """Hand-built pass streams without strided geometry take the reference."""

    def _plan(self):
        # Blocks start at 0, 3 and 7: unevenly spaced, so the column
        # group has no single key-stream step.
        seg = (BandSegment(0, -1, 3, 0, 1),)
        passes = [
            TilePass(0, 1, rows, seg) for rows in ((0, 1, 2), (3, 4, 5, 6), (7,))
        ]
        config = HardwareConfig(pe_rows=4, pe_cols=4)
        return ExecutionPlan(
            n=8, heads=2, head_dim=4, config=config, passes=passes, global_tokens=()
        )

    def test_irregular_plan_has_no_job_schedule(self):
        plan = self._plan()
        assert plan.compiled().window_jobs is None
        engine = FunctionalEngine(plan)
        assert not engine.tiled
        rng = np.random.default_rng(0)
        q, k, v = (rng.standard_normal((2, 8, 8)) for _ in range(3))
        got = engine.run(q, k, v)
        ref = FunctionalEngine(plan, mode="legacy").run(q, k, v)
        assert np.array_equal(got.output, ref.output)
        assert np.array_equal(got.parts, ref.parts)
