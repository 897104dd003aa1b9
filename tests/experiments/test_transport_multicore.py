"""transport_multicore experiment: registry, row mechanics, conservation.

The full experiment (worker ladder + chaos row) runs real processes and
belongs to `make transport-smoke`; the tier-1 checks here keep to the
cheap single-process row plus the plumbing the experiment relies on.
"""

from repro.experiments import all_experiments
from repro.experiments.transport_multicore import (
    run_row,
    transport_config,
    transport_trace,
)


class TestRegistry:
    def test_registered(self):
        assert "transport_multicore" in all_experiments()


class TestRows:
    def test_inprocess_row_conserves_and_completes(self):
        report = run_row("inprocess", 1, num_requests=8)
        assert report.submitted == report.completed == 8
        assert report.submitted == (
            report.completed + report.rejected + report.shed + report.failed
        )
        assert report.makespan_s > 0 and report.throughput_rps > 0


class TestConfig:
    def test_multiprocess_rows_pre_warm_the_trace_family(self):
        config = transport_config("multiprocess", 2, 8)
        assert len(config.warm) == 1  # unmixed trace: one pattern family
        pattern, heads, head_dim = config.warm[0]
        # The warm spec matches the trace's own head layout, so the
        # warmed plan is the one the traffic looks up.
        assert pattern.n == 512 and heads == 4 and head_dim == 16
        assert transport_config("inprocess", 1, 8).warm == ()

    def test_trace_is_deterministic(self):
        a, b = transport_trace(4), transport_trace(4)
        assert [r.request_id for r in a] == [r.request_id for r in b]
        assert all(x.pattern.n == 512 for x in a)
