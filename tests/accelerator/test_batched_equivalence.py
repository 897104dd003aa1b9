"""Batch axis through the execution stack: bit-identity contracts.

The serving layer batches same-plan sequences into a single engine
dispatch with a leading batch axis.  A ``b>1`` run must produce exactly
the outputs of ``b`` independent ``b=1`` runs — per pattern family,
quantised and exact, on the engine and on ``SALO.attend``.  Quantised
batches run the tiled path and must also equal the per-pass reference
bit for bit; exact batches run the reference path and must agree with
the float oracle to round-off.
"""

import numpy as np
import pytest

from repro.accelerator.functional import EngineError, FunctionalEngine
from repro.baselines.sparse_reference import masked_attention
from repro.core.config import HardwareConfig
from repro.core.salo import SALO
from repro.patterns.base import Band
from repro.patterns.hybrid import HybridSparsePattern
from repro.patterns.library import (
    longformer_pattern,
    sparse_transformer_pattern,
    star_transformer_pattern,
    vil_pattern,
)
from repro.scheduler.scheduler import DataScheduler

PATTERN_CASES = [
    ("window", longformer_pattern(24, 8, (0,))),
    ("window-no-global", longformer_pattern(24, 8, ())),
    ("window-two-globals", longformer_pattern(32, 8, (0, 15))),
    ("dilated", HybridSparsePattern(30, [Band(-6, 6, 3)], (0,))),
    ("mixed-dilations", HybridSparsePattern(40, [Band(-4, 4, 1), Band(6, 18, 6)], (0, 3))),
    ("twod-vil", vil_pattern(5, 5, 3, (0,))),
    ("star", star_transformer_pattern(20)),
    ("sparse-transformer", sparse_transformer_pattern(24, block=4)),
]


def _plan_and_batch(pattern, heads=1, head_dim=8, batch=4, quantize=True, seed=0):
    config = HardwareConfig(pe_rows=4, pe_cols=4)
    if not quantize:
        config = config.exact()
    plan = DataScheduler(config, strict_global_bound=False).schedule(
        pattern, heads=heads, head_dim=head_dim
    )
    rng = np.random.default_rng(seed)
    hidden = heads * head_dim
    q, k, v = (rng.standard_normal((batch, pattern.n, hidden)) for _ in range(3))
    return plan, q, k, v


def _assert_batch_equals_loop(pattern, quantize=True, **kwargs):
    plan, q, k, v = _plan_and_batch(pattern, quantize=quantize, **kwargs)
    engine = FunctionalEngine(plan)
    assert engine.tiled == quantize
    batched = engine.run(q, k, v)
    assert batched.batch == q.shape[0]
    assert batched.output.shape == q.shape
    total_merges = 0
    for b in range(q.shape[0]):
        single = engine.run(q[b], k[b], v[b])
        assert single.batch is None
        assert np.array_equal(batched.output[b], single.output)
        assert np.array_equal(batched.parts[b], single.parts)
        total_merges += single.merges
    assert batched.merges == total_merges
    if quantize:
        legacy = FunctionalEngine(plan, mode="legacy").run(q, k, v)
        assert np.array_equal(batched.output, legacy.output)
        assert np.array_equal(batched.parts, legacy.parts)
    else:
        d = plan.head_dim
        for b in range(q.shape[0]):
            for h in range(plan.heads):
                sl = slice(h * d, (h + 1) * d)
                ref = masked_attention(q[b][:, sl], k[b][:, sl], v[b][:, sl], pattern)
                assert np.allclose(batched.output[b][:, sl], ref, atol=1e-9)
    return batched


class TestBatchedMatchesLooped:
    """b>1 == b independent b=1 runs, bit for bit."""

    @pytest.mark.parametrize("name,pattern", PATTERN_CASES, ids=[c[0] for c in PATTERN_CASES])
    def test_quantized(self, name, pattern):
        _assert_batch_equals_loop(pattern)

    @pytest.mark.parametrize("name,pattern", PATTERN_CASES, ids=[c[0] for c in PATTERN_CASES])
    def test_exact(self, name, pattern):
        _assert_batch_equals_loop(pattern, quantize=False)

    def test_multihead(self):
        _assert_batch_equals_loop(longformer_pattern(24, 8, (0,)), heads=3, head_dim=4, batch=3)

    def test_batch_of_one_matches_unbatched(self):
        plan, q, k, v = _plan_and_batch(longformer_pattern(24, 8, (0,)), batch=1)
        engine = FunctionalEngine(plan)
        batched = engine.run(q, k, v)
        single = engine.run(q[0], k[0], v[0])
        assert batched.output.shape == (1, 24, 8)
        assert np.array_equal(batched.output[0], single.output)

    def test_batched_legacy_reference(self):
        """The batched reference path (per-sequence loop) matches tiled."""
        plan, q, k, v = _plan_and_batch(
            HybridSparsePattern(30, [Band(-6, 6, 3)], (0,)), batch=3
        )
        compiled = FunctionalEngine(plan, mode="compiled").run(q, k, v)
        legacy = FunctionalEngine(plan, mode="legacy").run(q, k, v)
        assert np.array_equal(compiled.output, legacy.output)
        assert compiled.merges == legacy.merges
        assert np.array_equal(compiled.parts, legacy.parts)

    def test_rejects_bad_rank(self):
        plan, q, k, v = _plan_and_batch(longformer_pattern(24, 8, (0,)))
        engine = FunctionalEngine(plan)
        with pytest.raises(EngineError):
            engine.run(q[None], k[None], v[None])  # 4-D

    def test_rejects_mismatched_batch(self):
        plan, q, k, v = _plan_and_batch(longformer_pattern(24, 8, (0,)), batch=3)
        engine = FunctionalEngine(plan)
        with pytest.raises(EngineError):
            engine.run(q, k[:2], v)


class TestSaloAttendBatched:
    """SALO.attend with a leading batch axis (the serving entry point)."""

    def _data(self, batch, n, hidden, seed=0):
        rng = np.random.default_rng(seed)
        return tuple(rng.standard_normal((batch, n, hidden)) for _ in range(3))

    def test_batched_equals_looped(self, tiny_config):
        salo = SALO(tiny_config)
        pattern = longformer_pattern(20, 6, (0,))
        q, k, v = self._data(5, 20, 8)
        res = salo.attend(pattern, q, k, v, heads=1)
        assert res.output.shape == (5, 20, 8)
        for b in range(5):
            single = salo.attend(pattern, q[b], k[b], v[b], heads=1)
            assert np.array_equal(res.output[b], single.output)

    def test_batched_multihead_quantized(self):
        salo = SALO(HardwareConfig(pe_rows=4, pe_cols=4))
        pattern = HybridSparsePattern(24, [Band(-4, 4, 2)], (0,))
        q, k, v = self._data(4, 24, 12, seed=3)
        res = salo.attend(pattern, q, k, v, heads=3)
        for b in range(4):
            single = salo.attend(pattern, q[b], k[b], v[b], heads=3)
            assert np.array_equal(res.output[b], single.output)

    def test_batched_hits_plan_cache(self, tiny_config):
        salo = SALO(tiny_config)
        pattern = longformer_pattern(20, 6, (0,))
        q, k, v = self._data(2, 20, 8)
        salo.attend(pattern, q[0], k[0], v[0])
        salo.attend(pattern, q, k, v)
        assert salo.plan_cache_hits == 1
        assert salo.plan_cache_misses == 1

    def test_rejects_bad_rank(self, tiny_config):
        salo = SALO(tiny_config)
        pattern = longformer_pattern(20, 6, (0,))
        with pytest.raises(ValueError):
            salo.attend(pattern, np.zeros((2, 2, 20, 8)), np.zeros((2, 2, 20, 8)), np.zeros((2, 2, 20, 8)))
