"""Shared-memory wire format: layout math, slot round-trips, ownership."""

import numpy as np
import pytest

from repro.transport.shm import ShmLayout, ShmSlot, attach


def _operands(b=2, n=16, hidden=8, seed=0):
    rng = np.random.default_rng(seed)
    return tuple(rng.standard_normal((b, n, hidden)) for _ in range(3))


def _slot_for(q):
    return ShmSlot(4 * q.nbytes)


class TestLayout:
    def test_region_math(self):
        layout = ShmLayout(shape=(2, 16, 8))
        assert layout.region_items == 2 * 16 * 8
        assert layout.region_bytes == layout.region_items * 8  # float64
        assert layout.total_bytes == 4 * layout.region_bytes  # q | k | v | out

    def test_regions_are_disjoint_views(self):
        q, k, v = _operands()
        slot = _slot_for(q)
        try:
            layout = slot.write(q, k, v)
            buf = slot.shm.buf
            regions = [layout.region(buf, i) for i in range(4)]
            regions[3][...] = 7.0
            # Writing the out region must not disturb the operands.
            assert np.array_equal(regions[0], q)
            assert np.array_equal(regions[1], k)
            assert np.array_equal(regions[2], v)
        finally:
            slot.destroy()


class TestShmSlot:
    def test_write_views_read_output_roundtrip(self):
        q, k, v = _operands(seed=3)
        slot = _slot_for(q)
        try:
            peer = attach(slot.name)
            try:
                # Two batches through one mapping: the second, smaller one
                # is laid out at the front of the same slot.
                for b in (2, 1):
                    layout = slot.write(q[:b], k[:b], v[:b])
                    wq, wk, wv, wout = ShmSlot.views(peer, layout)
                    assert np.array_equal(wq, q[:b])
                    assert np.array_equal(wk, k[:b])
                    assert np.array_equal(wv, v[:b])
                    wout[...] = wq + wk  # "worker" writes its result
                    del wq, wk, wv, wout
                    out = slot.read_output()
                    assert np.array_equal(out, q[:b] + k[:b])
            finally:
                peer.close()
            # read_output copies: the result survives destroy().
            slot.destroy()
            assert np.array_equal(out, q[:1] + k[:1])
        finally:
            slot.destroy()

    def test_destroy_is_idempotent(self):
        slot = _slot_for(_operands()[0])
        slot.destroy()
        slot.destroy()  # second call is a no-op, not an error
        assert slot.shm is None

    def test_destroyed_slot_refuses_access(self):
        q, k, v = _operands()
        slot = _slot_for(q)
        name = slot.name
        slot.write(q, k, v)
        slot.destroy()
        with pytest.raises(ValueError):
            _ = slot.name
        with pytest.raises(ValueError):
            slot.read_output()
        with pytest.raises(ValueError):
            slot.write(q, k, v)
        with pytest.raises(FileNotFoundError):
            attach(name)  # unlinked, not just closed
