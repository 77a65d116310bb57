"""Sequence-packing kernel (`functions/packing.py`): next-fit semantics
vs a sequential reference, oversized/zero-token/exact-fit edges, and the
partition-kernel output contract."""

import numpy as np
import pyarrow as pa
import pytest

from multimedia_indexing_ray.functions.packing import (
    BIN_ID_STRIDE,
    pack_next_fit,
    pack_partition,
)


def _sequential_reference(grp, n, cap):
    """The per-row recurrence the vectorized frontier must equal."""
    bin_loc = np.empty(len(n), np.int64)
    bin_off = np.empty(len(n), np.int64)
    cur_g, fill, b = None, 0, -1
    for i, (g, tok) in enumerate(zip(grp, n)):
        if g != cur_g:
            cur_g, fill, b = g, 0, -1
        if b < 0 or fill + tok > cap:
            b += 1
            fill = 0
        bin_loc[i] = b
        bin_off[i] = fill
        fill += tok
    return bin_loc, bin_off


def test_matches_sequential_reference_randomized():
    rng = np.random.default_rng(11)
    for trial in range(20):
        sizes = rng.integers(1, 40, 8)
        grp = np.repeat(np.arange(8), sizes)
        n = rng.integers(0, 60, len(grp)).astype(np.int64)
        cap = int(rng.integers(16, 128))
        loc, off = pack_next_fit(grp, n, cap)
        ref_loc, ref_off = _sequential_reference(grp, n, cap)
        np.testing.assert_array_equal(loc, ref_loc)
        np.testing.assert_array_equal(off, ref_off)


def test_edge_semantics():
    # exact fit stays; one-over opens a bin; oversized overflows alone
    grp = np.zeros(6, np.int64)
    n = np.array([64, 64, 1, 200, 0, 5], np.int64)
    loc, off = pack_next_fit(grp, n, 128)
    np.testing.assert_array_equal(loc, [0, 0, 1, 2, 3, 3])
    np.testing.assert_array_equal(off, [0, 64, 0, 0, 0, 0])
    # zero-token docs pack at the current offset without advancing it
    loc2, off2 = pack_next_fit(np.zeros(3, np.int64),
                               np.array([10, 0, 0], np.int64), 128)
    np.testing.assert_array_equal(loc2, [0, 0, 0])
    np.testing.assert_array_equal(off2, [0, 10, 10])


def test_input_contracts():
    assert pack_next_fit(np.empty(0, np.int64), np.empty(0, np.int64), 8)[0].size == 0
    with pytest.raises(ValueError, match="nondecreasing"):
        pack_next_fit(np.array([1, 0]), np.array([1, 1]), 8)
    with pytest.raises(ValueError, match="negative"):
        pack_next_fit(np.array([0, 0]), np.array([1, -1]), 8)


def test_pack_partition_contract():
    t = pa.table(
        {
            "doc_id": pa.array([33, 1, 0, 32], pa.int64()),  # unsorted, 2 groups
            "n_tokens": pa.array([100, 100, 60, 60], pa.int64()),
        }
    )
    out = pack_partition(t, capacity=128, group_size=32)
    assert out["doc_id"].to_pylist() == [0, 1, 32, 33]  # sorted by (grp, id)
    # group 0: 60 then 100 -> bins 0,1; group 1: 60 then 100 -> bins 0,1
    assert out["bin_id"].to_pylist() == [0, 1, BIN_ID_STRIDE, BIN_ID_STRIDE + 1]
    assert out["bin_offset"].to_pylist() == [0, 0, 0, 0]
    with pytest.raises(ValueError, match="stride"):
        pack_partition(t, capacity=128, group_size=BIN_ID_STRIDE + 1)


def test_pack_query_partition_invariant(ray_session, monkeypatch):
    """Bins depend only on (group contents, order), never on the
    exchange layout: 2 vs 16 input blocks on the exchange plan give
    identical packings."""
    import pandas as pd
    import ray.data as rd

    from multimedia_indexing_ray.stages.partition import map_partitions_by_key

    rng = np.random.default_rng(3)
    t = pa.table(
        {
            "doc_id": pa.array(np.arange(300, dtype=np.int64)),
            "n_tokens": pa.array(rng.integers(0, 90, 300), pa.int64()),
            "grp": pa.array(np.arange(300, dtype=np.int64) // 32),
        }
    )
    monkeypatch.setenv("GRAFT_FORCE_SCALE_PLAN", "1")
    outs = []
    for parts in (2, 16):
        out = map_partitions_by_key(
            rd.from_arrow(t).repartition(parts),
            "grp",
            lambda g: pack_partition(g, capacity=128, group_size=32),
        ).to_pandas().sort_values("doc_id").reset_index(drop=True)
        outs.append(out)
    pd.testing.assert_frame_equal(outs[0], outs[1])
