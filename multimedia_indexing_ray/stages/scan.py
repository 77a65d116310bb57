"""Distributed ordered scan (prefix sum) over a unique ordering key.

The reference's only global running state is the auto-increment iid
counter behind one synchronized writer
(`visual/datastructures/AbstractSearchStructure.java:63-65,229-257`) —
an anti-scale pattern.  The Ray-native replacement is the classic
two-phase scan: range-partition by the key, reduce per-partition totals
to a tiny table, prefix those on the driver (num_ranges values, not
rows), broadcast the offsets, and cumsum within each partition.  No
global sort, ONE shuffle, exchange rows = input rows of the slim
(key, value) projection.

Main consumer: token-budget sharding for training-batch assembly
(`token_shard_docs` in pipelines/queries.py).
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import pyarrow as pa

import ray
import ray.data

from multimedia_indexing_ray.stages.partition import map_partitions_by_key

DEFAULT_NUM_RANGES = 32


def ordered_prefix_sum(
    ds: "ray.data.Dataset",
    key: str,
    value: str,
    out_col: str = "prefix_sum",
    num_ranges: int = DEFAULT_NUM_RANGES,
    exclusive: bool = True,
) -> "ray.data.Dataset":
    """Running sum of `value` in ascending `key` order, without a global
    sort.  `key` must be integer-typed and UNIQUE (the caller's ordering
    invariant; duplicate keys would make "prefix" ill-defined).

    exclusive=True emits the sum of all STRICTLY-smaller keys (the
    offset where this row starts — what shard assignment needs);
    exclusive=False includes the row itself.

    Phases: (1) one pass computes per-range totals (range = fixed-width
    slices of [min_key, max_key], so placement depends only on the key,
    never on block layout); (2) the num_ranges totals are prefixed on the
    driver and broadcast; (3) the range-partitioned groups sort locally
    and cumsum with their range's offset.
    """
    import pyarrow.compute as pc

    lo_hi = ds.aggregate(
        ray.data.aggregate.Min(key), ray.data.aggregate.Max(key)
    )
    lo, hi = int(lo_hi[f"min({key})"]), int(lo_hi[f"max({key})"])
    width = max((hi - lo) // num_ranges + 1, 1)

    def _rng(keys: np.ndarray) -> np.ndarray:
        return (keys - lo) // width

    def _with_range(batch: pa.Table) -> pa.Table:
        k = batch[key].to_numpy(zero_copy_only=False).astype(np.int64)
        return batch.append_column("__rng", pa.array(_rng(k), pa.int64()))

    slim = ds.select_columns([key, value]).map_batches(
        _with_range, batch_format="pyarrow"
    )

    # phase 1: per-range totals (per-batch combiner -> tiny groupby)
    def _partial(batch: pa.Table) -> pa.Table:
        r = batch["__rng"].to_numpy(zero_copy_only=False)
        v = batch[value].to_numpy(zero_copy_only=False).astype(np.int64)
        ur, inv = np.unique(r, return_inverse=True)
        # int64 scatter-add, NOT bincount(weights=...): bincount
        # accumulates in float64 and silently rounds above 2^53 — this
        # path promises exact integer prefix sums
        tot = np.zeros(len(ur), np.int64)
        np.add.at(tot, inv, v)
        return pa.table(
            {
                "__rng": pa.array(ur, pa.int64()),
                "total": pa.array(tot, pa.int64()),
            }
        )

    totals = (
        slim.map_batches(_partial, batch_format="pyarrow")
        .groupby("__rng")
        .sum("total")
        .take_all()
    )  # <= num_ranges rows — the aggregate, not the data
    offsets = np.zeros(num_ranges + 1, np.int64)
    for row in totals:
        offsets[int(row["__rng"])] = int(row["sum(total)"])
    offsets = np.concatenate([[0], np.cumsum(offsets[:-1])])
    offsets_ref = ray.put(offsets)

    # phase 2: cumsum within each range, range offset added.  One call may
    # hold SEVERAL ranges; ranges are monotonic in the key, so sorting by
    # key makes each range a contiguous segment.
    def _scan(table: pa.Table) -> pa.Table:
        k = table[key].to_numpy(zero_copy_only=False).astype(np.int64)
        v = table[value].to_numpy(zero_copy_only=False).astype(np.int64)
        pre = np.empty(len(k), np.int64)
        if len(k):
            offs = ray.get(offsets_ref)
            order = np.argsort(k, kind="mergesort")
            ks, vs = k[order], v[order]
            rngs = _rng(ks)
            cum = np.cumsum(vs)
            seg_starts = np.unique(rngs, return_index=True)[1]
            # cumulative BEFORE each segment's first row, per row
            seg_excl = np.concatenate([[0], cum])[seg_starts]
            seg_of = np.searchsorted(seg_starts, np.arange(len(ks)), side="right") - 1
            within = cum - seg_excl[seg_of]
            res = (within - vs if exclusive else within) + offs[rngs]
            pre[order] = res
        out = table.drop_columns(["__rng"]) if "__rng" in table.column_names else table
        return out.append_column(out_col, pa.array(pre, pa.int64()))

    return map_partitions_by_key(slim, "__rng", _scan)
