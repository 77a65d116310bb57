"""Joins: broadcast (small side) and bucketed hash join (both sides big).

The reference decorates top-k results by point-lookups against BDB side
stores — effectively a broadcast/dim-table join
(`visual/datastructures/AbstractSearchStructure.java:345-373,403-419`).
Here:

- ``broadcast_join``: the small side is ``ray.put`` ONCE and joined
  zero-copy inside every ``map_batches`` task (no shuffle — the
  DistributedCache-artifact pattern, `visual/mapreduce/VisualJob.java:56-62`).
- ``hash_join``: both sides tagged and unioned into one
  `map_partitions_by_key` stage on the key hash (one task under
  `LOCAL_BYTES`, else the sort exchange), each group joined with
  pyarrow's vectorized hash join.  Skew note: a hot key's rows all reach
  one call — hot keys should be pre-split upstream (see
  stages/hotkeys.py).
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from multimedia_indexing_ray.stages.partition import key_hash, map_partitions_by_key

SIDE_COL = "__side"
HASH_COL = "__keyhash"


def broadcast_join(
    ds: "ray.data.Dataset",
    small: pa.Table,
    keys: Union[str, Sequence[str]],
    right_keys: Union[str, Sequence[str], None] = None,
    join_type: str = "inner",
) -> "ray.data.Dataset":
    """Join every batch against a driver-provided small table.

    The small table is put in the object store once; tasks read it
    zero-copy.  Never re-shipped per batch."""
    if join_type not in ("inner", "left outer", "left semi", "left anti"):
        # per-batch application would duplicate unmatched small-side rows
        # for right/full outer joins (once per batch)
        raise ValueError(f"broadcast_join does not support join_type={join_type!r}")
    keys = [keys] if isinstance(keys, str) else list(keys)
    rkeys = (
        keys
        if right_keys is None
        else ([right_keys] if isinstance(right_keys, str) else list(right_keys))
    )
    small_ref = ray.put(small)

    def _fn(batch: pa.Table) -> pa.Table:
        s = ray.get(small_ref)
        return batch.join(s, keys=keys, right_keys=rkeys, join_type=join_type)

    return ds.map_batches(_fn, batch_format="pyarrow")


def hash_join(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    left_on: Union[str, Sequence[str]],
    right_on: Union[str, Sequence[str], None] = None,
    join_type: str = "inner",
) -> "ray.data.Dataset":
    """Hash join: co-locate both sides on the join key's hash, join each
    group of whole keys with pyarrow.  Payload column names (non-key) must be
    disjoint between the sides."""
    left_on = [left_on] if isinstance(left_on, str) else list(left_on)
    right_on = (
        left_on
        if right_on is None
        else ([right_on] if isinstance(right_on, str) else list(right_on))
    )

    l_schema, r_schema = left.schema(), right.schema()
    l_names = list(l_schema.names)
    r_names = list(r_schema.names)
    overlap = (set(l_names) - set(left_on)) & (set(r_names) - set(right_on))
    if overlap:
        raise ValueError(f"hash_join payload name collision: {sorted(overlap)}")

    # union schema: left fields then right fields not already present
    fields = [pa.field(n, t) for n, t in zip(l_schema.names, l_schema.types)]
    have = {f.name for f in fields}
    fields += [
        pa.field(n, t)
        for n, t in zip(r_schema.names, r_schema.types)
        if n not in have
    ]

    def _prep(side: int, key_cols: "list[str]"):
        def _fn(batch: pa.Table) -> pa.Table:
            n = batch.num_rows
            cols = {}
            for f in fields:
                if f.name in batch.column_names:
                    cols[f.name] = batch[f.name].cast(f.type)
                else:
                    cols[f.name] = pa.nulls(n, f.type)
            cols[SIDE_COL] = pa.array(np.full(n, side, dtype=np.int8))
            cols[HASH_COL] = pa.array(key_hash(batch, key_cols))
            return pa.table(cols)

        return _fn

    lds = left.map_batches(_prep(0, left_on), batch_format="pyarrow")
    rds = right.map_batches(_prep(1, right_on), batch_format="pyarrow")

    def _merge(table: pa.Table) -> pa.Table:
        lt = table.filter(pc.equal(table[SIDE_COL], 0)).select(l_names)
        rt = table.filter(pc.equal(table[SIDE_COL], 1)).select(r_names)
        return lt.join(rt, keys=left_on, right_keys=right_on, join_type=join_type)

    return map_partitions_by_key(lds.union(rds), HASH_COL, _merge)


def build_bloom(
    ds: "ray.data.Dataset",
    key_col: str,
    hash_fn,
    n_bits: int = 1024,
) -> np.ndarray:
    """Build a Bloom filter over ``hash_fn(key_col)`` as ``n_bits // 32``
    int64 words of 32 bits each (2 probe positions per key: ``h % n_bits``
    and ``(h // n_bits) % n_bits``).

    The per-batch partial is a <= n_bits/32-row (word, bits) table; the
    driver OR-combines those tiny sketches — bitwise OR is idempotent and
    order-independent, so the filter is deterministic under any
    partitioning (same reason the HLL registers are).  This is the
    broadcast semi-join pruning pattern: ship the words (128 B at the
    default size) into a probe-side filter instead of shuffling the probe
    table — the J4 already-indexed gate
    (`datastructures/AbstractSearchStructure.java:237-240`) generalized
    to an approximate membership test with deterministic false positives.
    """
    n_words = n_bits // 32

    def _partial(batch: pa.Table) -> pa.Table:
        h = hash_fn(batch[key_col].to_numpy())
        p = np.concatenate([h % np.uint64(n_bits), (h // np.uint64(n_bits)) % np.uint64(n_bits)])
        p = p.astype(np.int64)
        words = np.zeros(n_words, np.int64)
        np.bitwise_or.at(words, p // 32, np.int64(1) << (p % 32))
        return pa.table(
            {"w": pa.array(np.arange(n_words, dtype=np.int64)), "bits": pa.array(words)}
        )

    words = np.zeros(n_words, np.int64)
    for part in ds.map_batches(_partial, batch_format="pyarrow").take_all():
        words[part["w"]] |= part["bits"]
    return words


def bloom_filter(
    ds: "ray.data.Dataset",
    key_col: str,
    hash_fn,
    words: np.ndarray,
    n_bits: int = 1024,
) -> "ray.data.Dataset":
    """Keep rows whose key is (possibly) in the Bloom filter built by
    `build_bloom` — both probe positions must be set.  `words` is tiny
    and rides in the task closure (no shuffle, no broadcast machinery)."""

    def _member(p: np.ndarray) -> np.ndarray:
        return ((words[p // 32] >> (p % 32)) & 1).astype(bool)

    def _filter(batch: pa.Table) -> pa.Table:
        h = hash_fn(batch[key_col].to_numpy())
        p1 = (h % np.uint64(n_bits)).astype(np.int64)
        p2 = ((h // np.uint64(n_bits)) % np.uint64(n_bits)).astype(np.int64)
        return batch.filter(pa.array(_member(p1) & _member(p2)))

    return ds.map_batches(_filter, batch_format="pyarrow")
