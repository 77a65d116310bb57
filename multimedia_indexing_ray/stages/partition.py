"""Explicit keyed partitioning: the exchange every keyed stage shares.

The reference routes vectors to inverted lists via nearest-coarse-centroid
assignment (`visual/datastructures/IVFPQ.java:315,547-601`) — its
partitioner.  Here the partitioner is a stable hash of the entity key
(``conv_id``, or any key columns); every downstream window / session /
as-of kernel relies on the invariant that ALL rows of a key reach the
same kernel call.

Hashing uses ``pandas.util.hash_array`` (SipHash-1-3 with a fixed key) —
stable across processes, platforms and runs, so bucket assignment (and
therefore the checkpoint runner's manifests) is reproducible.

`exchange_by_key` sorts on the key hash with Ray Data's sort (the
exchange ``groupby().map_groups`` runs) and calls the kernel once per
non-empty sorted block: equal hashes land in one reduce block, so each
call holds whole keys, and the input's block count, not a bucket-count
argument, sets how many calls there are.  The transcript engine
(`stages/features.py`) always takes it.  `map_partitions_by_key` is the
generic keyed stage: it materializes its input and, when the input fits
`LOCAL_BYTES`, calls the kernel once on the whole table in one task,
since a keyed exchange's fixed cost dwarfs the work at that size; above
the cap it takes `exchange_by_key`.  `gather` is the other reduction
shape: aggregate-sized per-batch partials coalesced into one block for
one global finish, with no keyed exchange.
"""

from __future__ import annotations

import logging
import os
from typing import Callable

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data

logger = logging.getLogger(__name__)

PART_COL = "__part"
# the exchange's sort column: a 32-bit slice of the key hash (a collision
# only puts two keys in the same kernel call)
HASH_COL = "__khash"
# bucket count of the checkpointed runner's manifests
DEFAULT_NUM_PARTITIONS = 64
# A reduce block is held as ONE Arrow table in one worker; warn when a
# block's bytes approach a worker-heap-sized fraction so the input can be
# cut into more blocks BEFORE an OOM at larger scale.
PARTITION_BYTES_WARN = 2 * 1024**3

# Size gates.  At or under its cap a keyed stage runs in one process
# (broadcast, driver-side loop or one coalesced block), where a keyed
# exchange's fixed cost would dwarf the work; above it the stage takes
# its keyed-exchange plan.  Every gate goes through `fits`.
BROADCAST_ROWS = 10_000_000  # broadcast relational sides and key sets
VOCAB_ROWS = 5_000_000  # driver-collected vocabulary / model tables
COALESCE_DOCS = 100_000  # anchor-blocked pair generation
DUPSPAN_DOCS = 20_000  # span-gram tables (64 B per character)
PAIR_COALESCE_ROWS = 2_000_000  # candidate-pair dedup
BROADCAST_IDS = 5_000_000  # candidate ids broadcast for exact verify
DRIVER_EDGES = 2_000_000  # graph kernels' in-memory loop
# keyed stage input run in one task: on a 1-CPU Ray session the one call
# beat the sort exchange 1.3-6x at every input measured, 1.5-122 MB
# (sf0.1 keyed queries and 4-32x copies of its events); the cap sits
# inside that range and also bounds the one worker's input
LOCAL_BYTES = 64 * 1024**2


def fits(n: int, cap: int) -> bool:
    """True when `n` (rows, or bytes for `LOCAL_BYTES`) stays on the
    in-process plan under `cap`.

    ``GRAFT_FORCE_SCALE_PLAN=1`` sets every cap to 0, so each non-empty
    input takes its at-scale plan (`scripts/scale_rehearsal.py` and the
    forced-plan tests).  It is read on every call, not at import."""
    if os.environ.get("GRAFT_FORCE_SCALE_PLAN") == "1":
        cap = 0
    return n <= cap


def cluster_cpus() -> int:
    """CPU count of the running Ray cluster, at least 1: the block count
    for inputs the engine sizes to the cluster."""
    return max(1, int(ray.cluster_resources().get("CPU", 1)))


def stable_hash(values: np.ndarray) -> np.ndarray:
    """Stable (cross-process) uint64 hash of a key array."""
    return pd.util.hash_array(np.asarray(values), categorize=False)


def key_hash(batch: pa.Table, keys: "list[str]") -> np.ndarray:
    """Stable uint64 hash of each row's key columns, combined in order."""
    h = np.zeros(batch.num_rows, dtype=np.uint64)
    for k in keys:
        h = h * np.uint64(1000003) ^ stable_hash(batch[k].to_numpy(zero_copy_only=False))
    return h


def partition_ids(keys: np.ndarray, num_partitions: int) -> np.ndarray:
    return (stable_hash(keys) % np.uint64(num_partitions)).astype(np.int32)


def multi_key_partition_ids(
    batch: pa.Table, keys: "list[str]", num_partitions: int
) -> np.ndarray:
    return (key_hash(batch, keys) % np.uint64(num_partitions)).astype(np.int32)


def _key_list(key) -> "list[str]":
    return [key] if isinstance(key, str) else list(key)


def add_partition_column(
    ds: "ray.data.Dataset",
    key,
    num_partitions: int = DEFAULT_NUM_PARTITIONS,
) -> "ray.data.Dataset":
    keys = _key_list(key)

    def _add(batch: pa.Table) -> pa.Table:
        # strip schema metadata before the exchange: the source parquet
        # files carry a pandas metadata dict, which is unhashable and
        # defeats Ray's shuffle schema dedup (one warning per reduce task)
        return batch.replace_schema_metadata(None).append_column(
            PART_COL, pa.array(multi_key_partition_ids(batch, keys, num_partitions))
        )

    return ds.map_batches(_add, batch_format="pyarrow")


def map_partitions_by_key(
    ds: "ray.data.Dataset",
    key,
    fn: Callable[[pa.Table], pa.Table],
) -> "ray.data.Dataset":
    """Apply `fn` to groups of whole keys (`key` is a column name or a
    list of them), each group one Arrow table.

    The input is materialized first.  When it has rows and its bytes fit
    `LOCAL_BYTES`, `fn` runs ONCE on the whole table (every key in one
    call) in one remote task, so neither the input nor `fn`'s output
    passes through the driver; otherwise the groups are the reduce
    blocks of `exchange_by_key`.  Either way `fn` never sees an empty
    table, is not called for an empty input, and must return an Arrow
    table (schema consistent across calls)."""
    mat = ds.materialize()
    if mat.count() and fits(mat.size_bytes(), LOCAL_BYTES):
        return ray.data.from_arrow_refs([_call_whole.remote(fn, *mat.to_arrow_refs())])
    return exchange_by_key(mat, key, fn)


@ray.remote
def _call_whole(fn: Callable[[pa.Table], pa.Table], *blocks: pa.Table) -> pa.Table:
    """The local plan's one call: `fn` over every non-empty block,
    concatenated (schema metadata stripped, as the exchange does)."""
    whole = pa.concat_tables(
        [b.replace_schema_metadata(None) for b in blocks if b.num_rows],
        promote_options="default",
    )
    return fn(whole.combine_chunks())


def exchange_by_key(
    ds: "ray.data.Dataset",
    key,
    fn: Callable[[pa.Table], pa.Table],
) -> "ray.data.Dataset":
    """Sort on the hash of `key` (a column name or a list of them) and
    apply `fn` to each non-empty sorted block as a single Arrow table.

    Equal hashes always land in one reduce block, so every key's rows
    reach one call; the input's block count sets the number of calls.
    `fn` is never called on an empty table, nor at all for an empty
    input, and receives the block WITHOUT the internal hash column.  It
    must return an Arrow table (schema consistent across calls).
    """
    keys = _key_list(key)

    def _add(batch: pa.Table) -> pa.Table:
        # strip schema metadata before the exchange: the source parquet
        # files carry a pandas metadata dict, which is unhashable and
        # defeats Ray's shuffle schema dedup (one warning per reduce task)
        h = key_hash(batch, keys).astype(np.uint32)
        return batch.replace_schema_metadata(None).append_column(HASH_COL, pa.array(h))

    def _apply(table: pa.Table):
        if not table.num_rows:
            return
        if table.nbytes > PARTITION_BYTES_WARN:
            logger.warning(
                "reduce block holds %.1f GiB in one worker (key=%s); cut the "
                "input into more blocks to bound per-call memory",
                table.nbytes / 1024**3, key,
            )
        yield fn(table.drop_columns([HASH_COL]))

    # the operator carries the kernel's name, as map_groups' does
    _apply.__name__ = getattr(fn, "__name__", type(fn).__name__)
    return (
        ds.map_batches(_add, batch_format="pyarrow")
        .sort(HASH_COL)
        .map_batches(_apply, batch_format="pyarrow", batch_size=None)
    )


def gather(
    ds: "ray.data.Dataset",
    finish: Callable[[pa.Table], pa.Table],
    partial: "Callable[[pa.Table], pa.Table] | None" = None,
) -> "ray.data.Dataset":
    """Global finish over small partials: run `partial` on each batch
    (when given), coalesce every partial into one block and call
    `finish` once on that block.  The partials must fit one block, so
    `partial` reduces a batch to an aggregate-sized table (per-group
    sums, a local top-k, a sketch).

    `finish` is never called on an empty table: an input with no rows,
    or partials that all return 0 rows, yield an empty Dataset without
    a `finish` call."""
    if partial is not None:
        ds = ds.map_batches(partial, batch_format="pyarrow")
    return ds.repartition(1).map_batches(finish, batch_format="pyarrow", batch_size=None)
