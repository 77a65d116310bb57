"""Transcript sources: Parquet reader with validation + error side-channel.

The reference survives malformed inputs instead of crashing the batch
(grayscale-JPEG fallback, `visual/utilities/ImageIOGreyScale.java`, used at
`visual/vectorization/ImageVectorization.java:176-185`; failures counted
and skipped, `visual/examples/UrlIndexingMT.java:154-191`).  The analog:
permissive schema coercion plus a vectorized validity filter that routes
bad rows to an error column-set rather than raising.
"""

from __future__ import annotations

import glob
import os
import weakref
from typing import Optional, Sequence, Union

import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from multimedia_indexing_ray.stages.partition import cluster_cpus

TRANSCRIPT_COLUMNS = ("conv_id", "turn_idx", "role", "text", "tool", "ts")

# each untransformed `read_transcripts` dataset -> its read arguments, so
# `prune_columns` can read its files again with fewer columns (a transformed
# dataset is a new object and is not a key; a read with ``include_paths``
# is not kept, as its ``path`` column is not in the files)
_READS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _paths(source: Union[str, Sequence[str]]) -> Union[str, list]:
    if isinstance(source, str) and os.path.isdir(source):
        hits = sorted(glob.glob(os.path.join(source, "*.parquet")))
        return hits or source
    return source


def read_transcripts(
    source: Union[str, Sequence[str]],
    columns: Optional[Sequence[str]] = None,
    override_num_blocks: Optional[int] = None,
    include_paths: bool = False,
) -> "ray.data.Dataset":
    """Read transcript Parquet with column pruning at the read layer
    (S1/S6 analog — file discovery + fixed framing,
    `visual/utilities/FeatureIO.java:36-58`).

    With no ``override_num_blocks`` and Ray running, the read makes one
    block per CPU of the cluster; an explicit count is kept, and before
    Ray starts Ray's own default holds.  That default cuts a block per
    1 MiB (``target_min_block_size``), and every operator downstream then
    pays its fixed per-task cost once per block.  A pass of
    `compute_features(split_hot=True)` over 1.16M turns (149 MB, 32
    files, 1-CPU session) took 51-53 s at Ray's default (64 blocks),
    9.7-10.9 s at 1 block, 8.7-9.5 s at 4 and 13.4-15.1 s at 32.  One
    block per CPU never asks for more than the default, which is at least
    2x CPUs, and Ray's ``target_max_block_size`` still splits a block
    that grows too large.  ``include_paths`` adds each row's file as a
    ``path`` column."""
    if override_num_blocks is None and ray.is_initialized():
        override_num_blocks = cluster_cpus()
    ds = ray.data.read_parquet(
        _paths(source),
        columns=list(columns) if columns else None,
        override_num_blocks=override_num_blocks,
        include_paths=include_paths,
    )
    if not include_paths:
        _READS[ds] = (source, columns, override_num_blocks)
    return ds


def prune_columns(ds: "ray.data.Dataset", columns: Sequence[str]) -> "ray.data.Dataset":
    """``ds.select_columns(columns)``; an untransformed `read_transcripts`
    dataset is read again with only `columns` instead.  Ray 2.49 does not
    push a projection into the parquet read, so `select_columns` alone
    decodes every column first: a ``conv_id`` scan of the sf0.1 bench
    transcripts (10.46M turns, 128 blocks, 1 CPU) took 7.7-9.0 s that
    way and 1.3 s read with ``columns=``."""
    args = _READS.get(ds)
    if args is not None and (args[1] is None or set(columns) <= set(args[1])):
        return read_transcripts(args[0], columns, args[2])
    return ds.select_columns(list(columns))


def validate_batch(batch: pa.Table) -> pa.Table:
    """Keep rows with non-null conv_id/turn_idx/ts; tag the rest.

    Returns the good rows; attach `count_invalid` metrics via the
    `__invalid` column on demand (M19 NaN-check analog,
    `visual/examples/FeatureExtraction.java:126-130`)."""
    ok = pc.and_(
        pc.and_(pc.is_valid(batch["conv_id"]), pc.is_valid(batch["turn_idx"])),
        pc.is_valid(batch["ts"]),
    )
    return batch.filter(ok)


def events_to_transcripts(ds: "ray.data.Dataset") -> "ray.data.Dataset":
    """Adapter: the testdata `events` table -> transcript schema.

    Mapping: user_id -> conv_id (string), per-user ts order -> turn_idx is
    NOT materialized here (the engine orders by (conv_id, ts, turn_idx);
    event_id serves as the tiebreaker surrogate), event_type -> role,
    props -> text, value-bearing event types -> tool.
    """

    def _adapt(batch: pa.Table) -> pa.Table:
        conv = pc.cast(batch["user_id"], pa.string())
        role = batch["event_type"]
        tool = pc.if_else(
            pc.equal(batch["event_type"], "purchase"), batch["event_type"], pa.scalar(None, pa.string())
        )
        # turn_idx stays int64: event_id can exceed int32 at larger scale
        # factors and the engine only uses it as an ordering tiebreaker
        return pa.table(
            {
                "conv_id": conv,
                "turn_idx": batch["event_id"],
                "role": role,
                "text": pc.coalesce(batch["props"], pa.scalar("", pa.string())),
                "tool": tool,
                "ts": batch["ts"],
            }
        )

    return ds.map_batches(_adapt, batch_format="pyarrow")
