"""Transcript feature stages: pre-featurize → shuffle → window kernel.

Pipeline shape (SURVEY.md §7.1; FolderIndexingMT.java:48-168 Ray analog):

    read_parquet(transcripts)
      -> prefeaturize (stateless map_batches, Arrow zero-copy; computes
         per-turn scalars and DROPS the heavy text column before the
         shuffle — column pruning at the exchange)
      -> exchange_by_key(conv_id)  [the one mandatory shuffle]
      -> WindowKernelFn (sort each reduce block by (conv_id, ts, turn_idx),
         run the vectorized window/session/lag kernel)

The output has one row per input turn: keys (conv_id, turn_idx, ts),
feature columns in spec order (float64), and lead label columns.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from multimedia_indexing_ray.functions import segments as sg
from multimedia_indexing_ray.functions.turns import base_turn_features
from multimedia_indexing_ray.functions.window_kernel import compute_window_features
from multimedia_indexing_ray.specs import DEFAULT_SPECS, FeatureSpecs
from multimedia_indexing_ray.stages.hotkeys import CHUNK_COL, EMIT_COL
from multimedia_indexing_ray.stages.partition import exchange_by_key

SORT_KEYS = [("conv_id", "ascending"), ("ts", "ascending"), ("turn_idx", "ascending")]
BASE_PRE_COLS = (
    "text_len",
    "n_tokens",
    "is_user",
    "is_assistant",
    "is_system",
    "is_tool_role",
    "has_tool",
)

# Compact exchange dtypes: the shuffle is exchange-bound (ds.stats: the
# Sort operator holds ~11s of a 15s wall with only ~4s remote compute),
# so the one-hot flags cross as int8 and the counts as int32 — ~45%
# fewer payload bytes than all-float64.  The window kernel casts back to
# float64 after the exchange; outputs are unchanged.
PRE_DTYPES = {
    "text_len": pa.int32(),
    "n_tokens": pa.int32(),
    "is_user": pa.int8(),
    "is_assistant": pa.int8(),
    "is_system": pa.int8(),
    "is_tool_role": pa.int8(),
    "has_tool": pa.int8(),
}
_NP_PRE = {"text_len": np.int32, "n_tokens": np.int32}


def prefeaturize(batch: pa.Table, include_text: bool = False) -> pa.Table:
    """Compute per-turn base features; drop text/role/tool before shuffle."""
    feats = base_turn_features(batch)
    cols = {
        "conv_id": batch["conv_id"],
        "turn_idx": batch["turn_idx"],
        "ts": batch["ts"],
    }
    if include_text:
        cols["text"] = batch["text"]
    for name in BASE_PRE_COLS:
        cols[name] = pa.array(
            feats[name].astype(_NP_PRE.get(name, np.int8)), PRE_DTYPES[name]
        )
    return pa.table(cols)


class WindowKernelFn:
    """Per-block window kernel (stateless; spec registry compiled once).

    The spec registry is the codebook analog — loaded once per worker
    (`visual/vectorization/ImageVectorizer.java:101-112`), applied per
    batch.
    """

    def __init__(
        self,
        specs: FeatureSpecs = DEFAULT_SPECS,
        include_text: bool = False,
        pack_vector: bool = False,
    ):
        self.specs = specs
        self.include_text = include_text
        self.pack_vector = pack_vector
        self.feature_cols = specs.feature_columns()
        self.lead_cols = specs.lead_columns()

    def __call__(self, table: pa.Table) -> pa.Table:
        split = CHUNK_COL in table.column_names
        sort_keys = list(SORT_KEYS)
        if split:
            sort_keys.insert(1, (CHUNK_COL, "ascending"))
        idx = pc.sort_indices(table, sort_keys=sort_keys)
        t = table.take(idx)
        conv_codes = pc.dictionary_encode(t["conv_id"].combine_chunks()).indices.to_numpy()
        if split:
            # segment = (conversation, chunk): chunks are independent
            # sub-conversations (split only at > safe-gap boundaries)
            chunk = t[CHUNK_COL].to_numpy()
            change = np.zeros(len(conv_codes), dtype=np.int64)
            if len(change):
                change[1:] = (conv_codes[1:] != conv_codes[:-1]) | (chunk[1:] != chunk[:-1])
            codes = np.cumsum(change)
        else:
            codes = conv_codes
        ts_us = t["ts"].cast(pa.int64()).to_numpy()
        feats = {
            name: t[name].to_numpy(zero_copy_only=False).astype(np.float64)
            for name in BASE_PRE_COLS
        }
        out = compute_window_features(codes, ts_us, feats, self.specs)

        if split:
            # cumulative session ordinals: rebase each chunk-segment on its
            # first EMITTED row and add the plan's per-chunk offset
            emit = t[EMIT_COL].to_numpy()
            starts = sg.segment_starts(codes)
            n = len(codes)
            counts = sg.segment_counts(starts, n)
            pos = np.where(emit, np.arange(n), n + 1)
            first_emit = np.minimum.reduceat(pos, starts) if n else np.empty(0, np.int64)
            first_emit = np.clip(first_emit, 0, max(n - 1, 0))
            seg_of = np.repeat(np.arange(len(starts)), counts)
            for spec in self.specs.session:
                col = f"{spec.name}_session_idx"
                offcol = f"__sessoff_{spec.name}"
                raw = out[col]
                raw0 = raw[first_emit][seg_of]
                offs = (
                    t[offcol].to_numpy()
                    if offcol in t.column_names
                    else np.zeros(n, dtype=np.int64)
                )
                out[col] = raw - raw0 + offs.astype(np.float64)
            keep = np.flatnonzero(emit)
            keep_arr = pa.array(keep)
            t = t.take(keep_arr)
            out = {k: v[keep] for k, v in out.items()}

        cols = {
            "conv_id": t["conv_id"],
            "turn_idx": t["turn_idx"],
            "ts": t["ts"],
        }
        if self.include_text and "text" in t.column_names:
            cols["text"] = t["text"]
        if self.pack_vector:
            mat = np.stack([out[c] for c in self.feature_cols], axis=1)
            cols["features"] = pa.FixedSizeListArray.from_arrays(
                pa.array(mat.reshape(-1), pa.float64()), mat.shape[1]
            )
        else:
            for c in self.feature_cols:
                cols[c] = pa.array(out[c], pa.float64())
        for c in self.lead_cols:
            cols[c] = pa.array(out[c], pa.float64())
        return pa.table(cols)


def compute_features(
    ds: "ray.data.Dataset",
    specs: FeatureSpecs = DEFAULT_SPECS,
    include_text: bool = False,
    pack_vector: bool = False,
    split_hot: bool = False,
    hot_threshold: int = 20_000,
    target_chunk_rows: int = 10_000,
    split_plan=None,
) -> "ray.data.Dataset":
    """Full transcript feature pipeline over a transcript Dataset.

    split_hot=True enables salted-key skew splitting: conversations over
    `hot_threshold` rows are chunked at safe gaps (see stages/hotkeys.py)
    so no kernel call is dominated by one conversation; output is
    bit-identical to the unsplit pipeline (tested).  ``split_plan``: a
    precomputed SplitPlan for this input (the plan is input-keyed state —
    build once, reuse across the flagship and serving runs instead of
    re-scanning the slim columns per call)."""
    pre = ds.map_batches(
        lambda b: prefeaturize(b, include_text), batch_format="pyarrow"
    )
    kernel = WindowKernelFn(specs, include_text, pack_vector)
    part_key = "conv_id"
    if split_hot or split_plan is not None:
        from multimedia_indexing_ray.stages.hotkeys import assign_chunks, build_split_plan

        # plan from the RAW dataset: the planner reads an untransformed
        # transcript read again with only its columns (`prune_columns`),
        # so its two scans never decode text
        plan = split_plan if split_plan is not None else build_split_plan(
            ds, specs, hot_threshold=hot_threshold, target_chunk_rows=target_chunk_rows
        )
        if not plan.empty:
            pre = assign_chunks(pre, plan)
            part_key = ["conv_id", CHUNK_COL]
    return exchange_by_key(pre, part_key, kernel)


def normalize_feature_blocks(
    ds: "ray.data.Dataset",
    specs: FeatureSpecs = DEFAULT_SPECS,
    normalizations_on: bool = True,
) -> "ray.data.Dataset":
    """multiVLAD-style block normalization of the packed `features` column
    (`visual/aggregation/VladAggregatorMultipleVocabularies.java:42-101`):
    signed power(0.5) + L2 per spec block, concat, final L2 when there is
    more than one block — with the reference's zero-vector->all-ones L2
    quirk.  `normalizations_on=False` returns the raw concatenation, like
    the reference's `normalizationsOn` flag."""
    from multimedia_indexing_ray.functions.normalize import l2_normalize, ssr_normalize

    # block boundaries in vector order: base | each sliding | each tumbling
    # | each session | lags (base and per-spec groups are the "vocabularies")
    from multimedia_indexing_ray.specs import BASE_FEATURES

    blocks: "list[tuple[int, int]]" = []
    pos = 0
    groups = []
    if specs.include_base:
        groups.append(len(BASE_FEATURES))
    for s in specs.sliding:
        groups.append(len(s.columns))
    for t in specs.tumbling:
        groups.append(len(t.columns))
    for s in specs.session:
        groups.append(len(s.columns))
    if specs.lags:
        groups.append(sum(len(l.columns) for l in specs.lags))
    for g in groups:
        blocks.append((pos, pos + g))
        pos += g
    assert pos == specs.dim

    def _fn(batch: pa.Table) -> pa.Table:
        col = batch["features"].combine_chunks()
        d = col.type.list_size
        mat = col.flatten().to_numpy(zero_copy_only=False).reshape(-1, d)
        if normalizations_on:
            parts = [ssr_normalize(mat[:, a:b]) for a, b in blocks]
            out = np.concatenate(parts, axis=1)
            if len(blocks) > 1:
                out = l2_normalize(out)
        else:
            out = mat
        norm_col = pa.FixedSizeListArray.from_arrays(
            pa.array(out.reshape(-1), pa.float64()), d
        )
        return batch.drop_columns(["features"]).append_column("features", norm_col)

    return ds.map_batches(_fn, batch_format="pyarrow")
