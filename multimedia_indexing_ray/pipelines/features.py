"""End-to-end feature pipelines.

``transcript_features``: transcripts -> per-turn feature rows (flagship).
``features_at``: transcripts + (conv_id, ts) query probes -> the
point-in-time feature vector at each probe, via the as-of join — the
"entity x timestamp" contract of the north_rule: a probe sees exactly the
features of the last visible turn (ts' <= ts), nulls when no turn or an
unknown conversation (query-time analog of the reference's
`computeNearestNeighbors` serving path,
`visual/examples/YFCC100MExample.java:64-195`).
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from multimedia_indexing_ray.sources.transcripts import read_transcripts
from multimedia_indexing_ray.specs import DEFAULT_SPECS, FeatureSpecs
from multimedia_indexing_ray.stages.asof_join import _adjusted_pair, asof_join
from multimedia_indexing_ray.stages.hotkeys import (
    CHUNK_COL,
    EMIT_COL,
    plan_spec_names as _plan_spec_names,
)
from multimedia_indexing_ray.stages.features import (
    BASE_PRE_COLS,
    PRE_DTYPES,
    WindowKernelFn,
    compute_features,
    prefeaturize,
)
from multimedia_indexing_ray.stages.partition import exchange_by_key


def transcript_features(
    source: Union[str, Sequence[str], "ray.data.Dataset"],
    specs: FeatureSpecs = DEFAULT_SPECS,
    **kw,
) -> "ray.data.Dataset":
    ds = source if isinstance(source, ray.data.Dataset) else read_transcripts(source)
    return compute_features(ds, specs, **kw)


def features_at(
    source: Union[str, Sequence[str], "ray.data.Dataset"],
    queries: "ray.data.Dataset",
    specs: FeatureSpecs = DEFAULT_SPECS,
    keep_unmatched: bool = True,
    columns: Optional[Sequence[str]] = None,
    fused: bool = True,
    split_hot: bool = False,
    hot_threshold: int = 20_000,
    target_chunk_rows: int = 10_000,
    split_plan=None,
) -> "ray.data.Dataset":
    """Point-in-time feature vector per (conv_id, ts) probe.

    Output: query columns + matched_ts / matched_turn_idx + matched_<f>
    for every feature column (typed nulls where no turn is visible).

    ``fused=True`` (default): ONE keyed exchange carries slim
    per-turn prefeatures + probes; the window features are computed AND
    matched inside the same kernel call, so the 37-col vector never
    crosses the wire (the round-1 two-phase plan shipped every turn's
    full vector through a second exchange — 3+ GB at bench scale — and
    was bandwidth-bound at 42-44k probes/sec; see BASELINE.md).

    ``fused=False``: generic path — materialized feature table as-of
    joined with the probes (use when the feature table is precomputed).

    ``columns``: restrict which feature columns are attached.

    ``split_hot=True`` (fused only): hot conversations are chunked at
    safe gaps exactly like ``compute_features(split_hot=True)``, and each
    PROBE is routed to its chunk by ``searchsorted(boundaries, probe_ts)``
    — a probe's backward as-of match is always inside its own chunk
    (every chunk's first turn sits exactly ON the boundary timestamp), so
    the fused kernel needs only that chunk's turns.  Without it each fused
    kernel call holds its conversations whole, so a
    mega-conversation plus its probe load lands on one worker (the probe
    prunes/partitions work, `visual/datastructures/IVFPQ.java:408-450`)."""
    if not fused:
        # the unfused path computes the full feature table first, where
        # hot-key splitting is compute_features' own concern
        feats = transcript_features(
            source,
            specs,
            split_hot=split_hot,
            hot_threshold=hot_threshold,
            target_chunk_rows=target_chunk_rows,
            split_plan=split_plan,
        )
        if columns is not None:
            keep = ["conv_id", "ts", "turn_idx"] + [
                c for c in columns if c not in ("conv_id", "ts", "turn_idx")
            ]
            feats = feats.select_columns(keep)
        return asof_join(
            feats,
            queries,
            left_key="conv_id",
            left_on="ts",
            tiebreak="turn_idx",
            keep_unmatched=keep_unmatched,
        )
    ds = source if isinstance(source, ray.data.Dataset) else read_transcripts(source)
    plan = None
    if split_plan is not None:
        plan = split_plan if not split_plan.empty else None
    elif split_hot:
        from multimedia_indexing_ray.stages.hotkeys import build_split_plan

        p = build_split_plan(
            ds, specs, hot_threshold=hot_threshold, target_chunk_rows=target_chunk_rows
        )
        if not p.empty:
            plan = p
    probe_payload = [n for n in queries.schema().names if n not in ("conv_id", "ts")]
    probe_types = dict(zip(queries.schema().names, queries.schema().types))
    if columns is not None:
        # prune the SPEC REGISTRY to the requested columns so the kernel
        # computes only the needed window families (not compute-all-drop)
        want = set(columns)
        specs = FeatureSpecs(
            sliding=tuple(s for s in specs.sliding if want & set(s.columns)),
            tumbling=tuple(t for t in specs.tumbling if want & set(t.columns)),
            session=tuple(s for s in specs.session if want & set(s.columns)),
            lags=tuple(l for l in specs.lags if want & set(l.columns)),
            leads=tuple(l for l in specs.leads if want & set(l.columns)),
            include_base=specs.include_base,
        )
    feat_cols = [c for c in (*specs.feature_columns(), *specs.lead_columns())]
    if columns is not None:
        feat_cols = [c for c in feat_cols if c in set(columns)]

    def _prep_turns(batch: pa.Table) -> pa.Table:
        ok = pc.and_(pc.is_valid(batch["conv_id"]), pc.is_valid(batch["ts"]))
        if pc.any(pc.invert(ok)).as_py():
            batch = batch.filter(ok)
        t = prefeaturize(batch)
        n = t.num_rows
        cols = {c: t[c] for c in t.column_names}
        for pcol in probe_payload:
            cols[f"__q_{pcol}"] = pa.nulls(n, probe_types[pcol])
        cols["__side"] = pa.array(np.zeros(n, dtype=np.int8))
        return pa.table(cols)

    turn_pad = {
        "turn_idx": pa.int64(),
        **{c: PRE_DTYPES[c] for c in BASE_PRE_COLS},
    }

    def _prep_probes(batch: pa.Table) -> pa.Table:
        # null conv_id/ts probes are dropped (SQL null-never-joins — same
        # contract as the unfused asof path; a None key would also break
        # the np.unique segment fold in the kernel)
        ok = pc.and_(pc.is_valid(batch["conv_id"]), pc.is_valid(batch["ts"]))
        if pc.any(pc.invert(ok)).as_py():
            batch = batch.filter(ok)
        n = batch.num_rows
        # SAME column order as _prep_turns (conv_id, turn_idx, ts, base...)
        # so the union blocks share one schema (mixed orders trip Ray's
        # schema unification warning and rely on by-name fixup)
        cols = {
            "conv_id": batch["conv_id"].cast(pa.string()),
            "turn_idx": pa.nulls(n, turn_pad["turn_idx"]),
            "ts": batch["ts"],
        }
        for c in BASE_PRE_COLS:
            cols[c] = pa.nulls(n, turn_pad[c])
        for pcol in probe_payload:
            cols[f"__q_{pcol}"] = batch[pcol]
        cols["__side"] = pa.array(np.ones(n, dtype=np.int8))
        if plan is None:
            return pa.table(cols)
        # split path: route each probe to its chunk (probe chunk =
        # searchsorted on the plan's boundaries — same rule assign_chunks
        # applies to turns, so probe and its as-of match co-locate), then
        # mirror assign_chunks' appended columns for a union-stable schema
        conv = cols["conv_id"].to_numpy(zero_copy_only=False)
        ts_us = batch["ts"].cast(pa.int64()).to_numpy()
        chunk = np.zeros(n, dtype=np.int32)
        for cid, cp in plan.convs.items():
            m = conv == cid
            if m.any():
                rows = np.flatnonzero(m)
                chunk[rows] = np.searchsorted(
                    cp.boundaries_us, ts_us[rows], side="right"
                ).astype(np.int32)
        cols[CHUNK_COL] = pa.array(chunk)
        for s in _plan_spec_names(plan):
            cols[f"__sessoff_{s}"] = pa.array(np.zeros(n, dtype=np.int64))
        cols[EMIT_COL] = pa.array(np.ones(n, dtype=bool))
        return pa.table(cols)

    def _cast_turn_idx(batch: pa.Table) -> pa.Table:
        i = batch.column_names.index("turn_idx")
        return batch.set_column(i, "turn_idx", batch["turn_idx"].cast(pa.int64()))

    turns = ds.map_batches(_cast_turn_idx, batch_format="pyarrow").map_batches(
        _prep_turns, batch_format="pyarrow"
    )
    probes = queries.map_batches(_prep_probes, batch_format="pyarrow")
    if plan is not None:
        from multimedia_indexing_ray.stages.hotkeys import assign_chunks

        turns = assign_chunks(turns, plan)
    kernel = WindowKernelFn(specs)
    split_cols = (
        [CHUNK_COL, *(f"__sessoff_{s}" for s in _plan_spec_names(plan)), EMIT_COL]
        if plan is not None
        else []
    )

    def _serve(table: pa.Table) -> pa.Table:
        side = table["__side"].to_numpy(zero_copy_only=False)
        tmask = pa.array(side == 0)
        turn_cols = ["conv_id", "turn_idx", "ts", *BASE_PRE_COLS, *split_cols]
        tt = table.filter(tmask).select(turn_cols)
        qt = table.filter(pc.invert(tmask))
        ft = kernel(tt)  # sorted by (conv_id, ts, turn_idx)
        n_l = ft.num_rows
        n_r = qt.num_rows
        k_l = ft["conv_id"].to_numpy(zero_copy_only=False) if n_l else np.empty(0, object)
        k_r = qt["conv_id"].to_numpy(zero_copy_only=False) if n_r else np.empty(0, object)
        t_l = ft["ts"].cast(pa.int64()).to_numpy() if n_l else np.empty(0, np.int64)
        t_r = qt["ts"].cast(pa.int64()).to_numpy() if n_r else np.empty(0, np.int64)
        if n_l and n_r:
            adj_l, adj_r, c_l, c_r = _adjusted_pair(
                k_l, k_r, t_l, t_r, 0, "features_at"
            )
            idx = np.searchsorted(adj_l, adj_r, side="right") - 1
            valid = idx >= 0
            clamped = np.clip(idx, 0, n_l - 1)
            valid &= c_l[clamped] == c_r
        else:
            valid = np.zeros(n_r, dtype=bool)
            clamped = np.zeros(n_r, dtype=np.int64)
        out: dict = {"conv_id": qt["conv_id"], "ts": qt["ts"]}
        for pcol in probe_payload:
            out[pcol] = qt[f"__q_{pcol}"]
        vmask = pa.array(valid)
        if n_l:
            out["matched_ts"] = pc.if_else(
                vmask, ft["ts"].take(pa.array(clamped)).combine_chunks(),
                pa.scalar(None, ft.schema.field("ts").type),
            )
            ti = ft["turn_idx"].to_numpy(zero_copy_only=False).astype(np.int64)
            out["matched_turn_idx"] = pa.array(ti[clamped], pa.int64(), mask=~valid)
            for c in feat_cols:
                out[f"matched_{c}"] = pa.array(
                    ft[c].to_numpy()[clamped], pa.float64(), mask=~valid
                )
        else:
            out["matched_ts"] = pa.nulls(n_r, pa.timestamp("us"))
            out["matched_turn_idx"] = pa.nulls(n_r, pa.int64())
            for c in feat_cols:
                out[f"matched_{c}"] = pa.nulls(n_r, pa.float64())
        res = pa.table(out)
        if not keep_unmatched:
            res = res.filter(vmask)
        return res

    # keyed on (conv_id, chunk) under a split plan: a hot conversation's
    # chunks — and the probes routed to them — spread across calls
    part_key = "conv_id" if plan is None else ["conv_id", CHUNK_COL]
    return exchange_by_key(turns.union(probes), part_key, _serve)
