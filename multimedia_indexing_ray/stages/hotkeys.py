"""Hot-conversation (skew) splitting — salted keys with exact semantics.

The reference only MEASURES inverted-list skew (min/max/avg occupancy,
`visual/datastructures/IVFPQ.java:654-673`) and never rebalances; here
skew handling is a first-class stage (north_rule: "explicit ... salted-key
skew splitting for hot conversations").

Scheme (zero-semantic-drift, tested against the unsplit pipeline):

- A conversation is HOT when its row count exceeds ``hot_threshold``,
  counted exactly: per-batch ``(key, n)`` counts summed per key.
- Split points are chosen ONLY at inactivity gaps strictly greater than
  ``safe_gap = max(max window width, every session threshold)``: no
  sliding/tumbling window and no session can span such a gap, so window
  and session-so-far features are chunk-local by construction.
- Positional features still cross the gap, so each chunk replicates
  CONTEXT rows (emit=False): the trailing ``k_lag`` rows of the previous
  chunk (for lag-k and gap) and the leading ``k_lead`` rows of the next
  chunk (for lead-k labels).
- ``session_idx`` is the only cumulative feature: the plan carries, per
  chunk and per session spec, the number of sessions that started before
  the chunk (every split gap starts a session, so offsets are exact).
- A hot conversation with NO safe gap cannot be split without unbounded
  replication; it stays whole (logged in the plan) — bounded-state
  caveat documented in SURVEY.md §7.3.

`build_split_plan` counts exactly without a shuffle of every key: one
scan of the key column keeps, per block, only the keys over the block's
share of ``hot_threshold`` (a superset of the hot keys, since a hot key
is over its share in at least one block); then one `map_partitions_by_key`
stage (through `keyed_scan`, sorted by ``(key, ts, turn_idx)``) takes
every row of those candidates, counts each key from its run and runs
`_conv_plan` for the keys over ``hot_threshold``.  No sketch.  The keyed
stage takes the size rule (one task under `LOCAL_BYTES`, the keyed
exchange above it), and only candidate keys and the plans' boundary
arrays reach the driver; the plan is broadcast to the chunk-assignment
stage via the task closure.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Dict

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from multimedia_indexing_ray.sources.transcripts import prune_columns
from multimedia_indexing_ray.specs import FeatureSpecs
from multimedia_indexing_ray.stages.keyed import keyed_scan

CHUNK_COL = "__chunk"
EMIT_COL = "__emit"
_US = 1_000_000


@dataclass
class ConvSplitPlan:
    boundaries_us: np.ndarray  # sorted split timestamps (chunk c = rows in [b[c-1], b[c]))
    head_ctx_min_us: np.ndarray  # per boundary: min ts replicated INTO the next chunk
    tail_ctx_max_us: np.ndarray  # per boundary: max ts replicated INTO the prev chunk
    session_offsets: Dict[str, np.ndarray]  # spec name -> sessions started before chunk c


@dataclass
class SplitPlan:
    convs: Dict[str, ConvSplitPlan] = field(default_factory=dict)
    unsplittable: "list[str]" = field(default_factory=list)

    @property
    def empty(self) -> bool:
        return not self.convs


def _conv_plan(
    ts: np.ndarray,
    target_chunk_rows: int,
    safe_gap_us: int,
    k_lag: int,
    k_lead: int,
    specs: FeatureSpecs,
) -> "ConvSplitPlan | None":
    """Chunk boundaries for ONE hot conversation from its SORTED int64-us
    timestamps, or None when it is unsplittable (no safe gap / no viable
    chunking)."""
    n = len(ts)
    gaps = np.diff(ts)
    candidates = np.flatnonzero(gaps > safe_gap_us) + 1  # row idx that STARTS a chunk
    # greedy: take the next candidate once the running chunk >= target
    chosen = []
    last = 0
    for c in candidates:
        if c - last >= target_chunk_rows:
            chosen.append(c)
            last = c
    if not chosen:
        return None
    chosen_arr = np.array(chosen, dtype=np.int64)
    boundaries = ts[chosen_arr]
    head_ctx_min = ts[np.maximum(chosen_arr - k_lag, 0)]
    tail_idx = np.minimum(chosen_arr + max(k_lead, 1) - 1, n - 1)
    tail_ctx_max = ts[tail_idx] if k_lead > 0 else boundaries - 1  # empty if no leads
    offsets: Dict[str, np.ndarray] = {}
    for spec in specs.session:
        thr = spec.gap_s * _US
        is_start = np.concatenate([[True], gaps > thr])
        cum = np.cumsum(is_start)  # sessions started up to and incl. row i
        # sessions started BEFORE each chunk's first row
        offsets[spec.name] = np.concatenate([[0], cum[chosen_arr - 1]]).astype(np.int64)
    return ConvSplitPlan(
        boundaries_us=boundaries,
        head_ctx_min_us=head_ctx_min,
        tail_ctx_max_us=tail_ctx_max,
        session_offsets=offsets,
    )


def build_split_plan(
    ds: "ray.data.Dataset",
    specs: FeatureSpecs,
    hot_threshold: int = 20_000,
    target_chunk_rows: int = 10_000,
    key: str = "conv_id",
    on: str = "ts",
) -> SplitPlan:
    """Split plan for every conversation with more than ``hot_threshold``
    rows (null keys never count).

    Candidates: a key with more than ``hot_threshold`` of the input's
    ``n_rows`` rows has, in at least one block, more than ``hot_threshold
    * block_rows / n_rows`` rows (those shares add up to
    ``hot_threshold``), so each block keeps only its keys over that share
    and the union is a superset of the hot keys.  The keyed stage then
    sees every row of each candidate, counts it exactly and plans the
    ones over ``hot_threshold``.  ``n_rows`` comes from ``ds.count()``:
    file metadata for a parquet read, an extra pass for a transformed
    input."""
    plan = SplitPlan()
    keys = prune_columns(ds, [key])
    n_rows = keys.count()
    if not n_rows:
        return plan

    def _candidates(block: pa.Table) -> pa.Table:
        g = block.drop_null().group_by(key).aggregate([([], "count_all")])
        share = hot_threshold * block.num_rows // n_rows  # floor: superset kept
        return pa.table({key: g[key]}).filter(pc.greater(g["count_all"], share))

    per_block = keys.map_batches(_candidates, batch_format="pyarrow", batch_size=None)
    cands = sorted({r[key] for r in per_block.take_all()})
    if not cands:
        return plan

    safe_gap_us = int(
        max(
            [specs.max_window_width_s()] + [s.gap_s for s in specs.session],
        )
        * _US
    ) + 1
    # +1: lag_k of a derived-from-previous-row feature (gap_s) needs the
    # k-th previous row's OWN predecessor to compute its gap correctly
    k_lag = specs.max_lag_depth() + 1
    k_lead = max([l.k for l in specs.leads], default=0)
    cand_arr = pa.array(cands)

    def _cand_rows(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.is_in(batch[key], value_set=cand_arr))

    def _plan_body(t: pa.Table, starts: np.ndarray) -> pa.Table:
        ts = t[on].cast(pa.int64()).to_numpy()
        ends = np.append(starts[1:], len(ts))
        hot = np.flatnonzero(ends - starts > hot_threshold)  # exact counts
        blobs = []
        for lo, hi in zip(starts[hot], ends[hot]):
            res = _conv_plan(
                ts[lo:hi], target_chunk_rows, safe_gap_us, k_lag, k_lead, specs
            )
            # ship plain numpy payloads, not the dataclass: the class
            # travels to workers pickled by VALUE (cloudpickle), so a
            # worker-side by-reference re-pickle could fail to resolve it
            blobs.append(
                pickle.dumps(
                    None
                    if res is None
                    else (
                        res.boundaries_us,
                        res.head_ctx_min_us,
                        res.tail_ctx_max_us,
                        res.session_offsets,
                    )
                )
            )
        return pa.table(
            {key: t[key].take(starts[hot]), "plan": pa.array(blobs, pa.binary())}
        )

    rows = prune_columns(ds, [key, on, "turn_idx"]).map_batches(
        _cand_rows, batch_format="pyarrow"
    )
    for row in sorted(
        keyed_scan(rows, key, (on, "turn_idx"), _plan_body).take_all(),
        key=lambda r: r[key],
    ):
        res = pickle.loads(row["plan"])
        if res is None:
            plan.unsplittable.append(row[key])
        else:
            plan.convs[row[key]] = ConvSplitPlan(*res)
    return plan


def plan_spec_names(plan: SplitPlan) -> "list[str]":
    return sorted({name for p in plan.convs.values() for name in p.session_offsets})


def assign_chunks(ds: "ray.data.Dataset", plan: SplitPlan, key: str = "conv_id", on: str = "ts") -> "ray.data.Dataset":
    """Add __chunk / __emit (+ per-spec __sessoff_*) columns; hot rows near
    a boundary are REPLICATED into the neighbouring chunk with emit=False.
    Cold conversations pass through with chunk 0."""
    spec_names = plan_spec_names(plan)
    plan_keys = set(plan.convs)
    # a conversation's context windows can only overlap each other when a
    # chunk is SHORTER than the context span — rare (session-snapped tiny
    # chunks).  The vectorized searchsorted assignment below handles one
    # head + one tail window per row; flag the rare multi-overlap plans
    # once here and route them through the exact per-boundary loop.
    multi_overlap = {
        cid
        for cid, p in plan.convs.items()
        if len(p.boundaries_us) > 1
        and (
            (np.asarray(p.head_ctx_min_us[1:]) < np.asarray(p.boundaries_us[:-1])).any()
            or (np.asarray(p.tail_ctx_max_us[:-1]) >= np.asarray(p.boundaries_us[1:])).any()
        )
    }

    def _assign(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        conv = batch[key].to_numpy(zero_copy_only=False)
        ts = batch[on].cast(pa.int64()).to_numpy()
        chunk = np.zeros(n, dtype=np.int32)
        offs = {s: np.zeros(n, dtype=np.int64) for s in spec_names}
        extra_idx: "list[np.ndarray]" = []
        extra_chunk: "list[np.ndarray]" = []
        extra_offs: Dict[str, "list[np.ndarray]"] = {s: [] for s in spec_names}

        def _emit_extra(sel, targets, p):
            extra_idx.append(sel)
            extra_chunk.append(targets.astype(np.int32))
            for s in spec_names:
                extra_offs[s].append(p.session_offsets[s][targets])

        # one hash pass over the batch keys; absent plan convs cost zero
        present = set(conv.tolist()) & plan_keys if plan.convs else set()
        for cid in present:
            p = plan.convs[cid]
            rows = np.flatnonzero(conv == cid)
            t = ts[rows]
            b_arr = np.asarray(p.boundaries_us, dtype=np.int64)
            c = np.searchsorted(b_arr, t, side="right").astype(np.int32)
            chunk[rows] = c
            for s in spec_names:
                offs[s][rows] = p.session_offsets[s][c]
            if cid in multi_overlap:
                # exact per-boundary loop for the rare overlapping plans
                for i, b in enumerate(p.boundaries_us):
                    hm = (t >= p.head_ctx_min_us[i]) & (t < b)
                    tm = (t >= b) & (t <= p.tail_ctx_max_us[i])
                    for mask, target in ((hm, i + 1), (tm, i)):
                        if mask.any():
                            sel = rows[mask]
                            _emit_extra(
                                sel, np.full(len(sel), target, np.int32), p
                            )
                continue
            # vectorized: the row's own boundary interval decides its one
            # possible head window (i == c, when t < boundaries[c]) and
            # one possible tail window (i == c-1)
            head_min = np.asarray(p.head_ctx_min_us, dtype=np.int64)
            tail_max = np.asarray(p.tail_ctx_max_us, dtype=np.int64)
            nb = len(b_arr)
            has_next = c < nb
            hm = has_next & (t >= head_min[np.minimum(c, nb - 1)])
            if hm.any():
                _emit_extra(rows[hm], c[hm] + 1, p)
            has_prev = c >= 1
            tm = has_prev & (t <= tail_max[np.maximum(c, 1) - 1])
            if tm.any():
                _emit_extra(rows[tm], c[tm] - 1, p)
        emit = np.ones(n, dtype=bool)
        out = batch.append_column(CHUNK_COL, pa.array(chunk))
        for s in spec_names:
            out = out.append_column(f"__sessoff_{s}", pa.array(offs[s]))
        out = out.append_column(EMIT_COL, pa.array(emit))
        if extra_idx:
            idx = np.concatenate(extra_idx)
            ctx = batch.take(pa.array(idx))
            ctx = ctx.append_column(CHUNK_COL, pa.array(np.concatenate(extra_chunk)))
            for s in spec_names:
                ctx = ctx.append_column(f"__sessoff_{s}", pa.array(np.concatenate(extra_offs[s])))
            ctx = ctx.append_column(EMIT_COL, pa.array(np.zeros(len(idx), dtype=bool)))
            out = pa.concat_tables([out, ctx])
        return out

    return ds.map_batches(_assign, batch_format="pyarrow")
