"""Hot-conversation (skew) splitting — salted keys with exact semantics.

The reference only MEASURES inverted-list skew (min/max/avg occupancy,
`visual/datastructures/IVFPQ.java:654-673`) and never rebalances; here
skew handling is a first-class stage (north_rule: "explicit ... salted-key
skew splitting for hot conversations").

Scheme (zero-semantic-drift, tested against the unsplit pipeline):

- A conversation is HOT when its row count exceeds ``hot_threshold``
  (candidates from a one-scan Misra-Gries-style heavy-hitter sketch,
  confirmed with exact counts).
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

The plan is built from ONLY the hot conversations' (ts, turn_idx)
columns (a driver-side pandas pass over a by-definition-small subset) and
broadcast to the chunk-assignment stage via the task closure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from multimedia_indexing_ray.specs import FeatureSpecs
from multimedia_indexing_ray.stages.partition import (
    FUSED_PRE_ROWS,
    HOT_DETAIL_ROWS,
    fits,
    map_partitions_by_key,
)

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


def find_hot_candidates(
    ds: "ray.data.Dataset",
    key: str,
    hot_threshold: int,
    sketch_counters: int = 4096,
) -> "list[str]":
    """GUARANTEED superset of the keys with > hot_threshold rows, from ONE
    streaming scan — no materialization, no dependence on the block count.

    Per-batch heavy hitters with a RELATIVE cutoff (the Misra-Gries /
    SpaceSaving bound, Misra & Gries 1982): each batch of n_b rows
    reports every key with batch count > n_b/m (at most m keys) plus a
    sentinel row carrying n_b.  A key's unreported contributions sum to
    at most sum_b(n_b/m) = N/m across the whole input, so every key with
    true count > T has reported sum > T - N/m — keeping keys above that
    driver-side cutoff cannot miss a hot key.  Candidates are verified
    EXACTLY downstream (restricted count or the detail pass), so false
    positives only cost a little extra work.

    When the sketch is too coarse for the data (T <= N/m, i.e. the bound
    degenerates to "everything"), fall back to an exact partial-count
    groupby (one small shuffle)."""
    m = max(2, int(sketch_counters))

    def _hh_partial(batch: pa.Table) -> pa.Table:
        # drop_null: a single null conv_id would crash np.unique's object
        # compare (review-found); null keys cannot be hot conversations
        keys = batch[key].drop_null().to_numpy(zero_copy_only=False)
        n_b = len(keys)
        uniq, cnt = np.unique(keys, return_counts=True)
        keep = cnt > n_b / m
        return pa.table(
            {
                # explicit string type: an all-cold batch would otherwise
                # emit a null-typed key column next to string-typed ones
                # (schema-divergent blocks, review-found)
                key: pa.array(
                    np.concatenate([uniq[keep], np.array([None], dtype=object)]),
                    type=pa.string(),
                ),
                "n": pa.array(
                    np.concatenate([cnt[keep], [n_b]]).astype(np.int64), pa.int64()
                ),
            }
        )

    parts = ds.map_batches(
        _hh_partial, batch_format="pyarrow", batch_size=None
    ).to_pandas()
    if parts.empty:
        return []
    sentinel = parts[key].isna()
    total_rows = int(parts.loc[sentinel, "n"].sum())
    sums = parts.loc[~sentinel].groupby(key, sort=False)["n"].sum().to_dict()
    return _candidates_from_sums(sums, total_rows, m, ds, key, hot_threshold)


def _candidates_from_sums(
    sums: "dict[str, int]",
    total_rows: int,
    m: int,
    ds: "ray.data.Dataset",
    key: str,
    hot_threshold: int,
) -> "list[str]":
    """Driver-side tail of the Misra-Gries candidate selection — shared
    by find_hot_candidates (own sketch scan) and the fused prefeature
    pass (accumulator actor).  ``ds`` is only scanned on the degenerate
    bound or for the exact confirmation of a too-large candidate set."""
    if hot_threshold <= total_rows / m:
        # sketch bound degenerate for this input: exact partial-count
        # groupby over ALL keys (one small shuffle over (key, n) pairs)
        from ray.data.aggregate import Sum

        def _partial_all(batch: pa.Table) -> pa.Table:
            keys = batch[key].drop_null().to_numpy(zero_copy_only=False)
            uniq, cnt = np.unique(keys, return_counts=True)
            return pa.table(
                {key: pa.array(uniq, type=pa.string()),
                 "n": pa.array(cnt.astype(np.int64), pa.int64())}
            )

        totals = (
            ds.map_batches(_partial_all, batch_format="pyarrow")
            .groupby(key)
            .aggregate(Sum("n", alias_name="n"))
            .filter(expr=f"n > {int(hot_threshold)}")
            .to_pandas()
        )
        return sorted(totals[key].tolist())

    cutoff = hot_threshold - total_rows / m
    cand = {k for k, v in sums.items() if v > cutoff}
    if not cand:
        return []
    # the detail pass pulls at most len(cand) x hot_threshold rows of a
    # NON-hot candidate to the driver; when that worst case is small,
    # skip the exact-count confirmation (one full scan saved)
    if len(cand) * hot_threshold <= 5_000_000:
        return sorted(cand)
    # key-clustered layouts can flag every mid-size key as a candidate;
    # confirm with EXACT counts restricted to the candidates so only
    # genuinely hot keys reach the driver-side detail pass
    cand_arr = pa.array(sorted(cand))

    def _cand_counts(batch: pa.Table) -> pa.Table:
        sel = batch.filter(pc.is_in(batch[key], value_set=cand_arr))
        keys = sel[key].drop_null().to_numpy(zero_copy_only=False)
        uniq, cnt = np.unique(keys, return_counts=True)
        return pa.table(
            {key: pa.array(uniq, type=pa.string()),
             "n": pa.array(cnt.astype(np.int64), pa.int64())}
        )

    totals = (
        ds.map_batches(_cand_counts, batch_format="pyarrow", batch_size=None)
        .to_pandas()
    )
    if totals.empty:
        return []
    sums = totals.groupby(key, sort=False)["n"].sum()
    return sorted(sums[sums > hot_threshold].index.tolist())


def _conv_plan(
    ts: np.ndarray,
    hot_threshold: int,
    target_chunk_rows: int,
    safe_gap_us: int,
    k_lag: int,
    k_lead: int,
    specs: FeatureSpecs,
) -> "ConvSplitPlan | str":
    """Chunk boundaries for ONE conversation from its SORTED int64-us
    timestamps.  Returns "cold" (pigeonhole candidate that isn't actually
    hot), "unsplittable" (no safe gap / no viable chunking), or the plan.
    Shared by the driver-side and the distributed detail passes so the
    two paths are identical by construction."""
    n = len(ts)
    if n <= hot_threshold:
        return "cold"
    gaps = np.diff(ts)
    candidates = np.flatnonzero(gaps > safe_gap_us) + 1  # row idx that STARTS a chunk
    if len(candidates) == 0:
        return "unsplittable"
    # greedy: take the next candidate once the running chunk >= target
    chosen = []
    last = 0
    for c in candidates:
        if c - last >= target_chunk_rows:
            chosen.append(c)
            last = c
    if not chosen:
        return "unsplittable"
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


@ray.remote(num_cpus=0)
class _SketchAccumulator:
    """Shared Misra-Gries merge state for the fused prefeature pass —
    each prefeaturize task ships its tiny per-batch heavy-hitter partial
    here instead of a dedicated sketch scan (VERDICT r4 item 4)."""

    def __init__(self):
        self._sums: "dict[str, int]" = {}
        self._total = 0

    def add(self, keys: "list[str]", counts: "list[int]", n_b: int) -> bool:
        for k, c in zip(keys, counts):
            self._sums[k] = self._sums.get(k, 0) + int(c)
        self._total += int(n_b)
        return True

    def result(self):
        return self._sums, self._total


def fused_prefeature_and_plan(
    ds: "ray.data.Dataset",
    specs: FeatureSpecs,
    include_text: bool = False,
    hot_threshold: int = 20_000,
    target_chunk_rows: int = 10_000,
    key: str = "conv_id",
    on: str = "ts",
    sketch_counters: int = 4096,
) -> "tuple[ray.data.Dataset, SplitPlan, float]":
    """ONE prefeaturize scan that side-accumulates the hot-key sketch —
    returns ``(pre_materialized, plan, plan_marginal_sec)``.

    The flagship pays the prefeature scan anyway; folding the per-batch
    Misra-Gries partial into it (fire-into-a-shared-actor, ~bytes per
    batch) makes the split plan's MARGINAL cost just the in-memory
    detail pass over the materialized pre view — no extra input scans.

    Gated on ``FUSED_PRE_ROWS`` (`partition.fits`, 100M rows): above it
    the pre view would pin too much of the object store, so the builder
    falls back to the streaming two-scan ``build_split_plan`` and a lazy
    (unmaterialized) prefeature dataset.

    Task retries can double-add partials; over-counting only WIDENS the
    candidate superset, and the detail pass verifies with exact per-conv
    row counts, so retried tasks cost extra work, never wrong plans."""
    import time as _time

    from multimedia_indexing_ray.stages.features import prefeaturize

    # metadata-only count for parquet/arrow-backed inputs; a TRANSFORMED
    # input has no free count and ds.count() would execute the upstream
    # pipeline once just to decide the gate (review-found double-scan) —
    # treat unknown as under-cap (the fused path is the intended default;
    # the cap protects the known-huge metadata-backed case)
    meta_rows = None
    try:
        meta_rows = ds._meta_count()
    except Exception:
        pass
    n_rows = meta_rows if meta_rows is not None else 0
    if not fits(n_rows, FUSED_PRE_ROWS):
        t0 = _time.perf_counter()
        plan = build_split_plan(
            ds, specs, hot_threshold=hot_threshold,
            target_chunk_rows=target_chunk_rows, key=key, on=on,
        )
        pre = ds.map_batches(
            lambda b: prefeaturize(b, include_text), batch_format="pyarrow"
        )
        return pre, plan, round(_time.perf_counter() - t0, 3)

    m = max(2, int(sketch_counters))
    acc = _SketchAccumulator.remote()

    def _pre_sketch(batch: pa.Table) -> pa.Table:
        out = prefeaturize(batch, include_text)
        keys = out[key].drop_null().to_numpy(zero_copy_only=False)
        n_b = len(keys)
        uniq, cnt = np.unique(keys, return_counts=True)
        keep = cnt > n_b / m
        # ray.get so the add COMPLETES before this task finishes —
        # materialize() returning then implies the sketch is complete
        ray.get(
            acc.add.remote(uniq[keep].tolist(), cnt[keep].tolist(), int(n_b))
        )
        return out

    pre = ds.map_batches(_pre_sketch, batch_format="pyarrow").materialize()
    t0 = _time.perf_counter()
    sums, total = ray.get(acc.result.remote())
    hot = _candidates_from_sums(sums, total, m, pre, key, hot_threshold)
    plan = _plan_from_slim(
        pre, hot, specs, hot_threshold, target_chunk_rows, key, on
    )
    return pre, plan, round(_time.perf_counter() - t0, 3)


def build_split_plan(
    ds: "ray.data.Dataset",
    specs: FeatureSpecs,
    hot_threshold: int = 20_000,
    target_chunk_rows: int = 10_000,
    key: str = "conv_id",
    on: str = "ts",
) -> SplitPlan:
    # projection-pruned STREAMING view — never materialized: at 100 TB
    # even the slim (key, ts, turn_idx) view is multi-TB, so the
    # candidate sketch and the detail pass each stream a pruned scan
    # instead of pinning it in the object store
    slim = ds.select_columns([key, on, "turn_idx"])
    hot = find_hot_candidates(slim, key, hot_threshold)
    return _plan_from_slim(
        slim, hot, specs, hot_threshold, target_chunk_rows, key, on
    )


def _plan_from_slim(
    slim: "ray.data.Dataset",
    hot: "list[str]",
    specs: FeatureSpecs,
    hot_threshold: int,
    target_chunk_rows: int,
    key: str,
    on: str,
) -> SplitPlan:
    """Detail pass + plan assembly for known hot candidates.  ``slim``
    may carry extra columns (the fused pass hands the materialized
    prefeature view); only (key, on, turn_idx) are read."""
    plan = SplitPlan()
    if not hot:
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

    hot_set = set(hot)
    hot_arr = pa.array(sorted(hot_set))  # built once, not per batch

    def _filter_hot(batch: pa.Table) -> pa.Table:
        m = pc.is_in(batch[key], value_set=hot_arr)
        return batch.filter(m).select([key, on, "turn_idx"])

    # projection-pruned pass 2: detail rows for the (few) candidates only,
    # materialized ONCE (hot rows only — the skewed subset) so the gate
    # count and whichever detail path runs both read it without a rescan
    hot_ds = (
        slim.map_batches(_filter_hot, batch_format="pyarrow").materialize()
    )
    # in-process detail pass: the hot rows' slim (key, ts, turn_idx) view
    # is one driver pandas pass
    if fits(hot_ds.count(), HOT_DETAIL_ROWS):
        hot_df = hot_ds.to_pandas()
        hot_df["__ts"] = hot_df[on].astype("datetime64[us]").astype("int64")
        hot_df = hot_df.sort_values([key, "__ts", "turn_idx"], kind="mergesort")
        for conv, g in hot_df.groupby(key, sort=False):
            res = _conv_plan(
                g["__ts"].to_numpy(), hot_threshold, target_chunk_rows,
                safe_gap_us, k_lag, k_lead, specs,
            )
            if res == "cold":
                continue
            if res == "unsplittable":
                plan.unsplittable.append(conv)
            else:
                plan.convs[conv] = res
        return plan

    # at-scale detail pass (rehearsal-flipped): co-partition hot rows on
    # key so each hot conversation lands WHOLE in one worker, compute its
    # plan there, ship back only pickled boundary arrays (~KBs per conv)
    import pickle

    def _plan_kernel(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        df["__ts"] = df[on].astype("datetime64[us]").astype("int64")
        df = df.sort_values([key, "__ts", "turn_idx"], kind="mergesort")
        convs, blobs = [], []
        for conv, g in df.groupby(key, sort=False):
            res = _conv_plan(
                g["__ts"].to_numpy(), hot_threshold, target_chunk_rows,
                safe_gap_us, k_lag, k_lead, specs,
            )
            if res == "cold":
                continue
            convs.append(conv)
            # ship plain numpy payloads, not the dataclass: the class
            # travels to workers pickled by VALUE (cloudpickle), so a
            # worker-side by-reference re-pickle could fail to resolve it
            blobs.append(
                pickle.dumps(
                    None
                    if res == "unsplittable"
                    else (
                        res.boundaries_us,
                        res.head_ctx_min_us,
                        res.tail_ctx_max_us,
                        res.session_offsets,
                    )
                )
            )
        key_type = t.schema.field(key).type
        return pa.table(
            {key: pa.array(convs, key_type), "plan": pa.array(blobs, pa.binary())}
        )

    n_parts = max(4, min(64, len(hot_set)))
    for row in map_partitions_by_key(
        hot_ds, key, _plan_kernel, num_partitions=n_parts
    ).take_all():
        res = pickle.loads(row["plan"])
        if res is None:
            plan.unsplittable.append(row[key])
        else:
            plan.convs[row[key]] = ConvSplitPlan(*res)
    plan.unsplittable.sort()
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
