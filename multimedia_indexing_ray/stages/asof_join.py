"""Point-in-time as-of join and temporal range join — sort-within-
partition merges with a searchsorted (gallop) cursor.

The reference's only "join" is nearest-neighbour in vector space
(`visual/datastructures/Linear.java:138-163` exhaustive scan;
`visual/datastructures/IVFPQ.java:408-450` partition-pruned probe).  The
transcript engine's analogs are temporal:

- ``asof_join``: for each right row ``(key, t)``, the LAST left row with
  ``t' <= t`` (direction="backward"; ties -> highest tiebreaker) or the
  FIRST with ``t' >= t`` (direction="forward"; ties -> lowest), exact
  matches excluded when ``allow_exact_matches=False``.
- ``range_join``: every left row with ``t + lower <= t' <= t + upper``
  (inclusive; inner semantics), expanded vectorized.

Physical plan (shared): both sides tagged, unioned and handed to one
`map_partitions_by_key` stage on the key (one task under
`LOCAL_BYTES`, else ONE shuffle with the feature engine's partitioner);
each group merged with global ``np.searchsorted`` over a
key-segment-separated monotone time axis — no per-key Python loops.
Zero temporal leakage: a backward match can never see ``t' > t``.

Temporal columns are normalised to microseconds inside the merge, so
second-denominated offsets are correct for any timestamp unit; plain
numeric "time" columns are used as-is (offsets then share their unit).
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from multimedia_indexing_ray.functions import segments as sg
from multimedia_indexing_ray.stages.partition import map_partitions_by_key

SIDE_COL = "__side"
FPAY_COL = "__lpayf"  # left float64 payload packed as large_list<float64>
FVAL_COL = "__lpayv"  # parallel bit-packed validity (large_list<bool>)


def _prep_side(
    ds: "ray.data.Dataset",
    key: str,
    on: str,
    side: int,
    all_fields: "list[pa.Field]",
    float_names: "list[str]",
) -> "ray.data.Dataset":
    """Rename key/on to unified names, add the side tag, and pad to the
    union schema with typed nulls.

    The left side's float64 payload columns are PACKED into one
    large_list pair (values + bit-packed validity) so probe/right rows
    ship only empty-list offsets (~8 B/row) instead of a typed-null
    buffer per feature column (~8 B x n_cols/row) — the serving-path
    exchange-width fix measured in BASELINE.md.

    Null join keys / times are dropped (SQL null-never-joins semantics —
    NaN key segments would otherwise match each other)."""
    nf = len(float_names)

    def _fn(batch: pa.Table) -> pa.Table:
        ok = pc.and_(pc.is_valid(batch[key]), pc.is_valid(batch[on]))
        if pc.any(pc.invert(ok)).as_py():
            batch = batch.filter(ok)
        cols: dict = {}
        n = batch.num_rows
        for f in all_fields:
            if f.name == "__k":
                cols["__k"] = batch[key].cast(f.type)
            elif f.name == "__t":
                cols["__t"] = batch[on].cast(f.type)
            elif f.name in batch.column_names and f.name not in (key, on):
                cols[f.name] = batch[f.name].cast(f.type)
            else:
                cols[f.name] = pa.nulls(n, f.type)
        if nf:
            if side == 0:
                vals = np.empty((n, nf), dtype=np.float64)
                valid = np.empty((n, nf), dtype=bool)
                for j, name in enumerate(float_names):
                    c = batch[f"__l_{name}"]
                    vals[:, j] = c.to_numpy(zero_copy_only=False)
                    valid[:, j] = pc.is_valid(c).to_numpy(zero_copy_only=False)
                offs = pa.array(np.arange(n + 1, dtype=np.int64) * nf)
                cols[FPAY_COL] = pa.LargeListArray.from_arrays(
                    offs, pa.array(vals.reshape(-1), pa.float64())
                )
                cols[FVAL_COL] = pa.LargeListArray.from_arrays(
                    offs, pa.array(valid.reshape(-1), pa.bool_())
                )
            else:
                offs = pa.array(np.zeros(n + 1, dtype=np.int64))
                cols[FPAY_COL] = pa.LargeListArray.from_arrays(
                    offs, pa.array([], pa.float64())
                )
                cols[FVAL_COL] = pa.LargeListArray.from_arrays(
                    offs, pa.array([], pa.bool_())
                )
        cols[SIDE_COL] = pa.array(np.full(n, side, dtype=np.int8))
        return pa.table(cols)

    return ds.map_batches(_fn, batch_format="pyarrow")


def _build_sides(left, right, left_key, left_on, right_key, right_on):
    """Shared side preparation: union schema, left-payload renaming,
    per-side prep.  Returns (lds, rds, l_out_names, right_payload,
    on_is_temporal, float_names)."""
    l_schema = left.schema()
    r_schema = right.schema()
    l_fields = {n: t for n, t in zip(l_schema.names, l_schema.types)}
    r_fields = {n: t for n, t in zip(r_schema.names, r_schema.types)}
    key_type = l_fields[left_key]
    on_type = l_fields[left_on]
    left_payload = [n for n in l_schema.names if n != left_key]
    right_payload = [n for n in r_schema.names if n not in (right_key, right_on)]
    float_names = [
        n for n in left_payload if n != left_on and pa.types.is_float64(l_fields[n])
    ]

    fields: "list[pa.Field]" = [pa.field("__k", key_type), pa.field("__t", on_type)]
    for n in left_payload:
        if n != left_on and n not in float_names:
            fields.append(pa.field(f"__l_{n}", l_fields[n]))
    for n in right_payload:
        fields.append(pa.field(n, r_fields[n]))

    def _rename_left(batch: pa.Table) -> pa.Table:
        cols = {
            ("__l_" + n if n not in (left_key, left_on) else n): batch[n]
            for n in batch.column_names
        }
        return pa.table(cols)

    lds = _prep_side(
        left.map_batches(_rename_left, batch_format="pyarrow"),
        left_key, left_on, 0, fields, float_names,
    )
    rds = _prep_side(right, right_key, right_on, 1, fields, float_names)
    l_out_names = [n for n in left_payload if n != left_on]
    on_is_temporal = pa.types.is_temporal(on_type)
    return lds, rds, l_out_names, right_payload, on_is_temporal, float_names


def _t_int64(col: "pa.ChunkedArray", temporal: bool) -> np.ndarray:
    """__t column -> int64 numpy, normalised to MICROSECONDS when the
    column is temporal (so second-denominated offsets are unit-safe)."""
    if col.length() == 0:
        return np.empty(0, np.int64)
    if temporal:
        col = col.cast(pa.timestamp("us"))
    return col.cast(pa.int64()).to_numpy()


def _adjusted_pair(k_l, k_r, t_l, t_r, margin: int, op_name: str):
    """Fold both sides onto one key-segment-separated monotone int64 axis
    (`segments.segment_offsets`).  Returns (adj_l, adj_r, c_l, c_r)."""
    cats = np.unique(np.concatenate([k_l, k_r]))
    c_l = np.searchsorted(cats, k_l)
    c_r = np.searchsorted(cats, k_r)
    base = np.full(len(cats), np.iinfo(np.int64).max, dtype=np.int64)
    np.minimum.at(base, c_l, t_l)
    np.minimum.at(base, c_r, t_r)
    rel_l = t_l - base[c_l]
    rel_r = t_r - base[c_r]
    span = np.zeros(len(cats), dtype=np.int64)
    np.maximum.at(span, c_l, rel_l)
    np.maximum.at(span, c_r, rel_r)
    off = sg.segment_offsets(span, margin, op_name)
    return off[c_l] + rel_l, off[c_r] + rel_r, c_l, c_r


def asof_join(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    left_key: str = "conv_id",
    left_on: str = "ts",
    right_key: Optional[str] = None,
    right_on: Optional[str] = None,
    tiebreak: Optional[str] = "turn_idx",
    allow_exact_matches: bool = True,
    direction: str = "backward",
    matched_prefix: str = "matched_",
    keep_unmatched: bool = True,
    tolerance_s: Optional[float] = None,
) -> "ray.data.Dataset":
    """As-of join: attach, to every right row, the columns of the LAST
    left row with ``left_on <= right_on`` (direction="backward"), the
    FIRST left row with ``left_on >= right_on`` (direction="forward"),
    or the CLOSEST left row in either direction (direction="nearest" —
    backward wins distance ties), same key; exact matches excluded when
    ``allow_exact_matches=False``.  Ties on equal time: highest
    tiebreaker backward, lowest forward (nearest inherits the winning
    side's rule).

    ``tolerance_s`` bounds the match distance (pandas ``merge_asof``
    tolerance semantics): a candidate farther than ``tolerance_s``
    seconds (temporal ``on``) / units (numeric ``on``) from the right
    row's time is treated as unmatched — nulls with
    ``keep_unmatched=True``, dropped otherwise.  The bound is applied to
    the already-selected nearest candidate, so it never changes WHICH
    row would match, only whether it does.

    Output: right columns (original names) + left columns prefixed with
    ``matched_prefix``.  Unmatched right rows keep typed nulls (or are
    dropped when ``keep_unmatched=False`` — SQL inner-asof semantics).
    Rows with a NULL key or NULL time on either side are DROPPED before
    the merge (SQL null-never-joins), so the output can have fewer rows
    than ``right`` even with ``keep_unmatched=True``.
    """
    if direction not in ("backward", "forward", "nearest"):
        raise ValueError(direction)
    right_key = right_key or left_key
    right_on = right_on or left_on
    lds, rds, l_out_names, right_payload, temporal, float_names = _build_sides(
        left, right, left_key, left_on, right_key, right_on
    )
    if direction == "backward":
        side_of = "right" if allow_exact_matches else "left"
    else:  # forward; nearest derives both sides itself
        side_of = "left" if allow_exact_matches else "right"
    side_b = "right" if allow_exact_matches else "left"
    side_f = "left" if allow_exact_matches else "right"
    tiebreak_packed = tiebreak in float_names if tiebreak else False
    tol_units = (
        None
        if tolerance_s is None
        else (tolerance_s * 1_000_000.0 if temporal else float(tolerance_s))
    )

    def _merge(table: pa.Table) -> pa.Table:
        lt = table.filter(pc.equal(table[SIDE_COL], 0))
        rt = table.filter(pc.equal(table[SIDE_COL], 1))
        nf = len(float_names)
        # unpack the float payload BEFORE sorting so a float tiebreak
        # column is sortable; after take() the gather below re-aligns
        if nf and lt.num_rows:
            fl = lt[FPAY_COL].combine_chunks()
            fv = lt[FVAL_COL].combine_chunks()
            lvals = fl.flatten().to_numpy(zero_copy_only=False).reshape(-1, nf)
            lvalid = fv.flatten().to_numpy(zero_copy_only=False).reshape(-1, nf)
        else:
            lvals = np.empty((lt.num_rows, nf))
            lvalid = np.zeros((lt.num_rows, nf), dtype=bool)
        sort_keys = [("__k", "ascending"), ("__t", "ascending")]
        tb_col = f"__l_{tiebreak}" if tiebreak else None
        if tb_col and tb_col in lt.column_names:
            sort_keys.append((tb_col, "ascending"))
        elif tiebreak_packed and lt.num_rows:
            j = float_names.index(tiebreak)
            lt = lt.append_column("__tb", pa.array(lvals[:, j]))
            sort_keys.append(("__tb", "ascending"))
        order = pc.sort_indices(lt, sort_keys=sort_keys)
        lt = lt.take(order)
        if nf and lt.num_rows:
            perm = order.to_numpy(zero_copy_only=False)
            lvals = lvals[perm]
            lvalid = lvalid[perm]

        k_l = lt["__k"].to_numpy(zero_copy_only=False)
        k_r = rt["__k"].to_numpy(zero_copy_only=False)
        t_l = _t_int64(lt["__t"], temporal)
        t_r = _t_int64(rt["__t"], temporal)
        adj_l, adj_r, c_l, c_r = _adjusted_pair(k_l, k_r, t_l, t_r, 0, "asof_join")

        def _side(idx, valid):
            """Clamp + same-key + tolerance checks for one direction."""
            cl = np.clip(idx, 0, max(len(adj_l) - 1, 0))
            if len(adj_l):
                valid = valid & (c_l[cl] == c_r)
                if tol_units is not None:
                    valid = valid & (np.abs(t_l[cl] - t_r) <= tol_units)
            return cl, valid

        if direction == "backward":
            idx = np.searchsorted(adj_l, adj_r, side=side_of) - 1
            clamped, valid = _side(idx, (idx >= 0) & (len(adj_l) > 0))
        elif direction == "forward":
            idx = np.searchsorted(adj_l, adj_r, side=side_of)
            clamped, valid = _side(idx, idx < len(adj_l))
        else:  # nearest: evaluate both sides, pick the closer; backward
            # wins distance ties (and exact matches, which are backward
            # distance 0).  Per-side tiebreak is inherited from the sort:
            # backward takes the LAST equal-ts left row (highest
            # tiebreaker), forward the FIRST (lowest).
            idx_b = np.searchsorted(adj_l, adj_r, side=side_b) - 1
            cl_b, ok_b = _side(idx_b, (idx_b >= 0) & (len(adj_l) > 0))
            idx_f = np.searchsorted(adj_l, adj_r, side=side_f)
            cl_f, ok_f = _side(idx_f, idx_f < len(adj_l))
            if len(adj_l):
                dist_b = np.abs(t_r - t_l[cl_b])
                dist_f = np.abs(t_l[cl_f] - t_r)
                take_f = ok_f & (~ok_b | (dist_f < dist_b))
            else:
                take_f = np.zeros(len(adj_r), dtype=bool)
            clamped = np.where(take_f, cl_f, cl_b)
            valid = ok_b | ok_f

        out_cols: dict = {right_key: rt["__k"], right_on: rt["__t"]}
        for n in right_payload:
            out_cols[n] = rt[n]
        vmask = pa.array(valid)
        take_idx = pa.array(clamped.astype(np.int64))
        for n in [left_on] + l_out_names:
            if n in float_names:
                if lt.num_rows:
                    j = float_names.index(n)
                    col = pa.array(
                        lvals[clamped, j], pa.float64(), mask=~(valid & lvalid[clamped, j])
                    )
                else:
                    col = pa.nulls(rt.num_rows, pa.float64())
                out_cols[f"{matched_prefix}{n}"] = col
                continue
            src = lt["__t"] if n == left_on else lt[f"__l_{n}"]
            if lt.num_rows:
                taken = src.take(take_idx).combine_chunks()
                col = pc.if_else(vmask, taken, pa.scalar(None, src.type))
            else:
                col = pa.nulls(rt.num_rows, src.type)
            out_cols[f"{matched_prefix}{n}"] = col
        out = pa.table(out_cols)
        if not keep_unmatched:
            out = out.filter(vmask)
        return out

    return map_partitions_by_key(lds.union(rds), "__k", _merge)


def range_join(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    left_key: str = "conv_id",
    left_on: str = "ts",
    right_key: Optional[str] = None,
    right_on: Optional[str] = None,
    lower_s: float = 0.0,
    upper_s: float = 0.0,
    matched_prefix: str = "matched_",
) -> "ray.data.Dataset":
    """Temporal range (interval) join: for every right row at time t,
    emit one output row per left row of the same key with
    ``t + lower_s <= t' <= t + upper_s`` (inclusive; inner semantics —
    unmatched right rows are dropped).

    Offsets are SECONDS for temporal `on` columns (any timestamp unit —
    values are normalised to microseconds); for plain numeric columns the
    offsets are used in the column's own unit.  Matches are gathered with
    a vectorized repeat/arange expansion; the adjusted-axis margin covers
    the interval so probes cannot cross key segments."""
    right_key = right_key or left_key
    right_on = right_on or left_on
    if lower_s > upper_s:
        raise ValueError("lower_s must be <= upper_s")
    lds, rds, l_out_names, right_payload, temporal, float_names = _build_sides(
        left, right, left_key, left_on, right_key, right_on
    )
    scale = 1_000_000 if temporal else 1
    if not temporal and not (float(lower_s).is_integer() and float(upper_s).is_integer()):
        # int() would silently truncate (-0.5 -> 0) and change interval
        # semantics for plain numeric `on` columns
        raise ValueError(
            "range_join on a non-temporal numeric column requires integral "
            f"lower_s/upper_s (got {lower_s}, {upper_s})"
        )
    lower = int(lower_s * scale)
    upper = int(upper_s * scale)
    margin = max(abs(lower), abs(upper))

    def _merge(table: pa.Table) -> pa.Table:
        lt = table.filter(pc.equal(table[SIDE_COL], 0))
        rt = table.filter(pc.equal(table[SIDE_COL], 1))
        nf = len(float_names)
        if nf and lt.num_rows:
            lvals = lt[FPAY_COL].combine_chunks().flatten().to_numpy(zero_copy_only=False).reshape(-1, nf)
            lvalid = lt[FVAL_COL].combine_chunks().flatten().to_numpy(zero_copy_only=False).reshape(-1, nf)
        else:
            lvals = np.empty((lt.num_rows, nf))
            lvalid = np.zeros((lt.num_rows, nf), dtype=bool)
        order = pc.sort_indices(lt, sort_keys=[("__k", "ascending"), ("__t", "ascending")])
        lt = lt.take(order)
        if nf and lt.num_rows:
            perm = order.to_numpy(zero_copy_only=False)
            lvals = lvals[perm]
            lvalid = lvalid[perm]
        k_l = lt["__k"].to_numpy(zero_copy_only=False)
        k_r = rt["__k"].to_numpy(zero_copy_only=False)
        t_l = _t_int64(lt["__t"], temporal)
        t_r = _t_int64(rt["__t"], temporal)
        adj_l, adj_r, _, _ = _adjusted_pair(k_l, k_r, t_l, t_r, margin, "range_join")
        lo = np.searchsorted(adj_l, adj_r + lower, side="left")
        hi = np.searchsorted(adj_l, adj_r + upper, side="right")
        counts = np.maximum(hi - lo, 0)
        total = int(counts.sum())
        if total == 0:
            cols = {right_key: rt["__k"].slice(0, 0), right_on: rt["__t"].slice(0, 0)}
            for n in right_payload:
                cols[n] = rt[n].slice(0, 0)
            for n in [left_on] + l_out_names:
                if n in float_names:
                    cols[f"{matched_prefix}{n}"] = pa.array([], pa.float64())
                    continue
                src = lt["__t"] if n == left_on else lt[f"__l_{n}"]
                cols[f"{matched_prefix}{n}"] = src.slice(0, 0)
            return pa.table(cols)
        r_idx = np.repeat(np.arange(len(t_r)), counts)
        excl = np.concatenate([[0], np.cumsum(counts)[:-1]])
        l_idx = np.repeat(lo, counts) + (np.arange(total) - np.repeat(excl, counts))
        r_take = pa.array(r_idx.astype(np.int64))
        l_take = pa.array(l_idx.astype(np.int64))
        cols = {right_key: rt["__k"].take(r_take), right_on: rt["__t"].take(r_take)}
        for n in right_payload:
            cols[n] = rt[n].take(r_take)
        for n in [left_on] + l_out_names:
            if n in float_names:
                j = float_names.index(n)
                cols[f"{matched_prefix}{n}"] = pa.array(
                    lvals[l_idx, j], pa.float64(), mask=~lvalid[l_idx, j]
                )
                continue
            src = lt["__t"] if n == left_on else lt[f"__l_{n}"]
            cols[f"{matched_prefix}{n}"] = src.take(l_take)
        return pa.table(cols)

    return map_partitions_by_key(lds.union(rds), "__k", _merge)


def asof_lastk_join(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    k: int,
    left_key: str,
    left_on: str,
    value_col: str,
    tiebreak: Optional[str] = None,
    right_key: Optional[str] = None,
    right_on: Optional[str] = None,
    allow_exact_matches: bool = False,
    out_prefix: str = "last",
) -> "ray.data.Dataset":
    """LAST-K history join: attach to every right row the k most recent
    left VALUES before its time (strictly before by default), same key —
    the "last 3 transactions" feature-history shape that a plain as-of
    join (k=1) cannot express and a window cannot either (the k values
    come from a DIFFERENT, filtered table).

    Same physical plan as :func:`asof_join` (ONE key hash shuffle, both
    sides tagged + unioned, global searchsorted on the adjusted axis),
    but the payload is a single NON-NULL int64 ``value_col``, so the k
    gathers are plain vectorized index arithmetic: candidate j is simply
    ``idx - j`` clamped to the left key segment's first row — the k-step
    backward walk costs k fancy-index ops, no loops over rows.

    Ties on equal left time resolve to the highest ``tiebreak`` first
    (newest-first order), mirroring a SQL ``ORDER BY t DESC, tiebreak
    DESC LIMIT k`` lateral.

    Output: right key/on/payload columns + ``{out_prefix}1..k`` (int64,
    nulls past the available history, newest first) + ``n_{out_prefix}``
    (matched count <= k).  Rows with NULL key/time are dropped on both
    sides, and left rows with a NULL ``value_col`` are dropped too —
    callers' oracles must mirror that rule explicitly (``AND value IS
    NOT NULL`` on the left side), since a null left value would
    otherwise corrupt the int64 gather."""
    right_key = right_key or left_key
    right_on = right_on or left_on
    l_schema = left.schema()
    r_schema = right.schema()
    l_fields = {n: t for n, t in zip(l_schema.names, l_schema.types)}
    r_fields = {n: t for n, t in zip(r_schema.names, r_schema.types)}
    key_type = l_fields[left_key]
    on_type = l_fields[left_on]
    tb_type = l_fields[tiebreak] if tiebreak else pa.int64()
    r_payload = [n for n in r_schema.names if n not in (right_key, right_on)]
    temporal = pa.types.is_temporal(on_type)
    side_of = "right" if allow_exact_matches else "left"

    def _prep(batch: pa.Table, side: int, key: str, on: str) -> pa.Table:
        ok = pc.and_(pc.is_valid(batch[key]), pc.is_valid(batch[on]))
        if side == 0:
            # a NULL left value would round-trip the whole column through
            # float64-with-NaN in the merge gather (NaN -> INT64_MIN
            # garbage emitted as a real lastK value); drop such rows like
            # null keys (SQL null-never-joins discipline)
            ok = pc.and_(ok, pc.is_valid(batch[value_col]))
        if pc.any(pc.invert(ok)).as_py():
            batch = batch.filter(ok)
        n = batch.num_rows
        cols = {
            "__k": batch[key].cast(key_type),
            "__t": batch[on].cast(on_type),
            "__v": batch[value_col].cast(pa.int64()) if side == 0 else pa.nulls(n, pa.int64()),
            "__tb": (
                batch[tiebreak].cast(tb_type)
                if side == 0 and tiebreak
                else pa.nulls(n, tb_type)
            ),
        }
        for p in r_payload:
            cols[p] = batch[p] if side == 1 else pa.nulls(n, r_fields[p])
        cols[SIDE_COL] = pa.array(np.full(n, side, dtype=np.int8))
        return pa.table(cols)

    lds = left.map_batches(
        lambda b: _prep(b, 0, left_key, left_on), batch_format="pyarrow"
    )
    rds = right.map_batches(
        lambda b: _prep(b, 1, right_key, right_on), batch_format="pyarrow"
    )

    def _merge(table: pa.Table) -> pa.Table:
        lt = table.filter(pc.equal(table[SIDE_COL], 0))
        rt = table.filter(pc.equal(table[SIDE_COL], 1))
        sort_keys = [("__k", "ascending"), ("__t", "ascending")]
        if tiebreak:
            sort_keys.append(("__tb", "ascending"))
        lt = lt.take(pc.sort_indices(lt, sort_keys=sort_keys))
        k_l = lt["__k"].to_numpy(zero_copy_only=False)
        k_r = rt["__k"].to_numpy(zero_copy_only=False)
        t_l = _t_int64(lt["__t"], temporal)
        t_r = _t_int64(rt["__t"], temporal)
        nl, nr = len(k_l), len(k_r)
        vals = lt["__v"].combine_chunks().to_numpy(zero_copy_only=False)
        out_cols: dict = {right_key: rt["__k"], right_on: rt["__t"]}
        for n in r_payload:
            out_cols[n] = rt[n]
        if nl == 0 or nr == 0:
            for j in range(1, k + 1):
                out_cols[f"{out_prefix}{j}"] = pa.nulls(nr, pa.int64())
            out_cols[f"n_{out_prefix}"] = pa.array(
                np.zeros(nr, dtype=np.int64), pa.int64()
            )
            return pa.table(out_cols)
        adj_l, adj_r, c_l, c_r = _adjusted_pair(k_l, k_r, t_l, t_r, 0, "asof_lastk_join")
        # first left row index of each left row's key segment
        br = np.flatnonzero(np.concatenate([[True], c_l[1:] != c_l[:-1]]))
        seg0 = np.repeat(br, np.diff(np.append(br, nl)))
        idx = np.searchsorted(adj_l, adj_r, side=side_of) - 1
        cl = np.clip(idx, 0, nl - 1)
        matched = (idx >= 0) & (c_l[cl] == c_r)
        first = seg0[cl]
        n_hist = np.where(matched, np.minimum(idx - first + 1, k), 0).astype(np.int64)
        for j in range(1, k + 1):
            cand = idx - (j - 1)
            ok_j = matched & (cand >= first)
            out_cols[f"{out_prefix}{j}"] = pa.array(
                vals[np.clip(cand, 0, nl - 1)].astype(np.int64), pa.int64(), mask=~ok_j
            )
        out_cols[f"n_{out_prefix}"] = pa.array(n_hist, pa.int64())
        return pa.table(out_cols)

    return map_partitions_by_key(lds.union(rds), "__k", _merge)
