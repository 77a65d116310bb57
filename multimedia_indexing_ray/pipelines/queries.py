"""Query registry: one entry per implemented operator/pipeline
(SURVEY.md §2), each with an equivalent DuckDB oracle SQL where the
semantics are SQL-expressible.

Determinism rules so the driver's row-count + schema + value-hash compare
is bit-exact:

- integer outputs are int64; money/value sums use integer cents via
  ``floor(x*100 + 0.5)`` computed identically in numpy and SQL (avoids
  order-dependent float summation AND the np.round-half-even vs SQL
  ROUND-half-away mismatch);
- float outputs are either raw passthroughs or single divisions performed
  in the same order on both sides;
- every ordering has a total tie rule.

Ray is NEVER initialised here — the driver owns the session.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data
from ray.data.aggregate import Count, Sum

from multimedia_indexing_ray.functions import grams
from multimedia_indexing_ray.functions import segments as sg
from multimedia_indexing_ray.functions import text as tx
from multimedia_indexing_ray.functions.text import langid
from multimedia_indexing_ray.sources.transcripts import events_to_transcripts
from multimedia_indexing_ray.specs import DEFAULT_SPECS, FeatureSpecs
from multimedia_indexing_ray.stages import dedup as dd
from multimedia_indexing_ray.stages import keyed as kd
from multimedia_indexing_ray.stages import knn as nn
from multimedia_indexing_ray.stages.asof_join import asof_join
from multimedia_indexing_ray.stages.features import compute_features
from multimedia_indexing_ray.stages.join import broadcast_join, hash_join


@dataclass(frozen=True)
class Query:
    fn: Callable[[str], Any]
    sql: Optional[str]  # None => driver records a weaker rows-only check


# exchange-vs-coalesce rule for anchor-blocked Jaccard: below this many
# docs the keyed exchange's fixed cost (~1-1.5s at 32 cpus) dwarfs the
# kernel, so the identical kernel runs once in-process; the gate uses a
# METADATA-ONLY parquet row count, so at scale nothing materializes
_COALESCE_DOCS = int(os.environ.get("GRAFT_COALESCE_DOCS", "100000"))

REGISTRY: "Dict[str, Query]" = {}


def register(name: str, sql: Optional[str] = None):
    def deco(fn):
        REGISTRY[name] = Query(fn, sql)
        return fn

    return deco


def _rp(sf_dir: str, table: str, columns=None) -> "ray.data.Dataset":
    path = os.path.join(sf_dir, f"{table}.parquet")
    import pyarrow.parquet as papq

    # the testdata files carry pandas schema metadata (an unhashable
    # dict); reading with a metadata-free schema keeps Ray's block-schema
    # dedup working from the very first operator
    sch = papq.read_schema(path)
    if sch.metadata:
        sch = sch.remove_metadata()
        if columns is not None:
            # schema= must be the PROJECTED schema in requested order
            sch = pa.schema([sch.field(c) for c in columns])
        return ray.data.read_parquet(path, schema=sch, columns=columns)
    return ray.data.read_parquet(path, columns=columns)


def _pq(sf_dir: str, table: str, columns=None) -> pa.Table:
    import pyarrow.parquet as pq

    return pq.read_table(os.path.join(sf_dir, f"{table}.parquet"), columns=columns)


def _cents(arr: np.ndarray) -> np.ndarray:
    """floor(x*100 + 0.5) — deterministic double->cents, same as the SQL."""
    return np.floor(arr * 100.0 + 0.5)


def _add_value_cents(batch: pa.Table) -> pa.Table:
    v = batch["value"].to_numpy(zero_copy_only=False)
    return batch.append_column("value_cents", pa.array(_cents(v), pa.float64()))


def _add_value_cents_i64(batch: pa.Table) -> pa.Table:
    """value -> exact int64 cents column (the integer-parity input for
    the resample / last-k / between-markers kernels)."""
    v = batch["value"].to_numpy(zero_copy_only=False)
    return batch.append_column(
        "value_cents", pa.array(_cents(v).astype(np.int64), pa.int64())
    )


_CENTS_SQL = "CAST(FLOOR({col}*100+0.5) AS BIGINT)"


def _pa_group_sum(table: pa.Table, keys: "list[str]", sum_cols: "list[str]") -> pa.Table:
    """Per-batch combiner: Arrow-native grouped sum (no pandas round-trip
    — `pa.TableGroupBy` keeps the batch zero-copy)."""
    g = pa.TableGroupBy(table, keys).aggregate([(c, "sum") for c in sum_cols])
    cols = {k: g[k] for k in keys}
    for c in sum_cols:
        cols[c] = g[f"{c}_sum"]
    return pa.table(cols)


def _tiny_group_sum(
    ds: "ray.data.Dataset", keys: "list[str]", sum_cols: "list[str]"
) -> "ray.data.Dataset":
    """Grouped sum for a LOW-cardinality key (O(100s) of groups, e.g.
    return-flag or event-type rollups): per-batch Arrow combiner, then
    coalesce the <=|groups|-row partials into one block and sum in-block.
    Skips the sort-based groupby exchange entirely — at 32 cpus/sf0.1
    that all-to-all costs ~1-2s of pure fixed overhead for a handful of
    result rows (A/B in region_revenue: 3.8s -> 2.4s).  NOT for
    high-cardinality keys: the gathered partials are |groups| x n_blocks
    rows and must fit one block."""

    def _partial(batch: pa.Table) -> pa.Table:
        return _pa_group_sum(batch.select([*keys, *sum_cols]), keys, sum_cols)

    def _final(batch: pa.Table) -> pa.Table:
        return _pa_group_sum(batch, keys, sum_cols)

    return (
        ds.map_batches(_partial, batch_format="pyarrow")
        .repartition(1)
        .map_batches(_final, batch_format="pyarrow", batch_size=None)
    )


# --------------------------------------------------------------------------
# keyed temporal operators over `events` (key = user_id; the conversation-
# key analog; ordering tie rule = (ts, event_id) everywhere)
# --------------------------------------------------------------------------


@register(
    "turn_features",
    """
    SELECT event_id, user_id,
      CAST(COALESCE(date_diff('microsecond', lag(ts) OVER w, ts), 0) AS BIGINT) AS gap_us,
      CAST(row_number() OVER w - 1 AS BIGINT) AS rn
    FROM events WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
    """,
)
def q_turn_features(sf_dir: str):
    ev = _rp(sf_dir, "events", ["event_id", "user_id", "ts"])
    return kd.keyed_turn_features(
        ev, "user_id", "ts", tiebreak="event_id", id_cols=["event_id"]
    )


@register(
    "sessionize_30m",
    """
    SELECT event_id, user_id,
      CAST(SUM(CASE WHEN gap_us > 1800000000 THEN 1 ELSE 0 END)
           OVER (PARTITION BY user_id ORDER BY ts, event_id) AS BIGINT) AS session_id
    FROM (SELECT *, COALESCE(date_diff('microsecond',
            lag(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id), ts), 0) AS gap_us
          FROM events)
    """,
)
def q_sessionize(sf_dir: str):
    ev = _rp(sf_dir, "events", ["event_id", "user_id", "ts"])
    return kd.keyed_sessionize(
        ev, "user_id", "ts", gap_s=1800.0, tiebreak="event_id", id_cols=["event_id"]
    )


@register(
    "lag_lead_value",
    """
    SELECT event_id, user_id,
      COALESCE(lag(value, 1) OVER w, 0.0) AS lag1_value,
      COALESCE(lag(value, 2) OVER w, 0.0) AS lag2_value,
      COALESCE(lead(value, 1) OVER w, 0.0) AS lead1_value
    FROM events WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
    """,
)
def q_lag_lead(sf_dir: str):
    ev = _rp(sf_dir, "events", ["event_id", "user_id", "ts", "value"])
    return kd.keyed_lag_lead(
        ev,
        "user_id",
        "ts",
        "value",
        lags=(1, 2),
        leads=(1,),
        fill=0.0,
        tiebreak="event_id",
        id_cols=["event_id"],
    )


@register(
    "backfill_purchase",
    """
    SELECT event_id, user_id,
      COALESCE(last_value(CASE WHEN event_type='purchase' THEN value END IGNORE NULLS)
        OVER (PARTITION BY user_id ORDER BY ts, event_id
              ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW), 0.0) AS last_purchase_value
    FROM events
    """,
)
def q_backfill(sf_dir: str):
    ev = _rp(sf_dir, "events", ["event_id", "user_id", "ts", "value", "event_type"])
    return kd.keyed_backfill(
        ev,
        "user_id",
        "ts",
        "value",
        where_col="event_type",
        where_value="purchase",
        out_col="last_purchase_value",
        fill=0.0,
        tiebreak="event_id",
        id_cols=["event_id"],
    )


@register(
    "session_stats_30m",
    f"""
    SELECT user_id, session_id,
      CAST(count(*) AS BIGINT) AS n_events,
      CAST(date_diff('microsecond', min(ts), max(ts)) AS BIGINT) AS duration_us,
      CAST(SUM({_CENTS_SQL.format(col='value')}) AS BIGINT) AS sum_value_cents
    FROM (SELECT *, CAST(SUM(CASE WHEN gap_us > 1800000000 THEN 1 ELSE 0 END)
             OVER (PARTITION BY user_id ORDER BY ts, event_id) AS BIGINT) AS session_id
          FROM (SELECT *, COALESCE(date_diff('microsecond',
                  lag(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id), ts), 0) AS gap_us
                FROM events))
    GROUP BY 1, 2
    """,
)
def q_session_stats(sf_dir: str):
    ev = _rp(sf_dir, "events", ["event_id", "user_id", "ts", "value"]).map_batches(
        _add_value_cents, batch_format="pyarrow"
    )
    out = kd.keyed_session_stats(
        ev, "user_id", "ts", "value_cents", gap_s=1800.0, tiebreak="event_id"
    )

    def _finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": batch["user_id"],
                "session_id": batch["session_id"],
                "n_events": batch["n_events"],
                "duration_us": batch["duration_us"],
                "sum_value_cents": batch["sum_value_cents"].cast(pa.int64()),
            }
        )

    return out.map_batches(_finish, batch_format="pyarrow")


@register(
    "sliding_1h",
    f"""
    SELECT event_id, user_id,
      CAST(count(*) OVER w AS BIGINT) AS cnt_1h,
      CAST(SUM({_CENTS_SQL.format(col='value')}) OVER w AS BIGINT) AS sum_value_cents_1h
    FROM events
    WINDOW w AS (PARTITION BY user_id ORDER BY ts
                 RANGE BETWEEN INTERVAL 1 HOUR PRECEDING AND CURRENT ROW)
    """,
)
def q_sliding(sf_dir: str):
    ev = _rp(sf_dir, "events", ["event_id", "user_id", "ts", "value"]).map_batches(
        _add_value_cents, batch_format="pyarrow"
    )
    out = kd.keyed_sliding(
        ev,
        "user_id",
        "ts",
        "value_cents",
        width_s=3600.0,
        closed="both",
        tiebreak="event_id",
        id_cols=["event_id"],
    )

    def _finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_id": batch["event_id"],
                "user_id": batch["user_id"],
                "cnt_1h": batch["cnt_value_cents"],
                "sum_value_cents_1h": pa.array(
                    batch["sum_value_cents"].to_numpy().astype(np.int64), pa.int64()
                ),
            }
        )

    return out.map_batches(_finish, batch_format="pyarrow")


@register(
    "tumbling_1h",
    f"""
    SELECT user_id, date_trunc('hour', ts) AS window_start,
      CAST(count(*) AS BIGINT) AS n_events,
      CAST(SUM({_CENTS_SQL.format(col='value')}) AS BIGINT) AS sum_value_cents
    FROM events GROUP BY 1, 2
    """,
)
def q_tumbling(sf_dir: str):
    ev = _rp(sf_dir, "events", ["user_id", "ts", "value"]).map_batches(
        _add_value_cents, batch_format="pyarrow"
    )
    out = kd.keyed_tumbling_agg(ev, "user_id", "ts", "value_cents", width_s=3600.0)

    def _finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": batch["user_id"],
                "window_start": batch["window_start"],
                "n_events": batch["n_events"],
                "sum_value_cents": pa.array(
                    batch["sum_value_cents"].to_numpy().astype(np.int64), pa.int64()
                ),
            }
        )

    return out.map_batches(_finish, batch_format="pyarrow")


@register(
    "asof_purchase_before_error",
    """
    SELECT e.event_id, e.user_id, p.value AS asof_value, p.event_id AS asof_event_id
    FROM events e LEFT JOIN LATERAL (
      SELECT value, event_id FROM events p
      WHERE p.user_id = e.user_id AND p.event_type = 'purchase' AND p.ts <= e.ts
      ORDER BY p.ts DESC, p.event_id DESC LIMIT 1) p ON true
    WHERE e.event_type = 'error'
    """,
)
def q_asof(sf_dir: str):
    ev = _rp(sf_dir, "events", ["event_id", "user_id", "ts", "value", "event_type"])
    purchases = ev.filter(expr="event_type == 'purchase'").drop_columns(["event_type"])
    errors = ev.filter(expr="event_type == 'error'").drop_columns(
        ["event_type", "value"]
    )
    joined = asof_join(
        purchases,
        errors,
        left_key="user_id",
        left_on="ts",
        tiebreak="event_id",
        matched_prefix="asof_",
        num_partitions=32,
    )
    return joined.select_columns(["event_id", "user_id", "asof_value", "asof_event_id"])


@register(
    "asof_purchase_before_error_1h",
    """
    SELECT e.event_id, e.user_id, p.value AS asof_value, p.event_id AS asof_event_id
    FROM events e LEFT JOIN LATERAL (
      SELECT value, event_id FROM events p
      WHERE p.user_id = e.user_id AND p.event_type = 'purchase'
        AND p.ts <= e.ts AND p.ts >= e.ts - INTERVAL 1 HOUR
      ORDER BY p.ts DESC, p.event_id DESC LIMIT 1) p ON true
    WHERE e.event_type = 'error'
    """,
)
def q_asof_tolerance(sf_dir: str):
    """Tolerance-bounded as-of join (pandas ``merge_asof(tolerance=...)``
    semantics): the nearest preceding purchase counts only if it is
    within 1 hour of the error, else the row stays unmatched (typed
    nulls).  The bound is a vectorized post-filter on the already-
    selected candidate inside the same single-exchange merge kernel
    (`stages/asof_join.py`), so it costs no extra shuffle — the staleness
    cutoff every PIT feature-serving pipeline needs (don't serve a
    feature vector computed from data older than the freshness SLA)."""
    ev = _rp(sf_dir, "events", ["event_id", "user_id", "ts", "value", "event_type"])
    purchases = ev.filter(expr="event_type == 'purchase'").drop_columns(["event_type"])
    errors = ev.filter(expr="event_type == 'error'").drop_columns(
        ["event_type", "value"]
    )
    joined = asof_join(
        purchases,
        errors,
        left_key="user_id",
        left_on="ts",
        tiebreak="event_id",
        matched_prefix="asof_",
        num_partitions=32,
        tolerance_s=3600.0,
    )
    return joined.select_columns(["event_id", "user_id", "asof_value", "asof_event_id"])


@register(
    "asof_nearest_purchase",
    """
    SELECT e.event_id, e.user_id, p.value AS asof_value, p.event_id AS asof_event_id
    FROM events e LEFT JOIN LATERAL (
      SELECT value, event_id FROM events p
      WHERE p.user_id = e.user_id AND p.event_type = 'purchase'
      ORDER BY abs(epoch_us(p.ts) - epoch_us(e.ts)),
               (p.ts > e.ts),
               CASE WHEN p.ts > e.ts THEN p.event_id ELSE -p.event_id END
      LIMIT 1) p ON true
    WHERE e.event_type = 'error'
    """,
)
def q_asof_nearest(sf_dir: str):
    """Nearest-direction as-of join (pandas ``merge_asof
    (direction='nearest')`` parity), completing the direction triple:
    each error attaches the CLOSEST purchase in either direction,
    backward winning distance ties, each side keeping its own equal-ts
    tie rule (backward highest event_id, forward lowest — the oracle's
    ORDER BY states the identical total order).  Same single-exchange
    merge kernel: both direction cursors are two searchsorted calls on
    the already-sorted partition, so nearest costs the same one shuffle
    as backward (`stages/asof_join.py`)."""
    ev = _rp(sf_dir, "events", ["event_id", "user_id", "ts", "value", "event_type"])
    purchases = ev.filter(expr="event_type == 'purchase'").drop_columns(["event_type"])
    errors = ev.filter(expr="event_type == 'error'").drop_columns(
        ["event_type", "value"]
    )
    joined = asof_join(
        purchases,
        errors,
        left_key="user_id",
        left_on="ts",
        tiebreak="event_id",
        matched_prefix="asof_",
        num_partitions=32,
        direction="nearest",
    )
    return joined.select_columns(["event_id", "user_id", "asof_value", "asof_event_id"])


# --------------------------------------------------------------------------
# relational operators over the TPC-H-ish tables (groupby / join / top-k)
# --------------------------------------------------------------------------


@register(
    "pricing_summary",
    """
    SELECT l_returnflag, l_linestatus,
      CAST(SUM(CAST(l_quantity AS BIGINT)) AS BIGINT) AS sum_qty,
      CAST(SUM(CAST(FLOOR(l_extendedprice*100+0.5) AS BIGINT)) AS BIGINT) AS sum_base_price_cents,
      CAST(SUM(CAST(FLOOR(l_extendedprice*(1-l_discount)*100+0.5) AS BIGINT)) AS BIGINT) AS sum_disc_price_cents,
      CAST(count(*) AS BIGINT) AS count_order,
      CAST(SUM(CAST(l_quantity AS BIGINT)) AS DOUBLE) / count(*) AS avg_qty
    FROM lineitem WHERE l_shipdate <= TIMESTAMP '1998-09-02' GROUP BY 1, 2
    """,
)
def q_pricing_summary(sf_dir: str):
    li = _rp(
        sf_dir,
        "lineitem",
        ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount", "l_shipdate"],
    )

    def _partial(batch: pa.Table) -> pa.Table:
        m = pc.less_equal(batch["l_shipdate"], pa.scalar(np.datetime64("1998-09-02", "us")))
        t = batch.filter(m)
        qty = t["l_quantity"].to_numpy()
        price = t["l_extendedprice"].to_numpy()
        disc = t["l_discount"].to_numpy()
        t2 = pa.table(
            {
                "l_returnflag": t["l_returnflag"],
                "l_linestatus": t["l_linestatus"],
                "sum_qty": pa.array(qty.astype(np.int64)),
                "sum_base_price_cents": pa.array(_cents(price).astype(np.int64)),
                "sum_disc_price_cents": pa.array(_cents(price * (1 - disc)).astype(np.int64)),
                "count_order": pa.array(np.ones(t.num_rows, np.int64)),
            }
        )
        return _pa_group_sum(
            t2,
            ["l_returnflag", "l_linestatus"],
            ["sum_qty", "sum_base_price_cents", "sum_disc_price_cents", "count_order"],
        )

    partials = li.map_batches(_partial, batch_format="pyarrow")
    agg = _tiny_group_sum(
        partials,
        ["l_returnflag", "l_linestatus"],
        ["sum_qty", "sum_base_price_cents", "sum_disc_price_cents", "count_order"],
    )

    def _finish(batch: pa.Table) -> pa.Table:
        sq = batch["sum_qty"].to_numpy().astype(np.int64)
        n = batch["count_order"].to_numpy().astype(np.int64)
        return pa.table(
            {
                "l_returnflag": batch["l_returnflag"],
                "l_linestatus": batch["l_linestatus"],
                "sum_qty": pa.array(sq, pa.int64()),
                "sum_base_price_cents": batch["sum_base_price_cents"].cast(pa.int64()),
                "sum_disc_price_cents": batch["sum_disc_price_cents"].cast(pa.int64()),
                "count_order": pa.array(n, pa.int64()),
                "avg_qty": pa.array(sq.astype(np.float64) / n, pa.float64()),
            }
        )

    return agg.map_batches(_finish, batch_format="pyarrow")


@register(
    "top_customers",
    """
    SELECT c_custkey, c_name,
      CAST(SUM(CAST(FLOOR(o_totalprice*100+0.5) AS BIGINT)) AS BIGINT) AS total_spend_cents
    FROM orders JOIN customer ON o_custkey = c_custkey
    GROUP BY 1, 2 ORDER BY total_spend_cents DESC, c_custkey LIMIT 10
    """,
)
def q_top_customers(sf_dir: str):
    orders = _rp(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def _partial(batch: pa.Table) -> pa.Table:
        t2 = pa.table(
            {
                "o_custkey": batch["o_custkey"],
                "total_spend_cents": pa.array(
                    _cents(batch["o_totalprice"].to_numpy()).astype(np.int64)
                ),
            }
        )
        return _pa_group_sum(t2, ["o_custkey"], ["total_spend_cents"])

    agg = (
        orders.map_batches(_partial, batch_format="pyarrow")
        .groupby("o_custkey")
        .aggregate(Sum("total_spend_cents", alias_name="total_spend_cents"))
    )

    # inner-join the name dimension via the big x big bucketed hash join
    # (no full-dimension broadcast — customer is a fact-sized table at
    # scale, and the oracle's INNER JOIN must drop nameless custkeys
    # BEFORE the limit), then per-block partial top-10 -> one tiny merge
    # instead of a global sort (K7 pattern)
    cust = _rp(sf_dir, "customer", ["c_custkey", "c_name"])
    named = hash_join(agg, cust, left_on="o_custkey", right_on="c_custkey", num_partitions=16)

    def _partial_top(batch: pa.Table) -> pa.Table:
        idx = pc.sort_indices(
            batch,
            sort_keys=[("total_spend_cents", "descending"), ("o_custkey", "ascending")],
        )
        return batch.take(idx.slice(0, 10))

    def _finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "c_custkey": batch["o_custkey"].cast(pa.int64()),
                "c_name": batch["c_name"],
                "total_spend_cents": batch["total_spend_cents"].cast(pa.int64()),
            }
        )

    return (
        named.map_batches(_partial_top, batch_format="pyarrow")
        .repartition(1)
        .map_batches(_partial_top, batch_format="pyarrow", batch_size=None)
        .map_batches(_finish, batch_format="pyarrow")
    )


@register(
    "region_revenue",
    """
    SELECT r_name,
      CAST(SUM(CAST(FLOOR(l_extendedprice*(1-l_discount)*100+0.5) AS BIGINT)) AS BIGINT) AS revenue_cents
    FROM lineitem
      JOIN orders ON l_orderkey = o_orderkey
      JOIN customer ON o_custkey = c_custkey
      JOIN nation ON c_nationkey = n_nationkey
      JOIN region ON n_regionkey = r_regionkey
    GROUP BY 1
    """,
)
def q_region_revenue(sf_dir: str):
    li = _rp(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount"])
    orders = _rp(sf_dir, "orders", ["o_orderkey", "o_custkey"])

    # combiner BEFORE the exchange: collapse lineitem to one partial
    # revenue row per orderkey per batch (4-7x fewer shuffled rows)
    def _pre_agg(batch: pa.Table) -> pa.Table:
        price = batch["l_extendedprice"].to_numpy()
        disc = batch["l_discount"].to_numpy()
        t2 = pa.table(
            {
                "l_orderkey": batch["l_orderkey"],
                "revenue_cents": pa.array(_cents(price * (1 - disc)).astype(np.int64)),
            }
        )
        return _pa_group_sum(t2, ["l_orderkey"], ["revenue_cents"])

    cust = _pq(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    nation = _pq(sf_dir, "nation", ["n_nationkey", "n_regionkey"])
    region = _pq(sf_dir, "region", ["r_regionkey", "r_name"])
    dim = cust.join(nation, keys="c_nationkey", right_keys="n_nationkey").join(
        region, keys="n_regionkey", right_keys="r_regionkey"
    )
    dim = dim.select(["c_custkey", "r_name"])

    # below ~10M orders (METADATA count) the orderkey -> region map fits a
    # broadcast, so the whole query is ONE streaming fold over lineitem
    # with a per-batch |regions|-row partial — zero exchanges; at scale
    # the bucketed hash-join plan below is unchanged
    if orders.count() <= _broadcast_row_cap():
        import ray as _ray

        ot = _pq(sf_dir, "orders", ["o_orderkey", "o_custkey"])
        ck = dim["c_custkey"].to_numpy()
        rnames = np.asarray(dim["r_name"]).astype(object)
        co = np.argsort(ck, kind="stable")
        ck_s = ck[co]
        uniq_regions, rid_of_cust = (
            np.unique(rnames[co], return_inverse=True)
            if len(co)
            else (np.array([], dtype=object), np.array([], dtype=np.int64))
        )
        oc = ot["o_custkey"].to_numpy()
        ci = np.searchsorted(ck_s, oc)
        ci = np.clip(ci, 0, max(len(ck_s) - 1, 0))
        # inner-join semantics: drop orders whose custkey has no customer
        # row (same as the SQL and the at-scale broadcast_join path)
        cmatch = (len(ck_s) > 0) & (ck_s[ci] == oc) if len(ck_s) else np.zeros(len(oc), bool)
        rid_of_order = rid_of_cust[ci[cmatch]]
        ok = ot["o_orderkey"].to_numpy()[cmatch]
        oo = np.argsort(ok, kind="stable")
        bref = _ray.put((ok[oo], rid_of_order[oo], uniq_regions))

        def _fold(batch: pa.Table) -> pa.Table:
            okeys, rid, regions = _ray.get(bref)
            price = batch["l_extendedprice"].to_numpy()
            disc = batch["l_discount"].to_numpy()
            cents = _cents(price * (1 - disc)).astype(np.int64)
            lo = batch["l_orderkey"].to_numpy()
            idx = np.searchsorted(okeys, lo)
            idx = np.clip(idx, 0, max(len(okeys) - 1, 0))
            m = len(okeys) > 0
            hit = okeys[idx] == lo if m else np.zeros(len(lo), dtype=bool)
            hits = np.bincount(rid[idx[hit]], minlength=len(regions))
            # int64 scatter-add: float64-weighted bincount silently rounds
            # above 2^53 (see stages/scan.py), and this path's contract is
            # bit-exact oracle parity
            sums = np.zeros(len(regions), dtype=np.int64)
            np.add.at(sums, rid[idx[hit]], cents[hit])
            # keep zero-SUM regions that had matched rows (SQL's GROUP BY
            # emits (r_name, 0)); only regions with no match at all drop
            nz = np.flatnonzero(hits)
            return pa.table(
                {
                    "r_name": pa.array(regions[nz], pa.string()),
                    "revenue_cents": pa.array(sums[nz], pa.int64()),
                }
            )

        return _tiny_group_sum(
            li.map_batches(_fold, batch_format="pyarrow"),
            ["r_name"], ["revenue_cents"],
        )

    li_partial = li.map_batches(_pre_agg, batch_format="pyarrow")
    # big x big: bucketed hash join on the pre-aggregated left side
    li_ord = hash_join(li_partial, orders, left_on="l_orderkey", right_on="o_orderkey", num_partitions=32)
    joined = broadcast_join(li_ord, dim, keys="o_custkey", right_keys="c_custkey")

    return _tiny_group_sum(joined, ["r_name"], ["revenue_cents"])


@register(
    "supplier_nation_revenue",
    """
    SELECT n_name,
      CAST(SUM(CAST(FLOOR(l_extendedprice*(1-l_discount)*100+0.5) AS BIGINT)) AS BIGINT) AS revenue_cents,
      CAST(count(*) AS BIGINT) AS n_lineitems
    FROM lineitem JOIN supplier ON l_suppkey = s_suppkey
      JOIN nation ON s_nationkey = n_nationkey
    GROUP BY n_name
    """,
)
def q_supplier_nation_revenue(sf_dir: str):
    """Supply-side revenue rollup: the supplier->nation dim chain joins
    driver-side (both tiny), ships once as a sorted int->name lookup,
    and the fact table folds to |nations| partial rows per batch."""
    li = _rp(sf_dir, "lineitem", ["l_suppkey", "l_extendedprice", "l_discount"])
    supp = _pq(sf_dir, "supplier", ["s_suppkey", "s_nationkey"])
    nation = _pq(sf_dir, "nation", ["n_nationkey", "n_name"])
    dim = supp.join(nation, keys="s_nationkey", right_keys="n_nationkey")
    sk = dim["s_suppkey"].to_numpy()
    names = np.asarray(dim["n_name"]).astype(object)
    order = np.argsort(sk)
    sk, names = sk[order], names[order]

    def _fn(batch: pa.Table) -> pa.Table:
        cents = _cents(
            batch["l_extendedprice"].to_numpy() * (1 - batch["l_discount"].to_numpy())
        ).astype(np.int64)
        keys = batch["l_suppkey"].to_numpy()
        idx = np.searchsorted(sk, keys)
        # inner-join semantics: a key absent from the dim drops the row
        # (and never indexes past the end) instead of silently
        # misattributing to the insertion-point neighbor
        ok = (idx < len(sk)) & (sk[np.minimum(idx, len(sk) - 1)] == keys)
        idx, cents = idx[ok], cents[ok]
        t2 = pa.table(
            {
                "n_name": pa.array(names[idx], pa.string()),
                "revenue_cents": pa.array(cents, pa.int64()),
                "n_lineitems": pa.array(np.ones(len(cents), np.int64), pa.int64()),
            }
        )
        return _pa_group_sum(t2, ["n_name"], ["revenue_cents", "n_lineitems"])

    return _tiny_group_sum(
        li.map_batches(_fn, batch_format="pyarrow"),
        ["n_name"],
        ["revenue_cents", "n_lineitems"],
    )


@register(
    "nation_revenue_share",
    """
    WITH nr AS (
      SELECT r_name, n_name,
        CAST(SUM(CAST(FLOOR(l_extendedprice*(1-l_discount)*100+0.5) AS BIGINT)) AS BIGINT) AS revenue_cents
      FROM lineitem
        JOIN orders ON l_orderkey = o_orderkey
        JOIN customer ON o_custkey = c_custkey
        JOIN nation ON c_nationkey = n_nationkey
        JOIN region ON n_regionkey = r_regionkey
      GROUP BY 1, 2)
    SELECT r_name, n_name, revenue_cents,
      CAST(SUM(revenue_cents) OVER (PARTITION BY r_name) AS BIGINT) AS region_cents,
      CAST(revenue_cents AS DOUBLE)
        / CAST(SUM(revenue_cents) OVER (PARTITION BY r_name) AS DOUBLE) AS share
    FROM nr
    """,
)
def q_nation_revenue_share(sf_dir: str):
    """RATIO-TO-PARENT (contribution analysis): each nation's share of
    its REGION's revenue — the ``x / SUM(x) OVER (PARTITION BY parent)``
    window family (Oracle's RATIO_TO_REPORT), the one windowed-ratio
    class not covered by rank/percent-rank/ntile.  Fact side is the
    proven region_revenue plan (per-orderkey combiner -> bucketed hash
    join -> broadcast dim chain) with the key widened to (r_name,
    n_name); the share division happens on the AGGREGATE-sized result
    (<= |nations| rows) in one block — integer cents everywhere, one
    double division per row, same operand order as the SQL."""
    li = _rp(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount"])
    orders = _rp(sf_dir, "orders", ["o_orderkey", "o_custkey"])

    def _pre_agg(batch: pa.Table) -> pa.Table:
        price = batch["l_extendedprice"].to_numpy()
        disc = batch["l_discount"].to_numpy()
        t2 = pa.table(
            {
                "l_orderkey": batch["l_orderkey"],
                "revenue_cents": pa.array(_cents(price * (1 - disc)).astype(np.int64)),
            }
        )
        return _pa_group_sum(t2, ["l_orderkey"], ["revenue_cents"])

    cust = _pq(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    nation = _pq(sf_dir, "nation", ["n_nationkey", "n_name", "n_regionkey"])
    region = _pq(sf_dir, "region", ["r_regionkey", "r_name"])
    dim = cust.join(nation, keys="c_nationkey", right_keys="n_nationkey").join(
        region, keys="n_regionkey", right_keys="r_regionkey"
    )
    dim = dim.select(["c_custkey", "r_name", "n_name"])

    # same gate as region_revenue: below the broadcast cap the orderkey ->
    # (region, nation) map ships once and the whole fact side is ONE
    # zero-exchange streaming fold to <= |nations| partials per batch
    if orders.count() <= _broadcast_row_cap():
        import ray as _ray

        ot = _pq(sf_dir, "orders", ["o_orderkey", "o_custkey"])
        ck = dim["c_custkey"].to_numpy()
        rnames = np.asarray(dim["r_name"]).astype(object)
        nnames = np.asarray(dim["n_name"]).astype(object)
        co = np.argsort(ck, kind="stable")
        ck_s = ck[co]
        # numpy-native (r, n) -> label id: per-column codes, then one
        # combined int code — no per-customer Python string work
        if len(co):
            r_uniq, r_code = np.unique(rnames[co], return_inverse=True)
            n_uniq, n_code = np.unique(nnames[co], return_inverse=True)
            base = len(n_uniq)
            uniq_combo, lid_of_cust = np.unique(
                r_code.astype(np.int64) * base + n_code, return_inverse=True
            )
            u_r = r_uniq[uniq_combo // base]
            u_n = n_uniq[uniq_combo % base]
        else:
            lid_of_cust = np.array([], dtype=np.int64)
            u_r = np.array([], dtype=object)
            u_n = np.array([], dtype=object)
        oc = ot["o_custkey"].to_numpy()
        ci = np.searchsorted(ck_s, oc)
        ci = np.clip(ci, 0, max(len(ck_s) - 1, 0))
        cmatch = (
            (len(ck_s) > 0) & (ck_s[ci] == oc)
            if len(ck_s)
            else np.zeros(len(oc), bool)
        )
        lid_of_order = lid_of_cust[ci[cmatch]]
        ok = ot["o_orderkey"].to_numpy()[cmatch]
        oo = np.argsort(ok, kind="stable")
        bref = _ray.put((ok[oo], lid_of_order[oo], u_r, u_n))

        def _fold(batch: pa.Table) -> pa.Table:
            okeys, lid, urr, unn = _ray.get(bref)
            price = batch["l_extendedprice"].to_numpy()
            disc = batch["l_discount"].to_numpy()
            cents = _cents(price * (1 - disc)).astype(np.int64)
            lo = batch["l_orderkey"].to_numpy()
            idx = np.searchsorted(okeys, lo)
            idx = np.clip(idx, 0, max(len(okeys) - 1, 0))
            hit = okeys[idx] == lo if len(okeys) else np.zeros(len(lo), bool)
            hits = np.bincount(lid[idx[hit]], minlength=len(urr))
            sums = np.zeros(len(urr), dtype=np.int64)
            np.add.at(sums, lid[idx[hit]], cents[hit])
            nz = np.flatnonzero(hits)
            return pa.table(
                {
                    "r_name": pa.array(urr[nz], pa.string()),
                    "n_name": pa.array(unn[nz], pa.string()),
                    "revenue_cents": pa.array(sums[nz], pa.int64()),
                }
            )

        agg = _tiny_group_sum(
            li.map_batches(_fold, batch_format="pyarrow"),
            ["r_name", "n_name"], ["revenue_cents"],
        )
    else:
        li_partial = li.map_batches(_pre_agg, batch_format="pyarrow")
        li_ord = hash_join(
            li_partial, orders, left_on="l_orderkey", right_on="o_orderkey", num_partitions=32
        )
        joined = broadcast_join(li_ord, dim, keys="o_custkey", right_keys="c_custkey")
        agg = _tiny_group_sum(joined, ["r_name", "n_name"], ["revenue_cents"])

    def _share(batch: pa.Table) -> pa.Table:
        # one block of <= |nations| rows: compute the parent totals with a
        # segmented sum and divide — the only float op in the query
        if batch.num_rows == 0:
            return pa.table(
                {
                    "r_name": pa.array([], pa.string()),
                    "n_name": pa.array([], pa.string()),
                    "revenue_cents": pa.array([], pa.int64()),
                    "region_cents": pa.array([], pa.int64()),
                    "share": pa.array([], pa.float64()),
                }
            )
        idx = pc.sort_indices(
            batch, sort_keys=[("r_name", "ascending"), ("n_name", "ascending")]
        )
        t = batch.take(idx)
        r = t["r_name"].to_numpy(zero_copy_only=False)
        cents = t["revenue_cents"].to_numpy()
        starts = np.flatnonzero(np.concatenate([[True], r[1:] != r[:-1]]))
        counts = np.diff(np.concatenate([starts, [len(r)]]))
        totals = np.repeat(np.add.reduceat(cents, starts), counts)
        return pa.table(
            {
                "r_name": t["r_name"],
                "n_name": t["n_name"],
                "revenue_cents": t["revenue_cents"],
                "region_cents": pa.array(totals, pa.int64()),
                "share": pa.array(cents.astype(np.float64) / totals.astype(np.float64)),
            }
        )

    return agg.map_batches(_share, batch_format="pyarrow", batch_size=None)


@register(
    "basket_part_pairs",
    """
    WITH b AS (SELECT DISTINCT l_orderkey, l_partkey FROM lineitem),
    n AS (SELECT CAST(COUNT(DISTINCT l_orderkey) AS BIGINT) AS n_orders FROM b),
    pc AS (SELECT l_partkey, CAST(COUNT(*) AS BIGINT) AS n_part FROM b GROUP BY 1),
    pp AS (SELECT a.l_partkey AS p_a, b2.l_partkey AS p_b,
                  CAST(COUNT(*) AS BIGINT) AS n_both
           FROM b a JOIN b b2
             ON a.l_orderkey = b2.l_orderkey AND a.l_partkey < b2.l_partkey
           GROUP BY 1, 2)
    SELECT p_a, p_b, n_both, ca.n_part AS n_a, cb.n_part AS n_b,
      CAST(n_both AS DOUBLE) * n.n_orders
        / (CAST(ca.n_part AS DOUBLE) * cb.n_part) AS lift,
      CAST(n_both AS DOUBLE) / ca.n_part AS confidence
    FROM pp
      JOIN pc ca ON pp.p_a = ca.l_partkey
      JOIN pc cb ON pp.p_b = cb.l_partkey
      CROSS JOIN n
    WHERE n_both >= 2
    """,
)
def q_basket_part_pairs(sf_dir: str):
    """Market-basket ASSOCIATION RULES (Agrawal et al. 1993's A-priori
    support counting, pair level): parts co-ordered in the same order,
    with support (n_both), per-part frequencies, lift and confidence —
    the co-occurrence family over TRANSACTIONS rather than text windows
    (`term_cooccurrence`'s retail sibling).

    Scale shape: ONE orderkey-keyed exchange of slim (orderkey, partkey)
    rows; the per-partition kernel dedups and pair-expands each basket
    with a shifted-compare loop over offsets 1..max_basket (vectorized —
    baskets are catalog-bounded small, never a Python loop per order),
    emitting pair rows PLUS per-part and order-count side rows with
    sentinel keys.  A second keyed exchange sums all three kinds by
    p_a.  Part frequencies and the order total are CATALOG-bounded
    (|parts|+1 rows), so they broadcast for the final lift map — never
    a third shuffle; pair support is pre-filtered (n_both >= 2) before
    the metric map."""
    li = _rp(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])
    return basket_pair_metrics(li, num_partitions=32)


def basket_pair_metrics(
    li: "ray.data.Dataset", num_partitions: int
) -> "ray.data.Dataset":
    """Pipeline body of `basket_part_pairs`, parameterized on partition
    count so partition invariance is directly testable."""
    import ray as _ray

    from multimedia_indexing_ray.stages.partition import map_partitions_by_key

    _ROWS_EMPTY = pa.table(
        {
            "p_a": pa.array([], pa.int64()),
            "p_b": pa.array([], pa.int64()),
            "n": pa.array([], pa.int64()),
        }
    )

    def _expand(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _ROWS_EMPTY
        o = t["l_orderkey"].to_numpy()
        p = t["l_partkey"].to_numpy()
        order = np.lexsort((p, o))
        o, p = o[order], p[order]
        # distinct (order, part)
        first = np.r_[True, (o[1:] != o[:-1]) | (p[1:] != p[:-1])]
        o, p = o[first], p[first]
        n = len(o)
        parts = []
        # pair rows: sorted within segment, so offset-d neighbors with the
        # same orderkey give p_a < p_b directly
        d = 1
        while True:
            if d >= n:
                break
            same = o[d:] == o[:-d]
            if not same.any():
                break
            parts.append(
                pa.table(
                    {
                        "p_a": pa.array(p[:-d][same], pa.int64()),
                        "p_b": pa.array(p[d:][same], pa.int64()),
                        "n": pa.array(np.ones(int(same.sum()), np.int64), pa.int64()),
                    }
                )
            )
            d += 1
        # per-part frequency rows (p_b = -1) and the order-count row
        # (p_a = p_b = -2); orderkey partitioning makes both exact
        u_part, c_part = np.unique(p, return_counts=True)
        parts.append(
            pa.table(
                {
                    "p_a": pa.array(u_part, pa.int64()),
                    "p_b": pa.array(np.full(len(u_part), -1, np.int64), pa.int64()),
                    "n": pa.array(c_part.astype(np.int64), pa.int64()),
                }
            )
        )
        n_orders = int(np.count_nonzero(np.r_[True, o[1:] != o[:-1]]))
        parts.append(
            pa.table(
                {
                    "p_a": pa.array([-2], pa.int64()),
                    "p_b": pa.array([-2], pa.int64()),
                    "n": pa.array([n_orders], pa.int64()),
                }
            )
        )
        return pa.concat_tables(parts)

    def _sum_kernel(t: pa.Table) -> pa.Table:
        return _pa_group_sum(t, ["p_a", "p_b"], ["n"])

    expanded = map_partitions_by_key(
        li, "l_orderkey", _expand, num_partitions=num_partitions
    )
    agg = map_partitions_by_key(
        expanded, "p_a", _sum_kernel, num_partitions=num_partitions
    ).materialize()

    side = agg.filter(expr="p_a < 0 or p_b < 0")
    side_tables = list(side.iter_batches(batch_format="pyarrow"))
    side_t = pa.concat_tables(side_tables) if side_tables else _ROWS_EMPTY
    pa_keys = side_t.filter(pc.equal(side_t["p_b"], -1))
    pk = pa_keys["p_a"].to_numpy()
    pn = pa_keys["n"].to_numpy()
    po = np.argsort(pk, kind="stable")
    n_orders = int(
        pc.sum(side_t.filter(pc.equal(side_t["p_a"], -2))["n"]).as_py() or 0
    )
    bref = _ray.put((pk[po], pn[po].astype(np.int64), n_orders))

    _OUT_EMPTY = pa.table(
        {
            "p_a": pa.array([], pa.int64()),
            "p_b": pa.array([], pa.int64()),
            "n_both": pa.array([], pa.int64()),
            "n_a": pa.array([], pa.int64()),
            "n_b": pa.array([], pa.int64()),
            "lift": pa.array([], pa.float64()),
            "confidence": pa.array([], pa.float64()),
        }
    )

    def _metrics(batch: pa.Table) -> pa.Table:
        m = pc.and_(
            pc.and_(pc.greater_equal(batch["p_a"], 0), pc.greater_equal(batch["p_b"], 0)),
            pc.greater_equal(batch["n"], 2),
        )
        t = batch.filter(m)
        if t.num_rows == 0:
            return _OUT_EMPTY
        keys, counts, total = _ray.get(bref)
        a = t["p_a"].to_numpy()
        b = t["p_b"].to_numpy()
        nb = t["n"].to_numpy()
        n_a = counts[np.searchsorted(keys, a)]
        n_b = counts[np.searchsorted(keys, b)]
        lift = nb.astype(np.float64) * total / (n_a.astype(np.float64) * n_b)
        conf = nb.astype(np.float64) / n_a
        return pa.table(
            {
                "p_a": pa.array(a, pa.int64()),
                "p_b": pa.array(b, pa.int64()),
                "n_both": pa.array(nb, pa.int64()),
                "n_a": pa.array(n_a, pa.int64()),
                "n_b": pa.array(n_b, pa.int64()),
                "lift": pa.array(lift, pa.float64()),
                "confidence": pa.array(conf, pa.float64()),
            }
        )

    return agg.map_batches(_metrics, batch_format="pyarrow")


@register(
    "promo_revenue_monthly",
    """
    SELECT CAST(year(l_shipdate)*100 + month(l_shipdate) AS BIGINT) AS month_id,
      CAST(SUM(CASE WHEN p_type = 'PROMO'
            THEN CAST(FLOOR(l_extendedprice*(1-l_discount)*100+0.5) AS BIGINT)
            ELSE 0 END) AS BIGINT) AS promo_cents,
      CAST(SUM(CAST(FLOOR(l_extendedprice*(1-l_discount)*100+0.5) AS BIGINT)) AS BIGINT) AS total_cents
    FROM lineitem JOIN part ON l_partkey = p_partkey
    GROUP BY month_id
    """,
)
def q_promo_revenue(sf_dir: str):
    """Q14-shape: big fact x small dim -> conditional aggregate.  The
    part dim ships once as a broadcast int->flag lookup (never a
    shuffle); month and revenue are integer-exact; the monthly rollup is
    the low-cardinality coalesced combiner."""
    li = _rp(
        sf_dir,
        "lineitem",
        ["l_partkey", "l_extendedprice", "l_discount", "l_shipdate"],
    )
    part = _pq(sf_dir, "part", ["p_partkey", "p_type"])
    pk = part["p_partkey"].to_numpy()
    promo = np.asarray(part["p_type"]).astype(str) == "PROMO"
    order = np.argsort(pk)
    pk, promo = pk[order], promo[order]

    def _fn(batch: pa.Table) -> pa.Table:
        sd = batch["l_shipdate"].combine_chunks()
        month_id = (
            pc.year(sd).to_numpy(zero_copy_only=False) * 100
            + pc.month(sd).to_numpy(zero_copy_only=False)
        ).astype(np.int64)
        price = batch["l_extendedprice"].to_numpy()
        disc = batch["l_discount"].to_numpy()
        cents = _cents(price * (1 - disc)).astype(np.int64)
        keys = batch["l_partkey"].to_numpy()
        idx = np.searchsorted(pk, keys)
        # inner-join semantics (see supplier_nation_revenue)
        ok = (idx < len(pk)) & (pk[np.minimum(idx, len(pk) - 1)] == keys)
        idx, cents, month_id = idx[ok], cents[ok], month_id[ok]
        is_promo = promo[idx]
        t2 = pa.table(
            {
                "month_id": pa.array(month_id, pa.int64()),
                "promo_cents": pa.array(np.where(is_promo, cents, 0), pa.int64()),
                "total_cents": pa.array(cents, pa.int64()),
            }
        )
        return _pa_group_sum(t2, ["month_id"], ["promo_cents", "total_cents"])

    return _tiny_group_sum(
        li.map_batches(_fn, batch_format="pyarrow"),
        ["month_id"],
        ["promo_cents", "total_cents"],
    )


@register(
    "shipping_priority",
    """
    SELECT l_orderkey,
      CAST(SUM(CAST(FLOOR(l_extendedprice*(1-l_discount)*100+0.5) AS BIGINT)) AS BIGINT) AS revenue_cents,
      CAST(year(o_orderdate)*10000 + month(o_orderdate)*100 + day(o_orderdate) AS BIGINT) AS date_id,
      o_orderpriority
    FROM customer
      JOIN orders ON c_custkey = o_custkey
      JOIN lineitem ON l_orderkey = o_orderkey
    WHERE c_mktsegment = 'BUILDING'
      AND o_orderdate < DATE '1998-01-01' AND l_shipdate > DATE '1998-01-01'
    GROUP BY l_orderkey, date_id, o_orderpriority
    ORDER BY revenue_cents DESC, l_orderkey LIMIT 10
    """,
)
def q_shipping_priority(sf_dir: str):
    """Q3-shape: filter both fact sides at the READ, semi-join orders to
    the BUILDING customers by broadcast key set, pre-aggregate lineitem
    revenue per order per batch, ONE bucketed hash join, then per-bucket
    full sums + partial top-10 -> tiny merge (keys never straddle
    buckets, so no second exchange before the top-k)."""
    cutoff_us = np.int64(np.datetime64("1998-01-01", "us").astype(np.int64))
    cust = _pq(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    bkeys = np.sort(
        cust.filter(pc.equal(cust["c_mktsegment"], "BUILDING"))["c_custkey"].to_numpy()
    )

    orders = _rp(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate", "o_orderpriority"])

    def _ofilter(batch: pa.Table) -> pa.Table:
        ous = batch["o_orderdate"].combine_chunks().cast(pa.int64()).to_numpy()
        keep = (ous < cutoff_us) & np.isin(batch["o_custkey"].to_numpy(), bkeys)
        t = batch.filter(pa.array(keep))
        od2 = t["o_orderdate"].combine_chunks()
        date_id = (
            pc.year(od2).to_numpy(zero_copy_only=False) * 10000
            + pc.month(od2).to_numpy(zero_copy_only=False) * 100
            + pc.day(od2).to_numpy(zero_copy_only=False)
        ).astype(np.int64)
        return pa.table(
            {
                "o_orderkey": t["o_orderkey"],
                "date_id": pa.array(date_id, pa.int64()),
                "o_orderpriority": t["o_orderpriority"],
            }
        )

    li = _rp(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"])

    def _li_pre(batch: pa.Table) -> pa.Table:
        sus = batch["l_shipdate"].combine_chunks().cast(pa.int64()).to_numpy()
        t = batch.filter(pa.array(sus > cutoff_us))
        cents = _cents(
            t["l_extendedprice"].to_numpy() * (1 - t["l_discount"].to_numpy())
        ).astype(np.int64)
        t2 = pa.table(
            {"l_orderkey": t["l_orderkey"], "revenue_cents": pa.array(cents, pa.int64())}
        )
        return _pa_group_sum(t2, ["l_orderkey"], ["revenue_cents"])

    def _joined():
        # constructed lazily: hash_join calls .schema() on both sides,
        # which executes a limit(1) pass — wasted on the coalesced path
        return hash_join(
            li.map_batches(_li_pre, batch_format="pyarrow"),
            orders.map_batches(_ofilter, batch_format="pyarrow"),
            left_on="l_orderkey",
            right_on="o_orderkey",
            num_partitions=16,
        )

    # a joined block is NOT guaranteed key-complete (Ray can split a
    # large map_groups output mid-table), so the top-k runs after one
    # slim keyed exchange of per-block partial sums — never on raw blocks
    def _partial_sum(batch: pa.Table) -> pa.Table:
        return _pa_group_sum(
            batch.select(["l_orderkey", "date_id", "o_orderpriority", "revenue_cents"]),
            ["l_orderkey", "date_id", "o_orderpriority"],
            ["revenue_cents"],
        )

    def _topk(table: pa.Table) -> pa.Table:
        g = _pa_group_sum(
            table, ["l_orderkey", "date_id", "o_orderpriority"], ["revenue_cents"]
        )
        ok = g["l_orderkey"].to_numpy()
        rc = g["revenue_cents"].to_numpy()
        take = np.lexsort((ok, -rc))[:10]
        t = g.take(pa.array(take, pa.int64()))
        return t.select(["l_orderkey", "revenue_cents", "date_id", "o_orderpriority"])

    def _merge(batch: pa.Table) -> pa.Table:
        ok = batch["l_orderkey"].to_numpy()
        rc = batch["revenue_cents"].to_numpy()
        take = np.lexsort((ok, -rc))[:10]
        return batch.take(pa.array(take, pa.int64()))

    from multimedia_indexing_ray.stages.partition import map_partitions_by_key

    # below ~10M base lineitem rows (METADATA count) the three exchange
    # fixed costs dwarf the kernel: both filtered+pre-agged sides are
    # tiny, so join + final sum + top-10 run once in-process (identical
    # rules); the at-scale path below is unchanged
    if li.count() <= _broadcast_row_cap():
        import ray as _ray

        lt = [t for t in _ray.get(
            li.map_batches(_li_pre, batch_format="pyarrow").to_arrow_refs()
        ) if t.num_rows]
        ot = [t for t in _ray.get(
            orders.map_batches(_ofilter, batch_format="pyarrow").to_arrow_refs()
        ) if t.num_rows]
        if not lt or not ot:
            return ray.data.from_arrow(_merge(_topk(pa.table(
                {
                    "l_orderkey": pa.array([], pa.int64()),
                    "date_id": pa.array([], pa.int64()),
                    "o_orderpriority": pa.array([], pa.string()),
                    "revenue_cents": pa.array([], pa.int64()),
                }
            ))))
        L = _pa_group_sum(pa.concat_tables(lt), ["l_orderkey"], ["revenue_cents"])
        O = pa.concat_tables(ot)
        okeys = O["o_orderkey"].to_numpy()
        order = np.argsort(okeys, kind="stable")
        okeys_s = okeys[order]
        lk = L["l_orderkey"].to_numpy()
        idx = np.searchsorted(okeys_s, lk)
        idx_c = np.clip(idx, 0, max(len(okeys_s) - 1, 0))
        m = okeys_s[idx_c] == lk
        oi = order[idx_c[m]]
        t = pa.table(
            {
                "l_orderkey": pa.array(lk[m], pa.int64()),
                "date_id": O["date_id"].take(pa.array(oi, pa.int64())),
                "o_orderpriority": O["o_orderpriority"].take(pa.array(oi, pa.int64())),
                "revenue_cents": pa.array(L["revenue_cents"].to_numpy()[m], pa.int64()),
            }
        )
        return ray.data.from_arrow(_merge(_topk(t)))

    partials = _joined().map_batches(_partial_sum, batch_format="pyarrow")
    per_part = map_partitions_by_key(partials, "l_orderkey", _topk, num_partitions=16)
    return per_part.repartition(1).map_batches(
        _merge, batch_format="pyarrow", batch_size=None
    )


@register(
    "event_type_histogram",
    "SELECT event_type, CAST(count(*) AS BIGINT) AS n FROM events GROUP BY 1",
)
def q_event_histogram(sf_dir: str):
    ev = _rp(sf_dir, "events", ["event_type"])

    def _count(batch: pa.Table) -> pa.Table:
        return batch.append_column("n", pa.array(np.ones(batch.num_rows, np.int64)))

    agg = _tiny_group_sum(
        ev.map_batches(_count, batch_format="pyarrow"), ["event_type"], ["n"]
    )
    return agg.map_batches(
        lambda b: pa.table({"event_type": b["event_type"], "n": b["n"].cast(pa.int64())}),
        batch_format="pyarrow",
    )


@register("distinct_users", "SELECT DISTINCT user_id FROM events")
def q_distinct_users(sf_dir: str):
    """Distributed distinct: per-batch dedup combiner, then per-partition
    dedup after ONE key shuffle — no driver-side `.unique()` pull."""
    from multimedia_indexing_ray.stages.partition import map_partitions_by_key

    ev = _rp(sf_dir, "events", ["user_id"])

    def _batch_distinct(batch: pa.Table) -> pa.Table:
        u = np.unique(batch["user_id"].to_numpy())
        return pa.table({"user_id": pa.array(u, pa.int64())})

    def kernel(table: pa.Table) -> pa.Table:
        return _batch_distinct(table)

    return map_partitions_by_key(
        ev.map_batches(_batch_distinct, batch_format="pyarrow"),
        "user_id",
        kernel,
        num_partitions=16,
    )


# --------------------------------------------------------------------------
# documents: dedup + text analysis
# --------------------------------------------------------------------------


@register(
    "dedup_exact_docs",
    """
    SELECT CAST(MIN(doc_id) AS BIGINT) AS doc_id, CAST(count(*) AS BIGINT) AS n_copies
    FROM documents GROUP BY text
    """,
)
def q_dedup_exact(sf_dir: str):
    docs = _rp(sf_dir, "documents", ["doc_id", "text"])
    return dd.exact_dedup_stats(docs, "text", "doc_id", num_partitions=16)


@register(
    "text_quality",
    r"""
    SELECT doc_id,
      CAST(length(text) AS BIGINT) AS n_chars,
      CAST(len(regexp_extract_all(text, '\S+')) AS BIGINT) AS n_tokens,
      CAST(len(regexp_extract_all(text, '[.,!?;:]')) AS BIGINT) AS n_punct,
      CAST(len(regexp_extract_all(text, '\b(the|and|of|a|to|in|is|it)\b')) AS BIGINT) AS stop_count
    FROM documents
    """,
)
def q_text_quality(sf_dir: str):
    docs = _rp(sf_dir, "documents", ["doc_id", "text"])

    def _fn(batch: pa.Table) -> pa.Table:
        text = batch["text"]
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_chars": pa.array(tx.char_count(text), pa.int64()),
                "n_tokens": pa.array(tx.token_count(text), pa.int64()),
                "n_punct": pa.array(tx.punct_count(text), pa.int64()),
                "stop_count": pa.array(tx.stopword_count(text), pa.int64()),
            }
        )

    return docs.map_batches(_fn, batch_format="pyarrow")


@register(
    "token_count_bpe",
    r"""
    SELECT doc_id,
      CAST(len(regexp_extract_all(text, '\S+')) AS BIGINT) AS n_tokens_ws,
      CAST(len(regexp_extract_all(text,
        '''(?:s|t|re|ve|m|ll|d)| ?[a-zA-Z]+| ?[0-9]+| ?[^a-zA-Z0-9\s]+')) AS BIGINT) AS n_tokens_bpe
    FROM documents
    """,
)
def q_token_count_bpe(sf_dir: str):
    """Token counting: whitespace + BPE-ish pre-tokenizer regex (the
    token-budget estimator; same RE2 pattern on both sides)."""
    docs = _rp(sf_dir, "documents", ["doc_id", "text"])

    def _fn(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_tokens_ws": pa.array(tx.token_count(batch["text"]), pa.int64()),
                "n_tokens_bpe": pa.array(tx.bpe_token_count(batch["text"]), pa.int64()),
            }
        )

    return docs.map_batches(_fn, batch_format="pyarrow")


@register("doc_fingerprint", "SELECT doc_id, md5(text) AS fp FROM documents")
def q_doc_fingerprint(sf_dir: str):
    docs = _rp(sf_dir, "documents", ["doc_id", "text"])
    return dd.add_fingerprint(docs, "text", "fp").select_columns(["doc_id", "fp"])


# The langid decision SQL, shared verbatim by `langid_docs` and every
# oracle that conditions on the predicted language (chi2_term_lang), so
# the label rule cannot drift between queries.
_LANGID_SQL = r"""
    WITH c AS (SELECT doc_id,
      len(regexp_extract_all(text, '\b(the|and|of|to|is)\b')) AS en,
      len(regexp_extract_all(text, '\b(der|die|und|das|ist)\b')) AS de,
      len(regexp_extract_all(text, '\b(le|la|et|les|est)\b')) AS fr,
      len(regexp_extract_all(text, '\b(el|la|que|los|es)\b')) AS es,
      len(regexp_extract_all(text, '\b(de|shi|le|zai|he)\b')) AS zh
    FROM documents)
    SELECT doc_id, CASE
      WHEN en=0 AND de=0 AND fr=0 AND es=0 AND zh=0 THEN 'und'
      WHEN en>=de AND en>=fr AND en>=es AND en>=zh THEN 'en'
      WHEN de>=fr AND de>=es AND de>=zh THEN 'de'
      WHEN fr>=es AND fr>=zh THEN 'fr'
      WHEN es>=zh THEN 'es'
      ELSE 'zh' END AS lang_pred
    FROM c
    """


@register("langid_docs", _LANGID_SQL)
def q_langid(sf_dir: str):
    docs = _rp(sf_dir, "documents", ["doc_id", "text"])

    def _fn(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "lang_pred": pa.array(langid(batch["text"]), pa.string()),
            }
        )

    return docs.map_batches(_fn, batch_format="pyarrow")


@register(
    "pii_scrub_docs",
    r"""
    SELECT doc_id,
      CAST(len(regexp_extract_all(text, '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}')) AS BIGINT) AS n_emails,
      CAST(len(regexp_extract_all(text, '\+?[0-9][0-9 ().-]{7,}[0-9]')) AS BIGINT) AS n_phones,
      CAST(len(regexp_extract_all(text, '\b(customer|order|value)\b')) AS BIGINT) AS n_terms,
      regexp_replace(text, '\b(customer|order|value)\b', '[REDACTED]', 'g') AS text_scrubbed
    FROM documents
    """,
)
def q_pii_scrub(sf_dir: str):
    """PII/term scrub: count email/phone/term matches and emit redacted
    text.  RE2 kernels (`pc.count_substring_regex` /
    `pc.replace_substring_regex`) shared verbatim with the DuckDB oracle;
    the synthetic corpus has no emails/phones so those columns verify as
    zero while the term redaction is non-trivial and hash-checked."""
    docs = _rp(sf_dir, "documents", ["doc_id", "text"])

    def _fn(batch: pa.Table) -> pa.Table:
        text = batch["text"]
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_emails": pa.array(tx.scrub_count(text, tx.PII_EMAIL_RE), pa.int64()),
                "n_phones": pa.array(tx.scrub_count(text, tx.PII_PHONE_RE), pa.int64()),
                "n_terms": pa.array(tx.scrub_count(text, tx.REDACT_TERM_RE), pa.int64()),
                "text_scrubbed": tx.scrub_replace(text, tx.REDACT_TERM_RE),
            }
        )

    return docs.map_batches(_fn, batch_format="pyarrow")


@register(
    "repetition_docs",
    r"""
    WITH tk AS (SELECT doc_id, regexp_extract_all(text, '\S+') AS toks FROM documents),
    t2 AS (SELECT doc_id, unnest(toks) AS tok FROM tk),
    tc AS (SELECT doc_id, tok, count(*) AS c FROM t2 GROUP BY 1, 2),
    ta AS (SELECT doc_id, CAST(sum(c) AS BIGINT) AS n_tokens,
                  CAST(count(*) AS BIGINT) AS n_distinct,
                  CAST(max(c) AS BIGINT) AS top_token_n FROM tc GROUP BY 1),
    bg AS (SELECT doc_id, unnest(list_transform(range(1, len(toks)),
                  i -> toks[i] || ' ' || toks[i+1])) AS b FROM tk),
    bc AS (SELECT doc_id, b, count(*) AS c FROM bg GROUP BY 1, 2),
    ba AS (SELECT doc_id, CAST(max(c) AS BIGINT) AS top_bigram_n FROM bc GROUP BY 1)
    SELECT d.doc_id,
      COALESCE(ta.n_tokens, 0) AS n_tokens,
      COALESCE(ta.n_distinct, 0) AS n_distinct,
      COALESCE(ta.top_token_n, 0) AS top_token_n,
      COALESCE(ba.top_bigram_n, 0) AS top_bigram_n
    FROM documents d LEFT JOIN ta ON d.doc_id = ta.doc_id
    LEFT JOIN ba ON ba.doc_id = d.doc_id
    """,
)
def q_repetition(sf_dir: str):
    """Gopher-style repetition quality signals (Rae et al. 2021 §A1.1):
    most-frequent-token and most-frequent-bigram occurrence counts plus
    distinct-token count per doc — the standard filters against looping /
    boilerplate text in training-data pipelines.  Counts stay int64 so the
    oracle hash is bit-exact; callers derive the fractions."""
    docs = _rp(sf_dir, "documents", ["doc_id", "text"])

    def _fn(batch: pa.Table) -> pa.Table:
        n_tok, n_dist, top_tok, top_bg = tx.repetition_stats(batch["text"])
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_tokens": pa.array(n_tok, pa.int64()),
                "n_distinct": pa.array(n_dist, pa.int64()),
                "top_token_n": pa.array(top_tok, pa.int64()),
                "top_bigram_n": pa.array(top_bg, pa.int64()),
            }
        )

    return docs.map_batches(_fn, batch_format="pyarrow")


def _broadcast_row_cap() -> int:
    """Row cap for the metadata-gated broadcast fast paths of
    region_revenue / shipping_priority (GRAFT_BROADCAST_ROW_CAP env —
    the scale-rehearsal pressure knob; default 10M rows, at which point
    the pre-agg + bucketed-join at-scale plan takes over)."""
    return int(os.environ.get("GRAFT_BROADCAST_ROW_CAP", "10000000"))


def _vocab_broadcast_cap() -> int:
    """Row cap for driver-collected vocabulary/df tables (the tf-idf
    family's analog of exact_jaccard_verify's max_broadcast_ids gate,
    `stages/dedup.py`): under the cap the df table broadcasts via
    ray.put; above it the scoring pass co-partitions doc-token pairs
    with the df table on token so the vocabulary never hits the driver
    (open-domain 100-TB corpora have unbounded vocabularies)."""
    return int(os.environ.get("GRAFT_MAX_VOCAB_BROADCAST", "5000000"))


_TF_PAIRS_EMPTY = pa.table(
    {
        "doc_id": pa.array([], pa.int64()),
        "term": pa.array([], pa.string()),
        "tf": pa.array([], pa.int64()),
    }
)


def _tf_pairs_batch(batch: pa.Table) -> pa.Table:
    """Distinct (doc_id, term) pairs with per-doc term frequency — the
    slim exchange payload of the distributed tf-idf paths (text itself
    never crosses the wire)."""
    flat, counts = tx.flat_tokens(batch["text"])
    if len(flat) == 0:
        return _TF_PAIRS_EMPTY
    ids = batch["doc_id"].to_numpy()
    doc_of = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    uniq, tok_id = np.unique(flat, return_inverse=True)
    nv = np.int64(len(uniq))
    pair, tf = np.unique(doc_of * nv + tok_id, return_counts=True)
    return pa.table(
        {
            "doc_id": pa.array(ids[pair // nv], pa.int64()),
            "term": pa.array(uniq[pair % nv], pa.string()),
            "tf": pa.array(tf.astype(np.int64), pa.int64()),
        }
    )


@register(
    "top_term_docs",
    r"""
    WITH t2 AS (SELECT doc_id, unnest(regexp_extract_all(text, '\S+')) AS tok
                FROM documents),
    tc AS (SELECT doc_id, tok, CAST(count(*) AS BIGINT) AS tf FROM t2 GROUP BY 1, 2),
    dfr AS (SELECT tok, CAST(count(DISTINCT doc_id) AS BIGINT) AS df FROM t2 GROUP BY 1),
    r AS (SELECT tc.doc_id, tc.tok, tc.tf, dfr.df,
          row_number() OVER (PARTITION BY tc.doc_id
                             ORDER BY tc.tf DESC, dfr.df ASC, tc.tok ASC) AS rn
          FROM tc JOIN dfr USING (tok))
    SELECT doc_id, tok AS top_term, tf, df FROM r WHERE rn = 1
    """,
)
def q_top_term(sf_dir: str):
    """Salient-term extraction: distributed document-frequency aggregation
    (the BoW-vocabulary analog of `aggregation/BowAggregator.java:39-74`,
    learned corpus-wide like the codebooks in
    `quantization/CodebookLearning.java:44-90`), then a broadcast df join
    back into a per-doc argmax by (tf DESC, df ASC, term ASC) — the
    integer-exact tf-idf ranking (rarest term breaks frequency ties).

    Scale shape: stage 1 emits per-batch distinct (token, partial df)
    pairs and one small shuffle on token reduces them; the resulting
    vocabulary table is tiny (it is the aggregate, not the corpus) and is
    broadcast once via ray.put into the stage-2 actor lookups."""
    from multimedia_indexing_ray.stages.partition import map_partitions_by_key

    docs = _rp(sf_dir, "documents", ["doc_id", "text"])

    def _partial_df(batch: pa.Table) -> pa.Table:
        flat, counts = tx.flat_tokens(batch["text"])
        if len(flat) == 0:
            return pa.table({"tok": pa.array([], pa.string()), "df": pa.array([], pa.int64())})
        doc_of = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
        uniq, tok_id = np.unique(flat, return_inverse=True)
        # distinct (doc, token) -> per-token doc count within the batch
        ukey = np.unique(doc_of * np.int64(len(uniq)) + tok_id)
        dfc = np.bincount(ukey % np.int64(len(uniq)), minlength=len(uniq))
        return pa.table(
            {"tok": pa.array(uniq, pa.string()), "df": pa.array(dfc.astype(np.int64), pa.int64())}
        )

    def _reduce_df(table: pa.Table) -> pa.Table:
        return _pa_group_sum(table, ["tok"], ["df"])

    df_ds = map_partitions_by_key(
        docs.map_batches(_partial_df, batch_format="pyarrow"), "tok", _reduce_df,
        num_partitions=8,
    ).materialize()
    if df_ds.count() <= _vocab_broadcast_cap():
        # the df table is the small aggregated side (vocabulary-sized);
        # broadcast it once — the ray.put/actor-constructor pattern of
        # `mapreduce/VisualThreadedMapper.java:119-167` (DistributedCache)
        df_all = df_ds.take_all()
        vocab = np.array([r["tok"] for r in df_all])
        dfv = np.array([r["df"] for r in df_all], np.int64)
        order = np.argsort(vocab)
        vocab, dfv = vocab[order], dfv[order]
        import ray as _ray

        ref = _ray.put((vocab, dfv))

        def _argmax(batch: pa.Table) -> pa.Table:
            voc, dfa = _ray.get(ref)
            mask, terms, tfs, dfs = tx.top_term_batch(batch["text"], voc, dfa)
            ids = batch["doc_id"].to_numpy(zero_copy_only=False)[mask]
            return pa.table(
                {
                    "doc_id": pa.array(ids, pa.int64()),
                    "top_term": pa.array(list(terms[mask]), pa.string()),
                    "tf": pa.array(tfs[mask], pa.int64()),
                    "df": pa.array(dfs[mask], pa.int64()),
                }
            )

        return docs.map_batches(_argmax, batch_format="pyarrow")

    # at-scale path (vocab above the broadcast cap): co-partition the
    # slim (doc_id, term, tf) pairs with the df table on token, then one
    # doc_id-keyed argmax by (tf DESC, df ASC, term ASC)
    from multimedia_indexing_ray.stages.join import hash_join

    _empty = pa.table(
        {
            "doc_id": pa.array([], pa.int64()),
            "top_term": pa.array([], pa.string()),
            "tf": pa.array([], pa.int64()),
            "df": pa.array([], pa.int64()),
        }
    )

    def _argmax_group(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _empty
        d = t["doc_id"].to_numpy(zero_copy_only=False)
        terms = np.asarray(t["term"]).astype(object)
        tf = t["tf"].to_numpy(zero_copy_only=False).astype(np.int64)
        dfv = t["df"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((terms, dfv, -tf, d))
        ds_ = d[order]
        first = np.unique(ds_, return_index=True)[1]
        sel = order[first]
        return pa.table(
            {
                "doc_id": pa.array(d[sel], pa.int64()),
                "top_term": pa.array(terms[sel], pa.string()),
                "tf": pa.array(tf[sel], pa.int64()),
                "df": pa.array(dfv[sel], pa.int64()),
            }
        )

    joined = hash_join(
        docs.map_batches(_tf_pairs_batch, batch_format="pyarrow"),
        df_ds,
        left_on="term",
        right_on="tok",
        num_partitions=16,
    )
    return map_partitions_by_key(joined, "doc_id", _argmax_group, num_partitions=16)


@register(
    "distinct_users_hourly",
    """
    SELECT date_trunc('hour', ts) AS window_start,
      CAST(count(DISTINCT user_id) AS BIGINT) AS n_users
    FROM events GROUP BY 1
    """,
)
def q_distinct_users_hourly(sf_dir: str):
    """Windowed distinct count: per-batch distinct (window, user) pairs
    (the combiner), ONE shuffle on window_start, per-partition exact
    distinct.  The two-level shape keeps the exchange at distinct-pair
    volume, not event volume."""
    from multimedia_indexing_ray.stages.partition import map_partitions_by_key

    ev = _rp(sf_dir, "events", ["user_id", "ts"])
    hour_us = np.int64(3600_000_000)

    def _pairs(batch: pa.Table) -> pa.Table:
        ts = batch["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        w = (ts // hour_us) * hour_us
        u = batch["user_id"].to_numpy(zero_copy_only=False)
        pairs = np.unique(np.stack([w, u], axis=1), axis=0)
        return pa.table(
            {
                "window_start": pa.array(pairs[:, 0], pa.int64()).cast(pa.timestamp("us")),
                "user_id": pa.array(pairs[:, 1], pa.int64()),
            }
        )

    def _count(table: pa.Table) -> pa.Table:
        w = table["window_start"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        u = table["user_id"].to_numpy(zero_copy_only=False)
        pairs = np.unique(np.stack([w, u], axis=1), axis=0)
        uw, n = np.unique(pairs[:, 0], return_counts=True)
        return pa.table(
            {
                "window_start": pa.array(uw, pa.int64()).cast(pa.timestamp("us")),
                "n_users": pa.array(n.astype(np.int64), pa.int64()),
            }
        )

    return map_partitions_by_key(
        ev.map_batches(_pairs, batch_format="pyarrow"), "window_start", _count,
        num_partitions=8,
    )


@register(
    "value_quantiles_by_type",
    f"""
    WITH v AS (SELECT event_type, {_CENTS_SQL.format(col='value')} AS c FROM events),
    r AS (SELECT event_type, c,
          row_number() OVER (PARTITION BY event_type ORDER BY c) AS rn,
          count(*) OVER (PARTITION BY event_type) AS n FROM v)
    SELECT event_type,
      MIN(CASE WHEN rn = (50*n + 99)//100 THEN c END) AS p50_cents,
      MIN(CASE WHEN rn = (90*n + 99)//100 THEN c END) AS p90_cents,
      MIN(CASE WHEN rn = (99*n + 99)//100 THEN c END) AS p99_cents
    FROM r GROUP BY event_type
    """,
)
def q_value_quantiles(sf_dir: str):
    """Exact distributed quantiles (p50/p90/p99) per event_type via the
    histogram method: per-batch (type, cents) counts (combiner), ONE
    shuffle of histogram rows — never raw events — then a cumulative-sum
    index per group.  The discrete-quantile rule is stated in pure integer
    arithmetic (sorted index ceil(q*n) = (q*100*n + 99)//100) so the SQL
    oracle defines the identical semantics with no float index hazard.

    Scale: exchange volume is bounded by distinct (type, cents) pairs, not
    rows — the same partial-aggregate discipline as pricing_summary."""
    from multimedia_indexing_ray.stages.partition import map_partitions_by_key

    ev = _rp(sf_dir, "events", ["event_type", "value"])

    def _hist(batch: pa.Table) -> pa.Table:
        c = _cents(batch["value"].to_numpy(zero_copy_only=False)).astype(np.int64)
        t = pa.table({"event_type": batch["event_type"], "c": pa.array(c, pa.int64())})
        g = pa.TableGroupBy(t, ["event_type", "c"]).aggregate([([], "count_all")])
        return pa.table(
            {
                "event_type": g["event_type"],
                "c": g["c"],
                "n": g["count_all"].cast(pa.int64()),
            }
        )

    qhs = (50, 90, 99)

    def _quant(table: pa.Table) -> pa.Table:
        g = _pa_group_sum(table, ["event_type", "c"], ["n"])
        et = np.asarray(g["event_type"])
        cv = g["c"].to_numpy(zero_copy_only=False)
        nv = g["n"].to_numpy(zero_copy_only=False)
        order = np.lexsort((cv, et))
        et, cv, nv = et[order], cv[order], nv[order]
        types, starts = np.unique(et, return_index=True)
        cols = {"event_type": pa.array(types, pa.string())}
        outs = {qh: [] for qh in qhs}
        bounds = np.append(starts, len(et))
        for i in range(len(types)):
            s, e = bounds[i], bounds[i + 1]
            cum = np.cumsum(nv[s:e])
            n = int(cum[-1])
            for qh in qhs:
                target = (qh * n + 99) // 100
                outs[qh].append(int(cv[s:e][np.searchsorted(cum, target, side="left")]))
        for qh in qhs:
            cols[f"p{qh}_cents"] = pa.array(outs[qh], pa.int64())
        return pa.table(cols)

    return map_partitions_by_key(
        ev.map_batches(_hist, batch_format="pyarrow"), "event_type", _quant,
        num_partitions=4,
    )


@register(
    "token_shard_docs",
    r"""
    WITH t AS (SELECT doc_id,
          CAST(len(regexp_extract_all(text, '\S+')) AS BIGINT) AS n_tokens
          FROM documents),
    c AS (SELECT doc_id, n_tokens,
          COALESCE(SUM(n_tokens) OVER (ORDER BY doc_id
            ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS tok_offset
          FROM t)
    SELECT doc_id, n_tokens, CAST(tok_offset AS BIGINT) AS tok_offset,
      CAST(tok_offset // 1000 AS BIGINT) AS shard_id
    FROM c
    """,
)
def q_token_shard(sf_dir: str):
    """Token-budget sharding for training-batch assembly: each doc gets
    the corpus-order token offset where it starts and a shard id =
    offset // budget.  The offset is a distributed ordered prefix sum
    (stages/scan.py): range-partition on doc_id, per-range totals reduced
    to a tiny table, driver prefix, per-partition cumsum — the scalable
    replacement for the reference's synchronized global counter
    (`datastructures/AbstractSearchStructure.java:63-65,229-257`)."""
    from multimedia_indexing_ray.stages.scan import ordered_prefix_sum

    docs = _rp(sf_dir, "documents", ["doc_id", "text"])

    def _tok(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_tokens": pa.array(tx.token_count(batch["text"]), pa.int64()),
            }
        )

    counted = docs.map_batches(_tok, batch_format="pyarrow")
    out = ordered_prefix_sum(counted, "doc_id", "n_tokens", out_col="tok_offset")

    def _shard(batch: pa.Table) -> pa.Table:
        off = batch["tok_offset"].to_numpy(zero_copy_only=False)
        return batch.append_column("shard_id", pa.array(off // 1000, pa.int64()))

    return out.map_batches(_shard, batch_format="pyarrow")


@register(
    "pack_context_windows",
    r"""
    WITH RECURSIVE d AS (
      SELECT doc_id, doc_id // 32 AS grp,
             CAST(len(regexp_extract_all(text, '\S+')) AS BIGINT) AS n_tokens
      FROM documents),
    r(doc_id, grp, n_tokens, it, bin_loc, bin_offset) AS (
      SELECT doc_id, grp, n_tokens, CAST(0 AS BIGINT),
             CAST(NULL AS BIGINT), CAST(NULL AS BIGINT) FROM d
      UNION ALL
      SELECT doc_id, grp, n_tokens, it + 1,
             CASE WHEN cum <= 128 OR rn = 1 THEN it END,
             CASE WHEN cum <= 128 OR rn = 1 THEN cum - n_tokens END
      FROM (
        SELECT doc_id, grp, n_tokens, it,
               SUM(n_tokens) OVER (PARTITION BY grp ORDER BY doc_id) AS cum,
               ROW_NUMBER() OVER (PARTITION BY grp ORDER BY doc_id) AS rn
        FROM r WHERE bin_loc IS NULL
      ) s
    )
    SELECT doc_id, n_tokens,
           CAST(grp * 1048576 + bin_loc AS BIGINT) AS bin_id,
           bin_offset
    FROM r WHERE bin_loc IS NOT NULL
    """,
)
def q_pack_context_windows(sf_dir: str):
    """Sequence packing (training-batch assembly): greedy next-fit of
    documents into 128-token context windows, the NO-STRADDLE sibling of
    `token_shard_docs` — a doc that does not fit closes the bin and
    opens the next; an oversized doc overflows a bin alone.  Packing is
    a sequential recurrence, so the parallelism unit is a 32-doc group
    (`doc_id // 32`, the per-shard packing production pipelines use):
    one hash exchange of slim (doc_id, n_tokens) pairs co-locates each
    group, then `functions/packing.py:pack_next_fit` assigns bins with a
    vectorized frontier sweep (one numpy pass per bin ACROSS all groups
    simultaneously — no per-row Python).  The SQL oracle is the same
    frontier iteration as a recursive CTE (one bin per group per
    recursion step), so the equivalence of the vectorized rule
    (`running-sum <= capacity OR first-remaining`) to the sequential
    recurrence is hash-checked end-to-end."""
    from multimedia_indexing_ray.functions.packing import pack_partition
    from multimedia_indexing_ray.stages.partition import map_partitions_by_key

    docs = _rp(sf_dir, "documents", ["doc_id", "text"])

    def _tok(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": pc.cast(batch["doc_id"], pa.int64()),
                "n_tokens": pa.array(tx.token_count(batch["text"]), pa.int64()),
                "grp": pc.cast(
                    pc.divide(pc.cast(batch["doc_id"], pa.int64()), 32), pa.int64()
                ),
            }
        )

    counted = docs.map_batches(_tok, batch_format="pyarrow")
    return map_partitions_by_key(
        counted,
        "grp",
        lambda t: pack_partition(t, capacity=128, group_size=32),
        num_partitions=16,
    )


def _det_milli_centroids(embs: "ray.data.Dataset"):
    """Deterministic SQL-expressible 'centroids': the 8 lowest-vec_id
    embeddings quantized to integer milli-units — (cids int64, cq int64
    (8, d)).  Both the IVF-router query (`centroid_assign`) and the
    SemDeDup query share this rule, so the oracle CTE is identical.
    Per-block partial min-8 -> tiny driver merge (never the full table)."""

    def _partial_min(batch: pa.Table) -> pa.Table:
        vid = batch["vec_id"].to_numpy(zero_copy_only=False)
        keep = np.argsort(vid, kind="mergesort")[:8]
        return batch.take(pa.array(np.sort(keep)))

    cands = embs.map_batches(_partial_min, batch_format="pyarrow").take_all()
    cands.sort(key=lambda r: r["vec_id"])
    cands = cands[:8]
    cids = np.array([r["vec_id"] for r in cands], np.int64)
    cmat = np.stack([np.asarray(r["embedding"], np.float64) for r in cands])
    cq = np.floor(cmat * 1000.0 + 0.5).astype(np.int64)
    return cids, cq


@register(
    "centroid_assign",
    """
    WITH q AS (SELECT vec_id,
          list_transform(embedding, x -> CAST(floor(CAST(x AS DOUBLE)*1000+0.5) AS BIGINT)) AS iq
          FROM embeddings),
    c AS (SELECT vec_id AS cid, iq FROM q ORDER BY vec_id LIMIT 8),
    d AS (SELECT q.vec_id, c.cid,
          list_sum(list_transform(range(1, len(q.iq)+1),
            i -> (q.iq[i]-c.iq[i])*(q.iq[i]-c.iq[i]))) AS dist
          FROM q CROSS JOIN c),
    r AS (SELECT vec_id, cid, dist,
          row_number() OVER (PARTITION BY vec_id ORDER BY dist, cid) AS rn FROM d)
    SELECT vec_id, cid AS centroid_id, CAST(dist AS BIGINT) AS dist FROM r WHERE rn = 1
    """,
)
def q_centroid_assign(sf_dir: str):
    """Coarse-centroid assignment (J5, the IVFPQ partition router —
    `datastructures/IVFPQ.java:315,547-601`) with a FULL SQL oracle:
    embeddings are quantized to integer milli-units on both sides so the
    squared-L2 argmin is exact int64 arithmetic (no float ulp hazard in
    the argmin), tie rule = smallest centroid id.  Centroids here are the
    8 lowest-vec_id embeddings (deterministic, SQL-expressible); the
    learned-quantizer path is exercised by the ivf_* queries."""
    embs = _rp(sf_dir, "embeddings", ["vec_id", "embedding"])
    import ray as _ray

    ref = _ray.put(_det_milli_centroids(embs))

    def _assign(batch: pa.Table) -> pa.Table:
        c_ids, c_q = _ray.get(ref)
        mat = nn._batch_matrix(batch, "embedding")
        eq = np.floor(mat * 1000.0 + 0.5).astype(np.int64)
        # (n, K) exact integer squared distances; argmin takes the FIRST
        # minimum and centroids are sorted by cid => smallest-cid tie rule
        d = ((eq[:, None, :] - c_q[None, :, :]) ** 2).sum(axis=2)
        best = np.argmin(d, axis=1)
        return pa.table(
            {
                "vec_id": batch["vec_id"],
                "centroid_id": pa.array(c_ids[best], pa.int64()),
                "dist": pa.array(d[np.arange(len(best)), best], pa.int64()),
            }
        )

    return embs.map_batches(_assign, batch_format="pyarrow")


# the SQL engine cannot reproduce the uint64-wrap minhash signatures, but
# it CAN state the ground truth the LSH must recover: every true pair with
# exact Jaccard >= 0.8 (banding miss probability at j=0.8 with 16 bands of
# 4 rows is (1 - 0.8^4)^16 ~ 0.02%, deterministic given the seeded family)
@register(
    "minhash_dedup_docs",
    r"""
    WITH tk AS (SELECT doc_id, regexp_extract_all(text, '\S+') AS toks FROM documents),
    s AS (SELECT doc_id, list_distinct(
            CASE WHEN len(toks) = 0 THEN CAST([] AS VARCHAR[])
                 WHEN len(toks) < 3 THEN [array_to_string(toks, ' ')]
                 ELSE list_transform(range(1, len(toks) - 1),
                        i -> toks[i] || ' ' || toks[i+1] || ' ' || toks[i+2]) END) AS sh
          FROM tk),
    s2 AS (SELECT doc_id, sh FROM s WHERE len(sh) > 0)
    SELECT a_id, b_id, jaccard FROM (
      SELECT a.doc_id AS a_id, b.doc_id AS b_id,
        CAST(len(list_intersect(a.sh, b.sh)) AS DOUBLE)
          / CAST(len(list_distinct(list_concat(a.sh, b.sh))) AS DOUBLE) AS jaccard
      FROM s2 a JOIN s2 b ON a.doc_id < b.doc_id)
    WHERE jaccard >= 0.8
    """,
)
def q_minhash(sf_dir: str):
    """MinHash-LSH candidates (band buckets, est >= 0.5 margin filter)
    EXACT-Jaccard verified at >= 0.8 — the standard candidates->verify
    near-dup pipeline, now fully SQL-oracled: the oracle is the all-pairs
    exact Jaccard, so a banding recall regression (a missed true pair)
    turns the driver row red."""
    docs = _rp(sf_dir, "documents", ["doc_id", "text"])
    cands = dd.minhash_lsh_pairs(
        docs, "text", "doc_id", threshold=0.5, num_partitions=16, concurrency=8
    )
    return dd.exact_jaccard_verify(
        cands, docs, "text", "doc_id", threshold=0.8, num_partitions=16
    )


def _fnv_sql(s: str, basis: int) -> str:
    """The FNV-1a-32 code-point fold as a DuckDB expression — bit-equal to
    functions/text.py fnv1a32_str (verified)."""
    return (
        f"list_reduce(list_prepend(CAST({basis} AS BIGINT), "
        f"list_transform(split({s}, ''), c -> ascii(c))), "
        "(a, b) -> (xor(a, b) * 16777619) % 4294967296)"
    )


_FEATURE_HASH_BUCKETS = 16


def _feature_hash_sql() -> str:
    from multimedia_indexing_ray.functions.text import FNV_BASIS

    cols = ", ".join(
        f"CAST(count(*) FILTER (b.bucket = {j}) AS BIGINT) AS h{j}"
        for j in range(_FEATURE_HASH_BUCKETS)
    )
    return rf"""
    WITH t2 AS (SELECT doc_id, unnest(regexp_extract_all(text, '\S+')) AS tok
                FROM documents),
    b AS (SELECT doc_id,
          CAST({_fnv_sql('tok', FNV_BASIS)} % {_FEATURE_HASH_BUCKETS} AS BIGINT) AS bucket
          FROM t2)
    SELECT d.doc_id, {cols}
    FROM documents d LEFT JOIN b ON d.doc_id = b.doc_id
    GROUP BY d.doc_id
    """


@register("feature_hash_docs", _feature_hash_sql())
def q_feature_hash(sf_dir: str):
    """The hashing trick (Weinberger et al. 2009): fixed-dimension token
    count vectors via bucket = FNV(token) mod B — unbounded vocabulary,
    ZERO shuffles, no learned state; the canonical featurizer when the
    vocabulary can't be broadcast.  One vectorized scatter-add per
    batch; bit-equal FNV fold on both sides."""
    docs = _rp(sf_dir, "documents", ["doc_id", "text"])
    B = _FEATURE_HASH_BUCKETS

    def _fn(batch: pa.Table) -> pa.Table:
        flat, counts = tx.flat_tokens(batch["text"])
        n = batch.num_rows
        mat = np.zeros((n, B), dtype=np.int64)
        if len(flat):
            doc_of = np.repeat(np.arange(n, dtype=np.int64), counts)
            bucket = (tx.fnv1a32_str(flat) % np.uint64(B)).astype(np.int64)
            np.add.at(mat, (doc_of, bucket), 1)
        cols = {"doc_id": batch["doc_id"]}
        for j in range(B):
            cols[f"h{j}"] = pa.array(mat[:, j], pa.int64())
        return pa.table(cols)

    return docs.map_batches(_fn, batch_format="pyarrow")


def _simhash_sql() -> str:
    from multimedia_indexing_ray.functions.text import FNV_BASIS, FNV_BASIS2

    h64 = (
        f"CAST({_fnv_sql('t', FNV_BASIS)} AS UBIGINT) * 4294967296 + "
        f"CAST({_fnv_sql('t', FNV_BASIS2)} AS UBIGINT)"
    )
    return rf"""
    WITH tk AS (SELECT doc_id, regexp_extract_all(text, '\S+') AS toks FROM documents),
    th AS (SELECT doc_id, list_transform(toks, t -> {h64}) AS hs FROM tk),
    v AS (SELECT doc_id, CASE WHEN len(hs) = 0 THEN CAST(0 AS UBIGINT)
      ELSE CAST(list_sum(list_transform(range(0, 64), j ->
        CASE WHEN list_sum(list_transform(hs, h -> CASE WHEN (h >> j) & 1 = 1 THEN 1 ELSE -1 END)) > 0
        THEN CAST(CAST(1 AS UBIGINT) << j AS HUGEINT) ELSE CAST(0 AS HUGEINT) END)) AS UBIGINT) END AS s
      FROM th)
    SELECT doc_id, CAST(CAST(s AS HUGEINT) - CASE WHEN s >= CAST('9223372036854775808' AS UBIGINT)
      THEN CAST('18446744073709551616' AS HUGEINT) ELSE CAST(0 AS HUGEINT) END AS BIGINT) AS simhash
    FROM v
    """


@register("simhash_docs", _simhash_sql())
def q_simhash(sf_dir: str):
    """64-bit SimHash per doc — vectorized FNV token hashing chosen so a
    DuckDB oracle recomputes the exact hash (sketch op, hash-verified)."""
    docs = _rp(sf_dir, "documents", ["doc_id", "text"])
    return dd.simhash_table(docs, "text", "doc_id", concurrency=2)


# --------------------------------------------------------------------------
# embeddings: similarity search + near-dup
# --------------------------------------------------------------------------


def _query_vectors(sf_dir: str, n: int = 5):
    emb = _pq(sf_dir, "embeddings", ["vec_id", "embedding"])
    emb = emb.take(pa.array(range(n)))
    ids = emb["vec_id"].to_numpy()
    mat = np.stack([np.asarray(v, dtype=np.float64) for v in emb["embedding"].to_pylist()])
    return ids, mat


@register(
    "knn_cosine",
    """
    WITH q AS (SELECT vec_id AS qid, CAST(embedding AS DOUBLE[]) AS qe
               FROM embeddings WHERE vec_id < 5)
    SELECT qid AS query_id, vec_id AS neighbor_id, CAST(rank AS BIGINT) AS rank FROM (
      SELECT q.qid, e.vec_id,
        row_number() OVER (PARTITION BY q.qid
          ORDER BY list_cosine_similarity(qe, CAST(e.embedding AS DOUBLE[])) DESC, e.vec_id) AS rank
      FROM q, embeddings e WHERE e.vec_id != q.qid)
    WHERE rank <= 5
    """,
)
def q_knn(sf_dir: str):
    emb = _rp(sf_dir, "embeddings", ["vec_id", "embedding"])
    return nn.brute_force_knn(emb, _query_vectors(sf_dir, 5), "embedding", "vec_id", k=5)


@register(
    "embedding_neardup",
    """
    SELECT a.vec_id AS a_id, b.vec_id AS b_id
    FROM embeddings a JOIN embeddings b
      ON a.label = b.label AND a.vec_id < b.vec_id
    WHERE list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                                 CAST(b.embedding AS DOUBLE[])) > 0.3
    """,
)
def q_embedding_neardup(sf_dir: str):
    emb = _rp(sf_dir, "embeddings", ["vec_id", "embedding", "label"])
    return dd.embedding_neardup_pairs(
        emb, "embedding", "vec_id", "label", threshold=0.3, num_partitions=8
    )


def _ann_index_dir(sf_dir: str, kind: str) -> str:
    """Artifact directory for (sf_dir, kind) — cache key = path + data
    fingerprint (mtime, size): regenerated data at the same path or an
    encoder/model change must never serve a stale artifact.  Exposed so
    bench.py can prune it before timing a genuinely COLD build."""
    import hashlib

    src = os.path.join(sf_dir, "embeddings.parquet")
    st = os.stat(src)
    tag = hashlib.md5(
        f"{os.path.abspath(sf_dir)}|{st.st_mtime_ns}|{st.st_size}".encode()
    ).hexdigest()[:12]
    return f"/tmp/graft_ann/v2/{tag}/{kind}"


def _ensure_ann_index(sf_dir: str, kind: str) -> str:
    """Build-once / query-many: the index artifact is built on first use
    and every later call only reads the probed partitions (the reference's
    append/open/query lifecycle, `AbstractSearchStructure.java:229-257`)."""
    from multimedia_indexing_ray.stages.ann_index import build_ann_index

    d = _ann_index_dir(sf_dir, kind)
    root, tag = os.path.dirname(os.path.dirname(d)), os.path.basename(os.path.dirname(d))
    if not os.path.exists(os.path.join(d, "manifest.json")):
        # prune stale sibling tags for the SAME source dir (regenerated
        # data changes the fingerprint, so old artifacts never get read
        # again — without this, data refreshes accumulate unbounded disk)
        import shutil

        import time as _time

        srcname = os.path.abspath(sf_dir)
        if os.path.isdir(root):
            for t in os.listdir(root):
                tdir = os.path.join(root, t)
                mark = os.path.join(tdir, "src.txt")
                if t == tag:
                    continue
                # grace period: a tag younger than an hour may still be
                # mid-build or mid-read by a concurrent process — only
                # reap clearly-abandoned artifacts.  Unmarked dirs
                # (crashed before src.txt) age out the same way.
                try:
                    age = _time.time() - os.path.getmtime(tdir)
                except OSError:
                    continue
                if age < 3600:
                    continue
                if not os.path.exists(mark) or open(mark).read() == srcname:
                    shutil.rmtree(tdir, ignore_errors=True)
        # src.txt is written BEFORE the build so a crashed build's tag
        # still carries its marker and gets pruned later
        os.makedirs(f"{root}/{tag}", exist_ok=True)
        with open(f"{root}/{tag}/src.txt", "w") as f:
            f.write(srcname)
        emb = _rp(sf_dir, "embeddings", ["vec_id", "embedding"])
        # m=32/ks=256 -> 2 dims per subquantizer on the 64-d embeddings
        # (the reference's 1024-d/m=64 uses 16; these unit vectors need the
        # finer grid — measured recall@5 0.96 vs 0.20 at m=8/ks=64)
        build_ann_index(emb, d, kind=kind, n_lists=8 if kind != "pq" else 1, m=32, ks=256)
    return d


@register(
    "embedding_neardup_lsh",
    """
    SELECT a.vec_id AS a_id, b.vec_id AS b_id
    FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
    WHERE list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                                 CAST(b.embedding AS DOUBLE[])) > 0.3
    """,
)
def q_embedding_neardup_lsh(sf_dir: str):
    """The no-natural-blocking-key scale path: signed-random-projection
    band buckets instead of the label column, in-bucket exact cosine
    verify — now SQL-oracled against the ALL-PAIRS truth.  The band
    config (32 bands x 2 bits) is recall-complete for threshold 0.3 on
    this data (measured; a missed true pair turns the driver row red);
    wider thresholds / bigger corpora should raise bits_per_band and
    accept recall < 1 — the capped-bucket trade the scale path makes."""
    emb = _rp(sf_dir, "embeddings", ["vec_id", "embedding", "label"])
    dim = 64
    pairs = dd.embedding_neardup_lsh(
        emb, "embedding", "vec_id", dim, threshold=0.3, num_partitions=8,
        n_bands=32, bits_per_band=2, bucket_cap=4096,
    )
    return pairs.select_columns(["a_id", "b_id"])


def _recall_vs_exact(sf_dir: str, kind: str, probe, bar: int):
    """Exact-vs-approx conformance (the reference's own evaluation idea,
    `visual/examples/Example.java:155-182`): run the pruned/ADC search
    against the prebuilt artifact, count per-query overlap with exact
    kNN, emit recall_ok = (overlap >= bar).  The bar is each kind's
    measured floor on the test data; everything is seeded-deterministic,
    so the oracle can assert the expected outcome and any recall
    regression turns the row red."""
    from multimedia_indexing_ray.stages.ann_index import ann_search

    idx = _ensure_ann_index(sf_dir, kind)
    q = _query_vectors(sf_dir, 5)
    approx = ann_search(idx, q, k=5, probe=probe).to_pandas()
    emb = _rp(sf_dir, "embeddings", ["vec_id", "embedding"])
    exact = nn.brute_force_knn(emb, q, "embedding", "vec_id", k=5).to_pandas()
    rows = []
    for qid in sorted(q[0].tolist()):
        ex = set(exact.loc[exact.query_id == qid, "neighbor_id"])
        ap = set(approx.loc[approx.query_id == qid, "neighbor_id"])
        rows.append((int(qid), int(len(ex & ap) >= bar)))
    import pandas as pd

    return pd.DataFrame(rows, columns=["query_id", "recall_ok"])


_RECALL_SQL = """
    SELECT vec_id AS query_id, CAST(1 AS BIGINT) AS recall_ok
    FROM embeddings WHERE vec_id < 5
"""


@register("ivf_knn_recall_vs_exact", _RECALL_SQL)
def q_ivf_knn(sf_dir: str):
    """Pruned-probe IVF (probe=3 of 8) exercised end-to-end with a
    recall-vs-exact conformance output (the raw full-probe surface is the
    hash-exact `ivf_knn_full_probe`; pruned raw outputs are pytest-gated
    at recall@5 >= 0.8)."""
    return _recall_vs_exact(sf_dir, "ivf", probe=3, bar=3)


@register("pq_knn_recall_vs_exact", _RECALL_SQL)
def q_pq_knn_recall(sf_dir: str):
    return _recall_vs_exact(sf_dir, "pq", probe=None, bar=4)


@register("ivfpq_knn_recall_vs_exact", _RECALL_SQL)
def q_ivfpq_knn_recall(sf_dir: str):
    return _recall_vs_exact(sf_dir, "ivfpq", probe=3, bar=3)


@register(
    "ivf_knn_full_probe",
    """
    WITH q AS (SELECT vec_id AS qid, CAST(embedding AS DOUBLE[]) AS qe
               FROM embeddings WHERE vec_id < 5)
    SELECT qid AS query_id, vec_id AS neighbor_id, CAST(rank AS BIGINT) AS rank FROM (
      SELECT q.qid, e.vec_id,
        row_number() OVER (PARTITION BY q.qid
          ORDER BY list_cosine_similarity(qe, CAST(e.embedding AS DOUBLE[])) DESC, e.vec_id) AS rank
      FROM q, embeddings e WHERE e.vec_id != q.qid)
    WHERE rank <= 5
    """,
)
def q_ivf_knn_full_probe(sf_dir: str):
    """probe = n_lists scans every partition of the prebuilt IVF-flat
    index with exact cosine — must equal exact kNN (the reference's
    exact-vs-approx conformance idea, `visual/examples/Example.java:155-182`,
    tightened to exactness)."""
    from multimedia_indexing_ray.stages.ann_index import ann_search

    idx = _ensure_ann_index(sf_dir, "ivf")
    return ann_search(idx, _query_vectors(sf_dir, 5), k=5, probe=8)


# --------------------------------------------------------------------------
# flagship: the transcript windowed-feature engine (events adapter)
# --------------------------------------------------------------------------


def _flagship_sql(specs=DEFAULT_SPECS) -> str:
    """DuckDB oracle for the full flagship vector, generated from the same
    spec registry the engine compiles — every window family is the SQL
    proven individually by sliding_1h / tumbling_1h / sessionize_30m /
    lag_lead_value, composed over the events->transcript adapter mapping
    (sources/transcripts.py:events_to_transcripts).

    Bit-exactness: window sums are integer-valued float64 (prefix-sum
    differences == direct sums below 2**53); means/durations are single
    divisions with identical operands on both sides.  Engine sliding
    windows are (t-W, t] (closed="right"), expressed on the microsecond
    grid as RANGE (W-1us) PRECEDING AND CURRENT ROW."""
    # condition mask -> SQL expression over the adapter's one-hot columns
    def mask(cond):
        if cond is None:
            return None
        kind, value = cond
        if kind == "role":
            return "is_tool_role" if value == "tool" else f"is_{value}"
        if kind == "tool_notnull":
            return "has_tool"
        raise ValueError(cond)

    sel: "list[str]" = []
    windows: "dict[str, str]" = {
        "wrow": "PARTITION BY conv_id ORDER BY ts, turn_idx",
    }

    def agg_exprs(name: str, w: str, m: "Optional[str]"):
        cnt = f"SUM(1.0) OVER {w}" if m is None else f"SUM({m}) OVER {w}"
        stl = (
            f"SUM(text_len) OVER {w}"
            if m is None
            else f"SUM({m} * text_len) OVER {w}"
        )
        stok = (
            f"SUM(n_tokens) OVER {w}"
            if m is None
            else f"SUM({m} * n_tokens) OVER {w}"
        )
        sel.append(f"{cnt} AS {name}_count")
        sel.append(f"{stl} AS {name}_sum_text_len")
        sel.append(
            f"CASE WHEN {cnt} > 0 THEN ({stl}) / ({cnt}) ELSE 0.0 END"
            f" AS {name}_mean_text_len"
        )
        sel.append(f"{stok} AS {name}_sum_n_tokens")

    for s in specs.sliding:
        w_us = int(s.width_s * 1_000_000)
        off = w_us if s.closed == "both" else w_us - 1
        wname = f"w_{s.name}"
        windows[wname] = (
            "PARTITION BY conv_id ORDER BY ts RANGE BETWEEN "
            f"to_microseconds({off}) PRECEDING AND CURRENT ROW"
        )
        agg_exprs(s.name, wname, mask(s.condition))
    for t in specs.tumbling:
        wname = f"w_{t.name}"
        # epoch-aligned tumbling (origin 0, width 3600s == date_trunc hour)
        assert t.width_s == 3600.0, "oracle covers the hour-aligned spec"
        windows[wname] = (
            "PARTITION BY conv_id, date_trunc('hour', ts) ORDER BY ts "
            "RANGE BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW"
        )
        agg_exprs(t.name, wname, mask(t.condition))
    for s in specs.session:
        gap_us = int(s.gap_s * 1_000_000)
        wname = f"w_{s.name}"
        windows[wname] = (
            f"PARTITION BY conv_id, sess_{gap_us} ORDER BY ts "
            "RANGE BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW"
        )
        sel.append(f"CAST(count(*) OVER {wname} AS DOUBLE) AS {s.name}_turns_so_far")
        sel.append(
            "CAST(date_diff('microsecond', "
            f"min(ts) OVER (PARTITION BY conv_id, sess_{gap_us}), ts) AS DOUBLE)"
            f" / 1000000.0 AS {s.name}_duration_so_far_s"
        )
        sel.append(f"CAST(sess_{gap_us} AS DOUBLE) AS {s.name}_session_idx")
    for l in specs.lags:
        sel.append(f"lag({l.feature}, {l.k}, 0.0) OVER wrow AS lag{l.k}_{l.feature}")
    for l in specs.leads:
        sel.append(f"lead({l.feature}, {l.k}, 0.0) OVER wrow AS lead{l.k}_{l.feature}")

    sess_cols = ", ".join(
        "CAST(SUM(CASE WHEN gap_us > {g} THEN 1 ELSE 0 END) OVER "
        "(PARTITION BY conv_id ORDER BY ts, turn_idx ROWS UNBOUNDED PRECEDING)"
        " AS BIGINT) AS sess_{g}".format(g=int(s.gap_s * 1_000_000))
        for s in specs.session
    )
    win_clause = ", ".join(f"{n} AS ({d})" for n, d in windows.items())
    base = ", ".join(
        (
            "text_len, n_tokens, gap_s, is_user, is_assistant, is_system, "
            "is_tool_role, has_tool"
        ).split(", ")
    )
    return rf"""
    WITH t AS (
      SELECT CAST(user_id AS VARCHAR) AS conv_id,
             event_id AS turn_idx,
             ts,
             CAST(length(COALESCE(props, '')) AS DOUBLE) AS text_len,
             CAST(len(regexp_extract_all(COALESCE(props, ''), '\S+')) AS DOUBLE) AS n_tokens,
             CASE WHEN event_type = 'user' THEN 1.0 ELSE 0.0 END AS is_user,
             CASE WHEN event_type = 'assistant' THEN 1.0 ELSE 0.0 END AS is_assistant,
             CASE WHEN event_type = 'system' THEN 1.0 ELSE 0.0 END AS is_system,
             CASE WHEN event_type = 'tool' THEN 1.0 ELSE 0.0 END AS is_tool_role,
             CASE WHEN event_type = 'purchase' THEN 1.0 ELSE 0.0 END AS has_tool
      FROM events
    ), t2 AS (
      SELECT *, COALESCE(date_diff('microsecond',
        lag(ts) OVER (PARTITION BY conv_id ORDER BY ts, turn_idx), ts), 0) AS gap_us
      FROM t
    ), t3 AS (
      SELECT *, CAST(gap_us AS DOUBLE) / 1000000.0 AS gap_s, {sess_cols}
      FROM t2
    )
    SELECT conv_id, turn_idx, ts, {base},
      {", ".join(sel)}
    FROM t3
    WINDOW {win_clause}
    """


_NOLEAD_SPECS = FeatureSpecs(
    sliding=DEFAULT_SPECS.sliding,
    tumbling=DEFAULT_SPECS.tumbling,
    session=DEFAULT_SPECS.session,
    lags=DEFAULT_SPECS.lags,
    leads=(),  # incremental (streaming) mode cannot see future rows
    include_base=DEFAULT_SPECS.include_base,
)


@register("incremental_flagship_parity", _flagship_sql(_NOLEAD_SPECS))
def q_incremental_parity(sf_dir: str):
    """The INCREMENTAL (streaming) featurizer replaying the event stream
    in arrival order, equal_ts='batch' visibility — must reproduce the
    batch flagship SQL bit-for-bit (minus the label-side lead columns,
    which need future rows).  This is the §2.9 stream/batch-unification
    check surfaced to the driver (state/incremental.py documents the
    equal-ts semantics flag)."""
    from multimedia_indexing_ray.state.incremental import IncrementalFeaturizer

    ev = _rp(sf_dir, "events")
    t = events_to_transcripts(ev)
    tbl = pa.concat_tables(
        list(t.iter_batches(batch_size=None, batch_format="pyarrow"))
    )
    # one replay call: equal-(conv, ts) runs arrive intact by construction
    inc = IncrementalFeaturizer(_NOLEAD_SPECS, equal_ts="batch")
    return inc.append_batch(tbl)


def _serving_current_sql() -> str:
    feats = ", ".join(
        f"{n} AS matched_{n}" for n in _NOLEAD_SPECS.feature_columns()
    )
    return f"""
    WITH flag AS ({_flagship_sql(_NOLEAD_SPECS)}),
    r AS (SELECT *, row_number() OVER (PARTITION BY conv_id
                                       ORDER BY ts DESC, turn_idx DESC) AS rn
          FROM flag)
    SELECT conv_id, ts AS matched_ts,
      CAST(turn_idx AS BIGINT) AS matched_turn_idx, {feats}
    FROM r WHERE rn = 1
    """


@register("incremental_serving_current", _serving_current_sql())
def q_incremental_serving_current(sf_dir: str):
    """LIVE point-lookup serving over sharded long-lived actors — the
    YFCC100M open-index query loop
    (`visual/examples/YFCC100MExample.java:64-195`) re-expressed as Ray
    actors: the event stream is routed by conv-hash to N
    IncrementalFeaturizer shards in arrival (ts) order, then `current()`
    returns the latest feature vector per conversation.  The oracle is
    the batch flagship SQL's LAST row per conversation, so hash-green
    means the streaming store serves exactly what a batch rebuild would.

    Scale shape: per-shard state is O(live conversations) bounded-window
    buffers; ingest is embarrassingly parallel across shards (one actor
    call per (shard, batch)); lookups never touch the event log."""
    import ray as _ray

    from multimedia_indexing_ray.stages.partition import partition_ids
    from multimedia_indexing_ray.state.incremental import sharded_incremental

    ev = _rp(sf_dir, "events")
    t = events_to_transcripts(ev)
    num_shards = 4
    actors, route = sharded_incremental(
        _NOLEAD_SPECS, num_shards=num_shards, equal_ts="batch"
    )
    # arrival order: one distributed sort establishes (conv, ts, turn)
    # order (a unique key triple — no stability concern); the driver then
    # STREAMS sorted batches to the shards, holding only a carry buffer
    # of the last (possibly batch-spanning) conversation run so
    # equal-(conv, ts) runs arrive intact (equal_ts='batch' contract).
    # Nothing corpus-sized ever materializes on the driver.
    try:
        refs, all_convs = [], set()
        carry: "pa.Table | None" = None
        for b in t.sort(["conv_id", "ts", "turn_idx"]).iter_batches(
            batch_size=8192, batch_format="pyarrow"
        ):
            if carry is not None and carry.num_rows:
                b = pa.concat_tables([carry, b]).combine_chunks()
            conv = np.asarray(b["conv_id"].to_numpy(zero_copy_only=False), dtype=object)
            all_convs.update(conv)
            # split off the trailing run (it may continue in the next batch)
            cut = int(np.flatnonzero(conv != conv[-1])[-1] + 1) if (conv != conv[-1]).any() else 0
            if cut:
                refs.extend(route(b.slice(0, cut)))
            carry = b.slice(cut)
        if carry is not None and carry.num_rows:
            refs.extend(route(carry))
        _ray.get(refs)  # ingest complete

        convs = sorted(all_convs)
        pids = partition_ids(np.array(convs, dtype=object), num_shards)
        lookups = [
            actors[s].current.remote([c for c, p in zip(convs, pids) if p == s])
            for s in range(num_shards)
            if (pids == s).any()
        ]
        return pa.concat_tables(_ray.get(lookups))
    finally:
        for a in actors:  # long-lived shards must not leak on error paths
            _ray.kill(a)


@register("flagship_features", _flagship_sql())
def q_flagship(sf_dir: str):
    ev = _rp(sf_dir, "events")
    return compute_features(
        events_to_transcripts(ev), DEFAULT_SPECS, num_partitions=32
    )


def queries() -> "Dict[str, Callable[[str], Any]]":
    return {name: q.fn for name, q in REGISTRY.items()}


def oracle_sql() -> "Dict[str, str]":
    return {name: q.sql for name, q in REGISTRY.items() if q.sql is not None}


# --------------------------------------------------------------------------
# sampling / limits / per-group top-k (SURVEY.md §2.6 K1/K7/K8/K9 analogs)
# --------------------------------------------------------------------------


@register(
    "limit_sample",
    "SELECT event_id, ts FROM events ORDER BY ts, event_id LIMIT 100",
)
def q_limit_sample(sf_dir: str):
    """Prefix sampling (K9): first n rows under the stable ordering —
    per-block partial top-100, then one tiny merge (no all-to-all sort
    just to take a head; same pattern as brute_force_knn)."""
    ev = _rp(sf_dir, "events", ["event_id", "ts"])

    def _partial(batch: pa.Table) -> pa.Table:
        idx = pc.sort_indices(batch, sort_keys=[("ts", "ascending"), ("event_id", "ascending")])
        return batch.take(idx.slice(0, 100))

    partials = ev.map_batches(_partial, batch_format="pyarrow")
    # the residual sort runs over <= 100 x n_blocks rows, not the table
    return partials.sort(["ts", "event_id"]).limit(100)


def _fnv1a32(ids: np.ndarray) -> np.ndarray:
    """Vectorized FNV-1a 32-bit over the decimal-string bytes of an int64
    id — a stable content hash both numpy and SQL can compute exactly
    (no per-row hashlib loop; verified bit-equal to the DuckDB
    list_reduce expression in the oracle)."""
    ids = np.asarray(ids, dtype=np.int64)
    if len(ids) and ids.min() < 0:
        # the digit fold below has no '-' character and a wrong length for
        # negatives — it would silently diverge from the SQL oracle's
        # CAST(id AS VARCHAR); fail loudly instead of mis-sampling
        raise ValueError("_fnv1a32 requires non-negative ids")
    pows = 10 ** np.arange(1, 19, dtype=np.int64)  # 10..10^18
    ndig = np.searchsorted(pows, ids, side="right") + 1  # exact digit count
    maxd = int(ndig.max()) if len(ids) else 0
    h = np.full(len(ids), 2166136261, dtype=np.uint64)
    for p in range(maxd, 0, -1):  # most-significant digit first
        digit = (ids // 10 ** (p - 1)) % 10
        ch = (digit + 48).astype(np.uint64)  # ascii '0'..'9'
        nh = ((h ^ ch) * np.uint64(16777619)) % np.uint64(2**32)
        h = np.where(ndig >= p, nh, h)
    return h


@register(
    "sample_hash",
    """
    SELECT event_id FROM events
    WHERE list_reduce(
        list_prepend(CAST(2166136261 AS BIGINT),
          list_transform(split(CAST(event_id AS VARCHAR), ''), c -> ascii(c))),
        (a, b) -> (xor(a, b) * 16777619) % 4294967296
      ) % 8 = 0
    """,
)
def q_sample_hash(sf_dir: str):
    """Deterministic ~12.5% sample by content hash (K8 rejection-sampling
    analog: same rows on every run, any partitioning), fully vectorized."""
    ev = _rp(sf_dir, "events", ["event_id"])

    def _fn(batch: pa.Table) -> pa.Table:
        h = _fnv1a32(batch["event_id"].to_numpy())
        return batch.filter(pa.array(h % np.uint64(8) == 0))

    return ev.map_batches(_fn, batch_format="pyarrow")


@register(
    "split_assign",
    """
    SELECT event_id, split_id,
      CASE WHEN split_id < 8 THEN 'train' WHEN split_id = 8 THEN 'val'
           ELSE 'test' END AS split
    FROM (SELECT event_id,
      CAST(list_reduce(
        list_prepend(CAST(2166136261 AS BIGINT),
          list_transform(split(CAST(event_id AS VARCHAR), ''), c -> ascii(c))),
        (a, b) -> (xor(a, b) * 16777619) % 4294967296
      ) % 10 AS BIGINT) AS split_id FROM events)
    """,
)
def q_split_assign(sf_dir: str):
    """Deterministic train/val/test assignment by content hash — the K8
    'numSamples independent seeded outputs' analog
    (`visual/quantization/SampleLocalFeatures.java:49-95`): same row ->
    same split on every run, any partitioning, no coordination."""
    ev = _rp(sf_dir, "events", ["event_id"])

    def _fn(batch: pa.Table) -> pa.Table:
        sid = (_fnv1a32(batch["event_id"].to_numpy()) % np.uint64(10)).astype(np.int64)
        split = np.where(sid < 8, "train", np.where(sid == 8, "val", "test"))
        return pa.table(
            {
                "event_id": batch["event_id"],
                "split_id": pa.array(sid, pa.int64()),
                "split": pa.array(split.astype(object), pa.string()),
            }
        )

    return ev.map_batches(_fn, batch_format="pyarrow")


@register(
    "mixture_resample_docs",
    f"""
    WITH d AS (
      SELECT doc_id, source,
        2500 + (CAST(replace(source, 'src', '') AS BIGINT) % 4) * 7500 AS wbp,
        list_reduce(
          list_prepend(CAST(2166136261 AS BIGINT),
            list_transform(split(CAST(doc_id AS VARCHAR), ''), c -> ascii(c))),
          (a, b) -> (xor(a, b) * 16777619) % 4294967296
        ) % 10000 AS h
      FROM documents)
    SELECT doc_id, source, CAST(copy_idx AS BIGINT) AS copy_idx
    FROM d, range(0, 3) r(copy_idx)
    WHERE copy_idx < wbp // 10000
       OR (copy_idx = wbp // 10000 AND h < wbp % 10000)
    """,
)
def q_mixture_resample_docs(sf_dir: str):
    """Data-mixture resampling — the corpus-assembly step that up/down-
    weights sources to a target mixture (epochs-per-source).  Each
    source carries a weight in basis points (here a deterministic
    function of the source index: 0.25x / 1.0x / 1.75x / 2.5x), a doc
    emits floor(w) full copies plus one fractional copy kept iff its
    content hash clears the remainder — so the expected token mixture
    hits the target EXACTLY while every decision is a pure function of
    (doc_id, source): same rows out on every run, any partitioning, no
    coordination, no RNG state (the K8 rejection-sampling hash,
    `_fnv1a32`).  1->N amplification is one np.repeat per batch;
    zero shuffles."""
    docs = _rp(sf_dir, "documents", ["doc_id", "source"])

    def _resample(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        src_idx = pc.cast(
            pc.utf8_slice_codeunits(batch["source"], 3, 32), pa.int64()
        ).to_numpy(zero_copy_only=False)
        wbp = 2500 + (src_idx % 4) * 7500
        h = (_fnv1a32(ids) % np.uint64(10000)).astype(np.int64)
        n_copies = wbp // 10000 + (h < wbp % 10000)
        rep = np.repeat(np.arange(len(ids)), n_copies)
        # copy_idx = position within each doc's run of repeats
        first = np.r_[0, np.cumsum(n_copies)[:-1]]
        copy_idx = np.arange(len(rep)) - np.repeat(first, n_copies)
        out = batch.take(pa.array(rep))
        return out.append_column("copy_idx", pa.array(copy_idx, pa.int64()))

    return docs.map_batches(_resample, batch_format="pyarrow")


@register(
    "export_roundtrip",
    f"""
    SELECT event_id, event_type,
      {_CENTS_SQL.format(col='value')} AS value_cents
    FROM events
    """,
)
def q_export_roundtrip(sf_dir: str):
    """S5/S6/S7 as a DRIVER-VERIFIED query: transform (rename + cents
    cast), write hive-partitioned parquet (one directory per event_type
    — the resumable-output layout), read it back through the partition
    column, return the round-tripped rows.  Hash-green means the sink
    preserves values, dtypes and the partition column exactly."""
    import shutil

    ev = _rp(sf_dir, "events", ["event_id", "event_type", "value"])

    def _xform(batch: pa.Table) -> pa.Table:
        c = _cents(batch["value"].to_numpy(zero_copy_only=False)).astype(np.int64)
        return pa.table(
            {
                "event_id": batch["event_id"],
                "event_type": batch["event_type"],
                "value_cents": pa.array(c, pa.int64()),
            }
        )

    out_dir = os.path.join(
        "/tmp/graft_export", os.path.basename(os.path.normpath(sf_dir)), "events_by_type"
    )
    shutil.rmtree(out_dir, ignore_errors=True)
    ev.map_batches(_xform, batch_format="pyarrow").write_parquet(
        out_dir, partition_cols=["event_type"]
    )
    back = ray.data.read_parquet(out_dir)

    def _untype(batch: pa.Table) -> pa.Table:
        # hive partition values come back dictionary-encoded; restore the
        # plain string dtype so the schema round-trips exactly
        cols = {}
        for name in ("event_id", "event_type", "value_cents"):
            col = batch[name]
            if pa.types.is_dictionary(col.type):
                col = col.cast(col.type.value_type)
            cols[name] = col
        return pa.table(cols)

    return back.map_batches(_untype, batch_format="pyarrow")


@register(
    "rollup_type_hour",
    f"""
    SELECT COALESCE(event_type, '<all>') AS event_type,
      COALESCE(CAST(date_trunc('hour', ts) AS VARCHAR), '<all>') AS hour,
      CAST(count(*) AS BIGINT) AS n,
      CAST(SUM({_CENTS_SQL.format(col='value')}) AS BIGINT) AS value_cents
    FROM events
    GROUP BY GROUPING SETS ((event_type, date_trunc('hour', ts)),
                            (event_type), ())
    """,
)
def q_rollup_type_hour(sf_dir: str):
    """ROLLUP / GROUPING SETS in one input pass: the finest-granularity
    (type, hour) cells are the only thing aggregated from data (the
    same low-cardinality combiner as pricing_summary); the (type) and
    grand-total levels are derived from those cells in the final tiny
    block — never a second scan, never a second shuffle."""
    ev = _rp(sf_dir, "events", ["event_type", "ts", "value"])

    def _partial(batch: pa.Table) -> pa.Table:
        ts = batch["ts"].cast(pa.int64()).to_numpy()
        hour = ts - (ts % np.int64(3_600_000_000))
        c = _cents(batch["value"].to_numpy(zero_copy_only=False)).astype(np.int64)
        t = pa.table(
            {
                "event_type": batch["event_type"],
                "hour_us": pa.array(hour, pa.int64()),
                "n": pa.array(np.ones(len(c), np.int64), pa.int64()),
                "value_cents": pa.array(c, pa.int64()),
            }
        )
        return _pa_group_sum(t, ["event_type", "hour_us"], ["n", "value_cents"])

    def _final(batch: pa.Table) -> pa.Table:
        g = _pa_group_sum(batch, ["event_type", "hour_us"], ["n", "value_cents"])
        et = np.asarray(g["event_type"]).astype(object)
        hr_us = g["hour_us"].to_numpy()
        n = g["n"].to_numpy()
        vc = g["value_cents"].to_numpy()
        hr = (
            # slice off Arrow's ".000000" fractional suffix — DuckDB's
            # VARCHAR cast of a whole-second timestamp omits it
            pc.utf8_slice_codeunits(
                pa.array(hr_us, pa.int64()).cast(pa.timestamp("us")).cast(pa.string()),
                0,
                19,
            )
            .to_numpy(zero_copy_only=False)
            .astype(object)
        )
        # derive the coarser levels from the finest cells
        types, tinv = np.unique(et.astype(str), return_inverse=True)
        # int64 scatter-adds — bincount(weights=) rounds above 2^53
        tn = np.zeros(len(types), np.int64)
        tv = np.zeros(len(types), np.int64)
        np.add.at(tn, tinv, n)
        np.add.at(tv, tinv, vc)
        out_et = np.concatenate([et, types.astype(object), np.array(["<all>"], object)])
        out_hr = np.concatenate(
            [hr, np.full(len(types) + 1, "<all>", dtype=object)]
        )
        out_n = np.concatenate([n, tn, [int(n.sum())]])
        out_v = np.concatenate([vc, tv, [int(vc.sum())]])
        return pa.table(
            {
                "event_type": pa.array(out_et, pa.string()),
                "hour": pa.array(out_hr, pa.string()),
                "n": pa.array(out_n, pa.int64()),
                "value_cents": pa.array(out_v, pa.int64()),
            }
        )

    return (
        ev.map_batches(_partial, batch_format="pyarrow")
        .repartition(1)
        .map_batches(_final, batch_format="pyarrow", batch_size=None)
    )


_EVENT_TYPES = ("click", "error", "purchase", "signup", "view")


@register(
    "user_type_pivot",
    f"""
    SELECT user_id,
      {', '.join(f"CAST(count(*) FILTER (event_type = '{t}') AS BIGINT) AS n_{t}" for t in _EVENT_TYPES)},
      CAST(count(*) AS BIGINT) AS n_total
    FROM events GROUP BY user_id
    """,
)
def q_user_type_pivot(sf_dir: str):
    """One-hot PIVOT aggregate (feature-engineering staple): per-user
    event-type counts widened to columns against a fixed vocabulary —
    the M6 'one-hot featurizer' lifted from per-row to per-entity.
    Per-batch (user, type) partial counts -> one slim exchange -> a
    vectorized scatter-add pivot per partition; the wide row never
    exists until the final kernel."""
    from multimedia_indexing_ray.stages.partition import map_partitions_by_key

    ev = _rp(sf_dir, "events", ["user_id", "event_type"])
    vocab = np.array(_EVENT_TYPES)

    def _partial(batch: pa.Table) -> pa.Table:
        g = pa.TableGroupBy(batch, ["user_id", "event_type"]).aggregate([([], "count_all")])
        return pa.table(
            {
                "user_id": g["user_id"],
                "event_type": g["event_type"],
                "n": g["count_all"].cast(pa.int64()),
            }
        )

    def _pivot(table: pa.Table) -> pa.Table:
        uid = table["user_id"].to_numpy()
        et = np.asarray(table["event_type"])
        n = table["n"].to_numpy()
        users, uinv = np.unique(uid, return_inverse=True)
        tcode = np.searchsorted(vocab, et)
        known = (tcode < len(vocab)) & (vocab[np.minimum(tcode, len(vocab) - 1)] == et)
        mat = np.zeros((len(users), len(vocab)), dtype=np.int64)
        np.add.at(mat, (uinv[known], tcode[known]), n[known])
        # n_total counts EVERY event (count(*) in the oracle), including
        # types outside the fixed vocabulary — only the per-type columns
        # are vocabulary-bound
        total = np.zeros(len(users), dtype=np.int64)
        np.add.at(total, uinv, n)
        cols = {"user_id": pa.array(users, pa.int64())}
        for j, t in enumerate(_EVENT_TYPES):
            cols[f"n_{t}"] = pa.array(mat[:, j], pa.int64())
        cols["n_total"] = pa.array(total, pa.int64())
        return pa.table(cols)

    partials = ev.map_batches(_partial, batch_format="pyarrow")
    return map_partitions_by_key(partials, "user_id", _pivot, num_partitions=16)


@register(
    "value_bucketize",
    f"""
    WITH v AS (SELECT event_id, {_CENTS_SQL.format(col='value')} AS c FROM events),
    r AS (SELECT c, row_number() OVER (ORDER BY c) AS rn,
                 count(*) OVER () AS n FROM v),
    b AS (SELECT MIN(CASE WHEN rn = (q*n + 99)//100 THEN c END) AS bc
          FROM r, unnest([10,20,30,40,50,60,70,80,90]) AS t(q) GROUP BY t.q)
    SELECT event_id, c,
      (SELECT CAST(count(*) AS BIGINT) FROM b WHERE b.bc <= v.c) AS bucket
    FROM v
    """,
)
def q_value_bucketize(sf_dir: str):
    """Equi-depth DISCRETIZATION: exact global decile boundaries from the
    mergeable cent-histogram (exchange = distinct cents, never rows),
    then a broadcast searchsorted assigns every event its bucket.  The
    bucket rule (count of boundaries <= c) is pure integer arithmetic,
    so duplicate boundaries at skewed values stay well-defined on both
    sides.  Two passes over the input; pass 1's result is 9 numbers."""
    ev = _rp(sf_dir, "events", ["event_id", "value"])

    def _hist(batch: pa.Table) -> pa.Table:
        c = _cents(batch["value"].to_numpy(zero_copy_only=False)).astype(np.int64)
        u, cnt = np.unique(c, return_counts=True)
        return pa.table({"c": pa.array(u, pa.int64()), "n": pa.array(cnt, pa.int64())})

    hist = (
        ev.map_batches(_hist, batch_format="pyarrow")
        .groupby("c")
        .sum("n")
        .take_all()
    )
    cs = np.array([r["c"] for r in hist], dtype=np.int64)
    ns = np.array([r["sum(n)"] for r in hist], dtype=np.int64)
    order = np.argsort(cs)
    cs, ns = cs[order], ns[order]
    cum = np.cumsum(ns)
    n = int(cum[-1])
    ranks = np.array([(q * n + 99) // 100 for q in range(10, 100, 10)], dtype=np.int64)
    boundaries = np.sort(cs[np.searchsorted(cum, ranks, side="left")])

    def _assign(batch: pa.Table) -> pa.Table:
        c = _cents(batch["value"].to_numpy(zero_copy_only=False)).astype(np.int64)
        bucket = np.searchsorted(boundaries, c, side="right").astype(np.int64)
        return pa.table(
            {
                "event_id": batch["event_id"],
                "c": pa.array(c, pa.int64()),
                "bucket": pa.array(bucket, pa.int64()),
            }
        )

    return ev.map_batches(_assign, batch_format="pyarrow")


@register(
    "weighted_priority_sample",
    """
    SELECT event_id, value, priority FROM (
      SELECT event_id, value,
        CAST(list_reduce(
          list_prepend(CAST(2166136261 AS BIGINT),
            list_transform(split(CAST(event_id AS VARCHAR), ''), c -> ascii(c))),
          (a, b) -> (xor(a, b) * 16777619) % 4294967296
        ) AS DOUBLE) / (value + 1.0) AS priority
      FROM events)
    ORDER BY priority, event_id LIMIT 300
    """,
)
def q_weighted_priority_sample(sf_dir: str):
    """Deterministic WEIGHTED sampling: priority = content-hash / weight,
    keep the k smallest — higher-value rows get proportionally smaller
    priorities, and every arithmetic step (exact uint32 hash as double,
    one add, one correctly-rounded divide) is bit-identical in numpy and
    DuckDB, so the sample is reproducible under any partitioning AND
    SQL-verifiable.  Per-block partial top-k -> tiny merge; no global
    sort."""
    ev = _rp(sf_dir, "events", ["event_id", "value"])
    k = 300

    def _partial_top(batch: pa.Table) -> pa.Table:
        ids = batch["event_id"].to_numpy()
        val = batch["value"].to_numpy(zero_copy_only=False)
        pri = _fnv1a32(ids).astype(np.float64) / (val + 1.0)
        take = np.lexsort((ids, pri))[:k]
        return pa.table(
            {
                "event_id": pa.array(ids[take], pa.int64()),
                "value": pa.array(val[take], pa.float64()),
                "priority": pa.array(pri[take], pa.float64()),
            }
        )

    return (
        ev.map_batches(_partial_top, batch_format="pyarrow")
        .repartition(1)
        .map_batches(_partial_top, batch_format="pyarrow", batch_size=None)
    )


@register(
    "session_funnel",
    """
    WITH s AS (
      SELECT user_id, ts, event_type,
        CAST(SUM(CASE WHEN gap_us > 1800000000 THEN 1 ELSE 0 END)
             OVER (PARTITION BY user_id ORDER BY ts, event_id) AS BIGINT) AS session_id
      FROM (SELECT *, COALESCE(date_diff('microsecond',
              lag(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id), ts), 0) AS gap_us
            FROM events)
    )
    SELECT user_id, session_id,
      CAST(count(*) AS BIGINT) AS n_events,
      CAST(count(*) FILTER (event_type = 'view') AS BIGINT) AS n_views,
      CAST(count(*) FILTER (event_type = 'purchase') AS BIGINT) AS n_purchases,
      COALESCE(MIN(ts) FILTER (event_type = 'view')
               < MAX(ts) FILTER (event_type = 'purchase'), FALSE) AS converted
    FROM s GROUP BY user_id, session_id
    """,
)
def q_session_funnel(sf_dir: str):
    """In-session conversion FUNNEL (view -> later purchase within one
    inactivity-gap session): sessionization AND the per-session funnel
    aggregate run in the SAME partition kernel after the one keyed
    exchange — no second shuffle for the rollup.  `converted` uses the
    strict ts rule (first view strictly before last purchase), identical
    on both sides."""
    from multimedia_indexing_ray.functions import segments as sg
    from multimedia_indexing_ray.stages.keyed import _codes, _sort_table, _ts_us
    from multimedia_indexing_ray.stages.partition import map_partitions_by_key

    ev = _rp(sf_dir, "events", ["event_id", "user_id", "ts", "event_type"])
    thr_us = 1_800_000_000

    def kernel(table: pa.Table) -> pa.Table:
        t = _sort_table(table, "user_id", "ts", "event_id")
        codes = _codes(t, "user_id")
        starts = sg.segment_starts(codes)
        ts = _ts_us(t, "ts")
        gap = sg.seg_gap_us(ts, starts)
        bound = sg.session_boundaries(gap.astype(np.float64), starts, float(thr_us))
        gid = sg.group_index(bound)  # global session ordinal over partition
        conv_bound = np.zeros(t.num_rows, dtype=bool)
        conv_bound[starts] = True
        gid0 = gid[sg.group_start_rows(conv_bound)]
        sid = (gid - gid0).astype(np.int64)
        et = np.asarray(t["event_type"]).astype(str)
        is_view = et == "view"
        is_purchase = et == "purchase"
        # per-session segment reductions over the (already sorted) rows
        s_starts = sg.segment_starts(gid)
        n_events = np.diff(np.r_[s_starts, len(gid)]).astype(np.int64)
        n_views = np.add.reduceat(is_view.astype(np.int64), s_starts)
        n_purch = np.add.reduceat(is_purchase.astype(np.int64), s_starts)
        big = np.int64(2**62)
        first_view = np.minimum.reduceat(np.where(is_view, ts, big), s_starts)
        last_purch = np.maximum.reduceat(np.where(is_purchase, ts, -big), s_starts)
        converted = (n_views > 0) & (n_purch > 0) & (first_view < last_purch)
        uid = t["user_id"].to_numpy()
        return pa.table(
            {
                "user_id": pa.array(uid[s_starts], pa.int64()),
                "session_id": pa.array(sid[s_starts], pa.int64()),
                "n_events": pa.array(n_events, pa.int64()),
                "n_views": pa.array(n_views.astype(np.int64), pa.int64()),
                "n_purchases": pa.array(n_purch.astype(np.int64), pa.int64()),
                "converted": pa.array(converted, pa.bool_()),
            }
        )

    return map_partitions_by_key(ev, "user_id", kernel, num_partitions=32)


@register(
    "retention_cohorts",
    """
    WITH d AS (SELECT user_id,
                 CAST(epoch_us(ts) AS BIGINT) // 86400000000 AS day FROM events),
    u AS (SELECT user_id, MIN(day) AS cohort FROM d GROUP BY user_id),
    a AS (SELECT DISTINCT d.user_id, u.cohort, d.day - u.cohort AS day_offset
          FROM d JOIN u USING (user_id))
    SELECT cohort AS cohort_day, day_offset, CAST(count(*) AS BIGINT) AS n_users
    FROM a GROUP BY cohort, day_offset
    """,
)
def q_retention_cohorts(sf_dir: str):
    """Retention-cohort matrix (the activation/retention table every
    event pipeline ships): cohort = each user's first active day; one
    keyed exchange computes per-user cohort AND distinct active days in
    the same kernel (no second scan, no join); the (cohort, offset)
    cells then fold through the low-cardinality coalesced combiner."""
    from multimedia_indexing_ray.stages.partition import map_partitions_by_key

    ev = _rp(sf_dir, "events", ["user_id", "ts"])
    DAY_US = np.int64(86_400_000_000)

    def _days(batch: pa.Table) -> pa.Table:
        day = batch["ts"].cast(pa.int64()).to_numpy() // DAY_US
        t = pa.table({"user_id": batch["user_id"], "day": pa.array(day, pa.int64())})
        # per-batch distinct (user, day) combiner
        g = pa.TableGroupBy(t, ["user_id", "day"]).aggregate([])
        return g

    def _cohort(table: pa.Table) -> pa.Table:
        uid = table["user_id"].to_numpy()
        day = table["day"].to_numpy()
        order = np.lexsort((day, uid))
        uid, day = uid[order], day[order]
        starts = np.flatnonzero(np.r_[True, uid[1:] != uid[:-1]])
        counts = np.diff(np.r_[starts, len(uid)])
        cohort = np.repeat(day[starts], counts)  # min day = first after sort
        off = day - cohort
        # distinct (user, day) within partition: drop adjacent dups
        keep = np.r_[True, (uid[1:] != uid[:-1]) | (day[1:] != day[:-1])]
        t = pa.table(
            {
                "cohort_day": pa.array(cohort[keep], pa.int64()),
                "day_offset": pa.array(off[keep], pa.int64()),
                "n_users": pa.array(np.ones(int(keep.sum()), np.int64), pa.int64()),
            }
        )
        return _pa_group_sum(t, ["cohort_day", "day_offset"], ["n_users"])

    cells = map_partitions_by_key(
        ev.map_batches(_days, batch_format="pyarrow"), "user_id", _cohort,
        num_partitions=16,
    )
    return _tiny_group_sum(cells, ["cohort_day", "day_offset"], ["n_users"])


@register(
    "group_split_assign",
    """
    SELECT user_id, CAST(count(*) AS BIGINT) AS n_events, split
    FROM (SELECT user_id,
      CASE WHEN split_id < 8 THEN 'train' WHEN split_id = 8 THEN 'val'
           ELSE 'test' END AS split
      FROM (SELECT user_id,
        CAST(list_reduce(
          list_prepend(CAST(2166136261 AS BIGINT),
            list_transform(split(CAST(user_id AS VARCHAR), ''), c -> ascii(c))),
          (a, b) -> (xor(a, b) * 16777619) % 4294967296
        ) % 10 AS BIGINT) AS split_id FROM events))
    GROUP BY user_id, split
    """,
)
def q_group_split_assign(sf_dir: str):
    """GROUP-leakage-free train/val/test split: the unit of assignment is
    the entity (user/conversation), not the row — every event of a user
    lands in the same split, so no near-identical rows from one
    conversation straddle train and test.  Per-batch partial counts ->
    one slim (user_id, n) exchange; the split label is a pure function
    of the key hash (no coordination, stable under any partitioning)."""
    from multimedia_indexing_ray.stages.partition import map_partitions_by_key

    ev = _rp(sf_dir, "events", ["user_id"])

    def _partial(batch: pa.Table) -> pa.Table:
        uid, cnt = np.unique(batch["user_id"].to_numpy(), return_counts=True)
        return pa.table(
            {"user_id": pa.array(uid, pa.int64()), "n": pa.array(cnt, pa.int64())}
        )

    def _final(table: pa.Table) -> pa.Table:
        uid = table["user_id"].to_numpy()
        n = table["n"].to_numpy()
        order = np.argsort(uid, kind="stable")
        uid, n = uid[order], n[order]
        starts = np.flatnonzero(np.r_[True, uid[1:] != uid[:-1]])
        u = uid[starts]
        tot = np.add.reduceat(n, starts)
        sid = _fnv1a32(u) % np.uint64(10)
        split = np.where(sid < 8, "train", np.where(sid == 8, "val", "test"))
        return pa.table(
            {
                "user_id": pa.array(u, pa.int64()),
                "n_events": pa.array(tot, pa.int64()),
                "split": pa.array(split.astype(object), pa.string()),
            }
        )

    partials = ev.map_batches(_partial, batch_format="pyarrow")
    return map_partitions_by_key(partials, "user_id", _final, num_partitions=16)


@register(
    "mean_embedding_by_label",
    """
    WITH x AS (
      SELECT label, CAST(t.i AS BIGINT) AS dim_idx,
        CAST(floor(CAST(embedding[CAST(t.i AS INTEGER) + 1] AS DOUBLE)
                   * 1000000) AS BIGINT) AS q
      FROM embeddings, unnest(range(len(embedding))) AS t(i))
    SELECT label, dim_idx,
      (CAST(SUM(q) AS DOUBLE) / CAST(COUNT(*) AS DOUBLE)) / 1000000 AS mean_v,
      CAST(COUNT(*) AS BIGINT) AS n
    FROM x GROUP BY label, dim_idx
    """,
)
def q_mean_embedding_by_label(sf_dir: str):
    """Vector mean-pool per group (class-centroid / prototype extraction
    — the VLAD-centroid analog `visual/vectorization/...` applied to a
    label column): per-batch segment-sum of micro-quantized (floor at
    1e-6) embeddings so the partial sums are INTEGER and therefore
    order-independent -> bit-exact float parity with the SQL oracle.
    Exchange is |labels| x dim partial rows per block, never vectors."""
    from multimedia_indexing_ray.stages.knn import _batch_matrix

    embs = _rp(sf_dir, "embeddings", ["embedding", "label"])

    def _partial(batch: pa.Table) -> pa.Table:
        mat = _batch_matrix(batch, "embedding")  # (n, d) float64, exact f32 values
        q = np.floor(mat * 1e6).astype(np.int64)
        labels = batch["label"].to_numpy()
        u, inv, cnt = np.unique(labels, return_inverse=True, return_counts=True)
        k, d = len(u), q.shape[1]
        sums = np.zeros((k, d), dtype=np.int64)
        np.add.at(sums, inv, q)
        return pa.table(
            {
                "label": pa.array(np.repeat(u, d), pa.int32()),
                "dim_idx": pa.array(np.tile(np.arange(d, dtype=np.int64), k), pa.int64()),
                "s": pa.array(sums.ravel(), pa.int64()),
                "n": pa.array(np.repeat(cnt.astype(np.int64), d), pa.int64()),
            }
        )

    def _final(batch: pa.Table) -> pa.Table:
        g = _pa_group_sum(batch, ["label", "dim_idx"], ["s", "n"])
        s = g["s"].to_numpy().astype(np.float64)
        n = g["n"].to_numpy().astype(np.float64)
        return pa.table(
            {
                "label": g["label"],
                "dim_idx": g["dim_idx"],
                "mean_v": pa.array((s / n) / 1e6, pa.float64()),
                "n": g["n"],
            }
        )

    return (
        embs.map_batches(_partial, batch_format="pyarrow")
        .repartition(1)
        .map_batches(_final, batch_format="pyarrow", batch_size=None)
    )


@register(
    "balance_by_lang",
    """
    WITH cnt AS (SELECT lang, CAST(count(*) AS BIGINT) AS n FROM documents GROUP BY lang),
    tgt AS (SELECT MIN(n) AS target FROM cnt),
    h AS (SELECT doc_id, lang,
      CAST(list_reduce(
        list_prepend(CAST(2166136261 AS BIGINT),
          list_transform(split(CAST(doc_id AS VARCHAR), ''), c -> ascii(c))),
        (a, b) -> (xor(a, b) * 16777619) % 4294967296
      ) AS DOUBLE) AS hv
      FROM documents)
    SELECT h.doc_id, h.lang
    FROM h JOIN cnt ON h.lang = cnt.lang CROSS JOIN tgt
    WHERE h.hv < (CAST(tgt.target AS DOUBLE) / CAST(cnt.n AS DOUBLE)) * 4294967296.0
    """,
)
def q_balance_by_lang(sf_dir: str):
    """Stratum REBALANCING (curation staple: cap every language at the
    minority-language count in expectation): pass 1 is a tiny per-lang
    count; the per-stratum keep rate becomes a broadcast hash threshold,
    so the downsample is a stateless filter — deterministic under any
    partitioning, no shuffle of the corpus, and the float threshold is
    computed with the identical op order as the SQL oracle."""
    docs = _rp(sf_dir, "documents", ["doc_id", "lang"])

    def _cnt(batch: pa.Table) -> pa.Table:
        u, c = np.unique(np.asarray(batch["lang"]), return_counts=True)
        return pa.table({"lang": pa.array(u, pa.string()), "n": pa.array(c, pa.int64())})

    parts = docs.map_batches(_cnt, batch_format="pyarrow").take_all()
    totals: dict = {}
    for r in parts:
        totals[r["lang"]] = totals.get(r["lang"], 0) + r["n"]
    target = float(min(totals.values()))
    thresholds = {l: (target / float(n)) * 4294967296.0 for l, n in totals.items()}

    def _keep(batch: pa.Table) -> pa.Table:
        hv = _fnv1a32(batch["doc_id"].to_numpy()).astype(np.float64)
        thr = np.array([thresholds[l] for l in np.asarray(batch["lang"])])
        return batch.filter(pa.array(hv < thr))

    return docs.map_batches(_keep, batch_format="pyarrow")


@register(
    "embedding_norm_topk",
    """
    WITH q AS (
      SELECT vec_id,
        (SELECT SUM(CAST(floor(CAST(x AS DOUBLE) * 1000000) AS BIGINT)
                    * CAST(floor(CAST(x AS DOUBLE) * 1000000) AS BIGINT))
         FROM unnest(embedding) AS t(x)) AS ss
      FROM embeddings)
    SELECT vec_id, sqrt(CAST(ss AS DOUBLE)) / 1000000 AS l2_norm
    FROM q ORDER BY ss DESC, vec_id LIMIT 50
    """,
)
def q_embedding_norm_topk(sf_dir: str):
    """Top-k vectors by L2 norm (outlier/magnitude triage before
    normalization — the M8 L2-norm kernel as a ranking query): squares
    of micro-quantized components sum to an exact int64, and IEEE
    requires sqrt to be correctly rounded, so the float norm is
    bit-identical to the SQL oracle.  Per-block partial top-k on the
    integer key -> tiny merge; vectors never leave their block."""
    from multimedia_indexing_ray.stages.knn import _batch_matrix

    embs = _rp(sf_dir, "embeddings", ["vec_id", "embedding"])
    k = 50

    def _partial(batch: pa.Table) -> pa.Table:
        ids = batch["vec_id"].to_numpy()
        q = np.floor(_batch_matrix(batch, "embedding") * 1e6).astype(np.int64)
        ss = (q * q).sum(axis=1)
        take = np.lexsort((ids, -ss))[:k]
        return pa.table(
            {
                "vec_id": pa.array(ids[take], pa.int64()),
                "ss": pa.array(ss[take], pa.int64()),
            }
        )

    def _final(batch: pa.Table) -> pa.Table:
        ids = batch["vec_id"].to_numpy()
        ss = batch["ss"].to_numpy()
        take = np.lexsort((ids, -ss))[:k]
        return pa.table(
            {
                "vec_id": pa.array(ids[take], pa.int64()),
                "l2_norm": pa.array(np.sqrt(ss[take].astype(np.float64)) / 1e6, pa.float64()),
            }
        )

    return (
        embs.map_batches(_partial, batch_format="pyarrow")
        .repartition(1)
        .map_batches(_final, batch_format="pyarrow", batch_size=None)
    )


@register(
    "cms_user_counts",
    """
    WITH fh AS (
      SELECT user_id,
        CAST(list_reduce(
          list_prepend(CAST(2166136261 AS BIGINT),
            list_transform(split(CAST(user_id AS VARCHAR), ''), c -> ascii(c))),
          (a, b) -> (xor(a, b) * 16777619) % 4294967296
        ) AS BIGINT) AS hv
      FROM events),
    rows_d AS (SELECT unnest(range(4)) AS d),
    cnt AS (SELECT d, ((hv * (2*d + 1) + d) % 4294967296) % 256 AS bucket,
                   CAST(count(*) AS BIGINT) AS c
            FROM fh CROSS JOIN rows_d GROUP BY 1, 2),
    users AS (SELECT user_id, any_value(hv) AS hv, CAST(count(*) AS BIGINT) AS exact_count
              FROM fh GROUP BY 1)
    SELECT u.user_id, u.exact_count,
      (SELECT MIN(c.c) FROM cnt c JOIN rows_d r ON c.d = r.d
       WHERE c.bucket = ((u.hv * (2*c.d + 1) + c.d) % 4294967296) % 256) AS est_count
    FROM users u
    """,
)
def q_cms_user_counts(sf_dir: str):
    """Count-Min frequency sketch (Cormode & Muthukrishnan 2005): per-key
    event counts estimated from a fixed d=4 x w=256 counter matrix.  The
    sketch exchange is at most d*w rows per block (integer sums —
    order-independent, mergeable), vs shuffling every key for the exact
    count; est >= exact always (one-sided error), and both columns are
    emitted so the guarantee is hash-checked.  Row hashes derive from the
    one SQL-expressible FNV kernel (h_d = (hv*(2d+1)+d) mod 2^32), so the
    DuckDB oracle rebuilds the identical counters.  Completes the
    mergeable-sketch suite (HLL cardinality, Bloom membership, CMS
    frequency) — the A6 counter shape at sketch cost."""
    M_D, M_W = 4, 256
    ev = _rp(sf_dir, "events", ["user_id"])

    def _row_hashes(hv: np.ndarray) -> np.ndarray:
        # (n, d) bucket matrix, mirroring the SQL expression exactly
        d = np.arange(M_D, dtype=np.uint64)
        return ((hv[:, None] * (2 * d + 1) + d) % np.uint64(2**32)) % np.uint64(M_W)

    def _partial(batch: pa.Table) -> pa.Table:
        hv = _fnv1a32(batch["user_id"].to_numpy())
        buckets = _row_hashes(hv).astype(np.int64)
        flat = (np.arange(M_D, dtype=np.int64)[None, :] * M_W + buckets).ravel()
        counts = np.bincount(flat, minlength=M_D * M_W).astype(np.int64)
        nz = np.flatnonzero(counts)
        return pa.table(
            {
                "d": pa.array(nz // M_W, pa.int64()),
                "bucket": pa.array(nz % M_W, pa.int64()),
                "c": pa.array(counts[nz], pa.int64()),
            }
        )

    # tiny sketch gather (<= d*w rows per block), OR rather SUM-combine
    counters = np.zeros((M_D, M_W), dtype=np.int64)
    for part in ev.map_batches(_partial, batch_format="pyarrow").take_all():
        counters[part["d"], part["bucket"]] += part["c"]

    # probe side: exact per-key counts (one key shuffle) decorated with
    # the broadcast sketch estimate
    def _exact_partial(batch: pa.Table) -> pa.Table:
        t = batch.append_column("exact_count", pa.array(np.ones(batch.num_rows, np.int64)))
        return _pa_group_sum(t, ["user_id"], ["exact_count"])

    agg = (
        ev.map_batches(_exact_partial, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(Sum("exact_count", alias_name="exact_count"))
    )

    def _estimate(batch: pa.Table) -> pa.Table:
        uid = batch["user_id"].to_numpy()
        hv = _fnv1a32(uid)
        buckets = _row_hashes(hv).astype(np.int64)
        est = counters[np.arange(M_D)[None, :], buckets].min(axis=1)
        return pa.table(
            {
                "user_id": batch["user_id"],
                "exact_count": batch["exact_count"].cast(pa.int64()),
                "est_count": pa.array(est, pa.int64()),
            }
        )

    return agg.map_batches(_estimate, batch_format="pyarrow")


@register(
    "bloom_semijoin_errors",
    """
    WITH fh AS (
      SELECT event_id, user_id, event_type,
        CAST(list_reduce(
          list_prepend(CAST(2166136261 AS BIGINT),
            list_transform(split(CAST(user_id AS VARCHAR), ''), c -> ascii(c))),
          (a, b) -> (xor(a, b) * 16777619) % 4294967296
        ) AS BIGINT) AS hv
      FROM events),
    pos AS (SELECT hv % 1024 AS p FROM fh WHERE event_type = 'purchase'
            UNION ALL
            SELECT (hv // 1024) % 1024 FROM fh WHERE event_type = 'purchase'),
    bloom AS (SELECT p // 32 AS w,
                     CAST(bit_or(CAST(1 AS BIGINT) << CAST(p % 32 AS INT)) AS BIGINT) AS bits
              FROM pos GROUP BY 1)
    SELECT e.event_id, e.user_id FROM fh e
    WHERE e.event_type = 'error'
      AND EXISTS (SELECT 1 FROM bloom b WHERE b.w = (e.hv % 1024) // 32
                  AND ((b.bits >> CAST((e.hv % 1024) % 32 AS INT)) % 2) = 1)
      AND EXISTS (SELECT 1 FROM bloom b WHERE b.w = ((e.hv // 1024) % 1024) // 32
                  AND ((b.bits >> CAST(((e.hv // 1024) % 1024) % 32 AS INT)) % 2) = 1)
    """,
)
def q_bloom_semijoin(sf_dir: str):
    """Broadcast Bloom-filter semi-join: error events from users who
    (probably) also purchased.  The build side collapses to a 128-byte
    bit array (per-batch OR partials, order-independent), which rides in
    the probe filter's closure — NO shuffle of either side, the pruning
    pattern that makes big x big semi-joins cheap at 100 TB.  False
    positives are deterministic (FNV positions), so the SQL oracle
    replicates the filter bit-for-bit via bit_or; with 150 users the
    1024-bit filter happens to have none (result == exact semi-join)."""
    from multimedia_indexing_ray.stages.join import bloom_filter, build_bloom

    ev = _rp(sf_dir, "events", ["event_id", "user_id", "event_type"])
    purchases = ev.filter(expr="event_type == 'purchase'")
    words = build_bloom(purchases, "user_id", _fnv1a32, n_bits=1024)
    errors = ev.filter(expr="event_type == 'error'")
    return bloom_filter(errors, "user_id", _fnv1a32, words, n_bits=1024).select_columns(
        ["event_id", "user_id"]
    )


@register(
    "approx_distinct_users",
    """
    WITH h AS (SELECT CAST(list_reduce(
        list_prepend(CAST(2166136261 AS BIGINT),
          list_transform(split(CAST(user_id AS VARCHAR), ''), c -> ascii(c))),
        (a, b) -> (xor(a, b) * 16777619) % 4294967296
      ) AS BIGINT) AS hv FROM events),
    r AS (SELECT hv % 64 AS bucket,
                 CASE WHEN hv // 64 = 0 THEN 27
                      ELSE 26 - length(bin(hv // 64)) + 1 END AS rank
          FROM h),
    reg AS (SELECT b.bucket, COALESCE(MAX(r.rank), 0) AS reg
            FROM (SELECT unnest(range(64)) AS bucket) b
            LEFT JOIN r ON r.bucket = b.bucket GROUP BY 1),
    s AS (SELECT CAST(SUM(POWER(2.0, -reg)) AS DOUBLE) AS sum_inv,
                 CAST(SUM(CASE WHEN reg = 0 THEN 1 ELSE 0 END) AS BIGINT) AS zero_registers
          FROM reg)
    SELECT CAST(64 AS BIGINT) AS m, zero_registers, sum_inv,
           (0.7213 / (1.0 + 1.079 / 64)) * 64 * 64 / sum_inv AS est
    FROM s
    """,
)
def q_approx_distinct(sf_dir: str):
    """Approximate distinct count via a HyperLogLog sketch (Flajolet et
    al. 2007) — the mergeable-sketch scale path for cardinality at
    100 TB, where the exact `distinct_users` shuffle would move every
    key.  Bit-exact SQL conformance is possible because every piece is
    deterministic integer math: the digit-string FNV-1a hash is the same
    kernel `sample_hash` verifies, per-bucket MAX(rank) is an
    order-independent integer aggregate, and the harmonic sum adds exact
    powers of two (no float rounding at any summation order).  The raw
    m=64 estimator is emitted WITHOUT the small/large-range corrections
    (linear counting needs ln(), whose last-ulp behavior differs across
    libms and would break the hash gate); production use would apply
    them after the sketch.  Sketch exchange = at most 64 (bucket, rank)
    rows per block — the A6 metric-counter shape
    (`datastructures/IVFPQ.java:654-673`) applied to cardinality."""
    ev = _rp(sf_dir, "events", ["user_id"])
    M, P = 64, 26

    def _partial(batch: pa.Table) -> pa.Table:
        h = _fnv1a32(batch["user_id"].to_numpy())
        bucket = (h % np.uint64(M)).astype(np.int64)
        w = (h // np.uint64(M)).astype(np.int64)
        # exact integer bit length via frexp (w < 2**26 << 2**53)
        bitlen = np.where(w > 0, np.frexp(w.astype(np.float64))[1], 0).astype(np.int64)
        rank = P - bitlen + 1
        t = pa.table({"bucket": pa.array(bucket), "rank": pa.array(rank)})
        g = pa.TableGroupBy(t, ["bucket"]).aggregate([("rank", "max")])
        return pa.table({"bucket": g["bucket"], "rank": g["rank_max"]})

    def _final(batch: pa.Table) -> pa.Table:
        reg = np.zeros(M, np.int64)
        if batch.num_rows:
            np.maximum.at(reg, batch["bucket"].to_numpy(), batch["rank"].to_numpy())
        sum_inv = float(np.sum(np.power(2.0, -reg.astype(np.float64))))
        est = (0.7213 / (1.0 + 1.079 / M)) * M * M / sum_inv
        return pa.table(
            {
                "m": pa.array([M], pa.int64()),
                "zero_registers": pa.array([int((reg == 0).sum())], pa.int64()),
                "sum_inv": pa.array([sum_inv], pa.float64()),
                "est": pa.array([est], pa.float64()),
            }
        )

    return (
        ev.map_batches(_partial, batch_format="pyarrow")
        .repartition(1)
        .map_batches(_final, batch_format="pyarrow", batch_size=None)
    )


@register(
    "corpus_curation",
    r"""
    WITH q AS (SELECT doc_id, text,
                 CAST(len(regexp_extract_all(text, '\S+')) AS BIGINT) AS n_tokens,
                 CAST(length(text) AS BIGINT) AS n_chars
               FROM documents),
    f AS (SELECT * FROM q WHERE n_tokens >= 20 AND n_chars <= 450),
    d AS (SELECT min(doc_id) AS doc_id, n_tokens, n_chars
          FROM f GROUP BY text, n_tokens, n_chars)
    SELECT doc_id, n_tokens, n_chars,
      CASE WHEN sid < 8 THEN 'train' WHEN sid = 8 THEN 'val' ELSE 'test' END AS split
    FROM (SELECT doc_id, n_tokens, n_chars,
      CAST(list_reduce(
        list_prepend(CAST(2166136261 AS BIGINT),
          list_transform(split(CAST(doc_id AS VARCHAR), ''), c -> ascii(c))),
        (a, b) -> (xor(a, b) * 16777619) % 4294967296
      ) % 10 AS BIGINT) AS sid FROM d)
    """,
)
def q_corpus_curation(sf_dir: str):
    """End-to-end corpus curation: quality filter -> exact dedup ->
    deterministic split assignment, composed from the engine's own
    operators (the reference's offline learning chain idea —
    `examples/PCALearningExample.java:27-57` chains sample -> learn ->
    index — applied to training-data curation).  Quality gating is a
    pushed-down batch filter (rows drop before the ONE dedup shuffle),
    dedup keeps the min doc_id per text via the keyed first-wins kernel,
    and the split is the coordination-free FNV content hash — no second
    shuffle, no driver materialization."""
    docs = _rp(sf_dir, "documents", ["doc_id", "text"])

    def _quality(batch: pa.Table) -> pa.Table:
        nt = tx.token_count(batch["text"])
        nc = tx.char_count(batch["text"])
        t = batch.append_column("n_tokens", pa.array(nt, pa.int64()))
        t = t.append_column("n_chars", pa.array(nc, pa.int64()))
        return t.filter(pa.array((nt >= 20) & (nc <= 450)))

    kept = dd.dedup_by_key(
        docs.map_batches(_quality, batch_format="pyarrow"),
        ["text"],
        ["doc_id"],
        num_partitions=16,
    ).drop_columns(["text"])

    def _split(batch: pa.Table) -> pa.Table:
        sid = (_fnv1a32(batch["doc_id"].to_numpy()) % np.uint64(10)).astype(np.int64)
        split = np.where(sid < 8, "train", np.where(sid == 8, "val", "test"))
        return batch.append_column("split", pa.array(split.astype(object), pa.string()))

    return kept.map_batches(_split, batch_format="pyarrow")


@register(
    "topk_per_user",
    """
    SELECT event_id, user_id, value, CAST(rnk AS BIGINT) AS rnk FROM (
      SELECT event_id, user_id, value,
        row_number() OVER (PARTITION BY user_id ORDER BY value DESC, event_id) AS rnk
      FROM events)
    WHERE rnk <= 3
    """,
)
def q_topk_per_user(sf_dir: str):
    """Bounded-heap top-k per entity (K1 analog), vectorized per partition."""
    from multimedia_indexing_ray.functions import segments as sg
    from multimedia_indexing_ray.stages.partition import map_partitions_by_key

    ev = _rp(sf_dir, "events", ["event_id", "user_id", "value"])

    def kernel(table: pa.Table) -> pa.Table:
        t = table.take(
            pc.sort_indices(
                table,
                sort_keys=[
                    ("user_id", "ascending"),
                    ("value", "descending"),
                    ("event_id", "ascending"),
                ],
            )
        )
        codes = pc.dictionary_encode(t["user_id"].combine_chunks()).indices.to_numpy()
        starts = sg.segment_starts(codes)
        rel = sg.rel_index(starts, t.num_rows)
        out = t.filter(pa.array(rel < 3))
        rnk = rel[rel < 3] + 1
        return out.append_column("rnk", pa.array(rnk.astype(np.int64), pa.int64()))

    return map_partitions_by_key(ev, "user_id", kernel, num_partitions=32)


@register(
    "ngram_jaccard_pairs",
    r"""
    WITH tk AS (SELECT doc_id, regexp_extract_all(text, '\S+') AS toks FROM documents),
    s AS (SELECT doc_id, list_distinct(
            CASE WHEN len(toks) = 0 THEN CAST([] AS VARCHAR[])
                 WHEN len(toks) < 3 THEN [array_to_string(toks, ' ')]
                 ELSE list_transform(range(1, len(toks) - 1),
                        i -> toks[i] || ' ' || toks[i+1] || ' ' || toks[i+2]) END) AS sh
          FROM tk),
    s2 AS (SELECT doc_id, sh, list_min(sh) AS anchor FROM s WHERE len(sh) > 0)
    SELECT a_id, b_id, jaccard FROM (
      SELECT a.doc_id AS a_id, b.doc_id AS b_id,
        CAST(len(list_intersect(a.sh, b.sh)) AS DOUBLE)
          / CAST(len(list_distinct(list_concat(a.sh, b.sh))) AS DOUBLE) AS jaccard
      FROM s2 a JOIN s2 b ON a.anchor = b.anchor AND a.doc_id < b.doc_id)
    WHERE jaccard > 0.3
    """,
)
def q_ngram_jaccard(sf_dir: str):
    """Exact 3-gram Jaccard near-dup pairs within anchor (min-shingle)
    blocks — shingle sets, never text, cross the ONE shuffle; fully
    SQL-oracled (replaces the round-1 corpus-broadcast verify)."""
    docs = _rp(sf_dir, "documents", ["doc_id", "text"])
    return dd.anchor_jaccard_pairs(
        docs, "text", "doc_id", threshold=0.3, num_partitions=16,
        coalesce=docs.count() <= _COALESCE_DOCS,
    )


@register(
    "containment_neardup",
    r"""
    WITH tk AS (SELECT doc_id, regexp_extract_all(text, '\S+') AS toks FROM documents),
    s AS (SELECT doc_id, list_distinct(
            CASE WHEN len(toks) = 0 THEN CAST([] AS VARCHAR[])
                 WHEN len(toks) < 3 THEN [array_to_string(toks, ' ')]
                 ELSE list_transform(range(1, len(toks) - 1),
                        i -> toks[i] || ' ' || toks[i+1] || ' ' || toks[i+2]) END) AS sh
          FROM tk),
    s2 AS (SELECT doc_id, sh, list_sort(sh) AS srt FROM s WHERE len(sh) > 0),
    a AS (SELECT doc_id, sh, unnest(srt[1:2]) AS anchor FROM s2),
    pairs AS (
      SELECT DISTINCT a1.doc_id AS a_id, a2.doc_id AS b_id,
        CAST(len(list_intersect(a1.sh, a2.sh)) AS DOUBLE)
          / CAST(least(len(a1.sh), len(a2.sh)) AS DOUBLE) AS containment
      FROM a a1 JOIN a a2 ON a1.anchor = a2.anchor AND a1.doc_id < a2.doc_id)
    SELECT a_id, b_id, containment FROM pairs WHERE containment >= 0.8
    """,
)
def q_containment_neardup(sf_dir: str):
    """Asymmetric CONTAINMENT near-dup pairs (|A∩B| / min(|A|,|B|) over
    distinct 3-gram shingles, Broder 1997): the dedup measure for
    subset-duplication — a doc quoted verbatim inside a longer one has
    Jaccard ≈ |A|/|B| → 0 (invisible to `ngram_jaccard_pairs` at any
    useful threshold) but containment = 1.  Multi-probe blocking on the
    TWO smallest shingles per doc (`ShingleMultiAnchor`) closes the
    single-min-anchor recall hole on exactly these asymmetric pairs;
    the oracle mirrors the blocking with ``list_sort(sh)[1:2]`` +
    unnest and collapses double-blocked pairs with DISTINCT.  One keyed
    exchange of shingle sets (≤2× the Jaccard payload), CSR verify,
    first-per-pair dedup."""
    docs = _rp(sf_dir, "documents", ["doc_id", "text"])
    return dd.anchor_containment_pairs(
        docs, "text", "doc_id", threshold=0.8, num_partitions=16,
        coalesce=docs.count() <= _COALESCE_DOCS,
    )


_NGRAM_PAIRS_CTE = r"""
    tk AS (SELECT doc_id, regexp_extract_all(text, '\S+') AS toks FROM documents),
    s AS (SELECT doc_id, list_distinct(
            CASE WHEN len(toks) = 0 THEN CAST([] AS VARCHAR[])
                 WHEN len(toks) < 3 THEN [array_to_string(toks, ' ')]
                 ELSE list_transform(range(1, len(toks) - 1),
                        i -> toks[i] || ' ' || toks[i+1] || ' ' || toks[i+2]) END) AS sh
          FROM tk),
    s2 AS (SELECT doc_id, sh, list_min(sh) AS anchor FROM s WHERE len(sh) > 0),
    pairs AS (
      SELECT a_id, b_id FROM (
        SELECT a.doc_id AS a_id, b.doc_id AS b_id,
          CAST(len(list_intersect(a.sh, b.sh)) AS DOUBLE)
            / CAST(len(list_distinct(list_concat(a.sh, b.sh))) AS DOUBLE) AS jaccard
        FROM s2 a JOIN s2 b ON a.anchor = b.anchor AND a.doc_id < b.doc_id)
      WHERE jaccard > 0.3)
"""


@register(
    "dedup_clusters",
    f"""
    WITH RECURSIVE
    {_NGRAM_PAIRS_CTE},
    edges AS (SELECT a_id AS u, b_id AS v FROM pairs
              UNION SELECT b_id, a_id FROM pairs),
    cc(node, label) AS (
      SELECT doc_id, doc_id FROM documents
      UNION
      SELECT e.v, c.label FROM cc c JOIN edges e ON c.node = e.u
      WHERE c.label < e.v
    )
    SELECT node AS doc_id, MIN(label) AS cluster_id,
           node = MIN(label) AS is_canonical
    FROM cc GROUP BY node
    """,
)
def q_dedup_clusters(sf_dir: str):
    """Transitive near-dup CLUSTER resolution: 3-gram Jaccard pairs ->
    distributed connected components (alternating large-star/small-star,
    Kiveris et al. SoCC'14; `stages/cc.py`) -> one canonical doc per
    cluster.  The CC iteration shuffles only the slim pair set; cluster
    ids rejoin the corpus via one (id, cluster) exchange.  Oracle: a
    DuckDB recursive CTE propagating min labels to fixpoint."""
    from multimedia_indexing_ray.stages.cc import resolve_clusters

    docs = _rp(sf_dir, "documents", ["doc_id", "text"])
    pairs = dd.anchor_jaccard_pairs(
        docs, "text", "doc_id", threshold=0.3, num_partitions=16,
        coalesce=docs.count() <= _COALESCE_DOCS,
    )
    return resolve_clusters(
        docs.select_columns(["doc_id"]), "doc_id", pairs, num_partitions=16
    )


@register(
    "dedup_canonical_best",
    f"""
    WITH RECURSIVE
    {_NGRAM_PAIRS_CTE},
    edges AS (SELECT a_id AS u, b_id AS v FROM pairs
              UNION SELECT b_id, a_id FROM pairs),
    cc(node, label) AS (
      SELECT doc_id, doc_id FROM documents
      UNION
      SELECT e.v, c.label FROM cc c JOIN edges e ON c.node = e.u
      WHERE c.label < e.v
    ),
    mm AS (SELECT node AS doc_id, MIN(label) AS cluster_id FROM cc GROUP BY node),
    sc AS (SELECT mm.doc_id, mm.cluster_id, CAST(d.n_chars AS BIGINT) AS n_chars
           FROM mm JOIN documents d USING (doc_id)),
    win AS (SELECT cluster_id, doc_id AS winner FROM (
            SELECT cluster_id, doc_id,
              row_number() OVER (PARTITION BY cluster_id
                                 ORDER BY n_chars DESC, doc_id) AS rn FROM sc)
          WHERE rn = 1)
    SELECT sc.doc_id, sc.cluster_id, sc.doc_id = win.winner AS keep
    FROM sc JOIN win USING (cluster_id)
    """,
)
def q_dedup_canonical_best(sf_dir: str):
    """Quality-weighted dedup finisher: same transitive clusters as
    `dedup_clusters`, but the survivor is the highest-n_chars member
    (keep-the-best-copy, the policy curation pipelines actually apply)
    — `stages/cc.py:resolve_clusters_best`, two slim int64 exchanges."""
    from multimedia_indexing_ray.stages.cc import resolve_clusters_best

    docs = _rp(sf_dir, "documents", ["doc_id", "text", "n_chars"])
    pairs = dd.anchor_jaccard_pairs(
        docs.select_columns(["doc_id", "text"]),
        "text",
        "doc_id",
        threshold=0.3,
        num_partitions=16,
        coalesce=docs.count() <= _COALESCE_DOCS,
    )
    return resolve_clusters_best(
        docs.select_columns(["doc_id", "n_chars"]), "doc_id", "n_chars", pairs
    )


def _winnow_sql() -> str:
    from multimedia_indexing_ray.functions.text import FNV_BASIS

    fnv_gram = _fnv_sql("substr(text, i, 8)", FNV_BASIS)
    return rf"""
    WITH g AS (SELECT doc_id, CASE WHEN length(text) < 8 THEN CAST([] AS BIGINT[])
        ELSE list_transform(range(1, length(text) - 6), i -> {fnv_gram}) END AS hs
      FROM documents),
    w AS (SELECT doc_id, CASE WHEN len(hs) = 0 THEN CAST([] AS BIGINT[])
        WHEN len(hs) <= 4 THEN [list_min(hs)]
        ELSE list_distinct(list_transform(range(1, len(hs) - 2), i -> list_min(hs[i:i+3]))) END AS mins
      FROM g)
    SELECT doc_id, CAST(len(mins) AS BIGINT) AS n_fingerprints,
      CAST(COALESCE(list_min(mins), 0) AS BIGINT) AS min_fingerprint
    FROM w
    """


@register("winnow_fingerprint_docs", _winnow_sql())
def q_winnow(sf_dir: str):
    """Winnowing fingerprint (8-gram rolling FNV, window-4 min) —
    hash-verified against a DuckDB recomputation of the same fold."""
    docs = _rp(sf_dir, "documents", ["doc_id", "text"])

    def _fn(batch: pa.Table) -> pa.Table:
        n_fp, min_fp = tx.winnow_batch(batch["text"])
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_fingerprints": pa.array(n_fp, pa.int64()),
                "min_fingerprint": pa.array(min_fp, pa.int64()),
            }
        )

    return docs.map_batches(_fn, batch_format="pyarrow")


@register("media_features_ppm")  # real-codec media pipeline — rows-only (binary
# decode is not SQL-expressible; correctness lives in tests/test_multimodal.py:
# known-value decode, malformed variants, resize invariants, actor-pool e2e)
def q_media_features_ppm(sf_dir: str):
    """S3/S4/M2/M3/M4 as ONE pipeline on REAL image bytes: deterministic
    synthetic PPM/PGM payloads (seeded; no external data) -> actor-pool
    decode (pure-numpy PNM codec) -> bilinear rescale -> tile-statistics
    featurizer, with malformed payloads on the error side-channel."""
    import ray.data as rd

    from multimedia_indexing_ray.stages.multimodal import (
        decode_and_featurize,
        synthetic_ppm_table,
    )

    media = rd.from_arrow(synthetic_ppm_table(256, seed=7))
    out = decode_and_featurize(media, codec="ppm", concurrency=2)

    def _flat(batch: pa.Table) -> pa.Table:
        # stable scalar projection for the driver's rows/schema check
        feats = batch["features"].combine_chunks()
        dim = feats.type.list_size
        mat = feats.flatten().to_numpy(zero_copy_only=False).reshape(-1, dim)
        return pa.table(
            {
                "media_id": batch["media_id"],
                "feat_mean": pa.array(mat.mean(axis=1), pa.float64()),
                "feat_l2": pa.array(np.sqrt((mat * mat).sum(axis=1)), pa.float64()),
                "decode_error": batch["decode_error"],
            }
        )

    return out.map_batches(_flat, batch_format="pyarrow")


@register("media_features_jpeg")  # real JPEG decode pipeline — rows-only (binary
# decode is not SQL-expressible; codec correctness lives in tests/test_jpeg.py:
# round trips, color-luma equality, tolerance cases, Annex-K tables from DHT)
def q_media_features_jpeg(sf_dir: str):
    """The S4 gap closed: REAL baseline-JFIF payloads (gray + 4:2:0
    color, seeded; no external data) -> actor-pool tolerant decode
    (`functions/jpeg.py`, the `ImageIOGreyScale.java:176-185` fallback
    analog) -> bilinear rescale -> tile-statistics featurizer.  Planted
    malformed rows exercise the side-channel: truncated entropy data
    decodes partially (``tolerated:…`` with real pixels), junk payloads
    fail hard (``decode_failed:…``)."""
    import ray.data as rd

    from multimedia_indexing_ray.stages.multimodal import (
        decode_and_featurize,
        synthetic_jpeg_table,
    )

    media = rd.from_arrow(synthetic_jpeg_table(256, seed=11))
    out = decode_and_featurize(media, codec="real", concurrency=2)

    def _flat(batch: pa.Table) -> pa.Table:
        feats = batch["features"].combine_chunks()
        dim = feats.type.list_size
        mat = feats.flatten().to_numpy(zero_copy_only=False).reshape(-1, dim)
        return pa.table(
            {
                "media_id": batch["media_id"],
                "feat_mean": pa.array(mat.mean(axis=1), pa.float64()),
                "feat_l2": pa.array(np.sqrt((mat * mat).sum(axis=1)), pa.float64()),
                "decode_error": batch["decode_error"],
            }
        )

    return out.map_batches(_flat, batch_format="pyarrow")


@register("media_features_wav")  # real PCM audio decode pipeline — rows-only
# (binary decode is not SQL-expressible; codec correctness lives in
# tests/test_wav.py: lossless PCM round trips, stereo downmix, tolerance)
def q_media_features_wav(sf_dir: str):
    """The audio stub closed: REAL RIFF/PCM WAV payloads (seeded tone
    mixtures, mono + stereo) -> actor-pool decode (pure-struct/numpy,
    `functions/wav.py`) -> deterministic log-STFT spectrogram raster ->
    the SAME bilinear-rescale + tile-statistics featurizer the image
    path uses.  Planted malformed rows exercise the side-channel:
    truncated data chunks decode partially (``tolerated:…``), junk
    payloads fail hard."""
    import ray.data as rd

    from multimedia_indexing_ray.stages.multimodal import (
        decode_and_featurize,
        synthetic_wav_table,
    )

    media = rd.from_arrow(synthetic_wav_table(256, seed=13))
    out = decode_and_featurize(media, codec="real", concurrency=2)

    def _flat(batch: pa.Table) -> pa.Table:
        feats = batch["features"].combine_chunks()
        dim = feats.type.list_size
        mat = feats.flatten().to_numpy(zero_copy_only=False).reshape(-1, dim)
        return pa.table(
            {
                "media_id": batch["media_id"],
                "feat_mean": pa.array(mat.mean(axis=1), pa.float64()),
                "feat_l2": pa.array(np.sqrt((mat * mat).sum(axis=1)), pa.float64()),
                "decode_error": batch["decode_error"],
            }
        )

    return out.map_batches(_flat, batch_format="pyarrow")


@register(
    "media_error_channel",
    """
    WITH ids(prefix, n) AS (VALUES ('j-', 60), ('w-', 60), ('v-', 60))
    SELECT prefix || lpad(CAST(i AS VARCHAR), 4, '0') AS media_id,
           CASE WHEN i % 11 = 5 THEN 'decode_failed'
                WHEN i % 7 = 3 THEN 'tolerated'
                ELSE 'ok' END AS status
    FROM ids, range(0, 60) t(i)
    """,
)
def q_media_error_channel(sf_dir: str):
    """The S4 count-and-skip tolerance contract, driver-gated with a
    HASH oracle: a mixed JPEG + WAV + AVI fixture with planted malformed
    rows on pure-id schedules (i%11==5 -> junk magic, hard failure;
    i%7==3 -> mid-payload truncation, tolerated partial decode) runs
    through the real actor-pool decode stage, and every row's
    side-channel bucket (ok / tolerated / decode_failed) must match the
    id arithmetic exactly — one misrouted hostile payload flips the
    hash (`UrlIndexingMT.java:154-191` count-and-skip analog)."""
    import pyarrow.compute as _pc
    import ray.data as rd

    from multimedia_indexing_ray.stages.multimodal import (
        decode_and_featurize,
        synthetic_avi_table,
        synthetic_jpeg_table,
        synthetic_wav_table,
    )

    media = pa.concat_tables(
        [
            synthetic_jpeg_table(60, seed=42),
            synthetic_wav_table(60, seed=42),
            synthetic_avi_table(60, seed=42),
        ]
    )
    out = decode_and_featurize(rd.from_arrow(media), codec="real", concurrency=2)

    def _status(batch: pa.Table) -> pa.Table:
        err = batch["decode_error"]
        status = _pc.case_when(
            _pc.make_struct(
                _pc.is_null(err),
                _pc.starts_with(_pc.coalesce(err, pa.scalar("")), "tolerated"),
            ),
            pa.scalar("ok", pa.string()),
            pa.scalar("tolerated", pa.string()),
            pa.scalar("decode_failed", pa.string()),
        )
        return pa.table({"media_id": batch["media_id"], "status": status})

    return out.map_batches(_status, batch_format="pyarrow")


@register("media_features_video")  # real MJPEG-AVI video decode pipeline —
# rows-only (binary decode is not SQL-expressible; container/codec
# correctness lives in tests/test_avi.py and the SQL-oracled
# `video_frame_sample` / `media_video_dups` siblings)
def q_media_features_video(sf_dir: str):
    """The video stub closed: REAL RIFF-AVI Motion-JPEG payloads (seeded
    smooth rasters with per-frame motion, `functions/avi.py`) ->
    actor-pool container parse -> uniform frame sample -> per-frame
    tolerant JPEG decode -> temporal-mean poster raster -> the SAME
    bilinear-rescale + tile-statistics featurizer the image path uses.
    Planted malformed rows exercise the side-channel: truncated movi
    lists decode partially (``tolerated:…``), junk payloads fail hard."""
    import ray.data as rd

    from multimedia_indexing_ray.stages.multimodal import (
        decode_and_featurize,
        synthetic_avi_table,
    )

    media = rd.from_arrow(synthetic_avi_table(128, seed=17))
    out = decode_and_featurize(media, codec="real", concurrency=2)

    def _flat(batch: pa.Table) -> pa.Table:
        feats = batch["features"].combine_chunks()
        dim = feats.type.list_size
        mat = feats.flatten().to_numpy(zero_copy_only=False).reshape(-1, dim)
        return pa.table(
            {
                "media_id": batch["media_id"],
                "feat_mean": pa.array(mat.mean(axis=1), pa.float64()),
                "feat_l2": pa.array(np.sqrt((mat * mat).sum(axis=1)), pa.float64()),
                "decode_error": batch["decode_error"],
            }
        )

    return out.map_batches(_flat, batch_format="pyarrow")


@register(
    "video_frame_sample",
    """
    SELECT 'v-' || lpad(CAST(i AS VARCHAR), 4, '0') AS media_id,
           CAST(6 + (i % 5) * 2 AS INT) AS n_frames,
           CAST(((2 * j + 1) * (6 + (i % 5) * 2)) // 8 AS INT) AS frame_idx
    FROM range(0, 128) t(i), range(0, 4) s(j)
    """,
)
def q_video_frame_sample(sf_dir: str):
    """Frame extraction as its own verified operator: actor-pool RIFF-AVI
    container parse -> uniform k=4 frame-sample schedule, one row per
    sampled frame.  The oracle reproduces the schedule in pure SQL
    (idx_j = ((2j+1) * n) // (2k)) — hash-green iff the CONTAINER PARSE
    recovers exactly the planted frame count for all 128 real videos
    (n_frames comes from walking RIFF chunks, not from the generator)."""
    import ray.data as rd

    from multimedia_indexing_ray.stages.multimodal import (
        VideoFrameSampler,
        synthetic_avi_table,
    )

    media = rd.from_arrow(synthetic_avi_table(128, seed=17, plant_malformed=False))
    return media.map_batches(
        VideoFrameSampler,
        batch_format="pyarrow",
        batch_size=32,
        concurrency=(1, 2),
        max_restarts=0,  # ray#53727, see decode_and_featurize
    )


@register(
    "media_video_dups",
    """
    SELECT 'v-' || lpad(CAST(i AS VARCHAR), 4, '0') AS media_id_a,
           'v-' || lpad(CAST(i + 60 AS VARCHAR), 4, '0') AS media_id_b
    FROM range(0, 60) t(i)
    """,
)
def q_media_video_dups(sf_dir: str):
    """Video near-duplicate detection over REAL MJPEG-AVI bytes: frame
    sample -> per-frame JPEG decode -> temporal-mean poster raster ->
    9x8 dHash -> exact-hash bucket pairs.  Planted duplicates re-wrap
    the SAME frames with an extra LIST/INFO metadata chunk, so byte-level
    dedup cannot catch them; only the decoded frames match.  Oracle =
    the planted id arithmetic, hash-green iff the pipeline recovers
    exactly the 60 pairs with no collisions among distinct videos."""
    import ray.data as rd

    from multimedia_indexing_ray.stages.multimodal import (
        media_phash_pairs,
        synthetic_dup_avi_table,
    )

    media = rd.from_arrow(synthetic_dup_avi_table(60, seed=23))
    return media_phash_pairs(media, concurrency=2, num_partitions=8)


@register(
    "media_audio_dups",
    """
    SELECT 'w-' || lpad(CAST(i AS VARCHAR), 4, '0') AS media_id_a,
           'w-' || lpad(CAST(i + 60 AS VARCHAR), 4, '0') AS media_id_b
    FROM range(0, 60) t(i)
    """,
)
def q_media_audio_dups(sf_dir: str):
    """Audio near-duplicate detection over REAL PCM bytes: decode ->
    log-STFT spectrogram raster -> 9x8 dHash -> exact-hash bucket pairs
    (the classic spectrogram-fingerprint shape).  Planted duplicates
    re-encode the SAME samples with a different LIST/INFO metadata
    chunk, so byte-level dedup cannot catch them; only the decoded
    waveform matches.  Oracle = the planted id arithmetic, hash-green
    iff the pipeline recovers exactly the 60 pairs with no collisions
    among distinct seeded tone mixtures."""
    import ray.data as rd

    from multimedia_indexing_ray.stages.multimodal import (
        media_phash_pairs,
        synthetic_dup_wav_table,
    )

    media = rd.from_arrow(synthetic_dup_wav_table(60, seed=19))
    return media_phash_pairs(media, concurrency=2, num_partitions=8)


@register(
    "media_mixed_dups",
    """
    SELECT p || lpad(CAST(i AS VARCHAR), 4, '0') AS media_id_a,
           p || lpad(CAST(i + 60 AS VARCHAR), 4, '0') AS media_id_b
    FROM range(0, 60) t(i), (VALUES ('q-'), ('w-'), ('v-')) m(p)
    """,
)
def q_media_mixed_dups(sf_dir: str):
    """ONE dedup pass over a MIXED-MODALITY corpus: images (PNM/JPEG/PNG),
    audio (PCM-WAV -> spectrogram raster) and video (MJPEG-AVI ->
    temporal-mean poster raster) in the same binary column, hashed by the
    same actor pool (`MediaPHasher` auto-detects the container) and
    bucketed in the same exchange — the "opaque binary column + typed
    dispatch" contract a web-scale crawl table needs.  Oracle = the
    union of the three planted-pair id schedules; hash-green iff every
    modality's re-encoded duplicates are found AND no dHash collisions
    occur ACROSS modalities (spectrogram / poster / image rasters share
    one 64-bit hash space)."""
    import ray.data as rd

    from multimedia_indexing_ray.stages.multimodal import (
        media_phash_pairs,
        synthetic_dup_avi_table,
        synthetic_dup_ppm_table,
        synthetic_dup_wav_table,
    )

    media = (
        rd.from_arrow(synthetic_dup_ppm_table(60, seed=7))
        .union(rd.from_arrow(synthetic_dup_wav_table(60, seed=19)))
        .union(rd.from_arrow(synthetic_dup_avi_table(60, seed=23)))
    )
    return media_phash_pairs(media, concurrency=2, num_partitions=8)


_URL_FIXTURE_CACHE: "dict[str, object]" = {}


def _url_fixture_cached():
    """Write the 128-file url fixture once per process under a pid-keyed
    /tmp dir, register atexit cleanup, and reuse it across invocations
    (the content is id-deterministic, so reuse can't change results)."""
    if "urls" not in _URL_FIXTURE_CACHE:
        import atexit
        import os
        import shutil
        import tempfile

        from multimedia_indexing_ray.stages.fetch import write_url_fixture

        root = os.path.join(
            tempfile.gettempdir(), f"mir_url_fixture_{os.getpid()}"
        )
        shutil.rmtree(root, ignore_errors=True)
        os.makedirs(root, exist_ok=True)
        atexit.register(shutil.rmtree, root, ignore_errors=True)
        _URL_FIXTURE_CACHE["urls"] = write_url_fixture(root, n=128)
    return _URL_FIXTURE_CACHE["urls"]


@register(
    "url_fetch_manifest",
    """
    SELECT 'u-' || lpad(CAST(i AS VARCHAR), 4, '0') AS url_id,
           CAST(CASE WHEN i % 11 = 3 THEN -1
                     ELSE 6 * (8 + (i % 7) * 3) END AS BIGINT) AS fetch_bytes,
           CASE WHEN i % 11 = 3 THEN 'fetch_failed:not_found'
                ELSE 'ok' END AS fetch_status
    FROM range(0, 128) t(i)
    """,
)
def q_url_fetch_manifest(sf_dir: str):
    """The S3 fetch stage driver-gated end-to-end: a URL table fans out
    to a rate-limited I/O actor pool (`stages/fetch.py:UrlFetcher` —
    the `UrlIndexingMT.java:84-149` download-pool analog over the
    container's file:// transport), failures counted-and-skipped into
    the `fetch_error` side-channel, payload sizes recorded.  The fixture
    plants every eleventh-shifted URL as missing and makes every body's
    byte count pure id arithmetic, so fetched sizes AND failure rows are
    both SQL-derivable: hash-green iff the pool fetched every reachable
    URL exactly and failed exactly the planted ones."""
    import pyarrow.compute as pc
    import ray.data as rd

    from multimedia_indexing_ray.stages.fetch import fetch_urls

    # one fixture dir per PROCESS (pid-keyed, so concurrent runs can't
    # race each other's 'wb' rewrites), written once and removed at
    # process exit — a fresh mkdtemp per invocation leaked a 128-file
    # directory into /tmp on every sweep/bench/test run (ADVICE r4)
    urls = _url_fixture_cached()
    fetched = fetch_urls(rd.from_arrow(urls), concurrency=4,
                         min_call_interval_s=0.0)

    def _manifest(t: pa.Table) -> pa.Table:
        status = pc.coalesce(t["fetch_error"], pa.scalar("ok", pa.string()))
        return pa.table(
            {
                "url_id": t["url_id"],
                "fetch_bytes": t["fetch_bytes"],
                "fetch_status": status,
            }
        )

    return fetched.map_batches(_manifest, batch_format="pyarrow")


def _image_url_fixture_cached():
    """96 REAL image files behind file:// URLs, once per process
    (pid-keyed dir, atexit cleanup): file i is a grayscale PGM, file
    48+i the SAME raster re-encoded as PNG / GIF / BMP (cycling by
    i % 3) — lossless containers, so the cross-format planted-dup
    contract holds through a real network fetch."""
    if "img_urls" not in _URL_FIXTURE_CACHE:
        import atexit
        import os
        import shutil
        import tempfile

        from multimedia_indexing_ray.functions.bmp import encode_bmp
        from multimedia_indexing_ray.functions.gif import encode_gif
        from multimedia_indexing_ray.functions.png import encode_png
        from multimedia_indexing_ray.stages.multimodal import _pnm_raster

        root = os.path.join(
            tempfile.gettempdir(), f"mir_imgurl_fixture_{os.getpid()}"
        )
        shutil.rmtree(root, ignore_errors=True)
        os.makedirs(root, exist_ok=True)
        atexit.register(shutil.rmtree, root, ignore_errors=True)
        n = 48
        ids, urls = [], []
        for dup in (0, 1):
            for i in range(n):
                w, h = 24 + (i % 5) * 8, 18 + (i % 3) * 10
                raster = _pnm_raster(w, h, 7 + i, gray=True).reshape(h, w)
                if dup:
                    body = [encode_png, encode_gif, encode_bmp][i % 3](raster)
                else:
                    body = b"P5\n%d %d\n255\n" % (w, h) + raster.tobytes()
                idx = i + dup * n
                path = os.path.join(root, f"{idx:04d}.bin")
                with open(path, "wb") as f:
                    f.write(body)
                ids.append(f"m-{idx:04d}")
                urls.append("file://" + path)
        _URL_FIXTURE_CACHE["img_urls"] = pa.table(
            {"media_id": pa.array(ids, pa.string()),
             "url": pa.array(urls, pa.string())}
        )
    return _URL_FIXTURE_CACHE["img_urls"]


@register(
    "url_fetch_phash_dups",
    """
    SELECT 'm-' || lpad(CAST(i AS VARCHAR), 4, '0') AS media_id_a,
           'm-' || lpad(CAST(i + 48 AS VARCHAR), 4, '0') AS media_id_b
    FROM range(0, 48) t(i)
    """,
)
def q_url_fetch_phash_dups(sf_dir: str):
    """The reference's full image-ingest story in ONE pipeline: URL
    manifest -> rate-limited fetch actor pool (`stages/fetch.py`, the
    `UrlIndexingMT.java:84-149` analog) -> tolerant multi-format decode
    + perceptual hash -> keyed-shuffle dup pairs
    (`stages/multimodal.py:media_phash_pairs`).  The fixture plants
    cross-format dup pairs (PGM base, PNG/GIF/BMP re-encode of the SAME
    raster) behind file:// URLs, so the oracle is pure id arithmetic:
    hash-green iff the fetch pool delivered every payload intact AND
    all four containers decoded to bit-identical float32 rasters."""
    import ray.data as rd

    from multimedia_indexing_ray.stages.fetch import fetch_urls
    from multimedia_indexing_ray.stages.multimodal import media_phash_pairs

    urls = _image_url_fixture_cached()
    fetched = fetch_urls(rd.from_arrow(urls), concurrency=4,
                         min_call_interval_s=0.0)

    def _ok(t: pa.Table) -> pa.Table:
        good = pc.is_null(t["fetch_error"])
        return t.filter(good).select(["media_id", "payload"])

    media = fetched.map_batches(_ok, batch_format="pyarrow")
    return media_phash_pairs(media, concurrency=4, num_partitions=4)


@register("pq_knn_l2")  # ADC scan of STORED PQ codes (PQ.java analog) — rows-only
def q_pq_knn(sf_dir: str):
    from multimedia_indexing_ray.stages.ann_index import ann_search

    idx = _ensure_ann_index(sf_dir, "pq")
    return ann_search(idx, _query_vectors(sf_dir, 5), k=5)


@register("ivfpq_knn_l2")  # prebuilt coarse lists + residual PQ — rows-only
def q_ivfpq_knn(sf_dir: str):
    from multimedia_indexing_ray.stages.ann_index import ann_search

    idx = _ensure_ann_index(sf_dir, "ivfpq")
    return ann_search(idx, _query_vectors(sf_dir, 5), k=5, probe=3)


@register(
    "text_normalize",
    """
    SELECT doc_id, left(nfc_normalize(text), 64) AS norm_text,
      CAST(length(nfc_normalize(text)) AS BIGINT) AS norm_len
    FROM documents
    """,
)
def q_text_normalize(sf_dir: str):
    """M2/M3 analog: NFC normalization + max-length truncation per doc."""
    docs = _rp(sf_dir, "documents", ["doc_id", "text"])

    def _fn(batch: pa.Table) -> pa.Table:
        trunc, lens = tx.normalize_nfc_truncate(batch["text"].to_pylist(), 64)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "norm_text": pa.array(trunc, pa.string()),
                "norm_len": pa.array(lens, pa.int64()),
            }
        )

    return docs.map_batches(_fn, batch_format="pyarrow")


@register(
    "knn_with_metadata",
    """
    WITH q AS (SELECT vec_id AS qid, CAST(embedding AS DOUBLE[]) AS qe
               FROM embeddings WHERE vec_id < 5)
    SELECT query_id, neighbor_id, CAST(rank AS BIGINT) AS rank, label FROM (
      SELECT q.qid AS query_id, e.vec_id AS neighbor_id,
        row_number() OVER (PARTITION BY q.qid
          ORDER BY list_cosine_similarity(qe, CAST(e.embedding AS DOUBLE[])) DESC, e.vec_id) AS rank,
        e.label
      FROM q, embeddings e WHERE e.vec_id != q.qid)
    WHERE rank <= 5
    """,
)
def q_knn_with_metadata(sf_dir: str):
    """Result decoration (J2/J3 analog): top-k neighbours joined with a
    broadcast side-metadata table (label), no shuffle."""
    emb = _rp(sf_dir, "embeddings", ["vec_id", "embedding"])
    top = nn.brute_force_knn(emb, _query_vectors(sf_dir, 5), "embedding", "vec_id", k=5)
    meta = _pq(sf_dir, "embeddings", ["vec_id", "label"])
    return broadcast_join(top, meta, keys="neighbor_id", right_keys="vec_id")


@register(
    "asof_next_purchase_after_error",
    """
    SELECT e.event_id, e.user_id, p.value AS next_value, p.event_id AS next_event_id
    FROM events e LEFT JOIN LATERAL (
      SELECT value, event_id FROM events p
      WHERE p.user_id = e.user_id AND p.event_type = 'purchase' AND p.ts >= e.ts
      ORDER BY p.ts ASC, p.event_id ASC LIMIT 1) p ON true
    WHERE e.event_type = 'error'
    """,
)
def q_asof_forward(sf_dir: str):
    """Forward as-of: FIRST purchase at or after each error (label-side
    next-event join; direction='forward', ties -> lowest event_id)."""
    ev = _rp(sf_dir, "events", ["event_id", "user_id", "ts", "value", "event_type"])
    purchases = ev.filter(expr="event_type == 'purchase'").drop_columns(["event_type"])
    errors = ev.filter(expr="event_type == 'error'").drop_columns(["event_type", "value"])
    joined = asof_join(
        purchases,
        errors,
        left_key="user_id",
        left_on="ts",
        tiebreak="event_id",
        direction="forward",
        matched_prefix="next_",
        num_partitions=32,
    )
    return joined.select_columns(["event_id", "user_id", "next_value", "next_event_id"])


@register(
    "range_join_purchases_near_errors",
    """
    SELECT e.event_id AS event_id, e.user_id AS user_id,
           p.event_id AS near_event_id, p.value AS near_value
    FROM events e JOIN events p
      ON p.user_id = e.user_id AND p.event_type = 'purchase'
     AND p.ts >= e.ts - INTERVAL 1 HOUR AND p.ts <= e.ts + INTERVAL 1 HOUR
    WHERE e.event_type = 'error'
    """,
)
def q_range_join(sf_dir: str):
    """Temporal range join: every purchase within +-1h of each error."""
    from multimedia_indexing_ray.stages.asof_join import range_join

    ev = _rp(sf_dir, "events", ["event_id", "user_id", "ts", "value", "event_type"])
    purchases = ev.filter(expr="event_type == 'purchase'").drop_columns(["event_type"])
    errors = ev.filter(expr="event_type == 'error'").drop_columns(["event_type", "value"])
    joined = range_join(
        purchases,
        errors,
        left_key="user_id",
        left_on="ts",
        lower_s=-3600.0,
        upper_s=3600.0,
        matched_prefix="near_",
        num_partitions=32,
    )
    return joined.select_columns(["event_id", "user_id", "near_event_id", "near_value"])


@register(
    "zscore_value_per_user",
    """
    WITH c AS (SELECT event_id, user_id,
                      CAST(FLOOR(value*100+0.5) AS BIGINT) AS cents
               FROM events),
    s AS (SELECT user_id, CAST(count(*) AS BIGINT) AS n,
                 CAST(sum(cents) AS BIGINT) AS s1,
                 CAST(sum(cents*cents) AS BIGINT) AS s2
          FROM c GROUP BY 1)
    SELECT c.event_id, c.user_id,
      CASE WHEN s.n > 1 AND (CAST(s.s2 AS DOUBLE) - CAST(s.s1 AS DOUBLE)*s.s1/s.n) > 0
           THEN (CAST(c.cents AS DOUBLE) - CAST(s.s1 AS DOUBLE)/s.n)
                / sqrt((CAST(s.s2 AS DOUBLE) - CAST(s.s1 AS DOUBLE)*s.s1/s.n) / (s.n - 1))
           ELSE 0.0 END AS zvalue
    FROM c JOIN s USING (user_id)
    """,
)
def q_zscore_per_user(sf_dir: str):
    """Per-key standardization (z-score) — the learned whitening of
    `dimreduction/PCA.java:275-313` re-expressed as a per-group feature
    transform.  ONE shuffle on user_id co-locates each user's rows, then
    a vectorized segmented kernel computes integer-exact (n, Σc, Σc²)
    per user and applies z = (c − μ)/σ locally — no broadcast, so the
    shape survives an arbitrarily large user dimension (unlike a
    stats-broadcast join).  All float ops mirror the SQL oracle's
    expression tree over exact int64 cent sums, so the doubles are
    bit-identical."""
    from multimedia_indexing_ray.stages.partition import map_partitions_by_key

    ev = _rp(sf_dir, "events", ["event_id", "user_id", "value"])

    _empty = pa.table(
        {
            "event_id": pa.array([], pa.int64()),
            "user_id": pa.array([], pa.int64()),
            "zvalue": pa.array([], pa.float64()),
        }
    )

    def kernel(table: pa.Table) -> pa.Table:
        if table.num_rows == 0:
            return _empty
        uid = table["user_id"].to_numpy()
        cents = _cents(table["value"].to_numpy()).astype(np.int64)
        order = np.argsort(uid, kind="stable")
        su, sc = uid[order], cents[order]
        bounds = np.flatnonzero(np.r_[True, su[1:] != su[:-1]])
        n = np.diff(np.r_[bounds, su.size]).astype(np.int64)
        s1 = np.add.reduceat(sc, bounds)
        s2 = np.add.reduceat(sc * sc, bounds)
        nf = n.astype(np.float64)
        s1f = s1.astype(np.float64)
        mu = s1f / nf
        num = s2.astype(np.float64) - s1f * s1 / nf
        ok = (n > 1) & (num > 0)
        with np.errstate(invalid="ignore", divide="ignore"):
            sd = np.sqrt(num / (n - 1))
        gid = np.cumsum(np.r_[0, np.diff(su) != 0]) if su.size else np.array([], np.int64)
        z = np.where(
            ok[gid], (sc.astype(np.float64) - mu[gid]) / np.where(ok, sd, 1.0)[gid], 0.0
        )
        out = np.empty_like(z)
        out[order] = z
        return pa.table(
            {
                "event_id": table["event_id"],
                "user_id": table["user_id"],
                "zvalue": pa.array(out, pa.float64()),
            }
        )

    return map_partitions_by_key(ev, "user_id", kernel, num_partitions=32)


@register(
    "median_value_per_user",
    "SELECT user_id, median(value) AS median_value FROM events GROUP BY 1",
)
def q_median(sf_dir: str):
    """Holistic (non-decomposable) aggregate: per-key median.  Unlike the
    cents-sum queries this cannot pre-aggregate — the key shuffle carries
    raw values and each partition computes exact medians per key with a
    segmented numpy quantile on the sorted partition: (lo+hi)/2 of the two
    middle elements is np.median's formula and matches DuckDB's
    quantile_cont(0.5) bit-exactly on doubles (lo==hi when n is odd, so
    one fancy-index pass covers both parities)."""
    from multimedia_indexing_ray.stages.partition import map_partitions_by_key

    ev = _rp(sf_dir, "events", ["user_id", "value"])

    _empty = pa.table(
        {"user_id": pa.array([], pa.int64()), "median_value": pa.array([], pa.float64())}
    )

    def kernel(table: pa.Table) -> pa.Table:
        if table.num_rows == 0:
            return _empty
        uid = table["user_id"].to_numpy(zero_copy_only=False)
        val = table["value"].to_numpy(zero_copy_only=False)
        order = np.lexsort((val, uid))
        u, v = uid[order], val[order]
        starts = np.flatnonzero(np.r_[True, u[1:] != u[:-1]])
        n = np.r_[starts[1:], len(u)] - starts
        lo = starts + (n - 1) // 2
        hi = starts + n // 2
        return pa.table(
            {
                "user_id": pa.array(u[starts], pa.int64()),
                "median_value": pa.array((v[lo] + v[hi]) / 2.0, pa.float64()),
            }
        )

    return map_partitions_by_key(ev, "user_id", kernel, num_partitions=32)


@register(
    "rolling_minmax_1h",
    """
    SELECT event_id, user_id,
      MIN(value) OVER w AS min_value_1h,
      MAX(value) OVER w AS max_value_1h
    FROM events
    WINDOW w AS (PARTITION BY user_id ORDER BY ts
                 RANGE BETWEEN INTERVAL 1 HOUR PRECEDING AND CURRENT ROW)
    """,
)
def q_rolling_minmax(sf_dir: str):
    """Sliding-window extrema per key — the ordered-aggregate sibling of
    `sliding_1h` that prefix sums cannot express (min/max are not
    invertible).  Uses the sparse-table RMQ kernel
    (`functions/segments.py:range_minmax`): O(n log W) build per
    partition, every window answered as the overlap of two power-of-two
    blocks in one fancy-index step — the vectorized replacement for the
    reference's per-element scan shape (`Linear.java:138-163`).  Min/max
    SELECT an input double, so parity with SQL is bit-exact with no
    quantization."""
    ev = _rp(sf_dir, "events", ["event_id", "user_id", "ts", "value"])
    out = kd.keyed_sliding_minmax(
        ev,
        "user_id",
        "ts",
        "value",
        width_s=3600.0,
        closed="both",
        tiebreak="event_id",
        id_cols=["event_id"],
    )

    def _finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_id": batch["event_id"],
                "user_id": batch["user_id"],
                "min_value_1h": batch["min_value"],
                "max_value_1h": batch["max_value"],
            }
        )

    return out.map_batches(_finish, batch_format="pyarrow")


@register(
    "rolling_median_1h",
    """
    SELECT event_id, user_id,
      median(value) OVER w AS median_value_1h
    FROM events
    WINDOW w AS (PARTITION BY user_id ORDER BY ts
                 RANGE BETWEEN INTERVAL 1 HOUR PRECEDING AND CURRENT ROW)
    """,
)
def q_rolling_median(sf_dir: str):
    """Sliding-window exact MEDIAN per key — the holistic ordered
    aggregate that completes the window family: `sliding_1h` covers
    decomposable aggregates (prefix sums), `rolling_minmax_1h` covers
    idempotent ones (sparse-table RMQ), and median fits neither, so the
    kernel CSR-expands each trailing window once and sorts all windows
    in a single lexsort (`functions/segments.py:range_median`) — memory
    bounded by window MASS per chunk, not by key size, the same bounded
    discipline as the reference's fixed-K nearest-neighbor result heap
    (`visual/datastructures/Linear.java:138-163` keeps a bounded
    structure over an unbounded scan).  ONE shuffle on user_id; the
    even-count rule ``(lo+hi)/2`` is bit-identical to DuckDB
    ``quantile_cont(0.5)`` on doubles (verified empirically and gated by
    the parity suite), so parity is exact with no quantization tricks."""
    ev = _rp(sf_dir, "events", ["event_id", "user_id", "ts", "value"])
    out = kd.keyed_sliding_median(
        ev,
        "user_id",
        "ts",
        "value",
        width_s=3600.0,
        closed="both",
        tiebreak="event_id",
        id_cols=["event_id"],
    )

    def _finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_id": batch["event_id"],
                "user_id": batch["user_id"],
                "median_value_1h": batch["median_value"],
            }
        )

    return out.map_batches(_finish, batch_format="pyarrow")


@register(
    "rolling_p90_1h",
    """
    SELECT event_id, user_id,
      quantile_disc(value, 0.9) OVER w AS p90_value_1h
    FROM events
    WINDOW w AS (PARTITION BY user_id ORDER BY ts
                 RANGE BETWEEN INTERVAL 1 HOUR PRECEDING AND CURRENT ROW)
    """,
)
def q_rolling_p90(sf_dir: str):
    """Sliding-window exact DISCRETE p90 per key (tail-latency /
    outlier-level feature).  quantile_cont would interpolate and drift
    at the ULP level vs any independent implementation, so this follows
    the repo's standing discrete-quantile discipline
    (`value_quantiles_by_type`): select the INPUT element at sorted
    index ceil(0.9*m) via pure integer arithmetic — the window kernel
    (`functions/segments.py:range_quantile_disc`, same mass-capped
    CSR + single-lexsort engine as the rolling median) is bit-identical
    to DuckDB's windowed ``quantile_disc`` because both merely SELECT a
    double.  ONE shuffle on user_id."""
    ev = _rp(sf_dir, "events", ["event_id", "user_id", "ts", "value"])
    out = kd.keyed_sliding_quantile(
        ev,
        "user_id",
        "ts",
        "value",
        width_s=3600.0,
        q_pct=90,
        closed="both",
        tiebreak="event_id",
        id_cols=["event_id"],
    )

    def _finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_id": batch["event_id"],
                "user_id": batch["user_id"],
                "p90_value_1h": batch["p90_value"],
            }
        )

    return out.map_batches(_finish, batch_format="pyarrow")


@register(
    "rolling_corr_3d",
    f"""
    WITH c AS (
      SELECT event_id, user_id, ts, {_CENTS_SQL.format(col='value')} AS x,
             lag({_CENTS_SQL.format(col='value')})
               OVER (PARTITION BY user_id ORDER BY ts, event_id) AS y
      FROM events),
    s AS (
      SELECT event_id, user_id,
        CAST(count(y) OVER w AS BIGINT) AS n,
        sum(CASE WHEN y IS NULL THEN NULL ELSE x END) OVER w AS sx,
        sum(CASE WHEN y IS NULL THEN NULL ELSE x*x END) OVER w AS sxx,
        sum(y) OVER w AS sy, sum(y*y) OVER w AS syy, sum(x*y) OVER w AS sxy
      FROM c
      WINDOW w AS (PARTITION BY user_id ORDER BY ts
                   RANGE BETWEEN INTERVAL 3 DAY PRECEDING AND CURRENT ROW))
    SELECT event_id, user_id, n AS n_pairs_3d,
      CASE WHEN n >= 2
            AND CAST(n AS DOUBLE)*CAST(sxx AS DOUBLE) - CAST(sx AS DOUBLE)*CAST(sx AS DOUBLE) > 0
            AND CAST(n AS DOUBLE)*CAST(syy AS DOUBLE) - CAST(sy AS DOUBLE)*CAST(sy AS DOUBLE) > 0
       THEN (CAST(n AS DOUBLE)*CAST(sxy AS DOUBLE) - CAST(sx AS DOUBLE)*CAST(sy AS DOUBLE))
            / (sqrt(CAST(n AS DOUBLE)*CAST(sxx AS DOUBLE) - CAST(sx AS DOUBLE)*CAST(sx AS DOUBLE))
               * sqrt(CAST(n AS DOUBLE)*CAST(syy AS DOUBLE) - CAST(sy AS DOUBLE)*CAST(sy AS DOUBLE)))
       ELSE 0.0 END AS corr_value_lag1_3d
    FROM s
    """,
)
def q_rolling_corr(sf_dir: str):
    """Sliding-window Pearson AUTOCORRELATION (value vs its lag-1) per
    key — the BIVARIATE second-moment window family (trend-persistence
    feature) that sum/extrema/order-statistic windows cannot express.
    The six window sums are exact int64 prefix-sum differences over
    integer cents (`stages/keyed.py:keyed_sliding_corr_lag1`), and the
    final correlation is ONE fixed IEEE-754 expression tree over those
    exact integers, written with identical casts and parenthesization in
    the oracle — so the DOUBLE output is bit-exact with no quantization
    or tolerance tricks, same discipline as `ewma_value_per_user`.  ONE
    shuffle on user_id; zero-variance / n<2 windows emit 0.0 on both
    sides."""
    ev = _rp(sf_dir, "events", ["event_id", "user_id", "ts", "value"])
    out = kd.keyed_sliding_corr_lag1(
        ev.map_batches(_add_value_cents, batch_format="pyarrow"),
        "user_id",
        "ts",
        "value_cents",
        width_s=3 * 86400.0,
        closed="both",
        tiebreak="event_id",
        id_cols=["event_id"],
    )

    def _finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_id": batch["event_id"],
                "user_id": batch["user_id"],
                "n_pairs_3d": batch["n_pairs"],
                "corr_value_lag1_3d": batch["corr_lag1_value_cents"],
            }
        )

    return out.map_batches(_finish, batch_format="pyarrow")


@register(
    "resample_1h_ffill",
    f"""
    WITH e AS (SELECT user_id, ts, arg_max({_CENTS_SQL.format(col='value')}, event_id) AS cents
               FROM events GROUP BY user_id, ts),
    b AS (SELECT user_id,
            make_timestamp(((epoch_us(min(ts)) + 3599999999) // 3600000000) * 3600000000) AS g0,
            max(ts) AS t1
          FROM events GROUP BY user_id),
    g AS (SELECT user_id, unnest(generate_series(g0, t1, INTERVAL 1 HOUR)) AS tick
          FROM b WHERE g0 <= t1)
    SELECT g.user_id, g.tick, e.cents AS last_value_cents
    FROM g ASOF JOIN e ON g.user_id = e.user_id AND g.tick >= e.ts
    """,
)
def q_resample_1h_ffill(sf_dir: str):
    """Regular-grid time RESAMPLE with forward fill — the batch
    materialization of the as-of/backfill family: per user, one row per
    epoch-aligned hourly tick between the user's first and last event,
    carrying the last-observed value (equal-ts ties resolve
    last-write-wins by event_id, mirrored by the oracle's ``arg_max``).
    This is how a serving table / training design matrix is laid onto a
    uniform clock.  Fully vectorized (`stages/keyed.py:
    keyed_resample_ffill`): integer ceil-align arithmetic generates all
    ticks of a partition in one arange, and ONE searchsorted on the
    shared adjusted-ts axis resolves every tick's as-of source row; ONE
    shuffle on user_id; output size is span/step per key, bounded by
    wall-clock span, not row count.  Oracle: DuckDB ``generate_series``
    + native ``ASOF JOIN``."""

    ev = _rp(sf_dir, "events", ["event_id", "user_id", "ts", "value"])
    return kd.keyed_resample_ffill(
        ev.map_batches(_add_value_cents_i64, batch_format="pyarrow"),
        "user_id",
        "ts",
        "value_cents",
        step_s=3600.0,
        tiebreak="event_id",
    )


@register(
    "asof_last3_purchases",
    f"""
    WITH err AS (SELECT event_id, user_id, ts FROM events WHERE event_type = 'error'),
    pur AS (SELECT user_id, ts, event_id, {_CENTS_SQL.format(col='value')} AS c
            FROM events WHERE event_type = 'purchase' AND value IS NOT NULL)
    SELECT e.event_id, e.user_id, p.last1_cents, p.last2_cents, p.last3_cents, p.n_last
    FROM err e LEFT JOIN LATERAL (
      SELECT max(CASE WHEN rn = 1 THEN c END) AS last1_cents,
             max(CASE WHEN rn = 2 THEN c END) AS last2_cents,
             max(CASE WHEN rn = 3 THEN c END) AS last3_cents,
             CAST(count(*) AS BIGINT) AS n_last
      FROM (SELECT c, row_number() OVER (ORDER BY ts DESC, event_id DESC) AS rn
            FROM pur WHERE pur.user_id = e.user_id AND pur.ts < e.ts
            ORDER BY ts DESC, event_id DESC LIMIT 3)
    ) p ON TRUE
    """,
)
def q_asof_last3_purchases(sf_dir: str):
    """LAST-K history join (k=3): each error event decorated with the
    user's 3 most recent purchase amounts STRICTLY before it — the
    "last 3 transactions" feature-history shape that a single as-of
    join (k=1) can't express and a window can't either (the history
    comes from a different, filtered table).  Same single key-hash
    exchange as `asof_purchase_before_error`; the k-step backward walk
    is plain index arithmetic off the one searchsorted cursor
    (`stages/asof_join.py:asof_lastk_join`), clamped to the key
    segment's first row.  Newest-first ties resolve by event_id DESC on
    both sides; nulls past the available history.  Oracle: DuckDB
    LATERAL top-3."""
    from multimedia_indexing_ray.stages.asof_join import asof_lastk_join

    ev = _rp(sf_dir, "events", ["event_id", "user_id", "ts", "event_type", "value"])

    pur = ev.filter(expr="event_type == 'purchase'").map_batches(
        _add_value_cents_i64, batch_format="pyarrow"
    ).select_columns(["user_id", "ts", "event_id", "value_cents"])
    err = ev.filter(expr="event_type == 'error'").select_columns(
        ["event_id", "user_id", "ts"]
    )
    out = asof_lastk_join(
        pur,
        err,
        k=3,
        left_key="user_id",
        left_on="ts",
        value_col="value_cents",
        tiebreak="event_id",
        allow_exact_matches=False,
        out_prefix="last",
        num_partitions=32,
    )

    def _finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_id": batch["event_id"],
                "user_id": batch["user_id"],
                "last1_cents": batch["last1"],
                "last2_cents": batch["last2"],
                "last3_cents": batch["last3"],
                "n_last": batch["n_last"],
            }
        )

    return out.map_batches(_finish, batch_format="pyarrow")


@register(
    "zscore_value_pit",
    f"""
    WITH c AS (
      SELECT event_id, user_id, {_CENTS_SQL.format(col='value')} AS c,
        CAST(count(*) OVER w AS BIGINT) AS n,
        sum({_CENTS_SQL.format(col='value')}) OVER w AS sx,
        sum({_CENTS_SQL.format(col='value')} * {_CENTS_SQL.format(col='value')}) OVER w AS sxx
      FROM events
      WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id
                   ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING))
    SELECT event_id, user_id, n AS n_prior,
      CASE WHEN n >= 2
            AND CAST(n AS DOUBLE)*CAST(sxx AS DOUBLE) - CAST(sx AS DOUBLE)*CAST(sx AS DOUBLE) > 0
       THEN (CAST(n AS DOUBLE)*CAST(c AS DOUBLE) - CAST(sx AS DOUBLE))
            / sqrt(CAST(n AS DOUBLE)*CAST(sxx AS DOUBLE) - CAST(sx AS DOUBLE)*CAST(sx AS DOUBLE))
       ELSE 0.0 END AS z_pit_value_cents
    FROM c
    """,
)
def q_zscore_value_pit(sf_dir: str):
    """Point-in-time EXPANDING z-score — each event standardized against
    the user's STRICTLY-PRIOR history only (the leakage-free sibling of
    `zscore_value_per_user`, whose full-history moments would leak
    future values into a training feature; same PIT discipline as
    `target_encode_user` / `minmax_scale_pit`).  Prior (n, Σc, Σc²) are
    exact int64 prefix-sum differences and

        z = (n·c − Σc) / √(n·Σc² − (Σc)²)

    is one fixed IEEE-754 expression tree over those exact integers,
    written identically in the oracle — bit-exact DOUBLEs, no tolerance.
    ONE shuffle on user_id (`stages/keyed.py:keyed_expanding_zscore`)."""
    ev = _rp(sf_dir, "events", ["event_id", "user_id", "ts", "value"])
    out = kd.keyed_expanding_zscore(
        ev.map_batches(_add_value_cents, batch_format="pyarrow"),
        "user_id",
        "ts",
        "value_cents",
        tiebreak="event_id",
        id_cols=["event_id"],
    )

    def _finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_id": batch["event_id"],
                "user_id": batch["user_id"],
                "n_prior": batch["n_prior"],
                "z_pit_value_cents": batch["z_pit_value_cents"],
            }
        )

    return out.map_batches(_finish, batch_format="pyarrow")


@register(
    "twa_value_1h",
    f"""
    WITH lw AS (SELECT user_id, ts, arg_max({_CENTS_SQL.format(col='value')}, event_id) AS c
                FROM events GROUP BY user_id, ts),
    seg AS (SELECT user_id, ts AS t0, c,
                   lead(ts) OVER (PARTITION BY user_id ORDER BY ts) AS t1
            FROM lw),
    mn AS (SELECT user_id, min(ts) AS first_ts FROM events GROUP BY user_id)
    SELECT e.event_id, e.user_id,
      (SELECT CAST(COALESCE(SUM(s.c *
           (epoch_us(LEAST(COALESCE(s.t1, e.ts), e.ts))
            - epoch_us(GREATEST(s.t0, e.ts - INTERVAL 1 HOUR)))), 0) AS BIGINT)
       FROM seg s
       WHERE s.user_id = e.user_id AND s.t0 <= e.ts
         AND COALESCE(s.t1, e.ts) > e.ts - INTERVAL 1 HOUR) AS twa_num_cents_us,
      CAST(epoch_us(e.ts) - epoch_us(GREATEST(e.ts - INTERVAL 1 HOUR, m.first_ts))
           AS BIGINT) AS covered_us
    FROM events e JOIN mn m USING (user_id)
    """,
)
def q_twa_value(sf_dir: str):
    """TIME-WEIGHTED AVERAGE inputs over the trailing hour — the
    time-INTEGRAL aggregation family (level/state series: the value
    holds between events, so the mean must weight by holding time, not
    by event count — the opposite failure mode of `sliding_1h`'s
    row-weighted sums).  Emits the EXACT integer numerator
    ∫ v(s)ds in cents·µs and the covered duration (clipped at the
    user's first event; no extrapolation), so parity is pure int64 —
    no division, no floats anywhere.  One sorted pass: per-row segment
    masses d_i = c_i·(next_ts − ts) prefix-summed, window = D[r] − D[lo]
    plus the carry-in segment clipped at t−W (the piece of the last
    pre-window event still covering the window start).  Equal-ts runs
    have zero-width segments, so last-write-wins falls out of the sort
    — matching the oracle's arg_max per (user, ts).  Overflow budget:
    Σ cents·µs per partition group must stay below 2^63 (same stated
    discipline as `prefix_sums_int`; num_partitions bounds it).  ONE
    shuffle on user_id."""
    from multimedia_indexing_ray.stages.partition import map_partitions_by_key

    ev = _rp(sf_dir, "events", ["event_id", "user_id", "ts", "value"])
    W = 3600 * 1_000_000

    def kernel(table: pa.Table) -> pa.Table:
        t = table.sort_by(
            [("user_id", "ascending"), ("ts", "ascending"), ("event_id", "ascending")]
        )
        n = t.num_rows
        if n == 0:
            return pa.table(
                {
                    "event_id": pa.array([], pa.int64()),
                    "user_id": pa.array([], pa.int64()),
                    "twa_num_cents_us": pa.array([], pa.int64()),
                    "covered_us": pa.array([], pa.int64()),
                }
            )
        uid = t["user_id"].to_numpy()
        starts = sg.segment_starts(uid)
        counts = sg.segment_counts(starts, n)
        seg0 = np.repeat(starts, counts)
        ts = t["ts"].cast(pa.int64()).to_numpy()
        c = _cents(t["value"].to_numpy()).astype(np.int64)
        adj = sg.adjusted_ts(ts, starts, W + 1)
        lo = sg.sliding_lo(adj, W, "both")
        # per-row segment mass: value holds until the user's next event
        nts = np.empty(n, dtype=np.int64)
        nts[:-1] = ts[1:]
        nts[-1] = ts[-1]
        last_of_user = np.zeros(n, dtype=bool)
        last_of_user[starts + counts - 1] = True
        nts[last_of_user] = ts[last_of_user]  # open segment: zero mass
        d = c * (nts - ts)
        D = sg.prefix_sums_int(d)[:, 0]
        rows = np.arange(n)
        num = D[rows] - D[lo]  # segments fully inside [ts_lo, t)
        has_carry = lo > seg0
        j = np.maximum(lo - 1, 0)
        carry = np.where(has_carry, c[j] * (ts[lo] - (ts - W)), 0)
        covered = np.minimum(W, ts - ts[seg0])
        return pa.table(
            {
                "event_id": t["event_id"],
                "user_id": t["user_id"],
                "twa_num_cents_us": pa.array(num + carry, pa.int64()),
                "covered_us": pa.array(covered, pa.int64()),
            }
        )

    return map_partitions_by_key(ev, "user_id", kernel, num_partitions=32)


@register(
    "rolling_pctrank_1h",
    """
    SELECT e.event_id, e.user_id,
      (SELECT CAST(count(*) AS BIGINT) FROM events u
       WHERE u.user_id = e.user_id AND u.ts BETWEEN e.ts - INTERVAL 1 HOUR AND e.ts
         AND u.value <= e.value) AS rank_le_1h,
      (SELECT CAST(count(*) AS BIGINT) FROM events u
       WHERE u.user_id = e.user_id AND u.ts BETWEEN e.ts - INTERVAL 1 HOUR AND e.ts) AS n_1h
    FROM events e
    """,
)
def q_rolling_pctrank(sf_dir: str):
    """Windowed PERCENT-RANK inputs (rank of the row's own value among
    its trailing-hour window, plus window size) — the SELF-REFERENTIAL
    order statistic: median/p90/IQR select a window element by position,
    this locates the CURRENT row within the window's distribution (the
    'how unusual is this event for this user right now' feature).
    Kernel: the window-disjoint integer-key trick
    (`functions/segments.py:range_rank_le`) — sorted window values get
    key row·span + (v−min), so ONE global searchsorted answers every
    row's in-window dominance rank, no per-window loop; mass-capped CSR
    chunks bound memory.  Integer counts -> hash-exact vs the
    correlated-subquery oracle.  ONE shuffle on user_id; the comparison
    is on the RAW doubles (dense-ranked exactly inside the kernel), so
    sub-cent distinctions the oracle's `<=` sees are preserved."""
    from multimedia_indexing_ray.stages.partition import map_partitions_by_key

    ev = _rp(sf_dir, "events", ["event_id", "user_id", "ts", "value"])
    width_us = 3600 * 1_000_000

    def kernel(table: pa.Table) -> pa.Table:
        t = table.sort_by(
            [("user_id", "ascending"), ("ts", "ascending"), ("event_id", "ascending")]
        )
        n = t.num_rows
        if n == 0:
            return pa.table(
                {
                    "event_id": pa.array([], pa.int64()),
                    "user_id": pa.array([], pa.int64()),
                    "rank_le_1h": pa.array([], pa.int64()),
                    "n_1h": pa.array([], pa.int64()),
                }
            )
        uid = t["user_id"].to_numpy()
        starts = sg.segment_starts(uid)
        ts = t["ts"].cast(pa.int64()).to_numpy()
        adj = sg.adjusted_ts(ts, starts, width_us + 1)
        hi = sg.visible_hi(adj)
        lo = sg.sliding_lo(adj, width_us, "both")
        rank = sg.range_rank_le(t["value"].to_numpy(), lo, hi)
        return pa.table(
            {
                "event_id": t["event_id"],
                "user_id": t["user_id"],
                "rank_le_1h": pa.array(rank, pa.int64()),
                "n_1h": pa.array(hi - lo, pa.int64()),
            }
        )

    return map_partitions_by_key(ev, "user_id", kernel, num_partitions=32)


@register(
    "event_type_streak",
    """
    WITH s AS (
      SELECT event_id, user_id, event_type, ts,
        row_number() OVER (PARTITION BY user_id ORDER BY ts, event_id) AS rn,
        row_number() OVER (PARTITION BY user_id, event_type
                           ORDER BY ts, event_id) AS rnt
      FROM events)
    SELECT event_id, user_id,
      CAST(row_number() OVER (PARTITION BY user_id, event_type, rn - rnt
                              ORDER BY rn) AS BIGINT) AS streak_len,
      CAST(CASE WHEN lag(event_type) OVER (PARTITION BY user_id
                                           ORDER BY ts, event_id)
                     IS DISTINCT FROM event_type THEN 1 ELSE 0 END
           AS BIGINT) AS is_run_start
    FROM s
    """,
)
def q_event_type_streak(sf_dir: str):
    """GAPS-AND-ISLANDS (run-length) features: the length of the current
    run of consecutive same-type events per user, plus the run-start
    flag — the classic consecutive-behavior pattern (retry storms, rage
    clicks, streak counters) whose SQL form is the famous ``rn − rn_per_
    type`` grouping trick.  The engine side needs no window functions at
    all: one sorted pass, run boundaries = (user change) OR (type
    change), streak = relative index within the run + 1
    (`functions/segments.py` segment kernels reused verbatim at the run
    granularity).  Integer outputs -> hash-exact.  ONE shuffle on
    user_id."""
    from multimedia_indexing_ray.stages.partition import map_partitions_by_key

    ev = _rp(sf_dir, "events", ["event_id", "user_id", "ts", "event_type"])

    def kernel(table: pa.Table) -> pa.Table:
        t = table.sort_by(
            [("user_id", "ascending"), ("ts", "ascending"), ("event_id", "ascending")]
        )
        n = t.num_rows
        if n == 0:
            return pa.table(
                {
                    "event_id": pa.array([], pa.int64()),
                    "user_id": pa.array([], pa.int64()),
                    "streak_len": pa.array([], pa.int64()),
                    "is_run_start": pa.array([], pa.int64()),
                }
            )
        uid = t["user_id"].to_numpy()
        et = t["event_type"].to_numpy(zero_copy_only=False)
        bound = np.ones(n, dtype=bool)
        if n > 1:
            bound[1:] = (uid[1:] != uid[:-1]) | (et[1:] != et[:-1])
        run_starts = np.flatnonzero(bound).astype(np.int64)
        streak = sg.rel_index(run_starts, n) + 1
        return pa.table(
            {
                "event_id": t["event_id"],
                "user_id": t["user_id"],
                "streak_len": pa.array(streak, pa.int64()),
                "is_run_start": pa.array(bound.astype(np.int64), pa.int64()),
            }
        )

    return map_partitions_by_key(ev, "user_id", kernel, num_partitions=32)


@register(
    "global_sliding_1h",
    f"""
    SELECT event_id,
      CAST(count(*) OVER w AS BIGINT) AS n_1h_all,
      CAST(sum({_CENTS_SQL.format(col='value')}) OVER w AS BIGINT) AS sum_cents_1h_all
    FROM events
    WINDOW w AS (ORDER BY ts RANGE BETWEEN INTERVAL 1 HOUR PRECEDING AND CURRENT ROW)
    """,
)
def q_global_sliding_1h(sf_dir: str):
    """UNKEYED (global) sliding window — count/sum over ALL events in
    the trailing hour, per event.  Every other sliding window here hash-
    partitions on an entity key; a global window has no key, so the
    scale plan is TIME-RANGE bucketing with HALO replication: each row
    is routed to its hour bucket AND to the next one (tag=halo), so a
    bucket's partition holds exactly the rows any of its windows can
    reach (window width <= bucket width), and

        F(t)      = base[bucket]   + rank of t among own rows  (<= t)
        G(t-1h)   = base[bucket-1] + rank of t-1h among halo rows (< t-1h)
        window    = F(t) - G(t-1h)

    where base[] is the exclusive running total of PER-BUCKET partial
    aggregates — one row per wall-clock hour, a metadata-sized driver
    pass (10 years = 87,600 rows; documented bound, not data-sized).
    Each row is shipped at most twice; the exchange key is the bucket.
    Integer counts/cents -> hash-exact vs the global RANGE frame oracle.
    """
    from multimedia_indexing_ray.stages.partition import map_partitions_by_key

    _US_H = 3600 * 1_000_000
    ev = _rp(sf_dir, "events", ["event_id", "ts", "value"]).map_batches(
        _add_value_cents_i64, batch_format="pyarrow"
    )

    # per-bucket partial (n, sum) -> exclusive running totals (tiny).
    # Accumulated with int64 np.add.at, NOT float-weighted bincount —
    # a float64 partial would round past 2^53 and break hash-exactness.
    # Fed from a SEPARATE column-pruned scan (ts+value only) rather than
    # materializing `ev`: at 100 TB a full materialize pins the table in
    # the object store, while a second 2-column scan streams.
    def _partial(batch: pa.Table) -> pa.Table:
        ts = batch["ts"].cast(pa.int64()).to_numpy()
        b = ts // _US_H
        c = _cents(batch["value"].to_numpy()).astype(np.int64)
        ub, inv = np.unique(b, return_inverse=True)
        n = np.bincount(inv).astype(np.int64)
        s = np.zeros(len(ub), dtype=np.int64)
        np.add.at(s, inv, c)
        return pa.table(
            {
                "bucket": pa.array(ub, pa.int64()),
                "n": pa.array(n, pa.int64()),
                "s": pa.array(s, pa.int64()),
            }
        )

    parts = (
        _rp(sf_dir, "events", ["ts", "value"])
        .map_batches(_partial, batch_format="pyarrow")
        .to_pandas()
    )
    tot = parts.groupby("bucket", sort=True)[["n", "s"]].sum()
    buckets = tot.index.to_numpy()
    base_n = np.concatenate([[0], np.cumsum(tot["n"].to_numpy())[:-1]])
    base_s = np.concatenate([[0], np.cumsum(tot["s"].to_numpy())[:-1]])

    def _route(batch: pa.Table) -> pa.Table:
        ts = batch["ts"].cast(pa.int64()).to_numpy()
        b = ts // _US_H
        own = batch.append_column("__bucket", pa.array(b, pa.int64()))
        own = own.append_column("__halo", pa.array(np.zeros(len(b), np.int8)))
        halo = batch.append_column("__bucket", pa.array(b + 1, pa.int64()))
        halo = halo.append_column("__halo", pa.array(np.ones(len(b), np.int8)))
        return pa.concat_tables([own, halo])

    def kernel(table: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "event_id": pa.array([], pa.int64()),
                "n_1h_all": pa.array([], pa.int64()),
                "sum_cents_1h_all": pa.array([], pa.int64()),
            }
        )
        own = table.filter(pc.equal(table["__halo"], 0))
        if own.num_rows == 0:
            return empty
        halo = table.filter(pc.equal(table["__halo"], 1))
        o = own.sort_by([("ts", "ascending")])
        ots = o["ts"].cast(pa.int64()).to_numpy()
        oc = o["value_cents"].to_numpy(zero_copy_only=False).astype(np.int64)
        hts_raw = halo["ts"].cast(pa.int64()).to_numpy()
        horder = np.argsort(hts_raw, kind="stable")
        hts = hts_raw[horder]
        hc = halo["value_cents"].to_numpy(zero_copy_only=False).astype(np.int64)[horder]
        Po = sg.prefix_sums_int(oc)[:, 0]
        Ph = sg.prefix_sums_int(hc)[:, 0]
        # a partition may hold SEVERAL buckets: resolve per distinct bucket
        # (own rows sorted by ts => rows of one bucket are contiguous,
        # bucket = ts // hour is monotone in ts; same for halo)
        ob = o["__bucket"].to_numpy()
        hb = halo["__bucket"].to_numpy()[horder]
        n_out = np.empty(o.num_rows, np.int64)
        s_out = np.empty(o.num_rows, np.int64)
        # ob/hb are nondecreasing (bucket = ts // hour is monotone under
        # the ts sort), so each bucket's rows are one contiguous range —
        # two searchsorted per bucket, not a full boolean scan
        for bk in np.unique(ob):
            om = np.arange(*np.searchsorted(ob, [bk, bk + 1]))
            hm = np.arange(*np.searchsorted(hb, [bk, bk + 1]))
            t = ots[om]
            # F(t): rank of t (<=) among own-bucket rows + base
            ro = np.searchsorted(ots[om], t, side="right")
            bi = np.searchsorted(buckets, bk)
            bn = base_n[bi] if bi < len(buckets) and buckets[bi] == bk else 0
            bs = base_s[bi] if bi < len(buckets) and buckets[bi] == bk else 0
            f_n = bn + ro
            f_s = bs + (Po[om[0] + ro] - Po[om[0]])
            # G(t-1h): rank (<, strict) among PREVIOUS bucket's rows + its
            # base; if the previous hour is empty, every earlier row is
            # already below t-1h, so the own bucket's base IS the rank
            pj = np.searchsorted(buckets, bk - 1)
            has_prev = pj < len(buckets) and buckets[pj] == bk - 1
            pn, ps = (base_n[pj], base_s[pj]) if has_prev else (bn, bs)
            rh = np.searchsorted(hts[hm], t - _US_H, side="left") if hm.size else np.zeros(len(om), np.int64)
            g_n = pn + rh
            g_s = ps + ((Ph[hm[0] + rh] - Ph[hm[0]]) if hm.size else 0)
            n_out[om] = f_n - g_n
            s_out[om] = f_s - g_s
        return pa.table(
            {
                "event_id": o["event_id"],
                "n_1h_all": pa.array(n_out, pa.int64()),
                "sum_cents_1h_all": pa.array(s_out, pa.int64()),
            }
        )

    routed = ev.map_batches(_route, batch_format="pyarrow")
    return map_partitions_by_key(routed, "__bucket", kernel, num_partitions=32)


@register(
    "rolling_rowframe_5",
    f"""
    SELECT event_id, user_id,
      CAST(count(*) OVER w AS BIGINT) AS n_last5,
      CAST(sum({_CENTS_SQL.format(col='value')}) OVER w AS BIGINT) AS sum_cents_last5
    FROM events
    WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id
                 ROWS BETWEEN 4 PRECEDING AND CURRENT ROW)
    """,
)
def q_rolling_rowframe_5(sf_dir: str):
    """ROW-COUNT window frame (last 5 rows per key) — the OTHER SQL
    frame type: every prior sliding window here is time-RANGE based;
    ROWS frames depend on the total row order instead of a time bound
    (so equal-ts peers beyond the frame are EXCLUDED — the opposite of
    RANGE's peers-included rule, which the adversarial 50-equal-ts user
    forces).  One sorted pass: lo = max(segment_start, i-4) and two
    int64 prefix-sum differences; hash-exact integers.  ONE shuffle on
    user_id."""
    from multimedia_indexing_ray.stages.partition import map_partitions_by_key

    ev = _rp(sf_dir, "events", ["event_id", "user_id", "ts", "value"])

    def kernel(table: pa.Table) -> pa.Table:
        t = table.sort_by(
            [("user_id", "ascending"), ("ts", "ascending"), ("event_id", "ascending")]
        )
        n = t.num_rows
        if n == 0:
            return pa.table(
                {
                    "event_id": pa.array([], pa.int64()),
                    "user_id": pa.array([], pa.int64()),
                    "n_last5": pa.array([], pa.int64()),
                    "sum_cents_last5": pa.array([], pa.int64()),
                }
            )
        uid = t["user_id"].to_numpy()
        starts = sg.segment_starts(uid)
        counts = sg.segment_counts(starts, n)
        seg0 = np.repeat(starts, counts)
        cents = _cents(t["value"].to_numpy()).astype(np.int64)
        P = sg.prefix_sums_int(cents)
        rows = np.arange(n)
        lo = np.maximum(seg0, rows - 4)
        return pa.table(
            {
                "event_id": t["event_id"],
                "user_id": t["user_id"],
                "n_last5": pa.array(rows + 1 - lo, pa.int64()),
                "sum_cents_last5": pa.array(P[rows + 1, 0] - P[lo, 0], pa.int64()),
            }
        )

    return map_partitions_by_key(ev, "user_id", kernel, num_partitions=32)


@register(
    "rolling_iqr_1h",
    """
    SELECT event_id, user_id,
      quantile_disc(value, 0.25) OVER w AS p25_value_1h,
      quantile_disc(value, 0.75) OVER w AS p75_value_1h,
      quantile_disc(value, 0.75) OVER w - quantile_disc(value, 0.25) OVER w AS iqr_value_1h
    FROM events
    WINDOW w AS (PARTITION BY user_id ORDER BY ts
                 RANGE BETWEEN INTERVAL 1 HOUR PRECEDING AND CURRENT ROW)
    """,
)
def q_rolling_iqr(sf_dir: str):
    """Sliding-window ROBUST SPREAD (discrete p75 − p25, the IQR) — the
    outlier-insensitive scale feature completing the order-statistic
    window set.  Both quantiles come from ONE CSR expand + lexsort pass
    (`functions/segments.py:range_quantile_disc_multi` — the sort is
    shared, not paid twice), each SELECTS an input double by the
    standing integer rule, and the IQR is a single subtraction of two
    exact doubles — bit-identical on both sides.  ONE shuffle on
    user_id."""
    from multimedia_indexing_ray.stages.partition import map_partitions_by_key

    ev = _rp(sf_dir, "events", ["event_id", "user_id", "ts", "value"])
    width_us = 3600 * 1_000_000

    def kernel(table: pa.Table) -> pa.Table:
        t = table.sort_by(
            [("user_id", "ascending"), ("ts", "ascending"), ("event_id", "ascending")]
        )
        n = t.num_rows
        if n == 0:
            return pa.table(
                {
                    "event_id": pa.array([], pa.int64()),
                    "user_id": pa.array([], pa.int64()),
                    "p25_value_1h": pa.array([], pa.float64()),
                    "p75_value_1h": pa.array([], pa.float64()),
                    "iqr_value_1h": pa.array([], pa.float64()),
                }
            )
        uid = t["user_id"].to_numpy()
        starts = sg.segment_starts(uid)
        ts = t["ts"].cast(pa.int64()).to_numpy()
        adj = sg.adjusted_ts(ts, starts, width_us + 1)
        hi = sg.visible_hi(adj)
        lo = sg.sliding_lo(adj, width_us, "both")
        x = t["value"].to_numpy(zero_copy_only=False)
        p25, p75 = sg.range_quantile_disc_multi(x, lo, hi, (25, 75))
        return pa.table(
            {
                "event_id": t["event_id"],
                "user_id": t["user_id"],
                "p25_value_1h": pa.array(p25, pa.float64()),
                "p75_value_1h": pa.array(p75, pa.float64()),
                "iqr_value_1h": pa.array(p75 - p25, pa.float64()),
            }
        )

    return map_partitions_by_key(ev, "user_id", kernel, num_partitions=32)


@register(
    "purchases_between_errors",
    f"""
    WITH s AS (
      SELECT event_id, user_id, ts, event_type,
        COALESCE(sum(CASE WHEN event_type = 'purchase' THEN 1 END) OVER w, 0) AS np,
        COALESCE(sum(CASE WHEN event_type = 'purchase'
                          THEN {_CENTS_SQL.format(col='value')} END) OVER w, 0) AS sp
      FROM events
      WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id
                   ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)),
    e AS (SELECT event_id, user_id, np, sp,
            lag(np, 1, 0) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS pnp,
            lag(sp, 1, 0) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS psp
          FROM s WHERE event_type = 'error')
    SELECT event_id, user_id,
      CAST(np - pnp AS BIGINT) AS n_purchases_since_prev_error,
      CAST(sp - psp AS BIGINT) AS sum_cents_since_prev_error
    FROM e
    """,
)
def q_purchases_between_errors(sf_dir: str):
    """INTER-MARKER aggregation: for each error event, the count and sum
    of the user's purchases SINCE THE PREVIOUS error — the
    "aggregate between consecutive markers" family (inter-arrival
    behavior features) that neither a fixed window nor a plain as-of
    join expresses.  One sorted partition pass: exclusive int64 prefix
    sums of the purchase indicator/cents give each row's prior-purchase
    totals, the error subsequence is filtered out, and a segment lag
    subtracts the previous error's totals (fill 0 at the first error) —
    all integers, hash-exact vs the oracle's frame + lag formulation.
    ONE shuffle on user_id."""
    from multimedia_indexing_ray.stages.partition import map_partitions_by_key

    ev = _rp(sf_dir, "events", ["event_id", "user_id", "ts", "event_type", "value"])

    def kernel(table: pa.Table) -> pa.Table:
        t = table.sort_by(
            [("user_id", "ascending"), ("ts", "ascending"), ("event_id", "ascending")]
        )
        n = t.num_rows
        empty = pa.table(
            {
                "event_id": pa.array([], pa.int64()),
                "user_id": pa.array([], pa.int64()),
                "n_purchases_since_prev_error": pa.array([], pa.int64()),
                "sum_cents_since_prev_error": pa.array([], pa.int64()),
            }
        )
        if n == 0:
            return empty
        uid = t["user_id"].to_numpy()
        starts = sg.segment_starts(uid)
        counts = sg.segment_counts(starts, n)
        seg0 = np.repeat(starts, counts)
        et = t["event_type"].to_numpy(zero_copy_only=False)
        is_pur = (et == "purchase").astype(np.int64)
        cents = _cents(t["value"].to_numpy()).astype(np.int64)
        P = sg.prefix_sums_int(np.stack([is_pur, is_pur * cents], axis=1))
        rows = np.arange(n)
        np_prior = P[rows, 0] - P[seg0, 0]  # purchases strictly before row
        sp_prior = P[rows, 1] - P[seg0, 1]
        err = np.flatnonzero(et == "error")
        if err.size == 0:
            return empty
        e_uid = uid[err]
        e_starts = sg.segment_starts(e_uid)

        def _lag1_int(v: np.ndarray) -> np.ndarray:
            # int64 segment lag (seg_lag is float64; keep the sums exact)
            out = np.zeros_like(v)
            out[1:] = v[:-1]
            out[e_starts] = 0
            return out

        e_np, e_sp = np_prior[err], sp_prior[err]
        return pa.table(
            {
                "event_id": t["event_id"].take(pa.array(err, pa.int64())),
                "user_id": pa.array(e_uid, pa.int64()),
                "n_purchases_since_prev_error": pa.array(
                    e_np - _lag1_int(e_np), pa.int64()
                ),
                "sum_cents_since_prev_error": pa.array(
                    e_sp - _lag1_int(e_sp), pa.int64()
                ),
            }
        )

    return map_partitions_by_key(ev, "user_id", kernel, num_partitions=32)


@register(
    "resample_1h_interp",
    f"""
    WITH eb AS (SELECT user_id, ts, arg_max({_CENTS_SQL.format(col='value')}, event_id) AS c
                FROM events GROUP BY user_id, ts),
    ef AS (SELECT user_id, ts, arg_min({_CENTS_SQL.format(col='value')}, event_id) AS c
           FROM events GROUP BY user_id, ts),
    b AS (SELECT user_id,
            make_timestamp(((epoch_us(min(ts)) + 3599999999) // 3600000000) * 3600000000) AS g0,
            max(ts) AS t1
          FROM events GROUP BY user_id),
    g AS (SELECT user_id, unnest(generate_series(g0, t1, INTERVAL 1 HOUR)) AS tick
          FROM b WHERE g0 <= t1),
    j AS (
      SELECT g.user_id, g.tick,
             e0.ts AS ts0, e0.c AS v0, e1.ts AS ts1, e1.c AS v1
      FROM g
      ASOF JOIN eb e0 ON g.user_id = e0.user_id AND g.tick >= e0.ts
      ASOF LEFT JOIN ef e1 ON g.user_id = e1.user_id AND g.tick < e1.ts)
    SELECT user_id, tick,
      CASE WHEN ts1 IS NULL THEN CAST(v0 AS DOUBLE)
           ELSE CAST(v0 * (epoch_us(ts1) - epoch_us(tick))
                     + v1 * (epoch_us(tick) - epoch_us(ts0)) AS DOUBLE)
                / CAST(epoch_us(ts1) - epoch_us(ts0) AS DOUBLE) END AS interp_value_cents
    FROM j
    """,
)
def q_resample_1h_interp(sf_dir: str):
    """Regular-grid resample with LINEAR INTERPOLATION — completes the
    resampling pair with `resample_1h_ffill` (ffill = step function for
    state-like series; interp = piecewise-linear for level-like ones).
    v0/v1 are the bracketing events (backward ties -> max event_id,
    forward ties -> min event_id — the oracle's arg_max/arg_min), the
    cross-products v0·(t1−t) + v1·(t−t0) are EXACT int64 over integer
    cents x microsecond deltas, and the single cast + division is one
    IEEE tree shared with the oracle — bit-exact DOUBLEs.  No
    extrapolation past the last event (v0 carries).  Same one-shuffle
    one-searchsorted plan (`stages/keyed.py:keyed_resample_interp`);
    oracle: dual DuckDB ASOF JOINs (backward + forward)."""

    ev = _rp(sf_dir, "events", ["event_id", "user_id", "ts", "value"])
    return kd.keyed_resample_interp(
        ev.map_batches(_add_value_cents_i64, batch_format="pyarrow"),
        "user_id",
        "ts",
        "value_cents",
        step_s=3600.0,
        tiebreak="event_id",
    )


@register(
    "editdist_neardup",
    r"""
    WITH tk AS (SELECT doc_id, text, regexp_extract_all(text, '\S+') AS toks FROM documents),
    s AS (SELECT doc_id, text, list_distinct(
            CASE WHEN len(toks) = 0 THEN CAST([] AS VARCHAR[])
                 WHEN len(toks) < 3 THEN [array_to_string(toks, ' ')]
                 ELSE list_transform(range(1, len(toks) - 1),
                        i -> toks[i] || ' ' || toks[i+1] || ' ' || toks[i+2]) END) AS sh
          FROM tk),
    s2 AS (SELECT doc_id, text, list_min(sh) AS anchor FROM s WHERE len(sh) > 0)
    SELECT a.doc_id AS a_id, b.doc_id AS b_id,
           CAST(levenshtein(a.text, b.text) AS BIGINT) AS edit_distance
    FROM s2 a JOIN s2 b ON a.anchor = b.anchor AND a.doc_id < b.doc_id
    WHERE levenshtein(a.text, b.text) <= 16
    """,
)
def q_editdist_neardup(sf_dir: str):
    """Edit-distance (Levenshtein <= 16) near-dup pairs within the same
    min-shingle anchor blocks as `ngram_jaccard_pairs` — the string-
    METRIC member of the near-dup family (exact character edit budget,
    where minhash/jaccard/simhash measure set overlap; catches small
    in-place edits that shift many shingles).  Verification is the
    VECTORIZED banded Ukkonen DP over all pairs of a block at once
    (`functions/editdist.py`), with the |len diff| > K prefilter; raw
    text crosses the ONE anchor shuffle because no sketch preserves edit
    distance (documented partitioning assumption).  Oracle: DuckDB
    ``levenshtein`` under the identical blocking CTE."""
    docs = _rp(sf_dir, "documents", ["doc_id", "text"])
    return dd.anchor_editdist_pairs(
        docs,
        "text",
        "doc_id",
        max_dist=16,
        num_partitions=16,
        coalesce=docs.count() <= _COALESCE_DOCS,
    )


@register(
    "target_encode_user",
    """
    WITH w AS (
      SELECT event_id, user_id,
        COUNT(*) OVER win AS n_prior,
        COALESCE(SUM(CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END)
                 OVER win, 0) AS n_prior_purchase
      FROM events
      WINDOW win AS (PARTITION BY user_id ORDER BY ts, event_id
                     ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING))
    SELECT event_id, user_id,
      CAST(n_prior AS BIGINT) AS n_prior,
      CAST(n_prior_purchase AS BIGINT) AS n_prior_purchase,
      CASE WHEN n_prior > 0
           THEN CAST(n_prior_purchase AS DOUBLE) / n_prior
           ELSE NULL END AS te_purchase_rate
    FROM w
    """,
)
def q_target_encode_user(sf_dir: str):
    """Time-safe cumulative target encoding: each event sees the purchase
    rate of the SAME user's strictly-preceding events under the total
    (ts, event_id) order — the leakage-free categorical encoder for
    training-data pipelines (a past-only expanding window, same
    visibility discipline as the flagship's as-of features).  ONE shuffle
    on user_id; per-partition kernel is a shifted segmented cumsum.  The
    rate is a single int/int division, bit-identical to the SQL."""
    from multimedia_indexing_ray.stages.partition import map_partitions_by_key

    ev = _rp(sf_dir, "events", ["event_id", "user_id", "ts", "event_type"])

    def kernel(table: pa.Table) -> pa.Table:
        t = table.sort_by(
            [("user_id", "ascending"), ("ts", "ascending"), ("event_id", "ascending")]
        )
        n = t.num_rows
        uid = t["user_id"].to_numpy()
        starts = sg.segment_starts(uid)
        n_prior = sg.rel_index(starts, n)
        purch = pc.equal(t["event_type"], "purchase").to_numpy(zero_copy_only=False)
        purch = np.asarray(purch, dtype=np.int64)
        ex = np.concatenate([[0], np.cumsum(purch)[:-1]]) if n else np.empty(0, np.int64)
        seg_base = np.repeat(ex[starts], sg.segment_counts(starts, n)) if n else ex
        npp = ex - seg_base
        with np.errstate(invalid="ignore", divide="ignore"):
            rate = npp.astype(np.float64) / n_prior
        return pa.table(
            {
                "event_id": t["event_id"],
                "user_id": t["user_id"],
                "n_prior": pa.array(n_prior.astype(np.int64), pa.int64()),
                "n_prior_purchase": pa.array(npp.astype(np.int64), pa.int64()),
                "te_purchase_rate": pa.array(rate, pa.float64(), mask=(n_prior == 0)),
            }
        )

    return map_partitions_by_key(ev, "user_id", kernel, num_partitions=32)


@register(
    "orders_per_customer_hist",
    """
    WITH per_cust AS (
      SELECT c.c_custkey, CAST(COUNT(o.o_orderkey) AS BIGINT) AS c_count
      FROM customer c LEFT JOIN orders o ON o.o_custkey = c.c_custkey
      GROUP BY 1)
    SELECT c_count, CAST(COUNT(*) AS BIGINT) AS custdist
    FROM per_cust GROUP BY 1
    """,
)
def q_orders_per_customer_hist(sf_dir: str):
    """TPC-H Q13 shape: orders-per-customer distribution INCLUDING
    zero-order customers.  The only real exchange is the per-batch
    partial count of the fact side reduced by one keyed shuffle; the
    count-of-counts histogram has tiny cardinality, so its partials
    coalesce into one block (`_tiny_group_sum` pattern), and the
    zero-order bucket is total-customers (a parquet METADATA count — no
    customer-table scan) minus customers seen in orders — the left join
    never materializes."""
    from multimedia_indexing_ray.stages.partition import map_partitions_by_key

    orders = _rp(sf_dir, "orders", ["o_custkey"])
    n_cust = _rp(sf_dir, "customer", ["c_custkey"]).count()

    def _partial(batch: pa.Table) -> pa.Table:
        k, c = np.unique(batch["o_custkey"].to_numpy(), return_counts=True)
        return pa.table(
            {
                "c_custkey": pa.array(k, pa.int64()),
                "cnt": pa.array(c.astype(np.int64), pa.int64()),
            }
        )

    per_cust = map_partitions_by_key(
        orders.map_batches(_partial, batch_format="pyarrow"),
        "c_custkey",
        lambda t: _pa_group_sum(t, ["c_custkey"], ["cnt"]),
        num_partitions=16,
    )

    def _hist_partial(batch: pa.Table) -> pa.Table:
        k, c = np.unique(batch["cnt"].to_numpy(), return_counts=True)
        return pa.table(
            {
                "c_count": pa.array(k, pa.int64()),
                "custdist": pa.array(c.astype(np.int64), pa.int64()),
            }
        )

    def _final(batch: pa.Table) -> pa.Table:
        g = _pa_group_sum(batch, ["c_count"], ["custdist"])
        n_with = pc.sum(g["custdist"]).as_py() or 0
        zero = int(n_cust) - int(n_with)
        if zero > 0:
            g = pa.concat_tables(
                [
                    g,
                    pa.table(
                        {
                            "c_count": pa.array([0], pa.int64()),
                            "custdist": pa.array([zero], pa.int64()),
                        }
                    ),
                ]
            )
        return g

    return (
        per_cust.map_batches(_hist_partial, batch_format="pyarrow")
        .repartition(1)
        .map_batches(_final, batch_format="pyarrow", batch_size=None)
    )


@register(
    "inverted_index_terms",
    r"""
    WITH t2 AS (SELECT doc_id, unnest(regexp_extract_all(text, '\S+')) AS tok
                FROM documents)
    SELECT tok AS term, CAST(COUNT(DISTINCT doc_id) AS BIGINT) AS df,
           CAST(COUNT(*) AS BIGINT) AS tf, MIN(doc_id) AS first_doc
    FROM t2 GROUP BY 1
    """,
)
def q_inverted_index(sf_dir: str):
    """Inverted-index build (term -> document frequency, collection
    frequency, first posting) — the text analog of the reference's
    index-construction pass (`AbstractSearchStructure.java` builds
    id->vector postings; a BoW codebook is exactly a term index,
    `aggregation/BowAggregator.java:39-74`).  Per-batch partials emit one
    row per DISTINCT in-batch term (docs never straddle batches, so df
    partials are mergeable); one keyed shuffle on term reduces
    sum/sum/min.  The exchange carries vocabulary-sized tables, not the
    corpus."""
    from multimedia_indexing_ray.stages.partition import map_partitions_by_key

    docs = _rp(sf_dir, "documents", ["doc_id", "text"])

    _empty = pa.table(
        {
            "term": pa.array([], pa.string()),
            "df": pa.array([], pa.int64()),
            "tf": pa.array([], pa.int64()),
            "first_doc": pa.array([], pa.int64()),
        }
    )

    def _partial(batch: pa.Table) -> pa.Table:
        flat, counts = tx.flat_tokens(batch["text"])
        if len(flat) == 0:
            return _empty
        ids = batch["doc_id"].to_numpy()
        doc_of = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
        uniq, tok_id = np.unique(flat, return_inverse=True)
        order = np.argsort(tok_id, kind="stable")
        tid_s = tok_id[order]
        bounds = np.flatnonzero(np.r_[True, tid_s[1:] != tid_s[:-1]])
        tf = np.diff(np.r_[bounds, tid_s.size]).astype(np.int64)
        first = np.minimum.reduceat(ids[doc_of][order], bounds)
        nv = np.int64(len(uniq))
        dfc = np.bincount(
            np.unique(doc_of * nv + tok_id) % nv, minlength=len(uniq)
        ).astype(np.int64)
        return pa.table(
            {
                "term": pa.array(uniq, pa.string()),
                "df": pa.array(dfc, pa.int64()),
                "tf": pa.array(tf, pa.int64()),
                "first_doc": pa.array(first, pa.int64()),
            }
        )

    def _reduce(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _empty
        g = pa.TableGroupBy(t, ["term"]).aggregate(
            [("df", "sum"), ("tf", "sum"), ("first_doc", "min")]
        )
        return pa.table(
            {
                "term": g["term"],
                "df": g["df_sum"],
                "tf": g["tf_sum"],
                "first_doc": g["first_doc_min"],
            }
        )

    return map_partitions_by_key(
        docs.map_batches(_partial, batch_format="pyarrow"), "term", _reduce,
        num_partitions=8,
    )


def _decontaminate_sql() -> str:
    from multimedia_indexing_ray.functions.text import FNV_BASIS

    fnv_gram = _fnv_sql("substr(text, i, 8)", FNV_BASIS)
    return rf"""
    WITH g AS (SELECT doc_id, CASE WHEN length(text) < 8 THEN CAST([] AS BIGINT[])
        ELSE list_transform(range(1, length(text) - 6), i -> {fnv_gram}) END AS hs
      FROM documents),
    w AS (SELECT doc_id, CASE WHEN len(hs) = 0 THEN CAST([] AS BIGINT[])
        WHEN len(hs) <= 4 THEN [list_min(hs)]
        ELSE list_distinct(list_transform(range(1, len(hs) - 2), i -> list_min(hs[i:i+3]))) END AS mins
      FROM g),
    bl AS (SELECT COALESCE(list(DISTINCT fp), CAST([] AS BIGINT[])) AS fps
           FROM (SELECT unnest(mins) AS fp FROM w WHERE doc_id % 23 = 7))
    SELECT w.doc_id,
      CAST(len(list_intersect(w.mins, bl.fps)) AS BIGINT) AS n_shared,
      (w.doc_id % 23 = 7) AS is_benchmark,
      (len(list_intersect(w.mins, bl.fps)) > 0) AS contaminated
    FROM w, bl
    """


@register("decontaminate_docs", _decontaminate_sql())
def q_decontaminate(sf_dir: str):
    """Benchmark decontamination: flag every training document sharing a
    winnowing fingerprint (8-gram rolling FNV, window-4 min — the same
    SQL-recomputable fold as `winnow_fingerprint_docs`) with a held-out
    benchmark set (doc_id % 23 == 7 here; any small curated set in
    production).  The benchmark side is by definition tiny, so its
    distinct fingerprint set is collected once and broadcast via ray.put
    (`mapreduce/VisualThreadedMapper.java:119-167`'s DistributedCache
    shape); the corpus pass is then a stateless map with a vectorized
    sorted-membership probe — NO shuffle of the corpus at any point,
    which is what makes this viable at 100 TB."""
    import ray as _ray

    docs = _rp(sf_dir, "documents", ["doc_id", "text"])

    def _bench_fps(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy()
        m = (ids % 23) == 7
        if not m.any():
            return pa.table({"fp": pa.array([], pa.int64())})
        flat, _ = tx.winnow_sets_batch(batch["text"].filter(pa.array(m)))
        return pa.table({"fp": pa.array(np.unique(flat), pa.int64())})

    rows = docs.map_batches(_bench_fps, batch_format="pyarrow").take_all()
    bench = np.unique(np.array([r["fp"] for r in rows], dtype=np.int64))
    ref = _ray.put(bench)

    def _flag(batch: pa.Table) -> pa.Table:
        bl = _ray.get(ref)
        flat, counts = tx.winnow_sets_batch(batch["text"])
        n = len(counts)
        hit = sg.sorted_member(bl, flat)
        doc_of = np.repeat(np.arange(n, dtype=np.int64), counts)
        n_shared = np.bincount(doc_of[hit], minlength=n).astype(np.int64)
        ids = batch["doc_id"].to_numpy()
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_shared": pa.array(n_shared, pa.int64()),
                "is_benchmark": pa.array((ids % 23) == 7),
                "contaminated": pa.array(n_shared > 0),
            }
        )

    return docs.map_batches(_flag, batch_format="pyarrow")


def _contamination_score_sql() -> str:
    from multimedia_indexing_ray.functions.text import FNV_BASIS

    fnv_gram = _fnv_sql("substr(text, i, 8)", FNV_BASIS)
    return rf"""
    WITH g AS (SELECT doc_id, CASE WHEN length(text) < 8 THEN CAST([] AS BIGINT[])
        ELSE list_transform(range(1, length(text) - 6), i -> {fnv_gram}) END AS hs
      FROM documents),
    w AS (SELECT doc_id, CASE WHEN len(hs) = 0 THEN CAST([] AS BIGINT[])
        WHEN len(hs) <= 4 THEN [list_min(hs)]
        ELSE list_distinct(list_transform(range(1, len(hs) - 2), i -> list_min(hs[i:i+3]))) END AS mins
      FROM g),
    bl AS (SELECT COALESCE(list(DISTINCT fp), CAST([] AS BIGINT[])) AS fps
           FROM (SELECT unnest(mins) AS fp FROM w WHERE doc_id % 23 = 7))
    SELECT w.doc_id,
      CAST(len(w.mins) AS BIGINT) AS n_fps,
      CAST(len(list_intersect(w.mins, bl.fps)) AS BIGINT) AS n_shared,
      CAST(CASE WHEN len(w.mins) = 0 THEN 0
           ELSE len(list_intersect(w.mins, bl.fps)) * 1000000 // len(w.mins)
           END AS BIGINT) AS score_ppm
    FROM w, bl
    """


@register("contamination_score_docs", _contamination_score_sql())
def q_contamination_score(sf_dir: str):
    """Graded contamination scoring — the filter-threshold companion to
    the binary `decontaminate_docs` gate (real curation pipelines drop
    above a score, not on any single shared n-gram): per document, the
    fraction (ppm, integer-exact) of its winnowing fingerprints that
    appear in the benchmark set.  Same broadcast-blocklist shape: the
    benchmark fingerprint set ships once via ray.put, the corpus pass is
    a stateless vectorized membership probe — no corpus shuffle."""
    import ray as _ray

    docs = _rp(sf_dir, "documents", ["doc_id", "text"])

    def _bench_fps(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy()
        m = (ids % 23) == 7
        if not m.any():
            return pa.table({"fp": pa.array([], pa.int64())})
        flat, _ = tx.winnow_sets_batch(batch["text"].filter(pa.array(m)))
        return pa.table({"fp": pa.array(np.unique(flat), pa.int64())})

    rows = docs.map_batches(_bench_fps, batch_format="pyarrow").take_all()
    bench = np.unique(np.array([r["fp"] for r in rows], dtype=np.int64))
    ref = _ray.put(bench)

    def _score(batch: pa.Table) -> pa.Table:
        bl = _ray.get(ref)
        flat, counts = tx.winnow_sets_batch(batch["text"])
        n = len(counts)
        hit = sg.sorted_member(bl, flat)
        doc_of = np.repeat(np.arange(n, dtype=np.int64), counts)
        n_shared = np.bincount(doc_of[hit], minlength=n).astype(np.int64)
        n_fps = counts.astype(np.int64)
        score = np.where(n_fps > 0, n_shared * 1_000_000 // np.maximum(n_fps, 1), 0)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_fps": pa.array(n_fps, pa.int64()),
                "n_shared": pa.array(n_shared, pa.int64()),
                "score_ppm": pa.array(score, pa.int64()),
            }
        )

    return docs.map_batches(_score, batch_format="pyarrow")


@register(
    "ntile_value_per_type",
    """
    SELECT event_id, event_type,
      CAST(ntile(4) OVER (PARTITION BY event_type
                          ORDER BY value, event_id) AS BIGINT) AS quartile
    FROM events
    """,
)
def q_ntile_value_per_type(sf_dir: str):
    """Equal-frequency bucketing (NTILE): the feature-binning primitive
    equal-width `value_bucketize` cannot express (quartile membership is
    rank-based).  One keyed exchange on event_type; within a partition
    group the kernel sorts by (value, event_id) and assigns tiles with
    DuckDB's exact rule — the first n % k tiles get ceil(n/k) rows."""
    from multimedia_indexing_ray.stages.partition import map_partitions_by_key

    ev = _rp(sf_dir, "events", ["event_id", "event_type", "value"])
    K = 4

    _empty = pa.table(
        {
            "event_id": pa.array([], pa.int64()),
            "event_type": pa.array([], pa.string()),
            "quartile": pa.array([], pa.int64()),
        }
    )

    def kernel(table: pa.Table) -> pa.Table:
        if table.num_rows == 0:
            return _empty
        et = np.asarray(table["event_type"].to_numpy(zero_copy_only=False), dtype=object)
        val = table["value"].to_numpy(zero_copy_only=False)
        eid = table["event_id"].to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, val, et))
        et_s, eid_s = et[order], eid[order]
        starts = np.flatnonzero(np.r_[True, et_s[1:] != et_s[:-1]])
        n_per = np.r_[starts[1:], len(et_s)] - starts
        idx = np.arange(len(et_s)) - np.repeat(starts, n_per)  # 0-based rank
        n = np.repeat(n_per, n_per)
        base, rem = n // K, n % K
        big = rem * (base + 1)  # rows covered by the ceil-sized tiles
        tile = np.where(
            idx < big,
            idx // np.maximum(base + 1, 1),
            rem + (idx - big) // np.maximum(base, 1),
        )
        return pa.table(
            {
                "event_id": pa.array(eid_s, pa.int64()),
                "event_type": pa.array(et_s, pa.string()),
                "quartile": pa.array(tile + 1, pa.int64()),
            }
        )

    return map_partitions_by_key(ev, "event_type", kernel, num_partitions=8)


@register(
    "json_props_extract",
    """
    SELECT event_id, event_type,
      CAST(json_extract_string(props, '$.k') AS BIGINT) AS k_value
    FROM events
    """,
)
def q_json_props_extract(sf_dir: str):
    """Semi-structured payload extraction (M20 string parsing, the JSON
    case): pull a typed field out of a JSON props column with ONE Arrow
    RE2 kernel pass (`pc.extract_regex` — named-group struct, no per-row
    json.loads loop).  The narrow-schema discipline holds: only
    (event_id, event_type, props) leave storage, and the regex is exact
    for the generator's single-key integer payload — a production schema
    would swap in a real JSON kernel behind the same batch contract."""
    ev = _rp(sf_dir, "events", ["event_id", "event_type", "props"])

    def _extract(batch: pa.Table) -> pa.Table:
        m = pc.extract_regex(batch["props"], r'"k":\s*(?P<k>-?\d+)')
        k = pc.cast(pc.struct_field(m, "k"), pa.int64())
        return pa.table(
            {
                "event_id": batch["event_id"],
                "event_type": batch["event_type"],
                "k_value": k,
            }
        )

    return ev.map_batches(_extract, batch_format="pyarrow")


@register(
    "chunk_docs",
    r"""
    WITH t AS (SELECT doc_id, regexp_extract_all(text, '\S+') AS toks FROM documents),
    c AS (SELECT doc_id, toks,
            unnest(CASE WHEN len(toks) = 0 THEN CAST([] AS BIGINT[])
                   ELSE range(0, CAST(ceil(len(toks)/32.0) AS BIGINT)) END) AS chunk_idx
          FROM t)
    SELECT doc_id, chunk_idx,
      array_to_string(toks[(chunk_idx*32+1):((chunk_idx+1)*32)], ' ') AS chunk_text,
      CAST(len(toks[(chunk_idx*32+1):((chunk_idx+1)*32)]) AS BIGINT) AS n_tokens
    FROM c
    """,
)
def q_chunk_docs(sf_dir: str):
    """Token-budget document chunking — the 1-row -> N-rows flat_map
    shape every RAG/training pipeline needs (context-window packing).
    Chunks tile the batch's flat token array exactly, so the whole batch
    is ONE ListArray build (offsets = 32-token strides per doc) and ONE
    Arrow binary_join — no per-doc Python.  Chunk rows inherit the
    parent id for downstream joins; empty docs emit no chunks.  Zero
    shuffles: chunking is embarrassingly row-parallel."""
    docs = _rp(sf_dir, "documents", ["doc_id", "text"])
    W = 32

    _empty = pa.table(
        {
            "doc_id": pa.array([], pa.int64()),
            "chunk_idx": pa.array([], pa.int64()),
            "chunk_text": pa.array([], pa.string()),
            "n_tokens": pa.array([], pa.int64()),
        }
    )

    def _chunk(batch: pa.Table) -> pa.Table:
        ids, idx, txt, ntok = tx.chunk_tokens(batch["text"], batch["doc_id"].to_numpy(), W)
        if len(ids) == 0:
            return _empty
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "chunk_idx": pa.array(idx, pa.int64()),
                "chunk_text": txt,
                "n_tokens": pa.array(ntok, pa.int64()),
            }
        )

    return docs.map_batches(_chunk, batch_format="pyarrow")


@register(
    "users_without_high_value",
    """
    SELECT DISTINCT user_id FROM events
    EXCEPT SELECT DISTINCT user_id FROM events WHERE value >= 250.0
    """,
)
def q_users_without_high_value(sf_dir: str):
    """Distributed anti-join (the EXCEPT set op; J4's gate shape run as
    a query): the exclusion side — users WITH a high-value event — is collected
    as a distinct key set (aggregate-sized, not corpus-sized) and
    broadcast once; the probe side then distincts per batch and
    anti-filters with a sorted membership probe.  No shuffle carries the
    full event table; the one distinct pass happens inside the same map.

    Scale gate (GRAFT_BROADCAST_ROW_CAP): the purchaser KEY SET is
    aggregate-sized but in principle unbounded (every user could
    purchase), so the broadcast is capped — above the cap the anti-join
    co-partitions slim distinct (user_id, has_high) pairs on user_id
    and resolves per partition, never collecting a key set on the
    driver (rehearsal-flipped hash-equal)."""
    import ray as _ray

    from multimedia_indexing_ray.stages.partition import map_partitions_by_key

    ev = _rp(sf_dir, "events", ["user_id", "value"])

    def _purchasers(batch: pa.Table) -> pa.Table:
        m = pc.greater_equal(batch["value"], 250.0)
        u = np.unique(batch["user_id"].filter(m).to_numpy(zero_copy_only=False))
        return pa.table({"user_id": pa.array(u, pa.int64())})

    purch = ev.map_batches(_purchasers, batch_format="pyarrow").materialize()
    if purch.count() > _broadcast_row_cap():
        # at-scale plan: one shuffle of per-batch-distinct (user, flag)
        # pairs; partitions are disjoint by user so the per-partition
        # distinct IS the global distinct
        def _pairs(batch: pa.Table) -> pa.Table:
            u = batch["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
            hi = pc.greater_equal(batch["value"], 250.0).to_numpy(
                zero_copy_only=False
            )
            code = np.unique((u << 1) | hi.astype(np.int64))
            return pa.table(
                {
                    "user_id": pa.array(code >> 1, pa.int64()),
                    "has_high": pa.array((code & 1).astype(np.int8), pa.int8()),
                }
            )

        def _resolve(t: pa.Table) -> pa.Table:
            u = t["user_id"].to_numpy(zero_copy_only=False)
            hi = t["has_high"].to_numpy(zero_copy_only=False)
            bad = np.unique(u[hi == 1])
            allu = np.unique(u)
            return pa.table(
                {"user_id": pa.array(allu[~sg.sorted_member(bad, allu)], pa.int64())}
            )

        return map_partitions_by_key(
            ev.map_batches(_pairs, batch_format="pyarrow"),
            "user_id",
            _resolve,
            num_partitions=16,
        )

    rows = purch.take_all()
    have = np.unique(np.array([r["user_id"] for r in rows], dtype=np.int64))
    ref = _ray.put(have)

    def _anti(batch: pa.Table) -> pa.Table:
        ex = _ray.get(ref)
        u = np.unique(batch["user_id"].to_numpy(zero_copy_only=False))
        keep = ~sg.sorted_member(ex, u)
        return pa.table({"user_id": pa.array(u[keep], pa.int64())})

    # per-batch distinct survivors may repeat across batches -> one tiny
    # distinct on the (already aggregate-sized) result
    out = ev.map_batches(_anti, batch_format="pyarrow")

    def _final(batch: pa.Table) -> pa.Table:
        u = np.unique(batch["user_id"].to_numpy(zero_copy_only=False))
        return pa.table({"user_id": pa.array(u, pa.int64())})

    return out.repartition(1).map_batches(_final, batch_format="pyarrow", batch_size=None)


@register(
    "ewma_value_per_user",
    f"""
    WITH c AS (SELECT event_id, user_id, ts,
                      {_CENTS_SQL.format(col='value')} AS cents,
                      row_number() OVER (PARTITION BY user_id
                                         ORDER BY ts, event_id) AS rn
               FROM events)
    SELECT a.event_id, a.user_id,
      SUM(b.cents * POWER(2.0, CAST(b.rn - a.rn AS DOUBLE))) AS ewma_value_cents,
      CAST(COUNT(*) AS BIGINT) AS n_terms
    FROM c a JOIN c b
      ON b.user_id = a.user_id AND b.rn BETWEEN a.rn - 19 AND a.rn
    GROUP BY a.event_id, a.user_id
    """,
)
def q_ewma_value_per_user(sf_dir: str):
    """Exponentially-decayed feature (alpha = 1/2, depth 20): each event's
    EWMA over the SAME user's trailing events under the total (ts,
    event_id) order — the recency-weighted aggregate family that plain
    window sums can't express.  The recurrence is deliberately unrolled
    to a depth-20 window so the kernel stays vectorized (one (n, 20)
    strided view x one weight dot) AND bit-exact: integer cents times
    powers of two spans < 2**39 ULPs, so every partial sum is exact in
    ANY association — numpy and the SQL self-join oracle agree to the
    last bit with no quantization tricks.  One shuffle on user_id."""
    from multimedia_indexing_ray.stages.partition import map_partitions_by_key

    ev = _rp(sf_dir, "events", ["event_id", "user_id", "ts", "value"])
    K = 20

    def kernel(table: pa.Table) -> pa.Table:
        from numpy.lib.stride_tricks import sliding_window_view

        t = table.sort_by(
            [("user_id", "ascending"), ("ts", "ascending"), ("event_id", "ascending")]
        )
        n = t.num_rows
        if n == 0:
            return pa.table(
                {
                    "event_id": pa.array([], pa.int64()),
                    "user_id": pa.array([], pa.int64()),
                    "ewma_value_cents": pa.array([], pa.float64()),
                    "n_terms": pa.array([], pa.int64()),
                }
            )
        uid = t["user_id"].to_numpy()
        starts = sg.segment_starts(uid)
        rel = sg.rel_index(starts, n)
        cents = _cents(t["value"].to_numpy())
        padded = np.concatenate([np.zeros(K - 1), cents])
        w = sliding_window_view(padded, K)  # row i = cents[i-19..i]
        j = np.arange(K)
        weights = 2.0 ** (j.astype(np.float64) - (K - 1))  # d = K-1-j
        mask = j[None, :] >= (K - 1 - rel)[:, None]  # drop cross-user terms
        ewma = (w * mask) @ weights
        n_terms = np.minimum(rel + 1, K).astype(np.int64)
        return pa.table(
            {
                "event_id": t["event_id"],
                "user_id": t["user_id"],
                "ewma_value_cents": pa.array(ewma, pa.float64()),
                "n_terms": pa.array(n_terms, pa.int64()),
            }
        )

    return map_partitions_by_key(ev, "user_id", kernel, num_partitions=32)


@register(
    "user_type_unpivot",
    f"""
    WITH p AS (
      SELECT user_id,
        {', '.join(f"CAST(count(*) FILTER (event_type = '{t}') AS BIGINT) AS n_{t}" for t in _EVENT_TYPES)}
      FROM events GROUP BY user_id)
    SELECT user_id, t.et AS event_type,
      CASE t.et {' '.join(f"WHEN '{t}' THEN n_{t}" for t in _EVENT_TYPES)} END AS n
    FROM p, unnest({list(_EVENT_TYPES)!r}) t(et)
    """,
)
def q_user_type_unpivot(sf_dir: str):
    """Wide -> long reshape (UNPIVOT/melt): the inverse of
    `user_type_pivot`, emitting one (entity, variable, value) row per
    wide column INCLUDING explicit zeros — which is exactly what
    distinguishes a melt from a plain groupby (absent combinations
    surface as 0, so downstream models see the full design matrix).
    The melt itself is a stateless per-batch reshape: W column arrays
    concatenated with a tiled vocabulary, no shuffle beyond the pivot's
    own slim exchange."""
    from multimedia_indexing_ray.stages.partition import map_partitions_by_key

    ev = _rp(sf_dir, "events", ["user_id", "event_type"])
    vocab = np.array(_EVENT_TYPES)

    def _partial(batch: pa.Table) -> pa.Table:
        g = pa.TableGroupBy(batch, ["user_id", "event_type"]).aggregate([([], "count_all")])
        return pa.table(
            {
                "user_id": g["user_id"],
                "event_type": g["event_type"],
                "n": g["count_all"].cast(pa.int64()),
            }
        )

    def _pivot_melt(table: pa.Table) -> pa.Table:
        uid = table["user_id"].to_numpy()
        et = np.asarray(table["event_type"])
        n = table["n"].to_numpy()
        users, uinv = np.unique(uid, return_inverse=True)
        tcode = np.searchsorted(vocab, et)
        known = (tcode < len(vocab)) & (vocab[np.minimum(tcode, len(vocab) - 1)] == et)
        mat = np.zeros((len(users), len(vocab)), dtype=np.int64)
        np.add.at(mat, (uinv[known], tcode[known]), n[known])
        w = len(vocab)
        return pa.table(
            {
                "user_id": pa.array(np.repeat(users, w), pa.int64()),
                "event_type": pa.array(np.tile(vocab, len(users)), pa.string()),
                "n": pa.array(mat.ravel(), pa.int64()),
            }
        )

    partials = ev.map_batches(_partial, batch_format="pyarrow")
    return map_partitions_by_key(partials, "user_id", _pivot_melt, num_partitions=16)


@register(
    "outlier_events_p99",
    f"""
    WITH v AS (SELECT event_id, event_type, {_CENTS_SQL.format(col='value')} AS c
               FROM events),
    r AS (SELECT event_type, c,
          row_number() OVER (PARTITION BY event_type ORDER BY c) AS rn,
          count(*) OVER (PARTITION BY event_type) AS n FROM v),
    p AS (SELECT event_type,
          MIN(CASE WHEN rn = (99*n + 99)//100 THEN c END) AS p99_cents
          FROM r GROUP BY event_type)
    SELECT v.event_id, v.event_type, v.c AS cents, p.p99_cents,
           (v.c > p.p99_cents) AS is_outlier
    FROM v JOIN p USING (event_type)
    """,
)
def q_outlier_events_p99(sf_dir: str):
    """Robust outlier flagging: exact per-group p99 thresholds from the
    mergeable cent histogram (the `value_quantiles_by_type` machinery —
    the exchange carries distinct (type, cents) pairs, never rows), the
    tiny |types|-row threshold table broadcast into a stateless flag
    pass.  Two streaming passes, no row shuffle; the integer-rank
    quantile rule keeps both sides bit-identical."""
    from multimedia_indexing_ray.stages.partition import map_partitions_by_key

    ev = _rp(sf_dir, "events", ["event_id", "event_type", "value"])

    def _hist(batch: pa.Table) -> pa.Table:
        c = _cents(batch["value"].to_numpy(zero_copy_only=False)).astype(np.int64)
        t = pa.table({"event_type": batch["event_type"], "c": pa.array(c, pa.int64())})
        g = pa.TableGroupBy(t, ["event_type", "c"]).aggregate([([], "count_all")])
        return pa.table(
            {
                "event_type": g["event_type"],
                "c": g["c"],
                "n": g["count_all"].cast(pa.int64()),
            }
        )

    def _p99(table: pa.Table) -> pa.Table:
        g = _pa_group_sum(table, ["event_type", "c"], ["n"])
        et = np.asarray(g["event_type"])
        cv = g["c"].to_numpy(zero_copy_only=False)
        nv = g["n"].to_numpy(zero_copy_only=False)
        order = np.lexsort((cv, et))
        et, cv, nv = et[order], cv[order], nv[order]
        types, starts = np.unique(et, return_index=True)
        bounds = np.append(starts, len(et))
        out = []
        for i in range(len(types)):
            s, e = bounds[i], bounds[i + 1]
            cum = np.cumsum(nv[s:e])
            n = int(cum[-1])
            target = (99 * n + 99) // 100
            out.append(int(cv[s:e][np.searchsorted(cum, target, side="left")]))
        return pa.table(
            {
                "event_type": pa.array(types, pa.string()),
                "p99_cents": pa.array(out, pa.int64()),
            }
        )

    thresholds = map_partitions_by_key(
        ev.map_batches(_hist, batch_format="pyarrow"), "event_type", _p99,
        num_partitions=4,
    ).take_all()
    tmap_types = np.array([r["event_type"] for r in thresholds])
    tmap_p99 = np.array([r["p99_cents"] for r in thresholds], dtype=np.int64)
    order = np.argsort(tmap_types)
    tmap_types, tmap_p99 = tmap_types[order], tmap_p99[order]

    def _flag(batch: pa.Table) -> pa.Table:
        c = _cents(batch["value"].to_numpy(zero_copy_only=False)).astype(np.int64)
        et = np.asarray(batch["event_type"])
        pos = np.searchsorted(tmap_types, et)
        np.clip(pos, 0, max(len(tmap_types) - 1, 0), out=pos)
        p99 = tmap_p99[pos]
        return pa.table(
            {
                "event_id": batch["event_id"],
                "event_type": batch["event_type"],
                "cents": pa.array(c, pa.int64()),
                "p99_cents": pa.array(p99, pa.int64()),
                "is_outlier": pa.array(c > p99),
            }
        )

    return ev.map_batches(_flag, batch_format="pyarrow")


def _pagerank_sql(rounds: int = 3) -> str:
    its = []
    prev = "p0"
    for i in range(1, rounds + 1):
        its.append(
            f"""p{i} AS (SELECT e.v AS u,
            MIN(prm.base) + (85 * CAST(SUM({prev}.m // deg.d) AS BIGINT)) // 100 AS m
            FROM edges e JOIN {prev} ON {prev}.u = e.u
                         JOIN deg ON deg.u = e.u, prm GROUP BY e.v)"""
        )
        prev = f"p{i}"
    return f"""
    WITH {_NGRAM_PAIRS_CTE},
    edges AS (SELECT a_id AS u, b_id AS v FROM pairs
              UNION SELECT b_id, a_id FROM pairs),
    deg AS (SELECT u, CAST(count(*) AS BIGINT) AS d FROM edges GROUP BY u),
    prm AS (SELECT count(*) AS n, 1000000000000 // count(*) AS init,
            (15 * (1000000000000 // count(*))) // 100 AS base FROM deg),
    p0 AS (SELECT deg.u, prm.init AS m FROM deg, prm),
    {', '.join(its)}
    SELECT {prev}.u AS doc_id, {prev}.m AS pr_micro, deg.d AS degree
    FROM {prev} JOIN deg ON deg.u = {prev}.u
    """


@register("pagerank_neardup", _pagerank_sql(3))
def q_pagerank_neardup(sf_dir: str):
    """Graph centrality over the near-dup graph: integer-quantized
    PageRank (3 rounds, damping 85/100) on the 3-gram-Jaccard pair set —
    ranks each duplicate cluster's most-connected member, the signal
    curation pipelines use to pick representatives or spot template
    farms.  All arithmetic is int64 floor division so the distributed
    result is order-independent and the SQL oracle unrolling the same
    rounds matches bit-for-bit (`stages/cc.py:pagerank`; float PageRank
    could never hash-match across engines)."""
    from multimedia_indexing_ray.stages.cc import pagerank

    docs = _rp(sf_dir, "documents", ["doc_id", "text"])
    pairs = dd.anchor_jaccard_pairs(
        docs, "text", "doc_id", threshold=0.3, num_partitions=16,
        coalesce=docs.count() <= _COALESCE_DOCS,
    )
    return pagerank(pairs, rounds=3)


@register(
    "cum_distinct_types_per_user",
    """
    WITH f AS (
      SELECT event_id, user_id, ts,
        CASE WHEN row_number() OVER (PARTITION BY user_id, event_type
                                     ORDER BY ts, event_id) = 1
             THEN 1 ELSE 0 END AS first_seen
      FROM events)
    SELECT event_id, user_id,
      CAST(SUM(first_seen) OVER (PARTITION BY user_id ORDER BY ts, event_id
                                 ROWS UNBOUNDED PRECEDING) AS BIGINT)
        AS distinct_types_so_far
    FROM f
    """,
)
def q_cum_distinct_types(sf_dir: str):
    """Expanding-window DISTINCT count — "how many distinct event types
    has this user produced up to now" — the running-cardinality feature
    plain window aggregates cannot express (COUNT(DISTINCT) OVER is
    unsupported in SQL engines; both sides use the same
    first-occurrence-flag + running-sum decomposition, so parity is
    exact int64).  One shuffle on user_id; the kernel is two in-partition
    lexsorts and a segmented cumsum — no per-row state."""
    from multimedia_indexing_ray.stages.partition import map_partitions_by_key

    ev = _rp(sf_dir, "events", ["event_id", "user_id", "ts", "event_type"])

    def kernel(table: pa.Table) -> pa.Table:
        n = table.num_rows
        if n == 0:
            return pa.table(
                {
                    "event_id": pa.array([], pa.int64()),
                    "user_id": pa.array([], pa.int64()),
                    "distinct_types_so_far": pa.array([], pa.int64()),
                }
            )
        uid = table["user_id"].to_numpy()
        eid = table["event_id"].to_numpy()
        ts = table["ts"].cast(pa.int64()).to_numpy()
        et = np.asarray(table["event_type"])
        _, tcode = np.unique(et, return_inverse=True)
        # first occurrence of (user, type) under the (ts, event_id) order
        o1 = np.lexsort((eid, ts, tcode, uid))
        u1, t1 = uid[o1], tcode[o1]
        first = np.r_[True, (u1[1:] != u1[:-1]) | (t1[1:] != t1[:-1])]
        flag = np.empty(n, dtype=np.int64)
        flag[o1] = first.astype(np.int64)
        # running sum of flags under the per-user (ts, event_id) order
        o2 = np.lexsort((eid, ts, uid))
        u2 = uid[o2]
        starts = sg.segment_starts(u2)
        cs = np.cumsum(flag[o2])
        base = np.repeat(cs[starts] - flag[o2][starts], sg.segment_counts(starts, n))
        run = cs - base
        out = np.empty(n, dtype=np.int64)
        out[o2] = run
        return pa.table(
            {
                "event_id": table["event_id"],
                "user_id": table["user_id"],
                "distinct_types_so_far": pa.array(out, pa.int64()),
            }
        )

    return map_partitions_by_key(ev, "user_id", kernel, num_partitions=32)


@register(
    "triangle_counts_neardup",
    f"""
    WITH {_NGRAM_PAIRS_CTE},
    e AS (SELECT a_id AS u, b_id AS v FROM pairs),
    tri AS (SELECT e1.u AS a, e1.v AS b, e2.v AS c
            FROM e e1 JOIN e e2 ON e2.u = e1.v
                      JOIN e e3 ON e3.u = e1.u AND e3.v = e2.v)
    SELECT node AS doc_id, CAST(count(*) AS BIGINT) AS n_triangles FROM (
      SELECT a AS node FROM tri
      UNION ALL SELECT b FROM tri
      UNION ALL SELECT c FROM tri) GROUP BY 1
    """,
)
def q_triangle_counts_neardup(sf_dir: str):
    """Wedge-join triangle counting over the near-dup graph (Suri &
    Vassilvitskii WWW'11): per-node triangle participation measures how
    clique-like a duplicate neighborhood is — template farms close
    their wedges, incidental chains don't.  `stages/cc.py:triangle_counts`:
    min->max orientation generates each triangle exactly once at its
    apex; wedges stream through a keyed exchange on their first endpoint
    where a packed-int64 sorted probe closes them; hub apexes above the
    wedge cap are skipped with a logged drop (quadratic wedge sets).
    Deterministic ints end-to-end — the oracle's 3-way self-join matches
    exactly."""
    from multimedia_indexing_ray.stages.cc import triangle_counts

    docs = _rp(sf_dir, "documents", ["doc_id", "text"])
    pairs = dd.anchor_jaccard_pairs(
        docs, "text", "doc_id", threshold=0.3, num_partitions=16,
        coalesce=docs.count() <= _COALESCE_DOCS,
    )
    return triangle_counts(pairs)


@register(
    "temporal_split_assign",
    """
    WITH r AS (SELECT event_id, user_id,
                 row_number() OVER (PARTITION BY user_id ORDER BY ts, event_id) AS rn,
                 count(*) OVER (PARTITION BY user_id) AS n
               FROM events)
    SELECT event_id, user_id,
      CASE WHEN rn > (4 * n) // 5 THEN 'test' ELSE 'train' END AS split
    FROM r
    """,
)
def q_temporal_split_assign(sf_dir: str):
    """Temporal holdout split: each user's LAST 20% of events (under the
    total (ts, event_id) order) become test — the time-respecting
    alternative to the content-hash split (`split_assign`), required
    whenever the model will be evaluated on the future (a random split
    leaks future behavior into training).  Pure integer rank rule
    ``rn > (4n)//5`` so both sides agree exactly; one shuffle on
    user_id, kernel = one in-partition lexsort + segment arithmetic."""
    from multimedia_indexing_ray.stages.partition import map_partitions_by_key

    ev = _rp(sf_dir, "events", ["event_id", "user_id", "ts"])

    def kernel(table: pa.Table) -> pa.Table:
        n = table.num_rows
        if n == 0:
            return pa.table(
                {
                    "event_id": pa.array([], pa.int64()),
                    "user_id": pa.array([], pa.int64()),
                    "split": pa.array([], pa.string()),
                }
            )
        uid = table["user_id"].to_numpy()
        eid = table["event_id"].to_numpy()
        ts = table["ts"].cast(pa.int64()).to_numpy()
        order = np.lexsort((eid, ts, uid))
        su = uid[order]
        starts = sg.segment_starts(su)
        counts = sg.segment_counts(starts, n)
        rn = sg.rel_index(starts, n) + 1
        nn = np.repeat(counts, counts)
        is_test = rn > (4 * nn) // 5
        split = np.where(is_test, "test", "train")
        return pa.table(
            {
                "event_id": pa.array(eid[order], pa.int64()),
                "user_id": pa.array(su, pa.int64()),
                "split": pa.array(split, pa.string()),
            }
        )

    return map_partitions_by_key(ev, "user_id", kernel, num_partitions=32)


@register(
    "user_tenure_features",
    """
    WITH f AS (SELECT user_id, MIN(ts) AS first_ts FROM events GROUP BY 1)
    SELECT e.event_id, e.user_id,
      date_diff('microsecond', f.first_ts, e.ts) // 1000000 AS tenure_s,
      CAST(row_number() OVER (PARTITION BY e.user_id
                              ORDER BY e.ts, e.event_id) AS BIGINT) AS event_rank
    FROM events e JOIN f USING (user_id)
    """,
)
def q_user_tenure_features(sf_dir: str):
    """Per-entity lifetime features: seconds since the user's first-ever
    event (tenure) and the event's rank in their history — the
    account-age signals churn/LTV models start from.  Single shuffle on
    user_id; first_ts, rank and the floor-divided second conversion are
    all integer ops computed inside one segment kernel (no second
    aggregate-join pass, unlike the SQL formulation)."""
    from multimedia_indexing_ray.stages.partition import map_partitions_by_key

    ev = _rp(sf_dir, "events", ["event_id", "user_id", "ts"])

    def kernel(table: pa.Table) -> pa.Table:
        n = table.num_rows
        if n == 0:
            return pa.table(
                {
                    "event_id": pa.array([], pa.int64()),
                    "user_id": pa.array([], pa.int64()),
                    "tenure_s": pa.array([], pa.int64()),
                    "event_rank": pa.array([], pa.int64()),
                }
            )
        uid = table["user_id"].to_numpy()
        eid = table["event_id"].to_numpy()
        ts = table["ts"].cast(pa.int64()).to_numpy()
        order = np.lexsort((eid, ts, uid))
        su, sts = uid[order], ts[order]
        starts = sg.segment_starts(su)
        counts = sg.segment_counts(starts, n)
        # first ts per user = MIN = first row under the (ts, event_id) sort
        first = np.repeat(sts[starts], counts)
        tenure = (sts - first) // 1_000_000
        rank = sg.rel_index(starts, n) + 1
        return pa.table(
            {
                "event_id": pa.array(eid[order], pa.int64()),
                "user_id": pa.array(su, pa.int64()),
                "tenure_s": pa.array(tenure, pa.int64()),
                "event_rank": pa.array(rank.astype(np.int64), pa.int64()),
            }
        )

    return map_partitions_by_key(ev, "user_id", kernel, num_partitions=32)


@register(
    "profile_events",
    """
    SELECT 'event_id' AS column_name, CAST(count(*) AS BIGINT) AS n,
      CAST(count(*) - count(event_id) AS BIGINT) AS n_null,
      CAST(MIN(event_id) AS VARCHAR) AS min_v,
      CAST(MAX(event_id) AS VARCHAR) AS max_v FROM events
    UNION ALL
    SELECT 'user_id', CAST(count(*) AS BIGINT),
      CAST(count(*) - count(user_id) AS BIGINT),
      CAST(MIN(user_id) AS VARCHAR), CAST(MAX(user_id) AS VARCHAR) FROM events
    UNION ALL
    SELECT 'ts', CAST(count(*) AS BIGINT),
      CAST(count(*) - count(ts) AS BIGINT),
      CAST(epoch_us(MIN(ts)) AS VARCHAR), CAST(epoch_us(MAX(ts)) AS VARCHAR)
    FROM events
    UNION ALL
    SELECT 'value_cents', CAST(count(*) AS BIGINT),
      CAST(count(*) - count(value) AS BIGINT),
      CAST(MIN(CAST(FLOOR(value*100+0.5) AS BIGINT)) AS VARCHAR),
      CAST(MAX(CAST(FLOOR(value*100+0.5) AS BIGINT)) AS VARCHAR) FROM events
    UNION ALL
    SELECT 'event_type', CAST(count(*) AS BIGINT),
      CAST(count(*) - count(event_type) AS BIGINT),
      MIN(event_type), MAX(event_type) FROM events
    """,
)
def q_profile_events(sf_dir: str):
    """Data profiling (the validation pass every ingest runs first):
    per-column row/null counts and min/max in ONE streaming pass with
    O(columns) mergeable partials — the exchange carries a 5-row table
    per batch, never data.  Numeric/timestamp extrema merge in their
    integer domain and render to strings only at the final coalesce
    (float rendering and timestamp formatting are engine-specific;
    integer micro/cent keys are not).  String extrema rely on ASCII
    lexicographic order (== DuckDB's collation for this data)."""
    ev = _rp(sf_dir, "events", ["event_id", "user_id", "ts", "event_type", "value"])

    _P_SCHEMA = pa.schema(
        [
            ("column_name", pa.string()),
            ("n", pa.int64()),
            ("n_null", pa.int64()),
            ("min_k", pa.int64()),
            ("max_k", pa.int64()),
            ("min_s", pa.string()),
            ("max_s", pa.string()),
        ]
    )

    def _partial(batch: pa.Table) -> pa.Table:
        rows = []
        nb = batch.num_rows

        def _num(name, arr):
            nn = arr.null_count
            vals = arr.drop_null()
            mn = pc.min(vals).as_py() if len(vals) else None
            mx = pc.max(vals).as_py() if len(vals) else None
            rows.append((name, nb, nn, mn, mx, None, None))

        _num("event_id", batch["event_id"])
        _num("user_id", batch["user_id"])
        _num("ts", batch["ts"].cast(pa.int64()))
        cents = pa.chunked_array(
            [pa.array(_cents(batch["value"].to_numpy(zero_copy_only=False)), pa.int64())]
        )
        _num("value_cents", cents)
        et = batch["event_type"]
        etv = et.drop_null()
        rows.append(
            (
                "event_type",
                nb,
                et.null_count,
                None,
                None,
                pc.min(etv).as_py() if len(etv) else None,
                pc.max(etv).as_py() if len(etv) else None,
            )
        )
        return pa.table(
            {f.name: pa.array([r[i] for r in rows], f.type) for i, f in enumerate(_P_SCHEMA)},
            schema=_P_SCHEMA,
        )

    def _final(batch: pa.Table) -> pa.Table:
        g = pa.TableGroupBy(batch, ["column_name"]).aggregate(
            [("n", "sum"), ("n_null", "sum"), ("min_k", "min"), ("max_k", "max"),
             ("min_s", "min"), ("max_s", "max")]
        )
        name = np.asarray(g["column_name"])
        min_k = g["min_k_min"].to_pandas()
        max_k = g["max_k_max"].to_pandas()
        min_s = g["min_s_min"].to_pandas()
        max_s = g["max_s_max"].to_pandas()
        min_v = [s if k != k or k is None else str(int(k)) for k, s in zip(min_k, min_s)]
        max_v = [s if k != k or k is None else str(int(k)) for k, s in zip(max_k, max_s)]
        return pa.table(
            {
                "column_name": g["column_name"],
                "n": g["n_sum"].cast(pa.int64()),
                "n_null": g["n_null_sum"].cast(pa.int64()),
                "min_v": pa.array(min_v, pa.string()),
                "max_v": pa.array(max_v, pa.string()),
            }
        )

    return (
        ev.map_batches(_partial, batch_format="pyarrow")
        .repartition(1)
        .map_batches(_final, batch_format="pyarrow", batch_size=None)
    )


def _curation_v2_sql() -> str:
    from multimedia_indexing_ray.functions.text import FNV_BASIS

    fnv_gram = _fnv_sql("substr(text, i, 8)", FNV_BASIS)
    return rf"""
    WITH RECURSIVE
    g AS (SELECT doc_id, text, n_chars, CASE WHEN length(text) < 8 THEN CAST([] AS BIGINT[])
        ELSE list_transform(range(1, length(text) - 6), i -> {fnv_gram}) END AS hs
      FROM documents),
    w AS (SELECT doc_id, text, n_chars, CASE WHEN len(hs) = 0 THEN CAST([] AS BIGINT[])
        WHEN len(hs) <= 4 THEN [list_min(hs)]
        ELSE list_distinct(list_transform(range(1, len(hs) - 2), i -> list_min(hs[i:i+3]))) END AS mins
      FROM g),
    bl AS (SELECT COALESCE(list(DISTINCT fp), CAST([] AS BIGINT[])) AS fps
           FROM (SELECT unnest(mins) AS fp FROM w WHERE doc_id % 23 = 7)),
    surv AS (SELECT w.doc_id, w.text, w.n_chars FROM w, bl
             WHERE w.doc_id % 23 <> 7
               AND NOT (len(w.mins) > 0
                        AND 100 * len(list_intersect(w.mins, bl.fps))
                            >= 80 * len(w.mins))),
    tk AS (SELECT doc_id, regexp_extract_all(text, '\S+') AS toks FROM surv),
    shl AS (SELECT doc_id, list_distinct(
            CASE WHEN len(toks) = 0 THEN CAST([] AS VARCHAR[])
                 WHEN len(toks) < 3 THEN [array_to_string(toks, ' ')]
                 ELSE list_transform(range(1, len(toks) - 1),
                        i -> toks[i] || ' ' || toks[i+1] || ' ' || toks[i+2]) END) AS sh
          FROM tk),
    sh2 AS (SELECT doc_id, sh, list_min(sh) AS anchor FROM shl WHERE len(sh) > 0),
    pairs AS (SELECT a_id, b_id FROM (
        SELECT a.doc_id AS a_id, b.doc_id AS b_id,
          CAST(len(list_intersect(a.sh, b.sh)) AS DOUBLE)
            / CAST(len(list_distinct(list_concat(a.sh, b.sh))) AS DOUBLE) AS jaccard
        FROM sh2 a JOIN sh2 b ON a.anchor = b.anchor AND a.doc_id < b.doc_id)
      WHERE jaccard > 0.3),
    edges AS (SELECT a_id AS u, b_id AS v FROM pairs
              UNION SELECT b_id, a_id FROM pairs),
    cc(node, label) AS (
      SELECT doc_id, doc_id FROM surv
      UNION
      SELECT e.v, c.label FROM cc c JOIN edges e ON c.node = e.u
      WHERE c.label < e.v),
    mm AS (SELECT node AS doc_id, MIN(label) AS cluster_id FROM cc GROUP BY node),
    sc AS (SELECT mm.doc_id, mm.cluster_id, CAST(s.n_chars AS BIGINT) AS n_chars
           FROM mm JOIN surv s USING (doc_id)),
    win AS (SELECT cluster_id, doc_id AS winner FROM (
            SELECT cluster_id, doc_id,
              row_number() OVER (PARTITION BY cluster_id
                                 ORDER BY n_chars DESC, doc_id) AS rn
            FROM sc) WHERE rn = 1),
    keepers AS (SELECT sc.doc_id FROM sc JOIN win USING (cluster_id)
                WHERE sc.doc_id = win.winner),
    kd AS (SELECT tk.doc_id, tk.toks FROM tk JOIN keepers USING (doc_id)),
    ch AS (SELECT doc_id, toks,
            unnest(CASE WHEN len(toks) = 0 THEN CAST([] AS BIGINT[])
                   ELSE range(0, CAST(ceil(len(toks)/32.0) AS BIGINT)) END) AS chunk_idx
           FROM kd)
    SELECT doc_id, chunk_idx,
      array_to_string(toks[(chunk_idx*32+1):((chunk_idx+1)*32)], ' ') AS chunk_text,
      CAST(len(toks[(chunk_idx*32+1):((chunk_idx+1)*32)]) AS BIGINT) AS n_tokens
    FROM ch
    """


@register("corpus_curation_v2", _curation_v2_sql())
def q_corpus_curation_v2(sf_dir: str):
    """The composed curation pipeline a training run actually ships:
    DECONTAMINATE (drop docs whose winnowing-fingerprint set is >= 80%
    contained in the benchmark set, plus the benchmark docs themselves;
    exact integer containment rule) -> NEAR-DUP
    BEST-COPY (3-gram Jaccard pairs -> connected components -> keep the
    highest-n_chars member per cluster) -> CHUNK (32-token context
    windows), one streaming Ray pipeline vs ONE SQL oracle.

    Scale shape: both exclusion sets cross the cluster as BROADCASTS —
    the benchmark fingerprint blocklist is tiny by definition, and the
    dedup LOSER set is bounded by the pair graph (duplicates), never the
    corpus; the corpus itself is only shuffled inside
    anchor_jaccard_pairs (shingle-anchor blocked).  The survivor set is
    materialized once (the checkpoint you'd persist in production)
    because two downstream stages consume it."""
    import ray as _ray

    from multimedia_indexing_ray.stages.cc import resolve_clusters_best

    docs = _rp(sf_dir, "documents", ["doc_id", "text", "n_chars"])

    def _bench_fps(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy()
        m = (ids % 23) == 7
        if not m.any():
            return pa.table({"fp": pa.array([], pa.int64())})
        flat, _ = tx.winnow_sets_batch(batch["text"].filter(pa.array(m)))
        return pa.table({"fp": pa.array(np.unique(flat), pa.int64())})

    rows = docs.map_batches(_bench_fps, batch_format="pyarrow").take_all()
    bench = np.unique(np.array([r["fp"] for r in rows], dtype=np.int64))
    bref = _ray.put(bench)

    def _drop_contaminated(batch: pa.Table) -> pa.Table:
        bl = _ray.get(bref)
        ids = batch["doc_id"].to_numpy()
        flat, counts = tx.winnow_sets_batch(batch["text"])
        hit = sg.sorted_member(bl, flat)
        doc_of = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
        n_shared = np.bincount(doc_of[hit], minlength=len(counts))
        # contaminated = fingerprint set >= 80% contained in the benchmark
        # set (exact integer rule; single shared n-grams are collisions in
        # a small vocabulary, not contamination)
        contaminated = (counts > 0) & (100 * n_shared >= 80 * counts)
        keep = ((ids % 23) != 7) & ~contaminated
        return batch.filter(pa.array(keep))

    surv = docs.map_batches(_drop_contaminated, batch_format="pyarrow").materialize()

    pairs = dd.anchor_jaccard_pairs(
        surv.select_columns(["doc_id", "text"]), "text", "doc_id",
        threshold=0.3, num_partitions=16,
        coalesce=surv.count() <= _COALESCE_DOCS,  # surv is materialized
    )
    resolved = resolve_clusters_best(
        surv.select_columns(["doc_id", "n_chars"]), "doc_id", "n_chars", pairs
    )

    def _losers(batch: pa.Table) -> pa.Table:
        keep = np.asarray(batch["keep"].to_numpy(zero_copy_only=False), dtype=bool)
        return pa.table({"doc_id": batch["doc_id"].filter(pa.array(~keep))})

    _empty = pa.table(
        {
            "doc_id": pa.array([], pa.int64()),
            "chunk_idx": pa.array([], pa.int64()),
            "chunk_text": pa.array([], pa.string()),
            "n_tokens": pa.array([], pa.int64()),
        }
    )

    def _chunk_table(t: pa.Table) -> pa.Table:
        cid, cidx, ctxt, ntok = tx.chunk_tokens(t["text"], t["doc_id"].to_numpy(), 32)
        if len(cid) == 0:
            return _empty
        return pa.table(
            {
                "doc_id": pa.array(cid, pa.int64()),
                "chunk_idx": pa.array(cidx, pa.int64()),
                "chunk_text": ctxt,
                "n_tokens": pa.array(ntok, pa.int64()),
            }
        )

    lose_ds = resolved.map_batches(_losers, batch_format="pyarrow").materialize()
    if lose_ds.count() > _broadcast_row_cap():
        # at-scale plan (GRAFT_BROADCAST_ROW_CAP, rehearsal-flipped):
        # the loser set is bounded by the duplicate-pair graph but in a
        # worst case (everything duplicated) corpus-sized, so above the
        # cap the anti-join co-partitions survivors and loser ids on
        # doc_id (loser rows carry a null-text drop marker) and chunks
        # per partition — no key set ever hits the driver
        from multimedia_indexing_ray.stages.partition import map_partitions_by_key

        def _tag_lose(batch: pa.Table) -> pa.Table:
            n = batch.num_rows
            return pa.table(
                {
                    "doc_id": batch["doc_id"],
                    "text": pa.nulls(n, pa.string()),
                    "__drop": pa.array(np.ones(n, dtype=np.int8), pa.int8()),
                }
            )

        def _tag_surv(batch: pa.Table) -> pa.Table:
            n = batch.num_rows
            return pa.table(
                {
                    "doc_id": batch["doc_id"],
                    "text": batch["text"],
                    "__drop": pa.array(np.zeros(n, dtype=np.int8), pa.int8()),
                }
            )

        both = surv.map_batches(_tag_surv, batch_format="pyarrow").union(
            lose_ds.map_batches(_tag_lose, batch_format="pyarrow")
        )

        def _anti_chunk(t: pa.Table) -> pa.Table:
            drop_m = t["__drop"].to_numpy(zero_copy_only=False) == 1
            dr = np.unique(t["doc_id"].to_numpy(zero_copy_only=False)[drop_m])
            ids = t["doc_id"].to_numpy(zero_copy_only=False)
            keep = (~drop_m) & ~sg.sorted_member(dr, ids)
            return _chunk_table(t.filter(pa.array(keep)).drop_columns(["__drop"]))

        return map_partitions_by_key(both, "doc_id", _anti_chunk, num_partitions=16)

    lose = lose_ds.take_all()
    dropped = np.unique(np.array([r["doc_id"] for r in lose], dtype=np.int64))
    dref = _ray.put(dropped)

    def _chunk_keepers(batch: pa.Table) -> pa.Table:
        dr = _ray.get(dref)
        ids = batch["doc_id"].to_numpy()
        return _chunk_table(batch.filter(pa.array(~sg.sorted_member(dr, ids))))

    return surv.map_batches(_chunk_keepers, batch_format="pyarrow")


# --------------------------------------------------------------------------
# sequence / distribution / scaling feature-engineering (session-3 widening)
# --------------------------------------------------------------------------


_TYPE_CENTS_HEMPTY = pa.table(
    {
        "event_type": pa.array([], pa.string()),
        "c": pa.array([], pa.int64()),
        "cnt": pa.array([], pa.int64()),
    }
)


def _type_cents_hist(batch: pa.Table) -> pa.Table:
    """Per-batch (event_type, value_cents) histogram partial — shared by
    the histogram-identity queries (gini, percentile rank)."""
    if batch.num_rows == 0:
        return _TYPE_CENTS_HEMPTY
    et = batch["event_type"].to_numpy(zero_copy_only=False)
    c = _cents(batch["value"].to_numpy(zero_copy_only=False)).astype(np.int64)
    types, tcode = np.unique(et, return_inverse=True)
    order = np.lexsort((c, tcode))
    tc, cs = tcode[order], c[order]
    bounds = np.flatnonzero(np.r_[True, (tc[1:] != tc[:-1]) | (cs[1:] != cs[:-1])])
    cnt = np.diff(np.r_[bounds, len(tc)]).astype(np.int64)
    return pa.table(
        {
            "event_type": pa.array(types[tc[bounds]], pa.string()),
            "c": pa.array(cs[bounds], pa.int64()),
            "cnt": pa.array(cnt, pa.int64()),
        }
    )


# 30-minute inactivity sessionization rule shared by every session query
# (sessionize_30m / session_stats / funnel / trigrams / user profile):
# strict gap > threshold, reset at entity starts
_SESSION_GAP_US = 1_800_000_000


@register(
    "event_transition_probs",
    """
    WITH w AS (
      SELECT user_id, event_type,
        lag(event_type) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS prev_type
      FROM events),
    c AS (SELECT prev_type, event_type, CAST(COUNT(*) AS BIGINT) AS n
          FROM w WHERE prev_type IS NOT NULL GROUP BY 1, 2)
    SELECT prev_type, event_type, n,
      CAST(n AS DOUBLE) / CAST(SUM(n) OVER (PARTITION BY prev_type) AS DOUBLE) AS p
    FROM c
    """,
)
def q_event_transition_probs(sf_dir: str):
    """First-order Markov transition matrix over per-user event-type
    sequences — the behavioral-sequence feature (what follows what) that
    session-prediction models consume; the sequence analog of the BoW
    histogram (`aggregation/BowAggregator.java:39-74` counts unigrams;
    this counts ordered bigrams).  ONE shuffle on user_id; each partition
    kernel emits a <=K^2-row partial count table (K = #event types), so
    the reduce is a coalesced in-block final (`_tiny_group_sum` pattern) —
    the exchange after the keyed pass carries transition histograms, never
    events.  p = n / row-total is one int/int double division, identical
    on both sides."""
    from multimedia_indexing_ray.stages.partition import map_partitions_by_key

    ev = _rp(sf_dir, "events", ["event_id", "user_id", "ts", "event_type"])

    _empty = pa.table(
        {
            "prev_type": pa.array([], pa.string()),
            "event_type": pa.array([], pa.string()),
            "n": pa.array([], pa.int64()),
        }
    )

    def kernel(table: pa.Table) -> pa.Table:
        n = table.num_rows
        if n == 0:
            return _empty
        uid = table["user_id"].to_numpy()
        eid = table["event_id"].to_numpy()
        ts = table["ts"].cast(pa.int64()).to_numpy()
        types, code = np.unique(
            table["event_type"].to_numpy(zero_copy_only=False), return_inverse=True
        )
        order = np.lexsort((eid, ts, uid))
        su, sc = uid[order], code[order]
        starts = sg.segment_starts(su)
        has_prev = sg.rel_index(starts, n) > 0
        prev = np.empty_like(sc)
        prev[1:] = sc[:-1]
        k = np.int64(len(types))
        pair = prev[has_prev] * k + sc[has_prev]
        cnt = np.bincount(pair, minlength=k * k)
        nz = np.flatnonzero(cnt)
        return pa.table(
            {
                "prev_type": pa.array(types[nz // k], pa.string()),
                "event_type": pa.array(types[nz % k], pa.string()),
                "n": pa.array(cnt[nz], pa.int64()),
            }
        )

    def _final(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _empty.append_column("p", pa.array([], pa.float64()))
        g = _pa_group_sum(t, ["prev_type", "event_type"], ["n"])
        prev = g["prev_type"].to_numpy(zero_copy_only=False)
        nn = g["n"].to_numpy()
        uniq, inv = np.unique(prev, return_inverse=True)
        tot = np.bincount(inv, weights=nn.astype(np.float64), minlength=len(uniq))
        p = nn.astype(np.float64) / tot[inv]
        return g.append_column("p", pa.array(p, pa.float64()))

    partials = map_partitions_by_key(ev, "user_id", kernel, num_partitions=32)
    return partials.repartition(1).map_batches(
        _final, batch_format="pyarrow", batch_size=None
    )


@register(
    "session_trigrams",
    """
    WITH g AS (
      SELECT user_id, ts, event_id, event_type,
        COALESCE(date_diff('microsecond',
          lag(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id), ts), 0) AS gap_us
      FROM events),
    s AS (
      SELECT user_id, ts, event_id, event_type,
        CAST(SUM(CASE WHEN gap_us > 1800000000 THEN 1 ELSE 0 END)
             OVER (PARTITION BY user_id ORDER BY ts, event_id) AS BIGINT) AS session_id
      FROM g),
    w AS (
      SELECT event_type,
        lag(event_type, 2) OVER win AS t0, lag(event_type, 1) OVER win AS t1
      FROM s WINDOW win AS (PARTITION BY user_id, session_id ORDER BY ts, event_id))
    SELECT t0 || '>' || t1 || '>' || event_type AS trigram,
           CAST(COUNT(*) AS BIGINT) AS n
    FROM w WHERE t0 IS NOT NULL GROUP BY 1
    """,
)
def q_session_trigrams(sf_dir: str):
    """Within-session event-type trigram counts — the n-gram sequence
    vocabulary (order 3) a next-action model trains on, with session
    boundaries (30-min inactivity, same rule as `sessionize_30m`) acting
    as hard sequence breaks so no trigram spans a gap.  Same shape as
    `event_transition_probs`: one keyed shuffle, per-partition counts on
    integer trigram codes (base-K positional encoding), a <=K^3-row
    partial per partition, coalesced final sum.  Trigram strings are
    materialized only for the <=K^3 result rows."""
    from multimedia_indexing_ray.stages.partition import map_partitions_by_key

    ev = _rp(sf_dir, "events", ["event_id", "user_id", "ts", "event_type"])

    _empty = pa.table(
        {"trigram": pa.array([], pa.string()), "n": pa.array([], pa.int64())}
    )

    def kernel(table: pa.Table) -> pa.Table:
        n = table.num_rows
        if n < 3:
            return _empty
        uid = table["user_id"].to_numpy()
        eid = table["event_id"].to_numpy()
        ts = table["ts"].cast(pa.int64()).to_numpy()
        types, code = np.unique(
            table["event_type"].to_numpy(zero_copy_only=False), return_inverse=True
        )
        order = np.lexsort((eid, ts, uid))
        su, sc, st = uid[order], code[order], ts[order]
        starts = sg.segment_starts(su)
        rel = sg.rel_index(starts, n)
        gap = sg.seg_gap_us(st, starts)
        brk = (rel == 0) | (gap > _SESSION_GAP_US)  # new user or new session
        # a trigram ending at i needs rows i-2, i-1, i in ONE session:
        # no break at i or i-1 (row i-2 only needs to be in the session)
        ok = np.zeros(n, dtype=bool)
        ok[2:] = ~brk[2:] & ~brk[1:-1]
        k = np.int64(len(types))
        tri = sc[ok]
        t1 = np.empty_like(sc)
        t1[1:] = sc[:-1]
        t0 = np.empty_like(sc)
        t0[2:] = sc[:-2]
        codes = t0[ok] * k * k + t1[ok] * k + tri
        cnt = np.bincount(codes, minlength=k * k * k)
        nz = np.flatnonzero(cnt)
        lab = [
            f"{types[c // (k * k)]}>{types[(c // k) % k]}>{types[c % k]}" for c in nz
        ]
        return pa.table(
            {"trigram": pa.array(lab, pa.string()), "n": pa.array(cnt[nz], pa.int64())}
        )

    partials = map_partitions_by_key(ev, "user_id", kernel, num_partitions=32)
    return _tiny_group_sum(partials, ["trigram"], ["n"])


@register(
    "minmax_scale_pit",
    """
    WITH b AS (SELECT MIN(ts) AS t0, MAX(ts) AS t1 FROM events),
    tr AS (SELECT e.event_type, CAST(FLOOR(e.value*100+0.5) AS BIGINT) AS c
           FROM events e, b
           WHERE date_diff('microsecond', b.t0, e.ts) * 5
                 <= date_diff('microsecond', b.t0, b.t1) * 4),
    m AS (SELECT event_type, MIN(c) AS vmin, MAX(c) AS vmax FROM tr GROUP BY 1)
    SELECT e.event_id, e.event_type,
      CASE WHEN m.vmax > m.vmin THEN
        (CAST(FLOOR(e.value*100+0.5) AS BIGINT) - m.vmin) * 1000000
          // (m.vmax - m.vmin)
      END AS value_scaled_ppm
    FROM events e LEFT JOIN m USING (event_type)
    """,
)
def q_minmax_scale_pit(sf_dir: str):
    """Leakage-free min-max scaling: the scaler is FIT on the temporal
    train window only (first 80% of the global time range — an integer
    5/4 cross-multiplication rule, no float quantile) and APPLIED to every
    row, so test-period extremes never leak into the transform — the
    fit/transform split every training pipeline needs (sklearn's
    fit-on-train discipline, expressed as two broadcast lookups).  Scaled
    value is integer parts-per-million via floor division: bit-exact both
    sides, monotone, and NULL when the type has a degenerate (or absent)
    train range.  Two tiny aggregate passes (global ts bounds via
    min/max partials; per-type cents bounds on the train window) feed a
    K-entry broadcast map; the full pass is shuffle-free."""
    ev = _rp(sf_dir, "events", ["event_id", "ts", "event_type", "value"])

    def _ts_bounds(batch: pa.Table) -> pa.Table:
        t = batch["ts"].cast(pa.int64()).to_numpy()
        if len(t) == 0:
            return pa.table({"t0": pa.array([], pa.int64()), "t1": pa.array([], pa.int64())})
        return pa.table({"t0": pa.array([t.min()], pa.int64()), "t1": pa.array([t.max()], pa.int64())})

    parts = ev.map_batches(_ts_bounds, batch_format="pyarrow").take_all()
    if not parts:  # zero-row events table: SQL returns zero rows too
        return ray.data.from_arrow(
            pa.table(
                {
                    "event_id": pa.array([], pa.int64()),
                    "event_type": pa.array([], pa.string()),
                    "value_scaled_ppm": pa.array([], pa.int64()),
                }
            )
        )
    t0 = min(r["t0"] for r in parts)
    t1 = max(r["t1"] for r in parts)

    def _train_minmax(batch: pa.Table) -> pa.Table:
        ts = batch["ts"].cast(pa.int64()).to_numpy()
        keep = (ts - t0) * 5 <= (t1 - t0) * 4
        if not keep.any():
            return pa.table(
                {
                    "event_type": pa.array([], pa.string()),
                    "vmin": pa.array([], pa.int64()),
                    "vmax": pa.array([], pa.int64()),
                }
            )
        et = batch["event_type"].to_numpy(zero_copy_only=False)[keep]
        c = _cents(batch["value"].to_numpy(zero_copy_only=False)[keep]).astype(np.int64)
        types, inv = np.unique(et, return_inverse=True)
        vmin = np.full(len(types), np.iinfo(np.int64).max)
        vmax = np.full(len(types), np.iinfo(np.int64).min)
        np.minimum.at(vmin, inv, c)
        np.maximum.at(vmax, inv, c)
        return pa.table(
            {
                "event_type": pa.array(types, pa.string()),
                "vmin": pa.array(vmin, pa.int64()),
                "vmax": pa.array(vmax, pa.int64()),
            }
        )

    mm: "dict[str, tuple[int, int]]" = {}
    for r in ev.map_batches(_train_minmax, batch_format="pyarrow").take_all():
        lo, hi = mm.get(r["event_type"], (np.iinfo(np.int64).max, np.iinfo(np.int64).min))
        mm[r["event_type"]] = (min(lo, r["vmin"]), max(hi, r["vmax"]))
    types_s = np.array(sorted(mm), dtype=object)
    vmin_s = np.array([mm[t][0] for t in types_s], dtype=np.int64)
    vmax_s = np.array([mm[t][1] for t in types_s], dtype=np.int64)

    def _scale(batch: pa.Table) -> pa.Table:
        et = batch["event_type"].to_numpy(zero_copy_only=False)
        c = _cents(batch["value"].to_numpy(zero_copy_only=False)).astype(np.int64)
        if len(types_s) == 0:  # no train rows at all -> every output NULL
            return pa.table(
                {
                    "event_id": batch["event_id"],
                    "event_type": batch["event_type"],
                    "value_scaled_ppm": pa.array([None] * len(c), pa.int64()),
                }
            )
        idx = np.searchsorted(types_s, et)
        idx_c = np.clip(idx, 0, len(types_s) - 1)
        known = types_s[idx_c] == et
        lo, hi = vmin_s[idx_c], vmax_s[idx_c]
        ok = known & (hi > lo)
        rng = np.where(hi > lo, hi - lo, 1)
        # DuckDB's integer // truncates toward zero (measured: -7//2 = -3);
        # numpy floor-divides — truncate explicitly so test-window values
        # below the train minimum (negative numerators) agree bit-for-bit
        num = (c - lo) * 1_000_000
        scaled = np.sign(num) * (np.abs(num) // rng)
        return pa.table(
            {
                "event_id": batch["event_id"],
                "event_type": batch["event_type"],
                "value_scaled_ppm": pa.array(scaled, pa.int64(), mask=~ok),
            }
        )

    return ev.map_batches(_scale, batch_format="pyarrow")


@register(
    "tfidf_top_terms",
    r"""
    WITH t2 AS (SELECT doc_id, unnest(regexp_extract_all(text, '\S+')) AS tok
                FROM documents),
    tf AS (SELECT doc_id, tok, CAST(COUNT(*) AS BIGINT) AS tf FROM t2 GROUP BY 1, 2),
    df AS (SELECT tok, CAST(COUNT(DISTINCT doc_id) AS BIGINT) AS df FROM t2 GROUP BY 1),
    s AS (SELECT tf.doc_id, tf.tok, tf.tf, df.df,
            tf.tf * 1000000 // df.df AS score,
            row_number() OVER (PARTITION BY tf.doc_id
                               ORDER BY tf.tf * 1000000 // df.df DESC, tf.tok) AS rk
          FROM tf JOIN df USING (tok))
    SELECT doc_id, tok AS term, tf, df, score FROM s WHERE rk <= 3
    """,
)
def q_tfidf_top_terms(sf_dir: str):
    """Top-3 characteristic terms per document by an integer tf-idf
    surrogate (tf * 1e6 // df — same ORDERING as tf*idf for a fixed
    corpus, with floor division instead of a log so both engines agree
    bit-for-bit; ties broken by term).  The document-frequency table is
    vocabulary-sized: built with the same per-batch partial/keyed-reduce
    as `inverted_index_terms`, then collected and broadcast, so the
    scoring pass is shuffle-free — each batch tokenizes, counts per-doc
    tf, looks df up in the sorted vocab (one searchsorted), and keeps 3
    rows per doc via one lexsort.  The corpus text never crosses the
    wire.  Keyword-extraction analog of the BoW pipeline
    (`aggregation/BowAggregator.java:39-74` with idf weighting)."""
    from multimedia_indexing_ray.stages.partition import map_partitions_by_key

    docs = _rp(sf_dir, "documents", ["doc_id", "text"])

    _dfempty = pa.table(
        {"term": pa.array([], pa.string()), "df": pa.array([], pa.int64())}
    )

    def _df_partial(batch: pa.Table) -> pa.Table:
        _, tok_id, uniq = tx.distinct_doc_token_pairs(batch["text"])
        if len(uniq) == 0:
            return _dfempty
        dfc = np.bincount(tok_id, minlength=len(uniq)).astype(np.int64)
        return pa.table({"term": pa.array(uniq, pa.string()), "df": pa.array(dfc, pa.int64())})

    def _df_reduce(t: pa.Table) -> pa.Table:
        return _pa_group_sum(t, ["term"], ["df"]) if t.num_rows else _dfempty

    import ray as _ray

    _empty = pa.table(
        {
            "doc_id": pa.array([], pa.int64()),
            "term": pa.array([], pa.string()),
            "tf": pa.array([], pa.int64()),
            "df": pa.array([], pa.int64()),
            "score": pa.array([], pa.int64()),
        }
    )

    df_ds = map_partitions_by_key(
        docs.map_batches(_df_partial, batch_format="pyarrow"), "term", _df_reduce,
        num_partitions=8,
    ).materialize()
    # open-domain corpora have UNBOUNDED vocabularies: the broadcast df
    # table is gated (same pattern as exact_jaccard_verify's
    # max_broadcast_ids); above the cap the scoring pass co-partitions
    # (doc_id, term, tf) pairs with the df table on term instead of
    # shipping the vocabulary to the driver
    if df_ds.count() <= _vocab_broadcast_cap():
        df_rows = df_ds.take_all()
        vocab = np.array(sorted(r["term"] for r in df_rows), dtype=object)
        dfmap = {r["term"]: r["df"] for r in df_rows}
        dfv = np.array([dfmap[t] for t in vocab], dtype=np.int64)
        # vocabulary-sized state: ship through the object store once, not
        # in every task's pickled closure (web-scale vocab is 1e7 terms)
        vref = _ray.put((vocab, dfv))

        def _score(batch: pa.Table) -> pa.Table:
            vocab, dfv = _ray.get(vref)
            flat, counts = tx.flat_tokens(batch["text"])
            if len(flat) == 0:
                return _empty
            ids = batch["doc_id"].to_numpy()
            doc_of = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
            tok_id = np.searchsorted(vocab, flat)
            nv = np.int64(len(vocab))
            pair, tf = np.unique(doc_of * nv + tok_id, return_counts=True)
            d, t = pair // nv, pair % nv
            score = tf.astype(np.int64) * 1_000_000 // dfv[t]
            order = np.lexsort((vocab[t], -score, d))
            ds_, ts_, score_s = d[order], t[order], score[order]
            starts = sg.segment_starts(ds_)
            keep = sg.rel_index(starts, len(ds_)) < 3
            return pa.table(
                {
                    "doc_id": pa.array(ids[ds_[keep]], pa.int64()),
                    "term": pa.array(vocab[ts_[keep]], pa.string()),
                    "tf": pa.array(tf[order][keep].astype(np.int64), pa.int64()),
                    "df": pa.array(dfv[ts_[keep]], pa.int64()),
                    "score": pa.array(score_s[keep], pa.int64()),
                }
            )

        return docs.map_batches(_score, batch_format="pyarrow")

    # at-scale path: tf pairs hash-joined with the df table on term
    # (both sides shuffle once, vocabulary never leaves the workers),
    # then one doc_id-keyed top-k
    from multimedia_indexing_ray.stages.join import hash_join

    def _topk(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _empty
        d = t["doc_id"].to_numpy(zero_copy_only=False)
        terms = np.asarray(t["term"]).astype(object)
        tf = t["tf"].to_numpy(zero_copy_only=False).astype(np.int64)
        dfv = t["df"].to_numpy(zero_copy_only=False).astype(np.int64)
        score = tf * 1_000_000 // dfv
        order = np.lexsort((terms, -score, d))
        ds_ = d[order]
        starts = sg.segment_starts(ds_)
        sel = order[sg.rel_index(starts, len(ds_)) < 3]
        return pa.table(
            {
                "doc_id": pa.array(d[sel], pa.int64()),
                "term": pa.array(terms[sel], pa.string()),
                "tf": pa.array(tf[sel], pa.int64()),
                "df": pa.array(dfv[sel], pa.int64()),
                "score": pa.array(score[sel], pa.int64()),
            }
        )

    joined = hash_join(
        docs.map_batches(_tf_pairs_batch, batch_format="pyarrow"),
        df_ds,
        left_on="term",
        num_partitions=16,
    )
    return map_partitions_by_key(joined, "doc_id", _topk, num_partitions=16)


@register(
    "gini_by_type",
    """
    WITH v AS (SELECT event_type, CAST(FLOOR(value*100+0.5) AS BIGINT) AS c
               FROM events),
    r AS (SELECT event_type, c,
            CAST(row_number() OVER (PARTITION BY event_type ORDER BY c) AS BIGINT) AS i
          FROM v),
    a AS (SELECT event_type, CAST(COUNT(*) AS BIGINT) AS n,
            CAST(SUM(c) AS BIGINT) AS sum_cents,
            CAST(SUM(i*c) AS BIGINT) AS rank_weighted_sum
          FROM r GROUP BY 1)
    SELECT event_type, n, sum_cents, rank_weighted_sum,
      CASE WHEN n * sum_cents != 0 THEN
        CAST(2*rank_weighted_sum - (n+1)*sum_cents AS DOUBLE)
          / CAST(n * sum_cents AS DOUBLE)
      END AS gini
    FROM a
    """,
)
def q_gini_by_type(sf_dir: str):
    """Gini concentration coefficient of spend per event type — the
    inequality/skew feature (is revenue driven by a few whale events?)
    computed WITHOUT a global per-type sort: per-batch (type, cents)
    histogram partials, one keyed shuffle of histogram rows, and a
    closed-form rank-weighted sum over each type's sorted distinct values
    (a run of m equal values x after r0 predecessors contributes
    x*(m*r0 + m(m+1)/2) — tie order never matters, so the histogram
    identity is exact).  All accumulators are int64 (bounded by
    n^2*max_cents; overflow-guarded); gini itself is ONE double division
    of <2^53 integers, bit-identical to the SQL window formulation."""
    from multimedia_indexing_ray.stages.partition import map_partitions_by_key

    ev = _rp(sf_dir, "events", ["event_type", "value"])

    _gempty = pa.table(
        {
            "event_type": pa.array([], pa.string()),
            "n": pa.array([], pa.int64()),
            "sum_cents": pa.array([], pa.int64()),
            "rank_weighted_sum": pa.array([], pa.int64()),
            "gini": pa.array([], pa.float64()),
        }
    )

    def _finish(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _gempty
        g = _pa_group_sum(t, ["event_type", "c"], ["cnt"])
        et = g["event_type"].to_numpy(zero_copy_only=False)
        c = g["c"].to_numpy()
        m = g["cnt"].to_numpy()
        order = np.lexsort((c, et))
        et, c, m = et[order], c[order], m[order]
        starts = sg.segment_starts(et)
        nseg = len(starts)
        # r0 = items of this type strictly before each run
        cum = np.concatenate([[0], np.cumsum(m)[:-1]])
        seg_base = np.repeat(cum[starts], sg.segment_counts(starts, len(et)))
        r0 = cum - seg_base
        contrib = c * (m * r0 + m * (m + 1) // 2)
        n = np.add.reduceat(m, starts)
        sum_c = np.add.reduceat(c * m, starts)
        sum_ic = np.add.reduceat(contrib, starts)
        num = (2 * sum_ic - (n + 1) * sum_c).astype(np.float64)
        den = (n * sum_c).astype(np.float64)
        with np.errstate(invalid="ignore", divide="ignore"):
            gini = num / den
        return pa.table(
            {
                "event_type": pa.array(et[starts], pa.string()),
                "n": pa.array(n, pa.int64()),
                "sum_cents": pa.array(sum_c, pa.int64()),
                "rank_weighted_sum": pa.array(sum_ic, pa.int64()),
                "gini": pa.array(gini, pa.float64(), mask=(den == 0)),
            }
        )

    partials = ev.map_batches(_type_cents_hist, batch_format="pyarrow")
    return map_partitions_by_key(partials, "event_type", _finish, num_partitions=8)


@register(
    "calendar_features",
    """
    SELECT event_id,
      ((epoch_us(ts) // 86400000000 + 3) % 7) + 1 AS dow_iso,
      (epoch_us(ts) % 86400000000) // 3600000000 AS hour_utc,
      CAST(date_part('month', ts) AS BIGINT) AS month,
      ((epoch_us(ts) // 86400000000 + 3) % 7) + 1 >= 6 AS is_weekend
    FROM events
    """,
)
def q_calendar_features(sf_dir: str):
    """Calendar one-hot precursors (ISO day-of-week, UTC hour, month,
    weekend flag) — the seasonality features every tabular model gets
    first.  Day-of-week and hour are PURE integer arithmetic on epoch
    microseconds (1970-01-01 is a Thursday, hence the +3 fold) so no
    calendar-kernel convention (Sunday-0 vs Monday-0) can diverge between
    engines; month uses the Gregorian kernel on both sides.  Shuffle-free
    single pass."""
    ev = _rp(sf_dir, "events", ["event_id", "ts"])

    DAY = 86_400_000_000
    HOUR = 3_600_000_000

    def _cal(batch: pa.Table) -> pa.Table:
        us = batch["ts"].cast(pa.int64()).to_numpy()
        if np.any(us < 0):
            # numpy floor-divides, DuckDB // truncates: pre-1970 timestamps
            # would silently diverge — fail loudly instead
            raise ValueError("calendar_features requires ts >= 1970-01-01")
        dow = (us // DAY + 3) % 7 + 1
        return pa.table(
            {
                "event_id": batch["event_id"],
                "dow_iso": pa.array(dow, pa.int64()),
                "hour_utc": pa.array(us % DAY // HOUR, pa.int64()),
                "month": pc.month(batch["ts"]).cast(pa.int64()),
                "is_weekend": pa.array(dow >= 6, pa.bool_()),
            }
        )

    return ev.map_batches(_cal, batch_format="pyarrow")


@register(
    "daily_user_spend_rank",
    """
    WITH d AS (SELECT user_id, epoch_us(ts) // 86400000000 AS day_idx,
                 CAST(SUM(CAST(FLOOR(value*100+0.5) AS BIGINT)) AS BIGINT)
                   AS spend_cents
               FROM events WHERE event_type = 'purchase' GROUP BY 1, 2)
    SELECT user_id, day_idx, spend_cents,
      CAST(row_number() OVER (PARTITION BY day_idx
                              ORDER BY spend_cents DESC, user_id) AS BIGINT)
        AS spend_rank
    FROM d
    """,
)
def q_daily_user_spend_rank(sf_dir: str):
    """Daily leaderboard position: each purchasing user's rank among ALL
    users that day by purchase spend — the cross-entity competitive
    feature (within-entity windows can't see it; this ranks ACROSS
    entities per time bucket).  Per-batch (user, day) partial cent sums
    shrink the exchange to the aggregate's cardinality, then ONE keyed
    shuffle on day_idx and a per-partition lexsort ranks each day's
    cohort; tie rule (spend DESC, user ASC) is total, so row_number is
    deterministic on both sides."""
    from multimedia_indexing_ray.stages.partition import map_partitions_by_key

    ev = _rp(sf_dir, "events", ["user_id", "ts", "event_type", "value"])
    DAY = 86_400_000_000

    _pempty = pa.table(
        {
            "user_id": pa.array([], pa.int64()),
            "day_idx": pa.array([], pa.int64()),
            "spend_cents": pa.array([], pa.int64()),
        }
    )

    def _partial(batch: pa.Table) -> pa.Table:
        sel = pc.equal(batch["event_type"], "purchase")
        t = batch.filter(sel)
        if t.num_rows == 0:
            return _pempty
        uid = t["user_id"].to_numpy()
        ts_us = t["ts"].cast(pa.int64()).to_numpy()
        if np.any(ts_us < 0):
            raise ValueError("daily_user_spend_rank requires ts >= 1970-01-01")
        day = ts_us // DAY
        c = _cents(t["value"].to_numpy(zero_copy_only=False)).astype(np.int64)
        order = np.lexsort((day, uid))
        u, d_, cs = uid[order], day[order], c[order]
        bounds = np.flatnonzero(np.r_[True, (u[1:] != u[:-1]) | (d_[1:] != d_[:-1])])
        sums = np.add.reduceat(cs, bounds)
        return pa.table(
            {
                "user_id": pa.array(u[bounds], pa.int64()),
                "day_idx": pa.array(d_[bounds], pa.int64()),
                "spend_cents": pa.array(sums, pa.int64()),
            }
        )

    def _rank(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _pempty.append_column("spend_rank", pa.array([], pa.int64()))
        g = _pa_group_sum(t, ["user_id", "day_idx"], ["spend_cents"])
        u = g["user_id"].to_numpy()
        d_ = g["day_idx"].to_numpy()
        s = g["spend_cents"].to_numpy()
        order = np.lexsort((u, -s, d_))
        starts = sg.segment_starts(d_[order])
        rk = sg.rel_index(starts, len(d_)) + 1
        return pa.table(
            {
                "user_id": pa.array(u[order], pa.int64()),
                "day_idx": pa.array(d_[order], pa.int64()),
                "spend_cents": pa.array(s[order], pa.int64()),
                "spend_rank": pa.array(rk.astype(np.int64), pa.int64()),
            }
        )

    partials = ev.map_batches(_partial, batch_format="pyarrow")
    return map_partitions_by_key(partials, "day_idx", _rank, num_partitions=16)


@register(
    "user_session_profile",
    """
    WITH g AS (
      SELECT user_id, ts, event_id,
        COALESCE(date_diff('microsecond',
          lag(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id), ts), 0) AS gap_us
      FROM events),
    s AS (
      SELECT user_id, ts,
        CAST(SUM(CASE WHEN gap_us > 1800000000 THEN 1 ELSE 0 END)
             OVER (PARTITION BY user_id ORDER BY ts, event_id) AS BIGINT) AS session_id
      FROM g),
    per_sess AS (
      SELECT user_id, session_id, CAST(COUNT(*) AS BIGINT) AS n_events,
        date_diff('microsecond', MIN(ts), MAX(ts)) AS dur_us
      FROM s GROUP BY 1, 2)
    SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n_sessions,
      CAST(SUM(n_events) AS BIGINT) AS n_events,
      CAST(SUM(n_events) AS DOUBLE) / COUNT(*) AS events_per_session,
      CAST(SUM(dur_us) AS BIGINT) AS total_session_us,
      CAST(SUM(dur_us) AS DOUBLE) / COUNT(*) AS mean_session_us
    FROM per_sess GROUP BY 1
    """,
)
def q_user_session_profile(sf_dir: str):
    """Per-user engagement profile rolled up from 30-min sessions
    (n_sessions, events/session, mean session duration) — the
    user-granularity aggregate of `session_stats_30m`, i.e. the feature
    row a churn model consumes per entity.  ONE shuffle on user_id and a
    single kernel does sessionization AND both rollup levels with
    segment reduceats (the SQL needs two grouped subqueries); the means
    are single int/int divisions of exact sums."""
    from multimedia_indexing_ray.stages.partition import map_partitions_by_key

    ev = _rp(sf_dir, "events", ["event_id", "user_id", "ts"])

    _empty = pa.table(
        {
            "user_id": pa.array([], pa.int64()),
            "n_sessions": pa.array([], pa.int64()),
            "n_events": pa.array([], pa.int64()),
            "events_per_session": pa.array([], pa.float64()),
            "total_session_us": pa.array([], pa.int64()),
            "mean_session_us": pa.array([], pa.float64()),
        }
    )

    def kernel(table: pa.Table) -> pa.Table:
        n = table.num_rows
        if n == 0:
            return _empty
        uid = table["user_id"].to_numpy()
        eid = table["event_id"].to_numpy()
        ts = table["ts"].cast(pa.int64()).to_numpy()
        order = np.lexsort((eid, ts, uid))
        su, st = uid[order], ts[order]
        ustarts = sg.segment_starts(su)
        rel = sg.rel_index(ustarts, n)
        gap = sg.seg_gap_us(st, ustarts)
        sess_start = (rel == 0) | (gap > _SESSION_GAP_US)
        sstarts = np.flatnonzero(sess_start)
        scounts = np.diff(np.r_[sstarts, n]).astype(np.int64)
        # duration per session = last ts - first ts (sorted, so max=last)
        last = np.r_[sstarts[1:] - 1, n - 1]
        dur = st[last] - st[sstarts]
        # roll sessions up to users: sessions belong to the user at their
        # first row; users are contiguous, so reduceat over user bounds
        sess_user = su[sstarts]
        ub = sg.segment_starts(sess_user)
        n_sessions = sg.segment_counts(ub, len(sess_user)).astype(np.int64)
        n_events = np.add.reduceat(scounts, ub)
        total_dur = np.add.reduceat(dur, ub)
        return pa.table(
            {
                "user_id": pa.array(sess_user[ub], pa.int64()),
                "n_sessions": pa.array(n_sessions, pa.int64()),
                "n_events": pa.array(n_events, pa.int64()),
                "events_per_session": pa.array(
                    n_events.astype(np.float64) / n_sessions, pa.float64()
                ),
                "total_session_us": pa.array(total_dur, pa.int64()),
                "mean_session_us": pa.array(
                    total_dur.astype(np.float64) / n_sessions, pa.float64()
                ),
            }
        )

    return map_partitions_by_key(ev, "user_id", kernel, num_partitions=32)


@register(
    "media_phash_dups",
    """
    SELECT 'q-' || lpad(CAST(i AS VARCHAR), 4, '0') AS media_id_a,
           'q-' || lpad(CAST(i + 120 AS VARCHAR), 4, '0') AS media_id_b
    FROM range(0, 120) t(i)
    """,
)
def q_media_phash_dups(sf_dir: str):
    """Image near-duplicate detection by perceptual hash over REAL image
    bytes in MIXED formats: decode PNM or baseline JPEG (both pure-numpy
    codecs, auto-detected) -> 9x8 luma dHash -> exact-hash bucket pairs —
    what byte-level `dedup_exact_docs` cannot catch (the planted
    duplicates re-encode the same raster with different header metadata
    — PNM comment / JPEG COM segment — so every payload hash differs;
    only the DECODED pixels match).  The oracle is the planted ground
    truth, derivable from ids alone (pair (i, i+120) for each of 120
    bases): hash-green iff the decode + hash + bucket pipeline recovers
    exactly the planted pairs with no collisions among the 120 distinct
    rasters.  Payload bytes never cross an exchange — only (id, hash)
    rows shuffle."""
    import ray.data as rd

    from multimedia_indexing_ray.stages.multimodal import (
        media_phash_pairs,
        synthetic_dup_ppm_table,
    )

    media = rd.from_arrow(synthetic_dup_ppm_table(120, seed=7))
    return media_phash_pairs(media, concurrency=2, num_partitions=8)


@register(
    "churn_label_7d",
    """
    SELECT event_id, user_id,
      COALESCE(date_diff('microsecond', ts,
        lead(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id)), -1)
        AS next_gap_us,
      COALESCE(date_diff('microsecond', ts,
        lead(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id))
          > 604800000000, TRUE) AS churned_7d
    FROM events
    """,
)
def q_churn_label_7d(sf_dir: str):
    """Training-label generation: `churned_7d` is TRUE when the user has
    NO further event within 7 days (including never returning) — the
    standard churn target, built point-in-time-correctly from the lead
    gap so each row's label uses only the next event's timestamp, never
    aggregate future behavior.  One keyed shuffle; the kernel is a
    segmented lead (`seg_lead` shape) with the last row of each user
    getting the sentinel gap -1 / label TRUE."""
    from multimedia_indexing_ray.stages.partition import map_partitions_by_key

    ev = _rp(sf_dir, "events", ["event_id", "user_id", "ts"])
    WEEK = 604_800_000_000

    _empty = pa.table(
        {
            "event_id": pa.array([], pa.int64()),
            "user_id": pa.array([], pa.int64()),
            "next_gap_us": pa.array([], pa.int64()),
            "churned_7d": pa.array([], pa.bool_()),
        }
    )

    def kernel(table: pa.Table) -> pa.Table:
        n = table.num_rows
        if n == 0:
            return _empty
        uid = table["user_id"].to_numpy()
        eid = table["event_id"].to_numpy()
        ts = table["ts"].cast(pa.int64()).to_numpy()
        order = np.lexsort((eid, ts, uid))
        su, st = uid[order], ts[order]
        starts = sg.segment_starts(su)
        is_last = np.zeros(n, dtype=bool)
        is_last[starts - 1] = True  # wraps: starts[0]-1 == -1 == last row
        gap = np.full(n, -1, dtype=np.int64)
        gap[~is_last] = st[1:][~is_last[:-1]] - st[~is_last]
        return pa.table(
            {
                "event_id": pa.array(eid[order], pa.int64()),
                "user_id": pa.array(su, pa.int64()),
                "next_gap_us": pa.array(gap, pa.int64()),
                "churned_7d": pa.array(is_last | (gap > WEEK), pa.bool_()),
            }
        )

    return map_partitions_by_key(ev, "user_id", kernel, num_partitions=32)


@register(
    "spend_trend_per_user",
    """
    WITH f AS (SELECT user_id, MIN(ts) AS t0 FROM events GROUP BY 1),
    v AS (SELECT e.user_id,
            date_diff('microsecond', f.t0, e.ts) // 3600000000 AS th,
            CAST(FLOOR(e.value*100+0.5) AS BIGINT) AS c
          FROM events e JOIN f USING (user_id)),
    a AS (SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n,
            CAST(SUM(th) AS BIGINT) AS sum_t, CAST(SUM(c) AS BIGINT) AS sum_x,
            CAST(SUM(th*c) AS BIGINT) AS sum_tx,
            CAST(SUM(th*th) AS BIGINT) AS sum_tt
          FROM v GROUP BY 1)
    SELECT user_id, n,
      CASE WHEN n*sum_tt - sum_t*sum_t != 0 THEN
        CAST(n*sum_tx - sum_t*sum_x AS DOUBLE)
          / CAST(n*sum_tt - sum_t*sum_t AS DOUBLE)
      END AS slope_cents_per_hour
    FROM a
    """,
)
def q_spend_trend_per_user(sf_dir: str):
    """Per-user spend TREND: ordinary-least-squares slope of event value
    (cents) against hours-since-first-event — the is-this-user-ramping-up
    signal.  All four regression sums are exact int64 (hour-granular time
    keeps n*sum_tx under 2^62 even at 100x this data; overflow margin
    documented); the slope is ONE double division of two identically-
    computed integers, so bit parity holds without any float-sum order
    concerns.  One shuffle on user_id; the kernel fuses the min-ts pass
    and the sums (the SQL needs a join against a grouped subquery)."""
    from multimedia_indexing_ray.stages.partition import map_partitions_by_key

    ev = _rp(sf_dir, "events", ["user_id", "ts", "value"])
    HOUR = 3_600_000_000

    _empty = pa.table(
        {
            "user_id": pa.array([], pa.int64()),
            "n": pa.array([], pa.int64()),
            "slope_cents_per_hour": pa.array([], pa.float64()),
        }
    )

    def kernel(table: pa.Table) -> pa.Table:
        if table.num_rows == 0:
            return _empty
        uid = table["user_id"].to_numpy()
        ts = table["ts"].cast(pa.int64()).to_numpy()
        c = _cents(table["value"].to_numpy(zero_copy_only=False)).astype(np.int64)
        order = np.argsort(uid, kind="stable")
        su, st, sc = uid[order], ts[order], c[order]
        n_all = len(su)
        starts = sg.segment_starts(su)
        # rows are grouped by user but NOT time-sorted — segmented min, not
        # first-row, gives each user's true t0
        tmin = np.minimum.reduceat(st, starts)
        t0 = np.repeat(tmin, sg.segment_counts(starts, n_all))
        th = (st - t0) // HOUR
        n = sg.segment_counts(starts, n_all).astype(np.int64)
        sum_t = np.add.reduceat(th, starts)
        sum_x = np.add.reduceat(sc, starts)
        sum_tx = np.add.reduceat(th * sc, starts)
        sum_tt = np.add.reduceat(th * th, starts)
        num = (n * sum_tx - sum_t * sum_x).astype(np.float64)
        den = (n * sum_tt - sum_t * sum_t).astype(np.float64)
        with np.errstate(invalid="ignore", divide="ignore"):
            slope = num / den
        return pa.table(
            {
                "user_id": pa.array(su[starts], pa.int64()),
                "n": pa.array(n, pa.int64()),
                "slope_cents_per_hour": pa.array(slope, pa.float64(), mask=(den == 0)),
            }
        )

    return map_partitions_by_key(ev, "user_id", kernel, num_partitions=32)


@register(
    "percentile_rank_value",
    """
    SELECT event_id,
      percent_rank() OVER (PARTITION BY event_type
                           ORDER BY CAST(FLOOR(value*100+0.5) AS BIGINT)) AS pr
    FROM events
    """,
)
def q_percentile_rank_value(sf_dir: str):
    """Percentile-rank normalization of value within its event type —
    the rank-based scaler (robust to outliers, uniform output) — computed
    WITHOUT any sort or shuffle of the events: percent_rank with ties is
    (count of strictly-smaller values) / (n-1), so a per-type cents
    histogram (cardinality-bounded, built from per-batch partials and
    coalesced) broadcast back to a second streaming pass gives every row
    its rank via ONE searchsorted into the cumulative histogram.  The
    division is int/int, bit-identical to the SQL window."""
    ev = _rp(sf_dir, "events", ["event_id", "event_type", "value"])

    import ray as _ray

    rows = ev.map_batches(_type_cents_hist, batch_format="pyarrow").take_all()
    agg: "dict[str, dict[int, int]]" = {}
    for r in rows:
        agg.setdefault(r["event_type"], {}).setdefault(r["c"], 0)
        agg[r["event_type"]][r["c"]] += r["cnt"]
    # per type: sorted distinct cents, count strictly below each, total n.
    # Histogram size is bounded by the VALUE GRID (distinct cents), not by
    # the row count — ~10k/type here, ~1e6/type worst case for prices;
    # broadcast once via the object store, never closure-captured
    hist = {}
    n_entries = 0
    for t, d in agg.items():
        vals = np.array(sorted(d), dtype=np.int64)
        cnts = np.array([d[v] for v in vals], dtype=np.int64)
        below = np.concatenate([[0], np.cumsum(cnts)[:-1]])
        hist[t] = (vals, below, int(cnts.sum()))
        n_entries += len(vals)
    if n_entries > 5_000_000:
        import logging

        logging.getLogger(__name__).warning(
            "percentile_rank_value: %d histogram entries — the value grid "
            "is near-continuous; consider quantizing coarser", n_entries,
        )
    href = _ray.put(hist)

    def _rank(batch: pa.Table) -> pa.Table:
        h = _ray.get(href)
        et = batch["event_type"].to_numpy(zero_copy_only=False)
        c = _cents(batch["value"].to_numpy(zero_copy_only=False)).astype(np.int64)
        pr = np.zeros(len(c), dtype=np.float64)
        for t in np.unique(et):
            m = et == t
            vals, below, n = h[t]
            if n > 1:
                idx = np.searchsorted(vals, c[m])
                pr[m] = below[idx].astype(np.float64) / (n - 1)
        return pa.table(
            {"event_id": batch["event_id"], "pr": pa.array(pr, pa.float64())}
        )

    return ev.map_batches(_rank, batch_format="pyarrow")


@register(
    "term_cooccurrence",
    r"""
    WITH t2 AS (SELECT DISTINCT doc_id,
                  unnest(regexp_extract_all(text, '\S+')) AS tok
                FROM documents)
    SELECT a.tok AS term_a, b.tok AS term_b, CAST(COUNT(*) AS BIGINT) AS n_docs
    FROM t2 a JOIN t2 b ON a.doc_id = b.doc_id AND a.tok < b.tok
    GROUP BY 1, 2
    """,
)
def q_term_cooccurrence(sf_dir: str):
    """Term co-occurrence counts (document-level, distinct terms) — the
    PMI-numerator / word-association table topic models and embedding
    pretraining start from.  Each batch emits pair counts from its own
    docs (pairs are vocabulary-bounded: V^2/2 rows max, not corpus-
    bounded), then one keyed reduce on term_a sums partials; the SQL
    needs a self-join of the exploded token table.  In-doc pair
    generation is one triu_indices per doc over the SORTED distinct
    term ids, so term_a < term_b holds by construction."""
    from multimedia_indexing_ray.stages.partition import map_partitions_by_key

    docs = _rp(sf_dir, "documents", ["doc_id", "text"])

    _empty = pa.table(
        {
            "term_a": pa.array([], pa.string()),
            "term_b": pa.array([], pa.string()),
            "n_docs": pa.array([], pa.int64()),
        }
    )

    def _pairs(batch: pa.Table) -> pa.Table:
        flat, counts = tx.flat_tokens(batch["text"])
        if len(flat) == 0:
            return _empty
        doc_of = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
        uniq, tok_id = np.unique(flat, return_inverse=True)
        nv = np.int64(len(uniq))
        dt = np.unique(doc_of * nv + tok_id)  # distinct (doc, term), sorted
        dids, tids = dt // nv, dt % nv
        starts = sg.segment_starts(dids)
        cnts = sg.segment_counts(starts, len(dids))
        pair_keys = []
        for s, m in zip(starts, cnts):
            if m < 2:
                continue
            t = tids[s : s + m]  # sorted ascending within the doc
            ia, ib = np.triu_indices(m, k=1)
            pair_keys.append(t[ia] * nv + t[ib])
        if not pair_keys:
            return _empty
        keys, n = np.unique(np.concatenate(pair_keys), return_counts=True)
        return pa.table(
            {
                "term_a": pa.array(uniq[keys // nv], pa.string()),
                "term_b": pa.array(uniq[keys % nv], pa.string()),
                "n_docs": pa.array(n.astype(np.int64), pa.int64()),
            }
        )

    partials = docs.map_batches(_pairs, batch_format="pyarrow")
    return map_partitions_by_key(
        partials, "term_a",
        lambda t: _pa_group_sum(t, ["term_a", "term_b"], ["n_docs"]) if t.num_rows else _empty,
        num_partitions=8,
    )


@register(
    "dataset_checksum",
    """
    SELECT event_type, CAST(COUNT(*) AS BIGINT) AS n,
      bit_xor(list_reduce(
        list_prepend(CAST(2166136261 AS BIGINT),
          list_transform(split(CAST(event_id AS VARCHAR), ''), c -> ascii(c))),
        (a, b) -> (xor(a, b) * 16777619) % 4294967296
      )) AS id_checksum
    FROM events GROUP BY 1
    """,
)
def q_dataset_checksum(sf_dir: str):
    """Order-independent content checksum per partition key (XOR-fold of
    row FNV-1a hashes + row count) — the integrity gate a resumable
    100-TB pipeline runs after a migration/restart to prove the output
    matches without re-reading either side into one place: XOR is
    commutative/associative, so per-batch partials merge in any order
    under ANY partitioning.  Catches missing AND duplicated rows (count
    catches same-row-twice; XOR catches substitutions).  Per-batch
    partial (K rows) -> coalesced final; no shuffle."""
    ev = _rp(sf_dir, "events", ["event_id", "event_type"])

    _empty = pa.table(
        {
            "event_type": pa.array([], pa.string()),
            "n": pa.array([], pa.int64()),
            "id_checksum": pa.array([], pa.int64()),
        }
    )

    def _partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return _empty
        h = _fnv1a32(batch["event_id"].to_numpy()).astype(np.int64)
        et = batch["event_type"].to_numpy(zero_copy_only=False)
        types, inv = np.unique(et, return_inverse=True)
        n = np.bincount(inv, minlength=len(types)).astype(np.int64)
        xs = np.zeros(len(types), dtype=np.int64)
        np.bitwise_xor.at(xs, inv, h)
        return pa.table(
            {
                "event_type": pa.array(types, pa.string()),
                "n": pa.array(n, pa.int64()),
                "id_checksum": pa.array(xs, pa.int64()),
            }
        )

    def _final(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _empty
        et = t["event_type"].to_numpy(zero_copy_only=False)
        types, inv = np.unique(et, return_inverse=True)
        n = np.zeros(len(types), dtype=np.int64)
        np.add.at(n, inv, t["n"].to_numpy())
        xs = np.zeros(len(types), dtype=np.int64)
        np.bitwise_xor.at(xs, inv, t["id_checksum"].to_numpy())
        return pa.table(
            {
                "event_type": pa.array(types, pa.string()),
                "n": pa.array(n, pa.int64()),
                "id_checksum": pa.array(xs, pa.int64()),
            }
        )

    return (
        ev.map_batches(_partial, batch_format="pyarrow")
        .repartition(1)
        .map_batches(_final, batch_format="pyarrow", batch_size=None)
    )


# RE2 \s — the whitespace set shared with token_count's '\S+'
_BPE_WS = np.array([9, 10, 12, 13, 32], np.uint32)


@register(
    "bpe_pair_counts",
    r"""
    WITH toks AS (SELECT unnest(regexp_extract_all(text, '\S+')) AS tok
                  FROM documents)
    SELECT substring(tok, CAST(i AS INTEGER), 2) AS pair,
           CAST(COUNT(*) AS BIGINT) AS n
    FROM toks, unnest(range(1, length(tok))) t(i)
    WHERE length(tok) >= 2
    GROUP BY 1
    """,
)
def q_bpe_pair_counts(sf_dir: str):
    """The first step of BPE tokenizer TRAINING: adjacent-codepoint pair
    frequencies across all token occurrences (the argmax pair is the
    first merge).  Fully vectorized — each batch's text is decoded once
    into one codepoint array (`functions/grams.py`); a token pair is an
    adjacent pair with neither codepoint RE2 whitespace (the `\\S+`
    token rule) inside one document, packed into one int64 key; per-batch
    partials carry the PAIR VOCABULARY (not the corpus), and one keyed
    reduce sums them.  Pair strings are materialized only for result
    rows."""
    from multimedia_indexing_ray.stages.partition import map_partitions_by_key

    docs = _rp(sf_dir, "documents", ["text"])

    _empty = pa.table(
        {"pair": pa.array([], pa.string()), "n": pa.array([], pa.int64())}
    )

    def _partial(batch: pa.Table) -> pa.Table:
        keys, n = grams.pair_counts(*grams.decode(batch["text"]), _BPE_WS)
        return pa.table({"pair": grams.pair_strings(keys), "n": pa.array(n, pa.int64())})

    partials = docs.map_batches(_partial, batch_format="pyarrow")
    return map_partitions_by_key(
        partials, "pair",
        lambda t: _pa_group_sum(t, ["pair"], ["n"]) if t.num_rows else _empty,
        num_partitions=8,
    )


@register(
    "pareto_front_events",
    """
    SELECT event_id, ts, value FROM events a
    WHERE NOT EXISTS (
      SELECT 1 FROM events b
      WHERE b.ts <= a.ts AND b.value >= a.value
        AND (b.ts < a.ts OR b.value > a.value))
    """,
)
def q_pareto_front_events(sf_dir: str):
    """Skyline (Pareto front) over (earlier ts, higher value) — the
    multi-objective selection operator (pick training samples no other
    sample beats on BOTH freshness and quality; a distinct algorithmic
    class from top-k, which needs one total order).  Distributed via the
    skyline identity: the global front is contained in the union of
    per-batch local fronts, so each batch emits its own front (tiny for
    non-adversarial data) and one coalesced final pass re-runs the same
    kernel.  Domination is pure comparisons on stored doubles — no
    arithmetic, so engine/SQL agreement is exact; equal (ts, value)
    twins dominate neither and are BOTH kept, matching the SQL's
    strict-in-one-dimension rule."""
    ev = _rp(sf_dir, "events", ["event_id", "ts", "value"])

    _empty = pa.table(
        {
            "event_id": pa.array([], pa.int64()),
            "ts": pa.array([], pa.timestamp("us")),
            "value": pa.array([], pa.float64()),
        }
    )

    def _front(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        if n == 0:
            return _empty
        ts = batch["ts"].cast(pa.int64()).to_numpy()
        v = batch["value"].to_numpy(zero_copy_only=False)
        order = np.lexsort((-v, ts))  # ts asc, value desc
        st, sv = ts[order], v[order]
        starts = sg.segment_starts(st)  # same-ts groups (sorted)
        # dominated iff best value at any strictly-earlier ts >= v, or a
        # same-ts row has strictly greater value
        grp_max = sv[starts]  # value desc within group -> first is max
        before = np.maximum.accumulate(np.concatenate([[-np.inf], grp_max[:-1]]))
        counts = sg.segment_counts(starts, n)
        gid = np.repeat(np.arange(len(starts)), counts)
        dominated = (before[gid] >= sv) | (np.repeat(grp_max, counts) > sv)
        keep = order[~dominated]
        return pa.table(
            {
                "event_id": batch["event_id"].take(pa.array(keep, pa.int64())),
                "ts": batch["ts"].take(pa.array(keep, pa.int64())),
                "value": batch["value"].take(pa.array(keep, pa.int64())),
            }
        )

    return (
        ev.map_batches(_front, batch_format="pyarrow")
        .repartition(1)
        .map_batches(_front, batch_format="pyarrow", batch_size=None)
    )


@register(
    "embedding_gram_matrix",
    """
    WITH q AS (SELECT vec_id,
            generate_subscripts(embedding, 1) AS i,
            CAST(FLOOR(CAST(unnest(embedding) AS DOUBLE) * 1000000) AS BIGINT)
              AS qv
          FROM embeddings)
    SELECT a.i AS i, b.i AS j, CAST(SUM(a.qv * b.qv) AS BIGINT) AS gram
    FROM q a JOIN q b ON a.vec_id = b.vec_id AND a.i <= b.i
    GROUP BY 1, 2
    """,
)
def q_embedding_gram_matrix(sf_dir: str):
    """Exact D x D Gram matrix of the embedding corpus (upper triangle)
    — the one aggregate PCA/whitening learning needs (A4,
    `dimreduction/PCA.java` learns from exactly this second-moment
    matrix), computed as MERGEABLE per-batch int64 matmul partials:
    values micro-quantize to ppm ints, each batch contributes q^T q
    (one 64 x 64 integer matmul), partials add associatively, and the
    SQL's exploded self-join (D^2 x n intermediate rows) reduces to ONE
    coalesced D(D+1)/2-row block.  All sums bounded by n * (1e6)^2 —
    int64-safe to ~9e6 unit vectors per partial; overflow-guarded by
    the quantization scale, never by row order."""
    emb = _rp(sf_dir, "embeddings", ["embedding"])

    def _partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table(
                {
                    "i": pa.array([], pa.int64()),
                    "j": pa.array([], pa.int64()),
                    "gram": pa.array([], pa.int64()),
                }
            )
        # shared helper handles list AND fixed_size_list layouts
        mat = nn._batch_matrix(batch, "embedding")
        d = mat.shape[1]
        q = np.floor(mat.astype(np.float64) * 1_000_000).astype(np.int64)
        g = q.T @ q
        iu, ju = np.triu_indices(d)
        return pa.table(
            {
                "i": pa.array(iu.astype(np.int64) + 1, pa.int64()),  # SQL 1-based
                "j": pa.array(ju.astype(np.int64) + 1, pa.int64()),
                "gram": pa.array(g[iu, ju], pa.int64()),
            }
        )

    return _tiny_group_sum(
        emb.map_batches(_partial, batch_format="pyarrow"), ["i", "j"], ["gram"]
    )


@register(
    "user_feature_store",
    """
    WITH g AS (
      SELECT user_id, ts, event_id, event_type, value,
        COALESCE(date_diff('microsecond',
          lag(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id), ts), 0)
          AS gap_us
      FROM events),
    s AS (
      SELECT user_id, ts, event_type, value,
        CAST(SUM(CASE WHEN gap_us > 1800000000 THEN 1 ELSE 0 END)
             OVER (PARTITION BY user_id ORDER BY ts, event_id) AS BIGINT)
          AS session_id
      FROM g),
    sess AS (SELECT user_id, CAST(COUNT(DISTINCT session_id) AS BIGINT)
               AS n_sessions FROM s GROUP BY 1),
    base AS (
      SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n_events,
        date_diff('microsecond', MIN(ts), MAX(ts)) // 1000000 AS tenure_s,
        CAST(SUM(CAST(FLOOR(value*100+0.5) AS BIGINT)) AS BIGINT)
          AS total_value_cents,
        CAST(SUM(CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END)
             AS BIGINT) AS n_purchase,
        CAST(SUM(CASE WHEN event_type = 'error' THEN 1 ELSE 0 END)
             AS BIGINT) AS n_error
      FROM events GROUP BY 1),
    tr AS (
      SELECT user_id,
        CAST(COUNT(*) AS BIGINT) AS n,
        CAST(SUM(th) AS BIGINT) AS sum_t, CAST(SUM(c) AS BIGINT) AS sum_x,
        CAST(SUM(th*c) AS BIGINT) AS sum_tx,
        CAST(SUM(th*th) AS BIGINT) AS sum_tt
      FROM (SELECT e.user_id,
              date_diff('microsecond', f.t0, e.ts) // 3600000000 AS th,
              CAST(FLOOR(e.value*100+0.5) AS BIGINT) AS c
            FROM events e
            JOIN (SELECT user_id, MIN(ts) AS t0 FROM events GROUP BY 1) f
              USING (user_id))
      GROUP BY 1)
    SELECT b.user_id, b.n_events, sess.n_sessions,
      CAST(b.n_events AS DOUBLE) / sess.n_sessions AS events_per_session,
      b.tenure_s, b.total_value_cents, b.n_purchase, b.n_error,
      CASE WHEN tr.n*tr.sum_tt - tr.sum_t*tr.sum_t != 0 THEN
        CAST(tr.n*tr.sum_tx - tr.sum_t*tr.sum_x AS DOUBLE)
          / CAST(tr.n*tr.sum_tt - tr.sum_t*tr.sum_t AS DOUBLE)
      END AS slope_cents_per_hour
    FROM base b JOIN sess USING (user_id) JOIN tr USING (user_id)
    """,
)
def q_user_feature_store(sf_dir: str):
    """The feature-store materialization: one wide feature row per user
    (event/session counts, tenure, spend, type counts, OLS spend trend)
    assembled in ONE shuffle and ONE kernel — where the SQL needs four
    grouped subqueries and three joins, the engine computes every family
    from the same sorted segments in a single pass (the multi-aggregate
    fusion that makes feature backfills affordable at 100 TB: each extra
    feature is one more reduceat, not one more pass or join)."""
    from multimedia_indexing_ray.stages.partition import map_partitions_by_key

    ev = _rp(sf_dir, "events", ["event_id", "user_id", "ts", "event_type", "value"])
    HOUR = 3_600_000_000

    _empty = pa.table(
        {
            "user_id": pa.array([], pa.int64()),
            "n_events": pa.array([], pa.int64()),
            "n_sessions": pa.array([], pa.int64()),
            "events_per_session": pa.array([], pa.float64()),
            "tenure_s": pa.array([], pa.int64()),
            "total_value_cents": pa.array([], pa.int64()),
            "n_purchase": pa.array([], pa.int64()),
            "n_error": pa.array([], pa.int64()),
            "slope_cents_per_hour": pa.array([], pa.float64()),
        }
    )

    def kernel(table: pa.Table) -> pa.Table:
        n = table.num_rows
        if n == 0:
            return _empty
        uid = table["user_id"].to_numpy()
        eid = table["event_id"].to_numpy()
        ts = table["ts"].cast(pa.int64()).to_numpy()
        et = table["event_type"].to_numpy(zero_copy_only=False)
        c = _cents(table["value"].to_numpy(zero_copy_only=False)).astype(np.int64)
        order = np.lexsort((eid, ts, uid))
        su, st, sc = uid[order], ts[order], c[order]
        se = et[order]
        starts = sg.segment_starts(su)
        counts = sg.segment_counts(starts, n)
        rel = sg.rel_index(starts, n)
        # sessions (30-min rule, sorted so first/last are min/max ts)
        gap = sg.seg_gap_us(st, starts)
        sess_start = (rel == 0) | (gap > _SESSION_GAP_US)
        n_sessions = np.add.reduceat(sess_start.astype(np.int64), starts)
        n_events = counts.astype(np.int64)
        tenure_s = (st[np.r_[starts[1:] - 1, n - 1]] - st[starts]) // 1_000_000
        total_cents = np.add.reduceat(sc, starts)
        n_purchase = np.add.reduceat((se == "purchase").astype(np.int64), starts)
        n_error = np.add.reduceat((se == "error").astype(np.int64), starts)
        # OLS slope on (hours since user t0, cents)
        t0 = np.repeat(st[starts], counts)
        th = (st - t0) // HOUR
        sum_t = np.add.reduceat(th, starts)
        sum_tx = np.add.reduceat(th * sc, starts)
        sum_tt = np.add.reduceat(th * th, starts)
        num = (n_events * sum_tx - sum_t * total_cents).astype(np.float64)
        den = (n_events * sum_tt - sum_t * sum_t).astype(np.float64)
        with np.errstate(invalid="ignore", divide="ignore"):
            slope = num / den
        return pa.table(
            {
                "user_id": pa.array(su[starts], pa.int64()),
                "n_events": pa.array(n_events, pa.int64()),
                "n_sessions": pa.array(n_sessions, pa.int64()),
                "events_per_session": pa.array(
                    n_events.astype(np.float64) / n_sessions, pa.float64()
                ),
                "tenure_s": pa.array(tenure_s, pa.int64()),
                "total_value_cents": pa.array(total_cents, pa.int64()),
                "n_purchase": pa.array(n_purchase, pa.int64()),
                "n_error": pa.array(n_error, pa.int64()),
                "slope_cents_per_hour": pa.array(slope, pa.float64(), mask=(den == 0)),
            }
        )

    return map_partitions_by_key(ev, "user_id", kernel, num_partitions=32)


@register(
    "incremental_feature_store_parity",
    REGISTRY["user_feature_store"].sql,
)
def q_incremental_feature_store_parity(sf_dir: str):
    """Streaming feature-store maintenance replayed against the batch
    truth: events stream through `IncrementalUserFeatureStore` in
    arrival order (micro-batches of 2048, globally (ts, event_id)
    sorted), updating O(1) per-user accumulators; the final `current()`
    must equal the batch `user_feature_store` SQL bit-for-bit.  This is
    the §2.9 stream/batch unification check for the FEATURE-ROW family
    (the flagship parity query covers the window family) — proof that
    backfill and live-serving paths cannot drift."""
    from multimedia_indexing_ray.state.incremental import IncrementalUserFeatureStore

    ev = _rp(sf_dir, "events", ["event_id", "user_id", "ts", "event_type", "value"])
    tbl = pa.concat_tables(list(ev.iter_batches(batch_size=None, batch_format="pyarrow")))
    order = np.lexsort(
        (tbl["event_id"].to_numpy(), tbl["ts"].cast(pa.int64()).to_numpy())
    )
    tbl = tbl.take(pa.array(order, pa.int64()))
    inc = IncrementalUserFeatureStore()
    for lo in range(0, tbl.num_rows, 2048):
        inc.append_batch(tbl.slice(lo, 2048))
    return inc.current()


@register(
    "hourly_concurrent_sessions",
    """
    WITH g AS (
      SELECT user_id, ts, event_id,
        COALESCE(date_diff('microsecond',
          lag(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id), ts), 0)
          AS gap_us
      FROM events),
    s AS (
      SELECT user_id, ts,
        CAST(SUM(CASE WHEN gap_us > 1800000000 THEN 1 ELSE 0 END)
             OVER (PARTITION BY user_id ORDER BY ts, event_id) AS BIGINT)
          AS session_id
      FROM g),
    b AS (SELECT user_id, session_id,
            MIN(epoch_us(ts)) AS st, MAX(epoch_us(ts)) AS en
          FROM s GROUP BY 1, 2),
    d AS (SELECT (st + 3599999999) // 3600000000 AS h, 1 AS delta FROM b
          UNION ALL
          SELECT en // 3600000000 + 1, -1 FROM b),
    agg AS (SELECT h, CAST(SUM(delta) AS BIGINT) AS d FROM d GROUP BY 1)
    SELECT h AS hour_idx, CAST(SUM(d) OVER (ORDER BY h) AS BIGINT) AS concurrency
    FROM agg
    """,
)
def q_hourly_concurrent_sessions(sf_dir: str):
    """Sweep-line concurrency: how many 30-min-gap sessions are active
    at each hour mark — the capacity-planning / peak-load aggregate, and
    a DISTRIBUTED PREFIX SCAN shape none of the other queries exercise.
    Scale story: the per-user kernel emits +1/-1 deltas bucketed to hour
    indices (cardinality = hours of history, BOUNDED — ~9k/year — unlike
    raw boundary timestamps), partials group-sum, and the cumulative
    scan runs once over the tiny hour histogram.  A session that spans
    no hour mark yields +1/-1 at the same bucket and cancels, exactly as
    in the SQL."""
    from multimedia_indexing_ray.stages.partition import map_partitions_by_key

    ev = _rp(sf_dir, "events", ["event_id", "user_id", "ts"])
    HOUR = 3_600_000_000

    _dempty = pa.table(
        {"h": pa.array([], pa.int64()), "d": pa.array([], pa.int64())}
    )

    def kernel(table: pa.Table) -> pa.Table:
        n = table.num_rows
        if n == 0:
            return _dempty
        uid = table["user_id"].to_numpy()
        eid = table["event_id"].to_numpy()
        ts = table["ts"].cast(pa.int64()).to_numpy()
        order = np.lexsort((eid, ts, uid))
        su, st = uid[order], ts[order]
        ustarts = sg.segment_starts(su)
        rel = sg.rel_index(ustarts, n)
        gap = sg.seg_gap_us(st, ustarts)
        sess_start = (rel == 0) | (gap > _SESSION_GAP_US)
        sstarts = np.flatnonzero(sess_start)
        last = np.r_[sstarts[1:] - 1, n - 1]
        h1 = (st[sstarts] + HOUR - 1) // HOUR  # ceil: first hour mark covered
        h2 = st[last] // HOUR + 1  # one past the last hour mark covered
        hs = np.concatenate([h1, h2])
        ds_ = np.concatenate([np.ones(len(h1), np.int64), -np.ones(len(h2), np.int64)])
        uniq, inv = np.unique(hs, return_inverse=True)
        sums = np.zeros(len(uniq), dtype=np.int64)
        np.add.at(sums, inv, ds_)
        return pa.table(
            {"h": pa.array(uniq, pa.int64()), "d": pa.array(sums, pa.int64())}
        )

    def _scan(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    "hour_idx": pa.array([], pa.int64()),
                    "concurrency": pa.array([], pa.int64()),
                }
            )
        g = _pa_group_sum(t, ["h"], ["d"])
        h = g["h"].to_numpy()
        d = g["d"].to_numpy()
        order = np.argsort(h, kind="stable")
        return pa.table(
            {
                "hour_idx": pa.array(h[order], pa.int64()),
                "concurrency": pa.array(np.cumsum(d[order]), pa.int64()),
            }
        )

    partials = map_partitions_by_key(ev, "user_id", kernel, num_partitions=32)
    return partials.repartition(1).map_batches(
        _scan, batch_format="pyarrow", batch_size=None
    )


@register(
    "sliding_distinct_users_1h",
    """
    SELECT e.event_id,
      (SELECT CAST(COUNT(DISTINCT u.user_id) AS BIGINT) FROM events u
       WHERE u.event_type = e.event_type
         AND u.ts BETWEEN e.ts - INTERVAL 1 HOUR AND e.ts) AS du_1h
    FROM events e
    """,
)
def q_sliding_distinct_users_1h(sf_dir: str):
    """EXACT sliding-window distinct count (unique users active in the
    trailing hour, per event, within its event type) — the hard sliding
    aggregate: distinct has no subtraction, so no window frame computes
    it.  Vectorized identity: a window row is a DUPLICATE iff the same
    user's previous occurrence is also inside the window (prev_ts >=
    t-W); with rows time-sorted the window starts b_i are nondecreasing,
    so each row j's "I am a duplicate" condition holds exactly on the
    index interval [j, e_j) with e_j = searchsorted(b, prev_ts_j,
    'right') — duplicates-per-window is one +1/-1 interval cumsum, and
    distinct = window_size - duplicates.  O(n log n), zero Python loops,
    ONE shuffle on event_type; the SQL needs a correlated
    COUNT(DISTINCT) subquery per row."""
    from multimedia_indexing_ray.stages.partition import map_partitions_by_key

    ev = _rp(sf_dir, "events", ["event_id", "user_id", "ts", "event_type"])
    W = 3_600_000_000
    NEG = np.int64(-(2**62))

    _empty = pa.table(
        {"event_id": pa.array([], pa.int64()), "du_1h": pa.array([], pa.int64())}
    )

    def kernel(table: pa.Table) -> pa.Table:
        if table.num_rows == 0:
            return _empty
        et = table["event_type"].to_numpy(zero_copy_only=False)
        types = np.unique(et)
        outs = []
        for t in types:  # <= K event types per partition (tiny loop)
            sel = np.flatnonzero(et == t)
            sub = table.take(pa.array(sel, pa.int64()))
            n = sub.num_rows
            eid = sub["event_id"].to_numpy()
            ts = sub["ts"].cast(pa.int64()).to_numpy()
            uid = sub["user_id"].to_numpy()
            order = np.lexsort((eid, ts))
            st, su, se = ts[order], uid[order], eid[order]
            # prev same-user occurrence ts (within this type)
            uorder = np.lexsort((st, su))  # stable: user, then ts
            pu, pt = su[uorder], st[uorder]
            prev_sorted = np.empty(n, dtype=np.int64)
            prev_sorted[0] = NEG
            prev_sorted[1:] = np.where(pu[1:] == pu[:-1], pt[:-1], NEG)
            prev = np.empty(n, dtype=np.int64)
            prev[uorder] = prev_sorted
            b = st - W
            lo = np.searchsorted(st, b, side="left")
            hi = np.searchsorted(st, st, side="right") - 1  # last idx with ts <= t_i
            # duplicate j active on window-evaluation indices [j, e_j)
            e_j = np.searchsorted(b, prev, side="right")
            j = np.arange(n)
            valid = e_j > j
            delta = np.zeros(n + 1, dtype=np.int64)
            np.add.at(delta, j[valid], 1)
            np.add.at(delta, e_j[valid], -1)
            dup = np.cumsum(delta)[:n]
            du = (hi - lo + 1) - dup[hi]
            outs.append(
                pa.table(
                    {
                        "event_id": pa.array(se, pa.int64()),
                        "du_1h": pa.array(du.astype(np.int64), pa.int64()),
                    }
                )
            )
        return pa.concat_tables(outs)

    return map_partitions_by_key(ev, "event_type", kernel, num_partitions=8)


def _kcore_sql(k: int = 2, rounds: int = 5) -> str:
    its = []
    prev = "n0"
    for i in range(1, rounds + 1):
        its.append(
            f"""r{i} AS (SELECT e.u FROM edges e
            JOIN {prev} a ON a.u = e.u JOIN {prev} b ON b.u = e.v
            GROUP BY e.u HAVING count(*) >= {k})"""
        )
        prev = f"r{i}"
    return f"""
    WITH {_NGRAM_PAIRS_CTE},
    edges AS (SELECT a_id AS u, b_id AS v FROM pairs
              UNION SELECT b_id, a_id FROM pairs),
    n0 AS (SELECT DISTINCT u FROM edges),
    {', '.join(its)}
    SELECT e.u AS doc_id, CAST(count(*) AS BIGINT) AS core_degree
    FROM edges e JOIN {prev} a ON a.u = e.u JOIN {prev} b ON b.u = e.v
    GROUP BY 1
    """


@register("kcore_neardup", _kcore_sql(2, 5))
def q_kcore_neardup(sf_dir: str):
    """2-core of the near-dup graph (5 peel rounds): drop documents
    whose duplicate relationships vanish once weakly-connected hangers-on
    are removed — the density filter separating genuine template
    families from incidental single-pair matches, and the fourth graph
    kernel (after CC, PageRank, triangles) over the same slim pair set.
    `stages/cc.py:kcore`; exactly R rounds on both sides, so the
    unrolled SQL matches bit-for-bit even on graphs that have not
    reached fixpoint."""
    from multimedia_indexing_ray.stages.cc import kcore

    docs = _rp(sf_dir, "documents", ["doc_id", "text"])
    pairs = dd.anchor_jaccard_pairs(
        docs, "text", "doc_id", threshold=0.3, num_partitions=16,
        coalesce=docs.count() <= _COALESCE_DOCS,
    )
    return kcore(pairs, k=2, rounds=5)


# ---------------------------------------------------------------------------
# §2.11 additions (round 5c): n-gram LM quality filtering and exact
# duplicate-span detection — the two classic training-data curation passes
# (CCNet-style perplexity filtering; Lee et al. 2022 ExactSubstr dedup)
# that were still missing from the registry.
# ---------------------------------------------------------------------------

_LM_SQL = r"""
WITH toks AS (SELECT doc_id, regexp_extract_all(text, '\S+') AS l FROM documents),
seq AS (SELECT doc_id, unnest(l) AS w, unnest(range(1, len(l)+1)) AS i FROM toks),
big AS (SELECT doc_id, w AS w1,
               lead(w) OVER (PARTITION BY doc_id ORDER BY i) AS w2
        FROM seq QUALIFY w2 IS NOT NULL),
bc AS (SELECT w1, w2, CAST(COUNT(*) AS BIGINT) AS c2 FROM big GROUP BY 1, 2),
uc AS (SELECT w1, CAST(SUM(c2) AS BIGINT) AS c1 FROM bc GROUP BY 1)
SELECT b.doc_id,
       CAST(COUNT(*) AS BIGINT) AS n_bigrams,
       CAST(SUM(uc.c1 * 1000000 // bc.c2) AS BIGINT) AS surprise,
       CAST(SUM(uc.c1 * 1000000 // bc.c2) // COUNT(*) AS BIGINT) AS surprise_per_bigram
FROM big b JOIN bc USING (w1, w2) JOIN uc USING (w1)
GROUP BY 1
"""


def _bigram_keys(batch: pa.Table):
    """(doc_row_index, w1, joined 'w1 w2' key) for every bigram occurrence
    in the batch — consecutive whitespace tokens within one document.  The
    join separator is a space, which cannot appear inside a \\S+ token, so
    the composite key is collision-free.  All kernels are Arrow/numpy; the
    only per-token work is the C-level string concat."""
    flat, counts = tx.flat_tokens(batch["text"])
    n = len(flat)
    if n < 2:
        return None
    doc_of = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    ok = doc_of[:-1] == doc_of[1:]
    if not ok.any():
        return None
    w1 = flat[:-1][ok]
    w2 = flat[1:][ok]
    keys = pc.binary_join_element_wise(
        pa.array(w1, pa.string()), pa.array(w2, pa.string()), " "
    )
    return doc_of[:-1][ok], w1, keys


_BC_EMPTY = pa.table(
    {"bg": pa.array([], pa.string()), "c2": pa.array([], pa.int64())}
)
_UC_EMPTY = pa.table(
    {"w1": pa.array([], pa.string()), "c1": pa.array([], pa.int64())}
)
_LM_EMPTY = pa.table(
    {
        "doc_id": pa.array([], pa.int64()),
        "n_bigrams": pa.array([], pa.int64()),
        "surprise": pa.array([], pa.int64()),
        "surprise_per_bigram": pa.array([], pa.int64()),
    }
)


@register("lm_perplexity_docs", _LM_SQL)
def q_lm_perplexity_docs(sf_dir: str):
    """CCNet-style n-gram language-model quality scoring: train a word-
    bigram LM on the corpus itself (maximum-likelihood counts), then score
    every document by total and mean per-bigram surprise.  The per-
    occurrence surprise surrogate is ``count(w1·) * 1e6 // count(w1 w2)``
    — the integer reciprocal of the MLE conditional p(w2|w1), which has
    the same ORDERING as -log p summed per document but is bit-exact
    across engines (no float log).  High-surprise documents are the
    low-quality / out-of-domain tail that perplexity filtering drops.

    Distribution mirrors the tf-idf family (`q_tfidf_top_terms`):
    per-batch Arrow bigram-count partials -> ONE keyed reduce to the
    bigram table, a second tiny reduce for the prefix-marginal table,
    then a shuffle-free scoring pass (bigrams never cross document
    boundaries, so each batch scores its own docs).  Both model tables
    are gated on `_vocab_broadcast_cap` (open-domain bigram vocabularies
    are unbounded): under the cap they broadcast once via ray.put and the
    lookup is two searchsorteds; above it the scoring pass co-partitions
    per-doc bigram counts with the model tables via two bucketed hash
    joins and a doc-keyed reduce — no driver materialization on either
    side.  Statistical analog of the reference's learned-model scoring
    chain (model learned from the corpus, broadcast, applied per batch —
    `examples/IndexTransformation.java:61-125`)."""
    from multimedia_indexing_ray.stages.partition import map_partitions_by_key

    docs = _rp(sf_dir, "documents", ["doc_id", "text"])

    def _bc_partial(batch: pa.Table) -> pa.Table:
        bk = _bigram_keys(batch)
        if bk is None:
            return _BC_EMPTY
        _, _, keys = bk
        return _pa_group_sum(
            pa.table({"bg": keys, "c2": pa.array(np.ones(len(keys), np.int64))}),
            ["bg"],
            ["c2"],
        )

    def _bc_reduce(t: pa.Table) -> pa.Table:
        return _pa_group_sum(t, ["bg"], ["c2"]) if t.num_rows else _BC_EMPTY

    bc_ds = map_partitions_by_key(
        docs.map_batches(_bc_partial, batch_format="pyarrow"),
        "bg",
        _bc_reduce,
        num_partitions=8,
    ).materialize()

    def _uc_partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _UC_EMPTY
        w1 = pc.list_element(pc.split_pattern(t["bg"], " ", max_splits=1), 0)
        return _pa_group_sum(pa.table({"w1": w1, "c1": t["c2"]}), ["w1"], ["c1"])

    def _uc_reduce(t: pa.Table) -> pa.Table:
        return _pa_group_sum(t, ["w1"], ["c1"]) if t.num_rows else _UC_EMPTY

    uc_ds = map_partitions_by_key(
        bc_ds.map_batches(_uc_partial, batch_format="pyarrow"),
        "w1",
        _uc_reduce,
        num_partitions=8,
    ).materialize()

    import ray as _ray

    if bc_ds.count() <= _vocab_broadcast_cap():
        bc_rows = bc_ds.take_all()
        uc_rows = uc_ds.take_all()
        bg_sorted = np.array(sorted(r["bg"] for r in bc_rows), dtype=object)
        bgmap = {r["bg"]: r["c2"] for r in bc_rows}
        c2v = np.array([bgmap[k] for k in bg_sorted], dtype=np.int64)
        w1_sorted = np.array(sorted(r["w1"] for r in uc_rows), dtype=object)
        w1map = {r["w1"]: r["c1"] for r in uc_rows}
        c1v = np.array([w1map[k] for k in w1_sorted], dtype=np.int64)
        # model tables ship through the object store once, not in every
        # task's pickled closure
        mref = _ray.put((bg_sorted, c2v, w1_sorted, c1v))

        def _score(batch: pa.Table) -> pa.Table:
            bg_sorted, c2v, w1_sorted, c1v = _ray.get(mref)
            bk = _bigram_keys(batch)
            if bk is None:
                return _LM_EMPTY
            d, w1, keys = bk
            kn = keys.to_numpy(zero_copy_only=False)
            c2 = c2v[np.searchsorted(bg_sorted, kn)]
            c1 = c1v[np.searchsorted(w1_sorted, w1)]
            score = c1 * np.int64(1_000_000) // c2
            starts = sg.segment_starts(d)
            sums = np.add.reduceat(score, starts)
            nb = np.diff(np.append(starts, len(d))).astype(np.int64)
            ids = batch["doc_id"].to_numpy(zero_copy_only=False)[d[starts]]
            return pa.table(
                {
                    "doc_id": pa.array(ids, pa.int64()),
                    "n_bigrams": pa.array(nb, pa.int64()),
                    "surprise": pa.array(sums, pa.int64()),
                    "surprise_per_bigram": pa.array(sums // nb, pa.int64()),
                }
            )

        return docs.map_batches(_score, batch_format="pyarrow")

    # at-scale path: per-doc bigram-count pairs hash-joined with both
    # model tables on their keys (the model never leaves the workers),
    # then one doc-keyed reduce
    _PAIRS_EMPTY = pa.table(
        {
            "doc_id": pa.array([], pa.int64()),
            "bg": pa.array([], pa.string()),
            "w1": pa.array([], pa.string()),
            "k": pa.array([], pa.int64()),
        }
    )

    def _doc_pairs(batch: pa.Table) -> pa.Table:
        bk = _bigram_keys(batch)
        if bk is None:
            return _PAIRS_EMPTY
        d, w1, keys = bk
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        t = pa.table(
            {
                "doc_id": pa.array(ids[d], pa.int64()),
                "bg": keys,
                "w1": pa.array(w1, pa.string()),
                "k": pa.array(np.ones(len(d), np.int64)),
            }
        )
        g = pa.TableGroupBy(t, ["doc_id", "bg", "w1"]).aggregate([("k", "sum")])
        return pa.table(
            {
                "doc_id": g["doc_id"],
                "bg": g["bg"],
                "w1": g["w1"],
                "k": g["k_sum"],
            }
        )

    joined = hash_join(
        hash_join(
            docs.map_batches(_doc_pairs, batch_format="pyarrow"),
            bc_ds,
            left_on="bg",
            num_partitions=16,
        ),
        uc_ds,
        left_on="w1",
        num_partitions=16,
    )

    def _doc_reduce(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _LM_EMPTY
        d = t["doc_id"].to_numpy(zero_copy_only=False)
        k = t["k"].to_numpy(zero_copy_only=False).astype(np.int64)
        c2 = t["c2"].to_numpy(zero_copy_only=False).astype(np.int64)
        c1 = t["c1"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(d, kind="stable")
        d, k = d[order], k[order]
        score = (c1[order] * np.int64(1_000_000) // c2[order]) * k
        starts = sg.segment_starts(d)
        sums = np.add.reduceat(score, starts)
        nb = np.add.reduceat(k, starts)
        return pa.table(
            {
                "doc_id": pa.array(d[starts], pa.int64()),
                "n_bigrams": pa.array(nb, pa.int64()),
                "surprise": pa.array(sums, pa.int64()),
                "surprise_per_bigram": pa.array(sums // nb, pa.int64()),
            }
        )

    return map_partitions_by_key(joined, "doc_id", _doc_reduce, num_partitions=16)


_GRAM_CHARS = 16


def _span_grams(batch: pa.Table, K: int) -> pa.Table:
    """(gram fixed_size_binary(4K), doc_id, i): every K-codepoint window
    of every doc, packed from the batch's one codepoint array
    (`functions/grams.py`; a gram is exact bytes, not a hash — collisions
    impossible); ``i`` is the 1-based codepoint start, exactly SQL
    ``substr`` semantics.  Windows are offset arithmetic over the whole
    batch, never a loop per doc/gram/char.  Shared by `q_dup_span_docs`
    and `q_dup_span_scrub`."""
    cp, starts = grams.decode(batch["text"])
    doc, first = grams.windows(starts, K)
    ids = batch["doc_id"].to_numpy(zero_copy_only=False)
    return pa.table(
        {
            "gram": grams.to_binary(grams.window_values(cp, first, K)),
            "doc_id": pa.array(ids[doc], pa.int64()),
            "i": pa.array(first - starts[doc] + 1, pa.int64()),
        }
    )


def _span_dup_positions(t: pa.Table, K: int) -> pa.Table:
    """(doc_id, i) occurrences of grams that appear MORE THAN ONCE within
    ``t`` — callers co-locate equal grams (keyed exchange or one
    in-process table), so within-t repetition == corpus-wide repetition.
    One np.unique over the raw fixed-size-binary buffer, no per-gram
    Python objects."""
    empty = pa.table(
        {"doc_id": pa.array([], pa.int64()), "i": pa.array([], pa.int64())}
    )
    if t.num_rows == 0:
        return empty
    _, inv, cnt = np.unique(
        grams.binary_view(t["gram"]), return_inverse=True, return_counts=True
    )
    keep = cnt[inv] > 1
    if not keep.any():
        return empty
    km = pa.array(keep)
    return pa.table({"doc_id": t["doc_id"].filter(km), "i": t["i"].filter(km)})


_DUP_SPAN_SQL = f"""
WITH g AS (SELECT doc_id,
                  unnest(range(1, greatest(length(text)-{_GRAM_CHARS - 2}, 1))) AS i,
                  text FROM documents),
g2 AS (SELECT doc_id, i, substr(text, CAST(i AS INTEGER), {_GRAM_CHARS}) AS gram FROM g),
dup AS (SELECT gram FROM g2 GROUP BY gram HAVING COUNT(*) > 1),
hits AS (SELECT g2.doc_id, g2.i FROM g2 JOIN dup USING (gram)),
pos AS (SELECT DISTINCT doc_id, unnest(range(i, i+{_GRAM_CHARS})) AS p FROM hits)
SELECT d.doc_id, CAST(length(d.text) AS BIGINT) AS n_chars,
       CAST(COALESCE(c.cnt, 0) AS BIGINT) AS dup_chars
FROM documents d
LEFT JOIN (SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS cnt FROM pos GROUP BY 1) c
  USING (doc_id)
"""


@register("dup_span_docs", _DUP_SPAN_SQL)
def q_dup_span_docs(sf_dir: str):
    """ExactSubstr-style duplicate-span detection (Lee et al. 2022,
    "Deduplicating Training Data Makes Language Models Better"): for every
    document, the number of character positions covered by at least one
    16-char gram that occurs MORE THAN ONCE in the whole corpus (including
    twice within the same document) — the per-doc duplicated-text mass a
    span-removal pass would cut.

    Grams are windows over the batch's one codepoint array
    (`functions/grams.py`; exactly SQL ``substr`` semantics), packed into
    fixed-size-binary(64) Arrow values — no per-gram Python objects.  ONE
    slim keyed exchange of (gram, doc_id, pos) rows groups equal grams
    (exact bytes, not hashes, so collisions are impossible); occurrences of corpus-repeated grams
    come back as (doc_id, pos) hits, union with the per-doc length rows,
    and a second doc-keyed pass computes the interval-union length with a
    segmented min(gap, 16) prefix kernel — equal-length intervals make
    coverage a closed form, no position expansion anywhere (the oracle's
    ``unnest(range(i, i+16))`` blow-up stays SQL-only).

    Scale note: the gram exchange ships 64B × n_chars — bounded, single
    pass, but 16× the corpus bytes; at 100 TB compose with
    `q_winnow_fingerprint_docs` as a candidate-document prefilter so only
    documents sharing a winnowed fingerprint enter the exact pass (same
    blocking-then-verify shape as `dd.anchor_jaccard_pairs`).  Gram
    extraction is one decode per batch plus offset arithmetic, never a
    loop per doc, gram or char.

    Below `GRAFT_DUPSPAN_COALESCE_DOCS` documents (default 20k — the cap
    is lower than `_COALESCE_DOCS` because the in-process gram table is
    64 B/char) the two keyed exchanges' fixed cost dwarfs the kernels, so
    the IDENTICAL kernels run once in-process (the gate reads a
    metadata-only row count; the distributed plan is the same code and is
    flipped on in the scale rehearsal)."""
    from multimedia_indexing_ray.stages.partition import map_partitions_by_key

    docs = _rp(sf_dir, "documents", ["doc_id", "text"])
    coalesce_cap = int(os.environ.get("GRAFT_DUPSPAN_COALESCE_DOCS", "20000"))
    K = _GRAM_CHARS

    def _grams(batch: pa.Table) -> pa.Table:
        return _span_grams(batch, K)

    _KV_EMPTY = pa.table(
        {
            "doc_id": pa.array([], pa.int64()),
            "kind": pa.array([], pa.int64()),
            "val": pa.array([], pa.int64()),
        }
    )

    def _dup_hits(t: pa.Table) -> pa.Table:
        h = _span_dup_positions(t, K)
        if h.num_rows == 0:
            return _KV_EMPTY
        return pa.table(
            {
                "doc_id": h["doc_id"],
                "kind": pa.array(np.ones(h.num_rows, np.int64), pa.int64()),
                "val": h["i"],
            }
        )

    def _len_rows(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": batch["doc_id"].cast(pa.int64()),
                "kind": pa.array(np.zeros(batch.num_rows, np.int64)),
                "val": pc.utf8_length(batch["text"]).cast(pa.int64()),
            }
        )

    _OUT_EMPTY = pa.table(
        {
            "doc_id": pa.array([], pa.int64()),
            "n_chars": pa.array([], pa.int64()),
            "dup_chars": pa.array([], pa.int64()),
        }
    )

    def _coverage(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _OUT_EMPTY
        d = t["doc_id"].to_numpy(zero_copy_only=False)
        k = t["kind"].to_numpy(zero_copy_only=False)
        v = t["val"].to_numpy(zero_copy_only=False)
        order = np.lexsort((v, k, d))
        d, k, v = d[order], k[order], v[order]
        lm = k == 0
        out_ids, out_len = d[lm], v[lm]
        dh, vh = d[~lm], v[~lm]
        cover = np.zeros(len(out_ids), np.int64)
        if len(dh):
            last = np.empty(len(dh), bool)
            last[:-1] = dh[:-1] != dh[1:]
            last[-1] = True
            contrib = np.full(len(dh), K, np.int64)
            gaps = vh[1:] - vh[:-1]
            nl = ~last[:-1]
            contrib[:-1][nl] = np.minimum(K, gaps[nl])
            starts = sg.segment_starts(dh)
            per_doc = np.add.reduceat(contrib, starts)
            # every hit doc has a length row in the same partition group
            cover[np.searchsorted(out_ids, dh[starts])] = per_doc
        return pa.table(
            {
                "doc_id": pa.array(out_ids, pa.int64()),
                "n_chars": pa.array(out_len, pa.int64()),
                "dup_chars": pa.array(cover, pa.int64()),
            }
        )

    if docs.count() <= coalesce_cap:
        # one in-process pass over the whole (small) corpus — every gram
        # and every doc is trivially "co-located", so the exchange-plan
        # kernels apply unchanged
        t = _pq(sf_dir, "documents", ["doc_id", "text"])
        return _coverage(
            pa.concat_tables([_len_rows(t), _dup_hits(_grams(t))])
        )

    hits = map_partitions_by_key(
        docs.map_batches(_grams, batch_format="pyarrow"),
        "gram",
        _dup_hits,
        num_partitions=16,
    )
    lens = docs.map_batches(_len_rows, batch_format="pyarrow")
    return map_partitions_by_key(
        lens.union(hits), "doc_id", _coverage, num_partitions=16
    )


_DUP_SCRUB_SQL = f"""
WITH g AS (SELECT doc_id,
                  unnest(range(1, greatest(length(text)-{_GRAM_CHARS - 2}, 1))) AS i,
                  text FROM documents),
g2 AS (SELECT doc_id, i, substr(text, CAST(i AS INTEGER), {_GRAM_CHARS}) AS gram FROM g),
dup AS (SELECT gram FROM g2 GROUP BY gram HAVING COUNT(*) > 1),
hits AS (SELECT g2.doc_id, g2.i FROM g2 JOIN dup USING (gram)),
pos AS (SELECT DISTINCT doc_id, unnest(range(i, i+{_GRAM_CHARS})) AS p FROM hits),
chars AS (SELECT doc_id, text, unnest(range(1, length(text)+1)) AS p FROM documents),
kept AS (SELECT c.doc_id, c.p, substr(c.text, CAST(c.p AS INTEGER), 1) AS ch
         FROM chars c ANTI JOIN pos ON c.doc_id = pos.doc_id AND c.p = pos.p),
agg AS (SELECT doc_id, string_agg(ch, '' ORDER BY p) AS clean_text,
               CAST(COUNT(*) AS BIGINT) AS n_kept FROM kept GROUP BY doc_id)
SELECT d.doc_id, COALESCE(a.clean_text, '') AS clean_text,
       COALESCE(a.n_kept, 0) AS n_kept
FROM documents d LEFT JOIN agg a USING (doc_id)
"""


@register("dup_span_scrub", _DUP_SCRUB_SQL)
def q_dup_span_scrub(sf_dir: str):
    """ExactSubstr span REMOVAL — the second half of the Lee et al. 2022
    pipeline (`q_dup_span_docs` measures the duplicated mass; this query
    CUTS it): every codepoint covered by at least one corpus-repeated
    16-gram is removed, and the survivors are re-joined in order into
    ``clean_text`` (plus ``n_kept``, the kept-codepoint count — the
    checkable aggregate).  Same gram machinery (`_span_grams` /
    `_span_dup_positions`), same SQL ``substr`` codepoint semantics.

    Scale shape: hits come from the same slim gram exchange as
    dup_span_docs; the second exchange is doc-keyed and must ship the
    TEXT once (inherent — the output IS text), plus 8B per hit position.
    The scrub is one diff-array coverage mask (bincount + cumsum) over
    the partition's one codepoint array and one re-encode of the kept
    codepoints — never a loop per doc or char.  Coalesce gate identical
    to dup_span_docs (`GRAFT_DUPSPAN_COALESCE_DOCS`, metadata-only row
    count); the distributed plan is the same code, flipped in the scale
    rehearsal."""
    from multimedia_indexing_ray.stages.partition import map_partitions_by_key

    docs = _rp(sf_dir, "documents", ["doc_id", "text"])
    coalesce_cap = int(os.environ.get("GRAFT_DUPSPAN_COALESCE_DOCS", "20000"))
    K = _GRAM_CHARS

    def _grams(batch: pa.Table) -> pa.Table:
        return _span_grams(batch, K)

    _HIT_EMPTY = pa.table(
        {
            "doc_id": pa.array([], pa.int64()),
            "i": pa.array([], pa.int64()),
            "text": pa.array([], pa.string()),
        }
    )

    def _hit_rows(t: pa.Table) -> pa.Table:
        h = _span_dup_positions(t, K)
        if h.num_rows == 0:
            return _HIT_EMPTY
        return pa.table(
            {
                "doc_id": h["doc_id"],
                "i": h["i"],
                "text": pa.nulls(h.num_rows, pa.string()),
            }
        )

    def _doc_rows(batch: pa.Table) -> pa.Table:
        # i = 0 sorts BEFORE any hit (hit starts are 1-based)
        return pa.table(
            {
                "doc_id": batch["doc_id"].cast(pa.int64()),
                "i": pa.array(np.zeros(batch.num_rows, np.int64), pa.int64()),
                "text": batch["text"],
            }
        )

    _OUT_EMPTY = pa.table(
        {
            "doc_id": pa.array([], pa.int64()),
            "clean_text": pa.array([], pa.string()),
            "n_kept": pa.array([], pa.int64()),
        }
    )

    def _scrub(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _OUT_EMPTY
        d = t["doc_id"].to_numpy(zero_copy_only=False)
        pos = t["i"].to_numpy(zero_copy_only=False)
        order = np.lexsort((pos, d))
        d, pos = d[order], pos[order]
        # the first row of each doc's segment is its doc row (i == 0)
        heads = sg.segment_starts(d)
        cp, starts = grams.decode(t["text"].take(pa.array(order[heads], pa.int64())))
        # covered-codepoint mask over the whole batch: +1 at every hit's
        # first codepoint, -1 one past its K-th (clipped to the doc end)
        hit = pos > 0
        seg = np.repeat(np.arange(len(heads)), sg.segment_counts(heads, len(d)))[hit]
        lo = starts[seg] + pos[hit] - 1
        hi = np.minimum(lo + K, starts[seg + 1])
        n = len(cp)
        covered = np.cumsum(
            np.bincount(lo, minlength=n + 1) - np.bincount(hi, minlength=n + 1)
        )[:n] > 0
        kept_at = np.concatenate([[0], np.cumsum(~covered)])[starts]
        return pa.table(
            {
                "doc_id": pa.array(d[heads], pa.int64()),
                "clean_text": grams.encode(cp[~covered], kept_at),
                "n_kept": pa.array(np.diff(kept_at), pa.int64()),
            }
        )

    if docs.count() <= coalesce_cap:
        t = _pq(sf_dir, "documents", ["doc_id", "text"])
        return _scrub(pa.concat_tables([_doc_rows(t), _hit_rows(_grams(t))]))

    hits = map_partitions_by_key(
        docs.map_batches(_grams, batch_format="pyarrow"),
        "gram",
        _hit_rows,
        num_partitions=16,
    )
    doc_rows = docs.map_batches(_doc_rows, batch_format="pyarrow")
    return map_partitions_by_key(
        doc_rows.union(hits), "doc_id", _scrub, num_partitions=16
    )


_DSIR_BUCKETS = 256
_DSIR_TOP_K = 100


def _dsir_sql() -> str:
    from multimedia_indexing_ray.functions.text import FNV_BASIS

    B, K = _DSIR_BUCKETS, _DSIR_TOP_K
    return rf"""
    WITH t2 AS (SELECT d.doc_id, d.lang, unnest(regexp_extract_all(d.text, '\S+')) AS tok
                FROM documents d),
    b AS (SELECT doc_id, lang,
                 CAST({_fnv_sql('tok', FNV_BASIS)} % {B} AS BIGINT) AS bucket
          FROM t2),
    q AS (SELECT bucket, CAST(COUNT(*) AS BIGINT) AS qc FROM b GROUP BY 1),
    p AS (SELECT bucket, CAST(COUNT(*) AS BIGINT) AS pc FROM b WHERE lang = 'en' GROUP BY 1),
    s AS (SELECT q.bucket, (COALESCE(p.pc, 0) + 1) * 1000000 // (q.qc + 1) AS sb
          FROM q LEFT JOIN p USING (bucket)),
    doc AS (SELECT b.doc_id, CAST(COUNT(*) AS BIGINT) AS n_tokens,
                   CAST(SUM(s.sb) AS BIGINT) AS importance
            FROM b JOIN s USING (bucket) GROUP BY 1),
    r AS (SELECT doc_id, n_tokens, importance,
                 importance // n_tokens AS importance_per_token,
                 row_number() OVER (ORDER BY importance // n_tokens DESC, doc_id) AS rk
          FROM doc)
    SELECT doc_id, n_tokens, importance, importance_per_token,
           CAST(CASE WHEN rk <= {K} THEN 1 ELSE 0 END AS BIGINT) AS selected
    FROM r
    """


@register("dsir_importance_docs", _dsir_sql())
def q_dsir_importance_docs(sf_dir: str):
    """DSIR — Data Selection via Importance Resampling (Xie et al. 2023):
    fit hashed-unigram bag-of-words models of the TARGET distribution
    (here the lang='en' slice) and the RAW corpus, weight every document
    by how target-like its hashed token histogram is, and select the
    top-k.  The per-bucket weight is the integer likelihood-ratio
    surrogate ``(target_count+1) * 1e6 // (corpus_count+1)`` (add-one
    smoothed); since the target is a subset of the corpus the ratio is
    <= 1e6, so per-doc sums stay far from int64 overflow.  Log-free,
    bit-exact on both engines; constant factors (corpus/target totals)
    multiply every bucket equally so the selection ranking matches the
    normalized-DSIR ranking.

    Scale shape: the model is a FIXED 256-int vector pair, so there is no
    keyed exchange anywhere — per-batch (256,) count partials coalesce
    through the `_tiny_group_sum` tree (bucket is the textbook
    low-cardinality key), the scored pass is embarrassingly parallel, and
    the top-k selection is per-block partial top-k -> one tiny merge
    (K7's pattern) with the winner id-set broadcast for the flag column.
    Scored rows materialize once (slim int64 columns, no text) because
    the flag pass re-reads them."""
    from multimedia_indexing_ray.stages.partition import map_partitions_by_key  # noqa: F401

    docs = _rp(sf_dir, "documents", ["doc_id", "text", "lang"])
    B, K = _DSIR_BUCKETS, _DSIR_TOP_K

    _CNT_EMPTY = pa.table(
        {
            "bucket": pa.array([], pa.int64()),
            "qc": pa.array([], pa.int64()),
            "pc": pa.array([], pa.int64()),
        }
    )

    def _bucket_counts(batch: pa.Table) -> pa.Table:
        flat, counts = tx.flat_tokens(batch["text"])
        if len(flat) == 0:
            return _CNT_EMPTY
        doc_of = np.repeat(np.arange(batch.num_rows, dtype=np.int64), counts)
        bucket = (tx.fnv1a32_str(flat) % np.uint64(B)).astype(np.int64)
        is_en = (
            pc.equal(batch["lang"], "en").to_numpy(zero_copy_only=False)[doc_of]
        )
        qv = np.bincount(bucket, minlength=B).astype(np.int64)
        pv = np.bincount(bucket[is_en], minlength=B).astype(np.int64)
        nz = (qv > 0) | (pv > 0)
        return pa.table(
            {
                "bucket": pa.array(np.nonzero(nz)[0].astype(np.int64), pa.int64()),
                "qc": pa.array(qv[nz], pa.int64()),
                "pc": pa.array(pv[nz], pa.int64()),
            }
        )

    model_rows = _tiny_group_sum(
        docs.map_batches(_bucket_counts, batch_format="pyarrow"),
        ["bucket"],
        ["qc", "pc"],
    ).take_all()
    sb = np.zeros(B, np.int64)  # buckets absent from the corpus never occur
    for r in model_rows:
        sb[r["bucket"]] = (r["pc"] + 1) * 1_000_000 // (r["qc"] + 1)

    import ray as _ray

    sref = _ray.put(sb)

    _SCORE_EMPTY = pa.table(
        {
            "doc_id": pa.array([], pa.int64()),
            "n_tokens": pa.array([], pa.int64()),
            "importance": pa.array([], pa.int64()),
            "importance_per_token": pa.array([], pa.int64()),
        }
    )

    def _score(batch: pa.Table) -> pa.Table:
        sb = _ray.get(sref)
        flat, counts = tx.flat_tokens(batch["text"])
        if len(flat) == 0:
            return _SCORE_EMPTY
        nz = counts > 0
        doc_of = np.repeat(np.arange(batch.num_rows, dtype=np.int64), counts)
        bucket = (tx.fnv1a32_str(flat) % np.uint64(B)).astype(np.int64)
        # exact int64 segmented sum (bincount weights would go float64)
        starts = sg.segment_starts(doc_of)
        sums = np.add.reduceat(sb[bucket], starts)
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)[nz]
        nt = counts[nz]
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "n_tokens": pa.array(nt, pa.int64()),
                "importance": pa.array(sums, pa.int64()),
                "importance_per_token": pa.array(sums // nt, pa.int64()),
            }
        )

    scored = docs.map_batches(_score, batch_format="pyarrow").materialize()

    def _partial_top(t: pa.Table) -> pa.Table:
        if t.num_rows <= K:
            return t
        ipt = t["importance_per_token"].to_numpy(zero_copy_only=False)
        d = t["doc_id"].to_numpy(zero_copy_only=False)
        order = np.lexsort((d, -ipt))[:K]
        return t.take(np.sort(order))

    top = (
        scored.map_batches(_partial_top, batch_format="pyarrow")
        .repartition(1)
        .map_batches(_partial_top, batch_format="pyarrow", batch_size=None)
        .take_all()
    )
    top_ids = _ray.put(np.sort(np.array([r["doc_id"] for r in top], np.int64)))

    def _flag(t: pa.Table) -> pa.Table:
        ids = _ray.get(top_ids)
        d = t["doc_id"].to_numpy(zero_copy_only=False)
        sel = np.zeros(len(d), np.int64)
        if len(ids):
            pos = np.searchsorted(ids, d)
            pos[pos >= len(ids)] = len(ids) - 1
            sel[ids[pos] == d] = 1
        return t.append_column("selected", pa.array(sel, pa.int64()))

    return scored.map_batches(_flag, batch_format="pyarrow")


_BM25_QTERMS = 5
_BM25_TOP_K = 20


def _bm25_ctes() -> str:
    """The BM25 scoring CTE chain (ends at ``sc`` = per-doc bm25_milli),
    shared by `bm25_top_docs` and the rank-fusion oracle so the scoring
    rule cannot drift between them."""
    Q = _BM25_QTERMS
    return rf"""t2 AS (SELECT doc_id, unnest(regexp_extract_all(text, '\S+')) AS tok
                FROM documents),
    stats AS (SELECT CAST(COUNT(*) AS BIGINT) AS total_len FROM t2),
    nd AS (SELECT CAST(COUNT(*) AS BIGINT) AS n FROM documents),
    dfr AS (SELECT tok, CAST(COUNT(DISTINCT doc_id) AS BIGINT) AS df FROM t2 GROUP BY 1),
    qterms AS (SELECT tok, df FROM dfr ORDER BY df DESC, tok LIMIT {Q}),
    dl AS (SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS dl FROM t2 GROUP BY 1),
    tf AS (SELECT doc_id, tok, CAST(COUNT(*) AS BIGINT) AS tf
           FROM t2 JOIN (SELECT tok FROM qterms) q USING (tok) GROUP BY 1, 2),
    sc AS (SELECT tf.doc_id,
             CAST(SUM( ((nd.n - q.df)*1000 // (q.df+1))
                 * (tf.tf*2200000*1000000
                    // (tf.tf*1000000 + 300000 + 900000*dl.dl*nd.n // stats.total_len))
                 // 1000000 ) AS BIGINT) AS bm25_milli
           FROM tf JOIN qterms q USING (tok) JOIN dl USING (doc_id), nd, stats
           GROUP BY 1)"""


def _bm25_sql() -> str:
    K = _BM25_TOP_K
    return rf"""
    WITH {_bm25_ctes()}
    SELECT doc_id, bm25_milli,
           CAST(row_number() OVER (ORDER BY bm25_milli DESC, doc_id) AS BIGINT) AS rk
    FROM sc QUALIFY rk <= {K}
    """


@register("bm25_top_docs", _bm25_sql())
def q_bm25_top_docs(sf_dir: str):
    """BM25 ranked retrieval (Robertson-Spärck Jones; k1=1.2, b=0.75):
    score every document against a deterministic 5-term query (the
    corpus's 5 highest-df terms, ties by term) and return the top-20.
    The float BM25 formula is folded into exact integer steps both
    engines replay bit-for-bit — with k1=6/5, b=3/4 the tf saturation
    term is the rational ``tf*2.2e6*1e6 // (tf*1e6 + 3e5 +
    9e5*dl*N//total_len)`` (ppm), the idf surrogate is
    ``(N-df)*1000 // (df+1)`` (milli), and the per-term contribution is
    their product floor-divided back to milli-units.  int64-safe while
    idf_milli * 2.2e12 < 2^63, i.e. for query terms with df >~ N/4e6 —
    guaranteed here because the query picks the HIGHEST-df terms.

    Scale shape: document frequencies reduce through ONE keyed exchange
    of per-batch distinct-term partials (same plan as
    `q_tfidf_top_terms`); the query-term selection is a per-partition
    partial top-5 -> tiny driver merge (never the whole vocabulary); N
    and total token count are metadata/scalar aggregates; the scoring
    pass is shuffle-free (5 sorted terms searchsorted per batch); the
    final top-20 is per-block partial top-k -> one-block merge (K7).
    Retrieval analog of the exhaustive-search ranking chain
    (`visual/datastructures/Linear.java` top-k ordering invariants)."""
    from multimedia_indexing_ray.stages.partition import map_partitions_by_key

    docs = _rp(sf_dir, "documents", ["doc_id", "text"])
    Q, K = _BM25_QTERMS, _BM25_TOP_K

    _DF_EMPTY = pa.table(
        {"tok": pa.array([], pa.string()), "df": pa.array([], pa.int64())}
    )
    _LEN_EMPTY = pa.table({"tl": pa.array([], pa.int64())})

    def _df_partial(batch: pa.Table) -> pa.Table:
        _, tok_id, uniq = tx.distinct_doc_token_pairs(batch["text"])
        if len(uniq) == 0:
            return _DF_EMPTY
        dfc = np.bincount(tok_id, minlength=len(uniq)).astype(np.int64)
        return pa.table(
            {"tok": pa.array(uniq, pa.string()), "df": pa.array(dfc, pa.int64())}
        )

    def _df_reduce(t: pa.Table) -> pa.Table:
        return _pa_group_sum(t, ["tok"], ["df"]) if t.num_rows else _DF_EMPTY

    df_ds = map_partitions_by_key(
        docs.map_batches(_df_partial, batch_format="pyarrow"),
        "tok",
        _df_reduce,
        num_partitions=8,
    )

    def _top_terms(t: pa.Table) -> pa.Table:
        if t.num_rows <= Q:
            return t
        toks = np.asarray(t["tok"]).astype(object)
        dfv = t["df"].to_numpy(zero_copy_only=False)
        sel = np.lexsort((toks, -dfv))[:Q]
        return t.take(np.sort(sel))

    qrows = (
        df_ds.map_batches(_top_terms, batch_format="pyarrow")
        .repartition(1)
        .map_batches(_top_terms, batch_format="pyarrow", batch_size=None)
        .take_all()
    )
    qrows.sort(key=lambda r: r["tok"])
    qtoks = np.array([r["tok"] for r in qrows], dtype=object)
    qdf = np.array([r["df"] for r in qrows], dtype=np.int64)

    n_docs = np.int64(docs.count())

    def _tl_partial(batch: pa.Table) -> pa.Table:
        _, counts = tx.flat_tokens(batch["text"])
        return pa.table({"tl": pa.array([int(counts.sum())], pa.int64())})

    total_len = np.int64(
        sum(
            r["tl"]
            for r in docs.map_batches(_tl_partial, batch_format="pyarrow").take_all()
        )
    )

    import ray as _ray

    qref = _ray.put((qtoks, qdf))
    idf_milli = (n_docs - qdf) * np.int64(1000) // (qdf + np.int64(1))

    _SC_EMPTY = pa.table(
        {"doc_id": pa.array([], pa.int64()), "bm25_milli": pa.array([], pa.int64())}
    )

    def _score(batch: pa.Table) -> pa.Table:
        qtoks, qdf = _ray.get(qref)
        idf = (n_docs - qdf) * np.int64(1000) // (qdf + np.int64(1))
        flat, counts = tx.flat_tokens(batch["text"])
        if len(flat) == 0:
            return _SC_EMPTY
        doc_of = np.repeat(np.arange(batch.num_rows, dtype=np.int64), counts)
        pos = np.searchsorted(qtoks, flat)
        pos[pos >= len(qtoks)] = len(qtoks) - 1
        hit = qtoks[pos] == flat
        if not hit.any():
            return _SC_EMPTY
        d, q = doc_of[hit], pos[hit]
        nq = np.int64(len(qtoks))
        pair, tf = np.unique(d * nq + q, return_counts=True)
        tf = tf.astype(np.int64)
        pd_, pq = pair // nq, pair % nq
        dl = counts[pd_].astype(np.int64)
        den = (
            tf * np.int64(1_000_000)
            + np.int64(300_000)
            + np.int64(900_000) * dl * n_docs // total_len
        )
        contrib = (
            idf[pq]
            * (tf * np.int64(2_200_000) * np.int64(1_000_000) // den)
            // np.int64(1_000_000)
        )
        starts = sg.segment_starts(pd_)
        sums = np.add.reduceat(contrib, starts)
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)[pd_[starts]]
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "bm25_milli": pa.array(sums, pa.int64()),
            }
        )

    scored = docs.map_batches(_score, batch_format="pyarrow")

    def _partial_top(t: pa.Table) -> pa.Table:
        if t.num_rows <= K:
            return t
        s = t["bm25_milli"].to_numpy(zero_copy_only=False)
        d = t["doc_id"].to_numpy(zero_copy_only=False)
        sel = np.lexsort((d, -s))[:K]
        return t.take(np.sort(sel))

    def _final(t: pa.Table) -> pa.Table:
        s = t["bm25_milli"].to_numpy(zero_copy_only=False)
        d = t["doc_id"].to_numpy(zero_copy_only=False)
        order = np.lexsort((d, -s))[:K]
        return pa.table(
            {
                "doc_id": pa.array(d[order], pa.int64()),
                "bm25_milli": pa.array(s[order], pa.int64()),
                "rk": pa.array(np.arange(1, len(order) + 1, dtype=np.int64), pa.int64()),
            }
        )

    return (
        scored.map_batches(_partial_top, batch_format="pyarrow")
        .repartition(1)
        .map_batches(_final, batch_format="pyarrow", batch_size=None)
    )


# ---------------------------------------------------------------------------
# Round 5f — correlated-aggregate re-join, interval splitting, diversity
# ---------------------------------------------------------------------------


@register(
    "small_quantity_parts",
    """
    WITH li AS (SELECT l_partkey, CAST(l_quantity AS BIGINT) AS q,
                  CAST(FLOOR(l_extendedprice*100+0.5) AS BIGINT) AS price_cents
                FROM lineitem),
    a AS (SELECT l_partkey, CAST(COUNT(*) AS BIGINT) AS n_li,
            CAST(SUM(q) AS BIGINT) AS sum_qty
          FROM li GROUP BY 1)
    SELECT a.l_partkey AS partkey, a.n_li, a.sum_qty,
      CAST(SUM(CASE WHEN 5*li.q*a.n_li < a.sum_qty THEN 1 ELSE 0 END)
           AS BIGINT) AS n_small,
      CAST(SUM(CASE WHEN 5*li.q*a.n_li < a.sum_qty THEN li.price_cents
               ELSE 0 END) AS BIGINT) AS small_revenue_cents
    FROM a JOIN li ON li.l_partkey = a.l_partkey
    GROUP BY 1, 2, 3
    """,
)
def q_small_quantity_parts(sf_dir: str):
    """Correlated per-group-aggregate re-join (TPC-H Q17's shape,
    `examples/IndexTransformation.java`'s learn-then-apply split applied
    to a relational key): for every part, the average lineitem quantity
    defines a per-part threshold, and the query sums the revenue of the
    lineitems falling below 20% of that average.

    The naive logical plan is aggregate + re-join (two scans + a join
    shuffle).  The Ray-Data-first physical plan fuses both sides into ONE
    keyed exchange: ship slim (partkey, qty, price_cents) rows
    hash-partitioned on partkey, and compute the per-part aggregate AND
    the correlated filter inside the same partition group — every row of
    a part is co-located by construction, so the "join" is a segmented
    broadcast within the group (np.repeat of per-segment totals).  The
    threshold compare is exact integer math (5*q*n_li < sum_qty —
    quantities are integral doubles <= 50, counts bound the product far
    below 2^63), so no float average ever exists on either engine."""
    from multimedia_indexing_ray.stages.partition import map_partitions_by_key

    li = _rp(sf_dir, "lineitem", ["l_partkey", "l_quantity", "l_extendedprice"])

    def _slim(batch: pa.Table) -> pa.Table:
        q = batch["l_quantity"].to_numpy(zero_copy_only=False).astype(np.int64)
        price = _cents(
            batch["l_extendedprice"].to_numpy(zero_copy_only=False)
        ).astype(np.int64)
        return pa.table(
            {
                "partkey": batch["l_partkey"],
                "q": pa.array(q, pa.int64()),
                "price_cents": pa.array(price, pa.int64()),
            }
        )

    _empty = pa.table(
        {
            "partkey": pa.array([], pa.int64()),
            "n_li": pa.array([], pa.int64()),
            "sum_qty": pa.array([], pa.int64()),
            "n_small": pa.array([], pa.int64()),
            "small_revenue_cents": pa.array([], pa.int64()),
        }
    )

    def _finish(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _empty
        k = t["partkey"].to_numpy(zero_copy_only=False)
        q = t["q"].to_numpy(zero_copy_only=False)
        price = t["price_cents"].to_numpy(zero_copy_only=False)
        order = np.argsort(k, kind="stable")
        k, q, price = k[order], q[order], price[order]
        starts = sg.segment_starts(k)
        counts = sg.segment_counts(starts, len(k))
        n_li = counts.astype(np.int64)
        sum_qty = np.add.reduceat(q, starts)
        # segmented broadcast of the per-part aggregate back onto rows
        small = 5 * q * np.repeat(n_li, counts) < np.repeat(sum_qty, counts)
        n_small = np.add.reduceat(small.astype(np.int64), starts)
        # reduceat on an all-False tail still yields 0 per segment; guard
        # the empty-segment quirk is unnecessary because every segment has
        # >= 1 row by construction
        rev = np.add.reduceat(np.where(small, price, 0), starts)
        return pa.table(
            {
                "partkey": pa.array(k[starts], pa.int64()),
                "n_li": pa.array(n_li, pa.int64()),
                "sum_qty": pa.array(sum_qty, pa.int64()),
                "n_small": pa.array(n_small, pa.int64()),
                "small_revenue_cents": pa.array(rev, pa.int64()),
            }
        )

    slim = li.map_batches(_slim, batch_format="pyarrow")
    return map_partitions_by_key(slim, "partkey", _finish, num_partitions=16)


@register(
    "session_day_split",
    """
    WITH s AS (
      SELECT user_id, ts,
        CAST(SUM(CASE WHEN gap_us > 1800000000 THEN 1 ELSE 0 END)
             OVER (PARTITION BY user_id ORDER BY ts, event_id) AS BIGINT)
          AS session_id
      FROM (SELECT *, COALESCE(date_diff('microsecond',
              lag(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id), ts), 0)
              AS gap_us
            FROM events)),
    sp AS (SELECT user_id, session_id, MIN(ts) AS t0, MAX(ts) AS t1
           FROM s GROUP BY 1, 2),
    e AS (SELECT user_id, session_id, t0, t1,
            UNNEST(generate_series(date_trunc('day', t0),
                                   date_trunc('day', t1),
                                   INTERVAL 1 DAY)) AS day
          FROM sp)
    SELECT user_id, session_id, CAST(epoch_us(day) AS BIGINT) AS day_us,
      CAST(date_diff('microsecond',
                     greatest(t0, day),
                     least(t1, day + INTERVAL 1 DAY)) AS BIGINT) AS overlap_us
    FROM e
    """,
)
def q_session_day_split(sf_dir: str):
    """Interval SPLITTING — the calendar-expansion operator every
    time-based feature pipeline needs (attribute a session's duration to
    the calendar days it touches): each 30-minute-gap session [t0, t1]
    emits one row per day in [day(t0) .. day(t1)] with the microseconds
    of overlap.  A session ending exactly ON midnight emits a 0-us row
    for that day (the closed-interval endpoint touches it) — the rule the
    generate_series oracle implies, kept identical here.

    Physical plan: ONE keyed exchange of slim (user_id, ts, event_id)
    rows; inside each partition group, sessions are segment min/max
    (sort + reduceat), and the day expansion is np.repeat over per-session
    day counts — the fan-out is bounded by session DURATION in days (a
    gap-bounded chain), never by event count, so the expansion cannot
    amplify a hot user's row count."""
    from multimedia_indexing_ray.stages.partition import map_partitions_by_key

    DAY = 86_400_000_000
    ev = _rp(sf_dir, "events", ["event_id", "user_id", "ts"])

    _empty = pa.table(
        {
            "user_id": pa.array([], pa.int64()),
            "session_id": pa.array([], pa.int64()),
            "day_us": pa.array([], pa.int64()),
            "overlap_us": pa.array([], pa.int64()),
        }
    )

    def _finish(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _empty
        u = t["user_id"].to_numpy(zero_copy_only=False)
        ts = t["ts"].to_numpy(zero_copy_only=False).astype("datetime64[us]").astype(np.int64)
        eid = t["event_id"].to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, ts, u))
        u, ts = u[order], ts[order]
        ustarts = sg.segment_starts(u)
        gaps = sg.seg_gap_us(ts, ustarts)
        # integer-µs gap compare, the keyed_sessionize convention (exact
        # for any threshold, unlike a /1e6 seconds round-trip)
        bound = sg.session_boundaries(
            gaps.astype(np.float64), ustarts, float(1_800_000_000)
        )
        sstarts = np.flatnonzero(bound)
        t0 = ts[sstarts]
        t1 = np.maximum.reduceat(ts, sstarts)  # ts sorted per user; max = last
        # per-user session ordinal (0-based, matching the oracle's SUM-of-
        # boundary-flags numbering)
        sess_user = u[sstarts]
        su_starts = sg.segment_starts(sess_user)
        sess_id = sg.rel_index(su_starts, len(sess_user)).astype(np.int64)
        d0 = t0 // DAY
        d1 = t1 // DAY
        ndays = (d1 - d0 + 1).astype(np.int64)
        rep = np.repeat(np.arange(len(sstarts)), ndays)
        day_idx = (
            np.arange(len(rep), dtype=np.int64)
            - np.repeat(np.concatenate([[0], np.cumsum(ndays)[:-1]]), ndays)
            + d0[rep]
        )
        day_us = day_idx * DAY
        lo = np.maximum(t0[rep], day_us)
        hi = np.minimum(t1[rep], day_us + DAY)
        return pa.table(
            {
                "user_id": pa.array(sess_user[rep], pa.int64()),
                "session_id": pa.array(sess_id[rep], pa.int64()),
                "day_us": pa.array(day_us, pa.int64()),
                "overlap_us": pa.array(hi - lo, pa.int64()),
            }
        )

    return map_partitions_by_key(ev, "user_id", _finish, num_partitions=16)


@register(
    "type_diversity_per_user",
    """
    WITH c AS (SELECT user_id, event_type, CAST(COUNT(*) AS BIGINT) AS c
               FROM events GROUP BY 1, 2)
    SELECT user_id, CAST(SUM(c) AS BIGINT) AS n,
      CAST(COUNT(*) AS BIGINT) AS k,
      CAST(SUM(c*(c-1)) AS BIGINT) AS coll_num,
      CASE WHEN SUM(c) >= 2 THEN
        CAST(SUM(c*(c-1)) AS DOUBLE) / CAST(SUM(c)*(SUM(c)-1) AS DOUBLE)
      END AS simpson
    FROM c GROUP BY 1
    """,
)
def q_type_diversity_per_user(sf_dir: str):
    """Behavioral diversity feature — the Simpson concentration index
    (the Renyi-2 entropy surrogate: probability two random events of the
    user share a type).  Shannon entropy needs logs whose summation order
    is engine-dependent; the collision index is EXACTLY rational —
    integer numerator sum(c*(c-1)) and denominator n*(n-1), one final
    double division shared with the oracle — so it carries the same
    signal (diversity/concentration of a user's event-type mix) with
    bit-exact cross-engine parity.

    Physical plan: per-batch (user, type) count partials (the combiner
    bounds exchange volume by distinct pairs, not rows), one keyed
    exchange on user_id, segmented reduceat finish."""
    from multimedia_indexing_ray.stages.partition import map_partitions_by_key

    ev = _rp(sf_dir, "events", ["user_id", "event_type"])

    def _partials(batch: pa.Table) -> pa.Table:
        t = batch.append_column(
            "c", pa.array(np.ones(batch.num_rows, np.int64), pa.int64())
        )
        return _pa_group_sum(t, ["user_id", "event_type"], ["c"])

    _empty = pa.table(
        {
            "user_id": pa.array([], pa.int64()),
            "n": pa.array([], pa.int64()),
            "k": pa.array([], pa.int64()),
            "coll_num": pa.array([], pa.int64()),
            "simpson": pa.array([], pa.float64()),
        }
    )

    def _finish(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _empty
        g = _pa_group_sum(t, ["user_id", "event_type"], ["c"])
        u = g["user_id"].to_numpy(zero_copy_only=False)
        c = g["c"].to_numpy(zero_copy_only=False)
        order = np.argsort(u, kind="stable")
        u, c = u[order], c[order]
        starts = sg.segment_starts(u)
        n = np.add.reduceat(c, starts)
        k = sg.segment_counts(starts, len(u)).astype(np.int64)
        coll = np.add.reduceat(c * (c - 1), starts)
        den = (n * (n - 1)).astype(np.float64)
        with np.errstate(invalid="ignore", divide="ignore"):
            simpson = coll.astype(np.float64) / den
        return pa.table(
            {
                "user_id": pa.array(u[starts], pa.int64()),
                "n": pa.array(n, pa.int64()),
                "k": pa.array(k, pa.int64()),
                "coll_num": pa.array(coll, pa.int64()),
                "simpson": pa.array(simpson, pa.float64(), mask=(n < 2)),
            }
        )

    partials = ev.map_batches(_partials, batch_format="pyarrow")
    return map_partitions_by_key(partials, "user_id", _finish, num_partitions=16)


@register(
    "daily_purchase_error_join",
    """
    WITH p AS (SELECT user_id,
         CAST(epoch_us(date_trunc('day', ts)) AS BIGINT) AS day_us,
         CAST(SUM(CAST(FLOOR(value*100+0.5) AS BIGINT)) AS BIGINT)
           AS purchase_cents,
         CAST(COUNT(*) AS BIGINT) AS n_purchases
       FROM events WHERE event_type = 'purchase' GROUP BY 1, 2),
    e AS (SELECT user_id,
         CAST(epoch_us(date_trunc('day', ts)) AS BIGINT) AS day_us,
         CAST(COUNT(*) AS BIGINT) AS n_errors
       FROM events WHERE event_type = 'error' GROUP BY 1, 2)
    SELECT COALESCE(p.user_id, e.user_id) AS user_id,
      COALESCE(p.day_us, e.day_us) AS day_us,
      p.purchase_cents, p.n_purchases, e.n_errors
    FROM p FULL OUTER JOIN e
      ON p.user_id = e.user_id AND p.day_us = e.day_us
    """,
)
def q_daily_purchase_error_join(sf_dir: str):
    """FULL OUTER join — the join-type matrix completer (inner =
    `knn_with_metadata`, left = the broadcast decorations, semi =
    `bloom_semijoin_errors`, anti = `users_without_high_value`): align a
    user's daily purchase spend with their daily error count, KEEPING the
    days that exist on only one side (purchases with no errors, errors
    with no purchases) as null-padded rows — the outer-alignment shape a
    feature table build needs when joining independently-aggregated
    signals.

    Physical plan (default, `GRAFT_FULLJOIN_FUSED=1`): because both sides
    key on the SAME entity, the two aggregations and the outer alignment
    fuse into ONE keyed exchange — a single events pass emits kind-tagged
    (user, day, kind, n, cents) combiner partials, and the per-partition
    finish pivots each (user, day) group's kinds into null-padded side
    columns.  `GRAFT_FULLJOIN_FUSED=0` flips to the general plan — each
    side finishes separately and `hash_join(join_type="full outer")`
    null-pads per bucket (Arrow coalesces keys exactly like the SQL
    COALESCE pair); the scale rehearsal proves both plans bit-identical.
    The fused plan is strictly better at every scale HERE only because
    the sides share a partitioner key; the hash_join path is the operator
    a cross-entity outer join needs."""
    from multimedia_indexing_ray.stages.partition import map_partitions_by_key

    DAY = 86_400_000_000
    fused = os.environ.get("GRAFT_FULLJOIN_FUSED", "1") != "0"
    ev = _rp(sf_dir, "events", ["user_id", "ts", "event_type", "value"])

    if fused:
        _P_EMPTY = pa.table(
            {
                "user_id": pa.array([], pa.int64()),
                "day_us": pa.array([], pa.int64()),
                "kind": pa.array([], pa.int64()),
                "n": pa.array([], pa.int64()),
                "cents": pa.array([], pa.int64()),
            }
        )

        def _tagged_partials(batch: pa.Table) -> pa.Table:
            et = batch["event_type"]
            m = pc.or_(pc.equal(et, "purchase"), pc.equal(et, "error"))
            b = batch.filter(m)
            if b.num_rows == 0:
                return _P_EMPTY
            ts = b["ts"].to_numpy(zero_copy_only=False).astype("datetime64[us]").astype(np.int64)
            kind = pc.equal(b["event_type"], "error").to_numpy(zero_copy_only=False).astype(np.int64)
            cents = _cents(b["value"].to_numpy(zero_copy_only=False)).astype(np.int64)
            t = pa.table(
                {
                    "user_id": b["user_id"],
                    "day_us": pa.array(ts // DAY * DAY, pa.int64()),
                    "kind": pa.array(kind, pa.int64()),
                    "n": pa.array(np.ones(b.num_rows, np.int64), pa.int64()),
                    # errors carry no spend; zeroing keeps one partial schema
                    "cents": pa.array(np.where(kind == 1, 0, cents), pa.int64()),
                }
            )
            return _pa_group_sum(t, ["user_id", "day_us", "kind"], ["n", "cents"])

        _J_EMPTY = pa.table(
            {
                "user_id": pa.array([], pa.int64()),
                "day_us": pa.array([], pa.int64()),
                "purchase_cents": pa.array([], pa.int64()),
                "n_purchases": pa.array([], pa.int64()),
                "n_errors": pa.array([], pa.int64()),
            }
        )

        def _align(t: pa.Table) -> pa.Table:
            if t.num_rows == 0:
                return _J_EMPTY
            g = _pa_group_sum(t, ["user_id", "day_us", "kind"], ["n", "cents"])
            u = g["user_id"].to_numpy(zero_copy_only=False)
            d = g["day_us"].to_numpy(zero_copy_only=False)
            k = g["kind"].to_numpy(zero_copy_only=False)
            n = g["n"].to_numpy(zero_copy_only=False)
            c = g["cents"].to_numpy(zero_copy_only=False)
            order = np.lexsort((k, d, u))
            u, d, k, n, c = u[order], d[order], k[order], n[order], c[order]
            new = np.empty(len(u), bool)
            new[0] = True
            new[1:] = (u[1:] != u[:-1]) | (d[1:] != d[:-1])
            seg = np.cumsum(new) - 1
            m = int(seg[-1]) + 1
            starts = np.flatnonzero(new)
            pc_out = np.zeros(m, np.int64)
            np_out = np.zeros(m, np.int64)
            ne_out = np.zeros(m, np.int64)
            has_p = np.zeros(m, bool)
            has_e = np.zeros(m, bool)
            pm = k == 0
            pc_out[seg[pm]] = c[pm]
            np_out[seg[pm]] = n[pm]
            has_p[seg[pm]] = True
            em = k == 1
            ne_out[seg[em]] = n[em]
            has_e[seg[em]] = True
            return pa.table(
                {
                    "user_id": pa.array(u[starts], pa.int64()),
                    "day_us": pa.array(d[starts], pa.int64()),
                    "purchase_cents": pa.array(pc_out, pa.int64(), mask=~has_p),
                    "n_purchases": pa.array(np_out, pa.int64(), mask=~has_p),
                    "n_errors": pa.array(ne_out, pa.int64(), mask=~has_e),
                }
            )

        return map_partitions_by_key(
            ev.map_batches(_tagged_partials, batch_format="pyarrow"),
            "user_id",
            _align,
            num_partitions=16,
        )

    def _partials(etype: str, with_cents: bool):
        def _fn(batch: pa.Table) -> pa.Table:
            m = pc.equal(batch["event_type"], etype)
            b = batch.filter(m)
            ts = b["ts"].to_numpy(zero_copy_only=False).astype("datetime64[us]").astype(np.int64)
            cols = {
                "user_id": b["user_id"],
                "day_us": pa.array(ts // DAY * DAY, pa.int64()),
                "n": pa.array(np.ones(b.num_rows, np.int64), pa.int64()),
            }
            if with_cents:
                cols["cents"] = pa.array(
                    _cents(b["value"].to_numpy(zero_copy_only=False)).astype(np.int64),
                    pa.int64(),
                )
            t = pa.table(cols)
            return _pa_group_sum(
                t, ["user_id", "day_us"], ["n", "cents"] if with_cents else ["n"]
            )

        return _fn

    def _finish(sum_cols: "list[str]", out_names: "list[str]"):
        def _fn(t: pa.Table) -> pa.Table:
            g = _pa_group_sum(t, ["user_id", "day_us"], sum_cols)
            cols = {"user_id": g["user_id"], "day_us": g["day_us"]}
            for src, dst in zip(sum_cols, out_names):
                cols[dst] = g[src]
            return pa.table(cols)

        return _fn

    purch = map_partitions_by_key(
        ev.map_batches(_partials("purchase", True), batch_format="pyarrow"),
        "user_id",
        _finish(["cents", "n"], ["purchase_cents", "n_purchases"]),
        num_partitions=8,
    )
    err = map_partitions_by_key(
        ev.map_batches(_partials("error", False), batch_format="pyarrow"),
        "user_id",
        _finish(["n"], ["n_errors"]),
        num_partitions=8,
    )
    return hash_join(
        purch, err, left_on=["user_id", "day_us"],
        join_type="full outer", num_partitions=16,
    )


@register(
    "quantile_sketch_conformance",
    """
    SELECT t.event_type, q.q_milli, CAST(1 AS BIGINT) AS within_eps
    FROM (SELECT DISTINCT event_type FROM events) t,
         (VALUES (100), (250), (500), (750), (900)) q(q_milli)
    """,
)
def q_quantile_sketch_conformance(sf_dir: str):
    """Mergeable quantile SUMMARY (MRL one-level compress,
    `functions/qsketch.py`) — the sketch-family member for order
    statistics (HLL = distinct, Count-Min = counts, Misra-Gries = heavy
    hitters): per-batch per-type compress to <= 512 (value, weight)
    pairs, ONE tiny keyed merge, and quantile answers whose rank error is
    bounded by the summed per-block compression gaps.  Exact per-group
    quantiles (`value_quantiles_by_type`) need every value of a group
    co-located; the summary ships <= 512 rows per (type, block) and never
    moves raw values — the 100-TB path.

    The sketch's ESTIMATE is partition-dependent (block boundaries move
    with parallelism), so the hashable output is the conformance verdict:
    a second EXACT pass counts values <=/< each estimate, and within_eps
    asserts the estimate's true rank lies within the deterministic error
    envelope E = sum_blocks ceil(n_block / k) of the target rank — the
    envelope, not the estimate, is the partition invariant (same shape as
    the ANN recall-vs-exact conformance trio).  A wrong merge or a
    violated bound hashes red."""
    from multimedia_indexing_ray.functions import qsketch as qs
    from multimedia_indexing_ray.stages.partition import map_partitions_by_key

    K = 512
    Q_MILLI = np.array([100, 250, 500, 750, 900], np.int64)
    ev = _rp(sf_dir, "events", ["event_type", "value"])

    _S_EMPTY = pa.table(
        {
            "event_type": pa.array([], pa.string()),
            "v": pa.array([], pa.int64()),
            "w": pa.array([], pa.int64()),
            "g": pa.array([], pa.int64()),
        }
    )

    def _summarize(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return _S_EMPTY
        et = batch["event_type"].to_numpy(zero_copy_only=False)
        c = _cents(batch["value"].to_numpy(zero_copy_only=False)).astype(np.int64)
        order = np.argsort(et, kind="stable")
        et, c = et[order], c[order]
        starts = sg.segment_starts(et)
        counts = sg.segment_counts(starts, len(et))
        types_out, vs, ws, gs = [], [], [], []
        for s0, cnt in zip(starts, counts):
            seg = c[s0 : s0 + cnt]
            v, w = qs.compress_block(seg, K)
            g = np.zeros(len(v), np.int64)
            g[0] = -(-len(seg) // K)  # ceil(n_block / K), on the first row
            types_out.append(np.full(len(v), et[s0], object))
            vs.append(v)
            ws.append(w)
            gs.append(g)
        return pa.table(
            {
                "event_type": pa.array(np.concatenate(types_out), pa.string()),
                "v": pa.array(np.concatenate(vs), pa.int64()),
                "w": pa.array(np.concatenate(ws), pa.int64()),
                "g": pa.array(np.concatenate(gs), pa.int64()),
            }
        )

    _E_EMPTY = pa.table(
        {
            "event_type": pa.array([], pa.string()),
            "q_milli": pa.array([], pa.int64()),
            "est": pa.array([], pa.int64()),
            "err_budget": pa.array([], pa.int64()),
        }
    )

    def _merge(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _E_EMPTY
        et = t["event_type"].to_numpy(zero_copy_only=False)
        v = t["v"].to_numpy(zero_copy_only=False)
        w = t["w"].to_numpy(zero_copy_only=False)
        g = t["g"].to_numpy(zero_copy_only=False)
        order = np.argsort(et, kind="stable")
        et, v, w, g = et[order], v[order], w[order], g[order]
        starts = sg.segment_starts(et)
        counts = sg.segment_counts(starts, len(et))
        rows_t, rows_q, rows_e, rows_b = [], [], [], []
        for s0, cnt in zip(starts, counts):
            est = qs.merge_estimate(v[s0 : s0 + cnt], w[s0 : s0 + cnt], Q_MILLI)
            budget = int(g[s0 : s0 + cnt].sum())
            rows_t.append(np.full(len(Q_MILLI), et[s0], object))
            rows_q.append(Q_MILLI)
            rows_e.append(est)
            rows_b.append(np.full(len(Q_MILLI), budget, np.int64))
        return pa.table(
            {
                "event_type": pa.array(np.concatenate(rows_t), pa.string()),
                "q_milli": pa.array(np.concatenate(rows_q), pa.int64()),
                "est": pa.array(np.concatenate(rows_e), pa.int64()),
                "err_budget": pa.array(np.concatenate(rows_b), pa.int64()),
            }
        )

    summaries = ev.map_batches(_summarize, batch_format="pyarrow")
    est_parts = list(
        map_partitions_by_key(
            summaries, "event_type", _merge, num_partitions=8
        ).iter_batches(batch_format="pyarrow", batch_size=None)
    )
    est_tbl = pa.concat_tables(est_parts) if est_parts else _E_EMPTY

    # pass 2: EXACT ranks of every estimate — broadcast the tiny estimate
    # table (|types| x 5 rows; event_type is a business-constant-cardinality
    # key, so this never grows with corpus size), partial counts per batch,
    # one tiny reduce
    import ray as _ray

    est_ref = _ray.put(est_tbl)

    def _rank_partials(batch: pa.Table) -> pa.Table:
        est = _ray.get(est_ref)
        et_b = batch["event_type"].to_numpy(zero_copy_only=False)
        c = _cents(batch["value"].to_numpy(zero_copy_only=False)).astype(np.int64)
        e_et = est["event_type"].to_numpy(zero_copy_only=False)
        e_v = est["est"].to_numpy(zero_copy_only=False)
        n_est = len(e_et)
        le = np.zeros(n_est, np.int64)
        lt = np.zeros(n_est, np.int64)
        tot = np.zeros(n_est, np.int64)
        order = np.argsort(et_b, kind="stable")
        et_s, c_s = et_b[order], c[order]
        starts = sg.segment_starts(et_s)
        counts = sg.segment_counts(starts, len(et_s))
        for s0, cnt in zip(starts, counts):
            seg = np.sort(c_s[s0 : s0 + cnt])
            m = e_et == et_s[s0]
            le[m] = np.searchsorted(seg, e_v[m], side="right")
            lt[m] = np.searchsorted(seg, e_v[m], side="left")
            tot[m] = cnt
        return pa.table(
            {
                "event_type": pa.array(e_et, pa.string()),
                "q_milli": est["q_milli"],
                "cnt_le": pa.array(le, pa.int64()),
                "cnt_lt": pa.array(lt, pa.int64()),
                "n": pa.array(tot, pa.int64()),
            }
        )

    ranks = ev.map_batches(_rank_partials, batch_format="pyarrow")

    def _verdict(t: pa.Table) -> pa.Table:
        g = _pa_group_sum(t, ["event_type", "q_milli"], ["cnt_le", "cnt_lt", "n"])
        et = g["event_type"].to_numpy(zero_copy_only=False)
        qm = g["q_milli"].to_numpy(zero_copy_only=False)
        le = g["cnt_le"].to_numpy(zero_copy_only=False)
        lt = g["cnt_lt"].to_numpy(zero_copy_only=False)
        n = g["n"].to_numpy(zero_copy_only=False)
        est = _ray.get(est_ref)
        # align err budgets to (type, q) rows
        key_e = np.char.add(
            est["event_type"].to_numpy(zero_copy_only=False).astype(str),
            np.char.mod("|%d", est["q_milli"].to_numpy(zero_copy_only=False)),
        )
        key_g = np.char.add(et.astype(str), np.char.mod("|%d", qm))
        eorder = np.argsort(key_e)
        pos = np.searchsorted(key_e[eorder], key_g)
        budget = est["err_budget"].to_numpy(zero_copy_only=False)[eorder][pos]
        t_rank = np.maximum(-(-(qm * n) // 1000), 1)
        ok = (le >= t_rank - budget) & (lt <= t_rank - 1 + budget)
        order = np.lexsort((qm, et))
        return pa.table(
            {
                "event_type": pa.array(et[order], pa.string()),
                "q_milli": pa.array(qm[order], pa.int64()),
                "within_eps": pa.array(ok[order].astype(np.int64), pa.int64()),
            }
        )

    return map_partitions_by_key(ranks, "event_type", _verdict, num_partitions=1)


@register(
    "rolling_mode_1h",
    """
    WITH wcnt AS (
      SELECT a.event_id, a.user_id, b.event_type, CAST(COUNT(*) AS BIGINT) AS c
      FROM events a JOIN events b
        ON b.user_id = a.user_id
       AND b.ts <= a.ts AND b.ts >= a.ts - INTERVAL 1 HOUR
      GROUP BY 1, 2, 3),
    r AS (SELECT *, row_number() OVER (PARTITION BY event_id
            ORDER BY c DESC, event_type) AS rk FROM wcnt)
    SELECT event_id, user_id, event_type AS mode_event_type
    FROM r WHERE rk = 1
    """,
)
def q_rolling_mode(sf_dir: str):
    """Trailing-window MODE of a categorical column (the user's dominant
    event type over the last hour) — the CATEGORICAL holistic window
    statistic, completing the class inventory next to the numeric
    holistics (median/p90/IQR): modes decompose under neither prefix sums
    nor sparse tables nor sorts alone, so the kernel counts equal-code
    RUNS inside the shared mass-capped CSR expansion
    (`segments.range_mode`) and picks each window's first run under a
    (-count, code) order — tie rule "alphabetically first among the most
    frequent", mirrored by the oracle's ``ORDER BY c DESC, event_type``
    rank.  ONE shuffle on user_id; the oracle's O(n x window) self-join
    stays SQL-only."""
    ev = _rp(sf_dir, "events", ["event_id", "user_id", "ts", "event_type"])
    return kd.keyed_sliding_mode(
        ev,
        "user_id",
        "ts",
        "event_type",
        width_s=3600.0,
        closed="both",
        tiebreak="event_id",
        id_cols=["event_id"],
    )


@register(
    "chi2_term_lang",
    rf"""
    WITH lang AS (SELECT doc_id, lang_pred AS lang FROM ({_LANGID_SQL})),
    tot AS (SELECT lang, CAST(COUNT(*) AS BIGINT) AS nl FROM lang GROUP BY 1),
    nn AS (SELECT CAST(COUNT(*) AS BIGINT) AS n FROM lang),
    dt AS (SELECT DISTINCT doc_id, unnest(regexp_extract_all(text, '\S+')) AS term
           FROM documents),
    tl AS (SELECT dt.term, lang.lang, CAST(COUNT(*) AS BIGINT) AS a
           FROM dt JOIN lang USING (doc_id) GROUP BY 1, 2),
    dfq AS (SELECT term, CAST(SUM(a) AS BIGINT) AS df FROM tl GROUP BY 1),
    fullq AS (SELECT c.term, c.lang, COALESCE(tl.a, 0) AS a, c.df, c.nl, nn.n
              FROM (SELECT dfq.term, dfq.df, tot.lang, tot.nl
                    FROM dfq CROSS JOIN tot) c
              LEFT JOIN tl ON c.term = tl.term AND c.lang = tl.lang
              CROSS JOIN nn
              WHERE c.df >= 5),
    sc AS (SELECT term, lang, a, df,
             CASE WHEN (CAST(df AS DOUBLE) * (CAST(n AS DOUBLE) - CAST(df AS DOUBLE)))
                       * (CAST(nl AS DOUBLE) * (CAST(n AS DOUBLE) - CAST(nl AS DOUBLE))) > 0
             THEN (CAST(n AS DOUBLE) *
                    ((CAST(a AS DOUBLE) * CAST(n - df - nl + a AS DOUBLE)
                      - CAST(df - a AS DOUBLE) * CAST(nl - a AS DOUBLE))
                     * (CAST(a AS DOUBLE) * CAST(n - df - nl + a AS DOUBLE)
                        - CAST(df - a AS DOUBLE) * CAST(nl - a AS DOUBLE))))
                  / ((CAST(df AS DOUBLE) * (CAST(n AS DOUBLE) - CAST(df AS DOUBLE)))
                     * (CAST(nl AS DOUBLE) * (CAST(n AS DOUBLE) - CAST(nl AS DOUBLE))))
             ELSE 0.0 END AS chi2
           FROM fullq),
    r AS (SELECT *, row_number() OVER (PARTITION BY lang
            ORDER BY chi2 DESC, term) AS rk FROM sc)
    SELECT lang, term, a, df, chi2 FROM r WHERE rk <= 20
    """,
)
def q_chi2_term_lang(sf_dir: str):
    """Chi-square TERM <-> LABEL feature selection (Yang & Pedersen 1997
    — the statistical-association / hypothesis-test family): top-20 terms
    per predicted language by the 2x2-contingency chi-square over DOC
    PRESENCE, including the A=0 cells (a common term *absent* from one
    label is exactly as diagnostic as a rare term present in it).

    Plan: one pass over text computes per-doc langid + DISTINCT terms and
    emits slim (term, lang, count) partials plus per-batch label-count
    sentinel rows (term='' — never a \\S+ token) through the SAME
    term-keyed exchange; each term lands whole in one partition, so df
    and the full 5-label expansion are partition-local.  The only
    driver-side pull is the label-total sentinel (<= |labels| rows);
    every partition then computes chi-square vectorized and keeps its
    local top-20 per label, and the final merge re-ranks <= 20 x labels
    x partitions rows in one tiny block.  Vocabulary is never broadcast
    and never leaves the workers (contrast `tfidf_top_terms`' gated
    vocab broadcast — here the statistic is label-conditioned, so the
    exchange already co-locates everything the kernel needs).

    Determinism: counts are exact int64; chi-square is evaluated in
    double with the IDENTICAL operation tree on both engines
    (t = a*d - b*c; chi2 = (n * (t*t)) / ((df*(n-df)) * (nl*(n-nl)))),
    so results are bit-equal; ties rank by term ascending."""
    from multimedia_indexing_ray.stages.partition import map_partitions_by_key

    docs = _rp(sf_dir, "documents", ["doc_id", "text"])

    _empty_part = pa.table(
        {
            "term": pa.array([], pa.string()),
            "lang": pa.array([], pa.string()),
            "a": pa.array([], pa.int64()),
        }
    )

    def _partial(batch: pa.Table) -> pa.Table:
        labels = langid(batch["text"])
        luniq, lid = np.unique(labels, return_inverse=True)
        lcnt = np.bincount(lid, minlength=len(luniq)).astype(np.int64)
        sent = pa.table(
            {
                "term": pa.array(np.full(len(luniq), "", object), pa.string()),
                "lang": pa.array(luniq, pa.string()),
                "a": pa.array(lcnt, pa.int64()),
            }
        )
        d, t, tuniq = tx.distinct_doc_token_pairs(batch["text"])
        if len(tuniq) == 0:
            return sent
        # distinct (doc, term) pairs -> (term, label) doc counts
        key = t * np.int64(len(luniq)) + lid[d]
        kuniq, kcnt = np.unique(key, return_counts=True)
        body = pa.table(
            {
                "term": pa.array(tuniq[kuniq // len(luniq)], pa.string()),
                "lang": pa.array(luniq[kuniq % len(luniq)], pa.string()),
                "a": pa.array(kcnt.astype(np.int64), pa.int64()),
            }
        )
        return pa.concat_tables([body, sent])

    def _reduce(t: pa.Table) -> pa.Table:
        return _pa_group_sum(t, ["term", "lang"], ["a"]) if t.num_rows else _empty_part

    partials = docs.map_batches(_partial, batch_format="pyarrow")
    reduced = map_partitions_by_key(
        partials, "term", _reduce, num_partitions=16
    ).materialize()

    # label totals: the '' sentinel term is aggregate-sized (<= |labels|)
    sent_rows = reduced.filter(expr="term == ''").take_all()
    langs = np.array(sorted(r["lang"] for r in sent_rows), dtype=object)
    nl_of = {r["lang"]: r["a"] for r in sent_rows}
    nl = np.array([nl_of[l] for l in langs], dtype=np.int64)
    n_total = int(nl.sum())

    _empty_out = pa.table(
        {
            "lang": pa.array([], pa.string()),
            "term": pa.array([], pa.string()),
            "a": pa.array([], pa.int64()),
            "df": pa.array([], pa.int64()),
            "chi2": pa.array([], pa.float64()),
        }
    )

    def _chi2_topk(t: pa.Table) -> pa.Table:
        t = t.filter(pc.invert(pc.equal(t["term"], "")))
        if t.num_rows == 0:
            return _empty_out
        terms = np.asarray(t["term"]).astype(object)
        tl = np.asarray(t["lang"]).astype(object)
        a_obs = t["a"].to_numpy()
        tuniq, tinv = np.unique(terms.astype(str), return_inverse=True)
        k = len(langs)
        # dense (term x label) A matrix incl. the zero cells
        lidx = np.searchsorted(langs.astype(str), tl.astype(str))
        A = np.zeros((len(tuniq), k), np.int64)
        A[tinv, lidx] = a_obs
        df = A.sum(axis=1)
        keep = df >= 5
        if not keep.any():
            return _empty_out
        A, df, tu = A[keep], df[keep], tuniq[keep]
        aD = A.astype(np.float64)
        dfD = df.astype(np.float64)[:, None]
        nlD = nl.astype(np.float64)[None, :]
        nD = np.float64(n_total)
        tmat = aD * (nD - dfD - nlD + aD) - (dfD - aD) * (nlD - aD)
        den = (dfD * (nD - dfD)) * (nlD * (nD - nlD))
        chi2 = np.where(den > 0, (nD * (tmat * tmat)) / np.where(den > 0, den, 1.0), 0.0)
        # local top-20 per label: (chi2 desc, term asc)
        rows_l, rows_t, rows_a, rows_df, rows_c = [], [], [], [], []
        for j in range(k):
            order = np.lexsort((tu, -chi2[:, j]))[:20]
            rows_l.append(np.full(len(order), langs[j], object))
            rows_t.append(tu[order].astype(object))
            rows_a.append(A[order, j])
            rows_df.append(df[order])
            rows_c.append(chi2[order, j])
        return pa.table(
            {
                "lang": pa.array(np.concatenate(rows_l), pa.string()),
                "term": pa.array(np.concatenate(rows_t), pa.string()),
                "a": pa.array(np.concatenate(rows_a), pa.int64()),
                "df": pa.array(np.concatenate(rows_df), pa.int64()),
                "chi2": pa.array(np.concatenate(rows_c), pa.float64()),
            }
        )

    def _final(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _empty_out
        tl = np.asarray(t["lang"]).astype(object)
        terms = np.asarray(t["term"]).astype(object)
        chi2 = t["chi2"].to_numpy()
        order = np.lexsort((terms.astype(str), -chi2, tl.astype(str)))
        ts = tl[order].astype(str)
        starts = sg.segment_starts(ts)
        keep = sg.rel_index(starts, len(ts)) < 20
        idx = order[keep]
        return pa.table(
            {
                "lang": t["lang"].take(pa.array(idx)),
                "term": t["term"].take(pa.array(idx)),
                "a": t["a"].take(pa.array(idx)),
                "df": t["df"].take(pa.array(idx)),
                "chi2": t["chi2"].take(pa.array(idx)),
            }
        )

    # the chi2 kernel needs WHOLE term groups (df + dense label expansion
    # are per-term); materialized blocks carry no such guarantee (Ray may
    # split a large partition output), so the kernel runs inside a second
    # term-keyed exchange — the input is the REDUCED table (vocab-sized,
    # slim), so the extra exchange is cheap at any scale
    body = reduced.filter(expr="term != ''")
    topk = map_partitions_by_key(body, "term", _chi2_topk, num_partitions=16)
    return topk.repartition(1).map_batches(
        _final, batch_format="pyarrow", batch_size=None
    )


@register(
    "rrf_fusion_docs",
    rf"""
    WITH {_bm25_ctes()},
    lexr AS (SELECT doc_id,
               CAST(row_number() OVER (ORDER BY bm25_milli DESC, doc_id) AS BIGINT) AS rk
             FROM sc QUALIFY rk <= 20),
    q AS (SELECT CAST(embedding AS DOUBLE[]) AS qe FROM embeddings WHERE vec_id = 0),
    semr AS (SELECT doc_id, rk FROM (
               SELECT e.vec_id AS doc_id,
                 CAST(row_number() OVER (ORDER BY
                   list_cosine_similarity(qe, CAST(e.embedding AS DOUBLE[])) DESC,
                   e.vec_id) AS BIGINT) AS rk
               FROM q, embeddings e WHERE e.vec_id != 0)
             WHERE rk <= 20)
    SELECT COALESCE(l.doc_id, s.doc_id) AS doc_id,
      COALESCE(l.rk, 0) AS rk_lex, COALESCE(s.rk, 0) AS rk_sem,
      COALESCE(1.0 / (60.0 + CAST(l.rk AS DOUBLE)), 0.0)
        + COALESCE(1.0 / (60.0 + CAST(s.rk AS DOUBLE)), 0.0) AS rrf
    FROM lexr l FULL OUTER JOIN semr s ON l.doc_id = s.doc_id
    """,
)
def q_rrf_fusion_docs(sf_dir: str):
    """Reciprocal-rank FUSION (Cormack, Clarke & Buettcher 2009, k=60)
    of a lexical and a semantic ranking of the SAME corpus — the
    rank-aggregation family, the standard hybrid-retrieval combiner in
    LLM data pipelines (BM25 recall + embedding precision):
    rrf(d) = sum over lists of 1/(60 + rank_d), absent list contributes
    0.  Lexical list = the BM25 top-20 for the deterministic highest-df
    query (`bm25_top_docs` machinery, shared CTE chain in the oracle);
    semantic list = brute-force cosine top-20 to document 0's embedding
    (`knn_cosine` machinery, self excluded).

    Scale shape: both rankings are the scale-shaped pipelines they come
    from (one keyed df exchange + shuffle-free scoring + partial top-k
    for BM25; per-block matmul partial top-k for cosine); the fusion
    itself touches only the two RANKED LISTS — aggregate-sized by
    construction (<= 2k rows for any corpus size), merged in one small
    kernel.  Floats: rrf is two double divisions added lex-first on
    both engines; ranks are exact int64."""
    lex = {r["doc_id"]: r["rk"] for r in REGISTRY["bm25_top_docs"].fn(sf_dir).take_all()}
    emb = _rp(sf_dir, "embeddings", ["vec_id", "embedding"])
    sem_rows = nn.brute_force_knn(
        emb, _query_vectors(sf_dir, 1), "embedding", "vec_id", k=20
    ).take_all()
    sem = {r["neighbor_id"]: r["rank"] for r in sem_rows}
    ids = np.array(sorted(set(lex) | set(sem)), dtype=np.int64)
    rk_lex = np.array([lex.get(i, 0) for i in ids], dtype=np.int64)
    rk_sem = np.array([sem.get(i, 0) for i in ids], dtype=np.int64)
    rrf = np.where(rk_lex > 0, 1.0 / (60.0 + rk_lex.astype(np.float64)), 0.0) + np.where(
        rk_sem > 0, 1.0 / (60.0 + rk_sem.astype(np.float64)), 0.0
    )
    return ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "rk_lex": pa.array(rk_lex, pa.int64()),
                "rk_sem": pa.array(rk_sem, pa.int64()),
                "rrf": pa.array(rrf, pa.float64()),
            }
        )
    )


@register(
    "semdedup_docs",
    """
    WITH q AS (SELECT vec_id,
          list_transform(embedding, x -> CAST(floor(CAST(x AS DOUBLE)*1000+0.5) AS BIGINT)) AS iq
          FROM embeddings),
    c AS (SELECT vec_id AS cid, iq AS ciq FROM q ORDER BY vec_id LIMIT 8),
    d AS (SELECT q.vec_id, c.cid,
          list_sum(list_transform(range(1, len(q.iq)+1),
            i -> (q.iq[i]-c.ciq[i])*(q.iq[i]-c.ciq[i]))) AS dist
          FROM q CROSS JOIN c),
    a AS (SELECT vec_id, cid, dist FROM (
            SELECT *, row_number() OVER (PARTITION BY vec_id
              ORDER BY dist, cid) AS rn FROM d) WHERE rn = 1),
    qq AS (SELECT a.vec_id, a.cid, a.dist, q.iq,
             list_sum(list_transform(q.iq, x -> x*x)) AS nrm
           FROM a JOIN q USING (vec_id)),
    p AS (SELECT x.vec_id AS vid,
            list_sum(list_transform(range(1, len(x.iq)+1),
              i -> x.iq[i]*y.iq[i])) AS dot,
            x.nrm AS xn, y.nrm AS yn
          FROM qq x JOIN qq y ON x.cid = y.cid
            AND (y.dist < x.dist OR (y.dist = x.dist AND y.vec_id < x.vec_id))),
    drp AS (SELECT DISTINCT vid FROM p
            WHERE dot > 0 AND 100*dot*dot > 9*xn*yn)
    SELECT qq.vec_id, qq.cid AS centroid_id, CAST(qq.dist AS BIGINT) AS dist,
      CAST(CASE WHEN drp.vid IS NULL THEN 1 ELSE 0 END AS BIGINT) AS kept
    FROM qq LEFT JOIN drp ON qq.vec_id = drp.vid
    """,
)
def q_semdedup_docs(sf_dir: str):
    """SemDeDup (Abbas et al. 2023): SEMANTIC deduplication by k-means-
    style clustering + within-cluster cosine pruning — the
    cluster-then-prune dedup family next to the pairwise near-dup
    operators (LSH / SimHash / containment work on exact token overlap;
    SemDeDup drops *paraphrase-level* duplicates that share no tokens).

    Deterministic, fully SQL-oracled formulation: 'centroids' are the 8
    lowest-vec_id embeddings milli-quantized to int64 (shared rule with
    `centroid_assign` via `_det_milli_centroids`); each vector joins its
    exact-int64-argmin centroid; within a cluster, members are ordered
    by (dist-to-centroid asc, vec_id asc) and a member is DROPPED when
    any EARLIER member is cosine-similar above tau=0.3 — evaluated in
    exact integer arithmetic (dot > 0 AND 100*dot^2 > 9*|a|^2*|b|^2, so
    no float ulp can flip a verdict; bounds: dim 64, |q|<=525 =>
    dot^2*100 < 2^63).  Output: every vector with its cluster, distance
    and kept flag.

    Scale shape: ONE exchange keyed on centroid_id ships (vec_id, dist,
    iq) — the quantized vector must reach its cluster's worker, that is
    inherent to the method; the in-cluster verify is one int64 matmul
    (b x d @ d x b) per cluster, O(b^2) like every anchor-block verify,
    bounded by the cluster size — at corpus scale k grows with n (the
    paper uses k ~ sqrt(n)) so b stays bounded; the deterministic-8
    clustering here is the oracle-checkable stand-in for the learned
    k-means router the ivf_* queries exercise."""
    from multimedia_indexing_ray.stages.partition import map_partitions_by_key

    embs = _rp(sf_dir, "embeddings", ["vec_id", "embedding"])
    import ray as _ray

    ref = _ray.put(_det_milli_centroids(embs))

    def _assign(batch: pa.Table) -> pa.Table:
        c_ids, c_q = _ray.get(ref)
        mat = nn._batch_matrix(batch, "embedding")
        eq = np.floor(mat * 1000.0 + 0.5).astype(np.int64)
        d = ((eq[:, None, :] - c_q[None, :, :]) ** 2).sum(axis=2)
        best = np.argmin(d, axis=1)
        n, dim = eq.shape
        return pa.table(
            {
                "vec_id": pc.cast(batch["vec_id"], pa.int64()),
                "centroid_id": pa.array(c_ids[best], pa.int64()),
                "dist": pa.array(d[np.arange(n), best], pa.int64()),
                "iq": pa.FixedSizeListArray.from_arrays(
                    pa.array(eq.reshape(-1), pa.int64()), dim
                ),
            }
        )

    _empty = pa.table(
        {
            "vec_id": pa.array([], pa.int64()),
            "centroid_id": pa.array([], pa.int64()),
            "dist": pa.array([], pa.int64()),
            "kept": pa.array([], pa.int64()),
        }
    )

    def _prune(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _empty
        idx = pc.sort_indices(
            t,
            sort_keys=[
                ("centroid_id", "ascending"),
                ("dist", "ascending"),
                ("vec_id", "ascending"),
            ],
        )
        t = t.take(idx)
        cid = t["centroid_id"].to_numpy()
        iq_col = t["iq"].combine_chunks()
        if isinstance(iq_col, pa.ChunkedArray):
            iq_col = iq_col.combine_chunks()
        dim = iq_col.type.list_size
        Q = iq_col.values.to_numpy().reshape(t.num_rows, dim)
        kept = np.ones(t.num_rows, dtype=np.int64)
        starts = sg.segment_starts(cid)
        ends = np.concatenate([starts[1:], [t.num_rows]])
        for s, e in zip(starts, ends):
            b = e - s
            if b < 2:
                continue
            Qi = Q[s:e]
            dot = Qi @ Qi.T  # exact int64
            nrm = np.diag(dot).copy()
            # tau=0.3: cos > 0.3  <=>  dot > 0 AND 100*dot^2 > 9*|a|^2*|b|^2
            sim = (dot > 0) & (100 * dot * dot > 9 * nrm[:, None] * nrm[None, :])
            # dropped iff any EARLIER member (strict lower triangle) is similar
            earlier = np.tril(sim, k=-1)
            kept[s:e] = (~earlier.any(axis=1)).astype(np.int64)
        return pa.table(
            {
                "vec_id": t["vec_id"],
                "centroid_id": t["centroid_id"],
                "dist": t["dist"],
                "kept": pa.array(kept, pa.int64()),
            }
        )

    assigned = embs.map_batches(_assign, batch_format="pyarrow")
    return map_partitions_by_key(assigned, "centroid_id", _prune, num_partitions=8)


# ---------------------------------------------------------------------------
# §2.11 additions (round 5i): rank-based model-evaluation metrics (exact
# AUC), robust outlier statistics (median absolute deviation), and
# mode-label community detection (label propagation) — three semantic
# families the registry did not yet cover.
# ---------------------------------------------------------------------------


@register(
    "auc_value_purchase",
    f"""
    WITH c AS (SELECT {_CENTS_SQL.format(col='value')} AS cents,
                 CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END AS pos
               FROM events),
    g AS (SELECT cents, CAST(SUM(pos) AS BIGINT) AS np,
                 CAST(COUNT(*) AS BIGINT) AS nt
          FROM c GROUP BY 1),
    r AS (SELECT cents, np, nt,
            CAST(SUM(nt) OVER (ORDER BY cents) - nt AS BIGINT) AS cumb
          FROM g),
    t AS (SELECT CAST(SUM(np*(2*cumb + nt + 1)) AS BIGINT) AS two_r,
                 CAST(SUM(np) AS BIGINT) AS n_pos,
                 CAST(SUM(nt - np) AS BIGINT) AS n_neg
          FROM r)
    SELECT n_pos, n_neg,
      CAST(two_r - n_pos*(n_pos+1) AS BIGINT) AS auc_num,
      CAST(2*n_pos*n_neg AS BIGINT) AS auc_den,
      CAST(two_r - n_pos*(n_pos+1) AS DOUBLE)
        / CAST(2*n_pos*n_neg AS DOUBLE) AS auc
    FROM t
    """,
)
def q_auc_value_purchase(sf_dir: str):
    """Exact AUC-ROC of `value` as a predictor of the purchase label —
    the rank-based MODEL-EVALUATION family (Mann-Whitney U with the
    standard tie correction: tied scores get their average rank), the
    metric every data-quality / classifier-calibration pipeline ends
    with.  Doubled-rank trick keeps everything integer: a tie group of
    size c starting after cumb rows has 2*avg_rank = 2*cumb + c + 1, so
    2*R_pos = Σ np*(2*cumb + nt + 1) and
    AUC = (2*R_pos − n_pos(n_pos+1)) / (2 n_pos n_neg) — numerator and
    denominator emitted as exact int64 plus ONE double division mirrored
    on both engines.

    Scale shape: AUC with ties depends only on the per-score histogram
    (score -> n_pos, n_total), so the plan is a per-batch Arrow combiner
    emitting slim (cents, np, nt) partials, then a single aggregate-sized
    rank scan — the same shape as `hourly_concurrent_sessions`' +1/-1
    scan.  The histogram is bounded by the score DOMAIN (distinct cents
    values), not the row count; rank products approach int64 range only
    past ~10^9 rows per label, where the tiny finish (and the oracle's
    hugeint) would move to object ints — the partials never would."""
    ev = _rp(sf_dir, "events", ["event_type", "value"])

    _P_SCHEMA = pa.schema(
        [("cents", pa.int64()), ("np", pa.int64()), ("nt", pa.int64())]
    )

    def _partial(batch: pa.Table) -> pa.Table:
        cents = _cents(batch["value"].to_numpy(zero_copy_only=False)).astype(np.int64)
        pos = (
            pc.equal(batch["event_type"], "purchase").to_numpy(zero_copy_only=False)
        ).astype(np.int64)
        uniq, inv = np.unique(cents, return_inverse=True)
        np_ = np.zeros(len(uniq), dtype=np.int64)
        nt = np.zeros(len(uniq), dtype=np.int64)
        np.add.at(np_, inv, pos)
        np.add.at(nt, inv, 1)
        return pa.table({"cents": uniq, "np": np_, "nt": nt}, schema=_P_SCHEMA)

    _OUT_EMPTY = pa.table(
        {
            "n_pos": pa.array([], pa.int64()),
            "n_neg": pa.array([], pa.int64()),
            "auc_num": pa.array([], pa.int64()),
            "auc_den": pa.array([], pa.int64()),
            "auc": pa.array([], pa.float64()),
        }
    )

    def _finish(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _OUT_EMPTY
        g = _pa_group_sum(t, ["cents"], ["np", "nt"])
        cents = g["cents"].to_numpy()
        np_ = g["np"].to_numpy()
        nt = g["nt"].to_numpy()
        order = np.argsort(cents, kind="stable")
        np_, nt = np_[order], nt[order]
        # tiny aggregate-sized scan: Python ints (no overflow at any n)
        cumb = np.concatenate([[0], np.cumsum(nt)[:-1]])
        two_r = int(np.sum(np_ * (2 * cumb + nt + 1), dtype=object))
        n_pos = int(np_.sum())
        n_neg = int(nt.sum()) - n_pos
        num = two_r - n_pos * (n_pos + 1)
        den = 2 * n_pos * n_neg
        return pa.table(
            {
                "n_pos": pa.array([n_pos], pa.int64()),
                "n_neg": pa.array([n_neg], pa.int64()),
                "auc_num": pa.array([num], pa.int64()),
                "auc_den": pa.array([den], pa.int64()),
                "auc": pa.array([float(num) / float(den)], pa.float64()),
            }
        )

    partials = ev.map_batches(_partial, batch_format="pyarrow")
    return partials.repartition(1).map_batches(
        _finish, batch_format="pyarrow", batch_size=None
    )


@register(
    "mad_outlier_per_type",
    f"""
    WITH c AS (SELECT event_type,
                 {_CENTS_SQL.format(col='value')} AS cents FROM events),
    m AS (SELECT event_type,
            CAST(quantile_disc(cents, 0.5) + (-quantile_disc(-cents, 0.5))
                 AS BIGINT) AS med2
          FROM c GROUP BY 1),
    d AS (SELECT c.event_type, ABS(2*c.cents - m.med2) AS dev2, m.med2
          FROM c JOIN m USING (event_type)),
    md AS (SELECT event_type,
             CAST(quantile_disc(dev2, 0.5) + (-quantile_disc(-dev2, 0.5))
                  AS BIGINT) AS mad2
           FROM d GROUP BY 1)
    SELECT d.event_type, d.med2, md.mad2,
      CAST(d.med2 AS DOUBLE)/200.0 AS median_value,
      CAST(md.mad2 AS DOUBLE)/400.0 AS mad_value,
      CAST(SUM(CASE WHEN 2*d.dev2 > 3*md.mad2 THEN 1 ELSE 0 END)
           AS BIGINT) AS n_outliers,
      CAST(COUNT(*) AS BIGINT) AS n
    FROM d JOIN md USING (event_type)
    GROUP BY 1, 2, 3
    """,
)
def q_mad_outlier_per_type(sf_dir: str):
    """Robust outlier statistics per event type: median + MAD (median
    absolute deviation, Hampel's robust scale) and the classic
    |x − med| > 3·MAD outlier count — the ROBUST-STATISTICS family next
    to the moment-based z-score (`zscore_value_per_user` breaks under
    heavy tails; MAD has a 50% breakdown point).

    Exact integer formulation (no float median anywhere): med2 = lo+hi
    of sorted cents (2x the exact median, integer even when the median
    is a .5); dev2 = |2·cents − med2| (2x each absolute deviation);
    mad2 = lo+hi over dev2 (4x the MAD).  The outlier rule
    |x − med| > 3·MAD becomes 2·dev2 > 3·mad2 — pure int64 compares, so
    both engines agree bit-for-bit; the reported doubles are single
    divisions (med2/200, mad2/400) mirrored in the oracle.

    Scale shape: holistic aggregate (two nested medians), so like
    `median_value_per_user` the raw cents ride ONE shuffle keyed on
    event_type and each type computes both medians locally in sorted
    numpy — no second pass, no broadcast.  Oracle: DuckDB quantile_disc
    picks the lower middle and -quantile_disc(-x) the upper, giving the
    same exact lo+hi pairs."""
    from multimedia_indexing_ray.stages.partition import map_partitions_by_key

    ev = _rp(sf_dir, "events", ["event_type", "value"])

    _empty = pa.table(
        {
            "event_type": pa.array([], pa.string()),
            "med2": pa.array([], pa.int64()),
            "mad2": pa.array([], pa.int64()),
            "median_value": pa.array([], pa.float64()),
            "mad_value": pa.array([], pa.float64()),
            "n_outliers": pa.array([], pa.int64()),
            "n": pa.array([], pa.int64()),
        }
    )

    def kernel(table: pa.Table) -> pa.Table:
        if table.num_rows == 0:
            return _empty
        et = table["event_type"].to_numpy(zero_copy_only=False)
        cents = _cents(table["value"].to_numpy(zero_copy_only=False)).astype(np.int64)
        types, meds2, mads2, outl, ns = [], [], [], [], []
        for t in np.unique(et):  # <= K event types per partition (tiny loop)
            c = np.sort(cents[et == t])
            n = len(c)
            med2 = int(c[(n - 1) // 2]) + int(c[n // 2])
            dev2 = np.sort(np.abs(2 * c - med2))
            mad2 = int(dev2[(n - 1) // 2]) + int(dev2[n // 2])
            types.append(t)
            meds2.append(med2)
            mads2.append(mad2)
            outl.append(int(np.sum(2 * dev2 > 3 * mad2)))
            ns.append(n)
        med2a = np.array(meds2, dtype=np.int64)
        mad2a = np.array(mads2, dtype=np.int64)
        return pa.table(
            {
                "event_type": pa.array(types, pa.string()),
                "med2": pa.array(med2a, pa.int64()),
                "mad2": pa.array(mad2a, pa.int64()),
                "median_value": pa.array(med2a.astype(np.float64) / 200.0, pa.float64()),
                "mad_value": pa.array(mad2a.astype(np.float64) / 400.0, pa.float64()),
                "n_outliers": pa.array(outl, pa.int64()),
                "n": pa.array(ns, pa.int64()),
            }
        )

    return map_partitions_by_key(ev, "event_type", kernel, num_partitions=8)


def _labelprop_sql(rounds: int = 4) -> str:
    its = []
    prev = "l0"
    for i in range(1, rounds + 1):
        its.append(
            f"""c{i} AS (SELECT e.v AS node, l.lbl, CAST(COUNT(*) AS BIGINT) AS c
            FROM edges e JOIN {prev} l ON l.node = e.u GROUP BY 1, 2),
            l{i} AS (SELECT node, lbl FROM c{i}
             QUALIFY row_number() OVER (PARTITION BY node ORDER BY c DESC, lbl) = 1)"""
        )
        prev = f"l{i}"
    return f"""
    WITH {_NGRAM_PAIRS_CTE},
    edges AS (SELECT a_id AS u, b_id AS v FROM pairs
              UNION SELECT b_id, a_id FROM pairs),
    l0 AS (SELECT DISTINCT u AS node, u AS lbl FROM edges),
    {', '.join(its)}
    SELECT node AS doc_id, lbl AS community FROM {prev}
    """


@register("labelprop_neardup", _labelprop_sql(4))
def q_labelprop_neardup(sf_dir: str):
    """Label-propagation COMMUNITIES (4 synchronous mode-label rounds,
    Raghavan et al. 2007) over the 3-gram Jaccard near-dup graph — the
    fifth graph kernel, and the community-detection counterpart to
    `dedup_clusters`: CC fuses everything reachable (one incidental
    cross-family pair merges two template families); LP's most-frequent-
    neighbor-label update keeps the dense cores separate.
    `stages/cc.py:label_propagation`; exactly R rounds with the
    (count desc, label asc) tie rule on both sides, so the unrolled SQL
    matches bit-for-bit even on graphs that have not converged."""
    from multimedia_indexing_ray.stages.cc import label_propagation

    docs = _rp(sf_dir, "documents", ["doc_id", "text"])
    pairs = dd.anchor_jaccard_pairs(
        docs, "text", "doc_id", threshold=0.3, num_partitions=16,
        coalesce=docs.count() <= _COALESCE_DOCS,
    )
    return label_propagation(pairs, rounds=4)


@register(
    "cube_type_day",
    f"""
    WITH c AS (SELECT event_type,
                 CAST(epoch_us(ts)//86400000000 AS BIGINT) AS day,
                 {_CENTS_SQL.format(col='value')} AS cents FROM events)
    SELECT COALESCE(event_type, '(all)') AS event_type,
      COALESCE(day, -1) AS day,
      CAST(GROUPING(event_type)*2 + GROUPING(day) AS BIGINT) AS gid,
      CAST(COUNT(*) AS BIGINT) AS n,
      CAST(SUM(cents) AS BIGINT) AS sum_cents
    FROM c GROUP BY CUBE(event_type, day)
    """,
)
def q_cube_type_day(sf_dir: str):
    """GROUP BY CUBE — the MULTI-GROUPING relational surface
    (GROUPING SETS / ROLLUP / CUBE; Gray et al. 1997 "Data Cube"):
    all four groupings of (event_type, day) — both, type-only,
    day-only, grand total — with the standard GROUPING() id, in ONE
    input pass.  `rollup_type_hour` covers the hierarchical prefix
    case; CUBE needs the cross combinations, which a naive plan
    computes as four separate scans + a union.

    Plan (the classic MR cube trick): the per-batch Arrow combiner
    emits each batch's partial aggregates under all 4 key variants
    (sentinels '(all)' / -1 standing in for the rolled-up dimension —
    mirrored by COALESCE in the oracle, which also keeps the output
    null-free for stable sorting), so the exchange carries ~4x
    AGGREGATE-sized partials, never 4x the data; the finish re-groups
    the tiny partial set in one block, exactly the `_tiny_group_sum`
    discipline (groups bounded by |types| x |days| — low-cardinality by
    construction; a high-cardinality cube would shard the finish by
    gid)."""
    ev = _rp(sf_dir, "events", ["event_type", "ts", "value"])
    DAY_US = 86_400_000_000

    _P_SCHEMA = pa.schema(
        [
            ("event_type", pa.string()),
            ("day", pa.int64()),
            ("gid", pa.int64()),
            ("n", pa.int64()),
            ("sum_cents", pa.int64()),
        ]
    )

    def _partial(batch: pa.Table) -> pa.Table:
        et = batch["event_type"].to_numpy(zero_copy_only=False)
        day = batch["ts"].cast(pa.int64()).to_numpy() // DAY_US
        cents = _cents(batch["value"].to_numpy(zero_copy_only=False)).astype(np.int64)
        outs = []
        alls = np.full(len(et), "(all)", dtype=object)
        neg1 = np.full(len(et), -1, dtype=np.int64)
        for gid, (k1, k2) in enumerate(
            [(et, day), (et, neg1), (alls, day), (alls, neg1)]
        ):
            t = pa.table(
                {
                    "event_type": pa.array(k1, pa.string()),
                    "day": pa.array(k2, pa.int64()),
                    "n": pa.array(np.ones(len(et), np.int64), pa.int64()),
                    "sum_cents": pa.array(cents, pa.int64()),
                }
            )
            g = _pa_group_sum(t, ["event_type", "day"], ["n", "sum_cents"])
            g = g.append_column(
                "gid", pa.array(np.full(g.num_rows, gid, np.int64), pa.int64())
            )
            outs.append(g.select(["event_type", "day", "gid", "n", "sum_cents"]))
        return pa.concat_tables(outs).cast(_P_SCHEMA)

    def _final(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _P_SCHEMA.empty_table()
        g = _pa_group_sum(t, ["event_type", "day", "gid"], ["n", "sum_cents"])
        return g.select(["event_type", "day", "gid", "n", "sum_cents"]).cast(_P_SCHEMA)

    partials = ev.map_batches(_partial, batch_format="pyarrow")
    return partials.repartition(1).map_batches(
        _final, batch_format="pyarrow", batch_size=None
    )


_TV_BUCKET_SQL = (
    f"CASE WHEN {_CENTS_SQL.format(col='value')} >= 0 "
    f"THEN {_CENTS_SQL.format(col='value')}//500 "
    f"ELSE -((-{_CENTS_SQL.format(col='value')} + 499)//500) END"
)


@register(
    "tv_drift_by_type",
    f"""
    WITH d AS (SELECT CAST(MIN(epoch_us(ts)//86400000000) AS BIGINT) AS dmin,
                      CAST(MAX(epoch_us(ts)//86400000000) AS BIGINT) AS dmax
               FROM events),
    v AS (SELECT event_type,
            {_TV_BUCKET_SQL} AS bucket,
            CASE WHEN epoch_us(ts)//86400000000
                   < (SELECT (dmin+dmax+1)//2 FROM d)
                 THEN 1 ELSE 0 END AS early
          FROM events),
    h AS (SELECT event_type, bucket,
            CAST(SUM(early) AS BIGINT) AS na,
            CAST(SUM(1-early) AS BIGINT) AS nb
          FROM v GROUP BY 1, 2),
    t AS (SELECT event_type, CAST(SUM(na) AS BIGINT) AS n_early,
                 CAST(SUM(nb) AS BIGINT) AS n_late
          FROM h GROUP BY 1)
    SELECT h.event_type, t.n_early, t.n_late,
      CAST(SUM(ABS(h.na*t.n_late - h.nb*t.n_early)) AS BIGINT) AS tv_num,
      CAST(2*t.n_early*t.n_late AS BIGINT) AS tv_den,
      CASE WHEN t.n_early*t.n_late != 0 THEN
        CAST(SUM(ABS(h.na*t.n_late - h.nb*t.n_early)) AS DOUBLE)
          / CAST(2*t.n_early*t.n_late AS DOUBLE) END AS tv
    FROM h JOIN t USING (event_type) GROUP BY 1, 2, 3
    """,
)
def q_tv_drift_by_type(sf_dir: str):
    """DISTRIBUTION-DRIFT detection (dataset-shift family): per event
    type, the total-variation distance between the value distribution
    of the EARLY half of the time range and the LATE half — the
    standard train/serve skew monitor a 100 TB training-data pipeline
    runs before every refresh.  TV is chosen over KL/JS because it is
    an exact RATIONAL in the histogram counts (no logs):
    tv = sum_b |na_b*N_late - nb_b*N_early| / (2*N_early*N_late),
    so both engines evaluate integer arithmetic plus ONE double
    division of <2^53 ints — bit-exact (exact while per-type
    rows < ~6e9; same int64 discipline as `gini_by_type`).

    Plan: pass 1 is a column-pruned min/max over `ts` (per-batch
    2-int partials, driver pull = one tiny frame) fixing the split
    day at (dmin+dmax+1)//2; pass 2 emits per-batch
    (type, $5-value-bucket, early/late) count partials — bucket uses
    explicit FLOOR division (the SQL CASE mirrors numpy's semantics
    for negative cents; DuckDB's `//` truncates) — through one
    event_type-keyed exchange of AGGREGATE-sized rows; the finish is
    a segmented reduceat per type.  The raw data never re-shuffles."""
    from multimedia_indexing_ray.stages.partition import map_partitions_by_key

    DAY_US = 86_400_000_000

    _mm_empty = pa.table(
        {"dmin": pa.array([], pa.int64()), "dmax": pa.array([], pa.int64())}
    )

    def _mm(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return _mm_empty
        d = batch["ts"].cast(pa.int64()).to_numpy() // DAY_US
        return pa.table(
            {
                "dmin": pa.array([int(d.min())], pa.int64()),
                "dmax": pa.array([int(d.max())], pa.int64()),
            }
        )

    mm = (
        _rp(sf_dir, "events", ["ts"])
        .map_batches(_mm, batch_format="pyarrow")
        .to_pandas()
    )
    boundary = (int(mm["dmin"].min()) + int(mm["dmax"].max()) + 1) // 2

    _hempty = pa.table(
        {
            "event_type": pa.array([], pa.string()),
            "bucket": pa.array([], pa.int64()),
            "na": pa.array([], pa.int64()),
            "nb": pa.array([], pa.int64()),
        }
    )
    _out_schema = pa.schema(
        [
            ("event_type", pa.string()),
            ("n_early", pa.int64()),
            ("n_late", pa.int64()),
            ("tv_num", pa.int64()),
            ("tv_den", pa.int64()),
            ("tv", pa.float64()),
        ]
    )

    def _partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return _hempty
        et = batch["event_type"].to_numpy(zero_copy_only=False)
        day = batch["ts"].cast(pa.int64()).to_numpy() // DAY_US
        c = _cents(batch["value"].to_numpy(zero_copy_only=False)).astype(np.int64)
        early = (day < boundary).astype(np.int64)
        t = pa.table(
            {
                "event_type": pa.array(et, pa.string()),
                "bucket": pa.array(c // 500, pa.int64()),
                "na": pa.array(early, pa.int64()),
                "nb": pa.array(1 - early, pa.int64()),
            }
        )
        return _pa_group_sum(t, ["event_type", "bucket"], ["na", "nb"])

    def _finish(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _out_schema.empty_table()
        g = _pa_group_sum(t, ["event_type", "bucket"], ["na", "nb"])
        et = g["event_type"].to_numpy(zero_copy_only=False)
        na = g["na"].to_numpy()
        nb = g["nb"].to_numpy()
        order = np.argsort(et, kind="stable")
        et, na, nb = et[order], na[order], nb[order]
        starts = sg.segment_starts(et)
        n_early = np.add.reduceat(na, starts)
        n_late = np.add.reduceat(nb, starts)
        cnts = sg.segment_counts(starts, len(et))
        tv_num = np.add.reduceat(
            np.abs(na * np.repeat(n_late, cnts) - nb * np.repeat(n_early, cnts)),
            starts,
        )
        tv_den = 2 * n_early * n_late
        with np.errstate(invalid="ignore", divide="ignore"):
            tv = tv_num.astype(np.float64) / tv_den.astype(np.float64)
        return pa.table(
            {
                "event_type": pa.array(et[starts], pa.string()),
                "n_early": pa.array(n_early, pa.int64()),
                "n_late": pa.array(n_late, pa.int64()),
                "tv_num": pa.array(tv_num, pa.int64()),
                "tv_den": pa.array(tv_den, pa.int64()),
                "tv": pa.array(tv, pa.float64(), mask=(tv_den == 0)),
            }
        )

    ev = _rp(sf_dir, "events", ["event_type", "ts", "value"])
    partials = ev.map_batches(_partial, batch_format="pyarrow")
    return map_partitions_by_key(partials, "event_type", _finish, num_partitions=8)


@register(
    "mutual_knn_pairs",
    """
    WITH r AS (
      SELECT a.vec_id AS src, b.vec_id AS dst,
        CAST(row_number() OVER (PARTITION BY a.vec_id
          ORDER BY list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                                          CAST(b.embedding AS DOUBLE[])) DESC,
                   b.vec_id) AS BIGINT) AS rank
      FROM embeddings a JOIN embeddings b ON a.vec_id != b.vec_id),
    t AS (SELECT * FROM r WHERE rank <= 5)
    SELECT x.src AS a_id, x.dst AS b_id, x.rank AS rank_ab, y.rank AS rank_ba
    FROM t x JOIN t y ON x.src = y.dst AND x.dst = y.src
    WHERE x.src < x.dst
    """,
)
def q_mutual_knn_pairs(sf_dir: str):
    """RECIPROCAL nearest-neighbor matching (mutual top-k): pairs where
    each vector appears in the OTHER's cosine top-5 — the standard
    alignment/bitext-mining primitive (margin-based mining a la CCMatrix
    keeps only mutual neighbors) and a high-precision near-dup verifier:
    mutuality kills the hub problem that one-directional kNN has.

    Plan: because self-kNN broadcasts the FULL unit matrix once
    (`ray.put`), each batch computes its own rows' EXACT cosine top-5
    against it in one matmul + `topk_rows` (`stages/knn.py:57` — same
    cos desc / id asc tie rule as the oracle's window ORDER BY), so
    unlike the few-query `brute_force_knn` there is NO partial-candidate
    merge shuffle at all.  The broadcast bounds this baseline at ~1e6
    vectors — at corpus scale swap the candidate generator for the IVF
    path (`ivf_knn`) and keep the SAME mutuality join below.  Mutual
    matching then touches only the k*n edge list: each directed edge
    maps to its canonical undirected key lo:hi, one keyed exchange
    groups the <=2 directed rows per pair, and a pair survives iff BOTH
    directions are present — no n^2 work after the kNN, no driver-side
    set."""
    import ray as _ray

    from multimedia_indexing_ray.stages.knn import _batch_matrix, _unit, topk_rows
    from multimedia_indexing_ray.stages.partition import map_partitions_by_key

    emb = _rp(sf_dir, "embeddings", ["vec_id", "embedding"])

    # all-vectors matrix: the documented broadcast (see docstring)
    t = _pq(sf_dir, "embeddings", ["vec_id", "embedding"])
    all_ids = t["vec_id"].to_numpy().astype(np.int64)
    all_mat = _unit(
        np.stack([np.asarray(v, dtype=np.float64) for v in t["embedding"].to_pylist()])
    )
    ref = _ray.put((all_ids, all_mat))

    _edge_schema = pa.schema(
        [("query_id", pa.int64()), ("neighbor_id", pa.int64()), ("rank", pa.int64())]
    )

    def _selfknn(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return _edge_schema.empty_table()
        cids, cmat = _ray.get(ref)
        bids = batch["vec_id"].to_numpy().astype(np.int64)
        key = -(_unit(_batch_matrix(batch, "embedding")) @ cmat.T)
        key[bids[:, None] == cids[None, :]] = np.inf  # exclude self
        out_q, out_n, _ = topk_rows(bids, cids, key, 5)
        if not out_q:
            return _edge_schema.empty_table()
        return pa.table(
            {
                "query_id": pa.array(np.concatenate(out_q), pa.int64()),
                "neighbor_id": pa.array(np.concatenate(out_n), pa.int64()),
                # topk_rows emits each row's survivors already in
                # (cos desc, id asc) order -> rank is positional
                "rank": pa.array(
                    np.concatenate([np.arange(1, len(o) + 1) for o in out_q]),
                    pa.int64(),
                ),
            }
        )

    topk = emb.map_batches(_selfknn, batch_format="pyarrow", batch_size=1024)

    _out_schema = pa.schema(
        [
            ("a_id", pa.int64()),
            ("b_id", pa.int64()),
            ("rank_ab", pa.int64()),
            ("rank_ba", pa.int64()),
        ]
    )

    def _edge_key(batch: pa.Table) -> pa.Table:
        src = batch["query_id"].to_numpy()
        dst = batch["neighbor_id"].to_numpy()
        lo = np.minimum(src, dst)
        hi = np.maximum(src, dst)
        key = np.char.add(
            np.char.add(lo.astype("U20"), ":"), hi.astype("U20")
        ).astype(object)
        return pa.table(
            {
                "pair": pa.array(key, pa.string()),
                "lo": pa.array(lo, pa.int64()),
                "hi": pa.array(hi, pa.int64()),
                "fwd": pa.array((src == lo).astype(np.int8), pa.int8()),
                "rank": batch["rank"],
            }
        )

    def _match(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _out_schema.empty_table()
        lo = t["lo"].to_numpy()
        hi = t["hi"].to_numpy()
        fwd = t["fwd"].to_numpy()
        rank = t["rank"].to_numpy().astype(np.int64)
        order = np.lexsort((fwd, hi, lo))
        lo, hi, fwd, rank = lo[order], hi[order], fwd[order], rank[order]
        change = np.flatnonzero((lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])) + 1
        starts = np.concatenate([[0], change]).astype(np.int64)
        cnts = sg.segment_counts(starts, len(lo))
        both = starts[cnts == 2]  # row order within: fwd=0 (bwd) then fwd=1
        return pa.table(
            {
                "a_id": pa.array(lo[both], pa.int64()),
                "b_id": pa.array(hi[both], pa.int64()),
                "rank_ab": pa.array(rank[both + 1], pa.int64()),
                "rank_ba": pa.array(rank[both], pa.int64()),
            }
        )

    edges = topk.map_batches(_edge_key, batch_format="pyarrow")
    return map_partitions_by_key(edges, "pair", _match, num_partitions=8)


# --------------------------------------------------------------------------
# round 5k: CDC snapshot diff, eval-metric curves, corpus-growth novelty,
# shuffle-skew diagnostics, Z-order zone-map layout
# --------------------------------------------------------------------------

# Two deterministic "snapshot" views of events stand in for two daily
# dumps landed in storage (the fixture for the CDC diff below): snapshot
# A drops every 10th key; snapshot B drops every 7th key and doubles the
# cents of every 5th key.  Membership/mutation are pure functions of
# event_id so both engines derive identical snapshots with no RNG.
_SNAP_A_SQL = (
    f"SELECT event_id, {_CENTS_SQL.format(col='value')} AS cents "
    "FROM events WHERE event_id % 10 != 0"
)
_SNAP_B_SQL = (
    f"SELECT event_id, CASE WHEN event_id % 5 = 0 "
    f"THEN 2*{_CENTS_SQL.format(col='value')} "
    f"ELSE {_CENTS_SQL.format(col='value')} END AS cents "
    "FROM events WHERE event_id % 7 != 0"
)


@register(
    "snapshot_diff",
    f"""
    WITH a AS ({_SNAP_A_SQL}), b AS ({_SNAP_B_SQL})
    SELECT COALESCE(a.event_id, b.event_id) AS event_id,
      CASE WHEN a.event_id IS NULL THEN 'added'
           WHEN b.event_id IS NULL THEN 'removed'
           ELSE 'changed' END AS status,
      a.cents AS old_cents, b.cents AS new_cents
    FROM a FULL OUTER JOIN b ON a.event_id = b.event_id
    WHERE a.event_id IS NULL OR b.event_id IS NULL OR a.cents != b.cents
    """,
)
def q_snapshot_diff(sf_dir: str):
    """CDC-style SNAPSHOT DIFF — the change-data-capture primitive a
    100 TB pipeline runs between two landed dumps of the same table
    before an incremental refresh: rows only in the new dump are
    'added', rows only in the old are 'removed', rows in both with a
    different payload are 'changed', unchanged rows are dropped (the
    usual >99% of a daily diff never leaves the workers).

    Plan: each snapshot is read independently (column-pruned, filter
    applied in the first map), tagged with a side bit, and unioned;
    ONE event_id-keyed exchange of slim (key, side, cents) rows
    co-locates the <=2 rows per key; the per-partition kernel is a
    lexsort + segment-boundary compare (no per-row Python).  The diff
    output is proportional to the churn, not the table."""
    from multimedia_indexing_ray.stages.partition import map_partitions_by_key

    def _snap(side: int, keep_mod: int):
        def _fn(batch: pa.Table) -> pa.Table:
            ids = batch["event_id"].to_numpy()
            cents = _cents(batch["value"].to_numpy(zero_copy_only=False)).astype(
                np.int64
            )
            if side == 1:  # snapshot B mutates every 5th key
                cents = np.where(ids % 5 == 0, 2 * cents, cents)
            keep = ids % keep_mod != 0
            return pa.table(
                {
                    "event_id": pa.array(ids[keep], pa.int64()),
                    "side": pa.array(np.full(int(keep.sum()), side, np.int8)),
                    "cents": pa.array(cents[keep], pa.int64()),
                }
            )

        return _fn

    ev_a = _rp(sf_dir, "events", ["event_id", "value"]).map_batches(
        _snap(0, 10), batch_format="pyarrow"
    )
    ev_b = _rp(sf_dir, "events", ["event_id", "value"]).map_batches(
        _snap(1, 7), batch_format="pyarrow"
    )

    _out_schema = pa.schema(
        [
            ("event_id", pa.int64()),
            ("status", pa.string()),
            ("old_cents", pa.int64()),
            ("new_cents", pa.int64()),
        ]
    )

    def _diff(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _out_schema.empty_table()
        ids = t["event_id"].to_numpy()
        side = t["side"].to_numpy()
        cents = t["cents"].to_numpy()
        order = np.lexsort((side, ids))
        ids, side, cents = ids[order], side[order], cents[order]
        starts = sg.segment_starts(ids)
        cnts = sg.segment_counts(starts, len(ids))
        one = starts[cnts == 1]
        added = one[side[one] == 1]
        removed = one[side[one] == 0]
        two = starts[cnts == 2]  # row order within: side 0 (old) then 1 (new)
        changed = two[cents[two] != cents[two + 1]]
        out_id = np.concatenate([ids[added], ids[removed], ids[changed]])
        status = np.concatenate(
            [
                np.full(len(added), "added", object),
                np.full(len(removed), "removed", object),
                np.full(len(changed), "changed", object),
            ]
        )
        old_c = np.concatenate([cents[added], cents[removed], cents[changed]])
        old_mask = np.concatenate(
            [np.ones(len(added), bool), np.zeros(len(removed) + len(changed), bool)]
        )
        new_c = np.concatenate([cents[added], cents[removed], cents[changed + 1]])
        new_mask = np.concatenate(
            [np.zeros(len(added), bool), np.ones(len(removed), bool),
             np.zeros(len(changed), bool)]
        )
        return pa.table(
            {
                "event_id": pa.array(out_id, pa.int64()),
                "status": pa.array(status, pa.string()),
                "old_cents": pa.array(old_c, pa.int64(), mask=old_mask),
                "new_cents": pa.array(new_c, pa.int64(), mask=new_mask),
            }
        )

    return map_partitions_by_key(
        ev_a.union(ev_b), "event_id", _diff, num_partitions=16
    )


_FNV_SQL = (
    "list_reduce(list_prepend(CAST(2166136261 AS BIGINT), "
    "list_transform(split(CAST({col} AS VARCHAR), ''), c -> ascii(c))), "
    "(a, b) -> (xor(a, b) * 16777619) % 4294967296)"
)


@register(
    "calibration_bins",
    f"""
    WITH s AS (SELECT CAST({_FNV_SQL.format(col='event_id')} % 1000 AS BIGINT)
                 AS score_milli,
               CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END AS pos
               FROM events)
    SELECT score_milli // 100 AS bin,
      CAST(COUNT(*) AS BIGINT) AS n,
      CAST(SUM(pos) AS BIGINT) AS n_pos,
      CAST(SUM(score_milli) AS DOUBLE) / (COUNT(*) * 1000) AS mean_score,
      CAST(SUM(pos) AS DOUBLE) / COUNT(*) AS pos_rate
    FROM s GROUP BY 1
    """,
)
def q_calibration_bins(sf_dir: str):
    """MODEL-CALIBRATION reliability diagram (the eval-metrics family
    next to `auc_value_purchase`): bucket a score into 10 equal bins
    and report per-bin count, mean score and positive rate — the table
    a training pipeline emits to check a quality/filter model's
    calibration before using its scores as sampling weights.  The
    score here is the deterministic content hash mapped to [0,1) (the
    K8 sampler's `_fnv1a32`, so both engines derive identical scores
    with no model dependency); the label is event_type='purchase'.

    Exactness: per-bin sums are int64; each output double is ONE
    division of <2^53 integers, so the compare is bit-exact.  Plan:
    per-batch 10-group combiner -> `_tiny_group_sum` (no keyed
    exchange at all — the classic partial-aggregate shape)."""

    def _partial(batch: pa.Table) -> pa.Table:
        h = (_fnv1a32(batch["event_id"].to_numpy()) % np.uint64(1000)).astype(np.int64)
        pos = pc.equal(batch["event_type"], "purchase").to_numpy(zero_copy_only=False)
        t = pa.table(
            {
                "bin": pa.array(h // 100, pa.int64()),
                "n": pa.array(np.ones(len(h), np.int64)),
                "n_pos": pa.array(pos.astype(np.int64)),
                "sum_milli": pa.array(h, pa.int64()),
            }
        )
        return _pa_group_sum(t, ["bin"], ["n", "n_pos", "sum_milli"])

    def _finish(batch: pa.Table) -> pa.Table:
        n = batch["n"].to_numpy()
        n_pos = batch["n_pos"].to_numpy()
        sm = batch["sum_milli"].to_numpy()
        return pa.table(
            {
                "bin": batch["bin"],
                "n": batch["n"],
                "n_pos": batch["n_pos"],
                "mean_score": pa.array(sm.astype(np.float64) / (n * 1000)),
                "pos_rate": pa.array(n_pos.astype(np.float64) / n),
            }
        )

    ev = _rp(sf_dir, "events", ["event_id", "event_type"])
    return _tiny_group_sum(ev.map_batches(_partial, batch_format="pyarrow"),
                           ["bin"], ["n", "n_pos", "sum_milli"]).map_batches(
        _finish, batch_format="pyarrow"
    )


@register(
    "pr_at_thresholds",
    f"""
    WITH b AS (
      SELECT LEAST({_TV_BUCKET_SQL}, 19) AS bucket,
        CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END AS pos
      FROM events),
    c AS (SELECT bucket, CAST(SUM(pos) AS BIGINT) AS npos,
                 CAST(SUM(1 - pos) AS BIGINT) AS nneg
          FROM b GROUP BY 1),
    t AS (SELECT CAST(r.range AS BIGINT) AS thr FROM range(0, 20) r),
    s AS (SELECT t.thr,
            CAST(COALESCE(SUM(CASE WHEN c.bucket >= t.thr THEN c.npos END), 0)
                 AS BIGINT) AS tp,
            CAST(COALESCE(SUM(CASE WHEN c.bucket >= t.thr THEN c.nneg END), 0)
                 AS BIGINT) AS fp
          FROM t LEFT JOIN c ON true GROUP BY 1),
    p AS (SELECT CAST(COALESCE(SUM(npos), 0) AS BIGINT) AS p_total FROM c),
    m AS (SELECT thr, thr * 500 AS thr_cents, tp, fp, p.p_total - tp AS fn,
            CASE WHEN tp + fp > 0
                 THEN CAST(tp AS DOUBLE) / (tp + fp) END AS precision,
            CASE WHEN p.p_total > 0
                 THEN CAST(tp AS DOUBLE) / p.p_total END AS recall
          FROM s, p)
    SELECT thr, thr_cents, tp, fp, fn, precision, recall,
      CASE WHEN precision + recall > 0
           THEN 2 * precision * recall / (precision + recall) END AS f1
    FROM m
    """,
)
def q_pr_at_thresholds(sf_dir: str):
    """PRECISION/RECALL CURVE on a fixed threshold grid (the quality-
    filter tuning table: 'keep docs with score >= t' for t = $0, $5,
    ..., $95) — with `auc_value_purchase` and `calibration_bins` this
    completes the eval-metrics family.  Score = value, label =
    event_type='purchase'; for each of the 20 thresholds: tp/fp/fn and
    precision/recall/F1 at 'predict positive iff value >= t'.

    Exactness: value buckets reuse `_TV_BUCKET_SQL`'s exact floor-
    division cents bucketing clamped to [.., 19] (a row >= $95 counts
    toward every threshold, exactly mirrored by LEAST); tp/fp are
    suffix sums of int64 bucket counts; precision and recall are ONE
    int/int division each and F1 is computed from those two already-
    rounded doubles with the same ((2*p)*r)/(p+r) operation tree on
    both engines — bit-exact.  Plan: per-batch bucket combiner ->
    `_tiny_group_sum` -> a 20-row driver-side finish (no exchange)."""

    def _partial(batch: pa.Table) -> pa.Table:
        c = _cents(batch["value"].to_numpy(zero_copy_only=False)).astype(np.int64)
        bucket = np.minimum(np.floor_divide(c, 500), 19)
        pos = pc.equal(batch["event_type"], "purchase").to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
        t = pa.table(
            {
                "bucket": pa.array(bucket, pa.int64()),
                "npos": pa.array(pos, pa.int64()),
                "nneg": pa.array(1 - pos, pa.int64()),
            }
        )
        return _pa_group_sum(t, ["bucket"], ["npos", "nneg"])

    def _finish(batch: pa.Table) -> pa.Table:
        bucket = batch["bucket"].to_numpy()
        npos = batch["npos"].to_numpy()
        nneg = batch["nneg"].to_numpy()
        thr = np.arange(20, dtype=np.int64)
        sel = bucket[None, :] >= thr[:, None]
        tp = (sel * npos[None, :]).sum(axis=1)
        fp = (sel * nneg[None, :]).sum(axis=1)
        p_total = int(npos.sum())
        fn = p_total - tp
        with np.errstate(invalid="ignore", divide="ignore"):
            precision = tp.astype(np.float64) / (tp + fp)
            recall = (
                tp.astype(np.float64) / p_total if p_total > 0
                else np.full(20, np.nan)
            )
            f1 = 2 * precision * recall / (precision + recall)
        prec_null = (tp + fp) == 0
        rec_null = p_total == 0
        f1_null = prec_null | rec_null | ~(np.nan_to_num(precision) +
                                           np.nan_to_num(recall) > 0)
        return pa.table(
            {
                "thr": pa.array(thr, pa.int64()),
                "thr_cents": pa.array(thr * 500, pa.int64()),
                "tp": pa.array(tp, pa.int64()),
                "fp": pa.array(fp, pa.int64()),
                "fn": pa.array(fn, pa.int64()),
                "precision": pa.array(
                    np.nan_to_num(precision), pa.float64(), mask=prec_null
                ),
                "recall": pa.array(
                    np.nan_to_num(recall), pa.float64(),
                    mask=np.full(20, rec_null),
                ),
                "f1": pa.array(np.nan_to_num(f1), pa.float64(), mask=f1_null),
            }
        )

    ev = _rp(sf_dir, "events", ["value", "event_type"])
    return _tiny_group_sum(
        ev.map_batches(_partial, batch_format="pyarrow"), ["bucket"], ["npos", "nneg"]
    ).map_batches(_finish, batch_format="pyarrow", batch_size=None)


@register(
    "new_user_rate_daily",
    """
    WITH ud AS (SELECT DISTINCT user_id,
                  CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day
                FROM events),
    f AS (SELECT user_id, MIN(day) AS fday FROM ud GROUP BY 1)
    SELECT day, CAST(COUNT(*) AS BIGINT) AS n_users,
      CAST(SUM(CASE WHEN ud.day = f.fday THEN 1 ELSE 0 END) AS BIGINT) AS n_new,
      CAST(SUM(CASE WHEN ud.day = f.fday THEN 1 ELSE 0 END) AS DOUBLE)
        / COUNT(*) AS new_rate
    FROM ud JOIN f USING (user_id) GROUP BY 1
    """,
)
def q_new_user_rate_daily(sf_dir: str):
    """CORPUS-GROWTH / NOVELTY rate — per day, how many of the day's
    active keys were never seen before (the 'fraction of today's crawl
    that is genuinely new' monitor a continuously-refreshed corpus
    tracks; first-seen semantics are the same as the dedup family's
    first-wins rule, aggregated instead of filtered).

    Plan: per-batch distinct (user_id, day) combiner slims the
    exchange to active-key-days; ONE user_id-keyed exchange groups
    each key's days; the per-partition kernel re-dedupes, marks each
    key's MIN day, and emits (day, n, n_new) partials; the finish is a
    `_tiny_group_sum` over the O(days) rows plus one exact division.
    The raw event rows never shuffle."""
    from multimedia_indexing_ray.stages.partition import map_partitions_by_key

    DAY_US = 86_400_000_000

    def _pairs(batch: pa.Table) -> pa.Table:
        u = batch["user_id"].to_numpy()
        d = batch["ts"].cast(pa.int64()).to_numpy() // DAY_US
        uniq = np.unique(np.stack([u, d], axis=1), axis=0)
        return pa.table(
            {
                "user_id": pa.array(uniq[:, 0], pa.int64()),
                "day": pa.array(uniq[:, 1], pa.int64()),
            }
        )

    _part_schema = pa.schema(
        [("day", pa.int64()), ("n", pa.int64()), ("n_new", pa.int64())]
    )

    def _per_user(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _part_schema.empty_table()
        u = t["user_id"].to_numpy()
        d = t["day"].to_numpy()
        uniq = np.unique(np.stack([u, d], axis=1), axis=0)
        u, d = uniq[:, 0], uniq[:, 1]
        starts = sg.segment_starts(u)
        is_first = np.zeros(len(u), np.int64)
        is_first[starts] = 1  # rows sorted by (user, day): first = min day
        t2 = pa.table(
            {
                "day": pa.array(d, pa.int64()),
                "n": pa.array(np.ones(len(d), np.int64)),
                "n_new": pa.array(is_first, pa.int64()),
            }
        )
        return _pa_group_sum(t2, ["day"], ["n", "n_new"])

    def _finish(batch: pa.Table) -> pa.Table:
        n = batch["n"].to_numpy()
        n_new = batch["n_new"].to_numpy()
        return pa.table(
            {
                "day": batch["day"],
                "n_users": batch["n"],
                "n_new": batch["n_new"],
                "new_rate": pa.array(n_new.astype(np.float64) / n),
            }
        )

    ev = _rp(sf_dir, "events", ["user_id", "ts"])
    pairs = ev.map_batches(_pairs, batch_format="pyarrow")
    partials = map_partitions_by_key(pairs, "user_id", _per_user, num_partitions=16)
    return _tiny_group_sum(partials, ["day"], ["n", "n_new"]).map_batches(
        _finish, batch_format="pyarrow"
    )


@register(
    "key_skew_report",
    """
    WITH c AS (SELECT user_id, CAST(COUNT(*) AS BIGINT) AS cnt
               FROM events GROUP BY 1)
    SELECT CAST(length(bin(cnt)) - 1 AS BIGINT) AS bucket,
      CAST(COUNT(*) AS BIGINT) AS n_keys,
      CAST(SUM(cnt) AS BIGINT) AS n_rows,
      CAST(MAX(cnt) AS BIGINT) AS max_cnt
    FROM c GROUP BY 1
    """,
)
def q_key_skew_report(sf_dir: str):
    """SHUFFLE-SKEW DIAGNOSTICS — the log2 histogram of per-key row
    counts (keys per power-of-two bucket, rows they hold, the largest
    key) that tells an operator author whether a planned groupby key
    is safe or needs the hot-key split plan (`stages/hotkeys.py` makes
    that decision online with a Misra-Gries sketch; this query is the
    offline audit report of the same distribution).

    Exactness: bucket = floor(log2(cnt)) computed as the binary
    exponent via np.frexp (exact for cnt < 2^53 — no float log2
    rounding risk at exact powers of two), mirrored in SQL as
    length(bin(cnt))-1.  Plan: per-batch (user, partial-count)
    combiner -> ONE user-keyed exchange summing true per-key counts ->
    per-partition bucket partials (sum/sum/max) -> one tiny merge."""
    from multimedia_indexing_ray.stages.partition import map_partitions_by_key

    def _partial(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "user_id": batch["user_id"],
                "cnt": pa.array(np.ones(batch.num_rows, np.int64)),
            }
        )
        return _pa_group_sum(t, ["user_id"], ["cnt"])

    _bucket_schema = pa.schema(
        [
            ("bucket", pa.int64()),
            ("n_keys", pa.int64()),
            ("n_rows", pa.int64()),
            ("max_cnt", pa.int64()),
        ]
    )

    def _bucketize(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _bucket_schema.empty_table()
        g = _pa_group_sum(t, ["user_id"], ["cnt"])
        cnt = g["cnt"].to_numpy()
        bucket = (np.frexp(cnt.astype(np.float64))[1] - 1).astype(np.int64)
        t2 = pa.table(
            {
                "bucket": pa.array(bucket, pa.int64()),
                "n_keys": pa.array(np.ones(len(cnt), np.int64)),
                "n_rows": pa.array(cnt, pa.int64()),
                "max_cnt": pa.array(cnt, pa.int64()),
            }
        )
        gb = pa.TableGroupBy(t2, ["bucket"]).aggregate(
            [("n_keys", "sum"), ("n_rows", "sum"), ("max_cnt", "max")]
        )
        return pa.table(
            {
                "bucket": gb["bucket"],
                "n_keys": gb["n_keys_sum"],
                "n_rows": gb["n_rows_sum"],
                "max_cnt": gb["max_cnt_max"],
            }
        )

    def _merge(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _bucket_schema.empty_table()
        gb = pa.TableGroupBy(t, ["bucket"]).aggregate(
            [("n_keys", "sum"), ("n_rows", "sum"), ("max_cnt", "max")]
        )
        return pa.table(
            {
                "bucket": gb["bucket"],
                "n_keys": gb["n_keys_sum"],
                "n_rows": gb["n_rows_sum"],
                "max_cnt": gb["max_cnt_max"],
            }
        )

    ev = _rp(sf_dir, "events", ["user_id"])
    partials = ev.map_batches(_partial, batch_format="pyarrow")
    buckets = map_partitions_by_key(partials, "user_id", _bucketize,
                                    num_partitions=16)
    return buckets.repartition(1).map_batches(
        _merge, batch_format="pyarrow", batch_size=None
    )


# Z-order bit interleave: value bucket v into ODD bit positions, time
# bucket t into EVEN positions (10 bits each -> 20-bit key).  The SQL
# expression is generated to mirror the numpy kernel term by term.
_Z_TERMS_SQL = " + ".join(
    f"(((v >> {i}) & 1) << {2 * i + 1}) + (((t >> {i}) & 1) << {2 * i})"
    for i in range(10)
)


def _zorder_interleave(v: np.ndarray, t: np.ndarray) -> np.ndarray:
    z = np.zeros(len(v), np.int64)
    for i in range(10):
        z += ((v >> i) & 1) << (2 * i + 1)
        z += ((t >> i) & 1) << (2 * i)
    return z


@register(
    "zorder_zonemap",
    f"""
    WITH m AS (SELECT CAST(MIN(epoch_us(ts) // 3600000000) AS BIGINT) AS hmin
               FROM events),
    s AS (SELECT
            GREATEST(LEAST({_CENTS_SQL.format(col='value')} // 50, 1023), 0) AS v,
            LEAST(CAST(epoch_us(ts) // 3600000000 AS BIGINT)
                  - (SELECT hmin FROM m), 1023) AS t,
            {_CENTS_SQL.format(col='value')} AS cents,
            CAST(epoch_us(ts) // 3600000000 AS BIGINT)
              - (SELECT hmin FROM m) AS hoff
          FROM events),
    z AS (SELECT ({_Z_TERMS_SQL}) AS zkey, cents, hoff FROM s)
    SELECT CAST(zkey >> 14 AS BIGINT) AS cell,
      CAST(COUNT(*) AS BIGINT) AS n_rows,
      CAST(MIN(cents) AS BIGINT) AS vmin_cents,
      CAST(MAX(cents) AS BIGINT) AS vmax_cents,
      CAST(MIN(hoff) AS BIGINT) AS hmin_off,
      CAST(MAX(hoff) AS BIGINT) AS hmax_off
    FROM z GROUP BY 1
    """,
)
def q_zorder_zonemap(sf_dir: str):
    """DATA-LAYOUT op: Z-ORDER (Morton) clustering cells + their ZONE
    MAPS.  A 100 TB table queried by BOTH value range and time range
    cannot be sorted to serve both; the standard layout answer is to
    interleave the bits of the two bucketized dimensions into one
    Morton key and cluster files by its prefix — every resulting cell
    is then TIGHT in both dimensions at once, so either predicate
    prunes most cells at the read (`read_parquet` row-group pruning
    against exactly these min/max zone maps).  This query computes the
    cell assignment (6-bit zkey prefix = a 128x128-bucket quad cell)
    and each cell's zone map (n_rows, min/max cents, min/max
    hour-offset); writing would be `write_parquet(partition_by=cell)`.

    Exactness: buckets are exact floor-division cents / hour offsets
    (hmin fixed by a 1-int min pass, same shape as tv_drift's); the
    interleave is integer bit arithmetic generated term-by-term into
    the SQL so both engines evaluate the identical expression.  Plan:
    min pass (2-int partials) -> vectorized map -> per-batch cell
    combiner (sum/min/max over <=64 cells) -> one tiny merge; no keyed
    exchange at all."""
    HOUR_US = 3_600_000_000

    mm = (
        _rp(sf_dir, "events", ["ts"])
        .map_batches(
            lambda b: pa.table(
                {
                    "hmin": pa.array(
                        [int(b["ts"].cast(pa.int64()).to_numpy().min() // HOUR_US)]
                        if b.num_rows
                        else [],
                        pa.int64(),
                    )
                }
            ),
            batch_format="pyarrow",
        )
        .to_pandas()
    )
    hmin = int(mm["hmin"].min())

    _cell_schema = pa.schema(
        [
            ("cell", pa.int64()),
            ("n_rows", pa.int64()),
            ("vmin_cents", pa.int64()),
            ("vmax_cents", pa.int64()),
            ("hmin_off", pa.int64()),
            ("hmax_off", pa.int64()),
        ]
    )

    def _agg_cells(t: pa.Table) -> pa.Table:
        gb = pa.TableGroupBy(t, ["cell"]).aggregate(
            [
                ("n_rows", "sum"),
                ("vmin_cents", "min"),
                ("vmax_cents", "max"),
                ("hmin_off", "min"),
                ("hmax_off", "max"),
            ]
        )
        return pa.table(
            {
                "cell": gb["cell"],
                "n_rows": gb["n_rows_sum"],
                "vmin_cents": gb["vmin_cents_min"],
                "vmax_cents": gb["vmax_cents_max"],
                "hmin_off": gb["hmin_off_min"],
                "hmax_off": gb["hmax_off_max"],
            }
        )

    def _partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return _cell_schema.empty_table()
        cents = _cents(batch["value"].to_numpy(zero_copy_only=False)).astype(np.int64)
        hoff = batch["ts"].cast(pa.int64()).to_numpy() // HOUR_US - hmin
        v = np.clip(np.floor_divide(cents, 50), 0, 1023)
        t = np.minimum(hoff, 1023)
        cell = _zorder_interleave(v, t) >> 14
        return _agg_cells(
            pa.table(
                {
                    "cell": pa.array(cell, pa.int64()),
                    "n_rows": pa.array(np.ones(len(cell), np.int64)),
                    "vmin_cents": pa.array(cents, pa.int64()),
                    "vmax_cents": pa.array(cents, pa.int64()),
                    "hmin_off": pa.array(hoff, pa.int64()),
                    "hmax_off": pa.array(hoff, pa.int64()),
                }
            )
        )

    def _merge(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _cell_schema.empty_table()
        return _agg_cells(t)

    ev = _rp(sf_dir, "events", ["ts", "value"])
    return (
        ev.map_batches(_partial, batch_format="pyarrow")
        .repartition(1)
        .map_batches(_merge, batch_format="pyarrow", batch_size=None)
    )


# --------------------------------------------------------------------------
# round 5l: classification eval (confusion/per-class metrics), nucleus
# per-source token-budget selection, CUSUM change-point, seasonal residuals
# --------------------------------------------------------------------------


@register(
    "langid_confusion",
    f"""
    WITH p AS ({_LANGID_SQL})
    SELECT d.lang AS lang_true, p.lang_pred, CAST(COUNT(*) AS BIGINT) AS n
    FROM documents d JOIN p USING (doc_id) GROUP BY 1, 2
    """,
)
def q_langid_confusion(sf_dir: str):
    """CLASSIFIER-EVAL confusion matrix: the langid heuristic's
    predictions against the corpus's `lang` labels — the table every
    pipeline emits before trusting a model's output as a routing/
    filter key (here: before `balance_by_lang` / `chi2_term_lang`
    condition on predicted language).  Reuses the SHARED `langid`
    kernel/SQL so the label rule cannot drift from the other
    langid-conditioned queries.

    Plan: one map computes (lang_true, lang_pred) per doc; the counts
    are a <=|langs|^2-group `_tiny_group_sum` — pure partial
    aggregation, no keyed exchange."""
    docs = _rp(sf_dir, "documents", ["doc_id", "text", "lang"])

    def _fn(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "lang_true": batch["lang"],
                "lang_pred": pa.array(langid(batch["text"]), pa.string()),
                "n": pa.array(np.ones(batch.num_rows, np.int64)),
            }
        )
        return _pa_group_sum(t, ["lang_true", "lang_pred"], ["n"])

    return _tiny_group_sum(
        docs.map_batches(_fn, batch_format="pyarrow"), ["lang_true", "lang_pred"], ["n"]
    )


@register(
    "langid_class_metrics",
    f"""
    WITH p AS ({_LANGID_SQL}),
    cm AS (SELECT d.lang AS lang_true, p.lang_pred, CAST(COUNT(*) AS BIGINT) AS n
           FROM documents d JOIN p USING (doc_id) GROUP BY 1, 2),
    cls AS (SELECT DISTINCT lang_true AS lang FROM cm
            UNION SELECT DISTINCT lang_pred FROM cm),
    s AS (SELECT cls.lang,
        CAST(COALESCE(SUM(CASE WHEN cm.lang_true = cls.lang
                                AND cm.lang_pred = cls.lang THEN cm.n END), 0)
             AS BIGINT) AS tp,
        CAST(COALESCE(SUM(CASE WHEN cm.lang_pred = cls.lang
                                AND cm.lang_true != cls.lang THEN cm.n END), 0)
             AS BIGINT) AS fp,
        CAST(COALESCE(SUM(CASE WHEN cm.lang_true = cls.lang
                                AND cm.lang_pred != cls.lang THEN cm.n END), 0)
             AS BIGINT) AS fn
      FROM cls LEFT JOIN cm ON true GROUP BY 1),
    m AS (SELECT lang, tp, fp, fn,
        CASE WHEN tp + fp > 0 THEN CAST(tp AS DOUBLE) / (tp + fp) END AS precision,
        CASE WHEN tp + fn > 0 THEN CAST(tp AS DOUBLE) / (tp + fn) END AS recall
      FROM s)
    SELECT lang, tp, fp, fn, precision, recall,
      CASE WHEN precision + recall > 0
           THEN 2 * precision * recall / (precision + recall) END AS f1
    FROM m
    """,
)
def q_langid_class_metrics(sf_dir: str):
    """Per-class precision/recall/F1 from the langid confusion matrix
    (one-vs-rest over the union of true and predicted classes) — with
    `auc_value_purchase`, `calibration_bins` and `pr_at_thresholds`
    this completes the eval-metrics family for categorical outputs.

    Exactness: tp/fp/fn are int64 confusion sums; precision/recall are
    ONE int/int division each and F1 uses the same ((2*p)*r)/(p+r)
    tree as `pr_at_thresholds` — bit-exact.  Plan: the confusion
    matrix is the aggregate (same plan as `langid_confusion`); the
    per-class pivot runs on the driver over <=|langs|^2 rows."""
    docs = _rp(sf_dir, "documents", ["doc_id", "text", "lang"])

    def _fn(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "lang_true": batch["lang"],
                "lang_pred": pa.array(langid(batch["text"]), pa.string()),
                "n": pa.array(np.ones(batch.num_rows, np.int64)),
            }
        )
        return _pa_group_sum(t, ["lang_true", "lang_pred"], ["n"])

    cm = _tiny_group_sum(
        docs.map_batches(_fn, batch_format="pyarrow"), ["lang_true", "lang_pred"], ["n"]
    ).to_pandas()
    classes = sorted(set(cm["lang_true"]) | set(cm["lang_pred"]))
    tru = cm["lang_true"].to_numpy()
    prd = cm["lang_pred"].to_numpy()
    n = cm["n"].to_numpy()
    tp = np.array([n[(tru == c) & (prd == c)].sum() for c in classes], np.int64)
    fp = np.array([n[(prd == c) & (tru != c)].sum() for c in classes], np.int64)
    fn = np.array([n[(tru == c) & (prd != c)].sum() for c in classes], np.int64)
    with np.errstate(invalid="ignore", divide="ignore"):
        precision = tp.astype(np.float64) / (tp + fp)
        recall = tp.astype(np.float64) / (tp + fn)
        f1 = 2 * precision * recall / (precision + recall)
    prec_null = (tp + fp) == 0
    rec_null = (tp + fn) == 0
    f1_null = prec_null | rec_null | ~(
        np.nan_to_num(precision) + np.nan_to_num(recall) > 0
    )
    return pa.table(
        {
            "lang": pa.array(classes, pa.string()),
            "tp": pa.array(tp, pa.int64()),
            "fp": pa.array(fp, pa.int64()),
            "fn": pa.array(fn, pa.int64()),
            "precision": pa.array(np.nan_to_num(precision), pa.float64(), mask=prec_null),
            "recall": pa.array(np.nan_to_num(recall), pa.float64(), mask=rec_null),
            "f1": pa.array(np.nan_to_num(f1), pa.float64(), mask=f1_null),
        }
    )


_STOPW_RE = r"\b(the|and|of|a|to|in|is|it)\b"
_TOKEN_RE = r"\S+"


@register(
    "nucleus_select_docs",
    rf"""
    WITH f AS (SELECT doc_id, source,
        CAST(len(regexp_extract_all(text, '{_STOPW_RE}')) AS BIGINT) AS quality,
        CAST(len(regexp_extract_all(text, '{_TOKEN_RE}')) AS BIGINT) AS n_tokens
      FROM documents),
    w AS (SELECT *,
        CAST(COALESCE(SUM(n_tokens) OVER (
          PARTITION BY source ORDER BY quality DESC, doc_id
          ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS BIGINT)
          AS cum_before,
        CAST(SUM(n_tokens) OVER (PARTITION BY source) AS BIGINT) AS total
      FROM f)
    SELECT doc_id, source, quality, n_tokens FROM w
    WHERE cum_before < 4 * total // 5
    """,
)
def q_nucleus_select_docs(sf_dir: str):
    """NUCLEUS (top-p) CORPUS SELECTION — per source, keep the highest-
    quality documents until 80% of the source's token budget is spent
    (quality desc, doc_id asc; a doc is kept iff the tokens ranked
    strictly before it are under budget).  This is the quality-ranked
    counterpart of `mixture_resample_docs` (which reweights blindly)
    and `token_shard_docs` (which spends the budget in id order): the
    curation step that turns a quality score into a token-budgeted
    corpus cut.

    SCALE PLAN — no per-source ordered scan of the corpus: pass 1
    aggregates (source, quality) -> token sums (tiny: quality is a
    small-int score); the driver finds each source's quality CUTOFF
    bucket on that aggregate; pass 2 is a stateless filter (quality
    above cutoff -> keep, below -> drop) plus a keyed exchange of ONLY
    the boundary bucket's rows (one quality value per source) whose
    doc_id-ordered prefix spends the remaining budget.  Equivalent to
    the full (quality desc, doc_id) scan, but the only ordered work is
    the boundary sliver."""
    from multimedia_indexing_ray.stages.partition import map_partitions_by_key

    docs = _rp(sf_dir, "documents", ["doc_id", "source", "text"])

    def _feat(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "source": batch["source"],
                "quality": pa.array(tx.stopword_count(batch["text"]), pa.int64()),
                "n_tokens": pa.array(tx.token_count(batch["text"]), pa.int64()),
            }
        )

    feats = docs.map_batches(_feat, batch_format="pyarrow")

    def _hist_partial(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "source": batch["source"],
                "quality": batch["quality"],
                "n_tokens": batch["n_tokens"],
            }
        )
        return _pa_group_sum(t, ["source", "quality"], ["n_tokens"])

    hist = _tiny_group_sum(
        feats.map_batches(_hist_partial, batch_format="pyarrow"),
        ["source", "quality"],
        ["n_tokens"],
    ).to_pandas()

    # per-source cutoff: buckets in quality-desc order; kept while the
    # cumulative (incl.) stays <= budget; the first bucket whose prefix
    # is < budget but whose inclusion crosses it is the boundary
    plans: dict = {}
    for src, g in hist.groupby("source"):
        g = g.sort_values("quality", ascending=False)
        q = g["quality"].to_numpy()
        tok = g["n_tokens"].to_numpy()
        total = int(tok.sum())
        budget = 4 * total // 5
        cum_incl = np.cumsum(tok)
        cum_before = cum_incl - tok
        full_keep = cum_incl <= budget
        q_min_keep = int(q[full_keep].min()) if full_keep.any() else None
        bnd = (cum_before < budget) & (cum_incl > budget)
        q_bound = int(q[bnd][0]) if bnd.any() else None
        offset = int(cum_before[bnd][0]) if bnd.any() else 0
        plans[src] = (q_min_keep, q_bound, offset, budget)

    def _route(code: int):
        # code 1 = fully-kept buckets, 2 = boundary bucket rows
        def _fn(batch: pa.Table) -> pa.Table:
            src = batch["source"].to_numpy(zero_copy_only=False)
            qv = batch["quality"].to_numpy()
            keep = np.zeros(len(src), bool)
            for s in np.unique(src):
                q_min_keep, q_bound, _, _ = plans[s]
                m = src == s
                if code == 1 and q_min_keep is not None:
                    keep |= m & (qv >= q_min_keep)
                elif code == 2 and q_bound is not None:
                    keep |= m & (qv == q_bound)
            return batch.filter(pa.array(keep))

        return _fn

    kept = feats.map_batches(_route(1), batch_format="pyarrow")
    boundary = feats.map_batches(_route(2), batch_format="pyarrow")

    _schema = pa.schema(
        [
            ("doc_id", pa.int64()),
            ("source", pa.string()),
            ("quality", pa.int64()),
            ("n_tokens", pa.int64()),
        ]
    )

    def _boundary_prefix(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _schema.empty_table()
        src = t["source"].to_numpy(zero_copy_only=False)
        ids = t["doc_id"].to_numpy()
        tok = t["n_tokens"].to_numpy()
        order = np.lexsort((ids, src))
        src, ids, tok = src[order], ids[order], tok[order]
        starts = sg.segment_starts(src)
        cum = np.cumsum(tok)
        base = np.repeat(cum[starts] - tok[starts], sg.segment_counts(starts, len(src)))
        cum_within_before = cum - tok - base
        off = np.array([plans[s][2] for s in src], np.int64)
        bud = np.array([plans[s][3] for s in src], np.int64)
        keep = off + cum_within_before < bud
        return t.take(pa.array(order[keep]))

    boundary_kept = map_partitions_by_key(
        boundary, "source", _boundary_prefix, num_partitions=8
    )
    return kept.union(boundary_kept)


@register(
    "cusum_changepoint_by_type",
    """
    WITH d AS (SELECT event_type,
                 CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day,
                 CAST(COUNT(*) AS BIGINT) AS c
               FROM events GROUP BY 1, 2),
    w AS (SELECT event_type, day, c,
            CAST(SUM(c) OVER (PARTITION BY event_type ORDER BY day) AS BIGINT)
              AS cum,
            CAST(ROW_NUMBER() OVER (PARTITION BY event_type ORDER BY day)
                 AS BIGINT) AS k,
            CAST(SUM(c) OVER (PARTITION BY event_type) AS BIGINT) AS t,
            CAST(COUNT(*) OVER (PARTITION BY event_type) AS BIGINT) AS n
          FROM d),
    s AS (SELECT event_type, day, k, n, t, ABS(n * cum - k * t) AS dev FROM w)
    SELECT event_type, n AS n_days, t AS total, day AS day_star, k AS k_star,
      CAST(dev AS BIGINT) AS s_max,
      CASE WHEN n * t > 0 THEN CAST(dev AS DOUBLE) / (n * t) END AS s_norm
    FROM s
    QUALIFY ROW_NUMBER() OVER (PARTITION BY event_type
                               ORDER BY dev DESC, day) = 1
    """,
)
def q_cusum_changepoint_by_type(sf_dir: str):
    """CHANGE-POINT DETECTION (CUSUM, Page 1954): per event type, the
    day where the cumulative daily-count curve deviates most from the
    uniform-rate line — the volume-shift monitor a pipeline runs on a
    source before retraining on its latest window (a feed that doubled
    its rate mid-month shows up here, not in the mean).

    Exactness: with k = day rank, n = #observed days, T = total and
    cum_k the running count, the deviation is the exact INTEGER
    |n*cum_k - k*T| (the uniform line scaled by n — no float drift in
    the argmax); ties break to the earliest day, and the one
    normalized double is a single division by n*T.  Plan: per-batch
    (type, day) count combiner -> `_tiny_group_sum` (O(types x days)
    rows) -> per-type segmented argmax on the driver block."""

    def _partial(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "event_type": batch["event_type"],
                "day": pa.array(
                    batch["ts"].cast(pa.int64()).to_numpy() // 86_400_000_000,
                    pa.int64(),
                ),
                "c": pa.array(np.ones(batch.num_rows, np.int64)),
            }
        )
        return _pa_group_sum(t, ["event_type", "day"], ["c"])

    _out_schema = pa.schema(
        [
            ("event_type", pa.string()),
            ("n_days", pa.int64()),
            ("total", pa.int64()),
            ("day_star", pa.int64()),
            ("k_star", pa.int64()),
            ("s_max", pa.int64()),
            ("s_norm", pa.float64()),
        ]
    )

    def _finish(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return _out_schema.empty_table()
        et = batch["event_type"].to_numpy(zero_copy_only=False)
        day = batch["day"].to_numpy()
        c = batch["c"].to_numpy()
        order = np.lexsort((day, et))
        et, day, c = et[order], day[order], c[order]
        starts = sg.segment_starts(et)
        cnts = sg.segment_counts(starts, len(et))
        rows = []
        for i, s0 in enumerate(starts):
            e = s0 + cnts[i]
            cd, cc = day[s0:e], c[s0:e]
            n = len(cd)
            t_tot = int(cc.sum())
            cum = np.cumsum(cc)
            k = np.arange(1, n + 1, dtype=np.int64)
            dev = np.abs(n * cum - k * t_tot)
            j = int(np.argmax(dev))  # np.argmax takes the FIRST max = earliest day
            s_norm = float(dev[j]) / (n * t_tot) if n * t_tot > 0 else None
            rows.append(
                (et[s0], n, t_tot, int(cd[j]), int(k[j]), int(dev[j]), s_norm)
            )
        cols = list(zip(*rows))
        return pa.table(
            {
                "event_type": pa.array(list(cols[0]), pa.string()),
                "n_days": pa.array(list(cols[1]), pa.int64()),
                "total": pa.array(list(cols[2]), pa.int64()),
                "day_star": pa.array(list(cols[3]), pa.int64()),
                "k_star": pa.array(list(cols[4]), pa.int64()),
                "s_max": pa.array(list(cols[5]), pa.int64()),
                "s_norm": pa.array(
                    [x if x is not None else 0.0 for x in cols[6]],
                    pa.float64(),
                    mask=np.array([x is None for x in cols[6]]),
                ),
            }
        )

    ev = _rp(sf_dir, "events", ["event_type", "ts"])
    return _tiny_group_sum(
        ev.map_batches(_partial, batch_format="pyarrow"), ["event_type", "day"], ["c"]
    ).map_batches(_finish, batch_format="pyarrow", batch_size=None)


@register(
    "seasonal_residual_by_hour",
    f"""
    WITH e AS (SELECT event_id, event_type,
                 CAST(epoch_us(ts) // 3600000000 % 24 AS BIGINT) AS hod,
                 {_CENTS_SQL.format(col='value')} AS cents
               FROM events),
    m AS (SELECT event_type, hod, CAST(SUM(cents) AS BIGINT) AS s,
                 CAST(COUNT(*) AS BIGINT) AS cnt
          FROM e GROUP BY 1, 2)
    SELECT e.event_id, e.event_type, e.hod, e.cents, m.cnt AS grp_n,
      CAST(e.cents * m.cnt - m.s AS BIGINT) AS res_num,
      CAST(e.cents * m.cnt - m.s AS DOUBLE) / m.cnt AS residual
    FROM e JOIN m USING (event_type, hod)
    """,
)
def q_seasonal_residual_by_hour(sf_dir: str):
    """SEASONAL-BASELINE residual — each event's value minus its
    (event_type, hour-of-day) mean: the deseasonalized signal that
    anomaly monitors threshold instead of the raw value (a $50
    purchase at 3am is the outlier, not the $50 at noon).  Joins the
    anomaly family (`outlier_events_p99`, `zscore_value_per_user`)
    with a CALENDAR-conditioned baseline.

    Exactness: the mean is kept as the exact rational (sum, count) —
    res_num = cents*cnt - sum is int64 (exact while a group's
    cents*count < 2^63; at 100 TB partition the day range first) and
    the residual double is ONE division by cnt.  Plan: per-batch
    (type, hod) sum/count combiner -> 120-row aggregate broadcast via
    `ray.put` -> stateless decorate map; the event rows never
    shuffle (the J1/J2 broadcast-join shape)."""
    import ray as _ray

    HOUR_US = 3_600_000_000

    def _partial(batch: pa.Table) -> pa.Table:
        cents = _cents(batch["value"].to_numpy(zero_copy_only=False)).astype(np.int64)
        t = pa.table(
            {
                "event_type": batch["event_type"],
                "hod": pa.array(
                    batch["ts"].cast(pa.int64()).to_numpy() // HOUR_US % 24, pa.int64()
                ),
                "s": pa.array(cents, pa.int64()),
                "cnt": pa.array(np.ones(len(cents), np.int64)),
            }
        )
        return _pa_group_sum(t, ["event_type", "hod"], ["s", "cnt"])

    ev = _rp(sf_dir, "events", ["event_id", "event_type", "ts", "value"])
    means = _tiny_group_sum(
        ev.map_batches(_partial, batch_format="pyarrow"),
        ["event_type", "hod"],
        ["s", "cnt"],
    ).to_pandas()
    lut = {
        (r.event_type, int(r.hod)): (int(r.s), int(r.cnt))
        for r in means.itertuples()
    }
    ref = _ray.put(lut)

    def _decorate(batch: pa.Table) -> pa.Table:
        m = _ray.get(ref)
        et = batch["event_type"].to_numpy(zero_copy_only=False)
        hod = batch["ts"].cast(pa.int64()).to_numpy() // HOUR_US % 24
        cents = _cents(batch["value"].to_numpy(zero_copy_only=False)).astype(np.int64)
        s = np.empty(len(et), np.int64)
        cnt = np.empty(len(et), np.int64)
        # group count is tiny (|types| x 24): iterate GROUPS, not rows
        for (t_, h_), (sv, cv) in m.items():
            sel = (et == t_) & (hod == h_)
            s[sel] = sv
            cnt[sel] = cv
        num = cents * cnt - s
        return pa.table(
            {
                "event_id": batch["event_id"],
                "event_type": batch["event_type"],
                "hod": pa.array(hod, pa.int64()),
                "cents": pa.array(cents, pa.int64()),
                "grp_n": pa.array(cnt, pa.int64()),
                "res_num": pa.array(num, pa.int64()),
                "residual": pa.array(num.astype(np.float64) / cnt, pa.float64()),
            }
        )

    return ev.map_batches(_decorate, batch_format="pyarrow")


# --------------------------------------------------------------------------
# round 5m: debounce/rate-limit, per-group deterministic sampling,
# time-in-state aggregation
# --------------------------------------------------------------------------


@register(
    "debounce_events",
    """
    WITH RECURSIVE r(event_id, user_id, ts, kept) AS (
      SELECT event_id, user_id, ts, CAST(NULL AS BOOLEAN) FROM events
      UNION ALL
      SELECT event_id, user_id, ts,
        CASE WHEN rn = 1 THEN TRUE
             WHEN epoch_us(ts) < first_us + 1800000000 THEN FALSE
        END
      FROM (
        SELECT event_id, user_id, ts,
          ROW_NUMBER() OVER (PARTITION BY user_id
                             ORDER BY ts, event_id) AS rn,
          FIRST_VALUE(epoch_us(ts)) OVER (PARTITION BY user_id
                             ORDER BY ts, event_id) AS first_us
        FROM r WHERE kept IS NULL
      ) s
    )
    SELECT event_id, user_id, ts FROM r WHERE kept
    """,
)
def q_debounce_events(sf_dir: str):
    """DEBOUNCE / cooldown rate-limit — per user, keep an event only if
    at least 30 minutes have passed since the last KEPT event (first
    event always kept): the alert-dedup / at-most-one-per-cooldown
    primitive.  This is NOT sessionize: the recurrence depends on the
    last kept row (greedy independent set on the timeline), so no
    single window/cumsum expresses it — it joins `pack_context_windows`
    as the second genuinely-sequential operator, and uses the same
    vectorized FRONTIER sweep (`functions/packing.py:debounce_frontier`:
    each pass keeps every user's first unresolved event and resolves
    the events inside its window, across all users simultaneously) with
    the same unrolled-frontier recursive-CTE oracle shape — so the
    frontier-vs-sequential equivalence is hash-checked end-to-end.

    Plan: ONE user_id-keyed exchange of slim (event_id, ts) rows; the
    per-partition kernel lexsorts by (user, ts, event_id) and runs the
    frontier.  Ties at the same microsecond: only the min event_id can
    be kept (any W > 0 suppresses its same-instant peers)."""
    from multimedia_indexing_ray.functions.packing import debounce_frontier
    from multimedia_indexing_ray.stages.partition import map_partitions_by_key

    W_US = 1_800_000_000

    _schema = pa.schema(
        [("event_id", pa.int64()), ("user_id", pa.int64()),
         ("ts", pa.timestamp("us"))]
    )

    def _debounce(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _schema.empty_table()
        uid = t["user_id"].to_numpy()
        eid = t["event_id"].to_numpy()
        ts = t["ts"].cast(pa.int64()).to_numpy()
        order = np.lexsort((eid, ts, uid))
        keep = debounce_frontier(uid[order], ts[order], W_US)
        return t.take(pa.array(order[keep]))

    ev = _rp(sf_dir, "events", ["event_id", "user_id", "ts"])
    return map_partitions_by_key(ev, "user_id", _debounce, num_partitions=16)


@register(
    "group_sample_k",
    f"""
    SELECT event_id, user_id, h FROM (
      SELECT event_id, user_id,
        CAST({_FNV_SQL.format(col='event_id')} AS BIGINT) AS h,
        ROW_NUMBER() OVER (PARTITION BY user_id ORDER BY
          {_FNV_SQL.format(col='event_id')}, event_id) AS rn
      FROM events) s
    WHERE rn <= 3
    """,
)
def q_group_sample_k(sf_dir: str):
    """PER-GROUP DETERMINISTIC k-SAMPLE — for every user, the 3 events
    with the smallest content hash (FNV of the id, tie id asc): the
    distributed 'uniform k per key' sampler (bottom-k / KMV sketch
    semantics).  Same row wins on every run under ANY partitioning —
    the per-key counterpart of `sample_hash`'s corpus-level gate — and
    because min-hash survivors commute with union, each batch can be
    pre-trimmed to its own per-key top-3 BEFORE the exchange, so the
    shuffle carries <= 3 rows per (key, batch), never the raw table.

    Plan: per-batch segmented partial top-3 -> one user-keyed exchange
    of the slim survivors -> final segmented top-3 per key."""
    from multimedia_indexing_ray.stages.partition import map_partitions_by_key

    def _topk(t: pa.Table) -> pa.Table:
        uid = t["user_id"].to_numpy()
        eid = t["event_id"].to_numpy()
        h = t["h"].to_numpy() if "h" in t.column_names else (
            _fnv1a32(eid).astype(np.int64)
        )
        order = np.lexsort((eid, h, uid))
        uid_s = uid[order]
        starts = sg.segment_starts(uid_s)
        rank = np.arange(len(uid_s)) - np.repeat(
            starts, sg.segment_counts(starts, len(uid_s))
        )
        keep = order[rank < 3]
        return pa.table(
            {
                "event_id": pa.array(eid[keep], pa.int64()),
                "user_id": pa.array(uid[keep], pa.int64()),
                "h": pa.array(
                    h[keep] if "h" in t.column_names
                    else _fnv1a32(eid[keep]).astype(np.int64),
                    pa.int64(),
                ),
            }
        )

    def _partial(batch: pa.Table) -> pa.Table:
        eid = batch["event_id"].to_numpy()
        withh = batch.append_column(
            "h", pa.array(_fnv1a32(eid).astype(np.int64), pa.int64())
        )
        return _topk(withh)

    ev = _rp(sf_dir, "events", ["event_id", "user_id"])
    partials = ev.map_batches(_partial, batch_format="pyarrow")
    return map_partitions_by_key(partials, "user_id", _topk, num_partitions=16)


@register(
    "time_in_state_by_type",
    """
    WITH g AS (SELECT event_type,
        CAST(COALESCE(date_diff('microsecond', ts,
          lead(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id)), 0)
          AS BIGINT) AS dwell_us
      FROM events)
    SELECT event_type, CAST(SUM(dwell_us) AS BIGINT) AS dwell_us_total,
      CAST(COUNT(*) AS BIGINT) AS n,
      CAST(SUM(dwell_us) AS DOUBLE) / COUNT(*) AS mean_dwell_us
    FROM g GROUP BY 1
    """,
)
def q_time_in_state_by_type(sf_dir: str):
    """TIME-IN-STATE aggregation — treat each user's event stream as a
    state machine (the event type is the state entered) and charge the
    wall-clock until their NEXT event to the current state; a user's
    last event holds its state for 0 (no open-interval extrapolation).
    With `event_transition_probs` (where users go) and
    `event_type_streak` (how long runs last in events), this adds the
    missing WHERE-THE-TIME-GOES view of the state machine.

    Exactness: dwell is exact integer microseconds; the one mean
    double is a single int/int division.  Plan: ONE user-keyed
    exchange of slim (ts, event_id, type) rows; the partition kernel
    computes next-ts per row with a shifted compare (vectorized), then
    per-type int64 partials -> tiny merge."""
    from multimedia_indexing_ray.stages.partition import map_partitions_by_key

    _part_schema = pa.schema(
        [("event_type", pa.string()), ("dwell_us", pa.int64()),
         ("n", pa.int64())]
    )

    def _dwell(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _part_schema.empty_table()
        uid = t["user_id"].to_numpy()
        eid = t["event_id"].to_numpy()
        ts = t["ts"].cast(pa.int64()).to_numpy()
        et = t["event_type"].to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, ts, uid))
        uid, ts, et = uid[order], ts[order], et[order]
        dwell = np.zeros(len(ts), np.int64)
        if len(ts) > 1:
            same = uid[:-1] == uid[1:]
            dwell[:-1] = np.where(same, ts[1:] - ts[:-1], 0)
        t2 = pa.table(
            {
                "event_type": pa.array(et, pa.string()),
                "dwell_us": pa.array(dwell, pa.int64()),
                "n": pa.array(np.ones(len(ts), np.int64)),
            }
        )
        return _pa_group_sum(t2, ["event_type"], ["dwell_us", "n"])

    def _finish(batch: pa.Table) -> pa.Table:
        d = batch["dwell_us"].to_numpy()
        n = batch["n"].to_numpy()
        return pa.table(
            {
                "event_type": batch["event_type"],
                "dwell_us_total": batch["dwell_us"],
                "n": batch["n"],
                "mean_dwell_us": pa.array(d.astype(np.float64) / n),
            }
        )

    ev = _rp(sf_dir, "events", ["event_id", "user_id", "ts", "event_type"])
    partials = map_partitions_by_key(ev, "user_id", _dwell, num_partitions=16)
    return _tiny_group_sum(partials, ["event_type"], ["dwell_us", "n"]).map_batches(
        _finish, batch_format="pyarrow"
    )


# --------------------------------------------------------------------------
# round 5n: BPE merge training, Q21-style only-late-supplier blame,
# FK referential-integrity audit
# --------------------------------------------------------------------------

_BPE_ROUNDS = 8
_BPE_MARKER0 = 57344  # U+E000, private-use; corpus text never contains these


def _bpe_sql() -> str:
    """Unrolled {rounds}-round BPE-training oracle: words -> adjacent
    char-pair counts -> winner (count desc, pair asc) -> replace() the
    winner with the round's private-use marker -> recount.  DuckDB's
    replace() is greedy left-to-right non-overlapping, exactly
    matching pyarrow's replace_substring and Python str.replace."""
    parts = [
        r"WITH w0 AS (SELECT unnest(regexp_extract_all(text, '\S+')) AS w"
        " FROM documents)"
    ]
    for r in range(1, _BPE_ROUNDS + 1):
        parts.append(
            f""",
    c{r} AS (SELECT pair, CAST(COUNT(*) AS BIGINT) AS n FROM (
        SELECT unnest(list_transform(range(1, length(w)),
                      i -> w[i:i] || w[i+1:i+1])) AS pair
        FROM w{r - 1}) GROUP BY 1),
    b{r} AS (SELECT pair, n FROM c{r} ORDER BY n DESC, pair LIMIT 1),
    w{r} AS (SELECT replace(w, (SELECT pair FROM b{r}),
                            chr({_BPE_MARKER0 + r - 1})) AS w FROM w{r - 1})"""
        )
    unions = " UNION ALL ".join(
        f"SELECT CAST({r} AS BIGINT) AS round, pair, n FROM b{r}"
        for r in range(1, _BPE_ROUNDS + 1)
    )
    return "".join(parts) + "\n    " + unions


def _bpe_pair_counts_batch(texts: pa.ChunkedArray, merges) -> pa.Table:
    """Apply the merge list (pair string -> marker char) to the batch's
    text, then count adjacent non-whitespace char pairs inside each
    document over the batch's one codepoint array (`grams.pair_counts`);
    the pair key packs both code points into an int64."""
    for pair_str, marker in merges:
        texts = pc.replace_substring(texts, pattern=pair_str, replacement=marker)
    keys, n = grams.pair_counts(*grams.decode(texts), _BPE_WS)
    return pa.table({"pk": pa.array(keys, pa.int64()), "n": pa.array(n, pa.int64())})


@register("bpe_train_merges", _bpe_sql())
def q_bpe_train_merges(sf_dir: str):
    """BPE TOKENIZER TRAINING — the iterative merge-learning loop
    itself, not just one round's pair counts (`bpe_pair_counts` is the
    counting step; this LEARNS the merge table a training pipeline
    ships with the corpus).  8 rounds of: count adjacent symbol pairs
    across the corpus -> adopt the most frequent pair (ties to the
    lexicographically smallest, binary-collation == Python code-point
    order) -> rewrite every occurrence greedily left-to-right.  Merged
    symbols are private-use code points (U+E000+round), so round r's
    pairs can span earlier merges — real BPE, expressible to the
    oracle because DuckDB replace() shares pyarrow
    replace_substring's greedy non-overlap scan (verified: 'aaa' with
    'aa' -> 'Xa' on both).

    Scale plan: each round is ONE stateless corpus pass (apply the
    <= 8-entry merge list, count pairs vectorized over the batch's one
    codepoint array) into a `_tiny_group_sum` of (pair, n)
    partials — the aggregate is bounded by the live symbol alphabet
    squared, the same bounded-vocabulary regime as `bpe_pair_counts`;
    the driver only picks the per-round argmax.  Words never
    shuffle."""
    docs = _rp(sf_dir, "documents", ["text"])

    merges: "list[tuple[str, str]]" = []
    out_rows = []
    for r in range(1, _BPE_ROUNDS + 1):
        mlist = list(merges)

        def _partial(batch: pa.Table, _m=mlist) -> pa.Table:
            return _bpe_pair_counts_batch(batch["text"], _m)

        counts = _tiny_group_sum(
            docs.map_batches(_partial, batch_format="pyarrow"), ["pk"], ["n"]
        ).to_pandas()
        if len(counts) == 0:
            break
        pk = counts["pk"].to_numpy()
        n = counts["n"].to_numpy()
        pairs = [chr(int(k) >> 32) + chr(int(k) & 0xFFFFFFFF) for k in pk]
        best = min(range(len(pairs)), key=lambda i: (-int(n[i]), pairs[i]))
        out_rows.append((r, pairs[best], int(n[best])))
        merges.append((pairs[best], chr(_BPE_MARKER0 + r - 1)))

    return pa.table(
        {
            "round": pa.array([r for r, _, _ in out_rows], pa.int64()),
            "pair": pa.array([p for _, p, _ in out_rows], pa.string()),
            "n": pa.array([c for _, _, c in out_rows], pa.int64()),
        }
    )


@register(
    "late_supplier_blame",
    """
    WITH l AS (SELECT l_orderkey, l_suppkey, l_shipdate, o_orderdate
               FROM lineitem JOIN orders ON l_orderkey = o_orderkey
               WHERE o_orderstatus = 'F'),
    f AS (SELECT l_orderkey, l_suppkey,
            MAX(CASE WHEN l_shipdate > o_orderdate + INTERVAL 60 DAY
                     THEN 1 ELSE 0 END) AS late
          FROM l GROUP BY 1, 2),
    g AS (SELECT l_orderkey, CAST(COUNT(*) AS BIGINT) AS nsupp,
                 CAST(SUM(late) AS BIGINT) AS nlate
          FROM f GROUP BY 1)
    SELECT s_name, CAST(COUNT(*) AS BIGINT) AS numwait
    FROM f JOIN g USING (l_orderkey)
    JOIN supplier ON s_suppkey = l_suppkey
    WHERE f.late = 1 AND g.nsupp >= 2 AND g.nlate = 1
    GROUP BY 1
    """,
)
def q_late_supplier_blame(sf_dir: str):
    """TPC-H Q21's join shape (suppliers-who-kept-orders-waiting),
    adapted to this schema: for finalized orders ('F') shipped by
    several suppliers, blame the supplier who was the ONLY late one
    (late = shipped > 60 days after the order date) — the hardest
    classic shape still missing from the join matrix: a semi-join
    ('another supplier exists') AND an anti-join ('no OTHER supplier
    was late') against the same fact table, per group.

    Plan: both conditions collapse into per-order-group counts, so ONE
    orderkey exchange of slim tagged rows (order side: date; line
    side: supp + shipdate) suffices: the partition kernel maps each
    line to its order date via searchsorted, reduces (order, supp) ->
    any_late, then order -> (nsupp, nlate), and emits qualifying
    suppkey count partials; supplier names decorate via the broadcast
    dim join (J1).  No self-join materializes."""
    from multimedia_indexing_ray.stages.partition import map_partitions_by_key

    SIXTY_D_US = 60 * 86_400_000_000

    ords = _rp(sf_dir, "orders", ["o_orderkey", "o_orderstatus", "o_orderdate"])

    def _o(batch: pa.Table) -> pa.Table:
        keep = pc.equal(batch["o_orderstatus"], "F")
        b = batch.filter(keep)
        return pa.table(
            {
                "okey": b["o_orderkey"],
                "suppkey": pa.array(np.full(b.num_rows, -1, np.int64)),
                "ship_us": pa.array(np.zeros(b.num_rows, np.int64)),
                "od_us": pa.array(
                    b["o_orderdate"].cast(pa.int64()).to_numpy(zero_copy_only=False),
                    pa.int64(),
                ),
                "is_order": pa.array(np.ones(b.num_rows, np.int8)),
            }
        )

    li = _rp(sf_dir, "lineitem", ["l_orderkey", "l_suppkey", "l_shipdate"])

    def _l(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "okey": batch["l_orderkey"],
                "suppkey": batch["l_suppkey"],
                "ship_us": pa.array(
                    batch["l_shipdate"].cast(pa.int64()).to_numpy(zero_copy_only=False),
                    pa.int64(),
                ),
                "od_us": pa.array(np.zeros(batch.num_rows, np.int64)),
                "is_order": pa.array(np.zeros(batch.num_rows, np.int8)),
            }
        )

    both = ords.map_batches(_o, batch_format="pyarrow").union(
        li.map_batches(_l, batch_format="pyarrow")
    )

    _part_schema = pa.schema([("suppkey", pa.int64()), ("numwait", pa.int64())])

    def _blame(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _part_schema.empty_table()
        okey = t["okey"].to_numpy()
        supp = t["suppkey"].to_numpy()
        ship = t["ship_us"].to_numpy()
        od = t["od_us"].to_numpy()
        iso = t["is_order"].to_numpy().astype(bool)
        o_keys = np.sort(okey[iso])
        o_dates = od[iso][np.argsort(okey[iso], kind="stable")]
        if len(o_keys) == 0:  # partition holds only non-'F' lineitems
            return _part_schema.empty_table()
        lk, ls, lt = okey[~iso], supp[~iso], ship[~iso]
        pos = np.searchsorted(o_keys, lk)
        ok = (pos < len(o_keys)) & (o_keys[np.minimum(pos, len(o_keys) - 1)] == lk)
        lk, ls, lt, pos = lk[ok], ls[ok], lt[ok], pos[ok]
        if len(lk) == 0:
            return _part_schema.empty_table()
        late = (lt > o_dates[pos] + SIXTY_D_US).astype(np.int64)
        order = np.lexsort((ls, lk))
        lk, ls, late = lk[order], ls[order], late[order]
        # (order, supp) -> any late
        ch = np.flatnonzero((lk[1:] != lk[:-1]) | (ls[1:] != ls[:-1])) + 1
        starts = np.concatenate([[0], ch]).astype(np.int64)
        g_k = lk[starts]
        g_s = ls[starts]
        g_late = np.maximum.reduceat(late, starts)
        # order -> (nsupp, nlate)
        ostarts = sg.segment_starts(g_k)
        nsupp = sg.segment_counts(ostarts, len(g_k))
        nlate = np.add.reduceat(g_late, ostarts)
        nsupp_r = np.repeat(nsupp, nsupp)
        nlate_r = np.repeat(nlate, nsupp)
        pick = (g_late == 1) & (nsupp_r >= 2) & (nlate_r == 1)
        t2 = pa.table(
            {
                "suppkey": pa.array(g_s[pick], pa.int64()),
                "numwait": pa.array(np.ones(int(pick.sum()), np.int64)),
            }
        )
        return _pa_group_sum(t2, ["suppkey"], ["numwait"])

    waits = _tiny_group_sum(
        map_partitions_by_key(both, "okey", _blame, num_partitions=16),
        ["suppkey"],
        ["numwait"],
    )

    sup = _pq(sf_dir, "supplier", ["s_suppkey", "s_name"])
    names = dict(
        zip(sup["s_suppkey"].to_numpy().tolist(), sup["s_name"].to_pylist())
    )

    def _name(batch: pa.Table) -> pa.Table:
        sk = batch["suppkey"].to_numpy()
        t2 = pa.table(
            {
                "s_name": pa.array([names[int(k)] for k in sk], pa.string()),
                "numwait": batch["numwait"],
            }
        )
        return _pa_group_sum(t2, ["s_name"], ["numwait"])

    return waits.map_batches(_name, batch_format="pyarrow")


@register(
    "fk_integrity_audit",
    """
    SELECT 'orphan_lineitems' AS chk, CAST(COUNT(*) AS BIGINT) AS n
      FROM lineitem WHERE l_orderkey NOT IN (SELECT o_orderkey FROM orders)
    UNION ALL
    SELECT 'orphan_lineitem_keys', CAST(COUNT(DISTINCT l_orderkey) AS BIGINT)
      FROM lineitem WHERE l_orderkey NOT IN (SELECT o_orderkey FROM orders)
    UNION ALL
    SELECT 'childless_orders', CAST(COUNT(*) AS BIGINT)
      FROM orders WHERE o_orderkey NOT IN (SELECT l_orderkey FROM lineitem)
    UNION ALL
    SELECT 'matched_orders', CAST(COUNT(*) AS BIGINT)
      FROM orders WHERE o_orderkey IN (SELECT l_orderkey FROM lineitem)
    UNION ALL
    SELECT 'matched_lineitems', CAST(COUNT(*) AS BIGINT)
      FROM lineitem WHERE l_orderkey IN (SELECT o_orderkey FROM orders)
    UNION ALL
    SELECT 'duplicate_order_keys', CAST(COUNT(*) AS BIGINT) FROM
      (SELECT o_orderkey FROM orders GROUP BY 1 HAVING COUNT(*) > 1)
    """,
)
def q_fk_integrity_audit(sf_dir: str):
    """REFERENTIAL-INTEGRITY AUDIT — the data-quality gate a pipeline
    runs before trusting a foreign key for joins/partitioning: orphan
    child rows (and distinct orphan keys), childless parents, matched
    counts on both sides, and duplicated parent keys.  Six counts in
    ONE pass: both tables project to slim tagged key rows, one
    orderkey exchange co-locates each key's parent+child rows, and the
    partition kernel reduces per-key (n_parents, n_children) to count
    partials; the finish merges a 6-row table.  This is the audit the
    `late_supplier_blame` / `region_revenue` join plans assume clean.
    """
    from multimedia_indexing_ray.stages.partition import map_partitions_by_key

    ords = _rp(sf_dir, "orders", ["o_orderkey"])
    li = _rp(sf_dir, "lineitem", ["l_orderkey"])

    def _tag(col: str, side: int):
        def _fn(batch: pa.Table) -> pa.Table:
            n = batch.num_rows
            return pa.table(
                {
                    "okey": batch[col],
                    "side": pa.array(np.full(n, side, np.int8)),
                }
            )

        return _fn

    both = ords.map_batches(_tag("o_orderkey", 0), batch_format="pyarrow").union(
        li.map_batches(_tag("l_orderkey", 1), batch_format="pyarrow")
    )

    _part_schema = pa.schema([("chk", pa.string()), ("n", pa.int64())])
    _CHECKS = [
        "orphan_lineitems",
        "orphan_lineitem_keys",
        "childless_orders",
        "matched_orders",
        "matched_lineitems",
        "duplicate_order_keys",
    ]

    def _audit(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _part_schema.empty_table()
        okey = t["okey"].to_numpy()
        side = t["side"].to_numpy().astype(np.int64)
        order = np.argsort(okey, kind="stable")
        okey, side = okey[order], side[order]
        starts = sg.segment_starts(okey)
        n_par = np.add.reduceat(1 - side, starts)
        n_chi = np.add.reduceat(side, starts)
        # row-level counts (NOT key-level) for the order-side checks:
        # a duplicated parent key contributes each of its rows, exactly
        # like the oracle's NOT IN / IN row predicates
        vals = [
            int(n_chi[n_par == 0].sum()),
            int((n_par == 0).sum()),
            int(n_par[(n_par > 0) & (n_chi == 0)].sum()),
            int(n_par[(n_par > 0) & (n_chi > 0)].sum()),
            int(n_chi[n_par > 0].sum()),
            int((n_par > 1).sum()),
        ]
        return pa.table(
            {
                "chk": pa.array(_CHECKS, pa.string()),
                "n": pa.array(vals, pa.int64()),
            }
        )

    return _tiny_group_sum(
        map_partitions_by_key(both, "okey", _audit, num_partitions=16),
        ["chk"],
        ["n"],
    )


# --------------------------------------------------------------------------
# round 5o: ordered time-bounded funnel (windowFunnel), equi-depth
# range-partition planning
# --------------------------------------------------------------------------


@register(
    "window_funnel_levels",
    """
    WITH u AS (SELECT user_id FROM events GROUP BY 1),
    a AS (SELECT user_id, ts FROM events WHERE event_type = 'signup'),
    l2 AS (SELECT DISTINCT a.user_id FROM a
           JOIN events b ON b.user_id = a.user_id AND b.event_type = 'click'
            AND b.ts > a.ts
            AND epoch_us(b.ts) <= epoch_us(a.ts) + 259200000000),
    l3 AS (SELECT DISTINCT a.user_id FROM a
           JOIN events b ON b.user_id = a.user_id AND b.event_type = 'click'
            AND b.ts > a.ts
           JOIN events c ON c.user_id = a.user_id AND c.event_type = 'purchase'
            AND c.ts > b.ts
            AND epoch_us(c.ts) <= epoch_us(a.ts) + 259200000000)
    SELECT u.user_id,
      CAST(CASE WHEN u.user_id IN (SELECT user_id FROM l3) THEN 3
                WHEN u.user_id IN (SELECT user_id FROM l2) THEN 2
                WHEN u.user_id IN (SELECT user_id FROM a) THEN 1
                ELSE 0 END AS BIGINT) AS funnel_level
    FROM u
    """,
)
def q_window_funnel_levels(sf_dir: str):
    """ORDERED TIME-BOUNDED FUNNEL (ClickHouse windowFunnel): per user,
    the deepest prefix of signup -> click -> purchase completed with
    every step STRICTLY later than the previous and the whole chain
    within 3 days of its first step.  `session_funnel` answers the
    unordered within-session pair; this is the product-analytics chain
    with an explicit window anchored at the chain head.

    Equivalence note: the oracle is EXISTS-any-chain; the engine runs
    the greedy earliest chain, equal by the exchange argument (for a
    fixed head, taking the FIRST qualifying next step minimizes every
    later timestamp, so a chain exists iff the greedy one completes).
    Plan: ONE user-keyed exchange of slim (ts, step) rows; inside each
    partition the chain walks are `seg_next_true_idx` suffix scans
    (O(n) index-carry, no per-row search): next-click-after for signup
    rows, next-purchase-after for those clicks; same-microsecond peers
    are excluded by the sort priority (purchase < click < signup at
    equal ts), which is exactly the oracle's strict `>`."""
    from multimedia_indexing_ray.stages.partition import map_partitions_by_key

    W_US = 3 * 86_400_000_000
    _PRIO = {"purchase": 0, "click": 1, "signup": 2}

    def _slim(batch: pa.Table) -> pa.Table:
        et = batch["event_type"].to_numpy(zero_copy_only=False)
        prio = np.full(len(et), 3, np.int8)
        for name, p in _PRIO.items():
            prio[et == name] = p
        return pa.table(
            {
                "user_id": batch["user_id"],
                "ts_us": pa.array(
                    batch["ts"].cast(pa.int64()).to_numpy(), pa.int64()
                ),
                "prio": pa.array(prio, pa.int8()),
            }
        )

    _schema = pa.schema([("user_id", pa.int64()), ("funnel_level", pa.int64())])

    def _funnel(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _schema.empty_table()
        uid = t["user_id"].to_numpy()
        ts = t["ts_us"].to_numpy()
        prio = t["prio"].to_numpy()
        order = np.lexsort((prio, ts, uid))
        uid, ts, prio = uid[order], ts[order], prio[order]
        starts = sg.segment_starts(uid)
        next_b = sg.seg_next_true_idx(prio == 1, starts)
        next_c = sg.seg_next_true_idx(prio == 0, starts)
        is_a = prio == 2
        a_idx = np.flatnonzero(is_a)
        lvl = np.zeros(len(uid), np.int64)
        lvl[a_idx] = 1
        b = next_b[a_idx]
        has_b = b >= 0
        l2 = has_b & (ts[np.maximum(b, 0)] <= ts[a_idx] + W_US)
        lvl[a_idx[l2]] = 2
        c = np.where(has_b, next_c[np.maximum(b, 0)], -1)
        l3 = (c >= 0) & (ts[np.maximum(c, 0)] <= ts[a_idx] + W_US)
        lvl[a_idx[l3]] = 3
        best = np.maximum.reduceat(lvl, starts)
        return pa.table(
            {
                "user_id": pa.array(uid[starts], pa.int64()),
                "funnel_level": pa.array(best, pa.int64()),
            }
        )

    ev = _rp(sf_dir, "events", ["user_id", "ts", "event_type"])
    slim = ev.map_batches(_slim, batch_format="pyarrow")
    return map_partitions_by_key(slim, "user_id", _funnel, num_partitions=16)


@register(
    "range_partition_plan",
    f"""
    WITH v AS (SELECT {_CENTS_SQL.format(col='value')} AS c FROM events),
    r AS (SELECT c, row_number() OVER (ORDER BY c) AS rn,
                 count(*) OVER () AS n FROM v)
    SELECT CAST((16 * (rn - 1)) // n AS BIGINT) AS bucket,
      CAST(COUNT(*) AS BIGINT) AS n_rows,
      CAST(MIN(c) AS BIGINT) AS lo_cents,
      CAST(MAX(c) AS BIGINT) AS hi_cents
    FROM r GROUP BY 1
    """,
)
def q_range_partition_plan(sf_dir: str):
    """EQUI-DEPTH RANGE-PARTITION PLAN — the 16 split buckets a range
    partitioner / range-based `sort` would use on `value`, with each
    bucket's row count and [lo, hi] zone: the planning sibling of
    `key_skew_report` (hash keys) and `zorder_zonemap` (multi-dim),
    and exactly what Ray Data's sort boundary sampling estimates —
    computed EXACTLY here.  Bucket of the rank-rn row is
    (16*(rn-1))//n, so bucket sizes are fixed by rank arithmetic and
    every output column is tie-order-independent (tied values that
    straddle a boundary contribute identical min/max on both sides).

    Plan: the `value_quantiles_by_type` histogram method, global: one
    pass of per-batch (cents -> count) partials, ONE aggregate-sized
    exchange of histogram rows (bounded by distinct cents, never raw
    events), then rank arithmetic + two searchsorteds on the cumsum
    per bucket."""

    def _partial(batch: pa.Table) -> pa.Table:
        c = _cents(batch["value"].to_numpy(zero_copy_only=False)).astype(np.int64)
        uniq, cnt = np.unique(c, return_counts=True)
        return pa.table(
            {
                "c": pa.array(uniq, pa.int64()),
                "cnt": pa.array(cnt.astype(np.int64)),
            }
        )

    _schema = pa.schema(
        [
            ("bucket", pa.int64()),
            ("n_rows", pa.int64()),
            ("lo_cents", pa.int64()),
            ("hi_cents", pa.int64()),
        ]
    )

    def _finish(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return _schema.empty_table()
        c = batch["c"].to_numpy()
        cnt = batch["cnt"].to_numpy()
        order = np.argsort(c, kind="stable")
        c, cnt = c[order], cnt[order]
        cum = np.cumsum(cnt)
        n = int(cum[-1])
        k = np.arange(16, dtype=np.int64)
        # bucket k holds ranks with k <= 16*(rn-1)/n < k+1, i.e.
        # rn in [ceil(k*n/16)+1, ceil((k+1)*n/16)] — ceil, not floor
        lo_rank = (k * n + 15) // 16 + 1
        hi_rank = ((k + 1) * n + 15) // 16
        nonempty = hi_rank >= lo_rank
        k, lo_rank, hi_rank = k[nonempty], lo_rank[nonempty], hi_rank[nonempty]
        lo_val = c[np.searchsorted(cum, lo_rank, side="left")]
        hi_val = c[np.searchsorted(cum, hi_rank, side="left")]
        return pa.table(
            {
                "bucket": pa.array(k, pa.int64()),
                "n_rows": pa.array(hi_rank - lo_rank + 1, pa.int64()),
                "lo_cents": pa.array(lo_val, pa.int64()),
                "hi_cents": pa.array(hi_val, pa.int64()),
            }
        )

    ev = _rp(sf_dir, "events", ["value"])
    return _tiny_group_sum(
        ev.map_batches(_partial, batch_format="pyarrow"), ["c"], ["cnt"]
    ).map_batches(_finish, batch_format="pyarrow", batch_size=None)


# --------------------------------------------------------------------------
# round 5p: cross-source contamination matrix, time-to-event cohorts,
# per-doc shingle novelty
# --------------------------------------------------------------------------


def _pairs_within_segments(starts: np.ndarray, n: int):
    """All unordered (i < j) index pairs WITHIN each segment of a
    sorted array, fully vectorized (no per-segment loop): element at
    in-segment rank r pairs with the (c-1-r) elements after it."""
    cnts = sg.segment_counts(starts, n)
    rel = sg.rel_index(starts, n)
    k = np.repeat(cnts, cnts) - rel - 1  # partners following each row
    a = np.repeat(np.arange(n), k)
    total = int(k.sum())
    step = np.arange(total) - np.repeat(np.cumsum(k) - k, k) + 1
    b = a + step
    return a, b


@register(
    "source_overlap_matrix",
    f"""
    WITH g AS (SELECT doc_id, source,
                 unnest(range(1, greatest(length(text)-{_GRAM_CHARS - 2}, 1)))
                   AS i, text
               FROM documents),
    g2 AS (SELECT DISTINCT source,
             substr(text, CAST(i AS INTEGER), {_GRAM_CHARS}) AS gram FROM g)
    SELECT a.source AS src_a, b.source AS src_b,
      CAST(COUNT(*) AS BIGINT) AS n_shared_grams
    FROM g2 a JOIN g2 b ON a.gram = b.gram AND a.source < b.source
    GROUP BY 1, 2
    """,
)
def q_source_overlap_matrix(sf_dir: str):
    """CROSS-SOURCE CONTAMINATION MATRIX — for every pair of sources,
    the number of distinct 16-char grams they share: the corpus-
    governance table that says which feeds are re-crawling the same
    content (the pairwise, source-level view of what `dup_span_docs`
    measures per document and `decontaminate_docs` measures against a
    benchmark).  Grams are the same windows as `_span_grams`' over the
    batch's one codepoint array (exact bytes, SQL substr semantics, no
    hash collisions).

    Plan: per-batch distinct (gram, source) combiner (`grams.distinct`
    over the packed windows and source index) -> ONE gram-keyed
    exchange of slim binary rows -> per-gram sorted distinct sources expand to pairs
    with a vectorized within-segment triangle (`_pairs_within_segments`
    — no per-gram loop; pairs per gram <= |sources|^2) -> tiny
    (src_a, src_b) sum."""
    from multimedia_indexing_ray.stages.partition import map_partitions_by_key

    K = _GRAM_CHARS

    def _gram_src(batch: pa.Table) -> pa.Table:
        cp, starts = grams.decode(batch["text"])
        doc, first = grams.windows(starts, K)
        src_uniq, src_idx = np.unique(
            batch["source"].to_numpy(zero_copy_only=False), return_inverse=True
        )
        gv, si = grams.distinct(grams.window_values(cp, first, K), src_idx[doc])
        return pa.table(
            {"gram": grams.to_binary(gv), "source": pa.array(src_uniq[si], pa.string())}
        )

    _out_schema = pa.schema(
        [("src_a", pa.string()), ("src_b", pa.string()),
         ("n_shared_grams", pa.int64())]
    )

    def _expand(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _out_schema.empty_table()
        # distinct (gram, source) after the exchange
        gb, src = grams.distinct(
            grams.binary_view(t["gram"]), t["source"].to_numpy(zero_copy_only=False)
        )
        starts = sg.segment_starts(gb)
        a, b = _pairs_within_segments(starts, len(gb))
        if len(a) == 0:
            return _out_schema.empty_table()
        t2 = pa.table(
            {
                "src_a": pa.array(src[a], pa.string()),
                "src_b": pa.array(src[b], pa.string()),
                "n_shared_grams": pa.array(np.ones(len(a), np.int64)),
            }
        )
        return _pa_group_sum(t2, ["src_a", "src_b"], ["n_shared_grams"])

    docs = _rp(sf_dir, "documents", ["doc_id", "source", "text"])
    gs = docs.map_batches(_gram_src, batch_format="pyarrow")
    partials = map_partitions_by_key(gs, "gram", _expand, num_partitions=16)
    # the matrix is aggregate-sized (<= |sources|^2 rows): concat the
    # result blocks on the driver so a single-source corpus (ZERO pair
    # rows) still returns the typed empty table — Ray's to_pandas drops
    # the schema of an all-empty dataset
    import ray as _ray

    out = _tiny_group_sum(partials, ["src_a", "src_b"], ["n_shared_grams"])
    tbls = [
        t.select(_out_schema.names)
        for t in _ray.get(out.to_arrow_refs())
        if t.num_rows  # all-empty blocks may carry a degenerate schema
    ]
    return pa.concat_tables([_out_schema.empty_table(), *tbls])


@register(
    "time_to_purchase_by_cohort",
    """
    WITH s AS (SELECT user_id, MIN(ts) AS signup_ts FROM events
               WHERE event_type = 'signup' GROUP BY 1),
    p AS (SELECT s.user_id, s.signup_ts, MIN(e.ts) AS purch_ts
          FROM s JOIN events e ON e.user_id = s.user_id
           AND e.event_type = 'purchase' AND e.ts > s.signup_ts
          GROUP BY 1, 2),
    c AS (SELECT user_id,
            CAST(epoch_us(signup_ts) // 604800000000 AS BIGINT) AS cohort_week
          FROM s),
    d AS (SELECT c.cohort_week,
            date_diff('microsecond', p.signup_ts, p.purch_ts) AS tte_us
          FROM p JOIN c USING (user_id)),
    t AS (SELECT cohort_week, CAST(COUNT(*) AS BIGINT) AS n_signups
          FROM c GROUP BY 1),
    r AS (SELECT cohort_week, tte_us,
            row_number() OVER (PARTITION BY cohort_week ORDER BY tte_us) AS rn,
            count(*) OVER (PARTITION BY cohort_week) AS m
          FROM d),
    md AS (SELECT cohort_week, CAST(COUNT(*) AS BIGINT) AS n_converted,
             CAST(MIN(CASE WHEN rn = (m + 1) // 2 THEN tte_us END) AS BIGINT)
               AS median_tte_us
           FROM r GROUP BY 1)
    SELECT t.cohort_week, t.n_signups,
      CAST(COALESCE(md.n_converted, 0) AS BIGINT) AS n_converted,
      md.median_tte_us,
      CAST(COALESCE(md.n_converted, 0) AS DOUBLE) / t.n_signups
        AS conversion_rate
    FROM t LEFT JOIN md USING (cohort_week)
    """,
)
def q_time_to_purchase_by_cohort(sf_dir: str):
    """TIME-TO-EVENT (survival) COHORTS — per signup-week cohort: how
    many signed up, how many converted (first purchase STRICTLY after
    their first signup), the exact median time-to-purchase among
    converters (lower median, rank (m+1)//2 — the
    `value_quantiles_by_type` integer rank rule), and the conversion
    rate.  `retention_cohorts` asks 'did they come back'; this asks
    'how long until the jackpot event' — the funnel-latency view.

    Plan: exchange 1 on user_id (slim ts + type-code rows): per user a
    masked-reduceat pass finds first-signup and first-purchase-after
    (no per-user loop); exchange 2 on cohort_week computes the exact
    integer median per cohort (`mad_outlier_per_type`'s nested-median
    shape) plus the counts; one final double division."""
    from multimedia_indexing_ray.stages.partition import map_partitions_by_key

    WEEK_US = 604_800_000_000

    def _slim(batch: pa.Table) -> pa.Table:
        et = batch["event_type"].to_numpy(zero_copy_only=False)
        keep = (et == "signup") | (et == "purchase")
        b = batch.filter(pa.array(keep))
        return pa.table(
            {
                "user_id": b["user_id"],
                "ts_us": pa.array(b["ts"].cast(pa.int64()).to_numpy(), pa.int64()),
                "is_purch": pa.array(
                    (b["event_type"].to_numpy(zero_copy_only=False) == "purchase")
                    .astype(np.int8)
                ),
            }
        )

    _user_schema = pa.schema(
        [
            ("cohort_week", pa.int64()),
            ("converted", pa.int64()),
            ("tte_us", pa.int64()),
        ]
    )

    def _per_user(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _user_schema.empty_table()
        uid = t["user_id"].to_numpy()
        ts = t["ts_us"].to_numpy()
        isp = t["is_purch"].to_numpy().astype(bool)
        order = np.lexsort((ts, uid))
        uid, ts, isp = uid[order], ts[order], isp[order]
        starts = sg.segment_starts(uid)
        BIG = np.int64(2**62)
        s_ts = np.where(~isp, ts, BIG)
        first_signup = np.minimum.reduceat(s_ts, starts)
        has_signup = first_signup < BIG
        fs_rep = np.repeat(first_signup, sg.segment_counts(starts, len(uid)))
        p_ts = np.where(isp & (ts > fs_rep), ts, BIG)
        first_purch = np.minimum.reduceat(p_ts, starts)
        fs = first_signup[has_signup]
        fp = first_purch[has_signup]
        conv = fp < BIG
        return pa.table(
            {
                "cohort_week": pa.array(fs // WEEK_US, pa.int64()),
                "converted": pa.array(conv.astype(np.int64)),
                "tte_us": pa.array(np.where(conv, fp - fs, 0), pa.int64()),
            }
        )

    _out_schema = pa.schema(
        [
            ("cohort_week", pa.int64()),
            ("n_signups", pa.int64()),
            ("n_converted", pa.int64()),
            ("median_tte_us", pa.int64()),
            ("conversion_rate", pa.float64()),
        ]
    )

    def _per_cohort(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _out_schema.empty_table()
        cw = t["cohort_week"].to_numpy()
        conv = t["converted"].to_numpy()
        tte = t["tte_us"].to_numpy()
        order = np.lexsort((tte, cw))
        cw, conv, tte = cw[order], conv[order], tte[order]
        starts = sg.segment_starts(cw)
        n_signups = sg.segment_counts(starts, len(cw))
        n_conv = np.add.reduceat(conv, starts)
        # converted rows per cohort, sorted by tte: median at (m+1)//2
        med = np.zeros(len(starts), np.int64)
        for i, s0 in enumerate(starts):
            seg_tte = tte[s0 : s0 + n_signups[i]][
                conv[s0 : s0 + n_signups[i]] == 1
            ]
            if len(seg_tte):
                med[i] = np.sort(seg_tte)[(len(seg_tte) + 1) // 2 - 1]
        has_conv = n_conv > 0
        return pa.table(
            {
                "cohort_week": pa.array(cw[starts], pa.int64()),
                "n_signups": pa.array(n_signups, pa.int64()),
                "n_converted": pa.array(n_conv, pa.int64()),
                "median_tte_us": pa.array(med, pa.int64(), mask=~has_conv),
                "conversion_rate": pa.array(
                    n_conv.astype(np.float64) / n_signups, pa.float64()
                ),
            }
        )

    ev = _rp(sf_dir, "events", ["user_id", "ts", "event_type"])
    slim = ev.map_batches(_slim, batch_format="pyarrow")
    per_user = map_partitions_by_key(slim, "user_id", _per_user, num_partitions=16)
    return map_partitions_by_key(
        per_user, "cohort_week", _per_cohort, num_partitions=8
    )


@register(
    "shingle_novelty_docs",
    f"""
    WITH g AS (SELECT doc_id,
                 unnest(range(1, greatest(length(text)-{_GRAM_CHARS - 2}, 1)))
                   AS i, text
               FROM documents),
    g2 AS (SELECT DISTINCT doc_id,
             substr(text, CAST(i AS INTEGER), {_GRAM_CHARS}) AS gram FROM g),
    f AS (SELECT gram, CAST(MIN(doc_id) AS BIGINT) AS first_doc
          FROM g2 GROUP BY 1)
    SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS n_shingles,
      CAST(SUM(CASE WHEN f.first_doc = g2.doc_id THEN 1 ELSE 0 END) AS BIGINT)
        AS n_novel,
      CAST(SUM(CASE WHEN f.first_doc = g2.doc_id THEN 1 ELSE 0 END) AS DOUBLE)
        / COUNT(*) AS novelty
    FROM g2 JOIN f USING (gram) GROUP BY 1
    """,
)
def q_shingle_novelty_docs(sf_dir: str):
    """PER-DOC SHINGLE NOVELTY — the fraction of a document's distinct
    16-char grams whose corpus-wide FIRST holder (min doc_id, the
    dedup family's first-wins rule) is the document itself: 1.0 =
    genuinely new text, ~0 = re-crawled boilerplate.  The per-document
    counterpart of `new_user_rate_daily`'s novelty and the additive
    inverse view of `dup_span_docs` (which measures repeated MASS;
    this attributes each repeat to its first owner).

    Plan: per-batch distinct (gram, doc) via the `_span_grams` windows
    + `grams.distinct` -> ONE gram-keyed exchange; the per-gram
    kernel marks min-doc owners (rows arrive sorted per gram, so the
    owner is the segment head) and emits (doc, 1, is_first) partials;
    a second doc-keyed exchange sums them.  Both exchanges carry slim
    fixed-width rows only."""
    from multimedia_indexing_ray.stages.partition import map_partitions_by_key

    K = _GRAM_CHARS

    def _gram_doc(batch: pa.Table) -> pa.Table:
        cp, starts = grams.decode(batch["text"])
        doc, first = grams.windows(starts, K)
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        gv, did = grams.distinct(grams.window_values(cp, first, K), ids[doc])
        return pa.table({"gram": grams.to_binary(gv), "doc_id": pa.array(did, pa.int64())})

    _part_schema = pa.schema(
        [("doc_id", pa.int64()), ("n", pa.int64()), ("novel", pa.int64())]
    )

    def _first_owner(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _part_schema.empty_table()
        gb, did = grams.distinct(grams.binary_view(t["gram"]), t["doc_id"].to_numpy())
        starts = sg.segment_starts(gb)
        is_first = np.zeros(len(gb), np.int64)
        is_first[starts] = 1  # sorted by (gram, doc): head = min doc
        t2 = pa.table(
            {
                "doc_id": pa.array(did, pa.int64()),
                "n": pa.array(np.ones(len(did), np.int64)),
                "novel": pa.array(is_first, pa.int64()),
            }
        )
        return _pa_group_sum(t2, ["doc_id"], ["n", "novel"])

    _out_schema = pa.schema(
        [
            ("doc_id", pa.int64()),
            ("n_shingles", pa.int64()),
            ("n_novel", pa.int64()),
            ("novelty", pa.float64()),
        ]
    )

    def _per_doc(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _out_schema.empty_table()
        g = _pa_group_sum(t, ["doc_id"], ["n", "novel"])
        n = g["n"].to_numpy()
        nov = g["novel"].to_numpy()
        return pa.table(
            {
                "doc_id": g["doc_id"],
                "n_shingles": g["n"],
                "n_novel": g["novel"],
                "novelty": pa.array(nov.astype(np.float64) / n, pa.float64()),
            }
        )

    docs = _rp(sf_dir, "documents", ["doc_id", "text"])
    gd = docs.map_batches(_gram_doc, batch_format="pyarrow")
    partials = map_partitions_by_key(gd, "gram", _first_owner, num_partitions=16)
    return map_partitions_by_key(partials, "doc_id", _per_doc, num_partitions=8)


# --------------------------------------------------------------------------
# round 5q: oracle-checked k-means training (integer Lloyd rounds),
# distributed dense-id assignment (zipWithIndex)
# --------------------------------------------------------------------------

# floor((2*s + n) / (2*n)) — round-half-up of s/n in pure integer
# arithmetic; the CASE mirrors numpy floor_divide for negative
# numerators (DuckDB's integer // truncates toward zero)
_FLOORDIV_SQL = (
    "CASE WHEN ({num}) >= 0 THEN ({num}) // ({den}) "
    "ELSE -((-({num}) + ({den}) - 1) // ({den})) END"
)

_KM_K = 4
_KM_DIM = 64


def _kmeans_sql() -> str:
    """2 unrolled Lloyd rounds over milli-quantized integer embeddings:
    exact int64 squared-L2 argmin (ties to the lowest cluster index),
    centroid update = element-wise round-half-up of the cluster mean
    back to milli ints (empty cluster keeps its old centroid)."""
    mean = _FLOORDIV_SQL.format(num="2*s + n", den="2*n")
    return f"""
    WITH q AS (SELECT vec_id,
          list_transform(embedding,
            x -> CAST(floor(CAST(x AS DOUBLE)*1000+0.5) AS BIGINT)) AS iq
          FROM embeddings),
    c0 AS (SELECT CAST(row_number() OVER (ORDER BY vec_id) - 1 AS BIGINT) AS j,
                  iq FROM (SELECT * FROM q ORDER BY vec_id LIMIT {_KM_K})),
    d1 AS (SELECT q.vec_id, c0.j,
          list_sum(list_transform(range(1, {_KM_DIM + 1}),
            i -> (q.iq[i]-c0.iq[i])*(q.iq[i]-c0.iq[i]))) AS dist
          FROM q CROSS JOIN c0),
    a1 AS (SELECT vec_id, j FROM
           (SELECT vec_id, j,
              row_number() OVER (PARTITION BY vec_id ORDER BY dist, j) AS rn
            FROM d1) WHERE rn = 1),
    s1 AS (SELECT a1.j, i, CAST(SUM(q.iq[CAST(i AS INTEGER)]) AS BIGINT) AS s,
                  CAST(COUNT(*) AS BIGINT) AS n
           FROM a1 JOIN q USING (vec_id), unnest(range(1, {_KM_DIM + 1})) r(i)
           GROUP BY 1, 2),
    c1 AS (SELECT s1.j, list({mean} ORDER BY i) AS iq FROM s1 GROUP BY 1),
    c1f AS (SELECT c0.j, COALESCE(c1.iq, c0.iq) AS iq
            FROM c0 LEFT JOIN c1 USING (j)),
    d2 AS (SELECT q.vec_id, c1f.j,
          list_sum(list_transform(range(1, {_KM_DIM + 1}),
            i -> (q.iq[i]-c1f.iq[i])*(q.iq[i]-c1f.iq[i]))) AS dist
          FROM q CROSS JOIN c1f)
    SELECT vec_id, CAST(j AS BIGINT) AS cluster, CAST(dist AS BIGINT) AS dist2
    FROM (SELECT vec_id, j, dist,
            row_number() OVER (PARTITION BY vec_id ORDER BY dist, j) AS rn
          FROM d2) WHERE rn = 1
    """


@register("kmeans_milli_2rounds", _kmeans_sql())
def q_kmeans_milli_2rounds(sf_dir: str):
    """K-MEANS TRAINING as an oracle-checked query — two full Lloyd
    rounds (assign -> recompute centroids -> reassign), not just the
    assignment step (`centroid_assign`): the A5 learning chain
    (`quantization/CoarseQuantizerLearning.java:26-30`'s k-means) made
    hash-comparable.  Everything is INTEGER: embeddings quantize to
    milli units (the `centroid_assign` rule), squared-L2 and its
    argmin are exact int64 (ties to the lowest cluster index), and the
    centroid update rounds the cluster mean half-up back to milli ints
    with a floor-division identity mirrored against DuckDB's
    truncating `//` — so two engines running real k-means produce
    BIT-IDENTICAL assignments.  Empty clusters keep their centroid.

    Plan: init = the {_KM_K} lowest-vec_id vectors (deterministic,
    broadcast once); each round is ONE pass — per-batch argmin against
    the broadcast centroids plus per-cluster (sum-vector, count)
    partials (the k x dim combiner), merged driver-side
    (aggregate-sized: k x dim ints); the raw vectors never shuffle.
    Same shape as `stages/knn.py`'s production k-means (sampled
    kmeans++/best-of-N); this one trades init quality for an exact
    cross-engine oracle."""
    import ray as _ray

    embs = _rp(sf_dir, "embeddings", ["vec_id", "embedding"])

    def _quant(batch: pa.Table):
        ids = batch["vec_id"].to_numpy()
        flat = np.asarray(
            batch["embedding"].combine_chunks().flatten(), dtype=np.float64
        )
        iq = np.floor(flat * 1000 + 0.5).astype(np.int64).reshape(len(ids), _KM_DIM)
        return ids, iq

    # deterministic init: the K lowest-vec_id vectors — each batch keeps
    # its own K lowest, so the driver merges at most batches x K rows
    def _lowest(t: pa.Table) -> pa.Table:
        keep = np.argsort(t["vec_id"].to_numpy(), kind="stable")[:_KM_K]
        return t.take(pa.array(keep, pa.int64()))

    refs = embs.map_batches(_lowest, batch_format="pyarrow").to_arrow_refs()
    cand = _lowest(pa.concat_tables([t for t in _ray.get(refs) if t.num_rows]))
    _, init = _quant(cand)

    def _assign(iq: np.ndarray, cents: np.ndarray):
        # exact int64 squared-L2 to every centroid; argmin ties -> low j
        d = ((iq[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
        j = np.argmin(d, axis=1)  # first minimum = lowest cluster index
        return j, d[np.arange(len(j)), j]

    def _round_partials(cents: np.ndarray):
        ref = _ray.put(cents)

        def _fn(batch: pa.Table) -> pa.Table:
            ids, iq = _quant(batch)
            c = _ray.get(ref)
            j, _ = _assign(iq, c)
            k = c.shape[0]
            s = np.zeros((k, _KM_DIM), np.int64)
            np.add.at(s, j, iq)
            n = np.bincount(j, minlength=k).astype(np.int64)
            return pa.table(
                {
                    "j": pa.array(np.arange(k, dtype=np.int64)),
                    "n": pa.array(n, pa.int64()),
                    "s": pa.array(list(s), pa.list_(pa.int64())),
                }
            )

        return _fn

    parts = embs.map_batches(
        _round_partials(init), batch_format="pyarrow"
    ).to_pandas()
    k = _KM_K
    n_tot = np.zeros(k, np.int64)
    s_tot = np.zeros((k, _KM_DIM), np.int64)
    for r in parts.itertuples():
        n_tot[int(r.j)] += int(r.n)
        s_tot[int(r.j)] += np.asarray(r.s, np.int64)
    cents1 = init.copy()
    nz = n_tot > 0
    cents1[nz] = np.floor_divide(
        2 * s_tot[nz] + n_tot[nz, None], 2 * n_tot[nz, None]
    )

    ref1 = _ray.put(cents1)

    def _final(batch: pa.Table) -> pa.Table:
        ids, iq = _quant(batch)
        c = _ray.get(ref1)
        j, d = _assign(iq, c)
        return pa.table(
            {
                "vec_id": pa.array(ids, pa.int64()),
                "cluster": pa.array(j.astype(np.int64), pa.int64()),
                "dist2": pa.array(d.astype(np.int64), pa.int64()),
            }
        )

    return embs.map_batches(_final, batch_format="pyarrow")


@register(
    "dense_user_ids",
    """
    SELECT user_id,
      CAST(row_number() OVER (ORDER BY user_id) - 1 AS BIGINT) AS dense_id
    FROM (SELECT DISTINCT user_id FROM events)
    """,
)
def q_dense_user_ids(sf_dir: str):
    """DENSE-ID ASSIGNMENT (zipWithIndex) — map every distinct key to a
    contiguous 0..n-1 id in key order: the dictionary-encoding /
    vocabulary-building primitive (the reference's id<->iid BDB store,
    `datastructures/AbstractSearchStructure.java:46-48`, is exactly
    this mapping, persisted).  A global ordered enumeration normally
    means a full sort; the distributed plan avoids enumerating through
    the driver: (1) min/max pass fixes ~256 fixed-width value buckets;
    (2) one hash exchange dedups keys and emits per-BUCKET distinct
    counts (aggregate-sized); (3) prefix sums of those counts give
    each bucket its global offset, and a second, bucket-keyed exchange
    ranks each bucket locally and adds the offset.  Only distinct keys
    cross the wire; no driver-side key list.  (Value-width buckets can
    skew on pathological key distributions — the offsets stay exact,
    only bucket balance suffers; swap the boundary source for
    `range_partition_plan`'s equi-depth cuts in that regime.)"""
    from multimedia_indexing_ray.stages.partition import map_partitions_by_key

    ev = _rp(sf_dir, "events", ["user_id"])

    mm = (
        ev.map_batches(
            lambda b: pa.table(
                {
                    "lo": pa.array(
                        [int(b["user_id"].to_numpy().min())] if b.num_rows else [],
                        pa.int64(),
                    ),
                    "hi": pa.array(
                        [int(b["user_id"].to_numpy().max())] if b.num_rows else [],
                        pa.int64(),
                    ),
                }
            ),
            batch_format="pyarrow",
        )
        .to_pandas()
    )
    lo, hi = int(mm["lo"].min()), int(mm["hi"].max())
    width = max(1, (hi - lo + 1 + 255) // 256)

    def _distinct_partial(batch: pa.Table) -> pa.Table:
        u = np.unique(batch["user_id"].to_numpy())
        return pa.table({"user_id": pa.array(u, pa.int64())})

    _d_schema = pa.schema([("user_id", pa.int64()), ("bucket", pa.int64())])

    def _dedup(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _d_schema.empty_table()
        u = np.unique(t["user_id"].to_numpy())
        return pa.table(
            {
                "user_id": pa.array(u, pa.int64()),
                "bucket": pa.array((u - lo) // width, pa.int64()),
            }
        )

    distinct = map_partitions_by_key(
        ev.map_batches(_distinct_partial, batch_format="pyarrow"),
        "user_id",
        _dedup,
        num_partitions=16,
    )

    # per-bucket distinct counts -> global offsets (aggregate-sized)
    def _bucket_counts(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "bucket": batch["bucket"],
                "n": pa.array(np.ones(batch.num_rows, np.int64)),
            }
        )
        return _pa_group_sum(t, ["bucket"], ["n"])

    bc = _tiny_group_sum(
        distinct.map_batches(_bucket_counts, batch_format="pyarrow"),
        ["bucket"],
        ["n"],
    ).to_pandas()
    bc = bc.sort_values("bucket")
    offsets = dict(
        zip(
            bc["bucket"].astype(int),
            np.r_[0, np.cumsum(bc["n"].to_numpy())[:-1]].astype(int),
        )
    )

    _o_schema = pa.schema([("user_id", pa.int64()), ("dense_id", pa.int64())])

    def _rank(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _o_schema.empty_table()
        u = t["user_id"].to_numpy()
        b = t["bucket"].to_numpy()
        order = np.lexsort((u, b))
        u, b = u[order], b[order]
        starts = sg.segment_starts(b)
        local = sg.rel_index(starts, len(u))
        off = np.array([offsets[int(x)] for x in b[starts]], np.int64)
        dense = np.repeat(off, sg.segment_counts(starts, len(u))) + local
        return pa.table(
            {
                "user_id": pa.array(u, pa.int64()),
                "dense_id": pa.array(dense, pa.int64()),
            }
        )

    return map_partitions_by_key(distinct, "bucket", _rank, num_partitions=16)


# --------------------------------------------------------------------------
# round 5r: dataset cards, aggregate-consistency audit, DAU/WAU stickiness
# --------------------------------------------------------------------------


@register(
    "dataset_card_by_source_lang",
    rf"""
    WITH q AS (SELECT doc_id, source, lang,
        CAST(length(text) AS BIGINT) AS n_chars,
        CAST(len(regexp_extract_all(text, '{_TOKEN_RE}')) AS BIGINT) AS n_tokens,
        text
      FROM documents),
    d AS (SELECT text, CAST(COUNT(*) AS BIGINT) AS copies FROM q GROUP BY 1)
    SELECT source, lang,
      CAST(COUNT(*) AS BIGINT) AS n_docs,
      CAST(SUM(q.n_chars) AS BIGINT) AS n_chars,
      CAST(SUM(q.n_tokens) AS BIGINT) AS n_tokens,
      CAST(SUM(CASE WHEN d.copies > 1 THEN 1 ELSE 0 END) AS BIGINT) AS n_dup_docs,
      CAST(SUM(CASE WHEN d.copies > 1 THEN 1 ELSE 0 END) AS DOUBLE)
        / COUNT(*) AS dup_rate,
      CAST(SUM(q.n_tokens) AS DOUBLE) / COUNT(*) AS mean_tokens
    FROM q JOIN d USING (text) GROUP BY 1, 2
    """,
)
def q_dataset_card_by_source_lang(sf_dir: str):
    """DATASET CARD — the per-(source, language) release table every
    published corpus ships: document/char/token counts, the exact-dup
    rate (fraction of docs whose full text occurs more than once in
    the WHOLE corpus — the `dedup_exact_docs` first-wins universe),
    and mean tokens per doc.  The single table that
    `profile_events` / `balance_by_lang` / `dedup_exact_docs` answer
    piecewise, composed into the shipped artifact.

    Plan: ONE text-keyed exchange (the `dedup_exact_docs` shape — the
    text column crosses once as the exact grouping key) marks each
    doc's corpus-wide copy count and immediately folds everything to
    (source, lang) partial sums inside the same kernel, so nothing
    text-sized leaves it; the finish is a `_tiny_group_sum` plus two
    exact divisions."""
    from multimedia_indexing_ray.stages.partition import map_partitions_by_key

    docs = _rp(sf_dir, "documents", ["doc_id", "source", "lang", "text"])

    _dup_schema = pa.schema(
        [
            ("source", pa.string()),
            ("lang", pa.string()),
            ("n", pa.int64()),
            ("chars", pa.int64()),
            ("tokens", pa.int64()),
            ("dups", pa.int64()),
        ]
    )

    def _mark(t: pa.Table) -> pa.Table:
        # co-located by text: copy count = group size
        if t.num_rows == 0:
            return _dup_schema.empty_table()
        txt = t["text"].to_numpy(zero_copy_only=False)
        order = np.argsort(txt, kind="stable")
        txt_s = txt[order]
        starts = sg.segment_starts(txt_s)
        copies = np.repeat(
            sg.segment_counts(starts, len(txt_s)),
            sg.segment_counts(starts, len(txt_s)),
        )
        dup = np.zeros(len(txt), np.int64)
        dup[order] = (copies > 1).astype(np.int64)
        t2 = pa.table(
            {
                "source": t["source"],
                "lang": t["lang"],
                "n": pa.array(np.ones(t.num_rows, np.int64)),
                "chars": pa.array(tx.char_count(t["text"]), pa.int64()),
                "tokens": pa.array(tx.token_count(t["text"]), pa.int64()),
                "dups": pa.array(dup, pa.int64()),
            }
        )
        return _pa_group_sum(t2, ["source", "lang"], ["n", "chars", "tokens", "dups"])

    def _finish(batch: pa.Table) -> pa.Table:
        n = batch["n"].to_numpy()
        tok = batch["tokens"].to_numpy()
        dup = batch["dups"].to_numpy()
        return pa.table(
            {
                "source": batch["source"],
                "lang": batch["lang"],
                "n_docs": batch["n"],
                "n_chars": batch["chars"],
                "n_tokens": batch["tokens"],
                "n_dup_docs": batch["dups"],
                "dup_rate": pa.array(dup.astype(np.float64) / n),
                "mean_tokens": pa.array(tok.astype(np.float64) / n),
            }
        )

    partials = map_partitions_by_key(docs, "text", _mark, num_partitions=16)
    return _tiny_group_sum(
        partials, ["source", "lang"], ["n", "chars", "tokens", "dups"]
    ).map_batches(_finish, batch_format="pyarrow")


@register(
    "order_total_reconciliation",
    f"""
    WITH l AS (SELECT l_orderkey,
        CAST(SUM({_CENTS_SQL.format(col='l_extendedprice')}) AS BIGINT)
          AS line_cents
      FROM lineitem GROUP BY 1),
    j AS (SELECT o.o_orderkey,
        {_CENTS_SQL.format(col='o_totalprice')} AS total_cents,
        COALESCE(l.line_cents, 0) AS line_cents
      FROM orders o LEFT JOIN l ON o.o_orderkey = l.l_orderkey)
    SELECT
      CAST(COUNT(*) AS BIGINT) AS n_orders,
      CAST(SUM(CASE WHEN total_cents = line_cents THEN 1 ELSE 0 END)
           AS BIGINT) AS n_exact,
      CAST(SUM(CASE WHEN total_cents != line_cents THEN 1 ELSE 0 END)
           AS BIGINT) AS n_mismatch,
      CAST(MAX(ABS(total_cents - line_cents)) AS BIGINT) AS max_abs_diff_cents,
      CAST(SUM(ABS(total_cents - line_cents)) AS BIGINT) AS sum_abs_diff_cents
    FROM j
    """,
)
def q_order_total_reconciliation(sf_dir: str):
    """AGGREGATE-CONSISTENCY AUDIT — reconcile each order's header
    total against the sum of its line items (exact cents), and report
    corpus-level counts: exact matches, mismatches, the worst and the
    total absolute drift.  With `fk_integrity_audit` (key existence)
    this completes the data-quality gate pair: keys line up AND the
    money adds up — the check a pipeline runs before trusting either
    table as a feature source.

    Plan: the `fk_integrity_audit` sentinel shape — line items fold to
    per-batch (orderkey, cents-sum) partials first, headers carry
    their total; ONE orderkey exchange co-locates them; per-key
    reconciliation reduces to 5-int partials merged in one tiny
    block."""
    from multimedia_indexing_ray.stages.partition import map_partitions_by_key

    ords = _rp(sf_dir, "orders", ["o_orderkey", "o_totalprice"])
    li = _rp(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice"])

    def _o(batch: pa.Table) -> pa.Table:
        c = _cents(batch["o_totalprice"].to_numpy(zero_copy_only=False)).astype(
            np.int64
        )
        return pa.table(
            {
                "okey": batch["o_orderkey"],
                "cents": pa.array(c, pa.int64()),
                "side": pa.array(np.zeros(len(c), np.int8)),
            }
        )

    def _l(batch: pa.Table) -> pa.Table:
        c = _cents(
            batch["l_extendedprice"].to_numpy(zero_copy_only=False)
        ).astype(np.int64)
        t = pa.table(
            {
                "okey": batch["l_orderkey"],
                "cents": pa.array(c, pa.int64()),
                "side": pa.array(np.ones(len(c), np.int8)),
            }
        )
        return _pa_group_sum(t, ["okey", "side"], ["cents"])

    both = ords.map_batches(_o, batch_format="pyarrow").union(
        li.map_batches(_l, batch_format="pyarrow")
    )

    _part_schema = pa.schema(
        [
            ("n_orders", pa.int64()),
            ("n_exact", pa.int64()),
            ("n_mismatch", pa.int64()),
            ("max_abs_diff_cents", pa.int64()),
            ("sum_abs_diff_cents", pa.int64()),
        ]
    )

    def _recon(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _part_schema.empty_table()
        okey = t["okey"].to_numpy()
        cents = t["cents"].to_numpy()
        side = t["side"].to_numpy().astype(np.int64)
        order = np.argsort(okey, kind="stable")
        okey, cents, side = okey[order], cents[order], side[order]
        starts = sg.segment_starts(okey)
        has_hdr = np.add.reduceat(1 - side, starts) > 0
        total = np.add.reduceat(cents * (1 - side), starts)
        lines = np.add.reduceat(cents * side, starts)
        total, lines = total[has_hdr], lines[has_hdr]  # orphans audit elsewhere
        diff = np.abs(total - lines)
        return pa.table(
            {
                "n_orders": pa.array([len(total)], pa.int64()),
                "n_exact": pa.array([int((diff == 0).sum())], pa.int64()),
                "n_mismatch": pa.array([int((diff != 0).sum())], pa.int64()),
                "max_abs_diff_cents": pa.array(
                    [int(diff.max()) if len(diff) else 0], pa.int64()
                ),
                "sum_abs_diff_cents": pa.array([int(diff.sum())], pa.int64()),
            }
        )

    _cols = [
        "n_orders",
        "n_exact",
        "n_mismatch",
        "max_abs_diff_cents",
        "sum_abs_diff_cents",
    ]

    def _merge(batch: pa.Table) -> pa.Table:
        cols = {}
        for c in _cols:
            v = batch[c].to_numpy()
            agg = int(v.max()) if c == "max_abs_diff_cents" else int(v.sum())
            cols[c] = pa.array([agg], pa.int64())
        return pa.table(cols)

    partials = map_partitions_by_key(both, "okey", _recon, num_partitions=16)
    return partials.repartition(1).map_batches(
        _merge, batch_format="pyarrow", batch_size=None
    )


@register(
    "dau_wau_stickiness",
    """
    WITH ud AS (SELECT DISTINCT user_id,
                  CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day
                FROM events),
    span AS (SELECT CAST(MIN(day) AS BIGINT) AS dmin,
                    CAST(MAX(day) AS BIGINT) AS dmax FROM ud),
    w AS (SELECT DISTINCT user_id, day + CAST(o.x AS BIGINT) AS obs_day
          FROM ud, range(0, 7) o(x)),
    dau AS (SELECT day AS obs_day, CAST(COUNT(*) AS BIGINT) AS dau
            FROM ud GROUP BY 1),
    wau AS (SELECT obs_day, CAST(COUNT(*) AS BIGINT) AS wau
            FROM w GROUP BY 1)
    SELECT w.obs_day AS day, COALESCE(dau.dau, 0) AS dau, w.wau,
      CAST(COALESCE(dau.dau, 0) AS DOUBLE) / w.wau AS stickiness
    FROM wau w LEFT JOIN dau USING (obs_day), span
    WHERE w.obs_day BETWEEN span.dmin AND span.dmax
    """,
)
def q_dau_wau_stickiness(sf_dir: str):
    """DAU/WAU STICKINESS — per day: distinct active users that day,
    distinct users active in the TRAILING 7 days, and their ratio (the
    classic engagement-intensity metric).  Exact windowed
    count-distinct, not a sketch: each active (user, day) pair casts a
    vote into the 7 observation days it keeps the user 'weekly-active'
    for, so WAU(d) = distinct voters at d — the same expand-then-
    distinct trick as `sliding_distinct_users_1h`, at day granularity
    with a bounded 7x expansion of the (already user-day-distinct)
    pair set.

    Plan: per-batch distinct (user, day) combiner -> ONE user-keyed
    exchange dedups pairs AND expands each to its 7 observation days
    with a per-user re-dedup (the expansion never leaves the group) ->
    tiny per-day sums; days outside the observed span are trimmed with
    a 2-int min/max pass."""
    from multimedia_indexing_ray.stages.partition import map_partitions_by_key

    DAY_US = 86_400_000_000

    def _pairs(batch: pa.Table) -> pa.Table:
        u = batch["user_id"].to_numpy()
        d = batch["ts"].cast(pa.int64()).to_numpy() // DAY_US
        uniq = np.unique(np.stack([u, d], axis=1), axis=0)
        return pa.table(
            {
                "user_id": pa.array(uniq[:, 0], pa.int64()),
                "day": pa.array(uniq[:, 1], pa.int64()),
            }
        )

    ev = _rp(sf_dir, "events", ["user_id", "ts"])
    pairs = ev.map_batches(_pairs, batch_format="pyarrow")

    mm = (
        pairs.map_batches(
            lambda b: pa.table(
                {
                    "dmin": pa.array(
                        [int(b["day"].to_numpy().min())] if b.num_rows else [],
                        pa.int64(),
                    ),
                    "dmax": pa.array(
                        [int(b["day"].to_numpy().max())] if b.num_rows else [],
                        pa.int64(),
                    ),
                }
            ),
            batch_format="pyarrow",
        )
        .to_pandas()
    )
    dmin, dmax = int(mm["dmin"].min()), int(mm["dmax"].max())

    _part_schema = pa.schema(
        [("day", pa.int64()), ("dau", pa.int64()), ("wau", pa.int64())]
    )

    def _votes(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _part_schema.empty_table()
        u = t["user_id"].to_numpy()
        d = t["day"].to_numpy()
        uniq = np.unique(np.stack([u, d], axis=1), axis=0)
        u, d = uniq[:, 0], uniq[:, 1]
        # dau votes
        dau = pa.table(
            {
                "day": pa.array(d, pa.int64()),
                "dau": pa.array(np.ones(len(d), np.int64)),
                "wau": pa.array(np.zeros(len(d), np.int64)),
            }
        )
        # wau votes: each pair keeps the user weekly-active for 7 days,
        # then re-dedup per (user, obs_day) INSIDE the group
        obs_u = np.repeat(u, 7)
        obs_d = np.repeat(d, 7) + np.tile(np.arange(7, dtype=np.int64), len(d))
        ou = np.unique(np.stack([obs_u, obs_d], axis=1), axis=0)
        keep = (ou[:, 1] >= dmin) & (ou[:, 1] <= dmax)
        ou = ou[keep]
        wau = pa.table(
            {
                "day": pa.array(ou[:, 1], pa.int64()),
                "dau": pa.array(np.zeros(len(ou), np.int64)),
                "wau": pa.array(np.ones(len(ou), np.int64)),
            }
        )
        return _pa_group_sum(
            pa.concat_tables([dau, wau]), ["day"], ["dau", "wau"]
        )

    def _finish(batch: pa.Table) -> pa.Table:
        dau = batch["dau"].to_numpy()
        wau = batch["wau"].to_numpy()
        return pa.table(
            {
                "day": batch["day"],
                "dau": batch["dau"],
                "wau": batch["wau"],
                "stickiness": pa.array(dau.astype(np.float64) / wau),
            }
        )

    votes = map_partitions_by_key(pairs, "user_id", _votes, num_partitions=16)
    return _tiny_group_sum(votes, ["day"], ["dau", "wau"]).map_batches(
        _finish, batch_format="pyarrow"
    )


# --------------------------------------------------------------------------
# round 5s: dup-cluster structure histogram, tokenizer fertility,
# cross-source quantile normalization
# --------------------------------------------------------------------------


@register(
    "dup_cluster_size_hist",
    f"""
    WITH RECURSIVE
    {_NGRAM_PAIRS_CTE},
    edges AS (SELECT a_id AS u, b_id AS v FROM pairs
              UNION SELECT b_id, a_id FROM pairs),
    cc(node, label) AS (
      SELECT doc_id, doc_id FROM documents
      UNION
      SELECT e.v, c.label FROM cc c JOIN edges e ON c.node = e.u
      WHERE c.label < e.v
    ),
    memb AS (SELECT node, MIN(label) AS cluster_id FROM cc GROUP BY node),
    csize AS (SELECT cluster_id, CAST(COUNT(*) AS BIGINT) AS size
              FROM memb GROUP BY 1)
    SELECT size, CAST(COUNT(*) AS BIGINT) AS n_clusters,
      CAST(size * COUNT(*) AS BIGINT) AS n_docs
    FROM csize GROUP BY 1
    """,
)
def q_dup_cluster_size_hist(sf_dir: str):
    """DUPLICATE-CLUSTER STRUCTURE histogram — how many near-dup
    clusters of each size the corpus contains (and the docs they
    hold): the one-table answer to 'is duplication a long tail of
    pairs or a few mega-clusters?', which decides whether best-copy
    canonicalization (`dedup_canonical_best`) or hard removal is the
    right curation move.  Size-1 clusters are the unduplicated mass.

    Plan: the `dedup_clusters` chain verbatim (anchor-blocked Jaccard
    pairs -> alternating-star CC over the slim edge set), then per-
    cluster sizes via one (cluster_id) partial-count pass and a tiny
    size histogram — both aggregate-shaped; nothing new shuffles."""
    from multimedia_indexing_ray.stages.cc import resolve_clusters

    docs = _rp(sf_dir, "documents", ["doc_id", "text"])
    pairs = dd.anchor_jaccard_pairs(
        docs, "text", "doc_id", threshold=0.3, num_partitions=16,
        coalesce=docs.count() <= _COALESCE_DOCS,
    )
    clusters = resolve_clusters(
        docs.select_columns(["doc_id"]), "doc_id", pairs, num_partitions=16
    )

    def _sizes(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "cluster_id": batch["cluster_id"],
                "size": pa.array(np.ones(batch.num_rows, np.int64)),
            }
        )
        return _pa_group_sum(t, ["cluster_id"], ["size"])

    def _hist(batch: pa.Table) -> pa.Table:
        g = _pa_group_sum(batch, ["cluster_id"], ["size"])
        sz = g["size"].to_numpy()
        uniq, cnt = np.unique(sz, return_counts=True)
        return pa.table(
            {
                "size": pa.array(uniq, pa.int64()),
                "n_clusters": pa.array(cnt.astype(np.int64)),
                "n_docs": pa.array(uniq * cnt, pa.int64()),
            }
        )

    return (
        clusters.map_batches(_sizes, batch_format="pyarrow")
        .repartition(1)
        .map_batches(_hist, batch_format="pyarrow", batch_size=None)
    )


@register(
    "tokenizer_fertility_by_lang",
    r"""
    WITH q AS (SELECT lang,
        CAST(len(regexp_extract_all(text, '\S+')) AS BIGINT) AS ws,
        CAST(len(regexp_extract_all(text,
          '''(?:s|t|re|ve|m|ll|d)| ?[a-zA-Z]+| ?[0-9]+| ?[^a-zA-Z0-9\s]+'))
          AS BIGINT) AS bpe,
        CAST(length(text) AS BIGINT) AS chars
      FROM documents)
    SELECT lang, CAST(COUNT(*) AS BIGINT) AS n_docs,
      CAST(SUM(ws) AS BIGINT) AS ws_tokens,
      CAST(SUM(bpe) AS BIGINT) AS bpe_tokens,
      CAST(SUM(chars) AS BIGINT) AS n_chars,
      CASE WHEN SUM(ws) > 0
           THEN CAST(SUM(bpe) AS DOUBLE) / SUM(ws) END AS fertility,
      CASE WHEN SUM(bpe) > 0
           THEN CAST(SUM(chars) AS DOUBLE) / SUM(bpe) END AS chars_per_token
    FROM q GROUP BY 1
    """,
)
def q_tokenizer_fertility_by_lang(sf_dir: str):
    """TOKENIZER FERTILITY by language — BPE-ish tokens per whitespace
    word and chars per BPE token, per language: the cost table that
    says which languages a tokenizer over- or under-segments (fertility
    skew is why token budgets and mixture weights must be per-language,
    the quantitative backbone under `balance_by_lang` /
    `mixture_resample_docs`).  Shares the exact RE2 patterns with
    `token_count_bpe`.

    Plan: pure partial aggregation — per-batch (lang) combiner of four
    int64 sums, tiny merge, two exact divisions."""

    def _partial(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "lang": batch["lang"],
                "n": pa.array(np.ones(batch.num_rows, np.int64)),
                "ws": pa.array(tx.token_count(batch["text"]), pa.int64()),
                "bpe": pa.array(tx.bpe_token_count(batch["text"]), pa.int64()),
                "chars": pa.array(tx.char_count(batch["text"]), pa.int64()),
            }
        )
        return _pa_group_sum(t, ["lang"], ["n", "ws", "bpe", "chars"])

    def _finish(batch: pa.Table) -> pa.Table:
        ws = batch["ws"].to_numpy()
        bpe = batch["bpe"].to_numpy()
        chars = batch["chars"].to_numpy()
        with np.errstate(invalid="ignore", divide="ignore"):
            fert = bpe.astype(np.float64) / ws
            cpt = chars.astype(np.float64) / bpe
        return pa.table(
            {
                "lang": batch["lang"],
                "n_docs": batch["n"],
                "ws_tokens": batch["ws"],
                "bpe_tokens": batch["bpe"],
                "n_chars": batch["chars"],
                "fertility": pa.array(np.nan_to_num(fert), pa.float64(),
                                      mask=(ws == 0)),
                "chars_per_token": pa.array(np.nan_to_num(cpt), pa.float64(),
                                            mask=(bpe == 0)),
            }
        )

    docs = _rp(sf_dir, "documents", ["lang", "text"])
    return _tiny_group_sum(
        docs.map_batches(_partial, batch_format="pyarrow"),
        ["lang"],
        ["n", "ws", "bpe", "chars"],
    ).map_batches(_finish, batch_format="pyarrow")


@register(
    "quantile_normalize_chars",
    """
    WITH r AS (SELECT doc_id, source, n_chars,
        row_number() OVER (PARTITION BY source ORDER BY n_chars, doc_id) AS r,
        count(*) OVER (PARTITION BY source) AS ns,
        count(*) OVER () AS n
      FROM documents),
    g AS (SELECT n_chars AS gval,
        row_number() OVER (ORDER BY n_chars, doc_id) AS gr
      FROM documents)
    SELECT r.doc_id, r.n_chars, CAST(g.gval AS BIGINT) AS norm_chars
    FROM r JOIN g ON g.gr = (r.r * r.n + r.ns - 1) // r.ns
    """,
)
def q_quantile_normalize_chars(sf_dir: str):
    """CROSS-SOURCE QUANTILE NORMALIZATION — map each document's length
    to the GLOBAL length at the same quantile position within its
    source (target global rank = ceil(r * N / n_s)): the batch-effect
    correction that makes a length/quality threshold mean the same
    thing in a source of tweets and a source of books (the
    transform-level sibling of `balance_by_lang`'s resampling).  All
    integer: ranks are exact, and the global value at a rank is a
    function of the length HISTOGRAM alone (rank ties share the
    value), so no global sort of the corpus is needed.

    Plan: per-source ranks via ONE source-keyed exchange of slim
    (doc_id, n_chars) rows; the global value-at-rank table is the
    `range_partition_plan` histogram trick — per-batch (n_chars ->
    count) partials, one aggregate-sized cumsum broadcast, searchsorted
    lookup inside the rank kernel.  The corpus never globally sorts."""
    import ray as _ray

    from multimedia_indexing_ray.stages.partition import map_partitions_by_key

    docs = _rp(sf_dir, "documents", ["doc_id", "source", "n_chars"])

    def _hist_partial(batch: pa.Table) -> pa.Table:
        uniq, cnt = np.unique(batch["n_chars"].to_numpy(), return_counts=True)
        return pa.table(
            {"c": pa.array(uniq, pa.int64()), "cnt": pa.array(cnt.astype(np.int64))}
        )

    hist = _tiny_group_sum(
        docs.map_batches(_hist_partial, batch_format="pyarrow"), ["c"], ["cnt"]
    ).to_pandas()
    hist = hist.sort_values("c")
    gvals = hist["c"].to_numpy()
    gcum = np.cumsum(hist["cnt"].to_numpy())
    n_total = int(gcum[-1]) if len(gcum) else 0
    ref = _ray.put((gvals, gcum, n_total))

    _schema = pa.schema(
        [("doc_id", pa.int64()), ("n_chars", pa.int64()),
         ("norm_chars", pa.int64())]
    )

    def _rank_and_map(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _schema.empty_table()
        vals, cum, n = _ray.get(ref)
        src = t["source"].to_numpy(zero_copy_only=False)
        did = t["doc_id"].to_numpy()
        ch = t["n_chars"].to_numpy()
        order = np.lexsort((did, ch, src))
        src_s, did_s, ch_s = src[order], did[order], ch[order]
        starts = sg.segment_starts(src_s)
        ns = np.repeat(
            sg.segment_counts(starts, len(src_s)),
            sg.segment_counts(starts, len(src_s)),
        )
        r = sg.rel_index(starts, len(src_s)) + 1
        g = (r * n + ns - 1) // ns
        norm = vals[np.searchsorted(cum, g, side="left")]
        return pa.table(
            {
                "doc_id": pa.array(did_s, pa.int64()),
                "n_chars": pa.array(ch_s, pa.int64()),
                "norm_chars": pa.array(norm, pa.int64()),
            }
        )

    return map_partitions_by_key(docs, "source", _rank_and_map, num_partitions=8)


# --------------------------------------------------------------------------
# round 5t: winsorization, OOV-rate vs corpus vocabulary, global mode
# --------------------------------------------------------------------------


@register(
    "winsorize_values",
    f"""
    WITH v AS (SELECT event_id, {_CENTS_SQL.format(col='value')} AS c
               FROM events),
    r AS (SELECT c, row_number() OVER (ORDER BY c) AS rn,
                 count(*) OVER () AS n FROM v),
    b AS (SELECT MIN(CASE WHEN rn = (1*n + 99)//100 THEN c END) AS p1,
                 MIN(CASE WHEN rn = (99*n + 99)//100 THEN c END) AS p99
          FROM r)
    SELECT event_id, c AS cents,
      GREATEST(LEAST(c, b.p99), b.p1) AS winsorized_cents,
      CAST(c != GREATEST(LEAST(c, b.p99), b.p1) AS BIGINT) AS clipped
    FROM v, b
    """,
)
def q_winsorize_values(sf_dir: str):
    """WINSORIZATION — clip every value into the exact global [P1, P99]
    band: the standard outlier-robust feature transform (tail noise
    bounded without dropping rows; `outlier_events_p99` FLAGS the tail,
    this REPAIRS it).  The percentile rule is
    `value_quantiles_by_type`'s integer rank identity
    (ceil(q*n) = (q*100*n + 99)//100), so both engines clip at the
    same exact cents.

    Plan: the histogram method — per-batch (cents -> count) partials,
    one aggregate-sized cumsum fixes (p1, p99) on the driver, then a
    stateless clip map; the events never shuffle."""

    def _hist(batch: pa.Table) -> pa.Table:
        c = _cents(batch["value"].to_numpy(zero_copy_only=False)).astype(np.int64)
        uniq, cnt = np.unique(c, return_counts=True)
        return pa.table(
            {"c": pa.array(uniq, pa.int64()), "cnt": pa.array(cnt.astype(np.int64))}
        )

    ev = _rp(sf_dir, "events", ["event_id", "value"])
    hist = (
        _tiny_group_sum(
            ev.map_batches(_hist, batch_format="pyarrow"), ["c"], ["cnt"]
        )
        .to_pandas()
        .sort_values("c")
    )
    vals = hist["c"].to_numpy()
    cum = np.cumsum(hist["cnt"].to_numpy())
    n = int(cum[-1])
    p1 = int(vals[np.searchsorted(cum, (1 * n + 99) // 100, side="left")])
    p99 = int(vals[np.searchsorted(cum, (99 * n + 99) // 100, side="left")])

    def _clip(batch: pa.Table) -> pa.Table:
        c = _cents(batch["value"].to_numpy(zero_copy_only=False)).astype(np.int64)
        w = np.clip(c, p1, p99)
        return pa.table(
            {
                "event_id": batch["event_id"],
                "cents": pa.array(c, pa.int64()),
                "winsorized_cents": pa.array(w, pa.int64()),
                "clipped": pa.array((c != w).astype(np.int64), pa.int64()),
            }
        )

    return ev.map_batches(_clip, batch_format="pyarrow")


_OOV_VOCAB_K = 100


@register(
    "oov_rate_docs",
    rf"""
    WITH tok AS (SELECT doc_id,
                   unnest(regexp_extract_all(text, '\S+')) AS w
                 FROM documents),
    df AS (SELECT w, CAST(COUNT(DISTINCT doc_id) AS BIGINT) AS df
           FROM tok GROUP BY 1),
    vocab AS (SELECT w FROM df ORDER BY df DESC, w LIMIT {_OOV_VOCAB_K}),
    j AS (SELECT tok.doc_id,
            CAST(CASE WHEN vocab.w IS NULL THEN 1 ELSE 0 END AS BIGINT) AS oov
          FROM tok LEFT JOIN vocab USING (w))
    SELECT d.doc_id,
      CAST(COALESCE(t.n_tok, 0) AS BIGINT) AS n_tokens,
      CAST(COALESCE(t.n_oov, 0) AS BIGINT) AS n_oov,
      CASE WHEN COALESCE(t.n_tok, 0) > 0
           THEN CAST(t.n_oov AS DOUBLE) / t.n_tok END AS oov_rate
    FROM documents d LEFT JOIN
      (SELECT doc_id, COUNT(*) AS n_tok, SUM(oov) AS n_oov
       FROM j GROUP BY 1) t USING (doc_id)
    """,
)
def q_oov_rate_docs(sf_dir: str):
    """OUT-OF-VOCABULARY RATE — per document, the fraction of its word
    occurrences outside the corpus's top-{_OOV_VOCAB_K} document-
    frequency vocabulary: the coverage metric a tokenizer/vocab release
    ships (high OOV = the vocab was trained on different text), and a
    cheap quality filter (gibberish scores OOV ~ 1).  Vocabulary rule:
    top-K by document frequency, ties to the lexicographically smaller
    word — the `tfidf_top_terms` df machinery pointed at coverage.

    Plan: pass 1 reuses the shared `distinct_doc_token_pairs` kernel ->
    token-keyed df partials -> ONE token-keyed exchange (complete
    groups per partition) where each partition reduces its exact df
    totals to a LOCAL top-K, so the driver merges <= partitions x K
    candidate rows — the full corpus vocabulary never hits the driver
    (the `_vocab_broadcast_cap` lesson, made unconditional); the final
    K-word vocab broadcasts via `ray.put` (bounded by K).  Pass 2 is a
    stateless per-batch membership count — the corpus never shuffles."""
    import ray as _ray

    from multimedia_indexing_ray.stages.partition import map_partitions_by_key

    docs = _rp(sf_dir, "documents", ["doc_id", "text"])

    def _df_partial(batch: pa.Table) -> pa.Table:
        _, tok_id, uniq = tx.distinct_doc_token_pairs(batch["text"])
        if len(uniq) == 0:
            return pa.table(
                {"w": pa.array([], pa.string()), "df": pa.array([], pa.int64())}
            )
        cnt = np.bincount(tok_id, minlength=len(uniq))
        return pa.table(
            {
                "w": pa.array(uniq, pa.string()),
                "df": pa.array(cnt.astype(np.int64)),
            }
        )

    _df_schema = pa.schema([("w", pa.string()), ("df", pa.int64())])

    def _local_topk(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _df_schema.empty_table()
        g = _pa_group_sum(t, ["w"], ["df"])  # complete token groups here
        w = g["w"].to_numpy(zero_copy_only=False)
        dfv = g["df"].to_numpy()
        keep = np.lexsort((w, -dfv))[:_OOV_VOCAB_K]
        return pa.table(
            {"w": pa.array(w[keep], pa.string()), "df": pa.array(dfv[keep], pa.int64())}
        )

    cand = map_partitions_by_key(
        docs.map_batches(_df_partial, batch_format="pyarrow"),
        "w",
        _local_topk,
        num_partitions=16,
    ).to_pandas()
    order = sorted(
        zip(-cand["df"].to_numpy(), cand["w"].to_numpy())
    )[:_OOV_VOCAB_K]
    vocab = np.array([w for _, w in order], object)
    ref = _ray.put(vocab)

    _schema = pa.schema(
        [
            ("doc_id", pa.int64()),
            ("n_tokens", pa.int64()),
            ("n_oov", pa.int64()),
            ("oov_rate", pa.float64()),
        ]
    )

    def _rate(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return _schema.empty_table()
        v = _ray.get(ref)
        ids = batch["doc_id"].to_numpy()
        flat, n_tok = tx.flat_tokens(batch["text"])
        doc_of = np.repeat(np.arange(len(ids)), n_tok)
        oov = (
            ~np.isin(flat, v) if len(flat) else np.zeros(0, bool)
        )
        n_oov = np.bincount(
            doc_of, weights=oov.astype(np.float64), minlength=len(ids)
        ).astype(np.int64)
        with np.errstate(invalid="ignore", divide="ignore"):
            rate = n_oov.astype(np.float64) / n_tok
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "n_tokens": pa.array(n_tok, pa.int64()),
                "n_oov": pa.array(n_oov, pa.int64()),
                "oov_rate": pa.array(
                    np.nan_to_num(rate), pa.float64(), mask=(n_tok == 0)
                ),
            }
        )

    return docs.map_batches(_rate, batch_format="pyarrow")


@register(
    "mode_value_by_type",
    f"""
    WITH v AS (SELECT event_type, {_CENTS_SQL.format(col='value')} AS c
               FROM events),
    h AS (SELECT event_type, c, CAST(COUNT(*) AS BIGINT) AS n
          FROM v GROUP BY 1, 2)
    SELECT event_type, CAST(c AS BIGINT) AS mode_cents, n AS mode_count
    FROM h
    QUALIFY row_number() OVER (PARTITION BY event_type
                               ORDER BY n DESC, c) = 1
    """,
)
def q_mode_value_by_type(sf_dir: str):
    """GLOBAL MODE per group — the most frequent exact value (ties to
    the smallest), completing the holistic-aggregate set alongside the
    exact medians (`median_value_per_user`) and the windowed mode
    (`rolling_mode_1h`).  The mode is not decomposable, but its
    HISTOGRAM is: per-batch (type, cents) count partials combine
    associatively, and the argmax runs on the aggregate.

    Plan: per-batch combiner -> one tiny (type, cents) sum -> segmented
    argmax with the (count desc, value asc) tie rule."""

    def _partial(batch: pa.Table) -> pa.Table:
        c = _cents(batch["value"].to_numpy(zero_copy_only=False)).astype(np.int64)
        t = pa.table(
            {
                "event_type": batch["event_type"],
                "c": pa.array(c, pa.int64()),
                "n": pa.array(np.ones(len(c), np.int64)),
            }
        )
        return _pa_group_sum(t, ["event_type", "c"], ["n"])

    _schema = pa.schema(
        [
            ("event_type", pa.string()),
            ("mode_cents", pa.int64()),
            ("mode_count", pa.int64()),
        ]
    )

    def _argmax(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return _schema.empty_table()
        g = _pa_group_sum(batch, ["event_type", "c"], ["n"])
        et = g["event_type"].to_numpy(zero_copy_only=False)
        c = g["c"].to_numpy()
        n = g["n"].to_numpy()
        order = np.lexsort((c, -n, et))
        et, c, n = et[order], c[order], n[order]
        starts = sg.segment_starts(et)
        return pa.table(
            {
                "event_type": pa.array(et[starts], pa.string()),
                "mode_cents": pa.array(c[starts], pa.int64()),
                "mode_count": pa.array(n[starts], pa.int64()),
            }
        )

    ev = _rp(sf_dir, "events", ["event_type", "value"])
    return _tiny_group_sum(
        ev.map_batches(_partial, batch_format="pyarrow"), ["event_type", "c"], ["n"]
    ).map_batches(_argmax, batch_format="pyarrow", batch_size=None)


# --------------------------------------------------------------------------
# round 5u: per-label Gram matrices, week-over-week growth
# --------------------------------------------------------------------------


@register(
    "label_gram_matrices",
    """
    WITH q AS (SELECT vec_id, label,
            generate_subscripts(embedding, 1) AS i,
            CAST(FLOOR(CAST(unnest(embedding) AS DOUBLE) * 1000000) AS BIGINT)
              AS qv
          FROM embeddings)
    SELECT CAST(a.label AS BIGINT) AS label, a.i AS i, b.i AS j,
      CAST(SUM(a.qv * b.qv) AS BIGINT) AS gram,
      CAST(COUNT(DISTINCT a.vec_id) AS BIGINT) AS n
    FROM q a JOIN q b ON a.vec_id = b.vec_id AND a.i <= b.i
    GROUP BY 1, 2, 3
    """,
)
def q_label_gram_matrices(sf_dir: str):
    """PER-CLASS Gram matrices — the within-class second moments that
    LDA / per-class whitening / Mahalanobis scoring learn from
    (`embedding_gram_matrix` is the pooled version; with
    `mean_embedding_by_label` these complete the per-class covariance
    inputs: cov = gram/n - mean mean^T).  Same exactness scheme: ppm
    integer quantization, so each (label, i, j) cell is an exact int64
    sum and the oracle's D^2 x n exploded self-join reduces to one
    integer matmul per (batch, label).

    Plan: per-batch, vectors group by label and contribute one
    q^T q int64 matmul each (k x D(D+1)/2 partial rows, aggregate-
    sized); partials add associatively through `_tiny_group_sum`.  The
    vectors never shuffle."""
    DIM = 64
    iu, ju = np.triu_indices(DIM)

    def _partial(batch: pa.Table) -> pa.Table:
        ids = batch["vec_id"].to_numpy()
        lab = batch["label"].to_numpy().astype(np.int64)
        flat = np.asarray(
            batch["embedding"].combine_chunks().flatten(), dtype=np.float64
        )
        q = np.floor(flat * 1_000_000).astype(np.int64).reshape(len(ids), DIM)
        labs, tabs, ns = [], [], []
        for lv in np.unique(lab):
            m = lab == lv
            g = q[m].T @ q[m]  # exact: |q| <= 1e6, n per batch bounded
            labs.append(np.full(len(iu), lv, np.int64))
            tabs.append(g[iu, ju])
            ns.append(np.full(len(iu), int(m.sum()), np.int64))
        return pa.table(
            {
                "label": pa.array(np.concatenate(labs), pa.int64()),
                "i": pa.array(np.tile(iu + 1, len(ns)), pa.int64()),
                "j": pa.array(np.tile(ju + 1, len(ns)), pa.int64()),
                "gram": pa.array(np.concatenate(tabs), pa.int64()),
                "n": pa.array(np.concatenate(ns), pa.int64()),
            }
        )

    embs = _rp(sf_dir, "embeddings", ["vec_id", "label", "embedding"])
    return _tiny_group_sum(
        embs.map_batches(_partial, batch_format="pyarrow"),
        ["label", "i", "j"],
        ["gram", "n"],
    )


@register(
    "wow_growth_by_type",
    """
    WITH w AS (SELECT event_type,
                 CAST(epoch_us(ts) // 604800000000 AS BIGINT) AS week,
                 CAST(COUNT(*) AS BIGINT) AS n
               FROM events GROUP BY 1, 2),
    g AS (SELECT event_type, week, n,
            lag(n) OVER (PARTITION BY event_type ORDER BY week) AS prev_n,
            lag(week) OVER (PARTITION BY event_type ORDER BY week) AS prev_week
          FROM w)
    SELECT event_type, week, n,
      CAST(COALESCE(prev_n, 0) AS BIGINT) AS prev_n,
      CASE WHEN prev_week = week - 1 AND prev_n > 0
           THEN CAST(n - prev_n AS DOUBLE) / prev_n END AS wow_growth
    FROM g
    """,
)
def q_wow_growth_by_type(sf_dir: str):
    """WEEK-OVER-WEEK GROWTH per event type — the period-over-period
    reporting primitive (volume trend per source/type; the discrete
    sibling of `cusum_changepoint_by_type`'s level-shift detector).
    Growth is NULL unless the immediately preceding calendar week has
    data (a gap week breaks the comparison rather than comparing
    across it) — the prev_week = week-1 guard, mirrored exactly.

    Plan: per-batch (type, week) count combiner -> `_tiny_group_sum`
    (O(types x weeks) rows) -> segmented shift per type; one exact
    division."""

    def _partial(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "event_type": batch["event_type"],
                "week": pa.array(
                    batch["ts"].cast(pa.int64()).to_numpy() // 604_800_000_000,
                    pa.int64(),
                ),
                "n": pa.array(np.ones(batch.num_rows, np.int64)),
            }
        )
        return _pa_group_sum(t, ["event_type", "week"], ["n"])

    _schema = pa.schema(
        [
            ("event_type", pa.string()),
            ("week", pa.int64()),
            ("n", pa.int64()),
            ("prev_n", pa.int64()),
            ("wow_growth", pa.float64()),
        ]
    )

    def _finish(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return _schema.empty_table()
        g = _pa_group_sum(batch, ["event_type", "week"], ["n"])
        et = g["event_type"].to_numpy(zero_copy_only=False)
        wk = g["week"].to_numpy()
        n = g["n"].to_numpy()
        order = np.lexsort((wk, et))
        et, wk, n = et[order], wk[order], n[order]
        starts = sg.segment_starts(et)
        prev_n = np.r_[0, n[:-1]]
        prev_wk = np.r_[0, wk[:-1]]
        prev_n[starts] = 0
        prev_wk[starts] = -(2**62)
        ok = (prev_wk == wk - 1) & (prev_n > 0)
        with np.errstate(invalid="ignore", divide="ignore"):
            growth = (n - prev_n).astype(np.float64) / prev_n
        return pa.table(
            {
                "event_type": pa.array(et, pa.string()),
                "week": pa.array(wk, pa.int64()),
                "n": pa.array(n, pa.int64()),
                "prev_n": pa.array(prev_n, pa.int64()),
                "wow_growth": pa.array(
                    np.nan_to_num(growth), pa.float64(), mask=~ok
                ),
            }
        )

    ev = _rp(sf_dir, "events", ["event_type", "ts"])
    return _tiny_group_sum(
        ev.map_batches(_partial, batch_format="pyarrow"), ["event_type", "week"], ["n"]
    ).map_batches(_finish, batch_format="pyarrow", batch_size=None)


@register(
    "session_length_hist",
    """
    WITH s AS (
      SELECT event_id, user_id,
        CAST(SUM(CASE WHEN gap_us > 1800000000 THEN 1 ELSE 0 END)
             OVER (PARTITION BY user_id ORDER BY ts, event_id) AS BIGINT)
          AS session_id
      FROM (SELECT *, COALESCE(date_diff('microsecond',
              lag(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id), ts),
              0) AS gap_us
            FROM events)),
    c AS (SELECT user_id, session_id, CAST(COUNT(*) AS BIGINT) AS n_events
          FROM s GROUP BY 1, 2)
    SELECT n_events AS session_len, CAST(COUNT(*) AS BIGINT) AS n_sessions
    FROM c GROUP BY 1
    """,
)
def q_session_length_hist(sf_dir: str):
    """SESSION-LENGTH distribution — how many 30-min sessions contain
    exactly k events: the engagement-shape report on top of the
    sessionizer (`session_stats_30m` describes each session; this
    describes the population — the table a packing/batching planner
    reads to size context windows).  Same session rule, same tie
    order, so the histogram is bit-consistent with every other
    session query.

    Plan: the sessionize exchange already co-locates each user's rows;
    per-partition (user, session) counts reduce to (len, n) partials
    (sessions never span partition groups), merged by one tiny sum."""
    from multimedia_indexing_ray.stages.partition import map_partitions_by_key

    _part_schema = pa.schema(
        [("session_len", pa.int64()), ("n_sessions", pa.int64())]
    )

    def _hist(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _part_schema.empty_table()
        uid = t["user_id"].to_numpy()
        eid = t["event_id"].to_numpy()
        ts = t["ts"].cast(pa.int64()).to_numpy()
        order = np.lexsort((eid, ts, uid))
        uid, ts = uid[order], ts[order]
        starts = sg.segment_starts(uid)
        gap = np.zeros(len(ts), np.int64)
        gap[1:] = ts[1:] - ts[:-1]
        gap[starts] = 0
        brk = gap > 1_800_000_000
        brk[starts] = True  # each user's first row opens a session
        sess_starts = np.flatnonzero(brk)
        sizes = np.diff(np.r_[sess_starts, len(uid)])
        uniq, cnt = np.unique(sizes, return_counts=True)
        return pa.table(
            {
                "session_len": pa.array(uniq, pa.int64()),
                "n_sessions": pa.array(cnt.astype(np.int64)),
            }
        )

    ev = _rp(sf_dir, "events", ["event_id", "user_id", "ts"])
    partials = map_partitions_by_key(ev, "user_id", _hist, num_partitions=16)
    return _tiny_group_sum(partials, ["session_len"], ["n_sessions"])
