"""Adversarial EVENTS table: run the SQL-oracled temporal/keyed queries
against a corpus built to stress every tie and boundary rule — all-equal
timestamps (total-order tiebreaks), gaps exactly AT the session/window
threshold (strict-> semantics), single-event users, zero / negative /
huge values (cents rounding, gini/percentile ties), events exactly on
hour boundaries (tumbling edges), duplicate values (rank ties).  The sf*
testdata is benign; this is where the (ts, event_id) ordering invariant
and the integer-parity rules actually get exercised."""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as papq
import pytest

US = 1_000_000
HOUR = 3600 * US
HALF = 1800 * US  # the 30-min session threshold
BASE = 1_700_000_000 * US  # 2023-11-14T22:13:20Z


def _events_table() -> pa.Table:
    rows = []  # (user_id, ts_us, event_type, value)
    # user 1: 50 events at the SAME microsecond — every window/rank/lag
    # rule must fall back to the event_id tiebreak
    for i in range(50):
        rows.append((1, BASE, ["click", "view", "purchase", "error", "signup"][i % 5], float(i)))
    # user 2: a single event (n=1 degenerate stats/slope/percentile)
    rows.append((2, BASE + 17, "purchase", 42.5))
    # user 3: gaps EXACTLY 30min — strict '>' keeps one session
    for i in range(5):
        rows.append((3, BASE + i * HALF, "click", 1.0))
    # user 4: gaps 30min + 1us — every event its own session
    for i in range(5):
        rows.append((4, BASE + i * (HALF + 1), "view", -3.75))
    # user 5: zero and negative values (cents floor of negatives)
    for i, v in enumerate([0.0, -0.005, -1.005, 2.345, -99.99]):
        rows.append((5, BASE + i * 60 * US, "purchase", v))
    # user 6: huge values + events exactly ON hour boundaries
    for i in range(4):
        rows.append((6, (BASE // HOUR + i) * HOUR, "error", 1.0e7 + i))
    # user 7: duplicate values across users for rank/percentile ties
    for i in range(6):
        rows.append((7, BASE + i * 90 * US, "click", 1.0))
    uid, ts, et, val = zip(*rows)
    n = len(rows)
    return pa.table(
        {
            "event_id": pa.array(np.arange(1, n + 1, dtype=np.int64), pa.int64()),
            "ts": pa.array(np.array(ts, dtype=np.int64), pa.timestamp("us")),
            "user_id": pa.array(np.array(uid, dtype=np.int64), pa.int64()),
            "event_type": pa.array(list(et), pa.string()),
            "value": pa.array(np.array(val, dtype=np.float64), pa.float64()),
            "props": pa.array(['{"k":1}'] * n, pa.string()),
        }
    )


QUERIES = [
    "sessionize_30m",
    "lag_lead_value",
    "session_stats_30m",
    "sliding_1h",
    "tumbling_1h",
    "target_encode_user",
    "temporal_split_assign",
    "user_tenure_features",
    "churn_label_7d",
    "spend_trend_per_user",
    "user_session_profile",
    "session_trigrams",
    "event_transition_probs",
    "daily_user_spend_rank",
    "gini_by_type",
    "percentile_rank_value",
    "minmax_scale_pit",
    "calendar_features",
    "zscore_value_per_user",
    "ewma_value_per_user",
    "rolling_minmax_1h",
    "rolling_corr_3d",
    "resample_1h_ffill",
    "resample_1h_interp",
    "zscore_value_pit",
    "asof_last3_purchases",
    "purchases_between_errors",
    "rolling_rowframe_5",
    "rolling_iqr_1h",
    "global_sliding_1h",
    "rolling_pctrank_1h",
    "event_type_streak",
    "twa_value_1h",
    "median_value_per_user",
    "cum_distinct_types_per_user",
    "dataset_checksum",
    "pareto_front_events",
    "user_feature_store",
    "incremental_feature_store_parity",
    "hourly_concurrent_sessions",
    "sliding_distinct_users_1h",
    "snapshot_diff",
    "calibration_bins",
    "pr_at_thresholds",
    "new_user_rate_daily",
    "key_skew_report",
    "zorder_zonemap",
    "cusum_changepoint_by_type",
    "seasonal_residual_by_hour",
    "debounce_events",
    "group_sample_k",
    "time_in_state_by_type",
    "window_funnel_levels",
    "range_partition_plan",
    "time_to_purchase_by_cohort",
    "dense_user_ids",
    "dau_wau_stickiness",
    "winsorize_values",
    "mode_value_by_type",
    "wow_growth_by_type",
    "session_length_hist",
    "turn_features",
    "backfill_purchase",
    "session_funnel",
    "rolling_median_1h",
    "rolling_p90_1h",
    "rolling_mode_1h",
]


@pytest.fixture(scope="module")
def edge_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("edge_events")
    papq.write_table(_events_table(), str(d / "events.parquet"))
    return str(d)


@pytest.fixture(scope="module")
def con(edge_dir):
    c = duckdb.connect()
    c.execute(
        f"CREATE VIEW events AS SELECT * FROM read_parquet('{edge_dir}/events.parquet')"
    )
    return c


def _normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)]
    return df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)


@pytest.mark.parametrize("name", QUERIES)
def test_edge_events_query_parity(ray_session, con, edge_dir, name):
    _assert_parity(con, edge_dir, name)


@pytest.mark.parametrize(
    "name", ["approx_distinct_users", "profile_events", "auc_value_purchase"]
)
def test_global_aggregates_answer_an_empty_events_table(ray_session, tmp_path, name):
    """A global aggregate with no GROUP BY answers a 0-row input with
    one row per aggregate (counts 0, sums and extrema NULL), as DuckDB
    does, not with no rows."""
    t = papq.read_table("/root/testdata/sf0.001/events.parquet").slice(0, 0)
    papq.write_table(t, str(tmp_path / "events.parquet"))
    c = duckdb.connect()
    c.execute(f"CREATE VIEW events AS SELECT * FROM read_parquet('{tmp_path}/events.parquet')")
    _assert_parity(c, str(tmp_path), name)


def _assert_parity(con, sf_dir: str, name: str) -> None:
    import __ray_entry__ as e

    mine = _normalize(e.queries()[name](sf_dir).to_pandas())
    theirs = _normalize(con.execute(e.oracle_sql()[name]).df())
    assert list(mine.columns) == list(theirs.columns), f"{name}: columns differ"
    assert len(mine) == len(theirs), f"{name}: {len(mine)} != {len(theirs)} rows"
    for c in mine.columns:
        a, b = mine[c], theirs[c]
        if a.dtype.kind in "fc" or b.dtype.kind in "fc":
            an, bn = a.astype(float), b.astype(float)
            assert an.isna().equals(bn.isna()), f"{name}.{c}: null mask differs"
            np.testing.assert_array_equal(
                an.fillna(0.0).to_numpy(), bn.fillna(0.0).to_numpy(),
                err_msg=f"{name}.{c}",
            )
        else:
            assert a.astype(str).equals(b.astype(str)), f"{name}.{c}: values differ"


def test_incremental_feature_store_batch_size_invariance(ray_session, edge_dir):
    """Replaying one event at a time must equal the one-shot replay —
    the accumulator merge rule cannot depend on where micro-batches
    split (mid-user, mid-session, equal-ts runs)."""
    import pyarrow.compute as pc

    from multimedia_indexing_ray.state.incremental import IncrementalUserFeatureStore

    t = papq.read_table(f"{edge_dir}/events.parquet")
    order = np.lexsort(
        (t["event_id"].to_numpy(), t["ts"].cast(pa.int64()).to_numpy())
    )
    t = t.take(pa.array(order, pa.int64()))
    one = IncrementalUserFeatureStore()
    one.append_batch(t)
    per_row = IncrementalUserFeatureStore()
    for i in range(t.num_rows):
        per_row.append_batch(t.slice(i, 1))
    a, b = one.current().to_pandas(), per_row.current().to_pandas()
    pd.testing.assert_frame_equal(a, b)


def test_zscore_pit_no_future_leakage(ray_session, edge_dir, tmp_path_factory):
    """The PIT hard invariant, directly: perturbing each user's LAST
    event (the future, from every other row's viewpoint) must leave
    every earlier row's expanding z-score bit-identical."""
    import __ray_entry__ as e

    t = papq.read_table(f"{edge_dir}/events.parquet")
    df = t.to_pandas()
    # per user, the row with max (ts, event_id) = everyone else's future
    last_ids = set(
        df.sort_values(["ts", "event_id"]).groupby("user_id")["event_id"].last()
    )
    mut = df.copy()
    mask = mut["event_id"].isin(last_ids)
    mut.loc[mask, "value"] = mut.loc[mask, "value"] + 12345.67
    d2 = tmp_path_factory.mktemp("edge_events_mut")
    papq.write_table(pa.Table.from_pandas(mut, preserve_index=False), str(d2 / "events.parquet"))

    a = e.queries()["zscore_value_pit"](edge_dir).to_pandas()
    b = e.queries()["zscore_value_pit"](str(d2)).to_pandas()
    a = a[~a["event_id"].isin(last_ids)].sort_values("event_id").reset_index(drop=True)
    b = b[~b["event_id"].isin(last_ids)].sort_values("event_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)
    assert len(a) == len(df) - len(last_ids)
