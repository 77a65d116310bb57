"""As-of join conformance vs the naive oracle (tie rule, leakage probes,
unknown keys, unmatched handling)."""

import numpy as np
import pandas as pd
import pyarrow as pa

from multimedia_indexing_ray.fixtures import generate_asof_queries
from tests.oracle import oracle_asof

QKEYS = ["conv_id", "ts"]


def _engine_asof(ray_session, turns_table, queries_table, **kw):
    import ray.data as rd

    from multimedia_indexing_ray.stages.asof_join import asof_join

    out = asof_join(
        rd.from_arrow(turns_table),
        rd.from_arrow(queries_table),
        left_key="conv_id",
        left_on="ts",
        tiebreak="turn_idx",
        **kw,
    ).to_pandas()
    return out.sort_values(QKEYS, kind="mergesort").reset_index(drop=True)


def test_asof_matches_oracle(ray_session, smoke_table):
    queries = generate_asof_queries(smoke_table, n_queries=300)
    engine = _engine_asof(ray_session, smoke_table, queries)
    oracle = (
        oracle_asof(smoke_table.to_pandas(), queries.to_pandas())
        .sort_values(QKEYS, kind="mergesort")
        .reset_index(drop=True)
    )
    assert len(engine) == len(oracle) == queries.num_rows
    assert engine["conv_id"].tolist() == oracle["conv_id"].tolist()
    e_ts = engine["matched_ts"].astype("datetime64[us]")
    o_ts = oracle["matched_ts"].astype("datetime64[us]")
    assert e_ts.isna().tolist() == o_ts.isna().tolist()
    assert e_ts.dropna().tolist() == o_ts.dropna().tolist()
    e_ti = engine["matched_turn_idx"].astype("float64")
    o_ti = oracle["matched_turn_idx"].astype("float64")
    np.testing.assert_array_equal(e_ti.fillna(-1).to_numpy(), o_ti.fillna(-1).to_numpy())


def test_asof_tie_rule_duplicate_ts(ray_session, smoke_table):
    """conv-000001 has two turns at the same ts: query at that ts must
    match the HIGHER turn_idx."""
    import pyarrow.compute as pc

    c1 = smoke_table.filter(pc.equal(smoke_table["conv_id"], "conv-000001"))
    ts_dup = c1["ts"][0]
    queries = pa.table({"conv_id": pa.array(["conv-000001"]), "ts": pa.array([ts_dup.as_py()], pa.timestamp("us"))})
    engine = _engine_asof(ray_session, smoke_table, queries)
    assert engine["matched_turn_idx"][0] == max(c1["turn_idx"].to_pylist())


def test_asof_strict_excludes_exact(ray_session, smoke_table):
    """allow_exact_matches=False must never match a turn at exactly ts."""
    import pyarrow.compute as pc

    c0 = smoke_table.filter(pc.equal(smoke_table["conv_id"], "conv-000000"))
    t0 = c0["ts"][0].as_py()
    queries = pa.table(
        {"conv_id": pa.array(["conv-000000"] * 2), "ts": pa.array([t0, t0 + pd.Timedelta(1, "us")], pa.timestamp("us"))}
    )
    engine = _engine_asof(ray_session, smoke_table, queries, allow_exact_matches=False)
    engine = engine.sort_values("ts").reset_index(drop=True)
    assert pd.isna(engine["matched_ts"][0])  # exact ts excluded
    assert not pd.isna(engine["matched_ts"][1])  # 1us later sees it


def test_asof_drop_unmatched(ray_session, smoke_table):
    queries = generate_asof_queries(smoke_table, n_queries=200)
    kept = _engine_asof(ray_session, smoke_table, queries, keep_unmatched=False)
    full = _engine_asof(ray_session, smoke_table, queries)
    assert len(kept) == (~full["matched_ts"].isna()).sum()
    assert not kept["matched_ts"].isna().any()


def test_asof_cross_schema_keys(ray_session):
    """Different key/on column names on each side (orders x events shape)."""
    import ray.data as rd

    from multimedia_indexing_ray.stages.asof_join import asof_join

    left = pa.table(
        {
            "user_id": pa.array([1, 1, 2], pa.int64()),
            "ts": pa.array([10, 20, 15], pa.timestamp("us")),
            "value": pa.array([1.0, 2.0, 3.0]),
            "event_id": pa.array([100, 101, 102], pa.int64()),
        }
    )
    right = pa.table(
        {
            "o_custkey": pa.array([1, 2, 3], pa.int64()),
            "o_orderdate": pa.array([25, 14, 99], pa.timestamp("us")),
        }
    )
    out = (
        asof_join(
            rd.from_arrow(left),
            rd.from_arrow(right),
            left_key="user_id",
            left_on="ts",
            right_key="o_custkey",
            right_on="o_orderdate",
            tiebreak="event_id",
        )
        .to_pandas()
        .sort_values("o_custkey")
        .reset_index(drop=True)
    )
    mv = out["matched_value"]
    assert mv[0] == 2.0  # user 1 @25 -> event @20
    assert pd.isna(mv[1])  # user 2 @14 -> only event is @15 (future)
    assert pd.isna(mv[2])  # user 3 unknown key


def test_asof_forward_direction(ray_session):
    """Forward as-of: first left row with ts >= query ts, ties lowest id."""
    import ray.data as rd

    from multimedia_indexing_ray.stages.asof_join import asof_join

    left = pa.table(
        {
            "user_id": pa.array([1, 1, 1, 2], pa.int64()),
            "ts": pa.array([10, 20, 20, 5], pa.timestamp("us")),
            "value": pa.array([1.0, 2.0, 3.0, 4.0]),
            "event_id": pa.array([100, 102, 101, 103], pa.int64()),
        }
    )
    right = pa.table(
        {
            "user_id": pa.array([1, 1, 2, 3], pa.int64()),
            "ts": pa.array([15, 25, 1, 1], pa.timestamp("us")),
        }
    )
    out = (
        asof_join(
            rd.from_arrow(left),
            rd.from_arrow(right),
            left_key="user_id",
            left_on="ts",
            tiebreak="event_id",
            direction="forward",
        )
        .to_pandas()
        .sort_values(["user_id", "ts"])
        .reset_index(drop=True)
    )
    # user1@15 -> first ts>=15 is ts=20, tie -> event_id 101 (value 3.0)
    assert out.loc[0, "matched_event_id"] == 101 and out.loc[0, "matched_value"] == 3.0
    # user1@25 -> nothing at/after 25
    assert pd.isna(out.loc[1, "matched_value"])
    # user2@1 -> ts=5 (value 4.0); user3 unknown -> null
    assert out.loc[2, "matched_value"] == 4.0
    assert pd.isna(out.loc[3, "matched_value"])


def test_range_join_inclusive_bounds_and_multimatch(ray_session):
    import ray.data as rd

    from multimedia_indexing_ray.stages.asof_join import range_join

    left = pa.table(
        {
            "user_id": pa.array([1, 1, 1, 2], pa.int64()),
            "ts": pa.array([0, 5_000_000, 10_000_000, 5_000_000], pa.timestamp("us")),
            "event_id": pa.array([100, 101, 102, 103], pa.int64()),
        }
    )
    right = pa.table(
        {
            "user_id": pa.array([1, 2, 3], pa.int64()),
            "ts": pa.array([5_000_000, 99_000_000, 0], pa.timestamp("us")),
        }
    )
    out = (
        range_join(
            rd.from_arrow(left),
            rd.from_arrow(right),
            left_key="user_id",
            left_on="ts",
            lower_s=-5.0,
            upper_s=5.0,
        )
        .to_pandas()
        .sort_values(["user_id", "matched_event_id"])
        .reset_index(drop=True)
    )
    # user1 @5s with [-5s, +5s]: matches events at 0, 5, 10 (inclusive both ends)
    assert out[out["user_id"] == 1]["matched_event_id"].tolist() == [100, 101, 102]
    # user2 @99s: no matches (its event at 5s is out of range) -> dropped
    assert (out["user_id"] != 2).all()
    # user3 unknown key -> dropped; never bleeds into user1's segment
    assert set(out["user_id"]) == {1}


def test_asof_null_keys_dropped(ray_session):
    """SQL semantics: null join keys / times never match (previously NaN
    key segments could match each other)."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from multimedia_indexing_ray.stages.asof_join import asof_join

    ts = pa.array(pd.to_datetime(["2024-01-01 00:00:00", "2024-01-01 01:00:00"]))
    left = pa.table(
        {
            "k": pa.array([1, None], pa.int64()),
            "ts": ts,
            "v": pa.array([10.0, 20.0]),
        }
    )
    right = pa.table(
        {
            "k": pa.array([1, None], pa.int64()),
            "ts": pa.array(pd.to_datetime(["2024-01-01 02:00:00"] * 2)),
        }
    )
    out = asof_join(
        rd.from_arrow(left), rd.from_arrow(right),
        left_key="k", left_on="ts", tiebreak=None,
    ).to_pandas()
    # null-key right row was dropped; the valid one matched v=10
    assert len(out) == 1
    assert out["k"].tolist() == [1]
    assert out["matched_v"].tolist() == [10.0]


def test_range_join_fractional_numeric_offsets_raise(ray_session):
    import pyarrow as pa
    import pytest
    import ray.data as rd

    from multimedia_indexing_ray.stages.asof_join import range_join

    t = pa.table({"k": pa.array([1], pa.int64()), "t": pa.array([5], pa.int64())})
    with pytest.raises(ValueError, match="integral"):
        range_join(
            rd.from_arrow(t), rd.from_arrow(t),
            left_key="k", left_on="t", lower_s=-0.5, upper_s=0.5,
        )


def test_asof_tolerance_bounds_match(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from multimedia_indexing_ray.stages.asof_join import asof_join

    # left rows at 00:00 and 02:00; right rows probe at 00:30 (in
    # tolerance of 00:00), 01:30 (nearest is 00:00 but 90min > 1h ->
    # unmatched), 02:30 (in tolerance of 02:00)
    left = pa.table(
        {
            "k": pa.array([1, 1], pa.int64()),
            "ts": pa.array(pd.to_datetime(["2024-01-01 00:00:00", "2024-01-01 02:00:00"])),
            "v": pa.array([10.0, 20.0]),
        }
    )
    right = pa.table(
        {
            "k": pa.array([1, 1, 1], pa.int64()),
            "ts": pa.array(
                pd.to_datetime(
                    ["2024-01-01 00:30:00", "2024-01-01 01:30:00", "2024-01-01 02:30:00"]
                )
            ),
        }
    )
    out = (
        asof_join(
            rd.from_arrow(left), rd.from_arrow(right),
            left_key="k", left_on="ts", tiebreak=None,
            tolerance_s=3600.0,
        )
        .to_pandas()
        .sort_values("ts")
        .reset_index(drop=True)
    )
    assert out["matched_v"].fillna(-1).tolist() == [10.0, -1.0, 20.0]
    # inner semantics drop the out-of-tolerance row entirely
    inner = asof_join(
        rd.from_arrow(left), rd.from_arrow(right),
        left_key="k", left_on="ts", tiebreak=None,
        tolerance_s=3600.0, keep_unmatched=False,
    ).to_pandas()
    assert sorted(inner["matched_v"].tolist()) == [10.0, 20.0]
    # forward direction: 01:30 -> 02:00 is 30min, inside tolerance
    fwd = (
        asof_join(
            rd.from_arrow(left), rd.from_arrow(right),
            left_key="k", left_on="ts", tiebreak=None,
            direction="forward", tolerance_s=1800.0,
        )
        .to_pandas()
        .sort_values("ts")
        .reset_index(drop=True)
    )
    assert fwd["matched_v"].fillna(-1).tolist() == [-1.0, 20.0, -1.0]


def test_asof_nearest_direction(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from multimedia_indexing_ray.stages.asof_join import asof_join

    left = pa.table(
        {
            "k": pa.array([1, 1, 1], pa.int64()),
            "ts": pa.array(
                pd.to_datetime(
                    ["2024-01-01 00:00:00", "2024-01-01 01:00:00", "2024-01-01 04:00:00"]
                )
            ),
            "v": pa.array([10.0, 20.0, 30.0]),
        }
    )
    # probes: 00:20 (nearest 00:00), 00:30 (equidistant -> backward wins,
    # 10), 02:00 (nearest 01:00), 03:45 (nearest 04:00, forward side)
    right = pa.table(
        {
            "k": pa.array([1] * 4, pa.int64()),
            "ts": pa.array(
                pd.to_datetime(
                    [
                        "2024-01-01 00:20:00",
                        "2024-01-01 00:30:00",
                        "2024-01-01 02:00:00",
                        "2024-01-01 03:45:00",
                    ]
                )
            ),
        }
    )

    def run(**kw):
        return (
            asof_join(
                rd.from_arrow(left), rd.from_arrow(right),
                left_key="k", left_on="ts", tiebreak=None,
                direction="nearest", **kw,
            )
            .to_pandas()
            .sort_values("ts")
            .reset_index(drop=True)
        )

    assert run()["matched_v"].tolist() == [10.0, 10.0, 20.0, 30.0]
    # tolerance bounds each side: 02:00 is 1h from 01:00 (kept), 00:20 is
    # 20min (kept); with 15min tolerance only exact-ish neighbours remain
    tol = run(tolerance_s=900.0)
    assert tol["matched_v"].fillna(-1).tolist() == [-1.0, -1.0, -1.0, 30.0]
    # exact matches excluded: a probe AT 01:00 must skip v=20 and take
    # the nearer remaining side (00:00, backward, 1h) over 04:00 (3h)
    probe = pa.table(
        {
            "k": pa.array([1], pa.int64()),
            "ts": pa.array(pd.to_datetime(["2024-01-01 01:00:00"])),
        }
    )
    out = asof_join(
        rd.from_arrow(left), rd.from_arrow(probe),
        left_key="k", left_on="ts", tiebreak=None,
        direction="nearest", allow_exact_matches=False,
    ).to_pandas()
    assert out["matched_v"].tolist() == [10.0]


def test_asof_lastk_semantics(ray_session):
    """Hand-built last-k history: equal-ts ties newest-first by tiebreak,
    k > available history null-pads, strict mode excludes exact matches,
    allow_exact includes them, unknown keys unmatched."""
    import ray.data as rd

    from multimedia_indexing_ray.stages.asof_join import asof_lastk_join

    left = pa.table(
        {
            "k": pa.array([1, 1, 1, 1, 2], pa.int64()),
            "t": pa.array([10, 20, 20, 30, 5], pa.int64()),
            "tb": pa.array([0, 1, 2, 3, 0], pa.int64()),
            "v": pa.array([100, 200, 201, 300, 900], pa.int64()),
        }
    )
    right = pa.table(
        {
            "rid": pa.array([0, 1, 2, 3, 4], pa.int64()),
            "k": pa.array([1, 1, 1, 2, 3], pa.int64()),
            "t": pa.array([25, 20, 35, 4, 50], pa.int64()),
        }
    )

    def run(allow_exact):
        out = asof_lastk_join(
            rd.from_arrow(left),
            rd.from_arrow(right),
            k=3,
            left_key="k",
            left_on="t",
            value_col="v",
            tiebreak="tb",
            allow_exact_matches=allow_exact,
        ).to_pandas()
        return out.sort_values("rid").reset_index(drop=True)

    strict = run(False)
    # rid 0 (t=25): history {10,20a,20b} newest-first = 201 (tb=2), 200, 100
    assert strict.loc[0, ["last1", "last2", "last3"]].tolist() == [201, 200, 100]
    assert strict.loc[0, "n_last"] == 3
    # rid 1 (t=20 strict): only t=10 qualifies
    assert strict.loc[1, "last1"] == 100 and strict.loc[1, "n_last"] == 1
    assert pd.isna(strict.loc[1, "last2"]) and pd.isna(strict.loc[1, "last3"])
    # rid 2 (t=35): all four, truncated to newest 3
    assert strict.loc[2, ["last1", "last2", "last3"]].tolist() == [300, 201, 200]
    # rid 3 (k=2, t=4): before the only left row -> unmatched
    assert strict.loc[3, "n_last"] == 0 and pd.isna(strict.loc[3, "last1"])
    # rid 4: unknown key
    assert strict.loc[4, "n_last"] == 0

    loose = run(True)
    # rid 1 (t=20, exact allowed): 201, 200, 100
    assert loose.loc[1, ["last1", "last2", "last3"]].tolist() == [201, 200, 100]
    assert loose.loc[1, "n_last"] == 3
