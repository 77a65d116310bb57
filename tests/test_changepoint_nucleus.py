"""Planted-semantics tests for the round-5l operators: CUSUM must put
the change-point exactly at a planted rate step (and pick the EARLIEST
day on ties), and nucleus selection must cut mid-bucket with the
doc_id tie rule when the token budget crosses inside one quality
bucket."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as papq
import pytest

US = 1_000_000
DAY = 86400 * US
BASE_DAY = (1_700_000_000 * US // DAY) * DAY  # midnight-aligned


def test_cusum_planted_step(ray_session, tmp_path):
    import __ray_entry__ as e

    # 10 days at 1/day then 10 days at 3/day: n=20, T=40; dev_k =
    # |20*cum_k - 40k| peaks at k=10 (value 200), the step boundary
    rows = []
    for d in range(10):
        rows.append(d)
    for d in range(10, 20):
        rows.extend([d, d, d])
    n = len(rows)
    t = pa.table(
        {
            "event_id": pa.array(np.arange(1, n + 1, dtype=np.int64)),
            "ts": pa.array(
                np.array([BASE_DAY + d * DAY for d in rows], np.int64),
                pa.timestamp("us"),
            ),
            "user_id": pa.array(np.ones(n, np.int64)),
            "event_type": pa.array(["click"] * n, pa.string()),
            "value": pa.array(np.ones(n), pa.float64()),
            "props": pa.array(["{}"] * n, pa.string()),
        }
    )
    papq.write_table(t, str(tmp_path / "events.parquet"))
    out = e.queries()["cusum_changepoint_by_type"](str(tmp_path)).to_pandas()
    assert len(out) == 1
    r = out.iloc[0]
    assert r["n_days"] == 20 and r["total"] == 40
    assert r["k_star"] == 10  # last flat day = the change boundary
    assert r["day_star"] == BASE_DAY // DAY + 9
    assert r["s_max"] == 200 and r["s_norm"] == 200 / (20 * 40)


def test_cusum_uniform_ties_to_earliest(ray_session, tmp_path):
    import __ray_entry__ as e

    # perfectly uniform 1/day for 5 days: dev_k = 0 for all k -> the
    # earliest day must win the argmax tie
    n = 5
    t = pa.table(
        {
            "event_id": pa.array(np.arange(1, n + 1, dtype=np.int64)),
            "ts": pa.array(
                np.array([BASE_DAY + d * DAY for d in range(n)], np.int64),
                pa.timestamp("us"),
            ),
            "user_id": pa.array(np.ones(n, np.int64)),
            "event_type": pa.array(["view"] * n, pa.string()),
            "value": pa.array(np.ones(n), pa.float64()),
            "props": pa.array(["{}"] * n, pa.string()),
        }
    )
    papq.write_table(t, str(tmp_path / "events.parquet"))
    out = e.queries()["cusum_changepoint_by_type"](str(tmp_path)).to_pandas()
    r = out.iloc[0]
    assert r["s_max"] == 0 and r["k_star"] == 1
    assert r["day_star"] == BASE_DAY // DAY


def _write_docs(d, ids, texts, source="srcA"):
    t = pa.table(
        {
            "doc_id": pa.array(np.asarray(ids, np.int64), pa.int64()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(["en"] * len(ids), pa.string()),
            "source": pa.array([source] * len(ids), pa.string()),
            "n_chars": pa.array([len(s) for s in texts], pa.int64()),
        }
    )
    papq.write_table(t, str(d / "documents.parquet"))
    return str(d)


def test_nucleus_mid_bucket_cut(ray_session, tmp_path):
    import __ray_entry__ as e

    # quality = stopword count ('the' x q), tokens = total words.
    # q=2 docs: ids 1,2,3 with 10 tokens each; q=1 docs: ids 4,5,6
    # with 10 tokens each. total=60, budget=48: all q=2 kept (30),
    # then q=1 in doc_id order: id4 (cum_before 30), id5 (40) kept;
    # id6 (cum_before 50 >= 48) dropped -> the cut lands MID-bucket
    def doc(q, pad):
        return " ".join(["the"] * q + ["w%d" % i for i in range(pad)])

    texts = [doc(2, 8), doc(2, 8), doc(2, 8), doc(1, 9), doc(1, 9), doc(1, 9)]
    sf = _write_docs(tmp_path, [1, 2, 3, 4, 5, 6], texts)
    out = e.queries()["nucleus_select_docs"](sf).to_pandas()
    assert sorted(out["doc_id"]) == [1, 2, 3, 4, 5]
    # and the selection agrees column-for-column with the oracle rule
    assert (out["n_tokens"] == 10).all()


def test_nucleus_budget_covers_all_but_tail(ray_session, tmp_path):
    import __ray_entry__ as e

    # one source, single quality bucket: pure doc_id-ordered prefix
    texts = ["a b c d e"] * 5  # 5 tokens each, total 25, budget 20
    sf = _write_docs(tmp_path, [10, 20, 30, 40, 50], texts)
    out = e.queries()["nucleus_select_docs"](sf).to_pandas()
    assert sorted(out["doc_id"]) == [10, 20, 30, 40]


def test_debounce_frontier_kernel():
    """Greedy keep-mask semantics incl. the boundary rule (an event at
    EXACTLY last_kept + W is kept) and last-KEPT (not last-seen)
    anchoring: 0, 10, 20, 30, 45 with W=30 keeps 0, 30 (not 45 —
    45 < 30+30) ... and ties at the same instant keep only the first."""
    import numpy as np

    from multimedia_indexing_ray.functions.packing import debounce_frontier

    grp = np.zeros(6, np.int64)
    ts = np.array([0, 10, 20, 30, 45, 70], np.int64)
    keep = debounce_frontier(grp, ts, 30)
    assert keep.tolist() == [True, False, False, True, False, True]
    # same-instant ties: only the first row (min tiebreak) survives
    grp2 = np.array([1, 1, 1, 2], np.int64)
    ts2 = np.array([5, 5, 5, 5], np.int64)
    keep2 = debounce_frontier(grp2, ts2, 30)
    assert keep2.tolist() == [True, False, False, True]


def _debounce_loop(grp, ts, window):
    keep, last = [], {}
    for g, t in zip(grp.tolist(), ts.tolist()):
        k = g not in last or t >= last[g] + window
        if k:
            last[g] = t
        keep.append(k)
    return keep


@pytest.mark.parametrize("seed", range(6))
def test_debounce_frontier_matches_python_loop(seed):
    """Random grouped inputs (dense ties, sparse runs, single-row
    groups, windows from 0 up past the whole span) against a per-row
    Python loop over the last kept event."""
    from multimedia_indexing_ray.functions.packing import debounce_frontier

    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 400))
    grp = np.sort(rng.integers(0, int(rng.integers(1, 30)), n))
    ts = np.empty(n, np.int64)
    for g in np.unique(grp):
        m = grp == g
        ts[m] = np.sort(rng.integers(0, int(rng.integers(1, 500)), int(m.sum())))
    for window in (0, 1, 7, 30, 1000):
        got = debounce_frontier(grp, ts, window).tolist()
        assert got == _debounce_loop(grp, ts, window), (seed, window)


def test_debounce_frontier_hot_sparse_key_time_bound():
    """One key, 50,000 events all at least `window` apart: every event
    is kept.  A pass per kept event is quadratic here (13.4 s on a
    1-core container); the successor search plus pointer doubling is
    O(n log n) and finishes far inside the bound."""
    import time

    from multimedia_indexing_ray.functions.packing import debounce_frontier

    n, window = 50_000, 30
    grp = np.zeros(n, np.int64)
    ts = np.arange(n, dtype=np.int64) * window
    t0 = time.perf_counter()
    keep = debounce_frontier(grp, ts, window)
    elapsed = time.perf_counter() - t0
    assert keep.all()
    assert elapsed < 2.0, f"debounce_frontier took {elapsed:.2f}s on 50k sparse events"


def _write_funnel_events(d, rows):
    # rows: (user_id, ts_us, event_type)
    uid, ts, et = zip(*rows)
    n = len(rows)
    t = pa.table(
        {
            "event_id": pa.array(np.arange(1, n + 1, dtype=np.int64)),
            "ts": pa.array(np.array(ts, np.int64), pa.timestamp("us")),
            "user_id": pa.array(np.array(uid, np.int64)),
            "event_type": pa.array(list(et), pa.string()),
            "value": pa.array(np.ones(n), pa.float64()),
            "props": pa.array(["{}"] * n, pa.string()),
        }
    )
    papq.write_table(t, str(d / "events.parquet"))
    return str(d)


def test_window_funnel_planted(ray_session, tmp_path):
    import __ray_entry__ as e

    US = 1_000_000
    D = 86400 * US
    B = 1_700_000_000 * US
    rows = [
        # user 1: full chain inside 3d -> level 3
        (1, B, "signup"), (1, B + D, "click"), (1, B + 2 * D, "purchase"),
        # user 2: purchase lands at exactly +3d -> inclusive, level 3
        (2, B, "signup"), (2, B + D, "click"), (2, B + 3 * D, "purchase"),
        # user 3: purchase 1us past the window -> level 2
        (3, B, "signup"), (3, B + D, "click"), (3, B + 3 * D + 1, "purchase"),
        # user 4: click at the SAME microsecond as signup -> strict '>'
        # rejects it; a later click exists -> level 2 via that one,
        # purchase BEFORE the click must not count -> not level 3
        (4, B, "signup"), (4, B, "click"), (4, B + 1, "purchase"),
        (4, B + 2, "click"),
        # user 5: greedy trap — first click early, purchase only before
        # it; later click is followed by purchase inside window; the
        # EXISTS semantics (any chain) must find it -> level 3
        (5, B, "signup"), (5, B + 1, "click"), (5, B + 2 * D, "click"),
        (5, B + 2 * D + 1, "purchase"),
        # user 6: no signup at all -> level 0
        (6, B, "click"), (6, B + 1, "purchase"),
        # user 7: signup only -> level 1
        (7, B, "signup"),
    ]
    sf = _write_funnel_events(tmp_path, rows)
    out = (
        e.queries()["window_funnel_levels"](sf)
        .to_pandas()
        .set_index("user_id")["funnel_level"]
    )
    assert out.to_dict() == {1: 3, 2: 3, 3: 2, 4: 2, 5: 3, 6: 0, 7: 1}


def test_pairs_within_segments_kernel():
    from multimedia_indexing_ray.pipelines.queries import _pairs_within_segments

    starts = np.array([0, 3, 4])  # sizes 3, 1, 2
    a, b = _pairs_within_segments(starts, 6)
    assert list(zip(a.tolist(), b.tolist())) == [(0, 1), (0, 2), (1, 2), (4, 5)]
    # degenerate: all singleton segments -> no pairs
    a2, b2 = _pairs_within_segments(np.array([0, 1, 2]), 3)
    assert len(a2) == 0 and len(b2) == 0


def test_time_to_purchase_planted(ray_session, tmp_path):
    import __ray_entry__ as e

    US = 1_000_000
    D = 86400 * US
    W = 7 * D
    B = (1_700_000_000 * US // W) * W  # week-aligned
    rows = [
        # user 1: signup, purchase 2d later -> converted, tte = 2d
        (1, B, "signup"), (1, B + 2 * D, "purchase"),
        # user 2: purchase BEFORE signup only -> censored (not converted)
        (2, B + D, "purchase"), (2, B + 2 * D, "signup"),
        # user 3: purchase at EXACTLY the signup instant -> strict '>',
        # censored; a later one converts with tte = 4d
        (3, B, "signup"), (3, B, "purchase"), (3, B + 4 * D, "purchase"),
        # user 4: signup in week 2, tte = 6d (its cohort's only value)
        (4, B + W, "signup"), (4, B + W + 6 * D, "purchase"),
        # user 5: signup week 1, never purchases -> censored
        (5, B + 3 * D, "signup"),
    ]
    uid, ts, et = zip(*rows)
    n = len(rows)
    t = pa.table(
        {
            "event_id": pa.array(np.arange(1, n + 1, dtype=np.int64)),
            "ts": pa.array(np.array(ts, np.int64), pa.timestamp("us")),
            "user_id": pa.array(np.array(uid, np.int64)),
            "event_type": pa.array(list(et), pa.string()),
            "value": pa.array(np.ones(n), pa.float64()),
            "props": pa.array(["{}"] * n, pa.string()),
        }
    )
    papq.write_table(t, str(tmp_path / "events.parquet"))
    out = (
        e.queries()["time_to_purchase_by_cohort"](str(tmp_path))
        .to_pandas()
        .sort_values("cohort_week")
        .reset_index(drop=True)
    )
    assert len(out) == 2
    w1, w2 = out.iloc[0], out.iloc[1]
    # week 1: users 1, 3, 5 signed up (user 2's signup also week 1)
    assert w1["n_signups"] == 4 and w1["n_converted"] == 2
    # converted ttes: 2d (u1), 4d (u3); lower median of [2d, 4d] = 2d
    assert w1["median_tte_us"] == 2 * D
    assert w1["conversion_rate"] == 2 / 4
    assert w2["n_signups"] == 1 and w2["n_converted"] == 1
    assert w2["median_tte_us"] == 6 * D and w2["conversion_rate"] == 1.0


def test_kmeans_milli_matches_naive_lloyd(ray_session, tmp_path):
    """Distributed 2-round integer Lloyd vs a naive sequential
    reference with the same quantize / argmin-tie / round-half-up
    rules, on a corpus where round 1 MOVES a centroid (the four init
    vectors all sit in one blob; a far blob must capture one)."""
    import __ray_entry__ as e

    rng = np.random.default_rng(11)
    d = 64
    near = rng.normal(0, 0.01, (10, d)) 
    far = rng.normal(0.4, 0.01, (6, d))
    vecs = np.vstack([near, far]).astype(np.float32)
    t = pa.table(
        {
            "vec_id": pa.array(np.arange(1, 17, dtype=np.int64)),
            "embedding": pa.array([v.tolist() for v in vecs], pa.list_(pa.float32())),
            "label": pa.array(np.zeros(16, np.int32), pa.int32()),
        }
    )
    papq.write_table(t, str(tmp_path / "embeddings.parquet"))
    out = (
        e.queries()["kmeans_milli_2rounds"](str(tmp_path))
        .to_pandas()
        .sort_values("vec_id")
        .reset_index(drop=True)
    )
    # naive reference
    iq = np.floor(vecs.astype(np.float64) * 1000 + 0.5).astype(np.int64)
    cents = iq[:4].copy()  # init: 4 lowest vec_ids
    for _ in range(1):
        dist = ((iq[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
        j = np.argmin(dist, axis=1)
        for c in range(4):
            m = j == c
            if m.any():
                s, n = iq[m].sum(axis=0), int(m.sum())
                cents[c] = np.floor_divide(2 * s + n, 2 * n)
    dist = ((iq[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
    jf = np.argmin(dist, axis=1)
    df = dist[np.arange(16), jf]
    assert out["cluster"].tolist() == jf.tolist()
    assert out["dist2"].tolist() == df.tolist()
    # the far blob must NOT share a cluster with the near blob
    assert len(set(out["cluster"][10:])) == 1
    assert set(out["cluster"][10:]).isdisjoint(set(out["cluster"][:10]))


def test_dense_user_ids_sparse_buckets(ray_session, tmp_path):
    """Sparse, gappy key space spanning many fixed-width buckets —
    dense ids must still be contiguous 0..n-1 in key order."""
    import __ray_entry__ as e

    US = 1_000_000
    B = 1_700_000_000 * US
    users = np.array([7, 9, 100_000, 100_001, 5_000_000, 99, 7, 9], np.int64)
    n = len(users)
    t = pa.table(
        {
            "event_id": pa.array(np.arange(1, n + 1, dtype=np.int64)),
            "ts": pa.array(np.full(n, B), pa.timestamp("us")),
            "user_id": pa.array(users),
            "event_type": pa.array(["click"] * n, pa.string()),
            "value": pa.array(np.ones(n), pa.float64()),
            "props": pa.array(["{}"] * n, pa.string()),
        }
    )
    papq.write_table(t, str(tmp_path / "events.parquet"))
    out = (
        e.queries()["dense_user_ids"](str(tmp_path))
        .to_pandas()
        .sort_values("user_id")
        .reset_index(drop=True)
    )
    assert out["user_id"].tolist() == [7, 9, 99, 100_000, 100_001, 5_000_000]
    assert out["dense_id"].tolist() == [0, 1, 2, 3, 4, 5]


def test_dau_wau_planted(ray_session, tmp_path):
    """User 1 active on days 0 and 9; user 2 on day 3: WAU(3) counts
    both (user 1 carried from day 0? no — 3 > 0+6 is false, 3 <= 6 so
    yes) ... assert the exact carry window [d, d+6]."""
    import __ray_entry__ as e

    US = 1_000_000
    DAY = 86400 * US
    B = (1_700_000_000 * US // DAY) * DAY
    rows = [(1, 0), (1, 9), (2, 3)]
    uid, d = zip(*rows)
    n = len(rows)
    t = pa.table(
        {
            "event_id": pa.array(np.arange(1, n + 1, dtype=np.int64)),
            "ts": pa.array(
                np.array([B + x * DAY for x in d], np.int64), pa.timestamp("us")
            ),
            "user_id": pa.array(np.array(uid, np.int64)),
            "event_type": pa.array(["click"] * n, pa.string()),
            "value": pa.array(np.ones(n), pa.float64()),
            "props": pa.array(["{}"] * n, pa.string()),
        }
    )
    papq.write_table(t, str(tmp_path / "events.parquet"))
    out = (
        e.queries()["dau_wau_stickiness"](str(tmp_path))
        .to_pandas()
        .set_index("day")
    )
    d0 = B // DAY
    # day 0: dau=1 (u1), wau=1; day 3: dau=1 (u2), wau=2 (u1 carry +
    # u2); day 6: dau=0, wau=2 (u1 day0 carries through day 6, u2
    # through day 9); day 7: wau=1 (u1's day-0 carry expired, u2 lives)
    assert out.loc[d0, "dau"] == 1 and out.loc[d0, "wau"] == 1
    assert out.loc[d0 + 3, "dau"] == 1 and out.loc[d0 + 3, "wau"] == 2
    assert out.loc[d0 + 6, "dau"] == 0 and out.loc[d0 + 6, "wau"] == 2
    assert out.loc[d0 + 7, "dau"] == 0 and out.loc[d0 + 7, "wau"] == 1
    assert out.loc[d0 + 9, "dau"] == 1 and out.loc[d0 + 9, "wau"] == 2
    assert out.loc[d0 + 3, "stickiness"] == 0.5
    # no rows outside the observed span
    assert out.index.min() == d0 and out.index.max() == d0 + 9


def test_order_reconciliation_planted(ray_session, tmp_path):
    import __ray_entry__ as e

    base = np.datetime64("2024-01-01", "us").astype(np.int64)
    o = pa.table(
        {
            "o_orderkey": pa.array([1, 2, 3], pa.int64()),
            "o_custkey": pa.array([1, 1, 1], pa.int64()),
            "o_orderstatus": pa.array(["F"] * 3, pa.string()),
            # order 1 reconciles (10.00 = 4.00 + 6.00); order 2 is off
            # by 25 cents; order 3 has no lines (diff = its full total)
            "o_totalprice": pa.array([10.0, 5.0, 2.5], pa.float64()),
            "o_orderdate": pa.array(np.full(3, base), pa.timestamp("us")),
            "o_orderpriority": pa.array(["1-URGENT"] * 3, pa.string()),
        }
    )
    li = pa.table(
        {
            "l_orderkey": pa.array([1, 1, 2], pa.int64()),
            "l_partkey": pa.array([1] * 3, pa.int64()),
            "l_suppkey": pa.array([1] * 3, pa.int64()),
            "l_linenumber": pa.array([1, 2, 1], pa.int64()),
            "l_quantity": pa.array([1.0] * 3, pa.float64()),
            "l_extendedprice": pa.array([4.0, 6.0, 4.75], pa.float64()),
            "l_discount": pa.array([0.0] * 3, pa.float64()),
            "l_tax": pa.array([0.0] * 3, pa.float64()),
            "l_returnflag": pa.array(["N"] * 3, pa.string()),
            "l_linestatus": pa.array(["O"] * 3, pa.string()),
            "l_shipdate": pa.array(np.full(3, base), pa.timestamp("us")),
        }
    )
    papq.write_table(o, str(tmp_path / "orders.parquet"))
    papq.write_table(li, str(tmp_path / "lineitem.parquet"))
    out = e.queries()["order_total_reconciliation"](str(tmp_path)).to_pandas()
    r = out.iloc[0]
    assert r["n_orders"] == 3 and r["n_exact"] == 1 and r["n_mismatch"] == 2
    assert r["max_abs_diff_cents"] == 250  # order 3: 2.50 vs nothing
    assert r["sum_abs_diff_cents"] == 250 + 25
