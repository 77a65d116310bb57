"""Driver-gate replica: every queries() entry vs its oracle_sql() via
DuckDB at sf0.001 — row count, schema (column names), and
order-insensitive value equality."""

import os

import duckdb
import numpy as np
import pandas as pd
import pytest

import os as _os

SF_DIR = _os.environ.get("GRAFT_PARITY_SF", "/root/testdata/sf0.001")
TABLES = "region nation customer supplier part orders lineitem events documents embeddings".split()


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in TABLES:
        c.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF_DIR}/{t}.parquet')")
    return c


def _to_pandas(res):
    if isinstance(res, pd.DataFrame):
        return res
    if hasattr(res, "to_pandas"):
        return res.to_pandas()
    raise TypeError(type(res))


def _load_script(name):
    import importlib.util

    path = _os.path.join(_os.path.dirname(__file__), "..", "scripts", f"{name}.py")
    spec = importlib.util.spec_from_file_location(name, path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


# one normalization and one strict compare, shared with the sweep script
_sweep = _load_script("correctness_sweep")
_normalize = _sweep.normalize


def _query_names():
    import __ray_entry__ as e

    return sorted(e.oracle_sql().keys())


def _gated_names():
    return _load_script("scale_rehearsal").GATED


@pytest.mark.parametrize("name", _query_names())
def test_query_matches_oracle(ray_session, con, name):
    import __ray_entry__ as e

    _assert_matches_oracle(con, name, e.queries()[name](SF_DIR))


@pytest.mark.parametrize("name", _gated_names())
def test_forced_scale_plan_matches_oracle(ray_session, con, monkeypatch, name):
    """GRAFT_FORCE_SCALE_PLAN=1 drives every gate onto its at-scale plan;
    each gated query must still match its oracle, and at least one of
    its `fits` calls must have been flipped by the switch (a gate the
    input fits under the real cap, answered False)."""
    import sys

    import __ray_entry__ as e
    from multimedia_indexing_ray.stages import partition

    real, flipped = partition.fits, []

    def _fits(n, cap):
        got = real(n, cap)
        flipped.append(0 < n <= cap and not got)
        return got

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("multimedia_indexing_ray") and getattr(mod, "fits", None) is real:
            monkeypatch.setattr(mod, "fits", _fits)
    monkeypatch.setenv("GRAFT_FORCE_SCALE_PLAN", "1")
    _assert_matches_oracle(con, name, e.queries()[name](SF_DIR))
    assert any(flipped), f"{name}: no size gate was forced ({len(flipped)} fits calls)"


def _assert_matches_oracle(con, name, res):
    import __ray_entry__ as e

    mine = _normalize(_to_pandas(res))
    theirs = _normalize(con.execute(e.oracle_sql()[name]).df())
    diff = _sweep.mismatch(mine, theirs)
    assert diff is None, f"{name}: {diff}"


def test_rows_only_queries_run(ray_session):
    import __ray_entry__ as e

    sql = e.oracle_sql()
    for name, fn in e.queries().items():
        if name in sql:
            continue
        res = _to_pandas(fn(SF_DIR))
        assert len(res) >= 0, name


def test_entry_runs(ray_session):
    import __ray_entry__ as e

    res = e.entry()
    df = _to_pandas(res.limit(10) if hasattr(res, "limit") else res)
    assert len(df) > 0


def test_zscore_edge_cases_match_oracle(ray_session, tmp_path):
    """Single-event users and constant-value users take the CASE ELSE 0.0
    branch; sf0.001 may not contain them, so exercise them explicitly."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    import __ray_entry__ as e

    ts = np.datetime64("2024-01-01T00:00:00", "us")
    tbl = pa.table(
        {
            "event_id": pa.array(range(7), pa.int64()),
            "ts": pa.array([ts] * 7),
            "user_id": pa.array([1, 1, 1, 2, 3, 3, 4], pa.int64()),
            "event_type": pa.array(["click"] * 7),
            # user 2: single event; user 3: constant value; user 4: single;
            # 0.125 -> 12.5 half-cents pins the floor(x*100+0.5) rule
            # (np.round half-even would give 12, DuckDB round 13)
            "value": pa.array([0.125, 2.50, 10.00, 5.00, 7.77, 7.77, 0.01], pa.float64()),
            "props": pa.array(["{}"] * 7),
        }
    )
    pq.write_table(tbl, tmp_path / "events.parquet")
    mine = _normalize(_to_pandas(e.queries()["zscore_value_per_user"](str(tmp_path))))
    c = duckdb.connect()
    c.execute(f"CREATE VIEW events AS SELECT * FROM read_parquet('{tmp_path}/events.parquet')")
    theirs = _normalize(c.execute(e.oracle_sql()["zscore_value_per_user"]).df())
    assert mine["zvalue"].tolist() == theirs["zvalue"].tolist()
    by_user = dict(zip(mine["event_id"], mine["zvalue"]))
    assert by_user[3] == 0.0 and by_user[6] == 0.0  # single-event users
    assert by_user[4] == 0.0 and by_user[5] == 0.0  # zero-variance user


def test_hll_estimate_tracks_exact_distinct(ray_session, tmp_path):
    """Away from the small-range regime the raw m=64 HLL estimate should
    sit within a few standard errors (1.04/sqrt(64) ~= 13%) of truth."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    import __ray_entry__ as e

    n = 20000
    ts = np.datetime64("2024-01-01T00:00:00", "us")
    tbl = pa.table(
        {
            "event_id": pa.array(range(n), pa.int64()),
            "ts": pa.array([ts] * n),
            "user_id": pa.array(np.arange(n) % 10000, pa.int64()),  # 10k distinct
            "event_type": pa.array(["click"] * n),
            "value": pa.array(np.ones(n), pa.float64()),
            "props": pa.array(["{}"] * n),
        }
    )
    pq.write_table(tbl, tmp_path / "events.parquet")
    res = _to_pandas(e.queries()["approx_distinct_users"](str(tmp_path)))
    est = float(res["est"].iloc[0])
    assert res["zero_registers"].iloc[0] == 0  # out of linear-counting range
    assert abs(est - 10000) / 10000 < 0.4  # ~3 sigma for m=64


def test_basket_pairs_brute_force_and_partition_invariance(ray_session, tmp_path, monkeypatch):
    """Association-rule counting vs a brute-force itertools oracle on a
    random basket fixture, identical at several input block counts on
    the exchange plan."""
    import itertools
    import os

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as papq

    from multimedia_indexing_ray.pipelines.queries import REGISTRY

    rng = np.random.default_rng(13)
    rows_o, rows_p = [], []
    for okey in range(300):
        basket = rng.choice(40, size=rng.integers(1, 7), replace=False)
        for p in basket:
            # duplicate lineitems of the same part inside an order must
            # count once (DISTINCT semantics)
            for _ in range(rng.integers(1, 3)):
                rows_o.append(okey)
                rows_p.append(int(p))
    t = pa.table(
        {
            "l_orderkey": pa.array(rows_o, pa.int64()),
            "l_partkey": pa.array(rows_p, pa.int64()),
        }
    )
    sf = str(tmp_path)
    papq.write_table(t, os.path.join(sf, "lineitem.parquet"))

    # brute force
    baskets = {}
    for o, p in zip(rows_o, rows_p):
        baskets.setdefault(o, set()).add(p)
    from collections import Counter

    pair_c, part_c = Counter(), Counter()
    for b in baskets.values():
        for p in b:
            part_c[p] += 1
        for a, bb in itertools.combinations(sorted(b), 2):
            pair_c[(a, bb)] += 1
    n_orders = len(baskets)
    exp = {
        k: (
            v,
            part_c[k[0]],
            part_c[k[1]],
            float(v) * n_orders / (float(part_c[k[0]]) * part_c[k[1]]),
            float(v) / part_c[k[0]],
        )
        for k, v in pair_c.items()
        if v >= 2
    }
    assert exp, "fixture must produce pairs with support >= 2"

    df = REGISTRY["basket_part_pairs"].fn(sf).to_pandas()
    got = {
        (r.p_a, r.p_b): (r.n_both, r.n_a, r.n_b, r.lift, r.confidence)
        for r in df.itertuples()
    }
    assert got == exp

    # block-layout invariance: the sentinel side-row counting (per-part
    # frequencies, order totals) must be exact however the exchange
    # groups keys, so the forced plan runs at several input block counts
    import ray.data as rd

    from multimedia_indexing_ray.pipelines.queries import basket_pair_metrics

    monkeypatch.setenv("GRAFT_FORCE_SCALE_PLAN", "1")
    for nparts in (1, 3, 8):
        df_n = basket_pair_metrics(rd.from_arrow(t).repartition(nparts)).to_pandas()
        got_n = {
            (r.p_a, r.p_b): (r.n_both, r.n_a, r.n_b, r.lift, r.confidence)
            for r in df_n.itertuples()
        }
        assert got_n == exp, nparts


def test_chi2_term_lang_planted_association(ray_session, tmp_path):
    """A token present in EVERY en doc and NO de doc must top the en
    ranking with the theoretical-maximum chi-square (== n for a perfect
    2x2 association); the df floor must drop rare tokens."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from multimedia_indexing_ray.pipelines.queries import REGISTRY

    en = [f"the and of to is zebrafish filler{i % 7}" for i in range(30)]
    de = [f"der die und das ist filler{i % 7}" for i in range(30)]
    rare = ["the and of to is unicorn"]  # df=1 < 5: must be filtered
    texts = en + de + rare
    t = pa.table(
        {
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string()),
        }
    )
    pq.write_table(t, tmp_path / "documents.parquet")

    df = REGISTRY["chi2_term_lang"].fn(str(tmp_path)).to_pandas()
    assert set(df["lang"]) == {"en", "de"}
    assert (df.groupby("lang").size() <= 20).all()
    en_top = df[df["lang"] == "en"].sort_values(
        ["chi2", "term"], ascending=[False, True]
    )
    # zebrafish: in the 30 planted-en docs only => a=30, df=30; the
    # 'unicorn' doc is also predicted en, so nl(en)=31, n=61:
    # chi2 = n*(a*d - b*c)^2 / (df*(n-df) * nl*(n-nl))
    #      = 61*(30*30 - 0*1)^2 / ((30*31)*(31*30))
    z = en_top[en_top["term"] == "zebrafish"]
    assert len(z) == 1 and z.iloc[0]["a"] == 30 and z.iloc[0]["df"] == 30
    expected = 61 * (30 * 30) ** 2 / ((30 * 31) * (31 * 30))
    assert z.iloc[0]["chi2"] == pytest.approx(expected)
    # the PERFECT discriminators (chi2 == n exactly) are the en
    # stopwords (all 31 en docs, 0 de) and the de-only stopwords
    # (A=0 for en — the zero cells matter); tie rule = term ascending
    assert en_top.iloc[0]["chi2"] == pytest.approx(61.0)
    assert en_top.iloc[0]["term"] == "and"
    # negative association is symmetric in the 2x2: zebrafish also maxes de
    de_top = df[df["lang"] == "de"]
    assert "zebrafish" in set(de_top["term"])
    assert "unicorn" not in set(df["term"])


def test_semdedup_planted_semantic_duplicates(ray_session, tmp_path):
    """Identical (and near-identical) embedding vectors land in the same
    cluster and only the FIRST in (dist, vec_id) order survives; an
    orthogonal vector is never dropped."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from multimedia_indexing_ray.pipelines.queries import REGISTRY

    d = 16
    # 10 mutually-ORTHOGONAL anchors (one-hot dims 0..9; the 8 lowest
    # vec_ids become the centroids) so no accidental cosine > tau
    rows = []
    for i in range(10):
        v = np.zeros(d)
        v[i] = 0.3
        rows.append(v)
    # planted: three copies of `base` (vec_ids 10, 11, 12) — cosine 1.0
    # with each other, 0.0 with every anchor
    base = np.zeros(d)
    base[10] = 0.2
    base[11] = 0.2
    rows += [base, base, base]
    # planted: an isolated vector orthogonal to everything
    iso = np.zeros(d)
    iso[d - 1] = 0.4
    rows.append(iso)  # vec_id 13
    mat = np.stack(rows).astype(np.float32)
    t = pa.table(
        {
            "vec_id": pa.array(range(len(rows)), pa.int64()),
            "embedding": pa.array([list(map(float, r)) for r in mat]),
            "label": pa.array([0] * len(rows), pa.int32()),
        }
    )
    pq.write_table(t, tmp_path / "embeddings.parquet")

    df = (
        REGISTRY["semdedup_docs"].fn(str(tmp_path))
        .to_pandas()
        .set_index("vec_id")
        .sort_index()
    )
    assert len(df) == 14 and df["kept"].isin([0, 1]).all()
    trio = df.loc[[10, 11, 12]]
    # all three identical vectors share a cluster; exactly one survives
    assert trio["centroid_id"].nunique() == 1
    assert trio["kept"].sum() == 1
    # equal dist => vec_id tie rule: the lowest id is the survivor
    assert trio.loc[10, "kept"] == 1
    assert df.loc[13, "kept"] == 1


def _events_table(values, types):
    import pyarrow as pa

    n = len(values)
    return pa.table(
        {
            "event_id": pa.array(range(n), pa.int64()),
            "ts": pa.array([1_700_000_000_000_000 + i for i in range(n)], pa.timestamp("us")),
            "user_id": pa.array([i % 7 for i in range(n)], pa.int64()),
            "event_type": pa.array(types, pa.string()),
            "value": pa.array([float(v) for v in values], pa.float64()),
            "props": pa.array(["{}"] * n, pa.string()),
        }
    )


def test_auc_matches_pairwise_brute_force(ray_session, tmp_path):
    """AUC from the rank formula == (wins + ties/2) / (n_pos*n_neg) by
    O(n^2) pair counting, heavy ties included."""
    import pyarrow.parquet as pq

    from multimedia_indexing_ray.pipelines.queries import REGISTRY

    rng = np.random.default_rng(42)
    vals = rng.integers(0, 20, size=300) / 4.0  # many ties
    pos = rng.random(300) < 0.3
    types = np.where(pos, "purchase", "view")
    pq.write_table(_events_table(vals, list(types)), tmp_path / "events.parquet")

    row = REGISTRY["auc_value_purchase"].fn(str(tmp_path)).to_pandas().iloc[0]
    p, n = vals[pos], vals[~pos]
    wins = (p[:, None] > n[None, :]).sum()
    ties = (p[:, None] == n[None, :]).sum()
    auc = (wins + 0.5 * ties) / (len(p) * len(n))
    assert row["n_pos"] == len(p) and row["n_neg"] == len(n)
    assert row["auc_num"] == 2 * wins + ties
    assert row["auc_den"] == 2 * len(p) * len(n)
    assert abs(row["auc"] - auc) < 1e-12


def test_tv_drift_planted_extremes(ray_session, tmp_path):
    """A type whose value distribution is identical in both halves must
    score tv == 0; a type whose supports are disjoint must score
    tv == 1; a half-shifted type must score exactly 0.5."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from multimedia_indexing_ray.pipelines.queries import REGISTRY

    day = 86_400_000_000
    rows = []  # (day_idx, type, value)
    for d in (0, 9):  # early half = days < 5, late half = days >= 5
        for v in (1.0, 2.0, 3.0, 4.0):
            rows.append((d, "same", v))
    for i, v in enumerate((1.0, 2.0, 100.0, 200.0)):
        rows.append((0 if i < 2 else 9, "disjoint", v))
    # half: early = {1,1,2,2}, late = {1,1,9,9} -> tv = 0.5
    for v in (1.0, 1.0, 2.0, 2.0):
        rows.append((0, "half", v))
    for v in (1.0, 1.0, 9.0, 9.0):
        rows.append((9, "half", v))
    n = len(rows)
    tbl = pa.table(
        {
            "event_id": pa.array(range(n), pa.int64()),
            "ts": pa.array(
                [1_700_000_000_000_000 + d * day for d, _, _ in rows],
                pa.timestamp("us"),
            ),
            "user_id": pa.array([0] * n, pa.int64()),
            "event_type": pa.array([t for _, t, _ in rows], pa.string()),
            "value": pa.array([v for _, _, v in rows], pa.float64()),
            "props": pa.array(["{}"] * n, pa.string()),
        }
    )
    pq.write_table(tbl, tmp_path / "events.parquet")

    df = (
        REGISTRY["tv_drift_by_type"].fn(str(tmp_path))
        .to_pandas()
        .set_index("event_type")
    )
    assert df.loc["same", "tv"] == 0.0
    assert df.loc["disjoint", "tv"] == 1.0
    assert df.loc["half", "tv"] == 0.5
    assert (df["n_early"] + df["n_late"]).sum() == n
    # exact rational invariant: tv == tv_num / tv_den
    assert (df["tv"] == df["tv_num"] / df["tv_den"]).all()


def test_mutual_knn_planted_hub_asymmetry(ray_session, tmp_path):
    """An outlier whose top-5 are all cluster members, while every
    cluster member prefers its 6 peers, must produce NO mutual pair —
    the hub-suppression property one-directional kNN lacks; an
    identical-vector pair must be mutual at rank 1/1.  Full output is
    cross-checked against an O(n^2) numpy oracle with the same
    (cos desc, id asc) tie rule."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from multimedia_indexing_ray.pipelines.queries import REGISTRY

    d = 8
    vecs, ids = [], []

    def add(i, v):
        ids.append(i)
        vecs.append(np.asarray(v, dtype=np.float64))

    e = np.eye(d)
    add(0, e[3])  # identical pair -> mutual rank 1/1
    add(1, e[3])
    for i in range(10, 17):  # 7-member tight cluster on e1
        add(i, e[1])
    add(20, 0.5 * e[1] + np.sqrt(0.75) * e[2])  # outlier: cos 0.5 to cluster
    mat = np.stack(vecs)
    t = pa.table(
        {
            "vec_id": pa.array(ids, pa.int64()),
            "embedding": pa.array([list(map(float, v)) for v in vecs]),
            "label": pa.array([0] * len(ids), pa.int32()),
        }
    )
    pq.write_table(t, tmp_path / "embeddings.parquet")

    df = REGISTRY["mutual_knn_pairs"].fn(str(tmp_path)).to_pandas()
    got = {(r.a_id, r.b_id): (r.rank_ab, r.rank_ba) for r in df.itertuples()}

    # numpy oracle: top-5 by (cos desc, id asc), then mutual intersection
    idv = np.asarray(ids)
    unit = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    cos = unit @ unit.T
    topk = {}
    for qi in range(len(idv)):
        order = sorted(
            (j for j in range(len(idv)) if j != qi),
            key=lambda j: (-cos[qi, j], idv[j]),
        )[:5]
        topk[idv[qi]] = {idv[j]: r + 1 for r, j in enumerate(order)}
    exp = {}
    for a in idv:
        for b, rab in topk[a].items():
            if a < b and a in topk[b]:
                exp[(a, b)] = (rab, topk[b][a])
    assert got == exp
    assert got[(0, 1)] == (1, 1)
    assert not any(20 in p for p in got)  # the hub never becomes mutual
    assert any(p[0] >= 10 for p in got)  # intra-cluster mutuals exist


def test_mad_outliers_match_numpy_brute_force(ray_session, tmp_path):
    """Exact integer med2/mad2 vs float numpy medians, plus the 3-MAD
    outlier count, across even and odd group sizes."""
    import pyarrow.parquet as pq

    from multimedia_indexing_ray.pipelines.queries import REGISTRY

    rng = np.random.default_rng(7)
    vals = np.concatenate(
        [rng.normal(10, 2, 101), rng.normal(50, 1, 100), [500.0, -300.0]]
    )
    types = ["a"] * 101 + ["b"] * 100 + ["a", "b"]
    pq.write_table(_events_table(vals, types), tmp_path / "events.parquet")

    df = (
        REGISTRY["mad_outlier_per_type"].fn(str(tmp_path))
        .to_pandas()
        .set_index("event_type")
        .sort_index()
    )
    cents = np.floor(np.asarray(vals) * 100.0 + 0.5).astype(np.int64)
    for t in ("a", "b"):
        c = cents[np.asarray(types) == t]
        med = np.median(c)
        mad = np.median(np.abs(c - med))
        row = df.loc[t]
        assert row["med2"] == int(round(2 * med))
        assert row["mad2"] == int(round(4 * mad))
        assert row["median_value"] == pytest.approx(med / 100.0)
        assert row["mad_value"] == pytest.approx(mad / 100.0)
        assert row["n_outliers"] == int(np.sum(np.abs(c - med) > 3 * mad))
        assert row["n"] == len(c)
