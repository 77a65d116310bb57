"""features_at: the full flagship composition (windows + as-of) vs the
composed oracle — features at arbitrary probe timestamps, zero leakage."""

import numpy as np
import pandas as pd
import pytest

from multimedia_indexing_ray.fixtures import generate_asof_queries
from multimedia_indexing_ray.specs import DEFAULT_SPECS
from tests.oracle import oracle_asof, oracle_features

FEATURES = list(DEFAULT_SPECS.feature_columns())


def test_features_at_matches_composed_oracle(ray_session, smoke_table):
    import ray.data as rd

    from multimedia_indexing_ray.pipelines.features import features_at

    queries = generate_asof_queries(smoke_table, n_queries=200)
    got = (
        features_at(rd.from_arrow(smoke_table), rd.from_arrow(queries))
        .to_pandas()
        .sort_values(["conv_id", "ts"], kind="mergesort")
        .reset_index(drop=True)
    )
    assert len(got) == queries.num_rows

    # oracle: per-turn features + as-of match per probe
    of = oracle_features(smoke_table.to_pandas(), DEFAULT_SPECS)
    oa = oracle_asof(smoke_table.to_pandas(), queries.to_pandas())
    of_keyed = of.set_index(["conv_id", "turn_idx"])
    oa = oa.sort_values(["conv_id", "ts"], kind="mergesort").reset_index(drop=True)

    assert got["conv_id"].tolist() == oa["conv_id"].tolist()
    m_got = got["matched_turn_idx"]
    m_exp = oa["matched_turn_idx"]
    assert m_got.isna().tolist() == m_exp.isna().tolist()
    for i in range(len(got)):
        if pd.isna(m_exp[i]):
            # unmatched probes carry nulls in every matched feature column
            assert pd.isna(got.loc[i, "matched_text_len"])
            continue
        exp_row = of_keyed.loc[(oa.loc[i, "conv_id"], int(m_exp[i]))]
        for c in FEATURES:
            np.testing.assert_allclose(
                got.loc[i, f"matched_{c}"], exp_row[c], rtol=1e-9, atol=1e-12,
                err_msg=f"row {i} feature {c}",
            )


def test_fused_equals_unfused(ray_session, smoke_table):
    """The single-exchange fused serving path must agree with the generic
    two-phase (feature table + as-of join) path row for row."""
    import ray.data as rd

    from multimedia_indexing_ray.pipelines.features import features_at

    queries = generate_asof_queries(smoke_table, n_queries=150)
    a = (
        features_at(rd.from_arrow(smoke_table), rd.from_arrow(queries), fused=True)
        .to_pandas()
        .sort_values(["conv_id", "ts"], kind="mergesort")
        .reset_index(drop=True)
    )
    b = (
        features_at(rd.from_arrow(smoke_table), rd.from_arrow(queries), fused=False)
        .to_pandas()
        .sort_values(["conv_id", "ts"], kind="mergesort")
        .reset_index(drop=True)
    )
    common = [c for c in a.columns if c in set(b.columns)]
    for c in common:
        av, bv = a[c], b[c]
        if av.dtype.kind == "f" or bv.dtype.kind == "f":
            av, bv = av.astype(float), bv.astype(float)
            assert av.isna().equals(bv.isna()), c
            np.testing.assert_allclose(av.fillna(0), bv.fillna(0), rtol=0, atol=0, err_msg=c)
        else:
            assert av.tolist() == bv.tolist(), c


def test_features_at_column_projection(ray_session, smoke_table):
    import ray.data as rd

    from multimedia_indexing_ray.pipelines.features import features_at

    queries = generate_asof_queries(smoke_table, n_queries=50)
    out = features_at(
        rd.from_arrow(smoke_table),
        rd.from_arrow(queries),
        columns=["text_len", "sess_1800s_session_idx"],
    ).to_pandas()
    matched = [c for c in out.columns if c.startswith("matched_")]
    assert sorted(matched) == [
        "matched_sess_1800s_session_idx",
        "matched_text_len",
        "matched_ts",
        "matched_turn_idx",
    ]
    assert len(out) == 50

    # spec pruning must not change values: compare vs the full compute
    full = features_at(
        rd.from_arrow(smoke_table), rd.from_arrow(queries)
    ).to_pandas()
    key = ["conv_id", "ts"]
    a = out.sort_values(key, kind="mergesort").reset_index(drop=True)
    b = full.sort_values(key, kind="mergesort").reset_index(drop=True)
    for c in ["matched_text_len", "matched_sess_1800s_session_idx", "matched_turn_idx"]:
        av, bv = a[c].astype(float), b[c].astype(float)
        assert av.isna().equals(bv.isna()), c
        np.testing.assert_allclose(av.fillna(0), bv.fillna(0), rtol=0, atol=0, err_msg=c)


def test_fused_null_probes_dropped(ray_session, smoke_table):
    """A probe with null conv_id or null ts is dropped (SQL
    null-never-joins), not a partition-wide crash."""
    import pyarrow as pa

    from multimedia_indexing_ray.pipelines.features import features_at

    import ray.data as rd

    good = smoke_table["conv_id"][0].as_py()
    ts0 = smoke_table["ts"][0].as_py()
    probes = pa.table(
        {
            "conv_id": pa.array([good, None, good], pa.string()),
            "ts": pa.array([ts0, ts0, None], pa.timestamp("us")),
        }
    )
    out = features_at(
        rd.from_arrow(smoke_table), rd.from_arrow(probes)
    ).to_pandas()
    assert len(out) == 1
    assert out["conv_id"].tolist() == [good]


def test_fused_split_hot_equals_unfused(ray_session):
    """A hot conversation is chunked and each probe is routed to its
    chunk: fused+split_hot must equal the generic unfused path row for
    row, and the plan must actually have split the conversation
    (VERDICT r2 #1: fused serving x hot-key splitting compose)."""
    import pyarrow as pa
    import ray.data as rd

    from multimedia_indexing_ray.pipelines.features import features_at
    from multimedia_indexing_ray.sources.transcripts import read_transcripts
    from multimedia_indexing_ray.stages.features import prefeaturize
    from multimedia_indexing_ray.stages.hotkeys import build_split_plan

    t = __import__("tests.test_hotkeys", fromlist=["_hot_table"])._hot_table(
        n_turns=6000, seed=13
    )
    # probes: on-turn, +1s after a turn, exactly on chunk boundaries,
    # before the first turn, after the last turn, unknown conv
    ts = t["ts"].cast(pa.int64()).to_numpy()
    hot_ts = np.sort(ts[np.asarray(t["conv_id"].to_numpy(zero_copy_only=False) == "conv-hot")])
    rng = np.random.default_rng(7)
    probe_ts = np.concatenate(
        [
            rng.choice(hot_ts, 300),
            rng.choice(hot_ts, 300) + 1_000_000,
            hot_ts[:1] - 10_000_000,
            hot_ts[-1:] + 10_000_000,
        ]
    )
    probes = pa.table(
        {
            "conv_id": pa.array(
                ["conv-hot"] * len(probe_ts) + ["conv-cold", "conv-none"], pa.string()
            ),
            "ts": pa.array(
                np.concatenate([probe_ts, hot_ts[:2] + 5_000_000])
            ).cast(pa.timestamp("us")),
        }
    )
    kw = dict(hot_threshold=1000, target_chunk_rows=500)
    # sanity: this fixture really splits
    plan = build_split_plan(
        rd.from_arrow(t), DEFAULT_SPECS, hot_threshold=1000, target_chunk_rows=500
    )
    assert "conv-hot" in plan.convs and len(plan.convs["conv-hot"].boundaries_us) >= 3

    a = (
        features_at(rd.from_arrow(t), rd.from_arrow(probes), fused=True, split_hot=True, **kw)
        .to_pandas()
        .sort_values(["conv_id", "ts"], kind="mergesort")
        .reset_index(drop=True)
    )
    b = (
        features_at(rd.from_arrow(t), rd.from_arrow(probes), fused=False)
        .to_pandas()
        .sort_values(["conv_id", "ts"], kind="mergesort")
        .reset_index(drop=True)
    )
    assert len(a) == len(b) == probes.num_rows
    common = [c for c in a.columns if c in set(b.columns)]
    assert any(c.startswith("matched_slide") for c in common)
    for c in common:
        av, bv = a[c], b[c]
        if av.dtype.kind == "f" or bv.dtype.kind == "f":
            av, bv = av.astype(float), bv.astype(float)
            assert av.isna().equals(bv.isna()), c
            np.testing.assert_allclose(av.fillna(0), bv.fillna(0), rtol=0, atol=0, err_msg=c)
        else:
            assert av.tolist() == bv.tolist(), c


def test_features_at_precomputed_split_plan(ray_session):
    """split_plan= reuse must equal the inline split_hot build."""
    import pyarrow as pa
    import ray.data as rd

    from multimedia_indexing_ray.pipelines.features import features_at
    from multimedia_indexing_ray.stages.hotkeys import build_split_plan

    t = __import__("tests.test_hotkeys", fromlist=["_hot_table"])._hot_table(
        n_turns=3000, seed=17
    )
    ts = t["ts"].cast(pa.int64()).to_numpy()
    probes = pa.table(
        {
            "conv_id": pa.array(["conv-hot"] * 100, pa.string()),
            "ts": pa.array(np.sort(ts)[::30][:100] + 500_000).cast(pa.timestamp("us")),
        }
    )
    plan = build_split_plan(
        rd.from_arrow(t), DEFAULT_SPECS, hot_threshold=1000, target_chunk_rows=500
    )
    assert not plan.empty
    a = (
        features_at(rd.from_arrow(t), rd.from_arrow(probes), split_plan=plan)
        .to_pandas().sort_values(["conv_id", "ts"], kind="mergesort").reset_index(drop=True)
    )
    b = (
        features_at(
            rd.from_arrow(t), rd.from_arrow(probes), split_hot=True,
            hot_threshold=1000, target_chunk_rows=500,
        )
        .to_pandas().sort_values(["conv_id", "ts"], kind="mergesort").reset_index(drop=True)
    )
    for c in a.columns:
        av, bv = a[c], b[c]
        if av.dtype.kind == "f":
            assert av.isna().equals(bv.isna()), c
            np.testing.assert_allclose(av.fillna(0), bv.fillna(0), rtol=0, atol=0, err_msg=c)
        else:
            assert av.tolist() == bv.tolist(), c
