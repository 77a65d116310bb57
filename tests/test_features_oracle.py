"""Oracle conformance: Ray engine vs naive pandas oracle (SURVEY.md §5).

allclose(rtol=1e-9, atol=1e-12) on features; EXACT equality on keys and
per-turn text under the stable ordering (conv_id, ts, turn_idx).
"""

import numpy as np
import pandas as pd
import pytest

from multimedia_indexing_ray.fixtures import generate_transcripts
from multimedia_indexing_ray.specs import DEFAULT_SPECS
from tests.oracle import oracle_features

KEYS = ["conv_id", "ts", "turn_idx"]


def _engine_features(ray_session, table, **kw):
    import ray.data as rd

    from multimedia_indexing_ray.stages.features import compute_features

    ds = rd.from_arrow(table).repartition(5)
    out = compute_features(ds, DEFAULT_SPECS, **kw).to_pandas()
    return out.sort_values(KEYS, kind="mergesort").reset_index(drop=True)


@pytest.fixture(scope="module")
def oracle_df(smoke_table):
    df = oracle_features(smoke_table.to_pandas(), DEFAULT_SPECS)
    return df.sort_values(KEYS, kind="mergesort").reset_index(drop=True)


def _compare(engine: pd.DataFrame, oracle: pd.DataFrame, check_text: bool):
    assert len(engine) == len(oracle)
    for k in ("conv_id", "turn_idx"):
        assert engine[k].tolist() == oracle[k].tolist(), f"key mismatch: {k}"
    assert (
        engine["ts"].astype("datetime64[us]").tolist()
        == oracle["ts"].astype("datetime64[us]").tolist()
    )
    if check_text:
        assert engine["text"].tolist() == oracle["text"].tolist()
    cols = list(DEFAULT_SPECS.feature_columns()) + list(DEFAULT_SPECS.lead_columns())
    for c in cols:
        np.testing.assert_allclose(
            engine[c].to_numpy(),
            oracle[c].to_numpy(),
            rtol=1e-9,
            atol=1e-12,
            err_msg=f"feature mismatch: {c}",
        )


def test_engine_matches_oracle(ray_session, smoke_table, oracle_df):
    engine = _engine_features(ray_session, smoke_table, include_text=True)
    _compare(engine, oracle_df, check_text=True)


def test_partition_count_invariance(ray_session, smoke_table, oracle_df, monkeypatch):
    """The input's block count sets the exchange's kernel calls; the
    features must not depend on it."""
    import ray.data as rd

    from multimedia_indexing_ray.stages.features import compute_features

    monkeypatch.setenv("GRAFT_FORCE_SCALE_PLAN", "1")
    for parts in (1, 3):
        ds = rd.from_arrow(smoke_table).repartition(parts)
        out = (
            compute_features(ds, DEFAULT_SPECS)
            .to_pandas()
            .sort_values(KEYS, kind="mergesort")
            .reset_index(drop=True)
        )
        _compare(out, oracle_df, check_text=False)


def test_input_permutation_invariance(ray_session, smoke_table, oracle_df):
    perm = np.random.default_rng(99).permutation(smoke_table.num_rows)
    import pyarrow as pa

    shuffled = smoke_table.take(pa.array(perm))
    engine = _engine_features(ray_session, shuffled)
    _compare(engine, oracle_df, check_text=False)


def test_packed_vector_layout(ray_session, smoke_table, oracle_df):
    engine = _engine_features(ray_session, smoke_table, pack_vector=True)
    D = DEFAULT_SPECS.dim
    mats = np.stack(engine["features"].to_numpy())
    assert mats.shape == (len(oracle_df), D)
    oracle_mat = oracle_df[list(DEFAULT_SPECS.feature_columns())].to_numpy()
    np.testing.assert_allclose(mats, oracle_mat, rtol=1e-9, atol=1e-12)


def test_custom_spec_registry_matches_oracle(ray_session, smoke_table):
    """The spec registry is a user-extension surface (SURVEY.md §2.10):
    a NON-default configuration (closed='both' sliding, two session
    thresholds, deep lags, n_tokens windows) must match the naive oracle
    too — guards against DEFAULT_SPECS-shaped assumptions in the kernel."""
    import numpy as np
    import ray.data as rd

    from multimedia_indexing_ray.specs import (
        FeatureSpecs,
        LagSpec,
        LeadSpec,
        SessionSpec,
        SlidingSpec,
        TumblingSpec,
    )
    from multimedia_indexing_ray.stages.features import compute_features
    from tests.oracle import oracle_features

    specs = FeatureSpecs(
        sliding=(
            SlidingSpec("s60_both", 60.0, None, closed="both"),
            SlidingSpec("s600_sys", 600.0, ("role", "system")),
        ),
        tumbling=(TumblingSpec("t900", 900.0, ("role", "user")),),
        session=(SessionSpec("sA", 300.0), SessionSpec("sB", 7200.0)),
        lags=(LagSpec("n_tokens", 5), LagSpec("gap_s", 1)),
        leads=(LeadSpec("gap_s", 2),),
    )
    got = (
        compute_features(rd.from_arrow(smoke_table), specs)
        .to_pandas()
        .sort_values(KEYS, kind="mergesort")
        .reset_index(drop=True)
    )
    exp = oracle_features(smoke_table.to_pandas(), specs)
    cols = list(specs.feature_columns()) + list(specs.lead_columns())
    assert len(got) == len(exp)
    for c in cols:
        np.testing.assert_allclose(
            got[c].to_numpy(), exp[c].to_numpy(), rtol=1e-9, atol=1e-12, err_msg=c
        )
