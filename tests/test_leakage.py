"""Zero-temporal-leakage property (the north_rule hard invariant).

Perturbing ANY row with ts' > t must never change features at t.
"""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from multimedia_indexing_ray.fixtures import generate_transcripts
from multimedia_indexing_ray.specs import DEFAULT_SPECS

KEYS = ["conv_id", "ts", "turn_idx"]
FEATURES = list(DEFAULT_SPECS.feature_columns())


def _features_df(ray_session, table):
    import ray.data as rd

    from multimedia_indexing_ray.stages.features import compute_features

    out = compute_features(rd.from_arrow(table), DEFAULT_SPECS).to_pandas()
    return out.sort_values(KEYS, kind="mergesort").reset_index(drop=True)


def test_future_perturbation_does_not_leak(ray_session, smoke_table):
    base = _features_df(ray_session, smoke_table)

    # pick a cut time per conversation: the median ts; mutate all rows
    # strictly after the cut (text, role, tool AND shift their ts further
    # into the future), then re-run and compare rows at ts <= cut.
    df = smoke_table.to_pandas()
    cut = df.groupby("conv_id")["ts"].transform("median")
    future = df["ts"] > cut
    assert future.any()
    mut = df.copy()
    mut.loc[future, "text"] = "LEAKED-PAYLOAD " * 50
    mut.loc[future, "role"] = "assistant"
    mut.loc[future, "tool"] = "bash"
    mut.loc[future, "ts"] = mut.loc[future, "ts"] + np.timedelta64(3600, "s")

    mutated = _features_df(ray_session, pa.Table.from_pandas(mut, preserve_index=False))

    # compare the untouched (past) rows only, aligned on (conv_id, turn_idx)
    base_keyed = base.set_index(["conv_id", "turn_idx"])
    mut_keyed = mutated.set_index(["conv_id", "turn_idx"])
    past_keys = df.loc[~future].set_index(["conv_id", "turn_idx"]).index
    past_keys = [k for k in past_keys if k in base_keyed.index and k in mut_keyed.index]

    b = base_keyed.loc[past_keys, FEATURES].to_numpy(dtype=float)
    m = mut_keyed.loc[past_keys, FEATURES].to_numpy(dtype=float)
    np.testing.assert_allclose(b, m, rtol=1e-9, atol=1e-12)


def test_lead_columns_are_label_side(ray_session, smoke_table):
    """Leads DO look forward — they must be outside the feature vector."""
    lead_cols = set(DEFAULT_SPECS.lead_columns())
    assert lead_cols.isdisjoint(set(DEFAULT_SPECS.feature_columns()))
    assert DEFAULT_SPECS.dim == len(FEATURES)


def test_fused_serving_does_not_leak(ray_session, smoke_table):
    """Serving-path zero leakage: mutating rows strictly AFTER a probe's
    ts never changes that probe's matched features (fused features_at)."""
    import ray.data as rd

    from multimedia_indexing_ray.fixtures import generate_asof_queries
    from multimedia_indexing_ray.pipelines.features import features_at

    queries = generate_asof_queries(smoke_table, n_queries=120)

    def run(table):
        out = features_at(
            rd.from_arrow(table), rd.from_arrow(queries)
        ).to_pandas()
        return out.sort_values(["conv_id", "ts"], kind="mergesort").reset_index(drop=True)

    base = run(smoke_table)

    # mutate every turn strictly after each conversation's max probe ts
    qdf = queries.to_pandas()
    max_probe = qdf.groupby("conv_id")["ts"].max()
    df = smoke_table.to_pandas()
    cut = df["conv_id"].map(max_probe)
    future = df["ts"] > cut
    future &= cut.notna()
    if not future.any():  # fixture guard
        import pytest

        pytest.skip("no future rows beyond probes in fixture")
    mut = df.copy()
    mut.loc[future, "text"] = "LEAKED " * 40
    mut.loc[future, "role"] = "assistant"
    mutated = run(pa.Table.from_pandas(mut, preserve_index=False))

    # lead columns are label-side by spec: they DO look forward and are
    # excluded from the point-in-time invariant (specs.py docstring)
    fcols = [
        c
        for c in base.columns
        if c.startswith("matched_") and not c.startswith("matched_lead")
    ]
    for c in fcols:
        b, m = base[c], mutated[c]
        if b.dtype.kind == "f":
            assert b.isna().equals(m.isna()), c
            np.testing.assert_allclose(
                b.fillna(0).to_numpy(), m.fillna(0).to_numpy(), rtol=0, atol=0, err_msg=c
            )
        else:
            assert b.tolist() == m.tolist(), c
