"""Incremental (streaming-append) mode vs the batch engine.

Semantics note (documented in state/incremental.py): incremental mode is
CAUSAL — a row's features are computed when it arrives, so a row cannot
see a LATER-arriving row with the same timestamp, while the batch
engine's ts-visibility rule makes equal-ts rows mutually visible.  The
two modes agree exactly on all conversations without duplicate
timestamps (the overwhelming case); the duplicate-ts divergence is
asserted explicitly below.
"""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from multimedia_indexing_ray.specs import DEFAULT_SPECS
from multimedia_indexing_ray.state.incremental import IncrementalFeaturizer

KEYS = ["conv_id", "ts", "turn_idx"]
FEATURES = list(DEFAULT_SPECS.feature_columns())


def _no_dup_ts(table: pa.Table) -> pa.Table:
    df = table.to_pandas()
    dup_convs = set(
        df[df.duplicated(subset=["conv_id", "ts"], keep=False)]["conv_id"].unique()
    )
    return pa.Table.from_pandas(df[~df["conv_id"].isin(dup_convs)], preserve_index=False)


def test_incremental_matches_batch(ray_session, smoke_table):
    import ray.data as rd

    from multimedia_indexing_ray.stages.features import compute_features

    clean = _no_dup_ts(smoke_table)
    batch_out = (
        compute_features(rd.from_arrow(clean), DEFAULT_SPECS)
        .to_pandas()
        .sort_values(KEYS, kind="mergesort")
        .reset_index(drop=True)
    )

    # feed in global ts order (=> per-conv nondecreasing), micro-batches of 37
    inc = IncrementalFeaturizer(DEFAULT_SPECS)
    ordered = clean.take(pc.sort_indices(clean, sort_keys=[("ts", "ascending"), ("conv_id", "ascending"), ("turn_idx", "ascending")]))
    outs = []
    for start in range(0, ordered.num_rows, 37):
        outs.append(inc.append_batch(ordered.slice(start, 37)).to_pandas())
    inc_out = (
        pd.concat(outs, ignore_index=True)
        .sort_values(KEYS, kind="mergesort")
        .reset_index(drop=True)
    )
    assert len(inc_out) == len(batch_out)
    for c in FEATURES:
        np.testing.assert_allclose(
            inc_out[c].to_numpy(), batch_out[c].to_numpy(), rtol=1e-9, atol=1e-12,
            err_msg=c,
        )


def test_duplicate_ts_divergence_is_causal(ray_session, smoke_table):
    """conv-000001 has two equal-ts turns: batch mode gives both rows
    count=2 in the 300s window; incremental gives the first-arriving row
    count=1 (it cannot see the future)."""
    c1 = smoke_table.filter(pc.equal(smoke_table["conv_id"], "conv-000001"))
    c1 = c1.take(pc.sort_indices(c1, sort_keys=[("turn_idx", "ascending")]))
    inc = IncrementalFeaturizer(DEFAULT_SPECS)
    out = inc.append_batch(c1).to_pandas().sort_values("turn_idx")
    assert out["slide_300s_all_count"].tolist() == [1.0, 2.0]


def test_memory_bounded_buffer():
    """The per-conversation buffer must not grow with conversation length."""
    from multimedia_indexing_ray.state.incremental import ConversationWindowState

    st = ConversationWindowState(DEFAULT_SPECS)
    base = np.array([10.0, 2.0, 1.0, 0.0, 0.0, 0.0, 0.0])
    t0 = 1_700_000_000_000_000
    for i in range(5000):
        st.append(t0 + i * 120 * 1_000_000, base)  # 2-min cadence
    # horizon = 3600s -> at most ~30 rows + lag context retained
    assert len(st.ts) < 50


def test_sharded_actors(ray_session, smoke_table):
    import ray

    from multimedia_indexing_ray.state.incremental import sharded_incremental

    clean = _no_dup_ts(smoke_table)
    ordered = clean.take(pc.sort_indices(clean, sort_keys=[("ts", "ascending"), ("conv_id", "ascending"), ("turn_idx", "ascending")]))
    actors, route = sharded_incremental(DEFAULT_SPECS, num_shards=3)
    results = []
    for start in range(0, ordered.num_rows, 50):
        results.extend(route(ordered.slice(start, 50)))
    tables = ray.get(results)
    total = sum(t.num_rows for t in tables)
    assert total == ordered.num_rows
    for a in actors:
        ray.kill(a)


def test_current_point_lookup(ray_session, smoke_table):
    """Live point lookup returns each conversation's latest vector and
    agrees with the batch engine's last row per conversation."""
    import numpy as np
    import pyarrow.compute as pc

    from multimedia_indexing_ray.specs import DEFAULT_SPECS
    from multimedia_indexing_ray.state.incremental import IncrementalFeaturizer

    # dedupe equal-ts ties away (modes legitimately diverge there)
    df = smoke_table.to_pandas().drop_duplicates(subset=["conv_id", "ts"])
    import pyarrow as pa

    t = pa.Table.from_pandas(df, preserve_index=False)
    inc = IncrementalFeaturizer(DEFAULT_SPECS)
    batch_out = inc.append_batch(t)
    convs = sorted(set(t["conv_id"].to_pylist()))[:5]
    cur = inc.current(convs + ["never-seen-conv"])
    assert cur.num_rows == 6
    assert cur["matched_ts"][5].as_py() is None
    bo = batch_out.to_pandas().sort_values(["conv_id", "ts", "turn_idx"])
    for i, c in enumerate(convs):
        last = bo[bo["conv_id"] == c].iloc[-1]
        assert cur["matched_turn_idx"][i].as_py() == last["turn_idx"]
        np.testing.assert_allclose(
            cur["matched_text_len"][i].as_py(), last["text_len"], rtol=0
        )


def test_equal_ts_batch_mode_matches_batch_engine(ray_session, smoke_table):
    """equal_ts='batch': the incremental featurizer replays the WHOLE
    smoke table (duplicate-ts conversations included) and must equal the
    batch engine bit-for-bit on every feature column — the unified
    semantics behind the flag (VERDICT r2 stretch #9)."""
    import ray.data as rd

    from multimedia_indexing_ray.stages.features import compute_features

    inc = IncrementalFeaturizer(DEFAULT_SPECS, equal_ts="batch")
    got = (
        inc.append_batch(smoke_table)
        .to_pandas()
        .sort_values(KEYS, kind="mergesort")
        .reset_index(drop=True)
    )
    exp = (
        compute_features(rd.from_arrow(smoke_table), DEFAULT_SPECS)
        .to_pandas()
        .sort_values(KEYS, kind="mergesort")
        .reset_index(drop=True)
    )
    assert len(got) == len(exp) == smoke_table.num_rows
    for c in FEATURES:
        np.testing.assert_allclose(
            got[c].to_numpy(), exp[c].to_numpy(), rtol=0, atol=0, err_msg=c
        )


def test_equal_ts_batch_mode_rejects_split_runs():
    """A duplicate-ts run split across append calls cannot be made
    mutually visible retroactively — must raise, not silently diverge."""
    from multimedia_indexing_ray.state.incremental import ConversationWindowState

    st = ConversationWindowState(DEFAULT_SPECS)
    base = np.array([10.0, 2.0, 1.0, 0.0, 0.0, 0.0, 0.0])
    t0 = 1_700_000_000_000_000
    st.append_group(t0, np.stack([base, base]))
    with pytest.raises(ValueError, match="equal-ts run split"):
        st.append_group(t0, np.stack([base]))


@pytest.mark.parametrize("visibility", ["causal", "batch"])
def test_append_run_matches_row_and_group_paths(visibility, smoke_table):
    """The vectorized `append_run` kernel is bit-identical to the per-row
    `append` (causal) / per-run `append_group` (batch) reference paths,
    under adversarial random chunkings of the same stream (carry state
    crosses every chunk boundary)."""
    from multimedia_indexing_ray.functions.turns import base_turn_features
    from multimedia_indexing_ray.state.incremental import (
        _BASE,
        ConversationWindowState,
    )

    t = smoke_table.sort_by([("conv_id", "ascending"), ("ts", "ascending"), ("turn_idx", "ascending")])
    df = t.to_pandas()
    convs = list(df["conv_id"].unique())[:6]
    rng = np.random.default_rng(7)
    for cid in convs:
        sub = pa.Table.from_pandas(df[df["conv_id"] == cid], preserve_index=False)
        base = base_turn_features(sub)
        fmat = np.stack([base[n] for n in _BASE], axis=1)
        ts = sub["ts"].cast(pa.int64()).to_numpy()
        n = len(ts)

        ref_state = ConversationWindowState(DEFAULT_SPECS)
        ref_rows = []
        i = 0
        while i < n:
            if visibility == "batch":
                j = i + 1
                while j < n and ts[j] == ts[i]:
                    j += 1
                ref_rows.extend(ref_state.append_group(int(ts[i]), fmat[i:j]))
                i = j
            else:
                ref_rows.append(ref_state.append(int(ts[i]), fmat[i]))
                i += 1

        vec_state = ConversationWindowState(DEFAULT_SPECS)
        # random chunking; in batch mode never split an equal-ts run
        cuts = (
            sorted(set(rng.integers(1, n, size=max(1, n // 5)).tolist()))
            if n > 1
            else []
        )
        if visibility == "batch":
            cuts = [c for c in cuts if ts[c] != ts[c - 1]]
        cuts = [0] + cuts + [n]
        vec_cols: dict = {}
        for s, e in zip(cuts[:-1], cuts[1:]):
            out = vec_state.append_run(ts[s:e], fmat[s:e], visibility=visibility)
            for k, v in out.items():
                vec_cols.setdefault(k, []).append(v)

        for name in DEFAULT_SPECS.feature_columns():
            got = np.concatenate(vec_cols[name])
            want = np.array([r[name] for r in ref_rows])
            assert np.array_equal(got, want), (cid, name, got[:5], want[:5])


def test_retained_rows_do_not_pin_batch_matrix():
    """Review-found memory leak: ring-buffer rows must OWN their data.
    A retained view of the caller's batch matrix pins the whole
    multi-conversation batch in every conversation's state."""
    import numpy as np

    from multimedia_indexing_ray.state.incremental import (
        ConversationWindowState,
    )
    from multimedia_indexing_ray.specs import DEFAULT_SPECS

    st = ConversationWindowState(DEFAULT_SPECS)
    big = np.zeros((100_000, 7), dtype=np.float64)  # the "batch matrix"
    seg = big[50_000:50_004]  # a conversation's segment VIEW
    ts = np.array([10**6, 2 * 10**6, 3 * 10**6, 4 * 10**6], dtype=np.int64)
    st.append_run(ts, seg, [(0, 1), (1, 2), (2, 3), (3, 4)])
    for row in st.feat:
        base = row.base if row.base is not None else row
        assert base.nbytes < big.nbytes / 100, "row pins the batch matrix"
    # the slow per-row paths copy too
    st2 = ConversationWindowState(DEFAULT_SPECS)
    st2.append(10**6, big[7])
    base = st2.feat[0].base if st2.feat[0].base is not None else st2.feat[0]
    assert base.nbytes < big.nbytes / 100
