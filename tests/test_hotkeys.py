"""Hot-conversation splitting: split output must be IDENTICAL to the
unsplit pipeline (windows, sessions, lags, leads), and the partition load
must actually flatten."""

import numpy as np
import pyarrow as pa
import pytest

from multimedia_indexing_ray.fixtures import TRANSCRIPT_SCHEMA
from multimedia_indexing_ray.specs import DEFAULT_SPECS

KEYS = ["conv_id", "ts", "turn_idx"]
ALL_COLS = list(DEFAULT_SPECS.feature_columns()) + list(DEFAULT_SPECS.lead_columns())


def _hot_table(n_turns=4000, seed=11):
    """One hot conversation with periodic safe gaps + a cold conversation."""
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(45.0, n_turns)
    gaps[0] = 0.0
    # a safe gap (> max window and session threshold) every ~400 rows
    gaps[np.arange(400, n_turns, 400)] = 7200.0 + rng.uniform(0, 100, len(np.arange(400, n_turns, 400)))
    ts = np.datetime64("2026-01-01", "us") + (np.cumsum(gaps * 1e6)).astype("timedelta64[us]")
    rows = {
        "conv_id": ["conv-hot"] * n_turns + ["conv-cold"] * 5,
        "turn_idx": np.concatenate([np.arange(n_turns), np.arange(5)]).astype(np.int32),
        "role": (["user", "assistant"] * (n_turns // 2 + 3))[: n_turns + 5],
        "text": [f"text number {i} alpha beta" for i in range(n_turns + 5)],
        "tool": [None] * (n_turns + 5),
        "ts": np.concatenate(
            [ts, np.datetime64("2026-02-01", "us") + np.arange(5) * np.timedelta64(60, "s")]
        ),
    }
    t = pa.table(
        {
            "conv_id": pa.array(rows["conv_id"], pa.string()),
            "turn_idx": pa.array(rows["turn_idx"], pa.int32()),
            "role": pa.array(rows["role"], pa.string()),
            "text": pa.array(rows["text"], pa.string()),
            "tool": pa.array(rows["tool"], pa.string()),
            "ts": pa.array(rows["ts"], pa.timestamp("us")),
        },
        schema=TRANSCRIPT_SCHEMA,
    )
    perm = np.random.default_rng(seed + 1).permutation(t.num_rows)
    return t.take(pa.array(perm))


def _features(ray_session, table, **kw):
    import ray.data as rd

    from multimedia_indexing_ray.stages.features import compute_features

    out = compute_features(rd.from_arrow(table), DEFAULT_SPECS, **kw)
    return out.to_pandas().sort_values(KEYS, kind="mergesort").reset_index(drop=True)


def test_split_identical_to_unsplit(ray_session):
    t = _hot_table()
    base = _features(ray_session, t)
    split = _features(
        ray_session, t, split_hot=True, hot_threshold=1000, target_chunk_rows=500
    )
    assert len(base) == len(split) == t.num_rows
    assert base["conv_id"].tolist() == split["conv_id"].tolist()
    assert base["turn_idx"].tolist() == split["turn_idx"].tolist()
    for c in ALL_COLS:
        np.testing.assert_allclose(
            base[c].to_numpy(), split[c].to_numpy(), rtol=0, atol=0, err_msg=c
        )


def test_plan_builds_and_flattens(ray_session):
    import ray.data as rd

    from multimedia_indexing_ray.stages.features import prefeaturize
    from multimedia_indexing_ray.stages.hotkeys import build_split_plan

    t = _hot_table()
    pre = rd.from_arrow(t).map_batches(prefeaturize, batch_format="pyarrow")
    plan = build_split_plan(pre, DEFAULT_SPECS, hot_threshold=1000, target_chunk_rows=500)
    assert "conv-hot" in plan.convs
    p = plan.convs["conv-hot"]
    assert len(p.boundaries_us) >= 3  # real splitting happened
    # session offsets strictly increase (each split gap starts a session)
    off = p.session_offsets["sess_1800s"]
    assert np.all(np.diff(off) >= 1)


def _scattered_table(counts, seed=3):
    """``counts[key]`` rows per key (None = null key), shuffled; each key's
    turns are 10 s apart with a safe gap (2 h) every 400 turns."""
    conv = np.concatenate(
        [np.repeat(np.array([k], dtype=object), n) for k, n in counts.items()]
    )
    idx = np.concatenate([np.arange(n) for n in counts.values()])
    ts_s = idx * 10 + (idx // 400) * 7200
    perm = np.random.default_rng(seed).permutation(len(conv))
    return pa.table(
        {
            "conv_id": pa.array(conv[perm], pa.string()),
            "turn_idx": pa.array(idx[perm].astype(np.int32)),
            "ts": pa.array(
                np.datetime64("2026-01-01", "us") + ts_s[perm] * np.timedelta64(1, "s")
            ),
        }
    )


@pytest.mark.parametrize("forced", ["0", "1"], ids=["local", "forced"])
def test_build_split_plan_exact_hot_keys(ray_session, monkeypatch, forced):
    """Exact per-key counts on a block-scattered input pick exactly the
    keys with more than hot_threshold rows — two hot keys among 200
    cold ones, a key at exactly the threshold (cold, though over its
    share in some of the 8 blocks, so a candidate) and one row over it
    (hot) — and ignore null keys; on the local plan and the forced
    keyed-exchange plan alike."""
    import ray.data as rd

    from multimedia_indexing_ray.stages.hotkeys import build_split_plan

    monkeypatch.setenv("GRAFT_FORCE_SCALE_PLAN", forced)
    cold = {f"k{i}": 100 for i in range(200)}
    counts = {"hot-a": 5000, "hot-b": 3000, "at-thr": 2000, "over-thr": 2001,
              None: 2500, **cold}
    ds = rd.from_arrow(_scattered_table(counts)).repartition(8)
    plan = build_split_plan(ds, DEFAULT_SPECS, hot_threshold=2000, target_chunk_rows=500)
    assert sorted(plan.convs) == ["hot-a", "hot-b", "over-thr"]
    assert plan.unsplittable == []
    # one boundary per 400-turn safe gap once a chunk reaches 500 rows
    assert [len(plan.convs[k].boundaries_us) for k in ("hot-a", "hot-b")] == [6, 3]


@pytest.mark.parametrize("forced", ["0", "1"], ids=["local", "forced"])
def test_build_split_plan_all_cold_input_is_empty(ray_session, monkeypatch, forced):
    """An input with no hot key gives an empty plan, also when a whole
    block holds only null keys (it keeps no candidate, and the other
    blocks keep none either)."""
    import ray.data as rd

    from multimedia_indexing_ray.stages.hotkeys import build_split_plan

    monkeypatch.setenv("GRAFT_FORCE_SCALE_PLAN", forced)
    nulls = _scattered_table({None: 3000})
    cold = _scattered_table({f"k{i}": 100 for i in range(200)})
    # unshuffled concat: the first of the 8 blocks holds null keys only
    ds = rd.from_arrow(pa.concat_tables([nulls, cold])).repartition(8)
    plan = build_split_plan(ds, DEFAULT_SPECS, hot_threshold=2000)
    assert plan.empty and plan.unsplittable == []


def test_unsplittable_conv_stays_whole(ray_session):
    """A continuous hot conversation (no safe gap) must not be split."""
    import ray.data as rd

    from multimedia_indexing_ray.stages.features import prefeaturize
    from multimedia_indexing_ray.stages.hotkeys import build_split_plan

    n = 3000
    ts = np.datetime64("2026-01-01", "us") + np.arange(n) * np.timedelta64(10, "s")
    t = pa.table(
        {
            "conv_id": pa.array(["conv-dense"] * n, pa.string()),
            "turn_idx": pa.array(np.arange(n, dtype=np.int32), pa.int32()),
            "role": pa.array(["user"] * n, pa.string()),
            "text": pa.array(["x"] * n, pa.string()),
            "tool": pa.array([None] * n, pa.string()),
            "ts": pa.array(ts, pa.timestamp("us")),
        },
        schema=TRANSCRIPT_SCHEMA,
    )
    pre = rd.from_arrow(t).map_batches(prefeaturize, batch_format="pyarrow")
    plan = build_split_plan(pre, DEFAULT_SPECS, hot_threshold=1000, target_chunk_rows=500)
    assert plan.convs == {}
    assert "conv-dense" in plan.unsplittable


def test_local_and_forced_plans_identical(ray_session, monkeypatch):
    """The local plan (the keyed stage in one task) and the forced plan
    (GRAFT_FORCE_SCALE_PLAN=1: the keyed stage through the keyed
    exchange) must give the IDENTICAL SplitPlan: same boundaries, context windows,
    session offsets and unsplittable list."""
    import ray.data as rd

    from multimedia_indexing_ray.stages.features import prefeaturize
    from multimedia_indexing_ray.stages.hotkeys import build_split_plan

    # hot+splittable, hot+unsplittable, and cold conversations together
    t = _hot_table()
    n = 2000
    ts = np.datetime64("2026-03-01", "us") + np.arange(n) * np.timedelta64(10, "s")
    dense = pa.table(
        {
            "conv_id": pa.array(["conv-dense"] * n, pa.string()),
            "turn_idx": pa.array(np.arange(n, dtype=np.int32), pa.int32()),
            "role": pa.array(["user"] * n, pa.string()),
            "text": pa.array(["x"] * n, pa.string()),
            "tool": pa.array([None] * n, pa.string()),
            "ts": pa.array(ts, pa.timestamp("us")),
        },
        schema=TRANSCRIPT_SCHEMA,
    )
    t = pa.concat_tables([t, dense])

    def _plan(forced):
        monkeypatch.setenv("GRAFT_FORCE_SCALE_PLAN", forced)
        pre = rd.from_arrow(t).map_batches(prefeaturize, batch_format="pyarrow")
        return build_split_plan(
            pre, DEFAULT_SPECS, hot_threshold=1000, target_chunk_rows=500
        )

    local = _plan("0")
    forced = _plan("1")
    assert local.unsplittable == forced.unsplittable == ["conv-dense"]
    assert set(local.convs) == set(forced.convs) == {"conv-hot"}
    a, b = local.convs["conv-hot"], forced.convs["conv-hot"]
    np.testing.assert_array_equal(a.boundaries_us, b.boundaries_us)
    np.testing.assert_array_equal(a.head_ctx_min_us, b.head_ctx_min_us)
    np.testing.assert_array_equal(a.tail_ctx_max_us, b.tail_ctx_max_us)
    assert set(a.session_offsets) == set(b.session_offsets)
    for name in a.session_offsets:
        np.testing.assert_array_equal(a.session_offsets[name], b.session_offsets[name])


def test_split_identical_to_unsplit_forced_distributed(ray_session, monkeypatch):
    """Flagship-equivalence under the forced-distributed detail pass."""
    monkeypatch.setenv("GRAFT_FORCE_SCALE_PLAN", "1")
    t = _hot_table()
    base = _features(ray_session, t)
    split = _features(
        ray_session, t, split_hot=True, hot_threshold=1000, target_chunk_rows=500
    )
    assert len(base) == len(split) == t.num_rows
    for c in ALL_COLS:
        np.testing.assert_allclose(
            base[c].to_numpy(), split[c].to_numpy(), rtol=0, atol=0, err_msg=c
        )


def test_assign_chunks_vectorized_matches_reference_loop(ray_session):
    """The searchsorted head/tail context assignment must reproduce the
    original per-boundary loop exactly on randomized plans (the flagship
    hash-exactness depends on it)."""
    import pyarrow as pa
    import ray.data as rd

    from multimedia_indexing_ray.stages.hotkeys import (
        ConvSplitPlan,
        SplitPlan,
        assign_chunks,
    )

    rng = np.random.default_rng(5)
    n = 4000
    ts = np.sort(rng.integers(0, 10**9, n)).astype(np.int64)
    conv = np.array(["hot"] * (n - 100) + ["cold"] * 100, dtype=object)
    rng.shuffle(conv)
    b = np.sort(rng.choice(ts[200:-200], 6, replace=False)).astype(np.int64)
    head = b - 50_000_000
    tail = b + 50_000_000
    plan = SplitPlan()
    plan.convs["hot"] = ConvSplitPlan(
        boundaries_us=b, head_ctx_min_us=head, tail_ctx_max_us=tail,
        session_offsets={},
    )
    t = pa.table(
        {
            "conv_id": pa.array(conv, pa.string()),
            "ts": pa.array(ts).cast(pa.timestamp("us")),
            "turn_idx": pa.array(range(n), pa.int64()),
        }
    )
    out = assign_chunks(rd.from_arrow(t), plan).to_pandas()

    # reference: the original per-boundary loop, computed inline
    tsu = ts
    hot_rows = np.flatnonzero(conv == "hot")
    th = tsu[hot_rows]
    c = np.searchsorted(b, th, side="right")
    want = []  # (turn_idx, chunk, emit)
    for r, cc in zip(hot_rows, c):
        want.append((r, cc, True))
    for i, bb in enumerate(b):
        hm = (th >= head[i]) & (th < bb)
        tm = (th >= bb) & (th <= tail[i])
        for mask, target in ((hm, i + 1), (tm, i)):
            for r in hot_rows[mask]:
                want.append((r, target, False))
    for r in np.flatnonzero(conv == "cold"):
        want.append((r, 0, True))
    got = set(zip(out["turn_idx"], out["__chunk"], out["__emit"]))
    assert got == set(want) and len(out) == len(want)
