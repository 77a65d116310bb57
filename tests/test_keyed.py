"""The exchange contracts and the per-key scan built on them.

`map_partitions_by_key` promises each call of `fn` one non-empty group
holding whole keys: under `LOCAL_BYTES` one call with every row (the
local plan), above it or with ``GRAFT_FORCE_SCALE_PLAN=1`` one call per
non-empty reduce block of the sort exchange (the forced plan), whose
count follows the input's block count; both plans give the same rows.
`keyed_scan` promises its body a group sorted by ``(key, *order)``
with the first row of every key's run in `starts`;
`gather` promises one `finish` call over every partial and none on an
empty table.  The window helpers are checked against per-row brute
force."""

import os
import pathlib
import re
import uuid

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

PLANS = ["local", "forced"]


def _plan_ids(plan: str, case_id: str) -> str:
    """The local plan keeps the case's plain id; the forced plan adds a
    suffix."""
    return case_id if plan == "local" else f"{case_id}-forced"


def _use_plan(monkeypatch, plan: str) -> None:
    if plan == "forced":
        monkeypatch.setenv("GRAFT_FORCE_SCALE_PLAN", "1")
    else:
        monkeypatch.delenv("GRAFT_FORCE_SCALE_PLAN", raising=False)


def _calls(ds, key):
    """Run `map_partitions_by_key` with a recording fn: one output row
    per (call, key) with the call's row count, the key's row count in
    that call and the calling process; an empty call would yield one row
    with ``call_rows == 0``."""
    from multimedia_indexing_ray.stages.partition import map_partitions_by_key

    keys = [key] if isinstance(key, str) else list(key)

    def fn(t: pa.Table) -> pa.Table:
        call = uuid.uuid4().hex
        df = t.select(keys).to_pandas()
        per_key = df.groupby(keys, sort=True).size().reset_index(name="key_rows")
        if len(per_key) == 0:
            per_key = pd.DataFrame({k: [-1] for k in keys} | {"key_rows": [0]})
        per_key["call"] = call
        per_key["call_rows"] = t.num_rows
        per_key["pid"] = os.getpid()
        return pa.Table.from_pandas(per_key, preserve_index=False)

    out = map_partitions_by_key(ds, key, fn)
    return pd.DataFrame(out.to_pandas())


# (case, key, input blocks, id)
_CASES = [
    ("empty", "k", 8, "empty"),
    ("three_keys", "k", 16, "three_keys_16_partitions"),
    ("two_column_key", ["k", "j"], 8, "two_column_key"),
]


def _case_table(case: str) -> pa.Table:
    rng = np.random.default_rng(7)
    if case == "empty":
        n, kv, jv = 0, np.empty(0, np.int64), np.empty(0, np.int64)
    elif case == "three_keys":
        n = 300
        kv, jv = rng.choice([3, 11, 40], n), np.zeros(n, np.int64)
    else:
        n = 400
        kv, jv = rng.integers(0, 5, n), rng.integers(0, 6, n)
    return pa.table(
        {
            "k": pa.array(kv, pa.int64()),
            "j": pa.array(jv, pa.int64()),
            "v": pa.array(np.arange(n), pa.int64()),
        }
    )


@pytest.mark.parametrize(
    "case,key,blocks,plan",
    [
        pytest.param(case, key, parts, plan, id=_plan_ids(plan, cid))
        for plan in PLANS
        for case, key, parts, cid in _CASES
    ],
)
def test_map_partitions_by_key_calls_hold_whole_nonempty_groups(
    ray_session, monkeypatch, case, key, blocks, plan
):
    import ray.data

    _use_plan(monkeypatch, plan)
    table = _case_table(case)
    n = table.num_rows
    # several input blocks, so every key crosses the exchange
    ds = ray.data.from_arrow(table).repartition(blocks)
    got = _calls(ds, key)
    keys = [key] if isinstance(key, str) else key
    if n == 0:
        assert len(got) == 0, "fn was called on an empty input"
        return
    assert (got["call_rows"] > 0).all(), "fn received a 0-row table"
    # each key is in exactly one call, with all of its rows
    assert not got.duplicated(keys).any(), "a key was split across calls"
    want = table.select(keys).to_pandas().groupby(keys).size()
    have = got.set_index(keys)["key_rows"].sort_index()
    pd.testing.assert_series_equal(
        have, want.sort_index().rename("key_rows"), check_dtype=False
    )
    per_call = got.groupby("call")["key_rows"].sum()
    assert (per_call == got.groupby("call")["call_rows"].first()).all()
    if plan == "local":
        assert got["call"].nunique() == 1, "the local plan split its input"
        assert got["call_rows"].iloc[0] == n
        assert (got["pid"] != os.getpid()).all(), "the local plan ran fn in the driver"
    else:
        assert got["call"].nunique() > 1, "the forced plan ran one group"


@pytest.mark.parametrize(
    "case,key,blocks",
    [pytest.param(case, key, parts, id=cid) for case, key, parts, cid in _CASES[1:]],
)
def test_local_and_forced_plans_give_the_same_rows(
    ray_session, monkeypatch, case, key, blocks
):
    import ray.data

    from multimedia_indexing_ray.stages.partition import map_partitions_by_key

    keys = [key] if isinstance(key, str) else key

    def per_key(t: pa.Table) -> pa.Table:
        g = pa.TableGroupBy(t, keys).aggregate([("v", "sum"), ("v", "count")])
        return g.sort_by([(k, "ascending") for k in keys])

    ds = ray.data.from_arrow(_case_table(case)).repartition(blocks)
    out = {}
    for plan in PLANS:
        _use_plan(monkeypatch, plan)
        got = map_partitions_by_key(ds, key, per_key).to_pandas()
        out[plan] = got.sort_values(list(got.columns)).reset_index(drop=True)
    pd.testing.assert_frame_equal(out["local"], out["forced"])


@pytest.mark.parametrize(
    "key_type,plan",
    [
        pytest.param(kt, plan, id=_plan_ids(plan, kt))
        for plan in PLANS
        for kt in ("int", "string")
    ],
)
def test_keyed_scan_sorts_each_group_and_marks_key_starts(
    ray_session, monkeypatch, key_type, plan
):
    import ray.data

    from multimedia_indexing_ray.stages.keyed import keyed_scan

    _use_plan(monkeypatch, plan)
    rng = np.random.default_rng(3)
    n = 500
    k = rng.integers(0, 23, n)
    table = pa.table(
        {
            "k": pa.array(k if key_type == "int" else [f"u{x:02d}" for x in k]),
            "ts": pa.array(rng.integers(0, 40, n), pa.int64()),  # many ties
            "id": pa.array(rng.permutation(n), pa.int64()),
        }
    )

    def body(t: pa.Table, starts: np.ndarray) -> pa.Table:
        is_start = np.zeros(t.num_rows, dtype=bool)
        is_start[starts] = True
        call = uuid.uuid4().hex
        return (
            t.append_column("call", pa.array([call] * t.num_rows))
            .append_column("pos", pa.array(np.arange(t.num_rows), pa.int64()))
            .append_column("is_start", pa.array(is_start))
        )

    ds = ray.data.from_arrow(table).repartition(3)
    got = keyed_scan(ds, "k", ["ts", "id"], body).to_pandas()
    assert len(got) == n
    if plan == "local":
        assert got["call"].nunique() == 1, "the local plan split its input"
    else:
        assert got["call"].nunique() > 1, "the forced plan ran one group"
    for _, g in got.groupby("call"):
        g = g.sort_values("pos")
        ref = g.sort_values(["k", "ts", "id"], kind="mergesort")
        assert g["id"].tolist() == ref["id"].tolist(), "group not sorted by (k, ts, id)"
        ref_starts = g.groupby("k", sort=False).cumcount().to_numpy() == 0
        np.testing.assert_array_equal(g["is_start"].to_numpy(), ref_starts)


def test_trailing_window_and_session_ids_match_brute_force():
    from multimedia_indexing_ray.functions import segments as sg
    from multimedia_indexing_ray.stages.keyed import session_ids, trailing_window

    rng = np.random.default_rng(11)
    key = np.sort(rng.integers(0, 6, 300))
    ts = np.empty(300, np.int64)
    starts = sg.segment_starts(key)
    for a, b in zip(starts, np.r_[starts[1:], 300]):
        ts[a:b] = np.sort(rng.integers(0, 50, b - a))  # equal-ts peers
    lo, hi = trailing_window(ts, starts, 10)
    for i in range(300):
        rows = np.flatnonzero((key == key[i]) & (ts >= ts[i] - 10) & (ts <= ts[i]))
        assert (lo[i], hi[i]) == (rows[0], rows[-1] + 1)
    sid = session_ids(ts, starts, 4)
    gap = pd.Series(ts).groupby(key).diff().fillna(0).to_numpy()
    ref = pd.Series(gap > 4).groupby(key).cumsum().to_numpy()
    np.testing.assert_array_equal(sid, ref)
    assert sid.dtype == np.int64


def _arrow_blocks(ds) -> "list[pa.Table]":
    import ray

    return [b for b in ray.get(ds.to_arrow_refs()) if b.num_rows]


def _gather_input(n_blocks=4):
    import ray.data

    rng = np.random.default_rng(5)
    n = 600
    table = pa.table(
        {
            "k": pa.array(rng.integers(0, 9, n), pa.int64()),
            "v": pa.array(rng.integers(-50, 50, n), pa.int64()),
        }
    )
    return table, ray.data.from_arrow(table).repartition(n_blocks)


def _gather_kernels():
    """(group_sum, record_call); nested so Ray workers get them by value."""

    def group_sum(t: pa.Table) -> pa.Table:
        g = pa.TableGroupBy(t.select(["k", "v"]), ["k"]).aggregate([("v", "sum")])
        return pa.table({"k": g["k"], "v": g["v_sum"]}).sort_by("k")

    def record_call(t: pa.Table) -> pa.Table:
        return pa.table({"call": [uuid.uuid4().hex], "rows": [t.num_rows]})

    return group_sum, record_call


@pytest.mark.parametrize("with_partial", [True, False], ids=["partial", "no_partial"])
def test_gather_calls_finish_once_over_every_partial(ray_session, with_partial):
    from multimedia_indexing_ray.stages.partition import gather

    table, ds = _gather_input()
    group_sum, record_call = _gather_kernels()
    assert ds.materialize().num_blocks() > 1
    partial = group_sum if with_partial else None
    got = gather(ds, record_call, partial).to_pandas()
    assert len(got) == 1, f"finish ran {len(got)} times"
    if with_partial:
        want = sum(group_sum(b).num_rows for b in _arrow_blocks(ds))
    else:
        want = table.num_rows
    assert got["rows"].iloc[0] == want


def test_gather_matches_the_coalesce_chain_byte_for_byte(ray_session):
    from multimedia_indexing_ray.stages.partition import gather

    table, ds = _gather_input()
    group_sum, _ = _gather_kernels()
    chain = (
        ds.map_batches(group_sum, batch_format="pyarrow")
        .repartition(1)
        .map_batches(group_sum, batch_format="pyarrow", batch_size=None)
    )
    (got,), (want,) = _arrow_blocks(gather(ds, group_sum, group_sum)), _arrow_blocks(chain)
    assert got.equals(want, check_metadata=True)
    assert got.equals(group_sum(table))


@pytest.mark.parametrize("shape", ["filtered_input", "empty_partials"])
def test_gather_never_calls_finish_on_empty(ray_session, shape):
    from multimedia_indexing_ray.stages.partition import gather

    _, ds = _gather_input()
    _, record_call = _gather_kernels()
    if shape == "filtered_input":
        ds, partial = ds.filter(expr="v > 1000"), None
    else:
        partial = lambda b: b.slice(0, 0)  # noqa: E731 — non-empty batch, 0-row partial
    assert gather(ds, record_call, partial).count() == 0


@pytest.mark.parametrize("shape", ["filtered_input", "non_empty"])
def test_gather_finishes_once_over_an_identity_partial(ray_session, shape):
    """A global aggregate unions its identity partial into the partials
    (`approx_distinct_users`, `profile_events`, `auc_value_purchase`),
    so `finish` runs once even on an empty input, and on a non-empty
    one the identity is one more partial."""
    import ray.data

    from multimedia_indexing_ray.stages.partition import gather

    table, ds = _gather_input()
    group_sum, _ = _gather_kernels()
    if shape == "filtered_input":
        ds, table = ds.filter(expr="v > 1000"), table.slice(0, 0)
    zero = pa.table({"k": pa.array([0, 99], pa.int64()), "v": pa.array([0, 0], pa.int64())})
    partials = ds.map_batches(group_sum, batch_format="pyarrow")
    (got,) = _arrow_blocks(gather(partials.union(ray.data.from_arrow(zero)), group_sum))
    assert got.equals(group_sum(pa.concat_tables([table, zero])))


def test_user_scans_go_through_keyed_scan():
    """The per-user (user_id, ts, event_id) sort, the trailing-window
    bound and the removed keyed wrappers live only in `stages/keyed.py`
    (`functions/window_kernel.py` keeps its own window bound), and the
    one-block coalesce lives only in `stages/partition.py:gather`; a
    copy of the scan skeleton (an Arrow sort or an `np.lexsort((eid, ts,
    uid))`-style per-user sort in `pipelines/`) or a `.repartition(1)`
    anywhere else in the package fails this test.  The split planner
    (`stages/hotkeys.py`) runs Ray only through its candidate scan,
    `keyed_scan` and `assign_chunks`: a `.materialize(`, `.to_pandas(`,
    `ray.get(` or `@ray.remote` there (a driver-side or actor planning
    fork) fails it too."""
    import multimedia_indexing_ray

    root = pathlib.Path(multimedia_indexing_ray.__file__).parent
    user_sort = re.compile(
        r'\(\s*"user_id",\s*"ascending"\s*\),\s*\(\s*"ts",\s*"ascending"\s*\),'
        r'\s*\(\s*"event_id",\s*"ascending"\s*\)'
    )
    # np.lexsort's LAST key is the primary one: a user-id array there is
    # a hand-rolled per-user sort
    user_lexsort = re.compile(r"np\.lexsort\(\([^()]*\b(?:uid|u)\s*\)\s*\)")
    coalesce = re.compile(r"\.repartition\(\s*1\s*\)")
    window_call = re.compile(r"(?<!def )\bsliding_lo\(")
    wrapper_ref = re.compile(r"kd\.keyed_|_sort_table")
    planner_fork = re.compile(r"\.materialize\(|\.to_pandas\(|ray\.get\(|@ray\.remote")
    hits = []
    for p in sorted(root.rglob("*.py")):
        rel = p.relative_to(root).as_posix()
        text = p.read_text()
        if rel != "stages/keyed.py":
            hits += [f"{rel}: user sort" for _ in user_sort.finditer(text)]
        if rel.startswith("pipelines/"):
            hits += [f"{rel}: {m.group(0)}" for m in user_lexsort.finditer(text)]
        if rel != "stages/partition.py":
            hits += [f"{rel}: repartition(1)" for _ in coalesce.finditer(text)]
        if rel not in ("stages/keyed.py", "functions/window_kernel.py"):
            hits += [f"{rel}: sliding_lo" for _ in window_call.finditer(text)]
        hits += [f"{rel}: {m.group(0)}" for m in wrapper_ref.finditer(text)]
        if rel == "stages/hotkeys.py":
            hits += [f"{rel}: {m.group(0)}" for m in planner_fork.finditer(text)]
    assert hits == []
