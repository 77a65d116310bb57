"""Source adapters: events->transcript mapping and batch validation."""

import os

import pyarrow as pa
import pyarrow.compute as pc


def test_events_to_transcripts(ray_session):
    import ray.data as rd

    from multimedia_indexing_ray.fixtures import TRANSCRIPT_SCHEMA
    from multimedia_indexing_ray.sources.transcripts import events_to_transcripts

    sf = os.environ.get("GRAFT_PARITY_SF", "/root/testdata/sf0.001")
    ev = rd.read_parquet(f"{sf}/events.parquet")
    out = events_to_transcripts(ev)
    t = pa.Table.from_pandas(out.to_pandas(), preserve_index=False)
    assert set(t.column_names) == set(TRANSCRIPT_SCHEMA.names)
    assert t.num_rows == ev.count() > 0
    # conv_id is the stringified user_id; text is never null (coalesced)
    assert t["conv_id"][0].as_py().isdigit()
    assert t.column("text").null_count == 0
    # tool only set for purchase events
    df = t.to_pandas()
    assert (df.loc[df["tool"].notna(), "role"] == "purchase").all()


def test_validate_batch_drops_null_keys():
    from multimedia_indexing_ray.fixtures import TRANSCRIPT_SCHEMA
    from multimedia_indexing_ray.sources.transcripts import validate_batch

    rows = [
        {"conv_id": "a", "turn_idx": 0, "role": "user", "text": "x", "tool": None,
         "ts": 1_000_000},
        {"conv_id": None, "turn_idx": 1, "role": "user", "text": "y", "tool": None,
         "ts": 2_000_000},
    ]
    t = pa.table(
        {
            "conv_id": pa.array([r["conv_id"] for r in rows], pa.string()),
            "turn_idx": pa.array([r["turn_idx"] for r in rows], pa.int32()),
            "role": pa.array([r["role"] for r in rows], pa.string()),
            "text": pa.array([r["text"] for r in rows], pa.string()),
            "tool": pa.array([r["tool"] for r in rows], pa.string()),
            "ts": pa.array([r["ts"] for r in rows], pa.timestamp("us")),
        }
    )
    out = validate_batch(t)
    assert out.num_rows == 1 and out["conv_id"][0].as_py() == "a"


def test_prune_columns_reads_only_the_wanted_columns(ray_session, tmp_path):
    """An untransformed `read_transcripts` dataset is read again with only
    the wanted columns, with no projection after a full-row read; a
    transformed dataset, or a read without those columns, keeps
    `select_columns`' behaviour."""
    import pyarrow.parquet as pq
    import pytest

    from multimedia_indexing_ray.fixtures import generate_transcripts
    from multimedia_indexing_ray.sources.transcripts import prune_columns, read_transcripts

    def rows(d):  # a multi-block read's block order is not fixed
        return sorted(tuple(r.values()) for r in d.take_all())

    pq.write_table(generate_transcripts("smoke"), tmp_path / "part-0.parquet")
    ds = read_transcripts(str(tmp_path))
    pruned = prune_columns(ds, ["conv_id", "ts"])
    assert "Project" not in repr(pruned)
    assert rows(pruned) == rows(ds.select_columns(["conv_id", "ts"]))
    moved = prune_columns(ds.map_batches(lambda b: b, batch_format="pyarrow"), ["ts"])
    assert "Project" in repr(moved)
    assert rows(moved) == rows(pruned.select_columns(["ts"]))
    narrow = read_transcripts(str(tmp_path), columns=["conv_id", "ts"])
    with pytest.raises(Exception):
        prune_columns(narrow, ["conv_id", "text"]).take_all()


def test_read_makes_one_block_per_cluster_cpu(ray_session, smoke_dir):
    """With no ``override_num_blocks`` a read makes one block per CPU of
    the running cluster (4 in the test session), not Ray's one block per
    1 MiB; an explicit count wins, and `prune_columns` re-reads keep the
    resolved count."""
    from multimedia_indexing_ray.sources.transcripts import prune_columns, read_transcripts

    cpus = int(ray_session.cluster_resources()["CPU"])
    n_files = len(os.listdir(smoke_dir))
    assert n_files > cpus
    ds = read_transcripts(smoke_dir)
    assert ds.materialize().num_blocks() == cpus
    assert prune_columns(ds, ["conv_id"]).materialize().num_blocks() == cpus
    assert read_transcripts(smoke_dir, override_num_blocks=2).materialize().num_blocks() == 2
    explicit = read_transcripts(smoke_dir, override_num_blocks=n_files)
    assert prune_columns(explicit, ["conv_id", "ts"]).materialize().num_blocks() == n_files


def test_split_hot_features_do_not_depend_on_read_blocks(ray_session, smoke_dir):
    """`compute_features(split_hot=True)` gives the same table at the
    default block count and at one block per file: the window kernel
    works on each conversation's run alone."""
    from multimedia_indexing_ray.sources.transcripts import read_transcripts
    from multimedia_indexing_ray.stages.features import compute_features

    keys = ["conv_id", "ts", "turn_idx"]

    def features(**read_kw):
        ds = read_transcripts(smoke_dir, **read_kw)
        out = compute_features(ds, split_hot=True, hot_threshold=8, target_chunk_rows=4)
        return out.to_pandas().sort_values(keys, kind="mergesort").reset_index(drop=True)

    default = features()
    per_file = features(override_num_blocks=len(os.listdir(smoke_dir)))
    assert len(default) == 125
    assert default.equals(per_file)
