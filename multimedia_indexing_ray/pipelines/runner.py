"""Checkpointed partitioned runner — resumable output with per-partition
lineage + metrics manifests.

The reference's resume story is the `isIndexed` anti-join: a re-run skips
already-indexed ids (`visual/datastructures/AbstractSearchStructure.java:229-240`,
`visual/examples/FolderIndexingMT.java:109-112`).  Here the unit of
idempotency is the hash PARTITION: each partition task writes its output
parquet atomically (temp + rename) followed by a manifest JSON carrying
lineage (source files, row counts, key checksum) and throughput metrics;
a resumed run anti-joins pending partitions against the manifest
directory and only processes the remainder — never one giant file
(partitioned, restartable output).
"""

from __future__ import annotations

import glob
import json
import os
import time
import uuid
from typing import Callable, Optional, Sequence

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import ray.data

from multimedia_indexing_ray.sources.transcripts import read_transcripts
from multimedia_indexing_ray.stages.partition import (
    DEFAULT_NUM_PARTITIONS,
    PART_COL,
    add_partition_column,
    stable_hash,
)

MANIFEST_DIR = "_manifests"


def _manifest_path(out_dir: str, pid: int) -> str:
    return os.path.join(out_dir, MANIFEST_DIR, f"part-{pid:05d}.json")


def completed_partitions(out_dir: str) -> "set[int]":
    done = set()
    for p in glob.glob(os.path.join(out_dir, MANIFEST_DIR, "part-*.json")):
        try:
            with open(p) as f:
                m = json.load(f)
            if os.path.exists(os.path.join(out_dir, m["output_file"])):
                done.add(int(m["partition_id"]))
        except (json.JSONDecodeError, KeyError, OSError):
            continue  # partial/corrupt manifest -> redo that partition
    return done


def checkpointed_map_partitions(
    ds: "ray.data.Dataset",
    key: str,
    kernel: Callable[[pa.Table], pa.Table],
    out_dir: str,
    num_partitions: int = DEFAULT_NUM_PARTITIONS,
    resume: bool = True,
    lineage_col: Optional[str] = None,
    fault_pids: Optional[Sequence[int]] = None,
) -> dict:
    """Apply `kernel` per key-partition; each partition task persists its
    own output + manifest.  Returns a job summary dict.

    fault_pids: TEST ONLY — partition ids whose task raises (before
    writing), to exercise kill-and-resume.
    """
    os.makedirs(os.path.join(out_dir, MANIFEST_DIR), exist_ok=True)
    # partition assignment is a function of num_partitions: resuming with a
    # different modulus would silently skip rows (old done-set applied to
    # new partition ids), so the job config is pinned in the output dir
    job_path = os.path.join(out_dir, MANIFEST_DIR, "_job.json")
    if os.path.exists(job_path):
        with open(job_path) as f:
            prior = json.load(f)
        if prior.get("num_partitions") != num_partitions:
            raise ValueError(
                f"{out_dir} was written with num_partitions="
                f"{prior.get('num_partitions')}; resuming with "
                f"{num_partitions} would drop data — use the same value or "
                "a fresh out_dir"
            )
    else:
        with open(job_path + ".tmp", "w") as f:
            json.dump({"num_partitions": num_partitions, "key": key}, f)
        os.replace(job_path + ".tmp", job_path)
    done = completed_partitions(out_dir) if resume else set()
    fault = set(fault_pids or ())

    with_part = add_partition_column(ds, key, num_partitions)
    if done:
        done_arr = np.array(sorted(done), dtype=np.int32)

        def _skip_done(batch: pa.Table) -> pa.Table:
            pid = batch[PART_COL].to_numpy()
            keep = ~np.isin(pid, done_arr)
            return batch.filter(pa.array(keep))

        with_part = with_part.map_batches(_skip_done, batch_format="pyarrow")

    def _process(table: pa.Table) -> pa.Table:
        pid = int(table[PART_COL][0].as_py())
        t0 = time.perf_counter()
        if pid in fault:
            raise RuntimeError(f"injected fault in partition {pid}")
        sources: "list[str]" = []
        if lineage_col and lineage_col in table.column_names:
            sources = sorted(set(table[lineage_col].to_pylist()))
            table = table.drop_columns([lineage_col])
        rows_in = table.num_rows
        out = kernel(table.drop_columns([PART_COL]))
        out_name = f"part-{pid:05d}.parquet"
        tmp = os.path.join(out_dir, f"_tmp-{out_name}-{uuid.uuid4().hex}")
        pq.write_table(out, tmp)
        os.replace(tmp, os.path.join(out_dir, out_name))
        checksum = 0
        if key in out.column_names:
            checksum = int(
                stable_hash(out[key].to_numpy(zero_copy_only=False)).sum() % (2**63)
            )
        wall = time.perf_counter() - t0
        manifest = {
            "partition_id": pid,
            "output_file": out_name,
            "rows_in": rows_in,
            "rows_out": out.num_rows,
            "key_checksum": checksum,
            "source_files": sources,
            "wall_sec": round(wall, 4),
            "rows_per_sec": round(rows_in / wall, 1) if wall > 0 else None,
            "written_at_unix": time.time(),
        }
        mp = _manifest_path(out_dir, pid)
        with open(mp + ".tmp", "w") as f:
            json.dump(manifest, f)
        os.replace(mp + ".tmp", mp)
        return pa.table(
            {
                "partition_id": pa.array([pid], pa.int32()),
                "rows_in": pa.array([rows_in], pa.int64()),
                "rows_out": pa.array([out.num_rows], pa.int64()),
                "wall_sec": pa.array([wall], pa.float64()),
            }
        )

    stats = (
        with_part.groupby(PART_COL)
        .map_groups(_process, batch_format="pyarrow")
        .to_pandas()
    )
    return {
        "out_dir": out_dir,
        "num_partitions": num_partitions,
        "partitions_done_previously": len(done),
        "partitions_processed": int(len(stats)),
        "rows_in": int(stats["rows_in"].sum()) if len(stats) else 0,
        "rows_out": int(stats["rows_out"].sum()) if len(stats) else 0,
        "total_partition_wall_sec": float(stats["wall_sec"].sum()) if len(stats) else 0.0,
    }


def run_feature_job(
    transcripts_dir: str,
    out_dir: str,
    num_partitions: int = DEFAULT_NUM_PARTITIONS,
    resume: bool = True,
    include_lineage: bool = True,
    fault_pids: Optional[Sequence[int]] = None,
) -> dict:
    """Checkpointed flagship feature job: transcripts parquet -> per-
    partition feature parquet + manifests (SURVEY.md §7.1 stage layout)."""
    from multimedia_indexing_ray.specs import DEFAULT_SPECS
    from multimedia_indexing_ray.stages.features import WindowKernelFn, prefeaturize

    ds = read_transcripts(transcripts_dir, include_paths=include_lineage)

    def _pre(batch: pa.Table) -> pa.Table:
        out = prefeaturize(batch)
        if include_lineage and "path" in batch.column_names:
            out = out.append_column("__src", batch["path"])
        return out

    pre = ds.map_batches(_pre, batch_format="pyarrow")
    kernel = WindowKernelFn(DEFAULT_SPECS)
    return checkpointed_map_partitions(
        pre,
        "conv_id",
        kernel,
        out_dir,
        num_partitions=num_partitions,
        resume=resume,
        lineage_col="__src" if include_lineage else None,
        fault_pids=fault_pids,
    )
