"""Local correctness sweep: run every registry query AND its DuckDB
oracle at a small scale factor and compare them with the tier-1 verdict
(`tests/test_query_parity.py` imports `normalize` and `mismatch` from
here): columns sorted by name, rows sorted by all columns, exact value
equality per column.  Each result line also carries the query's
`digest`, a sha256 over its column names, Arrow schema and sorted row
bytes, so two checkouts can be diffed query by query.

Usage:  python scripts/correctness_sweep.py [sf_dir] [query ...]

Tables whose parquet file is missing under `sf_dir` get no oracle view,
so a directory holding only `events.parquet` sweeps the events queries.
Owns its Ray session (script entry point, not library code).
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

TABLES = (
    "region nation customer supplier part orders lineitem events documents embeddings"
).split()


def _to_pandas(res):
    if hasattr(res, "to_pandas"):
        return res.to_pandas()
    return res


def normalize(df):
    """Columns sorted by name, rows sorted by every column."""
    df = df[sorted(df.columns)]
    return df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)


def mismatch(mine, orc):
    """None when the normalized frames agree exactly, else the first
    difference: column names, row count, or a column whose values (null
    mask and values for floats, microsecond instants for timestamps)
    differ."""
    import numpy as np

    if list(mine.columns) != list(orc.columns):
        return f"column names differ: {list(mine.columns)} != {list(orc.columns)}"
    if len(mine) != len(orc):
        return f"row count {len(mine)} != {len(orc)}"
    for c in mine.columns:
        a, b = mine[c], orc[c]
        if a.dtype.kind in "fc" or b.dtype.kind in "fc":
            an, bn = a.astype(float), b.astype(float)
            if not an.isna().equals(bn.isna()):
                return f"{c}: null mask differs"
            if not np.array_equal(an.fillna(0).to_numpy(), bn.fillna(0).to_numpy()):
                return f"{c}: values differ"
        elif np.issubdtype(a.dtype, np.datetime64) or np.issubdtype(b.dtype, np.datetime64):
            if a.astype("datetime64[us]").tolist() != b.astype("datetime64[us]").tolist():
                return f"{c}: values differ"
        elif a.tolist() != b.tolist():
            return f"{c}: values differ"
    return None


def _arrow(res):
    import pyarrow as pa

    if isinstance(res, pa.Table):
        return res
    if hasattr(res, "to_arrow_refs"):
        import ray

        blocks = [b for b in ray.get(res.to_arrow_refs()) if b.num_rows]
        if blocks:
            return pa.concat_tables(blocks)
        schema = res.schema()
        return schema.base_schema.empty_table() if schema else pa.table({})
    return pa.Table.from_pandas(res, preserve_index=False)


def digest(res) -> str:
    """sha256 of a query result's column names, Arrow schema (metadata
    dropped) and rows, each row rendered as the repr of its values and
    the rows sorted, so block and row order do not count."""
    t = _arrow(res)
    t = t.replace_schema_metadata(None)
    h = hashlib.sha256()
    h.update(json.dumps(t.column_names).encode())
    h.update(str(t.schema).encode())
    cols = t.to_pydict()
    rows = sorted(repr(r) for r in zip(*(cols[c] for c in t.column_names)))
    for r in rows:
        h.update(r.encode())
        h.update(b"\n")
    return h.hexdigest()


def compare(mine, orc):
    # key names mirror the driver's CORRECTNESS_r{N}.json fields verbatim
    # ("spark_rows" is the driver's label for the engine-under-test side)
    # so the two reports diff cleanly
    mine, orc = normalize(mine), normalize(orc)
    diff = mismatch(mine, orc)
    out = {
        "rows_match": len(mine) == len(orc),
        "schema_match": list(mine.columns) == list(orc.columns),
        "hash_match": diff is None,
        "spark_rows": len(mine),
        "oracle_rows": len(orc),
    }
    if diff is not None:
        out["mismatch"] = diff
    return out


def main():
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local", num_cpus=8, include_dashboard=False, logging_level="ERROR"
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import duckdb

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, repo)
    import __ray_entry__ as e

    sf = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    qs, sql = e.queries(), e.oracle_sql()
    names = sys.argv[2:] or sorted(qs)

    con = duckdb.connect()
    for t in TABLES:
        if os.path.exists(f"{sf}/{t}.parquet"):
            con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf}/{t}.parquet')")

    results, n_green, n_blind, n_fail = {}, 0, 0, 0
    for name in names:
        try:
            res = qs[name](sf)
            if hasattr(res, "materialize"):
                res = res.materialize()
            dig = digest(res)
            mine = _to_pandas(res)
            if name not in sql:
                results[name] = {"spark_rows": len(mine), "err": "no_oracle", "digest": dig}
                n_blind += 1
                print(f"{name:40s} rows={len(mine):7d}  NO_ORACLE {dig}", file=sys.stderr)
                continue
            r = compare(mine, con.execute(sql[name]).df())
            r["digest"] = dig
            results[name] = r
            ok = r["hash_match"]
            n_green += bool(ok)
            n_fail += not ok
            print(
                f"{name:40s} rows={r['spark_rows']:7d}/{r['oracle_rows']:<7d} "
                f"{'GREEN' if ok else 'FAIL ' + json.dumps(r)} {dig}",
                file=sys.stderr,
            )
        except Exception as ex:  # noqa: BLE001 — sweep must report, not die
            results[name] = {"err": repr(ex)[:500]}
            n_fail += 1
            print(f"{name:40s} ERROR {ex!r}", file=sys.stderr)
    print(json.dumps({"green": n_green, "no_oracle": n_blind, "fail": n_fail, "results": results}))
    ray.shutdown()
    return 1 if n_fail else 0


if __name__ == "__main__":
    sys.exit(main())
