"""Operator-level hash_join tests: every join_type vs a pandas-merge
oracle on the same inputs, multi-key compound joins, and the payload
name-collision guard.  (The registry queries exercise these paths
end-to-end; this pins the operator contract directly.)"""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray.data as rd

from multimedia_indexing_ray.stages.join import hash_join


def _mk(seed: int, n: int, keys: int):
    rng = np.random.default_rng(seed)
    return pd.DataFrame(
        {
            "k": rng.integers(0, keys, n),
            "d": rng.integers(0, 3, n),
        }
    )


def _norm(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype.kind in "iu":
            df[c] = df[c].astype("float64")  # unify nullable-int vs float
    return df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)


@pytest.mark.parametrize(
    "join_type,how",
    [
        ("inner", "inner"),
        ("left outer", "left"),
        ("full outer", "outer"),
    ],
)
def test_hash_join_matches_pandas(ray_session, join_type, how):
    left = _mk(1, 40, 8).assign(x=lambda d: d.k * 10 + d.d)
    right = _mk(2, 30, 8).assign(y=lambda d: d.k * 100 + d.d)
    # aggregate to unique compound keys so the join is 1:1 (pandas outer
    # with duplicate keys is also fine, but unique keys make the oracle
    # comparison unambiguous)
    left = left.groupby(["k", "d"], as_index=False).agg(x=("x", "sum"))
    right = right.groupby(["k", "d"], as_index=False).agg(y=("y", "sum"))

    got = (
        hash_join(
            rd.from_arrow(pa.Table.from_pandas(left)),
            rd.from_arrow(pa.Table.from_pandas(right)),
            left_on=["k", "d"],
            join_type=join_type,
        )
        .to_pandas()
    )
    want = left.merge(right, on=["k", "d"], how=how)
    pd.testing.assert_frame_equal(_norm(got), _norm(want))


def test_hash_join_payload_collision_raises(ray_session):
    a = rd.from_arrow(pa.table({"k": [1], "v": [1]}))
    b = rd.from_arrow(pa.table({"k": [1], "v": [2]}))
    with pytest.raises(ValueError, match="collision"):
        hash_join(a, b, left_on="k")
