"""multiVLAD block normalization composition over the packed vector."""

import numpy as np

from multimedia_indexing_ray.specs import DEFAULT_SPECS
from multimedia_indexing_ray.functions.normalize import l2_normalize, ssr_normalize


def test_block_normalize_matches_manual(ray_session, smoke_table):
    import ray.data as rd

    from multimedia_indexing_ray.stages.features import (
        compute_features,
        normalize_feature_blocks,
    )

    feat = compute_features(
        rd.from_arrow(smoke_table), DEFAULT_SPECS, pack_vector=True
    )
    raw = feat.to_pandas().sort_values(["conv_id", "ts", "turn_idx"]).reset_index(drop=True)
    normed = (
        normalize_feature_blocks(feat, DEFAULT_SPECS)
        .to_pandas()
        .sort_values(["conv_id", "ts", "turn_idx"])
        .reset_index(drop=True)
    )
    mat = np.stack(raw["features"].to_numpy())
    got = np.stack(normed["features"].to_numpy())
    # manual: SSR per block (8 base, 4x4 sliding, 4 tumbling, 3 session, 6 lags), final L2
    bounds = [0, 8, 12, 16, 20, 24, 28, 31, 37]
    parts = [ssr_normalize(mat[:, a:b]) for a, b in zip(bounds[:-1], bounds[1:])]
    exp = l2_normalize(np.concatenate(parts, axis=1))
    np.testing.assert_allclose(got, exp, rtol=1e-9, atol=1e-12)
    # every (non-degenerate) output vector is unit length; zero-vector
    # blocks hit the all-ones quirk upstream so norms stay finite
    norms = np.linalg.norm(got, axis=1)
    assert np.all(norms > 0)


def test_normalizations_off_is_identity(ray_session, smoke_table):
    import ray.data as rd

    from multimedia_indexing_ray.stages.features import (
        compute_features,
        normalize_feature_blocks,
    )

    feat = compute_features(
        rd.from_arrow(smoke_table), DEFAULT_SPECS, pack_vector=True
    )
    raw = np.stack(feat.to_pandas().sort_values(["conv_id", "ts", "turn_idx"])["features"].to_numpy())
    off = np.stack(
        normalize_feature_blocks(feat, DEFAULT_SPECS, normalizations_on=False)
        .to_pandas()
        .sort_values(["conv_id", "ts", "turn_idx"])["features"]
        .to_numpy()
    )
    np.testing.assert_array_equal(raw, off)
