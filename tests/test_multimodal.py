"""Multimodal plumbing: schema, actor stages, error side-channel,
determinism; the real-codec slot raises the marked NotImplementedError."""

import numpy as np
import pytest

from multimedia_indexing_ray.stages.multimodal import (
    MEDIA_SCHEMA,
    MediaDecoder,
    decode_and_featurize,
    synthetic_media_table,
)


def test_media_schema_and_fixture():
    t = synthetic_media_table(16)
    assert t.schema.equals(MEDIA_SCHEMA)
    assert any(len(p) == 0 for p in t["payload"].to_pylist())  # planted bad rows


def test_real_codec_decodes_images_rejects_unknown_av():
    """codec='real' REALLY decodes image payloads (JPEG via the
    pure-numpy baseline decoder, PNM via the PPM codec).  Audio/video
    decode for real too when the container is RIFF (WAV/AVI — see
    test_wav/test_avi); NON-RIFF audio/video bytes hit the documented
    inter-frame-codec stub (error side-channel, not an exception)."""
    from multimedia_indexing_ray.functions.jpeg import encode_jpeg_gray

    dec = MediaDecoder(codec="real")
    img = np.full((16, 16), 200, dtype=np.uint8)
    arr, err = dec._decode_one(encode_jpeg_gray(img, 90), "image")
    assert err is None and arr is not None and arr.shape == (64, 64)
    arr2, err2 = dec._decode_one(b"\x00\x01junk", "image")
    assert arr2 is None and err2 == "decode_failed:unknown_format"
    arr3, err3 = dec._decode_one(b"anything", "audio")
    assert arr3 is None and err3 == "decode_failed:unsupported_media_type"


def test_decode_featurize_pipeline(ray_session):
    import ray.data as rd

    t = synthetic_media_table(32)
    out = decode_and_featurize(rd.from_arrow(t), codec="fake", concurrency=2).to_pandas()
    assert len(out) == 32
    feats = np.stack(out["features"].to_numpy())
    assert feats.shape == (32, 2 * 4 * 4)  # fixed-dimension contract
    # malformed payloads surfaced in the side-channel, batch never crashed
    errs = out["decode_error"].dropna()
    assert len(errs) >= 1 and errs.str.startswith("decode_failed").all()


def test_fake_decode_deterministic(ray_session):
    import ray.data as rd

    t = synthetic_media_table(8)
    a = decode_and_featurize(rd.from_arrow(t), concurrency=1).to_pandas()
    b = decode_and_featurize(rd.from_arrow(t), concurrency=2).to_pandas()
    a = a.sort_values("media_id").reset_index(drop=True)
    b = b.sort_values("media_id").reset_index(drop=True)
    np.testing.assert_array_equal(
        np.stack(a["features"].to_numpy()), np.stack(b["features"].to_numpy())
    )


# ---------------- real PPM/PGM codec (pure numpy) ----------------


def test_ppm_decode_known_values():
    from multimedia_indexing_ray.stages.multimodal import decode_ppm_gray

    # hand-built 2x2 P6: red, green / blue, white
    raster = bytes([255, 0, 0, 0, 255, 0, 0, 0, 255, 255, 255, 255])
    payload = b"P6\n# c\n2 2\n255\n" + raster
    img = decode_ppm_gray(payload)
    assert img.shape == (2, 2)
    np.testing.assert_allclose(
        img, [[0.299, 0.587], [0.114, 1.0]], rtol=0, atol=1e-6
    )
    # P5 grayscale passes values through /maxval
    pg = b"P5\n2 1\n100\n" + bytes([0, 50])
    np.testing.assert_allclose(decode_ppm_gray(pg), [[0.0, 0.5]], atol=1e-7)


def test_ppm_malformed_variants():
    from multimedia_indexing_ray.stages.multimodal import _PpmError, decode_ppm_gray

    good = b"P6\n2 2\n255\n" + bytes(12)
    for bad, msg in [
        (b"JUNK" + good[4:], "bad_magic"),
        (good[:-5], "truncated_raster"),
        (b"P6\n2 2\n70000\n" + bytes(24), "unsupported_dimensions"),
        (b"P6\n2", "truncated_header"),
    ]:
        with pytest.raises(_PpmError) as ei:
            decode_ppm_gray(bad)
        assert ei.value.args[0] == msg


def test_resize_bilinear_constant_and_gradient():
    from multimedia_indexing_ray.stages.multimodal import resize_bilinear

    const = np.full((17, 31), 0.25, dtype=np.float32)
    out = resize_bilinear(const, 8, 8)
    np.testing.assert_allclose(out, 0.25, atol=1e-6)  # constant preserved
    # monotone gradient stays monotone after rescale
    grad = np.tile(np.linspace(0, 1, 40, dtype=np.float32), (20, 1))
    out = resize_bilinear(grad, 10, 10)
    assert (np.diff(out, axis=1) > 0).all()
    # identity resize is exact
    img = np.random.default_rng(0).random((12, 12), dtype=np.float32)
    np.testing.assert_array_equal(resize_bilinear(img, 12, 12), img)


def test_ppm_pipeline_end_to_end(ray_session):
    import ray.data as rd

    from multimedia_indexing_ray.stages.multimodal import synthetic_ppm_table

    t = synthetic_ppm_table(33)
    out = decode_and_featurize(rd.from_arrow(t), codec="ppm", concurrency=2).to_pandas()
    assert len(out) == 33
    errs = out["decode_error"].dropna()
    # planted truncations and bad magics surfaced, everything else decoded
    assert set(errs) <= {"decode_failed:truncated_raster", "decode_failed:bad_magic"}
    assert len(errs) >= 2
    feats = np.stack(out[out["decode_error"].isna()]["features"].to_numpy())
    assert feats.shape[1] == 2 * 4 * 4
    assert np.isfinite(feats).all()
    # real pixels: tile means are in [0,1] and not degenerate
    assert feats[:, :16].min() >= 0.0 and feats[:, :16].max() <= 1.0
    assert feats[:, :16].std() > 0.01


def test_dhash64_metadata_invariant_and_discriminative():
    from multimedia_indexing_ray.stages.multimodal import decode_ppm_gray, dhash64, make_ppm

    a = make_ppm(40, 30, seed=3)
    b = make_ppm(40, 30, seed=3, comment=b"different encoder pass")
    c = make_ppm(40, 30, seed=4)
    assert a != b  # file bytes differ...
    assert dhash64(decode_ppm_gray(a)) == dhash64(decode_ppm_gray(b))  # ...pixels hash equal
    assert dhash64(decode_ppm_gray(a)) != dhash64(decode_ppm_gray(c))


def test_media_phash_pairs_drops_undecodable_and_caps_buckets(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from multimedia_indexing_ray.stages.multimodal import (
        MEDIA_SCHEMA,
        make_ppm,
        media_phash_pairs,
        synthetic_dup_ppm_table,
    )

    t = synthetic_dup_ppm_table(8, seed=11)
    # plant one undecodable payload and a 5-copy bucket of one raster
    extra = [
        {"media_id": "bad-0", "media_type": "image", "payload": b"JUNK",
         "meta_width": 1, "meta_height": 1, "meta_duration_s": None},
    ] + [
        {"media_id": f"mass-{j}", "media_type": "image",
         "payload": make_ppm(20, 20, seed=99, comment=b"v%d" % j),
         "meta_width": 20, "meta_height": 20, "meta_duration_s": None}
        for j in range(5)
    ]
    full = pa.concat_tables([t, pa.Table.from_pylist(extra, schema=MEDIA_SCHEMA)])

    out = media_phash_pairs(rd.from_arrow(full)).to_pandas()
    got = set(map(tuple, out[["media_id_a", "media_id_b"]].to_numpy()))
    want = {(f"q-{i:04d}", f"q-{8 + i:04d}") for i in range(8)}
    want |= {(f"mass-{i}", f"mass-{j}") for i in range(5) for j in range(i + 1, 5)}
    assert got == want  # bad-0 silently dropped, mass bucket fully paired

    capped = media_phash_pairs(rd.from_arrow(full), bucket_cap=3).to_pandas()
    got_capped = set(map(tuple, capped[["media_id_a", "media_id_b"]].to_numpy()))
    assert got_capped == {(f"q-{i:04d}", f"q-{8 + i:04d}") for i in range(8)}
