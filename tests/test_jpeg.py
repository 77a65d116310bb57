"""Pure-numpy baseline JFIF codec (`functions/jpeg.py`) — the engine's
analog of the reference's malformed-grayscale-tolerant reader
(`visual/utilities/ImageIOGreyScale.java`, fallback used at
`visual/vectorization/ImageVectorization.java:176-185`): encode/decode
round trips, color-luma equality, restart intervals, tolerance cases,
and the actor-pool end-to-end path."""

import numpy as np
import pyarrow as pa
import pytest

from multimedia_indexing_ray.functions.jpeg import (
    JpegError,
    decode_jpeg_gray,
    encode_jpeg_color,
    encode_jpeg_gray,
    is_jpeg,
)


def _smooth(h, w, seed=0):
    rng = np.random.default_rng(seed)
    y, x = np.mgrid[0:h, 0:w]
    a, b = rng.uniform(5, 12, 2)
    return np.clip(128 + 80 * np.sin(x / a) * np.cos(y / b), 0, 255).astype(np.uint8)


@pytest.mark.parametrize("quality,max_mae", [(95, 1.5), (85, 3.0), (50, 6.0)])
def test_roundtrip_quality_ladder(quality, max_mae):
    img = _smooth(40, 56, seed=1)
    payload = encode_jpeg_gray(img, quality=quality)
    assert is_jpeg(payload)
    dec, warns = decode_jpeg_gray(payload)
    assert warns == []
    assert dec.shape == img.shape and dec.dtype == np.float32
    mae = np.abs(dec * 255.0 - img).mean()
    assert mae < max_mae, f"q={quality} mae={mae}"


def test_odd_dimensions_and_determinism():
    img = _smooth(17, 13, seed=2)
    p1, p2 = encode_jpeg_gray(img, 90), encode_jpeg_gray(img, 90)
    assert p1 == p2  # bit-deterministic encoder
    dec, warns = decode_jpeg_gray(p1)
    assert warns == [] and dec.shape == (17, 13)
    assert np.abs(dec * 255.0 - img).mean() < 3.0


def test_restart_intervals_do_not_change_pixels():
    img = _smooth(40, 56, seed=3)
    base, _ = decode_jpeg_gray(encode_jpeg_gray(img, 85))
    dri, warns = decode_jpeg_gray(encode_jpeg_gray(img, 85, restart_interval=2))
    assert warns == []
    np.testing.assert_array_equal(base, dri)


def test_comment_variant_same_pixels_different_bytes():
    """The re-encoded-copy case perceptual dedup exists for: COM segment
    changes the file bytes but not one bit of the decoded raster."""
    img = _smooth(32, 32, seed=4)
    a = encode_jpeg_gray(img, 85)
    b = encode_jpeg_gray(img, 85, comment=b"copy variant=2 encoder=b")
    assert a != b
    da, _ = decode_jpeg_gray(a)
    db, _ = decode_jpeg_gray(b)
    np.testing.assert_array_equal(da, db)


def test_color_420_luma_matches_grayscale_encode():
    """Y coefficients go through the identical quant/Huffman path in the
    3-component 4:2:0 file, so the luma-only decode is bit-equal to the
    grayscale encode of the same luma plane (chroma blocks only advance
    the bitstream)."""
    img = _smooth(40, 56, seed=5)
    rgb = np.stack([img, np.roll(img, 3, 0), np.roll(img, 5, 1)], axis=-1)
    y = 0.299 * rgb[..., 0] + 0.587 * rgb[..., 1] + 0.114 * rgb[..., 2]
    ygray = np.clip(np.round(y), 0, 255).astype(np.uint8)
    dcol, warns = decode_jpeg_gray(encode_jpeg_color(rgb, 85))
    dgray, _ = decode_jpeg_gray(encode_jpeg_gray(ygray, 85))
    assert warns == []
    np.testing.assert_array_equal(dcol, dgray)


def test_missing_eoi_tolerated():
    img = _smooth(24, 24, seed=6)
    full, _ = decode_jpeg_gray(encode_jpeg_gray(img, 85))
    dec, warns = decode_jpeg_gray(encode_jpeg_gray(img, 85, omit_eoi=True))
    assert "missing_eoi" in warns
    np.testing.assert_array_equal(dec, full)
    with pytest.raises(JpegError):
        decode_jpeg_gray(encode_jpeg_gray(img, 85, omit_eoi=True), tolerant=False)


def test_truncated_entropy_partial_decode():
    """Mirror of the reference's patch-and-continue fallback: a stream
    cut mid-scan still yields a full-size raster (decoded prefix + neutral
    blocks) plus a warning, instead of an exception."""
    img = _smooth(48, 48, seed=7)
    payload = encode_jpeg_gray(img, 85)
    dec, warns = decode_jpeg_gray(payload[: len(payload) * 2 // 3])
    assert dec.shape == img.shape
    assert warns  # truncated_entropy_data / bad_huffman_code / missing_eoi
    # the decoded PREFIX matches the clean decode (first MCU row at least)
    full, _ = decode_jpeg_gray(payload)
    np.testing.assert_array_equal(dec[:8], full[:8])


def test_malformed_grayscale_app14_and_sos_id_mismatch():
    """The ImageIOGreyScale class of bug: grayscale files carrying a bogus
    Adobe APP14 transform marker, or a SOS component id that does not
    match the SOF id, crash strict readers; the tolerant decoder must
    produce the identical raster (1-component luma is unambiguous)."""
    img = _smooth(32, 40, seed=8)
    clean = encode_jpeg_gray(img, 85)
    ref, _ = decode_jpeg_gray(clean)

    # bogus Adobe APP14 claiming YCCK (transform=2) on a grayscale file
    app14 = b"\xff\xee" + (2 + 12).to_bytes(2, "big") + b"Adobe\x00d\x00\x00\x00\x00\x02"
    with_app14 = encode_jpeg_gray(img, 85, extra_segments=[app14])
    dec, warns = decode_jpeg_gray(with_app14)
    assert warns == []  # unknown APPn is skipped, not even a warning
    np.testing.assert_array_equal(dec, ref)

    # SOS names component id 4 while SOF declared id 1: positional fallback
    sos_at = clean.find(b"\xff\xda")
    assert sos_at > 0
    patched = bytearray(clean)
    patched[sos_at + 5] = 4  # SOS: FF DA len(2) ns cid1 ...
    dec2, warns2 = decode_jpeg_gray(bytes(patched))
    assert "sos_component_id_mismatch" in warns2
    np.testing.assert_array_equal(dec2, ref)


def test_trailing_garbage_tolerated():
    img = _smooth(24, 24, seed=9)
    payload = encode_jpeg_gray(img, 85) + b"GARBAGE" * 3
    dec, warns = decode_jpeg_gray(payload)
    assert "trailing_garbage_after_eoi" in warns
    full, _ = decode_jpeg_gray(payload[:-21])
    np.testing.assert_array_equal(dec, full)


def test_hopeless_inputs_raise():
    for bad in (b"", b"not a jpeg", b"\xff\xd8\xff\xd9"):
        with pytest.raises(JpegError):
            decode_jpeg_gray(bad)


def test_media_decoder_real_autodetect(ray_session):
    """codec='real' end-to-end: mixed PNM + JPEG + malformed payloads
    through the actor-pool decode -> featurize pipeline with the error
    side-channel populated correctly."""
    import ray.data as rd

    from multimedia_indexing_ray.stages.multimodal import (
        decode_and_featurize,
        synthetic_jpeg_table,
        synthetic_ppm_table,
    )

    jt = synthetic_jpeg_table(22, seed=11)
    pt = synthetic_ppm_table(11, seed=5)
    ds = rd.from_arrow(pa.concat_tables([jt, pt]))
    rows = decode_and_featurize(ds, codec="real", concurrency=2).take_all()
    assert len(rows) == 33
    by_id = {r["media_id"]: r for r in rows}
    # i%11==5 -> junk magic -> hard failure
    assert by_id["j-0005"]["decode_error"].startswith("decode_failed:")
    # i%7==3 (and not junk) -> truncated entropy -> tolerated w/ pixels
    assert by_id["j-0003"]["decode_error"].startswith("tolerated:")
    assert any(v != 0.0 for v in by_id["j-0003"]["features"])
    # clean JPEG rows decode with no error
    assert by_id["j-0001"]["decode_error"] is None
    assert by_id["j-0004"]["decode_error"] is None  # color 4:2:0


def test_phash_pairs_mixed_formats(ray_session):
    """media_phash_dups ground truth over the MIXED PNM/JPEG dup table:
    exactly the planted (i, i+n) pairs come back."""
    import ray.data as rd

    from multimedia_indexing_ray.stages.multimodal import (
        media_phash_pairs,
        synthetic_dup_ppm_table,
    )

    n = 40
    media = rd.from_arrow(synthetic_dup_ppm_table(n, seed=7))
    got = {
        (r["media_id_a"], r["media_id_b"])
        for r in media_phash_pairs(media, concurrency=2).take_all()
    }
    want = {(f"q-{i:04d}", f"q-{i + n:04d}") for i in range(n)}
    assert got == want


def test_garbage_run_single_warning_no_amplification():
    """ADVICE r4: a long garbage run between segments must yield ONE
    warning (with a byte count), not one list entry per byte — a 64MB
    hostile payload would otherwise build tens of millions of strings."""
    import time

    img = _smooth(16, 16, seed=3)
    clean = encode_jpeg_gray(img, 85)
    hostile = clean[:2] + b"\x00" * (1 << 20) + clean[2:]
    t = time.time()
    dec, warns = decode_jpeg_gray(hostile)
    assert time.time() - t < 1.0
    garbage = [w for w in warns if w.startswith("garbage_between_segments")]
    assert garbage == ["garbage_between_segments:1048576b"]
    ref, _ = decode_jpeg_gray(clean)
    np.testing.assert_array_equal(dec, ref)


@pytest.mark.parametrize("shape", [(8, 8), (16, 24), (17, 9), (40, 56), (64, 48)])
def test_progressive_gray_roundtrip_matches_baseline(shape):
    """SOF2 (DC/AC first + refinement scans, EOB runs) decodes to the
    SAME pixels as the baseline encoding — identical quantized
    coefficients, two independent T.81 coding paths."""
    rng = np.random.default_rng(sum(shape))
    img = rng.integers(0, 256, size=shape, dtype=np.uint8)
    base, wb = decode_jpeg_gray(encode_jpeg_gray(img))
    prog, wp = decode_jpeg_gray(encode_jpeg_gray(img, progressive=True))
    assert wb == wp == []
    np.testing.assert_array_equal(base, prog)


def test_progressive_color_and_restarts():
    from multimedia_indexing_ray.functions.jpeg import encode_jpeg_color

    rng = np.random.default_rng(77)
    rgb = rng.integers(0, 256, size=(22, 30, 3), dtype=np.uint8)
    base, _ = decode_jpeg_gray(encode_jpeg_color(rgb))
    prog, wp = decode_jpeg_gray(encode_jpeg_color(rgb, progressive=True))
    assert wp == []
    np.testing.assert_array_equal(base, prog)
    img = rng.integers(0, 256, size=(32, 40), dtype=np.uint8)
    b, _ = decode_jpeg_gray(encode_jpeg_gray(img, restart_interval=3))
    p, wp = decode_jpeg_gray(encode_jpeg_gray(img, restart_interval=3, progressive=True))
    assert wp == []
    np.testing.assert_array_equal(b, p)


def test_progressive_truncation_keeps_partial_approximation():
    """Chopping later scans off must degrade gracefully: same shape, a
    coarser approximation (DC scan survives), warnings not crashes."""
    rng = np.random.default_rng(5)
    img = rng.integers(0, 256, size=(24, 24), dtype=np.uint8)
    body = encode_jpeg_gray(img, progressive=True)
    full, _ = decode_jpeg_gray(body)
    cut, warns = decode_jpeg_gray(body[: int(len(body) * 0.5)], tolerant=True)
    assert cut.shape == (24, 24)
    assert warns  # truncated scan and/or missing EOI reported
    # the partial decode is still a real approximation of the image
    assert np.abs(cut.astype(np.float64) - full.astype(np.float64)).mean() < 0.25
    with pytest.raises(JpegError):
        decode_jpeg_gray(body[: int(len(body) * 0.5)], tolerant=False)


def test_progressive_handcrafted_bitstream_anchor():
    """Byte-level T.81 anchor built BY HAND (not via the encoder): an 8x8
    single-component SOF2 stream with four scans — DC first (Al=1), AC
    first (Al=1), DC refine, AC refine with a buffered correction bit —
    must reconstruct coefficients DC=3, AC[zigzag#1]=3 exactly."""
    from multimedia_indexing_ray.functions.jpeg import _DCT

    def seg(marker, payload):
        return bytes([0xFF, marker]) + (len(payload) + 2).to_bytes(2, "big") + payload

    body = bytearray(b"\xff\xd8")
    body += seg(0xDB, bytes([0]) + b"\x01" * 64)  # all-ones quant
    body += seg(0xC2, bytes([8, 0, 8, 0, 8, 1, 1, 0x11, 0]))  # 8x8, 1 comp
    # DC table 0: '0'->sym1, '10'->sym0, '110'->sym2
    body += seg(0xC4, bytes([0x00] + [1, 1, 1] + [0] * 13 + [1, 0, 2]))
    # AC table 0: '0'->sym 0x01 (run0,size1), '10'->sym 0x00 (EOB)
    body += seg(0xC4, bytes([0x10] + [1, 1] + [0] * 14 + [0x01, 0x00]))
    body += seg(0xDA, bytes([1, 1, 0x00, 0, 0, 0x01])) + b"\x7f"  # DC Al=1: diff 1
    body += seg(0xDA, bytes([1, 1, 0x00, 1, 63, 0x01])) + b"\x6f"  # AC first
    body += seg(0xDA, bytes([1, 1, 0x00, 0, 0, 0x10])) + b"\xff\x00"  # DC refine bit 1
    body += seg(0xDA, bytes([1, 1, 0x00, 1, 63, 0x10])) + b"\xbf"  # AC refine EOB+BE
    body += b"\xff\xd9"
    out, warns = decode_jpeg_gray(bytes(body))
    assert warns == []
    coefs = np.zeros((8, 8))
    coefs[0, 0] = 3.0
    coefs[0, 1] = 3.0  # natural position of zigzag index 1
    want_pix = _DCT.T @ coefs @ _DCT + 128.0
    want = np.clip(want_pix, 0, 255).astype(np.float32) / np.float32(255.0)
    np.testing.assert_array_equal(out, want)
