"""RIFF-AVI MJPEG codec + video poster path (`functions/avi.py`):
lossless frame-payload round trips, metadata-variant invariance, the
SQL-expressible frame-sample schedule, tolerance cases, and the video
perceptual-dedup / frame-sample Ray stages."""

import numpy as np
import pytest

from multimedia_indexing_ray.functions.avi import (
    AviError,
    encode_mjpeg_avi,
    is_avi,
    parse_mjpeg_avi,
    sample_frame_indices,
)
from multimedia_indexing_ray.functions import avi
from multimedia_indexing_ray.functions.jpeg import encode_jpeg_gray
from multimedia_indexing_ray.stages import multimodal as mm


def _frames(n=5, w=24, h=16, seed=7):
    rng = np.random.default_rng(seed)
    y, x = np.mgrid[0:h, 0:w]
    a = rng.uniform(3, 9)
    base = np.clip(128 + 90 * np.sin(x / a) * np.cos(y / a), 0, 255).astype(np.uint8)
    return [encode_jpeg_gray(np.roll(base, f, axis=0)) for f in range(n)]


def test_roundtrip_lossless_frames_and_fps():
    frames = _frames(5)
    payload = encode_mjpeg_avi(frames, fps=12, width=24, height=16)
    assert is_avi(payload)
    got, fps, warns = parse_mjpeg_avi(payload)
    assert warns == [] and fps == 12.0
    assert got == frames  # byte-exact 00dc bodies


def test_odd_length_frame_word_alignment():
    # a frame body of odd length forces the RIFF pad byte path
    frames = [b"\xff\xd8odd", b"\xff\xd8even!"]
    got, _, warns = parse_mjpeg_avi(encode_mjpeg_avi(frames, width=1, height=1))
    assert warns == [] and got == frames


def test_metadata_chunk_variant_same_frames():
    frames = _frames(4, seed=9)
    a = encode_mjpeg_avi(frames, width=24, height=16)
    b = encode_mjpeg_avi(frames, width=24, height=16, extra_chunk=b"encoder=b copy")
    assert a != b
    fa, _, _ = parse_mjpeg_avi(a)
    fb, _, wb = parse_mjpeg_avi(b)
    assert wb == [] and fa == fb


def test_tolerances():
    frames = _frames(6)
    payload = encode_mjpeg_avi(frames, width=24, height=16)
    # bad signature: hard failure, never tolerated
    with pytest.raises(AviError, match="bad_signature"):
        parse_mjpeg_avi(b"JUNK" + payload[4:])
    # truncated movi: decoded frame prefix + warning
    cut = payload[: len(payload) * 2 // 3]
    got, _, warns = parse_mjpeg_avi(cut)
    assert 1 <= len(got) < len(frames)
    assert got[: len(got) - 1] == frames[: len(got) - 1]  # intact prefix exact
    assert any(w.startswith("truncated") for w in warns)
    with pytest.raises(AviError):
        parse_mjpeg_avi(cut, tolerant=False)
    # trailing garbage after the declared RIFF size warns
    got2, _, warns2 = parse_mjpeg_avi(payload + b"\x00" * 7)
    assert got2 == frames and "trailing_garbage_after_riff" in warns2
    # header-only container (cut just before the movi list) is undecodable
    header_only = payload[: payload.index(b"movi") - 8]
    with pytest.raises(AviError, match="no_movi_list"):
        parse_mjpeg_avi(header_only)


def test_sample_frame_indices_schedule():
    # midpoint-of-k-spans schedule: idx_j = ((2j+1) * n) // (2k)
    assert sample_frame_indices(10, 4) == [1, 3, 6, 8]
    assert sample_frame_indices(8, 4) == [1, 3, 5, 7]
    # fewer frames than samples: deduplicated, in order, all valid
    idx = sample_frame_indices(3, 8)
    assert idx == sorted(set(idx)) and all(0 <= i < 3 for i in idx)
    assert sample_frame_indices(0, 4) == []
    assert sample_frame_indices(5, 0) == []


def test_poster_identical_for_rewrapped_frames():
    from multimedia_indexing_ray.stages.multimodal import (
        decode_avi_poster,
        dhash64,
        make_mjpeg_avi,
    )

    a = make_mjpeg_avi(8, 32, 18, seed=5)
    b = make_mjpeg_avi(8, 32, 18, seed=5, comment=b"re-encode")
    other = make_mjpeg_avi(8, 32, 18, seed=6)
    pa_, _ = decode_avi_poster(a)
    pb_, _ = decode_avi_poster(b)
    po_, _ = decode_avi_poster(other)
    np.testing.assert_array_equal(pa_, pb_)  # bit-identical poster
    assert dhash64(pa_) == dhash64(pb_) != dhash64(po_)


def test_poster_skips_bad_frames_and_all_fail_raises():
    from multimedia_indexing_ray.stages.multimodal import decode_avi_poster

    frames = _frames(4)
    # one frame replaced by undecodable junk: skipped with a warning
    mixed = encode_mjpeg_avi([frames[0], b"notajpeg", frames[2], frames[3]],
                             width=24, height=16)
    img, warns = decode_avi_poster(mixed, n_sample_frames=4)
    assert img.shape == (16, 24) and any(w.startswith("frame1_") for w in warns)
    # every frame undecodable: hard failure
    allbad = encode_mjpeg_avi([b"junk1", b"junk2"], width=24, height=16)
    with pytest.raises(AviError, match="no_decodable_frames"):
        decode_avi_poster(allbad)


def test_media_decoder_real_avi(ray_session):
    import ray.data as rd

    from multimedia_indexing_ray.stages.multimodal import (
        decode_and_featurize,
        synthetic_avi_table,
    )

    t = synthetic_avi_table(22, seed=3, plant_malformed=True)
    out = decode_and_featurize(
        rd.from_arrow(t), codec="real", concurrency=2
    ).to_pandas().sort_values("media_id")
    assert len(out) == 22
    errs = out["decode_error"]
    # planted non-RIFF junk rows hard-fail in the side-channel...
    junk = errs[out["media_id"].isin([f"v-{i:04d}" for i in range(22) if i % 11 == 5])]
    assert junk.str.startswith("decode_failed").all()
    # ...truncated rows are tolerated, intact rows decode clean
    trunc = errs[out["media_id"].isin(
        [f"v-{i:04d}" for i in range(22) if i % 7 == 3 and i % 11 != 5])]
    assert trunc.str.startswith("tolerated:").all()
    clean = out[errs.isna()]
    assert len(clean) >= 15
    feats = np.stack(clean["features"].to_numpy())
    assert feats.shape[1] == 2 * 4 * 4 and np.isfinite(feats).all()


def test_video_phash_pairs(ray_session):
    import ray.data as rd

    from multimedia_indexing_ray.stages.multimodal import (
        media_phash_pairs,
        synthetic_dup_avi_table,
    )

    t = synthetic_dup_avi_table(12, seed=23)
    pairs = media_phash_pairs(
        rd.from_arrow(t), concurrency=2
    ).to_pandas()
    got = set(zip(pairs["media_id_a"], pairs["media_id_b"]))
    want = {(f"v-{i:04d}", f"v-{i + 12:04d}") for i in range(12)}
    assert got == want  # exactly the planted pairs, no dHash collisions


def test_rec_interleave_lists_are_walked():
    """Spec-valid VfW writers group movi data chunks in 'rec ' LISTs —
    the walker must descend into them like movi itself."""
    import struct

    from multimedia_indexing_ray.functions import avi as A

    frames = [b"\xff\xd8f0", b"\xff\xd8f1x"]
    avih = struct.pack("<10I4I", 100000, 0, 0, 0x10, 2, 0, 1, 0, 8, 8, 0, 0, 0, 0)
    hdrl = A._list(b"hdrl", A._chunk(b"avih", avih))
    movi = A._list(
        b"movi",
        b"".join(A._list(b"rec ", A._chunk(b"00dc", f)) for f in frames),
    )
    body = hdrl + movi
    payload = b"RIFF" + struct.pack("<I", 4 + len(body)) + b"AVI " + body
    got, fps, warns = parse_mjpeg_avi(payload)
    assert got == frames and fps == 10.0 and warns == []


def test_foreign_stream_chunks_are_not_frames():
    """An audio stream's '00wb' data must not pollute the video frame
    list: the vids strh's strl index selects which NNdc/NNdb chunks are
    frames (here audio is stream 0, video stream 1)."""
    import struct

    from multimedia_indexing_ray.functions import avi as A

    def strh(fcc, scale, rate):
        return struct.pack("<4s4sIIIII", fcc, b"    ", 0, 0, 0, scale, rate) + b"\x00" * 8

    avih = struct.pack("<10I4I", 100000, 0, 0, 0x10, 2, 0, 2, 0, 8, 8, 0, 0, 0, 0)
    hdrl = A._list(
        b"hdrl",
        A._chunk(b"avih", avih)
        + A._list(b"strl", A._chunk(b"strh", strh(b"auds", 1, 8000)))
        + A._list(b"strl", A._chunk(b"strh", strh(b"vids", 1, 12))),
    )
    frames = [b"\xff\xd8v0", b"\xff\xd8v1"]
    movi = A._list(
        b"movi",
        A._chunk(b"00wb", b"AUDIOSAMPLES")
        + A._chunk(b"01dc", frames[0])
        + A._chunk(b"00wb", b"MOREAUDIO")
        + A._chunk(b"01dc", frames[1]),
    )
    body = hdrl + movi
    payload = b"RIFF" + struct.pack("<I", 4 + len(body)) + b"AVI " + body
    got, fps, warns = parse_mjpeg_avi(payload)
    assert got == frames  # only the vids stream's chunks
    assert fps == 12.0  # the VIDEO strh's rate, not the audio one
    assert warns == []


def test_encode_input_guards():
    with pytest.raises(ValueError, match="fps"):
        encode_mjpeg_avi([b"\xff\xd8x"], fps=0, width=1, height=1)
    with pytest.raises(ValueError, match="u32"):
        encode_mjpeg_avi([b"\xff\xd8xy"], fps=2**31, width=1, height=1)


def test_dib_avi_roundtrip_and_poster():
    """Uncompressed-DIB AVI (handler 'DIB '): lossless frames, so the
    poster over identical frames IS the frame, and a metadata re-wrap is
    a bit-identical planted dup."""
    img = mm._pnm_raster(24, 18, 7, gray=True).reshape(18, 24)
    pay = avi.encode_dib_avi([img] * 4, fps=10)
    frames, fps, fmt, warns = avi.parse_mjpeg_avi(pay, tolerant=True, with_format=True)
    assert len(frames) == 4 and fps == 10.0 and warns == []
    assert fmt["handler"] == b"DIB " and len(fmt["strf"]) == 40 + 256 * 4
    poster, pwarns = mm.decode_avi_poster(pay)
    assert pwarns == []
    np.testing.assert_array_equal(poster * 255, img.astype(np.float32))
    rewrap = avi.encode_dib_avi([img] * 4, fps=10, extra_chunk=b"encoder=b")
    assert rewrap != pay
    p2, _ = mm.decode_avi_poster(rewrap)
    np.testing.assert_array_equal(p2.view(np.uint32), poster.view(np.uint32))


def test_dib_frame_decode_matches_bmp_path():
    """decode_dib_frame wraps (strf, body) as a BMP file — the decoded
    floats must be bit-identical to the standalone BMP decode of the
    same 8-bit gray raster (shared palette fast path)."""
    from multimedia_indexing_ray.functions.bmp import decode_bmp_gray, encode_bmp

    img = mm._pnm_raster(20, 12, 3, gray=True).reshape(12, 20)
    pay = avi.encode_dib_avi([img], fps=5)
    frames, _, fmt, _ = avi.parse_mjpeg_avi(pay, with_format=True)
    dec, warns = avi.decode_dib_frame(frames[0], fmt["strf"])
    assert warns == []
    ref, _ = decode_bmp_gray(encode_bmp(img))
    np.testing.assert_array_equal(dec.view(np.uint32), ref.view(np.uint32))


def test_dib_avi_truncation_tolerated():
    img = mm._pnm_raster(24, 18, 9, gray=True).reshape(18, 24)
    pay = avi.encode_dib_avi([np.roll(img, f, axis=0) for f in range(6)], fps=10)
    poster, warns = mm.decode_avi_poster(pay[: len(pay) * 2 // 3])
    assert poster.shape == (18, 24) and warns  # partial frames + warning


def test_dup_avi_fixture_mixes_codecs():
    tbl = mm.synthetic_dup_avi_table(10, seed=23)
    payloads = tbl["payload"].to_pylist()
    handlers = set()
    for p in payloads:
        _, _, fmt, _ = avi.parse_mjpeg_avi(p, with_format=True)
        handlers.add(fmt["handler"])
    assert handlers == {b"MJPG", b"DIB "}
    # every planted pair still decodes to an identical poster
    for i in (2, 7):  # i % 5 == 2 -> DIB containers
        a, _ = mm.decode_avi_poster(payloads[i])
        b, _ = mm.decode_avi_poster(payloads[10 + i])
        np.testing.assert_array_equal(a.view(np.uint32), b.view(np.uint32))


def test_short_strh_does_not_shift_strf_attribution():
    """A malformed short strh between the video strl and a second
    stream's strf must not hand the AUDIO strf to the video stream
    (review-found misattribution: n_streams skipped short strh)."""
    import struct

    img = mm._pnm_raster(24, 18, 7, gray=True).reshape(18, 24)
    pay = avi.encode_dib_avi([img] * 2, fps=10)
    # append a second strl with a 20-byte strh and a 16-byte audio strf
    short_strh = b"strh" + struct.pack("<I", 20) + b"auds" + b"\x00" * 16
    audio_strf = b"strf" + struct.pack("<I", 16) + b"\x01\x00" + b"\x00" * 14
    strl2 = b"LIST" + struct.pack("<I", 4 + len(short_strh) + len(audio_strf)) + b"strl" + short_strh + audio_strf
    # inject before the movi list
    movi_at = pay.find(b"LIST", 12, len(pay))
    # find the movi LIST specifically
    p = 12
    while True:
        tag = pay[p:p+4]; size = struct.unpack("<I", pay[p+4:p+8])[0]
        if tag == b"LIST" and pay[p+8:p+12] == b"movi":
            break
        p += 8 + size + (size % 2)
    mut = pay[:p] + strl2 + pay[p:]
    mut = mut[:4] + struct.pack("<I", struct.unpack("<I", pay[4:8])[0] + len(strl2)) + mut[8:]
    frames, fps, fmt, warns = avi.parse_mjpeg_avi(mut, with_format=True)
    assert fmt["handler"] == b"DIB " and len(fmt["strf"]) == 40 + 1024
    assert "short_strh" in warns
    poster, _ = mm.decode_avi_poster(mut)  # still decodable
    np.testing.assert_array_equal(poster * 255, img.astype(np.float32))


def test_truncated_list_header_warns():
    img = mm._pnm_raster(24, 18, 7, gray=True).reshape(18, 24)
    pay = avi.encode_dib_avi([img] * 2, fps=10)
    # cut so the tail is 'LIST' + size + <4 bytes of body
    import struct
    p = 12
    while True:
        tag = pay[p:p+4]; size = struct.unpack("<I", pay[p+4:p+8])[0]
        if tag == b"LIST" and pay[p+8:p+12] == b"movi":
            break
        p += 8 + size + (size % 2)
    cut = pay[: p + 10]  # LIST tag + size + 2 bytes
    with np.testing.assert_raises(avi.AviError):
        avi.parse_mjpeg_avi(cut)  # no movi -> typed error, but...
    # a payload whose LAST chunk is the cut LIST after a complete movi
    # must WARN (tolerant contract), not silently stop
    tail = pay + b"LIST" + struct.pack("<I", 64) + b"mo"
    tail = tail[:4] + struct.pack("<I", struct.unpack("<I", pay[4:8])[0] + 10) + tail[8:]
    _, _, _, warns = avi.parse_mjpeg_avi(tail, with_format=True)
    assert "truncated_chunk" in warns
