"""WAV (RIFF PCM) codec + spectrogram path (`functions/wav.py`):
lossless PCM round trips, stereo downmix, metadata-variant invariance,
tolerance cases, and the audio perceptual-dedup pipeline."""

import numpy as np
import pytest

from multimedia_indexing_ray.functions.wav import (
    WavError,
    decode_wav,
    encode_wav,
    is_wav,
    spectrogram_gray,
)


def _pcm(n=3000, seed=1):
    rng = np.random.default_rng(seed)
    return rng.integers(-32768, 32767, n, dtype=np.int16)


def test_mono_roundtrip_lossless():
    pcm = _pcm()
    x, rate, warns = decode_wav(encode_wav(pcm, rate=8000))
    assert warns == [] and rate == 8000
    np.testing.assert_array_equal(
        np.round(x * 32768.0).astype(np.int16), pcm
    )


def test_stereo_downmix():
    left = _pcm(seed=2)
    stereo = np.stack([left, left], axis=1)
    x, _, warns = decode_wav(encode_wav(stereo))
    assert warns == []
    mono, _, _ = decode_wav(encode_wav(left))
    np.testing.assert_array_equal(x, mono)  # mean of identical channels


def test_metadata_chunk_variant_same_samples():
    pcm = _pcm(seed=3)
    a = encode_wav(pcm)
    b = encode_wav(pcm, extra_chunk=b"encoder=b copy")
    assert a != b
    xa, _, _ = decode_wav(a)
    xb, _, wb = decode_wav(b)
    assert wb == []
    np.testing.assert_array_equal(xa, xb)
    np.testing.assert_array_equal(spectrogram_gray(xa), spectrogram_gray(xb))


def test_odd_length_metadata_word_alignment():
    pcm = _pcm(seed=4)
    x, _, warns = decode_wav(encode_wav(pcm, extra_chunk=b"odd"))  # 3 bytes
    assert warns == [] and len(x) == len(pcm)


def test_tolerances():
    pcm = _pcm(seed=5)
    p = encode_wav(pcm)
    x, _, warns = decode_wav(p[: len(p) * 2 // 3])
    assert "truncated_data_chunk" in warns and 0 < len(x) < len(pcm)
    # decoded prefix is exact
    full, _, _ = decode_wav(p)
    np.testing.assert_array_equal(x, full[: len(x)])
    _, _, w2 = decode_wav(p + b"JUNK")
    assert "trailing_garbage_after_riff" in w2
    with pytest.raises(WavError):
        decode_wav(p[: len(p) * 2 // 3], tolerant=False)
    for hopeless in (b"", b"RIFFxxxxNOPE", b"not audio"):
        with pytest.raises(WavError):
            decode_wav(hopeless)
    assert is_wav(p) and not is_wav(b"RIFFxxxxNOPE")


def test_spectrogram_shapes_and_determinism():
    x, _, _ = decode_wav(encode_wav(_pcm(4000, seed=6)))
    s1, s2 = spectrogram_gray(x), spectrogram_gray(x)
    np.testing.assert_array_equal(s1, s2)
    assert s1.ndim == 2 and 0.0 <= s1.min() and s1.max() <= 1.0
    # silence and sub-frame clips do not crash
    assert spectrogram_gray(np.zeros(10, np.float32)).max() == 0.0


def test_media_decoder_real_wav(ray_session):
    """codec='real' end-to-end over the WAV fixture: decode ->
    spectrogram -> featurize with the error side-channel populated."""
    import ray.data as rd

    from multimedia_indexing_ray.stages.multimodal import (
        decode_and_featurize,
        synthetic_wav_table,
    )

    rows = decode_and_featurize(
        rd.from_arrow(synthetic_wav_table(22, seed=13)), codec="real", concurrency=2
    ).take_all()
    by_id = {r["media_id"]: r for r in rows}
    assert len(rows) == 22
    assert by_id["w-0005"]["decode_error"].startswith("decode_failed:")
    assert by_id["w-0003"]["decode_error"].startswith("tolerated:")
    assert by_id["w-0001"]["decode_error"] is None
    assert by_id["w-0000"]["decode_error"] is None  # stereo


def test_audio_phash_pairs(ray_session):
    """Planted metadata-variant audio duplicates come back exactly."""
    import ray.data as rd

    from multimedia_indexing_ray.stages.multimodal import (
        media_phash_pairs,
        synthetic_dup_wav_table,
    )

    n = 24
    got = {
        (r["media_id_a"], r["media_id_b"])
        for r in media_phash_pairs(
            rd.from_arrow(synthetic_dup_wav_table(n, seed=19)),
            concurrency=2,
        ).take_all()
    }
    assert got == {(f"w-{i:04d}", f"w-{i + n:04d}") for i in range(n)}


# ---------------------------------------------------------------------------
# G.711 mu-law / A-law + IMA ADPCM (fmt tags 7 / 6 / 0x11)
# ---------------------------------------------------------------------------


def _tone(n=4000, seed=0, amp=12000):
    rng = np.random.default_rng(seed)
    t = np.arange(n) / 16000
    x = np.sin(2 * np.pi * 440 * t) * amp + rng.normal(0, amp / 30, n)
    return np.clip(x, -32768, 32767).astype(np.int16)


@pytest.mark.parametrize("codec,tag", [("mulaw", 7), ("alaw", 6)])
def test_g711_roundtrip_and_tag(codec, tag):
    import struct

    from multimedia_indexing_ray.functions.wav import encode_wav

    x = _tone(seed=3)
    pay = encode_wav(x, codec=codec)
    assert struct.unpack_from("<H", pay, 20)[0] == tag
    y, rate, warns = decode_wav(pay)
    assert warns == [] and rate == 16000 and len(y) == len(x)
    # companding error bounded (~2% of full scale at these amplitudes)
    assert np.abs(y * 32768 - x).max() <= 256
    # codec-stable: decode -> re-encode -> decode is a fixed point
    y16 = (y * 32768).astype(np.int16)
    y2, _, _ = decode_wav(encode_wav(y16, codec=codec))
    np.testing.assert_array_equal(y, y2)


def test_adpcm_roundtrip_quality_and_blocks():
    import struct

    from multimedia_indexing_ray.functions.wav import encode_wav

    x = _tone(seed=4)
    pay = encode_wav(x, codec="adpcm")
    assert struct.unpack_from("<H", pay, 20)[0] == 0x11
    y, rate, warns = decode_wav(pay)
    assert warns == [] and rate == 16000
    assert len(y) >= len(x)  # padded to whole 505-sample blocks
    err = y[: len(x)] * 32768 - x
    assert np.sqrt((err**2).mean()) < 400  # ~-38 dB: real IMA quality
    # truncation mid-block: decoded prefix + typed warning
    yt, _, wt = decode_wav(pay[:-50])
    assert "partial_adpcm_block" in wt or "truncated_data_chunk" in wt


@pytest.mark.parametrize("codec", ["mulaw", "alaw", "adpcm"])
def test_codec_metadata_variant_bit_identical(codec):
    from multimedia_indexing_ray.functions.wav import encode_wav

    x = _tone(seed=5)
    a = encode_wav(x, codec=codec)
    b = encode_wav(x, codec=codec, extra_chunk=b"encoder=b copy")
    assert a != b
    ya, _, _ = decode_wav(a)
    yb, _, _ = decode_wav(b)
    np.testing.assert_array_equal(ya.view(np.uint32), yb.view(np.uint32))


def test_codec_typed_errors():
    import struct

    from multimedia_indexing_ray.functions.wav import encode_wav

    x = _tone(seed=6)
    with pytest.raises(ValueError, match="mono only"):
        encode_wav(np.stack([x, x], axis=1), codec="adpcm")
    pay = bytearray(encode_wav(x, codec="adpcm"))
    struct.pack_into("<H", pay, 22, 2)  # claim stereo ADPCM
    with pytest.raises(WavError, match="unsupported_adpcm_channels"):
        decode_wav(bytes(pay))
    bad = bytearray(encode_wav(x))
    struct.pack_into("<H", bad, 20, 0x55)  # unknown format tag
    with pytest.raises(WavError, match="unsupported_format_tag"):
        decode_wav(bytes(bad))


def test_dup_wav_fixture_mixes_codecs():
    import struct

    from multimedia_indexing_ray.stages.multimodal import synthetic_dup_wav_table

    tbl = synthetic_dup_wav_table(8, seed=19)
    payloads = tbl["payload"].to_pylist()
    # BASE rows are WAV and cycle all four fmt tags (dup rows live in
    # AIFF/AU containers for the non-ADPCM codecs — test_au_aiff.py
    # covers those pairs)
    tags = {struct.unpack_from("<H", p, 20)[0] for p in payloads[:8]}
    assert tags == {1, 6, 7, 0x11}
    # the WAV-to-WAV pair (ADPCM) still decodes bit-identically
    a, _, _ = decode_wav(payloads[2])
    b, _, _ = decode_wav(payloads[8 + 2])
    np.testing.assert_array_equal(a.view(np.uint32), b.view(np.uint32))


def test_g711_luts_match_sun_reference():
    """Both decode tables must equal the canonical Sun g711.c algorithm
    (review-found: the first A-law cut was sign-inverted and 8x
    over-scaled — self-consistent encode/decode could not catch it)."""
    from multimedia_indexing_ray.functions.wav import _ALAW_LUT, _MULAW_LUT

    def alaw2linear(a):
        a ^= 0x55
        t = (a & 0x0F) << 4
        seg = (a & 0x70) >> 4
        if seg == 0:
            t += 8
        elif seg == 1:
            t += 0x108
        else:
            t = (t + 0x108) << (seg - 1)
        return t if (a & 0x80) else -t

    def ulaw2linear(u):
        u = ~u & 0xFF
        t = (((u & 0x0F) << 3) + 0x84) << ((u & 0x70) >> 4)
        return (0x84 - t) if (u & 0x80) else (t - 0x84)

    np.testing.assert_array_equal(
        _ALAW_LUT, np.array([alaw2linear(i) for i in range(256)], np.int16)
    )
    np.testing.assert_array_equal(
        _MULAW_LUT, np.array([ulaw2linear(i) for i in range(256)], np.int16)
    )


def test_adpcm_fact_chunk_trims_block_padding():
    from multimedia_indexing_ray.functions.wav import encode_wav

    x = _tone(3000, seed=8)  # not a multiple of the 505-sample block
    y, _, warns = decode_wav(encode_wav(x, codec="adpcm"))
    assert warns == [] and len(y) == 3000  # fact chunk trims the padding
