"""Pure-numpy/zlib PNG codec (`functions/png.py`): lossless round trips,
all five scanline filters, luma paths, tolerance cases, and the
cross-format (PGM base / PNG dup) planted-pair contract."""

import struct
import zlib

import numpy as np
import pytest

from multimedia_indexing_ray.functions.png import (
    PngError,
    _SIG,
    _chunk,
    decode_png_gray,
    encode_png,
    is_png,
)


def _rand(shape, seed=1):
    return np.random.default_rng(seed).integers(0, 256, shape, dtype=np.uint8)


def test_gray_roundtrip_lossless():
    img = _rand((20, 30))
    dec, warns = decode_png_gray(encode_png(img))
    assert warns == []
    np.testing.assert_array_equal((dec * 255).round().astype(np.uint8), img)


def test_rgb_rgba_luma():
    rgb = _rand((17, 13, 3), seed=2)
    dec, _ = decode_png_gray(encode_png(rgb))
    ref = (rgb.astype(np.float64) @ np.array([0.299, 0.587, 0.114])) / 255.0
    np.testing.assert_allclose(dec, ref.astype(np.float32), rtol=0, atol=1e-7)
    dec4, _ = decode_png_gray(encode_png(_rand((9, 11, 4), seed=3)))
    assert dec4.shape == (9, 11)


def test_comment_variant_same_pixels():
    img = _rand((16, 16), seed=4)
    a, b = encode_png(img), encode_png(img, comment=b"v2")
    assert a != b
    da, _ = decode_png_gray(a)
    db, _ = decode_png_gray(b)
    np.testing.assert_array_equal(da, db)


def _encode_filtered_gray(img: np.ndarray, ft: int) -> bytes:
    """Hand-apply scanline filter `ft` (the encoder only emits 0) so the
    decoder's sub/up/avg/Paeth reconstruction paths get exercised."""
    h, w = img.shape
    raw = bytearray()
    prev = np.zeros(w, dtype=np.int32)
    for y in range(h):
        row = img[y].astype(np.int32)
        out = np.zeros(w, dtype=np.int32)
        for x in range(w):
            a = int(row[x - 1]) if x >= 1 else 0
            b = int(prev[x])
            c = int(prev[x - 1]) if x >= 1 else 0
            if ft == 1:
                pred = a
            elif ft == 2:
                pred = b
            elif ft == 3:
                pred = (a + b) // 2
            else:
                p = a + b - c
                pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
                pred = a if (pa <= pb and pa <= pc) else (b if pb <= pc else c)
            out[x] = (row[x] - pred) & 0xFF
        raw += bytes([ft]) + bytes(out.astype(np.uint8))
        prev = row
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 0, 0, 0, 0)
    return (
        _SIG
        + _chunk(b"IHDR", ihdr)
        + _chunk(b"IDAT", zlib.compress(bytes(raw)))
        + _chunk(b"IEND", b"")
    )


@pytest.mark.parametrize("ft", [1, 2, 3, 4])
def test_all_scanline_filters_reconstruct(ft):
    img = _rand((12, 19), seed=5 + ft)
    dec, warns = decode_png_gray(_encode_filtered_gray(img, ft))
    assert warns == []
    np.testing.assert_array_equal((dec * 255).round().astype(np.uint8), img)


def test_tolerances():
    img = _rand((18, 18), seed=9)
    p = encode_png(img)
    dec, warns = decode_png_gray(p[: len(p) // 2])  # truncated IDAT
    assert dec.shape == img.shape and warns
    _, w2 = decode_png_gray(p + b"JUNK")
    assert "trailing_garbage_after_iend" in w2
    bad = bytearray(p)
    bad[-1] ^= 0xFF  # corrupt the IEND CRC -> warning, pixels unaffected
    dec3, w3 = decode_png_gray(bytes(bad))
    assert any(m.startswith("bad_crc") for m in w3)
    np.testing.assert_array_equal(dec3, decode_png_gray(p)[0])
    bomb = bytearray(p)
    bomb[20] ^= 0xFF  # IHDR height byte -> ~4B rows: must refuse, not allocate
    with pytest.raises(PngError):
        decode_png_gray(bytes(bomb))
    with pytest.raises(PngError):
        decode_png_gray(p[: len(p) // 2], tolerant=False)
    for hopeless in (b"", b"not a png"):
        with pytest.raises(PngError):
            decode_png_gray(hopeless)


def test_cross_format_pgm_png_bit_identical():
    """The planted-pair contract: a grayscale raster decodes to the SAME
    float32 plane through the PNM and PNG decoders (shared float32
    division), so cross-format dHash dedup is deterministic."""
    from multimedia_indexing_ray.stages.multimodal import (
        _pnm_raster,
        decode_ppm_gray,
        make_ppm,
    )

    w, h = 24, 18
    raster = _pnm_raster(w, h, seed=77, gray=True).reshape(h, w)
    via_pgm = decode_ppm_gray(make_ppm(w, h, seed=77, gray=True))
    via_png, warns = decode_png_gray(encode_png(raster))
    assert warns == []
    np.testing.assert_array_equal(via_pgm, via_png)


def test_phash_pairs_cross_format(ray_session):
    """The extended dup table (PNM/PNG cross-format + JPEG COM variants)
    yields exactly the planted pairs through the mixed-format hasher."""
    import ray.data as rd

    from multimedia_indexing_ray.stages.multimodal import (
        media_phash_pairs,
        synthetic_dup_ppm_table,
    )

    n = 32
    media = rd.from_arrow(synthetic_dup_ppm_table(n, seed=7))
    assert is_png(media.take_all()[0]["payload"]) is False  # base side is PNM
    got = {
        (r["media_id_a"], r["media_id_b"])
        for r in media_phash_pairs(media, concurrency=2).take_all()
    }
    want = {(f"q-{i:04d}", f"q-{i + n:04d}") for i in range(n)}
    assert got == want


def test_unfilter_cpu_budget_bounds_hostile_paeth():
    """ADVICE r4: a tiny zlib payload declaring huge all-Paeth dimensions
    must hit a TYPED error in bounded time, not pin an actor for minutes
    (the serial avg/Paeth recurrences carry a cumulative byte budget)."""
    import time

    w = h = 4000  # 16MP: passes the 2^24 pixel cap, exceeds the CPU budget
    row = b"\x04" + b"\x01" * w
    payload = (
        _SIG
        + _chunk(b"IHDR", struct.pack(">IIBBBBB", w, h, 8, 0, 0, 0, 0))
        + _chunk(b"IDAT", zlib.compress(row * h, 9))
        + _chunk(b"IEND", b"")
    )
    assert len(payload) < 64 * 1024
    t = time.time()
    with pytest.raises(PngError, match="unfilter_cpu_budget_exceeded"):
        decode_png_gray(payload)
    assert time.time() - t < 10.0


def test_dimension_caps_pixels_and_bytes():
    # pixel cap: 2^24 < 4100*4100
    big = _SIG + _chunk(
        b"IHDR", struct.pack(">IIBBBBB", 4100, 4100, 8, 0, 0, 0, 0)
    )
    with pytest.raises(PngError, match="bad_dimensions"):
        decode_png_gray(big + _chunk(b"IEND", b""))
    # byte cap: RGBA at 16MP is 64MB filtered bytes > 2^26
    rgba = _SIG + _chunk(
        b"IHDR", struct.pack(">IIBBBBB", 4096, 4096, 8, 6, 0, 0, 0)
    )
    with pytest.raises(PngError, match="bad_dimensions"):
        decode_png_gray(rgba + _chunk(b"IEND", b""))


def test_adam7_interlaced_roundtrip_matches_progressive():
    """Adam7-interlaced encode -> decode reproduces the same gray plane
    as the non-interlaced encoding of the same raster, for sizes that
    exercise empty/partial passes (1x1 .. 17x9) and all channel counts."""
    rng = np.random.default_rng(11)
    for h, w in [(1, 1), (2, 3), (7, 5), (8, 8), (9, 17), (16, 16)]:
        for ch in (1, 3, 4):
            img = rng.integers(0, 256, size=(h, w) if ch == 1 else (h, w, ch), dtype=np.uint8)
            plain, w0 = decode_png_gray(encode_png(img))
            inter, w1 = decode_png_gray(encode_png(img, interlace=True))
            assert w0 == w1 == []
            np.testing.assert_array_equal(plain, inter)


def test_16bit_decode_gray_and_rgb():
    """Bit depth 16: big-endian samples, 1/65535 scale, BT.601 luma."""
    g16 = np.array([[0, 65535], [32768, 12345]], dtype=np.uint16)
    out, warns = decode_png_gray(encode_png(g16))
    assert warns == []
    np.testing.assert_allclose(
        out, (g16.astype(np.float64) / 65535.0).astype(np.float32), rtol=0, atol=0
    )
    rng = np.random.default_rng(5)
    rgb16 = rng.integers(0, 65536, size=(6, 4, 3), dtype=np.uint16)
    out, warns = decode_png_gray(encode_png(rgb16))
    assert warns == []
    want = (rgb16.astype(np.float64) @ np.array([0.299, 0.587, 0.114]) / 65535.0).astype(np.float32)
    np.testing.assert_array_equal(out, want)
    # 16-bit + Adam7 combo
    out_i, _ = decode_png_gray(encode_png(rgb16, interlace=True))
    np.testing.assert_array_equal(out_i, want)


def test_16bit_interlaced_truncation_is_tolerated():
    rng = np.random.default_rng(9)
    img = rng.integers(0, 65536, size=(12, 10), dtype=np.uint16)
    body = encode_png(img, interlace=True)
    out, warns = decode_png_gray(body[: len(body) // 2], tolerant=True)
    assert out.shape == (12, 10)
    assert any("truncated" in w or "missing_iend" in w for w in warns)


def test_depth_flip_decodes_as_subbyte_not_crash():
    """Flipping the IHDR depth byte of an 8-bit gray image to 4 reclasses
    the payload as a (short) sub-byte stream: it must decode tolerantly
    (truncated/padded), never escape an untyped error — all legal depths
    are real decode paths now."""
    img = np.full((4, 4), 0x88, dtype=np.uint8)
    body = bytearray(encode_png(img))
    # IHDR body starts at offset 8 (sig) + 8 (len+tag); depth byte is +8
    assert body[8 + 8 + 8] == 8
    body[8 + 8 + 8] = 4
    import struct as _s
    import zlib as _z

    crc = _z.crc32(b"IHDR" + bytes(body[16:29])) & 0xFFFFFFFF
    body[29:33] = _s.pack(">I", crc)
    out, _ = decode_png_gray(bytes(body), tolerant=True)
    assert out.shape == (4, 4)


def _hand_png(w, h, depth, color_type, rows_samples, palette=None, interlace=0):
    """Hand-built PNG (independent of encode_png): pack sub-byte samples
    MSB-first per scanline, filter 0, one IDAT."""
    import struct as _s
    import zlib as _z

    def chunk(tag, body):
        return (
            _s.pack(">I", len(body)) + tag + body
            + _s.pack(">I", _z.crc32(tag + body) & 0xFFFFFFFF)
        )

    raw = bytearray()
    for row in rows_samples:
        bits = []
        for v in row:
            bits.extend(int(b) for b in format(int(v), f"0{depth}b"))
        while len(bits) % 8:
            bits.append(0)
        raw.append(0)  # filter type 0
        raw += np.packbits(np.array(bits, dtype=np.uint8)).tobytes()
    out = bytearray(b"\x89PNG\r\n\x1a\n")
    out += chunk(b"IHDR", _s.pack(">IIBBBBB", w, h, depth, color_type, 0, 0, interlace))
    if palette is not None:
        out += chunk(b"PLTE", bytes(palette))
    out += chunk(b"IDAT", _z.compress(bytes(raw)))
    out += chunk(b"IEND", b"")
    return bytes(out)


@pytest.mark.parametrize("depth", [1, 2, 4])
def test_subbyte_gray_decode(depth):
    """Sub-byte gray depths: MSB-first unpack, v/(2^d - 1) scale."""
    rng = np.random.default_rng(depth)
    h, w = 5, 11  # w chosen so rows need bit padding
    samples = rng.integers(0, 1 << depth, size=(h, w))
    body = _hand_png(w, h, depth, 0, samples)
    out, warns = decode_png_gray(body)
    assert warns == []
    want = (samples.astype(np.float32) / np.float32((1 << depth) - 1))
    np.testing.assert_array_equal(out, want)


def test_subbyte_palette_decode():
    """4-bit palette image: unpacked indices -> PLTE -> BT.601 luma."""
    pal = []
    for i in range(16):
        pal += [i * 16, 255 - i * 16, (i * 37) % 256]
    samples = np.arange(16).reshape(4, 4)
    body = _hand_png(4, 4, 4, 3, samples, palette=pal)
    out, warns = decode_png_gray(body)
    assert warns == []
    rgb = np.array(pal, dtype=np.float64).reshape(16, 3)[samples.reshape(-1)]
    want = (rgb @ np.array([0.299, 0.587, 0.114]) / 255.0).astype(np.float32).reshape(4, 4)
    np.testing.assert_array_equal(out, want)


def test_subbyte_interlaced_matches_plain():
    """Adam7 at depth 2: per-pass sub-byte rows unpack and scatter to the
    same raster as the non-interlaced encoding."""
    rng = np.random.default_rng(42)
    h, w = 9, 13
    samples = rng.integers(0, 4, size=(h, w))
    plain, _ = decode_png_gray(_hand_png(w, h, 2, 0, samples))
    # build the interlaced stream: passes in Adam7 order, filter 0 rows
    from multimedia_indexing_ray.functions.png import _adam7_passes

    import struct as _s
    import zlib as _z

    def chunk(tag, body):
        return (
            _s.pack(">I", len(body)) + tag + body
            + _s.pack(">I", _z.crc32(tag + body) & 0xFFFFFFFF)
        )

    raw = bytearray()
    for x0, y0, dx, dy, wp, hp in _adam7_passes(w, h):
        sub = samples[y0::dy, x0::dx]
        for row in sub:
            bits = []
            for v in row:
                bits.extend(int(b) for b in format(int(v), "02b"))
            while len(bits) % 8:
                bits.append(0)
            raw.append(0)
            raw += np.packbits(np.array(bits, dtype=np.uint8)).tobytes()
    out = bytearray(b"\x89PNG\r\n\x1a\n")
    out += chunk(b"IHDR", _s.pack(">IIBBBBB", w, h, 2, 0, 0, 0, 1))
    out += chunk(b"IDAT", _z.compress(bytes(raw)))
    out += chunk(b"IEND", b"")
    inter, warns = decode_png_gray(bytes(out))
    assert warns == []
    np.testing.assert_array_equal(plain, inter)


def test_illegal_depth_combos_rejected():
    with pytest.raises(PngError, match="bad_color_type"):  # RGB at depth 4
        decode_png_gray(_hand_png(4, 4, 4, 2, np.zeros((4, 12))))
    with pytest.raises(PngError, match="unsupported_bit_depth"):  # depth 3
        decode_png_gray(_hand_png(4, 4, 3, 0, np.zeros((4, 4))))
