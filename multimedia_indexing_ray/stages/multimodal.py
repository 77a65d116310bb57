"""Multimodal column plumbing: opaque binary payloads + typed metadata.

This is the engine's mapping of the reference's image path — download,
tolerant decode, rescale, feature-extract
(`visual/download/ImageDownload.java:152-260`,
`visual/utilities/ImageIOGreyScale.java` fallback,
`visual/extraction/ImageScaling.java:96-155`,
`visual/extraction/SURFExtractor.java:44-59`) — onto Ray Data:

- media rows are ``(media_id, payload: binary, media_type, width/height/
  duration metadata)``;
- decode / resize / frame-sample are ACTOR-POOL ``map_batches`` stages
  with state built once per actor (ST1 singleton analog);
- codecs: ``codec="real"`` auto-detects and REALLY decodes JFIF/JPEG
  (pure-numpy tolerant baseline decoder, `functions/jpeg.py` — the
  `ImageIOGreyScale.java` analog), PNG (`functions/png.py`), BMP
  (`functions/bmp.py`), GIF (`functions/gif.py`), WBMP
  (`functions/wbmp.py` — the full ImageIO format set), binary
  PPM/PGM (P6/P5), RIFF/PCM WAV audio (`functions/wav.py` — the
  waveform renders as a deterministic log-STFT spectrogram raster so
  the image machinery applies unchanged), and RIFF-AVI video
  (`functions/avi.py` — Motion-JPEG or uncompressed DIB frames,
  uniform frame-sample, temporal-mean poster raster); only
  inter-frame-compressed codecs remain a documented container-limit
  stub (no libav).
  ``codec="fake"`` is a deterministic stand-in (seeded by content hash);
- failures never crash the batch: bad payloads are routed to an error
  side-channel column (``decode_error``), mirroring the reference's
  count-and-skip policy (`visual/examples/UrlIndexingMT.java:154-191`).
"""

from __future__ import annotations

import functools
import hashlib
import logging
from typing import Optional

import numpy as np
import pyarrow as pa

import ray.data

from multimedia_indexing_ray.functions import (
    aiff,
    au,
    avi,
    bmp,
    gif,
    jpeg,
    png,
    wav,
    wbmp,
)

logger = logging.getLogger(__name__)

MEDIA_SCHEMA = pa.schema(
    [
        pa.field("media_id", pa.string(), nullable=False),
        pa.field("media_type", pa.string(), nullable=False),  # image|audio|video
        pa.field("payload", pa.binary(), nullable=False),
        pa.field("meta_width", pa.int32(), nullable=True),
        pa.field("meta_height", pa.int32(), nullable=True),
        pa.field("meta_duration_s", pa.float32(), nullable=True),
    ]
)


def _stable_seed(payload: bytes) -> int:
    return int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "little")


class _PpmError(ValueError):
    pass


def _parse_pnm_header(payload: bytes):
    """Parse a binary PNM header (P5 gray / P6 RGB): magic, comments,
    width, height, maxval, then one whitespace byte before the raster."""
    if payload[:2] not in (b"P5", b"P6"):
        raise _PpmError("bad_magic")
    channels = 1 if payload[:2] == b"P5" else 3
    pos, fields = 2, []
    n = len(payload)
    while len(fields) < 3:
        while pos < n and payload[pos : pos + 1].isspace():
            pos += 1
        if pos < n and payload[pos : pos + 1] == b"#":  # comment to EOL
            while pos < n and payload[pos] not in (0x0A, 0x0D):
                pos += 1
            continue
        start = pos
        while pos < n and not payload[pos : pos + 1].isspace():
            pos += 1
        if pos == start:
            raise _PpmError("truncated_header")
        try:
            fields.append(int(payload[start:pos]))
        except ValueError as e:
            raise _PpmError("bad_header_field") from e
    pos += 1  # single whitespace after maxval
    w, h, maxval = fields
    if w <= 0 or h <= 0 or not (0 < maxval < 256):
        raise _PpmError("unsupported_dimensions")
    return w, h, maxval, channels, pos


# ITU-R BT.601 luma — the same weighted grayscale the reference's
# patched reader produces (`visual/utilities/ImageIOGreyScale.java`)
_LUMA = np.array([0.299, 0.587, 0.114])


def decode_ppm_gray(payload: bytes) -> np.ndarray:
    """REAL decode: binary PPM/PGM bytes -> float32 grayscale in [0,1]."""
    w, h, maxval, channels, pos = _parse_pnm_header(payload)
    need = w * h * channels
    raster = np.frombuffer(payload, dtype=np.uint8, count=-1, offset=pos)
    if len(raster) < need:
        raise _PpmError("truncated_raster")
    raster = raster[:need].astype(np.float32) / np.float32(maxval)
    if channels == 3:
        return (raster.reshape(h, w, 3) @ _LUMA.astype(np.float32)).astype(np.float32)
    return raster.reshape(h, w)


def resize_bilinear(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Vectorized bilinear rescale (`ImageScaling.java:96-155` semantics:
    subsample with interpolation), pure numpy gather — no per-pixel loop."""
    h, w = img.shape
    ys = (np.arange(out_h) + 0.5) * h / out_h - 0.5
    xs = (np.arange(out_w) + 0.5) * w / out_w - 0.5
    y0 = np.clip(np.floor(ys).astype(np.int64), 0, h - 1)
    x0 = np.clip(np.floor(xs).astype(np.int64), 0, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = np.clip(ys - y0, 0.0, 1.0).astype(np.float32)[:, None]
    wx = np.clip(xs - x0, 0.0, 1.0).astype(np.float32)[None, :]
    top = img[y0[:, None], x0[None, :]] * (1 - wx) + img[y0[:, None], x1[None, :]] * wx
    bot = img[y1[:, None], x0[None, :]] * (1 - wx) + img[y1[:, None], x1[None, :]] * wx
    return (top * (1 - wy) + bot * wy).astype(np.float32)


def decode_avi_poster(
    payload: bytes, n_sample_frames: int = 4, side: int = 0
) -> "tuple[np.ndarray, list[str]]":
    """REAL video decode: RIFF-AVI bytes -> temporal-mean "poster"
    raster over a uniform frame sample (`functions/avi.py` container
    parse + per-frame tolerant decode: JPEG frames via
    `functions/jpeg.py`, uncompressed DIB frames via the stream's strf
    header + `functions/bmp.py`).  The poster is the video's
    canonical image, consumed by the same resize / tile-stats / dHash
    machinery as stills — identical frames give a bit-identical poster
    (the mean is over float32 decodes in fixed frame order).  ``side``
    > 0 resizes each frame BEFORE averaging so mixed frame sizes pool;
    0 keeps the native size (requires uniform frames).  Raises AviError
    when the container is undecodable; frames that fail decode are
    skipped with a warning (all-fail raises)."""
    frames, _fps, fmt, warns = avi.parse_mjpeg_avi(
        payload, tolerant=True, with_format=True
    )
    acc = None
    used = 0
    for fi in avi.sample_frame_indices(len(frames), n_sample_frames):
        try:
            if jpeg.is_jpeg(frames[fi]):
                img, fwarns = jpeg.decode_jpeg_gray(frames[fi], tolerant=True)
            elif fmt["strf"]:
                img, fwarns = avi.decode_dib_frame(frames[fi], fmt["strf"])
            else:
                warns.append(f"frame{fi}_unknown_codec")
                continue
        except (jpeg.JpegError, bmp.BmpError) as e:
            warns.append(f"frame{fi}_{e.args[0]}")
            continue
        warns.extend(f"frame{fi}_{w}" for w in fwarns)
        if side > 0:
            img = resize_bilinear(img, side, side)
        if acc is None:
            acc = img.astype(np.float64)
        elif img.shape == acc.shape:
            acc += img
        else:
            warns.append(f"frame{fi}_shape_mismatch")
            continue
        used += 1
    if acc is None or used == 0:
        raise avi.AviError("no_decodable_frames")
    return (acc / used).astype(np.float32), warns


def _tolerated_error(warns: list) -> Optional[str]:
    """Bounded decode_error string from a warning list.

    Hostile payloads can emit very many warnings; dedup (order-kept)
    and hard-cap the joined string so the error side-channel can never
    amplify a capped payload into a multi-GB column value."""
    if not warns:
        return None
    uniq = list(dict.fromkeys(warns))
    s = f"tolerated:{'+'.join(uniq[:32])}"
    if len(uniq) > 32:
        s += f"+...({len(warns)}_warnings)"
    return s[:2048]


class MediaDecoder:
    """Actor-pool decode stage.

    codec="real" auto-detects the payload format and REALLY decodes it:
    JFIF/JPEG via the pure-numpy tolerant baseline decoder
    (`functions/jpeg.py`, the engine's `ImageIOGreyScale.java` analog —
    tolerated malformations surface as ``decode_error="tolerated:…"``
    with real pixels), PNM (P5/P6) via the PPM codec, PNG, BMP (palette /
    RLE / bitfields), GIF (LZW, interlaced or not), WBMP (bilevel),
    RIFF/PCM WAV (spectrogram raster), and RIFF-AVI video (MJPEG or
    uncompressed-DIB frames, frame-sampled temporal-mean poster
    raster).  Inter-frame-compressed audio/video remain a documented
    container-limit stub (no libav).
    codec="fake" emits a deterministic (seeded) small raster so the
    plumbing can be exercised without real payloads."""

    def __init__(self, codec: str = "real", target_pixels: int = 64 * 64):
        if codec not in ("fake", "ppm", "jpeg", "png", "bmp", "gif", "wbmp", "real"):
            raise ValueError(codec)
        self.codec = codec
        self.target_pixels = target_pixels

    def _decode_one(self, payload: bytes, media_type: str):
        """Returns (raster, error) — the raster is None on hard failure;
        a non-None error alongside a raster marks a TOLERATED decode."""
        side = int(np.sqrt(self.target_pixels))
        codec = self.codec
        if codec == "real":
            audio_dec = (
                wav.decode_wav if wav.is_wav(payload)
                else au.decode_au if au.is_au(payload)
                else aiff.decode_aiff if aiff.is_aiff(payload)
                else None
            )
            if audio_dec is not None:
                # REAL audio (WAV / AU / AIFF — the javax.sound container
                # set): decode the waveform, render the deterministic
                # log-STFT spectrogram raster — the downstream image
                # machinery (resize / tile stats / dHash) applies as-is
                try:
                    x, _rate, warns = audio_dec(payload, tolerant=True)
                except (wav.WavError, au.AuError, aiff.AiffError) as e:
                    return None, f"decode_failed:{e.args[0]}"
                img = wav.spectrogram_gray(x)
                err = _tolerated_error(warns)
                return resize_bilinear(img, side, side), err
            if avi.is_avi(payload):
                # REAL video: container parse -> uniform frame sample ->
                # per-frame JPEG decode -> temporal-mean poster raster;
                # the downstream image machinery applies as-is
                try:
                    # side= resizes each frame BEFORE averaging, so the
                    # poster is already side x side — no second resize
                    img, warns = decode_avi_poster(payload, side=side)
                except avi.AviError as e:
                    return None, f"decode_failed:{e.args[0]}"
                err = _tolerated_error(warns)
                return img, err
            if media_type in ("audio", "video"):
                # remaining documented stub: inter-frame-compressed
                # audio / video (no libav in this container) — the
                # actor/batch/error-channel plumbing is identical
                return None, "decode_failed:unsupported_media_type"
            if jpeg.is_jpeg(payload):
                codec = "jpeg"
            elif png.is_png(payload):
                codec = "png"
            elif bmp.is_bmp(payload):
                codec = "bmp"
            elif gif.is_gif(payload):
                codec = "gif"
            elif payload[:2] in (b"P5", b"P6"):
                codec = "ppm"
            elif wbmp.is_wbmp(payload):
                # last: WBMP has no magic, only a strict structural sniff
                codec = "wbmp"
            else:
                return None, "decode_failed:unknown_format"
        if codec in ("jpeg", "png", "bmp", "gif", "wbmp"):
            dec = {
                "jpeg": jpeg.decode_jpeg_gray,
                "png": png.decode_png_gray,
                "bmp": bmp.decode_bmp_gray,
                "gif": gif.decode_gif_gray,
                "wbmp": wbmp.decode_wbmp_gray,
            }[codec]
            try:
                img, warns = dec(payload, tolerant=True)
            except (jpeg.JpegError, png.PngError, bmp.BmpError, gif.GifError,
                    wbmp.WbmpError) as e:
                return None, f"decode_failed:{e.args[0]}"
            err = _tolerated_error(warns)
            return resize_bilinear(img, side, side), err
        if codec == "ppm":
            try:
                img = decode_ppm_gray(payload)
            except _PpmError as e:
                return None, f"decode_failed:{e.args[0]}"
            return resize_bilinear(img, side, side), None
        if len(payload) == 0:
            return None, "decode_failed:empty_payload"
        rng = np.random.default_rng(_stable_seed(payload))
        return rng.random((side, side), dtype=np.float32), None

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch["payload"].to_pylist()
        types = batch["media_type"].to_pylist()
        pixels, errors = [], []
        side = int(np.sqrt(self.target_pixels))
        for p, t in zip(payloads, types):
            arr, err = self._decode_one(p, t)
            if arr is None:
                pixels.append(np.zeros(side * side, dtype=np.float32))
                errors.append(err)
            else:
                pixels.append(arr.reshape(-1))
                errors.append(err)  # None, or "tolerated:…" with real pixels
        mat = np.stack(pixels)
        col = pa.FixedSizeListArray.from_arrays(
            pa.array(mat.reshape(-1), pa.float32()), side * side
        )
        return pa.table(
            {
                "media_id": batch["media_id"],
                "media_type": batch["media_type"],
                "pixels": col,
                "decode_error": pa.array(errors, pa.string()),
            }
        )


class MediaFeaturizer:
    """Actor-pool feature extraction over decoded rasters — the SURF/VLAD
    slot.  Computes simple deterministic pooled statistics per tile grid
    (a stand-in feature with a real fixed-dimension contract)."""

    def __init__(self, grid: int = 4):
        self.grid = grid

    def __call__(self, batch: pa.Table) -> pa.Table:
        col = batch["pixels"].combine_chunks()
        dim = col.type.list_size
        side = int(np.sqrt(dim))
        mat = col.flatten().to_numpy(zero_copy_only=False).reshape(-1, side, side)
        g = self.grid
        tile = side // g
        # mean + std per tile -> 2*g*g dims, vectorized over the batch
        tiles = mat[:, : g * tile, : g * tile].reshape(-1, g, tile, g, tile)
        means = tiles.mean(axis=(2, 4)).reshape(len(mat), -1)
        stds = tiles.std(axis=(2, 4)).reshape(len(mat), -1)
        feats = np.concatenate([means, stds], axis=1).astype(np.float64)
        out = pa.FixedSizeListArray.from_arrays(
            pa.array(feats.reshape(-1), pa.float64()), feats.shape[1]
        )
        return pa.table(
            {
                "media_id": batch["media_id"],
                "features": out,
                "decode_error": batch["decode_error"],
            }
        )


def decode_and_featurize(
    ds: "ray.data.Dataset",
    codec: str = "fake",
    concurrency: "int | tuple[int, int]" = 4,
    batch_size: int = 64,
) -> "ray.data.Dataset":
    """media table -> (media_id, features, decode_error).

    Small batch_size: binary payloads are wide rows — batch x concurrency
    must fit the worker heap (SURVEY.md memory-aware sizing).

    ``concurrency``: an int N becomes an AUTOSCALING (1, N) pool — a
    fixed pool of N per stage can reserve every CPU of a small cluster
    and starve the upstream read tasks (streaming-executor deadlock);
    min 1 actor always leaves headroom.  Pass a (min, max) tuple to
    override when the job is short and the cluster has headroom: the
    autoscaler ramps on queue pressure over seconds, which can HALVE the
    throughput of a seconds-long decode job (bench-measured 2x at 32
    cpus) — a pinned (N, N) pool skips the ramp."""
    conc = (
        tuple(concurrency)
        if isinstance(concurrency, (tuple, list))
        else (1, concurrency)
    )
    decoded = ds.map_batches(
        MediaDecoder,
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=conc,
        fn_constructor_kwargs={"codec": codec},
        # pickle-by-value package => ctor payload lives in the object
        # store; restarts can't recover a lost payload (ray#53727) — let
        # the pool replace dead actors instead
        max_restarts=0,
    )
    return decoded.map_batches(
        MediaFeaturizer,
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=conc,
        max_restarts=0,
    )


def _pnm_raster(width: int, height: int, seed: int, gray: bool) -> np.ndarray:
    rng = np.random.default_rng(seed)
    channels = 1 if gray else 3
    return rng.integers(0, 256, size=height * width * channels, dtype=np.uint8)


def make_ppm(
    width: int,
    height: int,
    seed: int = 0,
    gray: bool = False,
    comment: bytes = b"synthetic",
) -> bytes:
    """Deterministic REAL PPM (P6) / PGM (P5) bytes for tests/benches.
    ``comment`` varies the header metadata without touching the raster —
    the "same image, different file bytes" case (re-encoded / EXIF-stripped
    copies) that perceptual dedup exists to catch."""
    raster = _pnm_raster(width, height, seed, gray)
    magic = b"P5" if gray else b"P6"
    header = magic + b"\n# " + comment + b"\n%d %d\n255\n" % (width, height)
    return header + raster.tobytes()


def synthetic_ppm_table(n: int = 32, seed: int = 42) -> pa.Table:
    """Media rows whose payloads are REAL decodable PPM/PGM bytes, with
    planted malformed rows (truncated raster, bad magic)."""
    rows = []
    for i in range(n):
        w, h = 24 + (i % 5) * 8, 18 + (i % 3) * 10
        payload = make_ppm(w, h, seed=seed + i, gray=(i % 4 == 0))
        if i % 7 == 3:
            payload = payload[: len(payload) // 2]  # truncated raster
        elif i % 11 == 5:
            payload = b"JUNK" + payload[4:]  # bad magic
        rows.append(
            {
                "media_id": f"p-{i:04d}",
                "media_type": "image",
                "payload": payload,
                "meta_width": w,
                "meta_height": h,
                "meta_duration_s": None,
            }
        )
    return pa.Table.from_pylist(rows, schema=MEDIA_SCHEMA)


def make_jpeg(
    width: int,
    height: int,
    seed: int = 0,
    quality: int = 85,
    comment: "Optional[bytes]" = None,
    color: bool = False,
    progressive: bool = False,
) -> bytes:
    """Deterministic REAL JFIF bytes for tests/benches — a smooth seeded
    raster (random pixels quantize terribly; smooth fields are the
    realistic JPEG case).  ``comment`` varies the header without touching
    the entropy data: the decoded pixels are bit-identical across comment
    variants (the re-encoded-copy case perceptual dedup exists for).
    ``progressive=True`` re-encodes the SAME quantized coefficients as
    SOF2 multi-scan — different bytes, bit-identical decoded pixels (the
    cross-coding planted-dup case)."""
    rng = np.random.default_rng(seed)
    y, x = np.mgrid[0:height, 0:width]
    a, b, c = rng.uniform(4, 14, 3)
    base = 128 + 70 * np.sin(x / a) * np.cos(y / b) + 40 * np.sin((x + y) / c)
    img = np.clip(base, 0, 255).astype(np.uint8)
    if color:
        rgb = np.stack(
            [img, np.roll(img, 2, axis=0), np.roll(img, 3, axis=1)], axis=-1
        )
        return jpeg.encode_jpeg_color(
            rgb, quality=quality, comment=comment, progressive=progressive
        )
    return jpeg.encode_jpeg_gray(
        img, quality=quality, comment=comment, progressive=progressive
    )


def synthetic_jpeg_table(n: int = 32, seed: int = 42) -> pa.Table:
    """Media rows whose payloads are REAL decodable baseline-JFIF bytes
    (gray and 4:2:0 color), with planted malformed rows: truncated
    entropy data (tolerated, partial raster), missing EOI (tolerated),
    and non-JPEG junk (hard decode failure)."""
    rows = []
    for i in range(n):
        w, h = 24 + (i % 5) * 8, 18 + (i % 3) * 10
        if i % 11 == 5:
            payload = b"JUNK" + make_jpeg(w, h, seed=seed + i)[4:]  # bad magic
        else:
            payload = make_jpeg(w, h, seed=seed + i, color=(i % 4 == 0))
            if i % 7 == 3:
                # cut midway through the ENTROPY data (past the SOS header)
                # so the tolerant partial-decode path is what gets hit
                sos = payload.find(b"\xff\xda")
                body = sos + 2 + int.from_bytes(payload[sos + 2 : sos + 4], "big")
                payload = payload[: (body + len(payload)) // 2]
        rows.append(
            {
                "media_id": f"j-{i:04d}",
                "media_type": "image",
                "payload": payload,
                "meta_width": w,
                "meta_height": h,
                "meta_duration_s": None,
            }
        )
    return pa.Table.from_pylist(rows, schema=MEDIA_SCHEMA)


def make_wav(
    n_samples: int = 4000,
    seed: int = 0,
    rate: int = 16000,
    stereo: bool = False,
    comment: "Optional[bytes]" = None,
    codec: str = "pcm16",
) -> bytes:
    """Deterministic REAL WAV bytes: a seeded mixture of tones + noise
    (distinct seeds give distinct spectrograms).  ``codec`` selects the
    in-container encoding (pcm16 / mulaw / alaw / adpcm — `functions/
    wav.py`); ``comment`` varies a LIST/INFO metadata chunk without
    touching one sample."""
    from multimedia_indexing_ray.functions.wav import encode_wav

    pcm = _synth_pcm(n_samples, seed, rate, stereo)
    return encode_wav(pcm, rate=rate, extra_chunk=comment, codec=codec)


def _synth_pcm(
    n_samples: int, seed: int, rate: int = 16000, stereo: bool = False
) -> np.ndarray:
    """Deterministic int16 test waveform: seeded tone mixture + noise."""
    rng = np.random.default_rng(seed)
    t = np.arange(n_samples) / rate
    x = np.zeros(n_samples)
    for _ in range(3):
        f, a, ph = rng.uniform(100, 4000), rng.uniform(0.1, 0.3), rng.uniform(0, 6.28)
        x += a * np.sin(2 * np.pi * f * t + ph)
    x += rng.normal(0, 0.02, n_samples)
    pcm = np.clip(x * 32767 / max(np.abs(x).max(), 1e-9) * 0.8, -32768, 32767).astype(
        np.int16
    )
    if stereo:
        pcm = np.stack([pcm, np.roll(pcm, 7)], axis=1)
    return pcm


def synthetic_wav_table(n: int = 32, seed: int = 42) -> pa.Table:
    """Media rows whose payloads are REAL PCM WAV bytes (mono + stereo),
    with planted malformed rows: truncated data chunk (tolerated,
    partial waveform) and non-RIFF junk (hard decode failure)."""
    rows = []
    for i in range(n):
        ns = 3000 + (i % 5) * 800
        if i % 11 == 5:
            payload = b"JUNK" + make_wav(ns, seed=seed + i)[4:]  # bad magic
        else:
            payload = make_wav(ns, seed=seed + i, stereo=(i % 4 == 0))
            if i % 7 == 3:
                payload = payload[: len(payload) * 2 // 3]  # truncated data
        rows.append(
            {
                "media_id": f"w-{i:04d}",
                "media_type": "audio",
                "payload": payload,
                "meta_width": None,
                "meta_height": None,
                "meta_duration_s": ns / 16000.0,
            }
        )
    return pa.Table.from_pylist(rows, schema=MEDIA_SCHEMA)


@functools.lru_cache(maxsize=4)
def synthetic_dup_wav_table(n_base: int = 60, seed: int = 19) -> pa.Table:
    """Planted audio duplicate PAIRS: row n_base+i re-encodes the SAME
    samples with a different LIST/INFO metadata chunk — different file
    bytes, bit-identical decoded waveform, hence identical spectrogram
    dHash.  The container codec cycles by i % 4 (stereo PCM / G.711
    mu-law / IMA ADPCM / A-law) so all four in-container audio codecs
    feed the same dedup path — and for the non-ADPCM rows the DUP lives
    in a DIFFERENT javax.sound container (stereo PCM -> AIFF, mu-law /
    A-law -> AU): lossless cross-container pairs, like the image PGM ->
    PNG/GIF/BMP plantings.  Oracle derivable from ids:
    (w-i, w-(n_base+i))."""
    from multimedia_indexing_ray.functions.aiff import encode_aiff
    from multimedia_indexing_ray.functions.au import encode_au

    rows = []
    for dup in (False, True):
        for i in range(n_base):
            ns = 3000 + (i % 5) * 800
            codec = ["pcm16", "mulaw", "adpcm", "alaw"][i % 4]
            if dup and codec != "adpcm":
                # cross-container dup: same samples, same codec family,
                # different container (decode is bit-identical by the
                # shared LUT / division paths)
                pcm = _synth_pcm(ns, seed + i, stereo=(i % 4 == 0))
                if codec == "pcm16":
                    payload = encode_aiff(pcm, annotation=b"encoder=b copy")
                else:
                    payload = encode_au(
                        pcm, codec=codec, annotation=b"encoder=b copy"
                    )
            else:
                payload = make_wav(
                    ns,
                    seed=seed + i,
                    stereo=(i % 4 == 0),
                    comment=b"encoder=b copy" if dup else None,
                    codec=codec,
                )
            rows.append(
                {
                    "media_id": f"w-{(n_base + i) if dup else i:04d}",
                    "media_type": "audio",
                    "payload": payload,
                    "meta_width": None,
                    "meta_height": None,
                    "meta_duration_s": ns / 16000.0,
                }
            )
    return pa.Table.from_pylist(rows, schema=MEDIA_SCHEMA)


def make_mjpeg_avi(
    n_frames: int,
    width: int,
    height: int,
    seed: int = 0,
    fps: int = 10,
    comment: "Optional[bytes]" = None,
) -> bytes:
    """Deterministic REAL RIFF-AVI MJPEG bytes: each frame is a seeded
    smooth raster rolled VERTICALLY by 2px per frame index (synthetic
    motion), independently JPEG-encoded.  The roll is axis=0 on purpose:
    the dup-detection poster is a temporal MEAN over sampled frames, so
    motion along an axis box-filters that axis — a vertical roll keeps
    the horizontal structure (and seeded phases) that the 9x8 dHash
    fingerprints, so distinct seeds stay distinct after averaging.
    ``comment`` varies a LIST/INFO chunk without touching one frame
    byte — the re-encoded-copy case."""
    rng = np.random.default_rng(seed)
    y, x = np.mgrid[0:height, 0:width]
    a, b, c = rng.uniform(4, 14, 3)
    p, q = rng.uniform(0, 2 * np.pi, 2)
    base = (
        128
        + 70 * np.sin(x / a + p) * np.cos(y / b)
        + 40 * np.sin((x + y) / c + q)
    )
    base = np.clip(base, 0, 255).astype(np.uint8)
    frames = [
        jpeg.encode_jpeg_gray(np.roll(base, 2 * f, axis=0)) for f in range(n_frames)
    ]
    return avi.encode_mjpeg_avi(
        frames, fps=fps, width=width, height=height, extra_chunk=comment
    )


def make_dib_avi(
    n_frames: int,
    width: int,
    height: int,
    seed: int = 0,
    fps: int = 10,
    comment: "Optional[bytes]" = None,
) -> bytes:
    """Deterministic REAL RIFF-AVI with UNCOMPRESSED 8-bit DIB frames —
    the same seeded smooth raster + vertical-roll motion as
    `make_mjpeg_avi`, stored raw (handler 'DIB ').  Lossless, so a
    ``comment`` re-wrap is an EXACT planted dup (bit-identical poster),
    and the second in-container video codec gets fixture coverage."""
    rng = np.random.default_rng(seed)
    y, x = np.mgrid[0:height, 0:width]
    a, b, c = rng.uniform(4, 14, 3)
    p, q = rng.uniform(0, 2 * np.pi, 2)
    base = (
        128
        + 70 * np.sin(x / a + p) * np.cos(y / b)
        + 40 * np.sin((x + y) / c + q)
    )
    base = np.clip(base, 0, 255).astype(np.uint8)
    rasters = [np.roll(base, 2 * f, axis=0) for f in range(n_frames)]
    return avi.encode_dib_avi(rasters, fps=fps, extra_chunk=comment)


def synthetic_avi_table(
    n: int = 32, seed: int = 42, plant_malformed: bool = True
) -> pa.Table:
    """Media rows whose payloads are REAL RIFF-AVI MJPEG bytes, with
    planted malformed rows: truncated movi list (tolerated, partial
    frames) and non-RIFF junk (hard decode failure).  Frame counts are
    the deterministic ``6 + (i % 5) * 2`` schedule the frame-sample
    oracle reproduces in SQL (``plant_malformed=False`` keeps every
    container intact so parsed counts match that schedule exactly)."""
    rows = []
    for i in range(n):
        w, h = 24 + (i % 5) * 8, 18 + (i % 3) * 10
        nf = 6 + (i % 5) * 2
        if plant_malformed and i % 11 == 5:
            payload = b"JUNK" + make_mjpeg_avi(nf, w, h, seed=seed + i)[4:]
        else:
            payload = make_mjpeg_avi(nf, w, h, seed=seed + i)
            if plant_malformed and i % 7 == 3:
                payload = payload[: len(payload) * 2 // 3]  # truncated movi
        rows.append(
            {
                "media_id": f"v-{i:04d}",
                "media_type": "video",
                "payload": payload,
                "meta_width": w,
                "meta_height": h,
                "meta_duration_s": nf / 10.0,
            }
        )
    return pa.Table.from_pylist(rows, schema=MEDIA_SCHEMA)


@functools.lru_cache(maxsize=4)
def synthetic_dup_avi_table(n_base: int = 60, seed: int = 23) -> pa.Table:
    """Planted video duplicate PAIRS: row n_base+i re-wraps the SAME
    frames with an extra LIST/INFO metadata chunk — different file
    bytes, bit-identical decoded frames, hence identical poster dHash.
    i % 5 == 2 containers carry UNCOMPRESSED DIB frames (handler
    'DIB '); the rest are Motion-JPEG — both in-container codecs feed
    the same poster path.  Oracle derivable from ids:
    (v-i, v-(n_base+i))."""
    rows = []
    for dup in (False, True):
        for i in range(n_base):
            w, h = 24 + (i % 5) * 8, 18 + (i % 3) * 10
            nf = 6 + (i % 5) * 2
            mk = make_dib_avi if i % 5 == 2 else make_mjpeg_avi
            payload = mk(
                nf, w, h, seed=seed + i,
                comment=b"encoder=b copy" if dup else None,
            )
            rows.append(
                {
                    "media_id": f"v-{(n_base + i) if dup else i:04d}",
                    "media_type": "video",
                    "payload": payload,
                    "meta_width": w,
                    "meta_height": h,
                    "meta_duration_s": nf / 10.0,
                }
            )
    return pa.Table.from_pylist(rows, schema=MEDIA_SCHEMA)


class VideoFrameSampler:
    """Actor-pool container-parse + frame-sample stage: AVI payload ->
    one row per SAMPLED frame ``(media_id, n_frames, frame_idx)``.

    This is the frame-extraction front of a video pipeline isolated as
    its own operator: the schedule is `avi.sample_frame_indices`' pure
    integer arithmetic, so the stage has an exact SQL oracle — which
    verifies the CONTAINER PARSE end-to-end (n_frames comes from walking
    real RIFF chunks, not from the generator).  Undecodable payloads are
    dropped (the error side-channel is `decode_and_featurize`'s job)."""

    def __init__(self, k: int = 4):
        self.k = k

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, nfs, idxs = [], [], []
        for mid, payload in zip(
            batch["media_id"].to_pylist(), batch["payload"].to_pylist()
        ):
            try:
                frames, _fps, _w = avi.parse_mjpeg_avi(payload, tolerant=True)
            except avi.AviError:
                continue
            for fi in avi.sample_frame_indices(len(frames), self.k):
                ids.append(mid)
                nfs.append(len(frames))
                idxs.append(fi)
        return pa.table(
            {
                "media_id": pa.array(ids, pa.string()),
                "n_frames": pa.array(nfs, pa.int32()),
                "frame_idx": pa.array(idxs, pa.int32()),
            }
        )


def synthetic_media_table(n: int = 32, seed: int = 42) -> pa.Table:
    """Deterministic fake media rows for tests/benches (binary payloads)."""
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        payload = rng.bytes(256) if i % 7 != 3 else b""  # planted malformed rows
        rows.append(
            {
                "media_id": f"m-{i:04d}",
                "media_type": ["image", "audio", "video"][i % 3],
                "payload": payload,
                "meta_width": 640,
                "meta_height": 480,
                "meta_duration_s": None if i % 3 == 0 else 12.5,
            }
        )
    return pa.Table.from_pylist(rows, schema=MEDIA_SCHEMA)


# --------------------------------------------------------------------------
# perceptual-hash image dedup (the image analog of §2.7 near-dup text ops)
# --------------------------------------------------------------------------


def dhash64(img: np.ndarray) -> int:
    """64-bit difference hash (dHash): resize to 9x8 luma, take the sign
    of each horizontal gradient (public algorithm — Krawetz, "Kind of
    Like That", hackerfactor 2013).  Invariant to uniform re-encoding of
    identical rasters by construction: identical pixels -> identical
    floats -> identical bits."""
    g = resize_bilinear(img, 8, 9)
    bits = (g[:, 1:] > g[:, :-1]).ravel()
    packed = np.packbits(bits)  # 8 bytes, bit 0 of hash = first gradient
    return int.from_bytes(packed.tobytes(), "big", signed=True)


@functools.lru_cache(maxsize=4)
def synthetic_dup_ppm_table(n_base: int = 120, seed: int = 7) -> pa.Table:
    """Deterministic MIXED-FORMAT corpus with planted pixel-exact
    duplicate PAIRS: row i in [0, n_base) is a base image; row n_base+i
    re-encodes the SAME raster with different file bytes, same decoded
    pixels.  Planted variants (all CROSS-FORMAT dups are lossless, so
    the float32 decode is bit-identical by the shared division / luma
    paths):

    - i % 4 == 0 — grayscale PNM base; the dup re-encodes the SAME
      raster as PNG (i % 16 == 0 ADAM7-interlaced) or GIF (i % 16 == 4
      plain LZW, i % 16 == 12 interlaced); i % 16 == 8 — the base is a
      BILEVEL ({0,255}) PGM and the dup a WBMP of the same raster
      (both decode to the same {0.0, 1.0} float32 plane);
    - i % 4 == 2 — color PNM (P6) base; i % 8 == 2 the dup is a 24-bit
      BMP of the same RGB bytes (identical float32 BT.601 matmul),
      i % 8 == 6 a PNM comment variant;
    - odd i — JPEG COM variant (entropy data byte-identical;
      i % 8 == 1 — the dup is re-coded as PROGRESSIVE SOF2: same
      quantized coefficients, multi-scan bytes).

    Ground truth is derivable from the ids alone — the oracle for
    `media_phash_dups` is `(q-i, q-(n_base+i))` for every i."""
    from multimedia_indexing_ray.functions.bmp import encode_bmp
    from multimedia_indexing_ray.functions.gif import encode_gif
    from multimedia_indexing_ray.functions.png import encode_png
    from multimedia_indexing_ray.functions.wbmp import encode_wbmp

    rows = []
    for dup in (False, True):
        for i in range(n_base):
            w, h = 24 + (i % 5) * 8, 18 + (i % 3) * 10
            comment = b"copy variant=2 encoder=b" if dup else b"synthetic"
            if i % 2 == 1:
                payload = make_jpeg(
                    w, h, seed=seed + i, comment=comment, color=(i % 4 == 3),
                    progressive=(dup and i % 8 == 1),
                )
            elif i % 16 == 8:
                # bilevel pair: a {0,255} PGM base, WBMP dup — the only
                # cross-format planting a 1-bit container can join
                bits = _pnm_raster(w, h, seed + i, gray=True).reshape(h, w) > 127
                if dup:
                    payload = encode_wbmp(bits)
                else:
                    raster = bits.astype(np.uint8) * 255
                    payload = (
                        b"P5\n# " + comment + b"\n%d %d\n255\n" % (w, h)
                        + raster.tobytes()
                    )
            elif i % 4 == 0 and dup:
                # same raster as the PGM base, saved as PNG or GIF
                raster = _pnm_raster(w, h, seed + i, gray=True).reshape(h, w)
                if i % 8 == 0:
                    payload = encode_png(
                        raster, comment=comment, interlace=(i % 16 == 0)
                    )
                else:
                    payload = encode_gif(
                        raster, comment=comment, interlace=(i % 16 == 12)
                    )
            elif i % 8 == 2 and dup:
                # same RGB bytes as the P6 base, saved as 24-bit BMP
                raster = _pnm_raster(w, h, seed + i, gray=False).reshape(h, w, 3)
                payload = encode_bmp(raster, gap=comment)
            else:
                payload = make_ppm(
                    w, h, seed=seed + i, gray=(i % 4 == 0), comment=comment
                )
            rows.append(
                {
                    "media_id": f"q-{(n_base + i) if dup else i:04d}",
                    "media_type": "image",
                    "payload": payload,
                    "meta_width": w,
                    "meta_height": h,
                    "meta_duration_s": None,
                }
            )
    return pa.Table.from_pylist(rows, schema=MEDIA_SCHEMA)


class MediaPHasher:
    """Actor-pool stage: PNM or JPEG payload -> (media_id, phash int64).

    Decode is inherently per-payload (variable-size rasters), so the loop
    is per image — the hash itself is 72 resized pixels, trivial next to
    the decode.  Undecodable payloads are dropped here (they can't match
    anything); the decode-error side channel is `decode_and_featurize`'s
    job."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch["media_id"].to_pylist()
        out_ids, hashes = [], []
        for mid, payload in zip(ids, batch["payload"].to_pylist()):
            try:
                if jpeg.is_jpeg(payload):
                    img, _ = jpeg.decode_jpeg_gray(payload, tolerant=True)
                elif png.is_png(payload):
                    img, _ = png.decode_png_gray(payload, tolerant=True)
                elif bmp.is_bmp(payload):
                    img, _ = bmp.decode_bmp_gray(payload, tolerant=True)
                elif gif.is_gif(payload):
                    img, _ = gif.decode_gif_gray(payload, tolerant=True)
                elif wav.is_wav(payload):
                    x, _rate, _w = wav.decode_wav(payload, tolerant=True)
                    img = wav.spectrogram_gray(x)  # audio fingerprint raster
                elif au.is_au(payload):
                    x, _rate, _w = au.decode_au(payload, tolerant=True)
                    img = wav.spectrogram_gray(x)
                elif aiff.is_aiff(payload):
                    x, _rate, _w = aiff.decode_aiff(payload, tolerant=True)
                    img = wav.spectrogram_gray(x)
                elif avi.is_avi(payload):
                    img, _w = decode_avi_poster(payload)  # video poster raster
                elif payload[:2] in (b"P5", b"P6"):
                    img = decode_ppm_gray(payload)
                elif wbmp.is_wbmp(payload):
                    img, _ = wbmp.decode_wbmp_gray(payload, tolerant=True)
                else:
                    img = decode_ppm_gray(payload)  # raises typed _PpmError
            except (_PpmError, jpeg.JpegError, png.PngError, bmp.BmpError,
                    gif.GifError, wav.WavError, au.AuError, aiff.AiffError,
                    avi.AviError, wbmp.WbmpError):
                continue
            out_ids.append(mid)
            hashes.append(dhash64(img))
        return pa.table(
            {
                "media_id": pa.array(out_ids, pa.string()),
                "phash": pa.array(hashes, pa.int64()),
            }
        )


def media_phash_pairs(
    ds: "ray.data.Dataset",
    concurrency: int = 4,
    bucket_cap: int = 64,
) -> "ray.data.Dataset":
    """Image near-dup pairs by EXACT perceptual-hash match: actor-pool
    decode+hash (payload bytes never cross an exchange — only 16-byte
    (id, hash) rows do), one keyed shuffle on phash, in-bucket sorted
    pair emission.  Buckets over ``bucket_cap`` (mass-duplicated logos
    at web scale) are dropped with a logged count, same policy as
    `dedup.minhash_lsh_pairs`."""
    from multimedia_indexing_ray.stages.partition import map_partitions_by_key

    hashes = ds.map_batches(
        MediaPHasher, batch_format="pyarrow", batch_size=64,
        concurrency=(1, concurrency),
        max_restarts=0,  # ray#53727, see decode_and_featurize
    )

    _empty = pa.table(
        {
            "media_id_a": pa.array([], pa.string()),
            "media_id_b": pa.array([], pa.string()),
        }
    )

    def _pairs(t: pa.Table) -> pa.Table:
        if t.num_rows < 2:
            return _empty
        ph = t["phash"].to_numpy()
        ids = np.asarray(t["media_id"].to_numpy(zero_copy_only=False), dtype=object)
        order = np.lexsort((ids, ph))
        ph, ids = ph[order], ids[order]
        starts = np.flatnonzero(np.r_[True, ph[1:] != ph[:-1]])
        counts = np.diff(np.r_[starts, len(ph)])
        a_list, b_list, dropped = [], [], 0
        for s, m in zip(starts, counts):
            if m < 2:
                continue
            if m > bucket_cap:
                dropped += 1
                continue
            grp = ids[s : s + m]
            ia, ib = np.triu_indices(m, k=1)
            a_list.append(grp[ia])
            b_list.append(grp[ib])
        if dropped:
            logger.warning("media_phash_pairs: dropped %d oversize buckets (> %d)",
                           dropped, bucket_cap)
        if not a_list:
            return _empty
        return pa.table(
            {
                "media_id_a": pa.array(np.concatenate(a_list), pa.string()),
                "media_id_b": pa.array(np.concatenate(b_list), pa.string()),
            }
        )

    return map_partitions_by_key(hashes, "phash", _pairs)
