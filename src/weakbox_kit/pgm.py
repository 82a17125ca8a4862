"""Bit-exact binary PGM (P5, maxval 255) reading and writing.

Grids are float arrays in [0, 1]; on disk a pixel is round(value * 255).
Masks use 0 = background, 255 = foreground. The writer always emits the
canonical header ``P5\\n<w> <h>\\n255\\n``.
"""

import numpy as np


class PgmError(ValueError):
    """Base class for PGM I/O failures."""


class PgmFormatError(PgmError):
    """Header is malformed or the file is not binary P5."""


class PgmMaxvalError(PgmError):
    """Maxval is not 255."""


class PgmTruncatedError(PgmError):
    """Payload is shorter than width * height."""


def write_pgm(path, grid: np.ndarray) -> None:
    arr = np.asarray(grid, dtype=np.float64)
    if arr.ndim != 2:
        raise PgmFormatError(f"grid must be 2-d, got shape {arr.shape}")
    if arr.size == 0:
        raise PgmFormatError(f"grid must not be empty, got shape {arr.shape}")
    # a NaN propagates through min(), so the first test also rejects it
    if not (arr.min() >= 0.0 and arr.max() <= 1.0):
        raise PgmFormatError("grid values must be finite and lie in [0, 1]")
    h, w = arr.shape
    payload = np.rint(arr * 255.0).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(payload.tobytes())


def _read_header_tokens(blob: bytes, start: int, count: int):
    """Read `count` whitespace-separated ASCII integer tokens, skipping
    '#'-to-end-of-line comments. Returns (values, offset_after_last_token)."""
    vals = []
    i = start
    n = len(blob)
    while len(vals) < count:
        while i < n and blob[i : i + 1].isspace():
            i += 1
        if i < n and blob[i] == ord("#"):
            while i < n and blob[i] != ord("\n"):
                i += 1
            continue
        j = i
        while j < n and not blob[j : j + 1].isspace():
            j += 1
        token = blob[i:j]
        # more than 9 digits is no plausible size, and past 4300 int() itself refuses
        if not token or not token.isdigit() or len(token) > 9:
            raise PgmFormatError(f"malformed header token: {token[:16]!r}")
        vals.append(int(token))
        i = j
    return vals, i


def read_pgm(path) -> np.ndarray:
    """The grid stored at `path`; a format error names the file and keeps its class."""
    with open(path, "rb") as f:
        blob = f.read()
    try:
        return _decode(blob)
    except PgmError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def _decode(blob: bytes) -> np.ndarray:
    if blob[:2] != b"P5":
        raise PgmFormatError(f"not a binary PGM (P5), magic is {blob[:2]!r}")
    (w, h, maxval), i = _read_header_tokens(blob, 2, 3)
    if maxval != 255:
        raise PgmMaxvalError(f"unsupported maxval {maxval}, only 255 is accepted")
    if w < 1 or h < 1:
        raise PgmFormatError(f"bad dimensions {w}x{h}")
    # exactly one whitespace byte separates the header from the payload
    if i >= len(blob) or not blob[i : i + 1].isspace():
        raise PgmFormatError("missing whitespace after maxval")
    i += 1
    payload = blob[i:]
    if len(payload) < w * h:
        raise PgmTruncatedError(f"payload has {len(payload)} bytes, expected {w * h}")
    if len(payload) > w * h:
        raise PgmFormatError(f"trailing data: {len(payload) - w * h} extra bytes")
    pixels = np.frombuffer(payload, dtype=np.uint8).reshape(h, w)
    return (pixels.astype(np.float32) / 255.0).astype(np.float32)
