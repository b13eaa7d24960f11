"""Binary PGM (P5) image input and output.

Only the binary grayscale flavor is handled: ASCII header (magic, width,
height, maxval, with '#' comments allowed), one whitespace byte, then raw
samples, one byte each up to maxval 255 and two big-endian bytes above,
none of them above maxval.  Parse failures report the byte offset at
which the file went wrong.
"""

from __future__ import annotations

import numpy as np

__all__ = ["PgmParseError", "pgm_read", "pgm_write"]

_WHITESPACE = b" \t\n\r\x0b\x0c"


class PgmParseError(ValueError):
    """Malformed PGM data; ``offset`` is the guilty byte position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def _skip_separators(data: bytes, pos: int) -> int:
    while pos < len(data):
        byte = data[pos : pos + 1]
        if byte in (b"#",):
            while pos < len(data) and data[pos : pos + 1] not in (b"\n", b"\r"):
                pos += 1
        elif byte in _WHITESPACE:
            pos += 1
        else:
            break
    return pos


def _read_int(data: bytes, pos: int, what: str) -> tuple[int, int]:
    pos = _skip_separators(data, pos)
    start = pos
    while pos < len(data) and data[pos : pos + 1].isdigit():
        pos += 1
    if pos == start:
        raise PgmParseError(f"expected an integer for {what}", start)
    return int(data[start:pos]), pos


def pgm_read(path) -> np.ndarray:
    """Read a binary PGM file into a float array of shape (height, width)."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:2] != b"P5":
        magic = data[:2].decode("ascii", errors="replace")
        raise PgmParseError(f"unsupported magic {magic!r}, expected 'P5'", 0)
    pos = 2
    width, pos = _read_int(data, pos, "width")
    height, pos = _read_int(data, pos, "height")
    maxval, pos = _read_int(data, pos, "maxval")
    if width < 1 or height < 1:
        raise PgmParseError(f"bad dimensions {width}x{height}", pos)
    if not 0 < maxval < 65536:
        raise PgmParseError(f"maxval {maxval} outside [1, 65535]", pos)
    if pos >= len(data) or data[pos : pos + 1] not in _WHITESPACE:
        raise PgmParseError("expected a whitespace byte after maxval", pos)
    pos += 1
    bytes_per = 2 if maxval > 255 else 1
    need = width * height * bytes_per
    if len(data) - pos < need:
        raise PgmParseError(
            f"truncated payload: expected {need} bytes, found {len(data) - pos}",
            len(data),
        )
    dtype = ">u2" if bytes_per == 2 else np.uint8
    pixels = np.frombuffer(data[pos : pos + need], dtype=dtype)
    over = np.flatnonzero(pixels > maxval)
    if over.size:
        first = int(over[0])
        raise PgmParseError(
            f"sample {pixels[first]} above maxval {maxval}", pos + first * bytes_per
        )
    return pixels.reshape(height, width).astype(float)


def pgm_write(image: np.ndarray, path, maxval: int = 255) -> None:
    """Write a float image as binary PGM, clamping to [0, maxval] and rounding."""
    if maxval not in (255, 65535):
        raise ValueError(f"maxval must be 255 or 65535, got {maxval}")
    arr = np.asarray(image, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D image, got shape {arr.shape}")
    height, width = arr.shape
    quantized = np.rint(np.clip(arr, 0.0, float(maxval)))
    dtype = ">u2" if maxval > 255 else np.uint8
    payload = quantized.astype(dtype).tobytes()
    header = f"P5\n{width} {height}\n{maxval}\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header + payload)
