"""Binary netpbm readers and writers: P6 color images and P5 grayscale masks.

Only 8-bit files (maxval 255) are accepted. Pixel values map to floats in
[0, 1]; write-then-read is the identity on 8-bit data. Masks use the
convention white (255) = valid pixel, black (0) = missing pixel, and any
intermediate gray is rejected.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "NetpbmError",
    "read_image",
    "write_image",
    "read_gray",
    "write_gray",
    "read_mask",
    "write_mask",
]


class NetpbmError(ValueError):
    """Malformed or truncated netpbm file; messages carry the byte offset."""


def _parse_header(data: bytes, magic: bytes, path: str) -> tuple[int, int, int]:
    if data[:2] != magic:
        raise NetpbmError(f"{path}: bad magic {data[:2]!r} at byte 0, expected {magic!r}")
    pos = 2
    fields: list[int] = []
    while len(fields) < 3:
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos:pos + 1] == b"#":
            while pos < len(data) and data[pos:pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and data[pos:pos + 1].isdigit():
            pos += 1
        if pos == start:
            raise NetpbmError(f"{path}: expected integer in header at byte {start}")
        fields.append(int(data[start:pos]))
    if pos >= len(data) or not data[pos:pos + 1].isspace():
        raise NetpbmError(f"{path}: missing whitespace after header at byte {pos}")
    pos += 1
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise NetpbmError(f"{path}: bad dimensions {width}x{height}")
    if maxval != 255:
        raise NetpbmError(f"{path}: maxval {maxval} unsupported, only 255 accepted")
    return width, height, pos


def _read_pixels(path: str, magic: bytes, channels: int) -> np.ndarray:
    with open(path, "rb") as fh:
        data = fh.read()
    width, height, offset = _parse_header(data, magic, path)
    need = width * height * channels
    body = data[offset:offset + need]
    if len(body) < need:
        raise NetpbmError(f"{path}: truncated pixel data at byte {offset + len(body)}, "
                          f"expected {offset + need} total bytes")
    raw = np.frombuffer(body, dtype=np.uint8).astype(np.float64) / 255.0
    return raw.reshape(height, width, channels).transpose(2, 0, 1).copy()


def read_image(path: str) -> np.ndarray:
    """P6 color image as a 3xHxW float array in [0, 1]."""
    return _read_pixels(path, b"P6", 3)


def read_gray(path: str) -> np.ndarray:
    """P5 grayscale image as a 1xHxW float array in [0, 1]."""
    return _read_pixels(path, b"P5", 1)


def _to_bytes(im: np.ndarray) -> bytes:
    clipped = np.clip(np.asarray(im, dtype=np.float64), 0.0, 1.0)
    quantized = np.rint(clipped * 255.0).astype(np.uint8)
    return quantized.transpose(1, 2, 0).tobytes()


def _write_pixels(path: str, im: np.ndarray, magic: bytes, channels: int) -> None:
    im = np.asarray(im)
    if im.ndim != 3 or im.shape[0] != channels:
        raise ValueError(f"expected {channels}xHxW image, got shape {im.shape}")
    with open(path, "wb") as fh:
        fh.write(magic + f"\n{im.shape[2]} {im.shape[1]}\n255\n".encode("ascii"))
        fh.write(_to_bytes(im))


def write_image(path: str, im: np.ndarray) -> None:
    """Write a 3xHxW float array in [0, 1] as an 8-bit P6 file."""
    _write_pixels(path, im, b"P6", 3)


def write_gray(path: str, im: np.ndarray) -> None:
    """Write a 1xHxW float array in [0, 1] as an 8-bit P5 file."""
    _write_pixels(path, im, b"P5", 1)


def read_mask(path: str) -> np.ndarray:
    """P5 mask with 255 = valid (1.0) and 0 = missing (0.0); grays are rejected."""
    gray = read_gray(path)
    valid = gray == 1.0
    missing = gray == 0.0
    if not np.all(valid | missing):
        bad = int(np.count_nonzero(~(valid | missing)))
        raise NetpbmError(f"{path}: mask contains {bad} pixels that are neither "
                          "0 nor 255")
    return valid.astype(np.float64)


def write_mask(path: str, mask: np.ndarray) -> None:
    """Write a 1xHxW binary mask (1 = valid) as a P5 file of 0/255 values."""
    mask = np.asarray(mask, dtype=np.float64)
    if not np.all((mask == 0.0) | (mask == 1.0)):
        raise ValueError("mask entries must be exactly 0 or 1")
    write_gray(path, mask)
