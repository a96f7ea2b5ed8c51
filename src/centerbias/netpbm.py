"""Binary netpbm (P5/P6, maxval <= 255) reading and writing."""

from __future__ import annotations

import numpy as np

__all__ = ["read_pnm", "read_pnm_gray", "write_pgm", "to_u8"]


def _tokens(data: bytes):
    """Header tokens, skipping whitespace and # comments."""
    i = 0
    while True:
        while i < len(data) and data[i:i + 1].isspace():
            i += 1
        if i < len(data) and data[i:i + 1] == b"#":
            while i < len(data) and data[i] != 0x0A:
                i += 1
            continue
        start = i
        while i < len(data) and not data[i:i + 1].isspace():
            i += 1
        if start == i:
            raise ValueError("truncated netpbm header")
        yield data[start:i], i


def read_pnm(path) -> np.ndarray:
    """Read a binary PGM/PPM; returns uint8 (h, w) or (h, w, 3)."""
    return _read(path)[0]


def _read(path) -> tuple[np.ndarray, int]:
    """read_pnm's array and the header's maxval."""
    with open(path, "rb") as f:
        data = f.read()
    toks = _tokens(data)
    magic, _ = next(toks)
    if magic == b"P5":
        channels = 1
    elif magic == b"P6":
        channels = 3
    else:
        raise ValueError(f"unsupported netpbm magic {magic!r}")
    width, _ = next(toks)
    height, _ = next(toks)
    maxval, end = next(toks)
    width, height, maxval = int(width), int(height), int(maxval)
    if not 0 < maxval <= 255:
        raise ValueError(f"unsupported maxval {maxval}")
    payload = data[end + 1:]
    need = width * height * channels
    if len(payload) < need:
        raise ValueError("netpbm payload shorter than declared dims")
    img = np.frombuffer(payload[:need], dtype=np.uint8)
    shape = (height, width) if channels == 1 else (height, width, 3)
    return img.reshape(shape), maxval


def read_pnm_gray(path) -> np.ndarray:
    """Read a PGM/PPM as float grayscale in [0, 1], maxval mapping to 1
    (PPM: channel mean)."""
    img, maxval = _read(path)
    img = img.astype(np.float64) / maxval
    if img.ndim == 3:
        img = img.mean(axis=2)
    return img


def to_u8(grid: np.ndarray) -> np.ndarray:
    """Linear scale so the max maps to 255; all-zero stays all-zero."""
    top = float(grid.max())
    if top <= 0:
        return np.zeros(grid.shape, dtype=np.uint8)
    return np.round(grid.astype(np.float64) / top * 255.0).astype(np.uint8)


def write_pgm(path, img: np.ndarray) -> None:
    """Write uint8 data as binary PGM (maxval 255)."""
    if img.dtype != np.uint8 or img.ndim != 2:
        raise ValueError("write_pgm expects a 2-d uint8 array")
    h, w = img.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode())
        f.write(img.tobytes())
