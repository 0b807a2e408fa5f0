"""Reading and writing PGM (P2/P5) and PPM (P3/P6) images.

Values are normalized to 8 bit on load. Parse errors carry the byte offset
where the file stopped making sense.
"""

from __future__ import annotations

import numpy as np

__all__ = ["NetpbmError", "load_image", "save_pgm", "save_ppm"]


class NetpbmError(ValueError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def load_image(path: str) -> np.ndarray:
    """Raster as uint8 array of shape (height, width, channels)."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 2:
        raise NetpbmError("file too short for a magic number", len(data))
    magic = data[:2].decode("ascii", errors="replace")
    if magic not in ("P2", "P3", "P5", "P6"):
        raise NetpbmError(f"unsupported magic number {magic!r}", 0)
    channels = 3 if magic in ("P3", "P6") else 1

    (width, height, maxval), pos = _read_ints(data, 2, 3)
    if width < 1 or height < 1:
        raise NetpbmError(f"bad dimensions {width}x{height}", 2)
    if not 0 < maxval < 65536:
        raise NetpbmError(f"bad maximum value {maxval}", 2)

    count = width * height * channels
    if magic in ("P2", "P3"):
        arr = np.array(_read_ints(data, pos, count, maxval)[0], dtype=np.uint32)
    else:
        if pos >= len(data) or not data[pos : pos + 1].isspace():
            raise NetpbmError("missing separator before binary payload", pos)
        pos += 1
        width_bytes = 2 if maxval > 255 else 1
        need = count * width_bytes
        payload = data[pos : pos + need]
        if len(payload) < need:
            raise NetpbmError(f"truncated payload, {len(payload)}/{need} bytes", pos + len(payload))
        dtype = ">u2" if width_bytes == 2 else np.uint8
        arr = np.frombuffer(payload, dtype=dtype).astype(np.uint32)
        if (arr > maxval).any():
            raise NetpbmError(f"sample exceeds maximum value {maxval}", pos)
    if maxval != 255:
        arr = (arr * 255 + maxval // 2) // maxval
    return arr.astype(np.uint8).reshape(height, width, channels)


def _read_ints(data: bytes, pos: int, count: int, maxval: int | None = None) -> tuple[list[int], int]:
    """count integers from pos on, separated by whitespace and # comments,
    and the offset after the last one. Without maxval they are header
    fields; with it they are samples, each within 0..maxval."""
    values: list[int] = []
    while len(values) < count:
        while pos < len(data):
            c = data[pos : pos + 1]
            if c == b"#":
                while pos < len(data) and data[pos : pos + 1] not in (b"\n", b"\r"):
                    pos += 1
            elif c.isspace():
                pos += 1
            else:
                break
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        token = data[start:pos]
        if not token:
            what = "header" if maxval is None else f"payload, {len(values)}/{count} samples"
            raise NetpbmError(f"truncated {what}", start)
        try:
            value = int(token)
        except ValueError:
            what = "header token" if maxval is None else "sample"
            raise NetpbmError(f"bad {what} {token!r}", start) from None
        if maxval is not None and not 0 <= value <= maxval:
            raise NetpbmError(f"sample {value} exceeds the range 0..{maxval}", start)
        values.append(value)
    return values, pos


def save_pgm(path: str, gray: np.ndarray, maxval: int = 255) -> None:
    """Binary PGM; raises ValueError for a sample outside 0..maxval or a
    maxval outside 1..65535, which the format cannot store."""
    data = _pgm_bytes(gray, maxval)
    with open(path, "wb") as fh:
        fh.write(data)


def _pgm_bytes(gray: np.ndarray, maxval: int) -> bytes:
    """The binary PGM file of gray, as save_pgm writes it, with its checks."""
    if not 1 <= maxval <= 65535:
        raise ValueError(f"maximum value {maxval} outside the range 1..65535")
    arr = np.asarray(gray)
    if arr.ndim == 3:
        arr = arr[:, :, 0]
    if arr.size and not (arr.min() >= 0 and arr.max() <= maxval):
        raise ValueError(f"samples {arr.min()}..{arr.max()} exceed the range 0..{maxval}")
    h, w = arr.shape
    if maxval > 255:
        payload = arr.astype(">u2").tobytes()
    else:
        payload = arr.astype(np.uint8).tobytes()
    return f"P5\n{w} {h}\n{maxval}\n".encode("ascii") + payload


def save_ppm(path: str, rgb: np.ndarray) -> None:
    """Binary PPM; raises ValueError for a sample outside 0..255."""
    arr = np.asarray(rgb)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise ValueError("expected an array of shape (height, width, 3)")
    if arr.size and not (arr.min() >= 0 and arr.max() <= 255):
        raise ValueError(f"samples {arr.min()}..{arr.max()} exceed the range 0..255")
    h, w, _ = arr.shape
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(arr.astype(np.uint8).tobytes())
