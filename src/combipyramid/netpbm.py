"""Reading and writing PGM (P2/P5) and PPM (P3/P6) images.

After the magic number a file is tokens separated by whitespace (the six
bytes of bytes.isspace) and comments, a # to the end of its line. The
header is width, height and maxval; a P2/P3 payload is more tokens, and a
P5/P6 payload starts after one whitespace byte. A token is an integer only
as ASCII digits after an optional -, so +7 and 2_55 are refused. Values are
normalized to 8 bit on load. Parse errors carry the byte offset where the
file stopped making sense.
"""

from __future__ import annotations

import re

import numpy as np

__all__ = ["NetpbmError", "load_image", "save_pgm", "save_ppm"]

_TOKEN = re.compile(rb"#[^\r\n]*|\S+")  # a comment to the end of its line, or a token


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
        dtype = np.dtype(">u2" if maxval > 255 else np.uint8)
        need = count * dtype.itemsize
        payload = data[pos : pos + need]
        if len(payload) < need:
            raise NetpbmError(f"truncated payload, {len(payload)}/{need} bytes", pos + len(payload))
        arr = np.frombuffer(payload, dtype=dtype).astype(np.uint32)
        if (over := arr > maxval).any():
            raise NetpbmError(f"sample exceeds maximum value {maxval}", pos + int(over.argmax()) * dtype.itemsize)
    if maxval != 255:
        arr = (arr * 255 + maxval // 2) // maxval
    return arr.astype(np.uint8).reshape(height, width, channels)


def _read_ints(data: bytes, pos: int, count: int, maxval: int | None = None) -> tuple[list[int], int]:
    """count integers from pos on, and the offset after the last one.
    Without maxval they are header fields; with it they are samples, each
    within 0..maxval."""
    values: list[int] = []
    for m in _TOKEN.finditer(data, pos):
        token = m[0]
        if token[0] == 35:  # b"#"
            continue
        try:
            if not token.removeprefix(b"-").isdigit():
                raise ValueError
            value = int(token)  # refuses a run of more digits than int() reads
        except ValueError:
            what = "header token" if maxval is None else "sample"
            raise NetpbmError(f"bad {what} {token!r}", m.start()) from None
        if maxval is not None and not 0 <= value <= maxval:
            raise NetpbmError(f"sample {value} exceeds the range 0..{maxval}", m.start())
        values.append(value)
        if len(values) == count:
            return values, m.end()
    what = "header" if maxval is None else f"payload, {len(values)}/{count} samples"
    raise NetpbmError(f"truncated {what}", len(data))


def save_pgm(path: str, gray: np.ndarray, maxval: int = 255) -> None:
    """Binary PGM; raises ValueError for a sample outside 0..maxval or a
    maxval that is not an integer in 1..65535, which the format cannot store."""
    data = _pgm_bytes(gray, maxval)
    with open(path, "wb") as fh:
        fh.write(data)


def _pgm_bytes(gray: np.ndarray, maxval: int) -> bytes:
    """The binary PGM file of gray, as save_pgm writes it, with its checks."""
    if isinstance(maxval, bool) or not isinstance(maxval, (int, np.integer)):
        raise ValueError(f"maximum value must be an integer, got {maxval!r}")
    if not 1 <= maxval <= 65535:
        raise ValueError(f"maximum value {maxval} outside the range 1..65535")
    arr = np.asarray(gray)
    arr = arr[:, :, 0] if arr.ndim == 3 else arr
    if arr.ndim != 2:
        raise ValueError("expected an array of shape (height, width) or (height, width, channels)")
    return _encode(arr, maxval)


def save_ppm(path: str, rgb: np.ndarray) -> None:
    """Binary PPM; raises ValueError for a sample outside 0..255."""
    arr = np.asarray(rgb)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise ValueError("expected an array of shape (height, width, 3)")
    data = _encode(arr, 255)
    with open(path, "wb") as fh:
        fh.write(data)


def _encode(arr: np.ndarray, maxval: int) -> bytes:
    """The binary file of a (height, width) array as P5, or of a (height,
    width, 3) one as P6; raises ValueError for a sample outside 0..maxval."""
    if arr.size and not (arr.min() >= 0 and arr.max() <= maxval):
        raise ValueError(f"samples {arr.min()}..{arr.max()} exceed the range 0..{maxval}")
    h, w = arr.shape[:2]
    header = f"{'P5' if arr.ndim == 2 else 'P6'}\n{w} {h}\n{maxval}\n".encode("ascii")
    return header + arr.astype(">u2" if maxval > 255 else np.uint8).tobytes()
