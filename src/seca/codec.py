"""One checked binary codec for every artifact: named arrays in sha256 frames.

An artifact is a header (its magic, then a u32 version), one frame per
named array, and an end frame with an empty name and an empty body. A
frame is a u16 name length, the name, a u64 body size and the body: the
32-byte sha256 of the name and the array (T.checksum), a u8 dtype code, a
u8 ndim, ndim u64 extents, and the little-endian data. Checkpoints and
feature banks differ only in their magic, version and frames.
"""

from __future__ import annotations

import json
import math
import os
import struct
import threading

import numpy as np

from . import tensor as T
from .errors import DataFormatError

_DTYPES = ("<f8", "<f4", "<i8", "|u1")
_END = struct.pack("<HQ", 0, 0)


def _digest(name: bytes, arr: np.ndarray) -> bytes:
    return bytes.fromhex(T.checksum([np.frombuffer(name, np.uint8), arr]))


def encode(arrays: dict[str, np.ndarray], magic: bytes, version: int) -> bytes:
    """The artifact bytes of named arrays, framed in dict order."""
    out = [magic, struct.pack("<I", version)]
    for key, arr in arrays.items():
        name = key.encode()
        dt = np.asarray(arr).dtype.newbyteorder("<")
        if not name or dt.str not in _DTYPES:
            raise ValueError(f"cannot frame array {key!r} of dtype {dt}")
        arr = np.asarray(arr, dtype=dt, order="C")
        body = [_digest(name, arr),
                struct.pack(f"<BB{arr.ndim}Q", _DTYPES.index(dt.str), arr.ndim,
                            *arr.shape),
                arr.tobytes()]
        out += [struct.pack("<H", len(name)), name,
                struct.pack("<Q", sum(map(len, body))), *body]
    out.append(_END)
    return b"".join(out)


def _frame_array(name: bytes, body: bytes) -> np.ndarray:
    code, ndim = body[32], body[33]
    shape = struct.unpack_from(f"<{ndim}Q", body, 34)
    dt = np.dtype(_DTYPES[code])
    start = 34 + 8 * ndim
    if len(body) != start + dt.itemsize * math.prod(shape):
        raise ValueError("frame size disagrees with its shape")
    arr = np.frombuffer(body, dt, offset=start).reshape(shape).copy()
    if _digest(name, arr) != body[:32]:
        raise ValueError("digest mismatch")
    return arr


class Frames(dict):
    """Decoded arrays by frame name, for the artifact named ``what``."""

    def __init__(self, what: str):
        super().__init__()
        self.what = what

    def take(self, name: str, dtype, *shape) -> np.ndarray:
        """Pop one array, requiring its dtype and shape (None: any)."""
        if name not in self:
            raise DataFormatError("corrupt", f"{self.what} lacks {name}")
        arr = self.pop(name)
        if arr.dtype != dtype or arr.ndim != len(shape) or \
                any(s not in (None, a) for s, a in zip(shape, arr.shape)):
            raise DataFormatError("corrupt", f"{self.what} {name} is "
                                  f"{arr.dtype} {arr.shape}, expected "
                                  f"{np.dtype(dtype)} {shape}")
        return arr


def decode(blob: bytes, magic: bytes, version: int, what: str) -> Frames:
    """Inverse of encode; any damaged byte raises DataFormatError."""
    head = len(magic) + 4
    if len(blob) < head or blob[:len(magic)] != magic:
        raise DataFormatError("bad-magic", f"not a SECA {what}")
    got = struct.unpack_from("<I", blob, len(magic))[0]
    if got != version:
        raise DataFormatError("bad-version", f"{what} version {got} "
                              f"unsupported; this build reads version "
                              f"{version}")
    out = Frames(what)
    off = head
    while True:
        try:
            nlen = struct.unpack_from("<H", blob, off)[0]
            size = struct.unpack_from("<Q", blob, off + 2 + nlen)[0]
        except struct.error:  # the frame head runs past the end
            raise DataFormatError("truncated", f"{what} ends mid-frame") \
                from None
        name = blob[off + 2:off + 2 + nlen]
        off += 10 + nlen
        if off + size > len(blob):
            raise DataFormatError("truncated", f"{what} ends mid-frame")
        body = blob[off:off + size]
        off += size
        if not name:
            if size or off != len(blob):
                raise DataFormatError("corrupt", f"{what}: malformed end frame")
            return out
        try:
            key = name.decode()
            if key in out:
                raise ValueError("duplicate frame")
            out[key] = _frame_array(name, body)
        except (ValueError, IndexError, struct.error) as e:
            raise DataFormatError("corrupt",
                                  f"{what} frame {name!r}: {e}") from e


def json_array(doc) -> np.ndarray:
    """A JSON document as a u8 frame, keys sorted."""
    return np.frombuffer(json.dumps(doc, sort_keys=True).encode(), np.uint8)


def write_atomic(path, data: bytes) -> None:
    """Write a sibling file unique to this process and thread, rename it."""
    tmp = f"{path}.{os.getpid()}-{threading.get_ident()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
