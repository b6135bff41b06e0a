"""The one on-disk container for checkpoints and exemplar indexes.

Layout (little-endian):
    magic   caller-chosen bytes (b"DLCKPT5" for checkpoints, b"DMSR3\\0" for indexes)
    u32     header length H
    H bytes UTF-8 JSON header, keys sorted: the caller's plain metadata plus
            "arrays", the ordered [name, shape] list of the stored arrays
    then each listed array's float64 values in C order, in list order
    32 bytes SHA-256 of every byte before it

The header holds no path, time or host, so identical inputs give identical
bytes. Every parse failure, and any change to a byte the checksum covers,
raises the caller's error class.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from pathlib import Path

import numpy as np

_DIGEST_SIZE = 32  # SHA-256


def write(path, magic, meta, arrays):
    """Write `meta` (a JSON-able dict) and named arrays; atomic via os.replace."""
    arrays = {name: np.asarray(a, dtype="<f8") for name, a in arrays.items()}
    header = {**meta, "arrays": [[name, list(a.shape)] for name, a in arrays.items()]}
    head = json.dumps(header, sort_keys=True).encode("utf-8")
    body = b"".join([magic, struct.pack("<I", len(head)), head,
                     *(a.tobytes() for a in arrays.values())])
    tmp = Path(f"{path}.tmp")
    with open(tmp, "wb") as fh:
        fh.write(body)
        fh.write(hashlib.sha256(body).digest())
    os.replace(tmp, path)


def read(path, magic, error):
    """(meta, {name: array}) from a file written by `write`."""
    blob = Path(path).read_bytes()
    if not blob.startswith(magic):
        raise error(f"magic mismatch: expected {magic!r}, found {blob[:len(magic)]!r}")
    start = len(magic) + 4
    if len(blob) < start:
        raise error("truncated file: no header length")
    (head_len,) = struct.unpack_from("<I", blob, len(magic))
    if len(blob) < start + head_len:
        raise error("truncated file: header cut short")
    try:
        meta = json.loads(blob[start:start + head_len].decode("utf-8"))
        listing = meta.pop("arrays")
        shapes = {name: tuple(shape) for name, shape in listing}
        if len(shapes) != len(listing) or not all(
                isinstance(name, str) and all(type(d) is int and d >= 0 for d in shape)
                for name, shape in shapes.items()):
            raise ValueError("bad array list")
    except (ValueError, TypeError, KeyError, AttributeError) as exc:
        raise error(f"corrupt header: {exc}") from exc
    size = 8 * sum(math.prod(shape) for shape in shapes.values())
    pos = start + head_len
    if len(blob) < pos + size + _DIGEST_SIZE:
        raise error(f"truncated file: {len(blob) - pos} of {size} data bytes "
                    f"and the {_DIGEST_SIZE}-byte checksum")
    if len(blob) > pos + size + _DIGEST_SIZE:
        raise error(f"trailing bytes: {len(blob) - pos - size - _DIGEST_SIZE} after the checksum")
    if hashlib.sha256(memoryview(blob)[:-_DIGEST_SIZE]).digest() != blob[-_DIGEST_SIZE:]:
        raise error("checksum mismatch: the file's SHA-256 trailer does not match its contents")
    arrays = {}
    for name, shape in shapes.items():
        n = math.prod(shape)
        arrays[name] = np.frombuffer(blob, "<f8", n, pos).reshape(shape).copy()
        pos += 8 * n
    return meta, arrays


def sha256(arrays):
    """Digest of named arrays: names, shapes and float64 bytes, in order."""
    h = hashlib.sha256()
    for name, a in arrays.items():
        a = np.asarray(a, dtype="<f8")
        h.update(json.dumps([name, a.shape]).encode("utf-8"))
        h.update(a.tobytes())
    return h.hexdigest()
