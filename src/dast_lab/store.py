"""The one on-disk container for checkpoints, exemplar indexes and images.

Layout (little-endian):
    magic   caller-chosen bytes (b"DLCKPT5" for checkpoints, b"DMSR3\\0" for
            indexes, b"DLIMG1" for a split's images)
    u32     header length H
    H bytes UTF-8 JSON header, keys sorted: the caller's plain metadata plus
            "arrays", the ordered [name, shape] list of the stored arrays
    then each listed array's float64 values in C order, in list order
    32 bytes SHA-256 of every byte before it

The header holds no path, time or host, so identical inputs give identical
bytes. Every parse failure, and any change to a byte the checksum covers,
raises the caller's error class, naming the file. `write` streams each array
to the file and the digest without joining a copy of the body; `read` reads
all arrays into one aligned buffer and returns views of it.
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
    digest = hashlib.sha256()
    tmp = Path(f"{path}.tmp")
    with open(tmp, "wb") as fh:
        # reshape(-1) views a C-contiguous array (0-d included) without a copy
        for chunk in (magic, struct.pack("<I", len(head)), head,
                      *(a.reshape(-1) for a in arrays.values())):
            fh.write(chunk)
            digest.update(chunk)
        fh.write(digest.digest())
    os.replace(tmp, path)


def read(path, magic, error):
    """(meta, {name: array}) from a file written by `write`; the arrays are
    writable views of one buffer."""
    with open(path, "rb") as fh:
        total = os.fstat(fh.fileno()).st_size
        lead = fh.read(len(magic) + 4)
        if not lead.startswith(magic):
            raise error(f"{path}: magic mismatch: expected {magic!r}, "
                        f"found {lead[:len(magic)]!r}")
        if len(lead) < len(magic) + 4:
            raise error(f"{path}: truncated file: no header length")
        (head_len,) = struct.unpack_from("<I", lead, len(magic))
        if total < len(lead) + head_len:
            raise error(f"{path}: truncated file: header cut short")
        head = fh.read(head_len)
        try:
            meta = json.loads(head.decode("utf-8"))
            listing = meta.pop("arrays")
            shapes = {name: tuple(shape) for name, shape in listing}
            if len(shapes) != len(listing) or not all(
                    isinstance(name, str) and all(type(d) is int and d >= 0 for d in shape)
                    for name, shape in shapes.items()):
                raise ValueError("bad array list")
        except (ValueError, TypeError, KeyError, AttributeError) as exc:
            raise error(f"{path}: corrupt header: {exc}") from exc
        count = sum(math.prod(shape) for shape in shapes.values())
        data = total - len(lead) - head_len - _DIGEST_SIZE
        if data < 8 * count:
            raise error(f"{path}: truncated file: {data + _DIGEST_SIZE} of {8 * count} data "
                        f"bytes and the {_DIGEST_SIZE}-byte checksum")
        if data > 8 * count:
            raise error(f"{path}: trailing bytes: {data - 8 * count} after the checksum")
        buf = np.empty(count, dtype="<f8")
        got = fh.readinto(memoryview(buf).cast("B"))
        trailer = fh.read(_DIGEST_SIZE)
    digest = hashlib.sha256(lead)
    digest.update(head)
    digest.update(buf)
    if got != 8 * count or digest.digest() != trailer:
        raise error(f"{path}: checksum mismatch: the file's SHA-256 trailer does not "
                    f"match its contents")
    arrays, pos = {}, 0
    for name, shape in shapes.items():
        n = math.prod(shape)
        arrays[name] = buf[pos:pos + n].reshape(shape)
        pos += n
    return meta, arrays


def sha256(arrays):
    """Digest of named arrays: names, shapes and float64 bytes, in order."""
    h = hashlib.sha256()
    for name, a in arrays.items():
        a = np.asarray(a, dtype="<f8")
        h.update(json.dumps([name, a.shape]).encode("utf-8"))
        h.update(a.tobytes())
    return h.hexdigest()
