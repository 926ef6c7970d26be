"""Parameter checkpoint I/O.

One binary layout, every integer little-endian:

    MFUSE2\\n         7 bytes of magic
    header length    u64
    header           compact UTF-8 JSON: a list of {"name", "shape", "offset"}
                     objects in sorted name order; an offset is in bytes
                     from the start of the payload
    payload          each array's float64 values, little-endian, row-major,
                     back to back in header order
    digest           SHA-256 of every byte before it

Identical arrays give identical bytes, and a damaged byte anywhere fails the
digest. The loader trusts nothing else either: every fault is a one-line
CheckpointError naming the file.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct

import numpy as np

_MAGIC = b"MFUSE2\n"
_TEXT_MAGIC = b"MFUSE1\n"  # the text layout of earlier versions
_LENGTH = struct.Struct("<Q")
_DIGEST_SIZE = hashlib.sha256().digest_size
_FLOAT = np.dtype("<f8")
_FIELDS = {"name", "shape", "offset"}


class CheckpointError(Exception):
    pass


def save_arrays(path, arrays):
    """Write a name -> ndarray mapping."""
    header, payload, offset = [], [], 0
    for name in sorted(arrays):
        if not name or any(ch.isspace() for ch in name):
            raise CheckpointError(f"invalid parameter name {name!r}")
        arr = np.asarray(arrays[name], dtype=_FLOAT)
        header.append({"name": name, "shape": list(arr.shape), "offset": offset})
        payload.append(arr.tobytes())
        offset += arr.nbytes
    head = json.dumps(header, separators=(",", ":")).encode()
    body = b"".join([_MAGIC, _LENGTH.pack(len(head)), head, *payload])
    with open(path, "wb") as fh:
        fh.write(body)
        fh.write(hashlib.sha256(body).digest())


def load_arrays(path):
    """Read a checkpoint back into a name -> ndarray dict.

    Checks, in order: the digest; the magic and the header size; that the
    header is UTF-8 JSON listing {name, shape, offset} objects; the names
    (non-empty, no whitespace, unique, sorted); the shapes (lists of
    non-negative ints); the offsets, which must tile the payload exactly; and
    the values, which must be finite. Each fault raises CheckpointError.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc.strerror}") from None
    if data.startswith(_TEXT_MAGIC):
        raise CheckpointError(
            f"{path}: a text checkpoint from an earlier version of mmfuse; retrain the model"
        )
    start = len(_MAGIC) + _LENGTH.size
    end = len(data) - _DIGEST_SIZE
    if end < start:
        raise CheckpointError(f"{path}: {len(data)} bytes is too short for a checkpoint")
    if hashlib.sha256(memoryview(data)[:end]).digest() != data[end:]:
        raise CheckpointError(f"{path}: digest mismatch, the file is damaged")
    if not data.startswith(_MAGIC):
        raise CheckpointError(f"{path}: missing {_MAGIC.decode().strip()} magic")
    (size,) = _LENGTH.unpack_from(data, len(_MAGIC))
    if size > end - start:
        raise CheckpointError(f"{path}: header length {size} runs past the end of the file")
    try:
        header = json.loads(data[start : start + size].decode("utf-8"))
    except UnicodeDecodeError:
        raise CheckpointError(f"{path}: header is not UTF-8") from None
    except (ValueError, RecursionError):
        raise CheckpointError(f"{path}: header is not JSON") from None
    if not isinstance(header, list) or not all(
        isinstance(entry, dict) and entry.keys() == _FIELDS for entry in header
    ):
        raise CheckpointError(f"{path}: header is not a list of {{name, shape, offset}} objects")
    names = [entry["name"] for entry in header]
    for name in names:
        if not isinstance(name, str) or not name or any(ch.isspace() for ch in name):
            raise CheckpointError(f"{path}: invalid array name {name!r}")
    for before, name in zip(names, names[1:]):
        if before == name:
            raise CheckpointError(f"{path}: duplicate array {name!r}")
        if before > name:
            raise CheckpointError(f"{path}: array {name!r} is out of sorted order")
    for entry in header:
        shape = entry["shape"]
        if not isinstance(shape, list) or not all(type(d) is int and d >= 0 for d in shape):
            raise CheckpointError(f"{path}: bad shape {shape!r} for {entry['name']!r}")
    payload = end - start - size
    filled = 0
    for entry in header:
        if type(entry["offset"]) is not int or entry["offset"] != filled:
            raise CheckpointError(
                f"{path}: {entry['name']!r} at offset {entry['offset']!r}, expected {filled}"
            )
        filled += _FLOAT.itemsize * math.prod(entry["shape"])
    if filled != payload:
        raise CheckpointError(f"{path}: payload holds {payload} bytes, the header lists {filled}")
    arrays = {}
    for entry in header:
        name, shape = entry["name"], entry["shape"]
        values = np.frombuffer(data, _FLOAT, math.prod(shape), start + size + entry["offset"])
        try:
            values = values.reshape(shape)
        except ValueError:  # more dims, or a larger dim, than NumPy allows
            raise CheckpointError(f"{path}: bad shape {shape!r} for {name!r}") from None
        if not np.isfinite(values).all():
            raise CheckpointError(f"{path}: non-finite value in {name!r}")
        arrays[name] = values.copy()
    return arrays


def file_sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()
