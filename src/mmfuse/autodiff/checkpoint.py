"""Parameter checkpoint I/O.

Plain-text format, one record per named array:

    MFUSE1
    <name> <ndim> <d1> ... <dk>
    <v1> <v2> ... (row-major, repr'd float64, exact round-trip)

Records appear in sorted name order so identical parameter sets serialize to
identical bytes.
"""

from __future__ import annotations

import hashlib

import numpy as np

MAGIC = "MFUSE1"


class CheckpointError(Exception):
    pass


def save_arrays(path, arrays):
    """Write name -> ndarray mappings; Tensors may be passed (data is taken)."""
    with open(path, "w") as fh:
        fh.write(MAGIC + "\n")
        for name in sorted(arrays):
            value = arrays[name]
            arr = np.asarray(getattr(value, "data", value), dtype=np.float64)
            if any(ch.isspace() for ch in name) or not name:
                raise CheckpointError(f"invalid parameter name {name!r}")
            dims = " ".join(str(d) for d in arr.shape)
            fh.write(f"{name} {arr.ndim}{' ' + dims if dims else ''}\n")
            fh.write(" ".join(repr(float(v)) for v in arr.reshape(-1)) + "\n")


def load_arrays(path):
    """Read a checkpoint back into a name -> ndarray dict.

    Every malformed header, non-numeric or non-finite value, value count
    mismatch and duplicate name raises CheckpointError naming its line.
    """
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise CheckpointError(f"{path}: not a text checkpoint ({exc.reason})") from None
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc.strerror}") from None
    if not lines or lines[0] != MAGIC:
        raise CheckpointError(f"{path}: missing {MAGIC} header")
    arrays = {}
    i = 1
    while i < len(lines):
        if not lines[i].strip():
            i += 1
            continue
        header = lines[i].split()
        try:
            name, ndim, shape = header[0], int(header[1]), tuple(int(d) for d in header[2:])
        except (IndexError, ValueError):
            raise CheckpointError(f"{path}:{i + 1}: malformed record header") from None
        if len(shape) != ndim or any(d < 0 for d in shape):
            raise CheckpointError(f"{path}:{i + 1}: bad shape in header for {name!r}")
        if name in arrays:
            raise CheckpointError(f"{path}:{i + 1}: duplicate record {name!r}")
        if i + 1 >= len(lines):
            raise CheckpointError(f"{path}: truncated record for {name!r}")
        try:
            values = np.array([float(v) for v in lines[i + 1].split()])
        except ValueError:
            raise CheckpointError(f"{path}:{i + 2}: non-numeric value for {name!r}") from None
        if values.size != int(np.prod(shape)):
            raise CheckpointError(
                f"{path}:{i + 2}: value count mismatch for {name!r}: "
                f"{values.size} values for shape {shape}"
            )
        if not np.isfinite(values).all():
            raise CheckpointError(f"{path}:{i + 2}: non-finite value for {name!r}")
        arrays[name] = values.reshape(shape)
        i += 2
    return arrays


def file_sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()
