"""Deterministic artifact serialization helpers.

Every artifact written by this package must hash identically across runs
for a fixed seed, so formats here avoid timestamps, dict-order dependence
and locale-dependent float text. Binary containers store one canonical
JSON header line followed by raw little-endian array bytes.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from typing import Any

import numpy as np

CONTAINER_MAGIC = "OPAC1"


def canonical_json(obj: Any) -> str:
    """Serialize with sorted keys and no whitespace so equal content gives equal bytes."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def sha256_of_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def sha256_of_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_of_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _bytes_view(arr: np.ndarray) -> np.ndarray:
    """The raw bytes of a C-contiguous array, without a copy."""
    return arr.reshape(-1).view(np.uint8)


def save_container(path, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    """Write named arrays plus a metadata dict as one self-describing file."""
    manifest = []
    buffers = []
    for name, arr in arrays.items():
        arr = np.ascontiguousarray(arr)
        if arr.dtype.byteorder == ">":
            arr = arr.astype(arr.dtype.newbyteorder("<"))
        manifest.append([name, arr.dtype.str, list(arr.shape)])
        buffers.append(arr)
    header = canonical_json({"magic": CONTAINER_MAGIC, "meta": meta, "arrays": manifest})
    with open(path, "wb") as fh:
        fh.write(header.encode("utf-8"))
        fh.write(b"\n")
        for arr in buffers:
            fh.write(_bytes_view(arr))


def _array_specs(path, header: dict) -> list[tuple[str, np.dtype, tuple[int, ...]]]:
    try:
        specs = [(name, np.dtype(dtype_str), tuple(shape)) for name, dtype_str, shape in header["arrays"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed container header") from exc
    for name, dtype, shape in specs:
        if dtype.hasobject or not all(type(n) is int and n >= 0 for n in shape):
            raise ValueError(f"{path}: malformed container entry for array {name!r}")
    return specs


def load_container(path) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a container written by `save_container`. The payload must hold
    exactly the arrays the header lists: a truncated file or trailing bytes
    raise ValueError."""
    with open(path, "rb") as fh:
        header_line = fh.readline()
        try:
            header = json.loads(header_line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValueError(f"{path}: not an outageplan container") from exc
        if not isinstance(header, dict) or header.get("magic") != CONTAINER_MAGIC:
            raise ValueError(f"{path}: not an outageplan container")
        specs = _array_specs(path, header)
        expected = sum(dtype.itemsize * math.prod(shape) for _, dtype, shape in specs)
        payload = os.fstat(fh.fileno()).st_size - fh.tell()
        if payload != expected:
            raise ValueError(
                f"{path}: payload is {payload} bytes, header lists arrays of {expected} bytes"
            )
        arrays: dict[str, np.ndarray] = {}
        for name, dtype, shape in specs:
            arr = np.empty(shape, dtype=dtype)
            if fh.readinto(_bytes_view(arr)) != arr.nbytes:
                raise ValueError(f"{path}: payload ends inside array {name!r}")
            arrays[name] = arr
    return header["meta"], arrays


def format_float(x: float) -> str:
    """Shortest decimal text that round-trips the exact double."""
    return repr(float(x))
