"""Deterministic artifact serialization helpers.

Every artifact written by this package must hash identically across runs
for a fixed seed, so formats here avoid timestamps, dict-order dependence
and locale-dependent float text. Binary containers store one canonical
JSON header line followed by raw little-endian array bytes. A container's
arrays, their order, dtypes and ranks are fixed by its caller's schema, and
the loader accepts no other layout. Every artifact is written through
`atomic_write`, so a reader sees either the previous file or the complete
new one, never a partial write.
"""

from __future__ import annotations

import hashlib
import json
import math
import mmap
import os
import secrets
from contextlib import contextmanager, suppress
from pathlib import Path
from typing import Any, Iterator, IO

import numpy as np

from outageplan.errors import ArtifactMismatchError

CONTAINER_MAGIC = "OPAC1"
# largest slice of an array that save_container converts at once
_BLOCK_BYTES = 1 << 20

# JSON kinds by the Python type json.load gives them, bool before int
_JSON_KIND = {dict: "an object", list: "a list", str: "a string", bool: "a boolean", int: "an integer",
              float: "a number", type(None): "null"}


def canonical_json(obj: Any) -> str:
    """Serialize with sorted keys and no whitespace so equal content gives equal bytes."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def sha256_of_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@contextmanager
def atomic_write(path, mode: str = "w", **open_kwargs) -> Iterator[IO]:
    """Open a new temp file beside `path` for writing ("w" or "wb" mode) and
    move it over `path` with os.replace when the block ends. If the block
    raises, the temp file is removed and whatever was at `path` is left
    untouched. This guards against a crash or a concurrent writer, not a
    power loss: nothing is fsynced."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{secrets.token_hex(4)}.tmp")
    try:
        with open(tmp, mode.replace("w", "x"), **open_kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def write_json(path, doc: Any) -> None:
    """Write a JSON artifact: keys sorted, two-space indent, final newline.
    A NaN or infinite number raises ValueError, as strict JSON has none."""
    with atomic_write(path, newline="\n") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2, allow_nan=False)
        fh.write("\n")


def _reject_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def read_json(path) -> Any:
    """The document in a JSON file, or None when the file is not UTF-8 text
    holding strict JSON; NaN, Infinity and -Infinity, which `json.load`
    would accept, are not strict JSON."""
    try:
        with open(path) as fh:
            return json.load(fh, parse_constant=_reject_constant)
    except ValueError:  # UnicodeDecodeError and JSONDecodeError included
        return None


class StoredRows:
    """A 2-D array held as the rows that exist: row i is `store[slots[i]]`,
    and all zeros where `slots[i]` is -1. `save_container` writes it a block
    of rows at a time, so the whole array is never built."""

    ndim = 2

    def __init__(self, slots: np.ndarray, store: np.ndarray):
        self.slots = slots
        self.store = store
        self.shape = (len(slots), store.shape[1])
        self.dtype = store.dtype

    def take(self, start: int, out: np.ndarray) -> np.ndarray:
        """Write rows start .. start + len(out) of the array into `out`, which
        must be all zeros and may be of a wider dtype. Returns the indices of
        the rows of `out` that were written, so a caller that reuses `out`
        clears only those."""
        slots = self.slots[start : start + len(out)]
        stored = np.flatnonzero(slots >= 0)
        out[stored] = np.take(self.store, slots[stored], axis=0)
        return stored


def save_container(path, meta: dict, arrays: dict, schema: dict[str, tuple[str, int]]) -> None:
    """Write `meta` and the arrays `schema` lists as one self-describing file.

    `schema` maps each array name, in file order, to its stored
    little-endian dtype string and its rank. `arrays` must hold exactly
    those names, each an ndarray or a `StoredRows` of that rank and safely
    castable to that dtype; otherwise ValueError, and nothing is written.
    The bytes are converted and written a block of at most 1 MiB at a time,
    so no full-size copy of a C-contiguous array is made, and a `StoredRows`
    is gathered block by block into one reused buffer, which stays zero
    between blocks: only the rows a block scattered are cleared after it."""
    if arrays.keys() != schema.keys():
        raise ValueError(f"arrays {list(arrays)} differ from the schema's {list(schema)}")
    for name, (dtype, ndim) in schema.items():
        if arrays[name].ndim != ndim:
            raise ValueError(f"array {name!r} must be {ndim}-D, got {arrays[name].ndim}-D")
        if not np.can_cast(arrays[name].dtype, dtype, "safe"):
            raise ValueError(f"array {name!r} of dtype {arrays[name].dtype} cannot be stored as {np.dtype(dtype)}")
    manifest = [[name, dtype, list(arrays[name].shape)] for name, (dtype, _) in schema.items()]
    header = canonical_json({"magic": CONTAINER_MAGIC, "meta": meta, "arrays": manifest})
    with atomic_write(path, "wb") as fh:
        fh.write(header.encode("utf-8"))
        fh.write(b"\n")
        for name, (dtype, _) in schema.items():
            array = arrays[name]
            if isinstance(array, StoredRows):
                rows, width = array.shape
                step = max(_BLOCK_BYTES // (np.dtype(dtype).itemsize * max(width, 1)), 1)
                buffer = np.zeros((min(step, rows), width), dtype)
                for start in range(0, rows, step):
                    block = buffer[: rows - start]
                    stored = array.take(start, block)
                    fh.write(block.view(np.uint8))
                    block[stored] = 0
                continue
            flat, step = array.reshape(-1), max(_BLOCK_BYTES // np.dtype(dtype).itemsize, 1)
            for start in range(0, flat.size, step):
                # one expression, so a block is freed before the next exists
                fh.write(np.ascontiguousarray(flat[start : start + step], dtype=dtype).view(np.uint8))


def _checked_specs(path, header: dict, schema: dict[str, tuple[str, int]]) -> list[tuple[str, np.dtype, tuple]]:
    """Name, dtype and shape of each array the header lists, if it lists
    exactly the schema's arrays: their names in order, each with the
    schema's dtype string and a shape of the schema's rank."""
    try:
        listed = [(name, dtype, tuple(shape)) for name, dtype, shape in header.get("arrays")]
    except (TypeError, ValueError) as exc:
        raise ArtifactMismatchError(f"{path}: malformed container header") from exc
    names = [name for name, _, _ in listed]
    if names != list(schema):
        raise ArtifactMismatchError(f"{path}: holds arrays {names}, expected {list(schema)}")
    for (name, dtype, shape), (want, ndim) in zip(listed, schema.values()):
        if dtype != want or len(shape) != ndim:
            raise ArtifactMismatchError(f"{path}: array {name!r} must be {ndim}-D {want}, got {len(shape)}-D {dtype}")
        if not all(type(n) is int and n >= 0 for n in shape):
            raise ArtifactMismatchError(f"{path}: malformed container entry for array {name!r}")
    return [(name, np.dtype(dtype), shape) for name, dtype, shape in listed]


def load_container(path, schema: dict[str, tuple[str, int]]) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a container written by `save_container` with the same `schema`.
    The header must list exactly the schema's arrays, and the payload must
    hold exactly those arrays: a truncated file, trailing bytes or a
    malformed or foreign header raise ArtifactMismatchError.

    The file is memory-mapped read-only and each array is a view of the map
    at its offset, so loading copies nothing and a page is read only when it
    is touched. The arrays are read-only: any write raises ValueError. They
    may be unaligned, because the header line has arbitrary length; numpy
    computes on unaligned arrays, and no loaded array reaches the compiled
    Q-learning loop, which needs aligned writable memory. The map keeps the
    file it opened, so it stays valid after `atomic_write` replaces the path.
    """
    with open(path, "rb") as fh:
        header_line = fh.readline()
        try:
            header = json.loads(header_line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ArtifactMismatchError(f"{path}: not an outageplan container") from exc
        if not isinstance(header, dict) or header.get("magic") != CONTAINER_MAGIC:
            raise ArtifactMismatchError(f"{path}: not an outageplan container")
        if not isinstance(header.get("meta"), dict):
            raise ArtifactMismatchError(f"{path}: malformed container header")
        specs = _checked_specs(path, header, schema)
        # the header is a JSON object, so the file is not empty and maps
        mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    offset = len(header_line)
    expected = sum(dtype.itemsize * math.prod(shape) for _, dtype, shape in specs)
    if len(mapped) - offset != expected:
        raise ArtifactMismatchError(
            f"{path}: payload is {len(mapped) - offset} bytes, header lists arrays of {expected} bytes"
        )
    arrays: dict[str, np.ndarray] = {}
    for name, dtype, shape in specs:
        count = math.prod(shape)
        arrays[name] = np.frombuffer(mapped, dtype=dtype, count=count, offset=offset).reshape(shape)
        offset += dtype.itemsize * count
    return header["meta"], arrays


def release_pages(view: np.ndarray, stop: int) -> None:
    """Drop this process's copy of every whole memory page in the first
    `stop` bytes of `view`, a C-contiguous array that `load_container`
    returned, with `madvise(MADV_DONTNEED)`. The map is read-only and shared,
    so nothing is lost: a dropped page is read again from the file when it
    is next touched."""
    if not hasattr(mmap, "MADV_DONTNEED"):
        return
    mapping = view.base
    while isinstance(mapping, (np.ndarray, memoryview)):
        mapping = mapping.obj if isinstance(mapping, memoryview) else mapping.base
    if not isinstance(mapping, mmap.mmap):
        raise ValueError("release_pages needs an array that load_container mapped")
    start = view.ctypes.data - np.frombuffer(mapping, np.uint8).ctypes.data
    first = -(-start // mmap.PAGESIZE) * mmap.PAGESIZE
    last = (start + stop) // mmap.PAGESIZE * mmap.PAGESIZE
    if last > first:
        mapping.madvise(mmap.MADV_DONTNEED, first, last - first)


def check_fields(doc: Any, fields: dict[str, tuple[type, ...]], where: str) -> dict:
    """`doc` if it is a JSON object whose listed fields have one of their
    listed types (a missing field reads as null); otherwise
    ArtifactMismatchError naming the first field that does not."""

    def kind(value: Any) -> str:
        return next(text for t, text in _JSON_KIND.items() if isinstance(value, t))

    if not isinstance(doc, dict):
        raise ArtifactMismatchError(f"{where}: expected an object, got {kind(doc)}")
    for name, kinds in fields.items():
        if not isinstance(doc.get(name), kinds):
            want, got = " or ".join(_JSON_KIND[k] for k in kinds), kind(doc[name]) if name in doc else "nothing"
            raise ArtifactMismatchError(f"{where}: field {name!r} must be {want}, got {got}")
    return doc


def parse_csv_rows(lines: list[str], dtype: np.dtype) -> tuple[np.ndarray, int | None]:
    """Comma-separated rows, one cell per field of the structured `dtype`,
    parsed with numpy up to the first line that does not parse, and that
    line's index (None if every line does)."""

    def parse(chunk: list[str]) -> np.ndarray:
        if not chunk:
            return np.empty(0, dtype=dtype)
        return np.loadtxt(chunk, delimiter=",", comments=None, dtype=dtype, ndmin=1)

    try:
        return parse(lines), None
    except ValueError:
        pass
    # Only a malformed file gets here: find its first bad line.
    for bad, line in enumerate(lines):
        try:
            parse([line])
        except ValueError:
            return parse(lines[:bad]), bad
    raise AssertionError("unreachable: every line parses on its own")


def format_float(x: float) -> str:
    """Shortest decimal text that round-trips the exact double."""
    return repr(float(x))
