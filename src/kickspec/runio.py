"""Result tables, run manifests, and the cell cache behind the CLI.

Output files must be byte-identical across reruns and across thread counts,
so every float is written with its shortest round-trip repr, rows are always
emitted in cell-index order, and files are written atomically (temp file plus
rename).  The manifest records the exact parameter map and its content hash;
the hash covers the canonicalised parameters only, never the timestamp.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Sequence

__all__ = [
    "ResultTable",
    "write_manifest",
    "canonical_params",
    "manifest_hash",
    "atomic_write_text",
    "write_csv",
    "write_json",
    "CellCache",
]


_CELL_TYPES = frozenset((int, float, str))
_NUMBER_TYPES = frozenset((int, float))


@dataclass(frozen=True)
class ResultTable:
    """Named columns over rows of equal arity whose every cell is exactly an
    int, a float or a str (a bool is not), so a table that exists can be
    written."""

    columns: tuple[str, ...]
    rows: tuple[tuple, ...]

    def __post_init__(self):
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError("row arity does not match the column count")
            for cell in row:
                if type(cell) not in _CELL_TYPES:
                    raise ValueError(
                        f"unsupported cell type {type(cell).__name__}")

    def __len__(self) -> int:
        return len(self.rows)


def atomic_write_text(path: Path, text: str) -> None:
    """Write file contents via a temp file and rename, never a partial file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def write_csv(path: Path, table: ResultTable,
              footer: Sequence[Sequence[Any]] = ()) -> None:
    """Emit an RFC-4180-style CSV with full round-trip float precision.

    A row of ints and floats is written as the comma join of their reprs,
    which is what csv.writer writes for it, since csv never quotes a
    number; any other row goes through csv.writer.  Footer rows (for fitted
    summaries) are appended verbatim after the data rows; they may have a
    different arity.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
    for row in (table.columns, *table.rows, *footer):
        if _NUMBER_TYPES.issuperset(map(type, row)):
            buffer.write(",".join(map(repr, row)) + "\n")
        else:
            writer.writerow(row)
    atomic_write_text(Path(path), buffer.getvalue())


def write_json(path: Path, payload: dict[str, Any]) -> None:
    """Write a JSON object with sorted keys, two-space indent and a final
    newline, so equal payloads give equal bytes."""
    atomic_write_text(Path(path),
                      json.dumps(payload, indent=2, sort_keys=True) + "\n")


def canonical_params(params: dict[str, Any]) -> str:
    """Canonical JSON of a parameter map: sorted keys, no whitespace."""
    return json.dumps(params, sort_keys=True, separators=(",", ":"))


def manifest_hash(params: dict[str, Any]) -> str:
    """Deterministic content hash of the canonicalised parameter map."""
    return hashlib.sha256(canonical_params(params).encode("utf-8")).hexdigest()


def write_manifest(directory: Path, command: str, params: dict[str, Any],
                   version: str, outputs: Iterable[str]) -> Path:
    """Write ``manifest.json``: what produced the files sitting next to it.

    The hash covers ``params`` only, so reruns with equal parameters carry
    equal hashes whatever their timestamps.
    """
    path = Path(directory) / "manifest.json"
    write_json(path, {
        "command": command,
        "params": params,
        "hash": manifest_hash(params),
        "version": version,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "outputs": list(outputs),
    })
    return path


class CellCache:
    """Disk cache of computed sweep rows, keyed by exact parameter hash.

    A cached entry is reused only when the requesting run's hash matches the
    stored key byte for byte; any parameter change misses.  An entry that
    cannot be read or parsed is a miss too, and the next ``put`` replaces it.
    """

    def __init__(self, directory: Path):
        self.directory = Path(directory)

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def get(self, key: str):
        try:
            with open(self._path(key), "r") as handle:
                stored = json.load(handle)
        except (OSError, ValueError):  # missing, unreadable or truncated
            return None
        if not isinstance(stored, dict) or stored.get("key") != key:
            return None
        return stored.get("rows")

    def put(self, key: str, rows) -> None:
        payload = json.dumps({"key": key, "rows": rows}, sort_keys=True)
        atomic_write_text(self._path(key), payload)
